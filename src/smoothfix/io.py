"""File artifacts: pool/scan/density/trajectory CSVs, reports, manifests.

All floats are written with %.17g (or repr), so files round-trip float64
exactly and identical computations produce byte-identical artifacts.

The CSV writers write the bytes of np.savetxt(fmt="%.17g", delimiter=",",
comments="") without formatting any float in Python.  One kernel,
_format_cells, turns a block of float64 values into the bytes that
'%.17g' % v gives, and every writer goes through it:

- D = round-half-even(|v| 10^(16-e)), e = floor(log10|v|), is the
  rounding of a double-double product (_round17).  |v| is scaled by a
  power of two and multiplied by 10^k / 2^g, held as two doubles in a
  table built from Python integers, with Dekker's split product: no FMA,
  long double or C code.  The sum is within 2^-104 of the exact product,
  which is under 2^-44 for every 17-digit D.  A value whose fraction lies
  within 2^-32 of 1/2 (every exact tie does) takes its bytes from
  Python's %, as do inf and nan; 0 and -0 are formatted in the kernel.
  Rows where floor(log10) missed by one, or whose D rounds up to 10^17,
  are scaled again (_settle).
- The 16 digits after the first come from SWAR arithmetic on two int64
  words.  A cell of 46 bytes holds every byte any layout of '%.17g' can
  print, in order, and each value's layout (notation, exponent,
  significant digits, sign) selects its bytes through a mask table; one
  boolean compaction per block gives the block's text.

A block is 2048 values (_BLOCK_VALUES), about 0.4 MB of work arrays.
Blocks are formatted, hashed and written in row order on the calling
thread.  The kernel is some 60 short numpy calls per block, which on
worker threads wait on each other for the GIL: two threads wrote a
256 x 256 density grid slower than one with these blocks, and at most
20 % faster with blocks 4-8 times larger.  A 2-d density grid formats
each x and each y coordinate once and copies their bytes into each
block of grid rows.

A pool is three files: the CSV, its .meta.json and a .samples.npy
sidecar (pool_files).  The sidecar holds the samples as one complex128
vector with the bits that parsing the CSV gives (re + 1j*im, so a -0.0
real part may read back as 0.0), and the meta records the sha256 of the
CSV and of the sidecar (csv_sha256, npy_sha256).  The writer streams the
CSV, the sidecar and both digests block by block and writes the meta
last.  The reader takes the samples from the sidecar only when both
digests match the bytes on disk; otherwise (no meta, an older meta
without digests, an edited CSV, a missing or damaged sidecar) it parses
the CSV, with every error the parse reports.  The meta checks run on both
paths.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import warnings
from io import BytesIO
from pathlib import Path

import numpy as np

from . import __version__
from .popdyn import SamplePool


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(_json_text(obj))
    return path


# -- exact %.17g formatting -----------------------------------------------------

_BLOCK_VALUES = 2048  # values formatted per block (about 0.4 MB of work arrays)
_SIDECAR_ROWS = 4096  # samples per .samples.npy write

# A cell holds one formatted value and its separator, as bytes that a mask
# selects: "-", "0.000", digits 0-16, ".", digits 1-16, "e+308", separator.
# Every layout of '%.17g' is a selection of these bytes in this order.
_CELL = 46
_SIGN, _ZERO, _A, _POINT, _B, _E, _SEP = 0, 1, 6, 23, 24, 40, 45

_K_MIN, _K_MAX = -300, 350  # the scalings 10^k in the power table
_E_OFFSET = 400  # exponent e is entry e + _E_OFFSET of the per-exponent tables
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_TIE_WINDOW = 2.0**-32  # fractions this near 1/2 are left to Python's %
_D_MIN, _D_MAX = 10**16, 10**17  # the range of a 17-digit significand


def _layout_mask(layout: int, length: int) -> np.ndarray:
    """The cell bytes of a positive value with `length` significant digits.

    Layouts 0-20 are fixed notation with exponent layout - 4 (-4 to 16),
    21 and 22 scientific notation with two and three exponent digits.
    """
    m = np.zeros(_CELL, bool)
    m[_SEP] = True
    if layout < 4:  # "0.", 3 - layout zeros, then the digits
        m[_ZERO : _ZERO + 5 - layout] = True
        m[_A : _A + length] = True
        return m
    whole = layout - 3 if layout <= 20 else 1  # digits before the point
    m[_A : _A + whole] = True
    if length > whole:
        m[_POINT] = True
        m[_B + whole - 1 : _B + length - 1] = True
    if layout > 20:
        m[_E : _E + 5] = True
        m[_E + 2] = layout == 22
    return m


@functools.cache
def _format_tables():
    """The power table, the per-exponent tables, the cell masks and template.

    Built on first use from Python integers, in a few milliseconds.  Column
    k - _K_MIN of the power table holds (2^g, t_hi, t_lo, t_hi's two 26-bit
    halves) with t_hi + t_lo = 10^k / 2^g to within 2^-106 t_hi, t_hi the
    correctly rounded quotient and t_lo the correctly rounded remainder; g is
    10^k's binary exponent, capped at 1000 so that 2^g is a double.
    """
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        g = min(num.bit_length() - den.bit_length() + (k >= 0), 1000)
        num, den = num << max(-g, 0), den << max(g, 0)
        t_hi = num / den
        a, b = t_hi.as_integer_ratio()
        rows.append((2.0**g, t_hi, (num * b - a * den) / (den * b)))
    power = np.array(rows).T
    c = power[1] * _SPLIT
    t_hh = c - (c - power[1])
    power = np.vstack([power, t_hh, power[1] - t_hh])

    exps = np.arange(-_E_OFFSET, _E_OFFSET)
    layout = np.where((exps >= -4) & (exps <= 16), exps + 4, 21 + (np.abs(exps) >= 100))
    layout_key = layout * 34 - 2  # a cell's mask is row layout_key + 2 L + (sign bit)
    exp_bytes = np.frombuffer(b"".join(b"%+04d" % e for e in exps.tolist()), "<u4")
    masks = np.array([[_layout_mask(i, length)] * 2 for i in range(23) for length in range(1, 18)])
    masks[:, 1, _SIGN] = True
    cell = b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b"e+000\n"
    template = np.frombuffer(cell * _BLOCK_VALUES, np.uint8).reshape(-1, _CELL)
    tables = power, layout_key, exp_bytes, masks.reshape(-1, _CELL), template
    for table in tables:  # shared by every caller
        table.setflags(write=False)
    return tables


def _round17(a, e):
    """D = round(a 10^(16-e)) per value, and where D is too near a tie to be trusted.

    a * 2^g is exact and the split product with the table's two doubles is
    exact (Dekker 1971), so ph + pl is a 10^(16-e) to within 2^-104 of
    itself: under 2^-44 for any D below 10^18.  ph is an integer whenever
    a 10^(16-e) >= 2^53, so D = ph + rint(pl) is the correctly rounded
    value unless pl - rint(pl) lies within _TIE_WINDOW of +-1/2.  Rows
    below 2^53 get a D under 10^16 and are re-scaled by the caller.
    """
    y, t_hi, t_lo, t_hh, t_hl = _format_tables()[0].take(16 - _K_MIN - e, axis=1)
    y *= a
    y_hi = y * _SPLIT
    y_lo = y_hi - y
    y_hi -= y_lo
    np.subtract(y, y_hi, out=y_lo)
    ph = y * t_hi
    pl = y_hi * t_hh
    pl -= ph
    t_hh *= y_lo
    y_hi *= t_hl
    t_hl *= y_lo
    t_lo *= y
    pl += y_hi
    pl += t_hh
    pl += t_hl
    pl += t_lo
    r = np.rint(pl)
    d = ph.astype(np.int64)
    d += r.astype(np.int64)
    pl -= r
    np.abs(pl, out=pl)
    return d, pl > 0.5 - _TIE_WINDOW


def _settle(a, e, d, tie) -> None:
    """Correct in place the exponents that floor(log10) got wrong by one.

    A row leaves with 10^16 <= d < 10^17 and d = round(a 10^(16-e)), e the
    exponent '%.17g' prints, or is marked in tie.
    """
    for _ in range(2):
        rows = np.flatnonzero((d < _D_MIN) | (d > _D_MAX))
        if not rows.size:
            break
        e[rows] += np.where(d[rows] < _D_MIN, -1, 1)
        d[rows], near = _round17(a[rows], e[rows])
        tie[rows] |= near
    else:
        tie[(d < _D_MIN) | (d > _D_MAX)] = True
    # d = 10^16 may be a rounded-up 10^17 - 5 at one exponent lower
    edge = np.flatnonzero(d == _D_MIN)
    up = d == _D_MAX  # rounded up to the next power of ten
    e[up] += 1
    d[up] = _D_MIN
    if edge.size:
        d_low, near = _round17(a[edge], e[edge] - 1)
        tie[edge] |= near
        lower = edge[d_low < _D_MAX]
        e[lower] -= 1
        d[lower] = d_low[d_low < _D_MAX]


def _swar8(words) -> None:
    """Turn each int64 below 10^8 into its 8 decimal digits, one per byte, in place.

    The first digit goes to the lowest byte.  Each step halves the lanes:
    4-digit halves in 32-bit lanes, then 2-digit and 1-digit ones, with
    x // 100 = (x * 10486) >> 20 below 10^4 and x // 10 = (x * 103) >> 10
    below 100.  No lane overflows, and no product reaches 2^63.
    """
    hi = words // 10000
    words -= hi * 10000
    words <<= 32
    words |= hi
    for mul, shift, mask, base, lane in ((10486, 20, 0x0000007F0000007F, 100, 16),
                                         (103, 10, 0x000F000F000F000F, 10, 8)):
        hi = words * mul
        hi >>= shift
        hi &= mask
        words -= hi * base
        words <<= lane
        words |= hi


def _format_cells(x, cells, mask) -> None:
    """Write '%.17g' % v for each float64 v of x into the rows of cells and mask.

    cells and mask are (len(x), _CELL) views with contiguous rows; mask
    selects each row's bytes, the separator included.  The separator is
    "\\n"; the caller may overwrite cells[:, _SEP].
    """
    _, layout_key, exp_bytes, masks, template = _format_tables()
    n = len(x)
    if not n:
        return
    a = np.abs(x)
    special = None
    if not (a.min() > 0 and a.max() < np.inf):  # also false on nan
        zero, special = a == 0, ~np.isfinite(a)
        a[zero | special] = 1.0
    e = np.log10(a)
    e = np.floor(e, out=e).astype(np.int64)
    d, tie = _round17(a, e)
    if d.min() <= _D_MIN or d.max() >= _D_MAX:
        _settle(a, e, d, tie)
    if special is not None:
        d[zero] = 0
        e[zero] = 0
        tie |= special
    lead = d // _D_MIN
    d -= lead * _D_MIN
    words = np.empty((2, n), np.int64)  # digits 1-8 and 9-16
    np.floor_divide(d, 10**8, out=words[0])
    np.multiply(words[0], 10**8, out=words[1])
    np.subtract(d, words[1], out=words[1])
    _swar8(words)
    # significant digits: 10 + i for the last nonzero byte i of digits 9-16,
    # else 2 + i for that of digits 1-8, else 1.  A nonzero word's float
    # exponent is 8 i plus the bit within that byte: no word rounds up to a
    # power of two, as no byte exceeds 9
    ends = words.astype(np.float64).view(np.int64)
    ends >>= 52
    ends[0] += 16 - 1023
    ends[1] += 80 - 1023
    length = np.maximum(ends[0], ends[1])
    length >>= 3
    np.maximum(length, 1, out=length)
    e += _E_OFFSET
    key = layout_key.take(e)
    length <<= 1
    key += length
    key += np.signbit(x)
    if n <= len(template):
        np.copyto(cells, template[:n])
    else:
        cells[...] = template[0]
    np.add(lead, ord("0"), out=cells[:, _A], casting="unsafe")
    words += 0x3030303030303030
    cells[:, _A + 1 : _A + 9].view("<i8")[:, 0] = words[0]
    cells[:, _A + 9 : _A + 17].view("<i8")[:, 0] = words[1]
    cells[:, _B : _B + 8].view("<i8")[:, 0] = words[0]
    cells[:, _B + 8 : _B + 16].view("<i8")[:, 0] = words[1]
    cells[:, _E + 1 : _E + 5].view("<u4")[:, 0] = exp_bytes.take(e)
    mask[...] = masks.take(key, axis=0)
    for i in np.flatnonzero(tie).tolist():
        text = np.frombuffer(b"%.17g" % x[i], np.uint8)
        cells[i, : text.size] = text
        mask[i, :_SEP] = np.arange(_SEP) < text.size


def _csv_blocks(columns):
    """The %.17g CSV rows of equal-length columns, as one uint8 array per block of rows."""
    rows = max(_BLOCK_VALUES // len(columns), 1)
    seps = np.frombuffer(b"," * (len(columns) - 1) + b"\n", np.uint8)
    for lo in range(0, len(columns[0]), rows):
        values = np.column_stack([c[lo : lo + rows] for c in columns])
        cells = np.empty((values.size, _CELL), np.uint8)
        mask = np.empty(cells.shape, bool)
        _format_cells(values.astype(np.float64, copy=False).ravel(), cells, mask)
        cells.reshape(-1, len(columns), _CELL)[:, :, _SEP] = seps
        yield cells[mask]


def _savetxt(path, header: str, columns) -> Path:
    """Write equal-length columns as %.17g CSV rows under a header line."""
    path = Path(path)
    with open(path, "wb") as f:
        f.write(header.encode("ascii") + b"\n")
        for data in _csv_blocks(columns):
            f.write(data)
    return path


def summary_dicts(summaries) -> list[dict]:
    return [
        {
            "generation": s.generation,
            "mean_re": s.mean.real,
            "mean_im": s.mean.imag,
            "spread": s.spread,
            "mean_se": s.mean_se,
            "im_dispersion": s.im_dispersion,
        }
        for s in summaries
    ]


def pool_meta_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".meta.json")


def pool_samples_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".samples.npy")


def pool_files(csv_path) -> list[Path]:
    """Every file write_pool_csv writes for a pool: the CSV, its meta and its sidecar."""
    return [Path(csv_path), pool_meta_path(csv_path), pool_samples_path(csv_path)]


# Bytes hashed per read, into one reused buffer under glibc's 128 KiB mmap
# threshold: a fresh 1 MiB buffer per read is mapped and freed each time,
# which raises the threshold and, through heap layout alone, the peak RSS
# of later work (6 MB on the desk benchmark).
_HASH_CHUNK = 1 << 16


def _npy_header(n: int) -> bytes:
    """The .npy (format 1.0) header of a length-n complex128 vector."""
    buf = BytesIO()
    np.lib.format.write_array_header_1_0(buf, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.complex128)),
        "fortran_order": False,
        "shape": (n,),
    })
    return buf.getvalue()


def _write_hashed(f, digest, data) -> None:
    f.write(data)
    digest.update(data)


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    chunk = memoryview(bytearray(_HASH_CHUNK))
    with open(path, "rb") as f:
        while size := f.readinto(chunk):
            digest.update(chunk[:size])
    return digest.hexdigest()


def write_pool_csv(path, pool: SamplePool, summaries=None) -> Path:
    """Write the pool CSV, its .samples.npy sidecar and, last, its .meta.json.

    A meta that cannot be serialised writes none of them.
    """
    meta = {
        "generation": pool.generation,
        "seed": pool.seed,
        "model_fingerprint": pool.model_fingerprint,
        "n": pool.n,
    }
    if summaries is not None:
        meta["summaries"] = summary_dicts(summaries)
    _json_text(meta)  # raises before any file is written
    path = Path(path)
    csv_digest, npy_digest = hashlib.sha256(), hashlib.sha256()
    with open(path, "wb") as f:
        _write_hashed(f, csv_digest, b"re,im\n")
        for data in _csv_blocks((pool.samples.real, pool.samples.imag)):
            _write_hashed(f, csv_digest, data)
    with open(pool_samples_path(path), "wb") as f:
        _write_hashed(f, npy_digest, _npy_header(pool.n))
        for lo in range(0, pool.n, _SIDECAR_ROWS):
            block = pool.samples[lo : lo + _SIDECAR_ROWS].astype(np.complex128, copy=False)
            # the CSV holds re and im exactly, and its parse builds re + 1j * im
            _write_hashed(f, npy_digest, block.real + 1j * block.imag)
    meta["csv_sha256"] = csv_digest.hexdigest()
    meta["npy_sha256"] = npy_digest.hexdigest()
    pool_meta_path(path).write_text(_json_text(meta))
    return path


def _sidecar_samples(path: Path, meta: dict):
    """The sidecar's samples when the meta's digests match the CSV and sidecar, else None."""
    csv_sha256, npy_sha256, n = meta.get("csv_sha256"), meta.get("npy_sha256"), meta.get("n")
    if not (isinstance(csv_sha256, str) and isinstance(npy_sha256, str)
            and type(n) is int and n > 0):
        return None
    header = _npy_header(n)
    try:
        if _file_sha256(path) != csv_sha256:
            return None
        with open(pool_samples_path(path), "rb") as f:
            if (os.fstat(f.fileno()).st_size != len(header) + 16 * n
                    or f.read(len(header)) != header):
                return None
            digest = hashlib.sha256(header)
            samples = np.empty(n, dtype=np.complex128)
            raw = memoryview(samples.view(np.uint8))
            for lo in range(0, len(raw), _HASH_CHUNK):
                chunk = raw[lo : lo + _HASH_CHUNK]
                if f.readinto(chunk) != len(chunk):
                    return None
                digest.update(chunk)
    except OSError:
        return None
    # a pool written with non-finite samples is left to the parse, which names the line
    if digest.hexdigest() != npy_sha256 or not np.isfinite(samples).all():
        return None
    return samples


def _parse_pool_csv(path: Path) -> np.ndarray:
    with warnings.catch_warnings():
        # a header-only file is reported below as "no samples"
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] == 0:
        raise ValueError(f"{path}: no samples")
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns re,im, got {data.shape[1]}")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:  # data row i is line i + 2, after the header
        raise ValueError(f"{path}: non-finite sample on line {int(bad[0]) + 2}")
    return data[:, 0] + 1j * data[:, 1]


def _read_meta(meta_path: Path) -> dict:
    if not meta_path.exists():
        return {}
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_path}: invalid JSON: {exc}")
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: expected a JSON object")
    return meta


def read_pool_csv(path) -> SamplePool:
    """Read a pool CSV, from its sidecar when the meta's digests match, and check its meta."""
    path = Path(path)
    meta_path = pool_meta_path(path)
    meta_error = None
    try:
        meta = _read_meta(meta_path)
    except (OSError, ValueError) as exc:  # raised below, after the CSV's own errors
        meta, meta_error = {}, exc
    samples = _sidecar_samples(path, meta)
    if samples is None:
        samples = _parse_pool_csv(path)
    if meta_error is not None:
        raise meta_error
    # JSON integers load as int; `type(...) is int` also rejects true and false
    generation = meta.get("generation", 0)
    if not (type(generation) is int and generation >= 0):
        raise ValueError(f"{meta_path}: generation must be a non-negative integer, "
                         f"got {generation!r}")
    seed = meta.get("seed")
    if not (seed is None or type(seed) is int):
        raise ValueError(f"{meta_path}: seed must be an integer or null, got {seed!r}")
    fp = meta.get("model_fingerprint", "")
    if not isinstance(fp, str):
        raise ValueError(f"{meta_path}: model_fingerprint must be a string, got {fp!r}")
    n = meta.get("n", samples.shape[0])
    if not (type(n) is int and n == samples.shape[0]):
        raise ValueError(f"{meta_path}: n must be the integer {samples.shape[0]}, "
                         f"the sample count of {path.name}, got {n!r}")
    return SamplePool(generation, samples, seed, fp)


def write_martingale_csv(path, means) -> Path:
    return _savetxt(
        path,
        "n,mean_W,se_W,mean_Z_re,mean_Z_im,se_Z,node_count_mean",
        (
            means.depths,
            means.mean_w,
            means.se_w,
            means.mean_z.real,
            means.mean_z.imag,
            means.se_z,
            means.node_count_mean,
        ),
    )


def write_scan_csv(path, grid) -> Path:
    nr, na = grid.values.shape
    rr = np.repeat(grid.radii, na)
    tt = np.tile(grid.angles, nr)
    flat = grid.values.reshape(-1)
    return _savetxt(
        path,
        "R,theta,re,im,abs,stderr",
        (rr, tt, flat.real, flat.imag, np.abs(flat), grid.stderrs.reshape(-1)),
    )


def _left_aligned(values):
    """Each value's %.17g and a "," left-aligned in rows of one width, and the rows' masks."""
    cells = np.empty((values.size, _CELL), np.uint8)
    mask = np.empty(cells.shape, bool)
    _format_cells(values, cells, mask)
    cells[:, _SEP] = ord(",")
    lengths = mask.sum(axis=1)
    aligned_mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
    aligned = np.zeros(aligned_mask.shape, np.uint8)
    aligned[aligned_mask] = cells[mask]
    return aligned, aligned_mask


def write_density_csv(path, density) -> Path:
    if not hasattr(density, "y"):
        return _savetxt(path, "x,value", (density.x, density.values))
    # row i of the grid is the lines "x_i,y_j,value_ij" for every j: each x_i
    # and y_j is formatted once, and a block of grid rows fills one buffer of
    # (x_i, y_j, value_ij) cells whose y_j part is written once
    x_cells, x_mask = _left_aligned(np.asarray(density.x, np.float64))
    y_cells, y_mask = _left_aligned(np.asarray(density.y, np.float64))
    nx, ny = density.values.shape
    wx, wy = x_cells.shape[1], y_cells.shape[1]
    rows = max(_BLOCK_VALUES // ny, 1)
    cells = np.empty((rows, ny, wx + wy + _CELL), np.uint8)
    mask = np.empty(cells.shape, bool)
    cells[:, :, wx : wx + wy] = y_cells
    mask[:, :, wx : wx + wy] = y_mask
    path = Path(path)
    with open(path, "wb") as f:
        f.write(b"x,y,value\n")
        for lo in range(0, nx, rows):
            c, m = cells[: min(rows, nx - lo)], mask[: min(rows, nx - lo)]
            c[:, :, :wx] = x_cells[lo : lo + rows, None]
            m[:, :, :wx] = x_mask[lo : lo + rows, None]
            values = np.asarray(density.values[lo : lo + rows], np.float64).ravel()
            _format_cells(values, c.reshape(values.size, -1)[:, wx + wy :],
                          m.reshape(values.size, -1)[:, wx + wy :])
            f.write(c[m])
    return path


def manifest_path(out_path) -> Path:
    return Path(out_path).with_suffix(".manifest.json")


def write_manifest(out_path, argv, seed, model_fingerprint: str,
                   outputs=None, extra: dict | None = None) -> Path:
    doc = {
        "argv": list(argv),
        "seed": seed,
        "model_fingerprint": model_fingerprint,
        "version": __version__,
        "outputs": [str(p) for p in (outputs or [])],
    }
    if extra:
        doc.update(extra)
    return write_json(manifest_path(out_path), doc)
