"""File artifacts: pool/scan/density/trajectory CSVs, reports, manifests.

All floats are written with %.17g (or repr), so files round-trip float64
exactly and identical computations produce byte-identical artifacts.

The CSV writers write the bytes of np.savetxt(fmt="%.17g", delimiter=",",
comments="") without its one % operation per row.  A table is formatted
in blocks of 4096 rows (_BLOCK_ROWS), each by one % on the "%.17g,..."
row template repeated once per row and fed with the block's floats from
.tolist(), so only one block's columns are ever stacked.  A 2-d density
grid formats each x and each y coordinate once, then fills one template
per grid row with that row's values.

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

import hashlib
import json
import os
import warnings
from contextlib import contextmanager
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


_BLOCK_ROWS = 4096  # CSV rows formatted per % operation


@contextmanager
def _open_csv(path: Path, header: str):
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(header + "\n")
        yield f


def _csv_rows(columns):
    """The %.17g CSV rows of equal-length columns, as one string per block of rows."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([c[lo : lo + _BLOCK_ROWS] for c in columns])
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _savetxt(path, header: str, columns) -> Path:
    """Write equal-length columns as %.17g CSV rows under a header line."""
    path = Path(path)
    with _open_csv(path, header) as f:
        for text in _csv_rows(columns):
            f.write(text)
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
        for text in _csv_rows((pool.samples.real, pool.samples.imag)):
            _write_hashed(f, csv_digest, text.encode("ascii"))
    with open(pool_samples_path(path), "wb") as f:
        _write_hashed(f, npy_digest, _npy_header(pool.n))
        for lo in range(0, pool.n, _BLOCK_ROWS):
            block = pool.samples[lo : lo + _BLOCK_ROWS].astype(np.complex128, copy=False)
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


def write_density_csv(path, density) -> Path:
    if not hasattr(density, "y"):
        return _savetxt(path, "x,value", (density.x, density.values))
    path = Path(path)
    # row i of the grid is the lines "x_i,y_j,value_ij" for every j, with
    # x_i and y_j formatted once here and only the values left to fill
    cells = ["%.17g," % y + "%.17g\n" for y in density.y.tolist()]
    with _open_csv(path, "x,y,value") as f:
        for x, values in zip(density.x.tolist(), density.values):
            prefix = "%.17g," % x
            f.write((prefix + prefix.join(cells)) % tuple(values.tolist()))
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
