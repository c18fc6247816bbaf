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
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
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


def _savetxt(path, header: str, columns) -> Path:
    """Write equal-length columns as %.17g CSV rows under a header line."""
    path = Path(path)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with _open_csv(path, header) as f:
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            block = np.column_stack([c[lo : lo + _BLOCK_ROWS] for c in columns])
            f.write((row * len(block)) % tuple(block.ravel().tolist()))
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


def write_pool_csv(path, pool: SamplePool, summaries=None) -> Path:
    """Write the pool CSV and its .meta.json; a meta that cannot be serialised writes neither."""
    meta = {
        "generation": pool.generation,
        "seed": pool.seed,
        "model_fingerprint": pool.model_fingerprint,
        "n": pool.n,
    }
    if summaries is not None:
        meta["summaries"] = summary_dicts(summaries)
    meta_text = _json_text(meta)
    path = _savetxt(path, "re,im", (pool.samples.real, pool.samples.imag))
    pool_meta_path(path).write_text(meta_text)
    return path


def read_pool_csv(path) -> SamplePool:
    path = Path(path)
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
    samples = data[:, 0] + 1j * data[:, 1]
    meta_path = pool_meta_path(path)
    meta = {}
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{meta_path}: invalid JSON: {exc}")
        if not isinstance(meta, dict):
            raise ValueError(f"{meta_path}: expected a JSON object")
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
