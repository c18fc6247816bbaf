"""File artifacts: pool/scan/density/trajectory CSVs, reports, manifests.

All floats are written with %.17g (or repr), so files round-trip float64
exactly and identical computations produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .popdyn import SamplePool


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return path


def _savetxt(path, header: str, columns) -> Path:
    path = Path(path)
    data = np.column_stack(columns)
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")
    return path


def summary_dicts(summaries) -> list[dict]:
    return [
        {
            "generation": s.generation,
            "mean_re": s.mean.real,
            "mean_im": s.mean.imag,
            "spread": s.spread,
            "mean_se": s.mean_se,
            "p_moment": s.p_moment,
            "im_dispersion": s.im_dispersion,
        }
        for s in summaries
    ]


def pool_meta_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".meta.json")


def write_pool_csv(path, pool: SamplePool, summaries=None, p: float | None = None) -> Path:
    path = _savetxt(path, "re,im", (pool.samples.real, pool.samples.imag))
    meta = {
        "generation": pool.generation,
        "seed": pool.seed,
        "model_fingerprint": pool.model_fingerprint,
        "n": pool.n,
    }
    if p is not None:
        meta["p"] = p
    if summaries is not None:
        meta["summaries"] = summary_dicts(summaries)
    write_json(pool_meta_path(path), meta)
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
    generation, seed, fp = 0, None, ""
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if not isinstance(meta, dict):
            raise ValueError(f"{meta_path}: expected a JSON object")
        generation = int(meta.get("generation", 0))
        seed = meta.get("seed")
        fp = meta.get("model_fingerprint", "")
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
    if hasattr(density, "y"):
        gx, gy = np.meshgrid(density.x, density.y, indexing="ij")
        return _savetxt(
            path, "x,y,value", (gx.reshape(-1), gy.reshape(-1), density.values.reshape(-1))
        )
    return _savetxt(path, "x,value", (density.x, density.values))


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
