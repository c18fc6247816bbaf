"""Gaussian kernel density estimation for sample pools.

The 2-d estimator treats a complex pool as points (Re z, Im z) and uses a
separable product kernel with per-axis Silverman bandwidths
1.06 * std * n^(-1/6) (n^(-1/5) in one dimension).  Separability turns
evaluation on a rectangular grid into one matrix product per sample
chunk, so million-sample pools stay cheap.

A pool whose imaginary (or real) part is exactly constant has no 2-d
density; kde2d then falls back to a 1-d estimate on the other axis and
returns a DensityLine identifying it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class DensityGrid:
    x: np.ndarray
    y: np.ndarray
    values: np.ndarray  # shape (len(x), len(y)), nonnegative
    bandwidth: tuple[float, float]
    n_samples: int


@dataclass(frozen=True)
class DensityLine:
    x: np.ndarray
    values: np.ndarray
    bandwidth: float
    n_samples: int
    axis: str = "re"  # which sample component the line estimates


def _as_points(pool_or_samples) -> np.ndarray:
    z = getattr(pool_or_samples, "samples", pool_or_samples)
    z = np.asarray(z)
    if z.ndim != 1 or z.shape[0] < 1:
        raise ValueError("need a one-dimensional, nonempty sample array")
    return z.astype(np.complex128, copy=False)


def _axis_grid(data: np.ndarray, h: float, cells: int, extent) -> np.ndarray:
    if cells < 2:
        raise ValueError(f"a density grid needs at least 2 cells per axis, got {cells}")
    if extent is not None:
        lo, hi = float(extent[0]), float(extent[1])
        if not hi > lo:
            raise ValueError(f"empty grid extent ({lo}, {hi})")
    else:
        mid = float(data.mean())
        span = 4.0 * max(float(data.std()), h)
        lo, hi = mid - span, mid + span
    return np.linspace(lo, hi, cells)


def _kernel_matrix(grid: np.ndarray, data: np.ndarray, h: float) -> np.ndarray:
    u = (grid[:, None] - data[None, :]) / h
    return np.exp(-0.5 * u * u) / (h * _SQRT2PI)


def _eval_2d(xg, yg, xs, ys, hx, hy, chunk: int = 1 << 15) -> np.ndarray:
    n = xs.shape[0]
    out = np.zeros((xg.shape[0], yg.shape[0]))
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        out += _kernel_matrix(xg, xs[a:b], hx) @ _kernel_matrix(yg, ys[a:b], hy).T
    out /= n
    return out


def kde1d(samples, cells: int = 256, extent=None, bandwidth: float | None = None) -> DensityLine:
    """1-d Gaussian KDE of real samples on a uniform grid."""
    data = np.asarray(samples, dtype=np.float64)
    if data.ndim != 1 or data.shape[0] < 1:
        raise ValueError("need a one-dimensional, nonempty sample array")
    n = data.shape[0]
    if bandwidth is None:
        if n < 100:
            raise ValueError(f"default bandwidth needs at least 100 samples, got {n}")
        sd = float(data.std(ddof=1))
        if sd == 0.0:
            raise ValueError("samples are constant; pass an explicit bandwidth")
        bandwidth = 1.06 * sd * n ** (-1.0 / 5.0)
    h = float(bandwidth)
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    grid = _axis_grid(data, h, int(cells), extent)
    values = np.zeros(grid.shape[0])
    chunk = 1 << 15
    for a in range(0, n, chunk):
        values += _kernel_matrix(grid, data[a : a + chunk], h).sum(axis=1)
    values /= n
    return DensityLine(grid, values, h, n)


def kde2d(pool, cells: int = 256, extent=None, bandwidth=None):
    """2-d Gaussian KDE of a complex pool; returns DensityGrid.

    With default bandwidths a pool needs at least 100 samples, and an axis
    with exactly zero spread triggers the 1-d fallback (a DensityLine on
    the other axis).  Explicit bandwidths disable both the sample-count
    requirement and the fallback.
    """
    z = _as_points(pool)
    xs, ys = z.real, z.imag
    n = z.shape[0]
    if bandwidth is None:
        if n < 100:
            raise ValueError(f"default bandwidth needs at least 100 samples, got {n}")
        sx = float(xs.std(ddof=1))
        sy = float(ys.std(ddof=1))
        if sx == 0.0 and sy == 0.0:
            raise ValueError("pool is a point mass; no density to estimate")
        if sy == 0.0:
            line = kde1d(xs, cells, extent if extent is None else extent[0])
            return DensityLine(line.x, line.values, line.bandwidth, n, axis="re")
        if sx == 0.0:
            line = kde1d(ys, cells, extent if extent is None else extent[1])
            return DensityLine(line.x, line.values, line.bandwidth, n, axis="im")
        hx = 1.06 * sx * n ** (-1.0 / 6.0)
        hy = 1.06 * sy * n ** (-1.0 / 6.0)
    else:
        hx, hy = float(bandwidth[0]), float(bandwidth[1])
    if not (hx > 0 and hy > 0):
        raise ValueError(f"bandwidths must be positive, got ({hx}, {hy})")
    ex, ey = (None, None) if extent is None else (extent[0], extent[1])
    xg = _axis_grid(xs, hx, int(cells), ex)
    yg = _axis_grid(ys, hy, int(cells), ey)
    values = _eval_2d(xg, yg, xs, ys, hx, hy)
    return DensityGrid(xg, yg, values, (hx, hy), n)


def grid_integral(density) -> float:
    """Trapezoidal integral of a DensityGrid or DensityLine over its grid."""
    if isinstance(density, DensityLine):
        return float(np.trapezoid(density.values, density.x))
    inner = np.trapezoid(density.values, density.y, axis=1)
    return float(np.trapezoid(inner, density.x))
