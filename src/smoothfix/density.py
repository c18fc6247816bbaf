"""Gaussian kernel density estimation for sample pools.

The 2-d estimator treats a complex pool as points (Re z, Im z) and uses a
separable product kernel with per-axis Silverman bandwidths
1.06 * std * n^(-1/6) (n^(-1/5) in one dimension).

kde2d bins before it evaluates (linear binning: Silverman 1982, Appl.
Stat. 31, AS 176; Wand 1994, J. Comput. Graph. Stat. 3(4)).  Each axis
gets a fine grid whose spacing divides the output step and is at most
h/16, so every output node is also a fine node; the fine grid reaches
9h past the output extent.  Every sample spreads its unit mass over its
4 surrounding fine nodes with bilinear weights, and the density is
K_x @ W @ K_y.T / n for the mass grid W and the kernel matrices K_x, K_y
between output and fine nodes.  Past one binning pass, time and memory
do not depend on the sample count.  A sample outside the fine grid adds
at most e^-40.5 of the kernel peak anywhere on the output grid, so it
is dropped but still counts in the 1/n.  Against the exact per-sample
sum, max |binned - exact| / peak measured at most 2.9e-4 on the six
figure pools at n = 10^4 and 3.5e-4 at n = 10^5 (K = 50, seed 1), and
5.4e-4 on biggins_tilt23 at n = 10^6, K = 100.

kde2d takes the exact per-sample sum instead when its matrix product is
the smaller one: the exact product costs len(x) * n * len(y)
multiply-adds and the larger binned one len(x) * cells, for the number
of mass-grid cells, so the exact sum is taken when n * len(y) <= cells.
With Silverman bandwidths and 256 cells this ratio depends only on n; it
crosses 1 near n = 2750 and reads 1.90 at n = 10^4.  On Gaussian pools
(best of 21 runs per step, 2 vCPUs) exact took 5.1 against 13 ms binned
at n = 1000 (ratio 0.32), 9.4 against 8.8 ms at n = 2000 (0.70) and 16.8
against 8.0 ms at n = 3000 (1.11).  The exact sum is also taken when the
mass grid would exceed 2^23 cells (a bandwidth far below the output
step, or far above the extent).  It runs in sample chunks whose kernel
matrices hold 2^23 entries at 256 cells.

A pool whose imaginary (or real) part is exactly constant has no 2-d
density; with default bandwidths kde2d then falls back to an exact 1-d
per-sample sum on the other axis and returns a DensityLine identifying
it.  Every grid axis spans mean +- 4 * max(std, h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .popdyn import _sample_array

_SQRT2PI = math.sqrt(2.0 * math.pi)
_FINE_PER_H = 16  # fine-grid spacing is at most h / _FINE_PER_H
_MARGIN_H = 9.0  # the fine grid reaches this many bandwidths past the extent
_MASS_BUDGET = 1 << 23  # most mass-grid cells before kde2d takes the exact path
_BIN_CHUNK = 1 << 18
_EXACT_CHUNK = 1 << 15  # samples per kernel matrix on the exact paths


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
    axis: str  # which sample component the line estimates, "re" or "im"


def _axis_grid(data: np.ndarray, h: float, cells: int) -> np.ndarray:
    if cells < 2:
        raise ValueError(f"a density grid needs at least 2 cells per axis, got {cells}")
    mid = float(data.mean())
    span = 4.0 * max(float(data.std()), h)
    lo, hi = mid - span, mid + span
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise ValueError(f"grid extent must be finite, got ({lo}, {hi})")
    if not hi > lo:
        raise ValueError(f"empty grid extent ({lo}, {hi})")
    return np.linspace(lo, hi, cells)


class _FineAxis(NamedTuple):
    """Binning grid on one axis: node k sits at origin + (k - pad) * spacing.

    origin is the first output node and the output step is a whole number
    of spacings, so every output node is a fine node.
    """

    origin: float
    pad: int
    spacing: float
    count: int

    def index(self, v: np.ndarray) -> np.ndarray:
        return (v - self.origin) / self.spacing + self.pad

    def nodes(self) -> np.ndarray:
        return self.origin + (np.arange(self.count) - self.pad) * self.spacing


def _fine_axis(grid: np.ndarray, h: float) -> _FineAxis | None:
    """Spacing at most h / _FINE_PER_H, reaching _MARGIN_H * h past the grid.

    None when this axis alone would exceed the mass-grid budget.
    """
    cells = grid.shape[0]
    step = (grid[-1] - grid[0]) / (cells - 1)
    if not (_FINE_PER_H * step / h <= _MASS_BUDGET and _MARGIN_H * h / step <= _MASS_BUDGET):
        return None
    m = math.ceil(_FINE_PER_H * step / h)
    spacing = step / m
    pad = math.ceil(_MARGIN_H * h / spacing)
    return _FineAxis(float(grid[0]), pad, spacing, (cells - 1) * m + 1 + 2 * pad)


def _mass_grid(xs, ys, fx: _FineAxis, fy: _FineAxis) -> np.ndarray:
    """Bilinear binning of unit sample masses onto the fine nodes."""
    nx, ny = fx.count, fy.count
    mass = np.zeros(nx * ny)
    for a in range(0, xs.shape[0], _BIN_CHUNK):
        tx = fx.index(xs[a : a + _BIN_CHUNK])
        ty = fy.index(ys[a : a + _BIN_CHUNK])
        keep = (tx >= 0) & (tx < nx - 1) & (ty >= 0) & (ty < ny - 1)
        tx, ty = tx[keep], ty[keep]
        ix, iy = tx.astype(np.int64), ty.astype(np.int64)
        wx, wy = tx - ix, ty - iy
        flat = ix * ny + iy
        cells = np.concatenate([flat, flat + 1, flat + ny, flat + ny + 1])
        weights = np.concatenate([(1 - wx) * (1 - wy), (1 - wx) * wy, wx * (1 - wy), wx * wy])
        mass += np.bincount(cells, weights, minlength=nx * ny)
    return mass.reshape(nx, ny)


def _kernel_matrix(grid: np.ndarray, data: np.ndarray, h: float) -> np.ndarray:
    u = (grid[:, None] - data[None, :]) / h
    return np.exp(-0.5 * u * u) / (h * _SQRT2PI)


def _eval_2d(xg, yg, xs, ys, hx, hy) -> np.ndarray:
    n = xs.shape[0]
    out = np.zeros((xg.shape[0], yg.shape[0]))
    for a in range(0, n, _EXACT_CHUNK):
        b = min(a + _EXACT_CHUNK, n)
        out += _kernel_matrix(xg, xs[a:b], hx) @ _kernel_matrix(yg, ys[a:b], hy).T
    out /= n
    return out


def _binned_2d(xg, yg, xs, ys, hx, hy) -> np.ndarray:
    fx, fy = _fine_axis(xg, hx), _fine_axis(yg, hy)
    cells = math.inf if fx is None or fy is None else fx.count * fy.count
    # multiply-adds over len(xg): n * len(yg) exact, cells for K_x @ W binned
    if cells > _MASS_BUDGET or xs.shape[0] * yg.shape[0] <= cells:
        return _eval_2d(xg, yg, xs, ys, hx, hy)
    mass = _mass_grid(xs, ys, fx, fy)
    kx = _kernel_matrix(xg, fx.nodes(), hx)
    ky = _kernel_matrix(yg, fy.nodes(), hy)
    values = (kx @ mass) @ ky.T
    values /= xs.shape[0]
    return values


def _kde1d(data: np.ndarray, cells: int, axis: str) -> DensityLine:
    """Exact 1-d Gaussian KDE of one pool component, Silverman bandwidth."""
    n = data.shape[0]
    h = 1.06 * float(data.std(ddof=1)) * n ** (-1.0 / 5.0)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    grid = _axis_grid(data, h, cells)
    values = np.zeros(grid.shape[0])
    for a in range(0, n, _EXACT_CHUNK):
        values += _kernel_matrix(grid, data[a : a + _EXACT_CHUNK], h).sum(axis=1)
    values /= n
    return DensityLine(grid, values, h, n, axis)


def kde2d(pool, cells: int = 256, bandwidth=None):
    """2-d Gaussian KDE of a complex pool; returns DensityGrid.

    With default bandwidths a pool needs at least 100 samples, and an axis
    with exactly zero spread triggers the 1-d fallback (a DensityLine on
    the other axis).  Explicit bandwidths disable both the sample-count
    requirement and the fallback.
    """
    z = _sample_array(pool)
    xs, ys = z.real, z.imag
    n = z.shape[0]
    cells = int(cells)
    if bandwidth is None:
        if n < 100:
            raise ValueError(f"default bandwidth needs at least 100 samples, got {n}")
        sx = float(xs.std(ddof=1))
        sy = float(ys.std(ddof=1))
        if sx == 0.0 and sy == 0.0:
            raise ValueError("pool is a point mass; no density to estimate")
        if sy == 0.0:
            return _kde1d(xs, cells, "re")
        if sx == 0.0:
            return _kde1d(ys, cells, "im")
        hx = 1.06 * sx * n ** (-1.0 / 6.0)
        hy = 1.06 * sy * n ** (-1.0 / 6.0)
    else:
        hx, hy = float(bandwidth[0]), float(bandwidth[1])
    if not all(math.isfinite(h) and h > 0 for h in (hx, hy)):
        raise ValueError(f"bandwidths must be positive and finite, got ({hx}, {hy})")
    xg = _axis_grid(xs, hx, cells)
    yg = _axis_grid(ys, hy, cells)
    values = _binned_2d(xg, yg, xs, ys, hx, hy)
    return DensityGrid(xg, yg, values, (hx, hy), n)


def grid_integral(density) -> float:
    """Trapezoidal integral of a DensityGrid or DensityLine over its grid."""
    if isinstance(density, DensityLine):
        return float(np.trapezoid(density.values, density.x))
    inner = np.trapezoid(density.values, density.y, axis=1)
    return float(np.trapezoid(inner, density.x))
