"""Gaussian kernel density estimation for sample pools.

The 2-d estimator treats a complex pool as points (Re z, Im z) and uses a
separable product kernel with per-axis Silverman bandwidths
1.06 * std * n^(-1/6) (n^(-1/5) in one dimension).

kde2d bins before it evaluates (linear binning: Silverman 1982, Appl.
Stat. 31, AS 176; Wand 1994, J. Comput. Graph. Stat. 3(4)).  Each axis
gets a fine grid whose spacing divides the output step and is at most
h/16, so every output node is also a fine node; the fine grid reaches
pad = ceil(9h / spacing) fine nodes past the output extent.  Every sample
spreads its unit mass over its 4 surrounding fine nodes with bilinear
weights, and the density is K_x @ W @ K_y.T / n for the mass grid W and
the kernel matrices K_x, K_y between output and fine nodes.  A sample
outside the fine grid adds at most e^-40.5 of the kernel peak anywhere on
the output grid, so it is dropped but still counts in the 1/n.  Against
the exact per-sample sum, max |binned - exact| / peak measured at most
2.9e-4 on the six figure pools at n = 10^4 and 3.5e-4 at n = 10^5 (K =
50, seed 1), and 5.4e-4 on biggins_tilt23 at n = 10^6, K = 100.

W is never held whole.  Since output nodes are fine nodes, each kernel
matrix is a strided Toeplitz matrix taken from one vector of 2 pad + 1
taps, the kernel at fine-node offsets up to 9h; past them it is below
e^-40.5 of its peak and counts as 0.  kde2d sorts the samples by band of
64 fine x rows (a stable sort of 2-byte keys) and sweeps the bands once:
it bins a band's samples, 2^13 at a time, onto its rows (plus one for
the bilinear spill into the next band), and adds K_x[rows, band] @
W_band into a len(x) x fine_y accumulator, over the output rows within
the taps' reach only.  Bands without samples are skipped.  A second
sweep contracts the accumulator with K_y, 64 fine y columns at a time.
Memory is O(n) for one index and one key per sample, plus the
accumulator and one band: tracemalloc read 13.4 MiB at n = 10^6 and 256
cells.  Every matrix product here and on the exact paths has at most
fourier._PRODUCT_MACS = 2^19 multiply-adds and is taken in a fixed order:
OpenBLAS 0.3.31 runs products that small on the calling thread, so the
sums, and the density files, do not depend on the affinity mask or on
OPENBLAS_NUM_THREADS.

kde2d takes the exact per-sample sum instead when its matrix product is
the smaller one: the exact product costs len(x) * n * len(y)
multiply-adds and the first sweep about len(x) * (2 pad_x + 64) * fine_y,
so the exact sum is taken when n * len(y) <= (2 pad_x + 64) * fine_y.
With Silverman bandwidths and 256 cells this ratio depends only on n and
crosses 1 near n = 1450.  On Gaussian pools (best of 21 runs per step, 2
vCPUs) exact took 6.3 against 8.0 ms banded at n = 1000 (ratio 0.63),
8.0 against 7.9 ms at n = 1400 (0.96) and 12.4 against 7.2 ms at n =
2000 (1.47).  The exact sum is also taken when the fine grid would
exceed 2^23 nodes (a bandwidth far below the output step, or far above
the extent).  It, and the 1-d fallback below, run in sample chunks whose
kernel matrices hold at most 2^20 entries, 8 MiB.

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

from .fourier import _PRODUCT_MACS
from .popdyn import _sample_array

_SQRT2PI = math.sqrt(2.0 * math.pi)
_FINE_PER_H = 16  # fine-grid spacing is at most h / _FINE_PER_H
_MARGIN_H = 9.0  # the fine grid reaches this many bandwidths past the extent
_MASS_BUDGET = 1 << 23  # most fine-grid nodes before kde2d takes the exact path
_BAND = 64  # fine rows binned and contracted at a time
_CHUNK = 1 << 13  # samples whose fine coordinates are live at a time
_KERNEL_ENTRIES = 1 << 20  # most entries of one kernel matrix on the exact paths
_TILE_ROWS, _TILE_DEPTH = 32, 128  # most rows and reduction length of one product


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


def check_cells(cells: int) -> None:
    """Reject a density grid of fewer than 2 cells per axis."""
    if cells < 2:
        raise ValueError(f"a density grid needs at least 2 cells per axis, got {cells}")


def _axis_grid(data: np.ndarray, h: float, cells: int) -> np.ndarray:
    check_cells(cells)
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

    origin is the first output node and the output step is stride
    spacings, so output node i is fine node pad + i * stride.
    """

    origin: float
    pad: int
    spacing: float
    stride: int
    count: int

    def index(self, v: np.ndarray) -> np.ndarray:
        return (v - self.origin) / self.spacing + self.pad


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
    return _FineAxis(float(grid[0]), pad, spacing, m, (cells - 1) * m + 1 + 2 * pad)


def _taps(f: _FineAxis, h: float) -> np.ndarray:
    """Kernel weights at fine-node offsets -pad ... pad, _BAND zeros either side."""
    u = np.arange(-f.pad, f.pad + 1) * (f.spacing / h)
    taps = np.zeros(2 * (f.pad + _BAND) + 1)
    taps[_BAND:-_BAND] = np.exp(-0.5 * u * u) / (h * _SQRT2PI)
    return taps


def _add_product(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """out += a @ b, as products of at most _PRODUCT_MACS multiply-adds in a fixed order."""
    (p, k), q = a.shape, b.shape[1]
    rows, depth = min(p, _TILE_ROWS), min(k, _TILE_DEPTH)
    cols = _PRODUCT_MACS // (rows * depth)
    for d in range(0, k, depth):
        for r in range(0, p, rows):
            for c in range(0, q, cols):
                part = a[r:r + rows, d:d + depth] @ b[d:d + depth, c:c + cols]
                out[r:r + rows, c:c + cols] += part


def _contract(out: np.ndarray, taps: np.ndarray, f: _FineAxis, r0: int, band: np.ndarray) -> None:
    """out[i] += sum_r K[i, r] band[r - r0] over the output rows i the taps reach.

    K[i, r] is the tap at offset pad + i * stride - r; band holds at most
    _BAND + 1 fine rows from r0 on.
    """
    k = band.shape[0]
    lo = max(0, -((2 * f.pad - r0) // f.stride))
    hi = min(out.shape[0], (r0 + k - 1) // f.stride + 1)
    if lo < hi:
        offsets = np.subtract.outer(np.arange(lo, hi) * f.stride, np.arange(r0, r0 + k))
        _add_product(out[lo:hi], taps[offsets + (2 * f.pad + _BAND)], band)


def _band_mass(xs, ys, fx: _FineAxis, fy: _FineAxis, r0: int, rows: int) -> np.ndarray:
    """Bilinear masses on fine rows r0 ... r0 + rows - 1, flattened, of samples binned there."""
    tx, ty = fx.index(xs), fy.index(ys)
    ix, iy = tx.astype(np.int64), ty.astype(np.int64)
    wx, wy = tx - ix, ty - iy
    ny = fy.count
    flat = (ix - r0) * ny + iy
    cells = np.concatenate([flat, flat + 1, flat + ny, flat + ny + 1])
    weights = np.concatenate([(1 - wx) * (1 - wy), (1 - wx) * wy, wx * (1 - wy), wx * wy])
    return np.bincount(cells, weights, minlength=rows * ny)


def _kernel_matrix(grid: np.ndarray, data: np.ndarray, h: float) -> np.ndarray:
    u = np.subtract.outer(grid, data)
    u /= h
    np.square(u, out=u)
    u *= -0.5
    np.exp(u, out=u)
    u /= h * _SQRT2PI
    return u


def _eval_2d(xg, yg, xs, ys, hx, hy) -> np.ndarray:
    n = xs.shape[0]
    out = np.zeros((xg.shape[0], yg.shape[0]))
    chunk = max(1, _KERNEL_ENTRIES // max(xg.shape[0], yg.shape[0]))
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        _add_product(out, _kernel_matrix(xg, xs[a:b], hx), _kernel_matrix(yg, ys[a:b], hy).T)
    out /= n
    return out


def _binned_2d(xg, yg, xs, ys, hx, hy) -> np.ndarray:
    fx, fy = _fine_axis(xg, hx), _fine_axis(yg, hy)
    # multiply-adds over len(xg): n * len(yg) exact, about (2 pad_x + 64) * ny binned
    if (fx is None or fy is None or fx.count * fy.count > _MASS_BUDGET
            or xs.shape[0] * yg.shape[0] <= (2 * fx.pad + _BAND) * fy.count):
        return _eval_2d(xg, yg, xs, ys, hx, hy)
    n, nx, ny = xs.shape[0], fx.count, fy.count
    # Band b holds the samples whose lower fine row is in [64 b, 64 b + 64),
    # and a sample off the fine grid gets key `bands`.  ny >= 289, so nx
    # and the band count stay below 2^23 / 289 and 2^16.
    bands = -(-(nx - 1) // _BAND)
    keys = np.empty(n, np.uint16)
    for a in range(0, n, _CHUNK):
        tx, ty = fx.index(xs[a:a + _CHUNK]), fy.index(ys[a:a + _CHUNK])
        inside = (tx >= 0) & (tx < nx - 1) & (ty >= 0) & (ty < ny - 1)
        keys[a:a + _CHUNK] = np.where(inside, tx // _BAND, bands)
    edges = np.zeros(bands + 2, np.int64)
    np.cumsum(np.bincount(keys, minlength=bands + 1), out=edges[1:])
    order = np.argsort(keys, kind="stable")
    del keys
    acc = np.zeros((xg.shape[0], ny))  # K_x @ W
    taps = _taps(fx, hx)
    for b in range(bands):
        if edges[b] == edges[b + 1]:
            continue
        r0 = b * _BAND
        rows = min(_BAND + 1, nx - r0)
        mass = np.zeros(rows * ny)
        for a in range(edges[b], edges[b + 1], _CHUNK):
            pick = order[a:min(a + _CHUNK, edges[b + 1])]
            mass += _band_mass(xs[pick], ys[pick], fx, fy, r0, rows)
        _contract(acc, taps, fx, r0, mass.reshape(rows, ny))
    del order
    values = np.zeros((xg.shape[0], yg.shape[0]))
    taps = _taps(fy, hy)
    for r0 in range(0, ny, _BAND):
        _contract(values.T, taps, fy, r0, acc[:, r0:r0 + _BAND].T)
    values /= n
    return values


def _kde1d(data: np.ndarray, cells: int, axis: str) -> DensityLine:
    """Exact 1-d Gaussian KDE of one pool component, Silverman bandwidth."""
    n = data.shape[0]
    h = 1.06 * float(data.std(ddof=1)) * n ** (-1.0 / 5.0)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    grid = _axis_grid(data, h, cells)
    values = np.zeros(grid.shape[0])
    chunk = max(1, _KERNEL_ENTRIES // grid.shape[0])
    for a in range(0, n, chunk):
        values += _kernel_matrix(grid, data[a : a + chunk], h).sum(axis=1)
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
