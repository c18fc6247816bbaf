"""Fourier diagnostics of a sample pool.

The frequency pairing is <xi, z> = Re(xi) Re(z) + Im(xi) Im(z), and the
empirical characteristic function is phi_hat(xi) = (1/n) sum_k
exp(-i <xi, z_k>).  Wirtinger derivatives of phi at xi are estimated by
the sample means of -(i/2) conj(Z) e^{-i<xi,Z>} (d/d xi) and
-(i/2) Z e^{-i<xi,Z>} (d/d conj(xi)); the second derivatives use the
squared prefactors (-(i/2) conj(Z))^2 and (-(i/2) Z)^2.

Everything user-facing runs in float64.  The one exception is the inner
product-of-ECF loop of fixed_point_residual, which evaluates millions of
frequencies: its phases are computed in float32 and accumulated in
float64.  Against float64 phases the inner ECF values differ by at most
1e-7 for |xi| <= 5 and 6e-7 at |xi| = 500 (measured on the polya b = 8
pool, n = 10^4, and the heavy-tailed biggins tilt-23 pool, n = 10^5 with
max |z| = 85), far below the 1/sqrt(n) noise of the pools.

All statistics go through one kernel that tiles frequencies x samples.
Memory is bounded whatever the input size: each worker thread holds one
tile, at most 4 MiB of buffers (two 1 MiB phase buffers and a 2 MiB
complex one in float64), plus O(frequencies + samples) for inputs and
results.  Threads take whole frequency tiles, and each frequency is
summed in the same order whatever the tiling, so results are
bit-identical for every thread count.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .rng import DOMAIN_FOURIER, philox

# Samples reduced at a time.  It fixes the summation order of every
# frequency, so changing it changes output bits.
_CHUNK = 1 << 14
# Size of one full-width tile buffer of phases; the tile height follows
# from it and the phase dtype (8 rows in float64, 16 in float32).
_BUFFER_BYTES = 1 << 20


class InsufficientSignalError(RuntimeError):
    """Too few scan radii rise above the noise floor to fit a decay slope."""


@dataclass(frozen=True)
class EcfValue:
    xi: complex
    value: complex
    stderr: float


@dataclass(frozen=True)
class RadialScan:
    radii: np.ndarray
    values: np.ndarray  # per-radius max of |phi_hat| over the angle grid
    n_angles: int


@dataclass(frozen=True)
class PolarGrid:
    """Statistic values on the full (radius x angle) grid."""

    radii: np.ndarray
    angles: np.ndarray
    values: np.ndarray  # complex, shape (n_radii, n_angles)
    stderrs: np.ndarray  # shape (n_radii, n_angles)
    order: int


@dataclass(frozen=True)
class DecayScan:
    radii: np.ndarray
    values: np.ndarray  # per-radius max modulus
    stderrs: np.ndarray  # stderr at the maximizing angle
    floors: np.ndarray  # 3x the per-point Monte Carlo stderr
    kept: np.ndarray  # radii entering the slope fit
    slope: float
    n_angles: int
    order: int


def _samples(pool_or_samples) -> np.ndarray:
    z = getattr(pool_or_samples, "samples", pool_or_samples)
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1 or z.shape[0] < 1:
        raise ValueError("need a one-dimensional, nonempty sample array")
    return z


def _prefactor(z: np.ndarray, order: int, which: str = "d_xibar") -> np.ndarray | None:
    if which not in ("d_xi", "d_xibar"):
        raise ValueError(f'which must be "d_xi" or "d_xibar", got {which!r}')
    if order == 0:
        return None
    w = np.conj(z) if which == "d_xi" else z
    if order == 1:
        return -0.5j * w
    if order == 2:
        return -0.25 * w * w
    raise ValueError(f"order must be 0, 1, or 2, got {order}")


def _workers(threads: int | None) -> int:
    if threads is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    return int(threads)


def _fourier_sums(z: np.ndarray, xis: np.ndarray, prefac: np.ndarray | None,
                  dtype, threads: int | None) -> np.ndarray:
    """Per-frequency sums over z of prefac * e^{-i<xi,z>}, tiled frequencies x samples.

    Phases, cosines and sines are computed in `dtype`; every sum is taken
    in float64.  For float64 the rows are the sums of Re e, Im e, (Re e)^2
    and (Im e)^2; for float32 (no prefac) they are the sums of cos and sin.
    Each tile of frequencies walks the samples in _CHUNK-wide pieces and
    reduces each piece per frequency, so a frequency's summation order,
    and with it every output bit, does not depend on the tiling or on the
    number of threads.  Worker threads take whole tiles and write disjoint
    columns of the result.
    """
    dtype = np.dtype(dtype)
    moments = dtype == np.float64
    n, p = z.shape[0], xis.shape[0]
    zx, zy = z.real.astype(dtype), z.imag.astype(dtype)
    xr, xy = xis.real.astype(dtype), xis.imag.astype(dtype)
    rows = min(_BUFFER_BYTES // (_CHUNK * dtype.itemsize), p)
    acc = np.zeros((4 if moments else 2, p))
    tiles = iter(range(0, p, rows))
    lock = threading.Lock()

    def work() -> None:
        size = rows * min(n, _CHUNK)
        ph_buf, tmp_buf = np.empty(size, dtype), np.empty(size, dtype)
        e_buf = np.empty(size, np.complex128) if moments else None
        while True:
            with lock:
                lo = next(tiles, None)
            if lo is None:
                return
            hi = min(lo + rows, p)
            for a in range(0, n, _CHUNK):
                b = min(a + _CHUNK, n)
                shape = (hi - lo, b - a)
                ph = ph_buf[:shape[0] * shape[1]].reshape(shape)
                tmp = tmp_buf[:ph.size].reshape(shape)
                np.multiply(xr[lo:hi, None], zx[a:b], out=ph)
                np.multiply(xy[lo:hi, None], zy[a:b], out=tmp)
                ph += tmp
                np.cos(ph, out=tmp)
                np.sin(ph, out=ph)
                if not moments:
                    acc[0, lo:hi] += tmp.sum(axis=1, dtype=np.float64)
                    acc[1, lo:hi] += ph.sum(axis=1, dtype=np.float64)
                    continue
                # e = cos - i sin, built exactly as cos(ph) - 1j * sin(ph)
                e = e_buf[:ph.size].reshape(shape)
                e.real = tmp
                np.subtract(0.0, ph, out=e.imag)
                if prefac is not None:
                    e *= prefac[a:b]
                s = e.sum(axis=1)
                acc[0, lo:hi] += s.real
                acc[1, lo:hi] += s.imag
                acc[2, lo:hi] += np.square(e.real, out=tmp).sum(axis=1)
                acc[3, lo:hi] += np.square(e.imag, out=ph).sum(axis=1)

    workers = min(_workers(threads), -(-p // rows))
    if workers == 1:
        work()
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(work) for _ in range(workers)]:
                future.result()
    return acc


def _statistic(z: np.ndarray, xis: np.ndarray, prefac: np.ndarray | None,
               threads: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Mean and stderr of prefac * e^{-i<xi,z>} over z, per frequency (float64)."""
    n = z.shape[0]
    acc = _fourier_sums(z, xis, prefac, np.float64, threads)
    s_sum = np.empty(xis.shape[0], dtype=np.complex128)
    s_sum.real, s_sum.imag = acc[0], acc[1]
    means = s_sum / n
    if n > 1:
        var_re = np.maximum(acc[2] - n * means.real**2, 0.0) / (n - 1)
        var_im = np.maximum(acc[3] - n * means.imag**2, 0.0) / (n - 1)
        stderrs = np.sqrt((var_re + var_im) / n)
    else:
        stderrs = np.zeros(xis.shape[0])
    return means, stderrs


def ecf(pool, xi: complex) -> EcfValue:
    """Empirical characteristic function at one frequency."""
    z = _samples(pool)
    values, stderrs = _statistic(z, np.array([complex(xi)]), None)
    return EcfValue(complex(xi), complex(values[0]), float(stderrs[0]))


def wirtinger_derivative(pool, xi: complex, which: str = "d_xibar") -> EcfValue:
    """Estimate a first Wirtinger derivative of phi at xi ("d_xi" or "d_xibar")."""
    z = _samples(pool)
    values, stderrs = _statistic(z, np.array([complex(xi)]), _prefactor(z, 1, which))
    return EcfValue(complex(xi), complex(values[0]), float(stderrs[0]))


def fixed_point_residual(pool, model, xi: complex, M: int = 1000, rng=None) -> float:
    """|phi_hat(xi) - E_hat prod_j phi_hat(conj(T_j) xi)| over M fresh weight draws.

    The inner ECFs use float32 phases and every core this process may run
    on; the result does not depend on the number of threads.
    """
    if M < 100:
        raise ValueError(f"at least 100 weight draws required, got {M}")
    if isinstance(rng, (int, np.integer)):
        rng = philox(int(rng), DOMAIN_FOURIER, 0)
    if not isinstance(rng, np.random.Generator):
        raise ValueError("fixed_point_residual needs an rng or integer seed")
    z = _samples(pool)
    xi = complex(xi)
    values, counts = model.draw_batch(rng, M)
    sums = _fourier_sums(z, np.conj(values) * xi, None, np.float32, None)
    inner = (sums[0] - 1j * sums[1]) / z.shape[0]
    products = np.multiply.reduceat(inner, np.concatenate(([0], np.cumsum(counts[:-1]))))
    lhs = ecf(z, xi).value
    return float(abs(lhs - complex(products.mean())))


def _check_radii(radii, increasing: bool) -> np.ndarray:
    r = np.asarray(radii, dtype=np.float64)
    if r.ndim != 1 or r.shape[0] < 1:
        raise ValueError("radii must be a nonempty 1-d sequence")
    if not (r > 0).all():
        raise ValueError("radii must be positive")
    if increasing and not (np.diff(r) > 0).all():
        raise ValueError("radii must be strictly increasing")
    return r


def polar_grid(pool, radii, n_angles: int = 16, order: int = 0,
               which: str = "d_xibar", threads: int | None = None) -> PolarGrid:
    """Evaluate phi_hat (order 0) or a conj-derivative statistic on a polar grid.

    `threads` bounds the worker threads (None: every core this process may
    run on); the result does not depend on it.
    """
    r = _check_radii(radii, increasing=False)
    if n_angles < 8:
        raise ValueError(f"at least 8 angles required, got {n_angles}")
    z = _samples(pool)
    angles = 2.0 * math.pi * np.arange(n_angles) / n_angles
    xis = (r[:, None] * np.exp(1j * angles)[None, :]).reshape(-1)
    values, stderrs = _statistic(z, xis, _prefactor(z, order, which), threads)
    shape = (r.shape[0], n_angles)
    return PolarGrid(r, angles, values.reshape(shape), stderrs.reshape(shape), order)


def radial_scan(pool, radii, n_angles: int = 64) -> RadialScan:
    """Max of |phi_hat| over an angle grid, per radius."""
    grid = polar_grid(pool, _check_radii(radii, increasing=True), n_angles, order=0)
    return RadialScan(grid.radii, np.abs(grid.values).max(axis=1), n_angles)


def decay_from_grid(grid: PolarGrid) -> DecayScan:
    """Fit the log-log decay rate of the per-radius maxima of a polar grid.

    Radii whose maximum sits at or below 3x its own Monte Carlo stderr are
    excluded from the fit; fewer than 3 usable radii raises
    InsufficientSignalError.
    """
    r = grid.radii
    mods = np.abs(grid.values)
    best = mods.argmax(axis=1)
    rows = np.arange(r.shape[0])
    vmax = mods[rows, best]
    errs = grid.stderrs[rows, best]
    floors = 3.0 * errs
    kept = vmax > floors
    if int(kept.sum()) < 3:
        raise InsufficientSignalError(
            f"insufficient signal: only {int(kept.sum())} of {r.shape[0]} radii "
            "exceed 3x their Monte Carlo noise floor (need at least 3)"
        )
    slope = float(np.polyfit(np.log(r[kept]), np.log(vmax[kept]), 1)[0])
    return DecayScan(r, vmax, errs, floors, kept, slope, grid.angles.shape[0], grid.order)


def derivative_decay_scan(pool, radii, n_angles: int = 16, order: int = 1) -> DecayScan:
    """Scan a derivative statistic over a polar grid and fit its decay rate."""
    r = _check_radii(radii, increasing=True)
    if r.shape[0] < 2 or r[-1] < 10.0 * r[0] * (1.0 - 1e-12):
        raise ValueError("decay radii must span at least one decade")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    return decay_from_grid(polar_grid(pool, r, n_angles, order=order))
