"""Fourier diagnostics of a sample pool.

The frequency pairing is <xi, z> = Re(xi) Re(z) + Im(xi) Im(z), and the
empirical characteristic function is phi_hat(xi) = (1/n) sum_k
exp(-i <xi, z_k>).  Wirtinger derivatives of phi at xi are estimated by
the sample means of -(i/2) conj(Z) e^{-i<xi,Z>} (d/d xi) and
-(i/2) Z e^{-i<xi,Z>} (d/d conj(xi)); the second derivatives use the
squared prefactors (-(i/2) conj(Z))^2 and (-(i/2) Z)^2.

Everything runs in float64.  ecf, wirtinger_derivative and the polar
grids go through one direct kernel that tiles frequencies x samples and
sums prefac * e^{-i<xi,z>} per frequency.  Its cosines and sines are
table-driven, as in Tang (1989, ACM TOMS 15) for exp: with 4096 / (2 pi)
folded into each frequency, a phase t (in steps of 2 pi / 4096) splits
into q = rint(t) and |rho| <= pi / 4096, and cos and sin of the phase
combine the table's entries at q mod 4096 with sin rho = rho (1 - rho^2
/ 6) and cos rho - 1 = rho^2 (rho^2 / 24 - 1/2).  Every step is a SIMD
ufunc (on a 2-vCPU AVX-512 VM with numpy 2.4.6, libm's scalar cos and
sin cost 10-26 ns per value, and this about 10 ns per pair).  Each value
is within 2^-52 of cosl and sinl, and each sum within 2^-52 (4 + max_k
|<xi, z_k>|) of a long-double evaluation (relative to n at order 0, to
sum_k |prefac_k| at orders 1 and 2).  A phase must stay below 2^40 rad,
where float64 rounding alone moves it by more than 1e-4 rad: every entry
point raises ValueError when max |Re xi| max |Re z| + max |Im xi| max
|Im z| reaches 2^40.

Memory is bounded whatever the input size: each worker thread holds one
block of six float64 arrays (phases and the sincos work arrays) of at
most 2^15 values, 1.5 MiB, at every order (with a prefactor, the complex
terms reuse two sincos work arrays), plus O(frequencies + samples) for
inputs and results.  A tile is at most 8 frequencies and 2^15 values, so
2 frequencies at full chunk width and 8 below 4096 samples.  There is
one worker per core in the process's CPU affinity mask (os.cpu_count()
where the platform has no mask), never more than there are frequency
tiles; restrict the mask (taskset) to use fewer.  With W workers, worker w takes frequency
tiles w, w + W, w + 2W, ..., so the split needs no shared state, and each
frequency is summed in the same order whatever the tiling, so results are
bit-identical for every worker count.

A polar grid with an even angle count A is symmetric: polar_grid builds
xi_k = r e^{i theta_k} for the first A/2 angles and takes angle k + A/2
at exactly -xi_k.  The phase at -xi_k is the exact negation of the phase
at xi_k, the table-driven cos is even and sin odd, so the kernel takes
cos and sin once per pair and returns both sums, bit-identical to the
direct kernel at -xi_k at every order and worker count, for half the
trigonometry.  -xi_k
differs from r e^{i theta_{k + A/2}} by about an ulp, so scan values
differ from a direct evaluation at r e^{i theta} by at most 1e-12
relative (at most 2.0e-13 measured: order 2 on the biggins tilt-23 pool of
figures --desk, radii up to 50).  An odd A runs unpaired.

fixed_point_residual needs its inner ECFs at many frequencies (2 x 10^4
per call at M = 10^4) and takes them by Gaussian gridding (Greengard &
Lee 2004, SIAM Rev. 46; Lee & Greengard 2005, J. Comput. Phys. 206).
For tau > 0,

    e^{-i<xi,z>} = e^{tau |xi|^2} / (4 pi tau)
                   * integral exp(-|y - z|^2 / (4 tau)) e^{-i<xi,y>} dy,

and the trapezoid rule on a grid of spacing h turns the integral into a
sum over the nodes y, exact up to aliases at the lattice frequencies
2 pi m / h.  So sum_k e^{-i<xi,z_k>} = h^2 / (4 pi tau) e^{tau |xi|^2}
sum_y G(y) e^{-i<xi,y>}, where G(y) = sum_k exp(-|y - z_k|^2 / (4 tau))
spreads the samples onto the grid.  Gaussian and phase both factor by
axis: G = sum over sample blocks of Gx^T Gy, and the grid sum at xi is
Ex^T G Ey with Ex = e^{-i Re(xi) x} over the x nodes, so every heavy step
is a small matrix product and no trigonometry runs per sample.  With
S = max |xi| over the call's frequencies:

- tau = A / S^2 with A = 1;
- h = 2 pi / (S (1 + sqrt(1 + L / A))), which puts every alias of a
  frequency with |xi| <= S below e^{-L} relative to its term;
- the grid reaches delta = sqrt(4 tau L) past the data on each axis, so
  the Gaussian weights it cuts off are below e^{-L} as well;
- L = ln 10^14, and S = 0 returns n exactly.

The gridding error of each term is then a small multiple of 1e-14, and
the rounding of the sums dominates: the inner ECFs were within 4e-15 of
the direct float64 kernel on the polya b = 8 pool (n = 10^4) and the biggins tilt-23 pool
(n = 4000) up to |xi| = 5.  An axis holds about
(S * span + 4 sqrt(A L)) (1 + sqrt(1 + L / A)) / (2 pi) nodes, 47 x 48 for
the polya b = 8 pool at |xi| = 5.  The cell count is taken in floating
point before anything is allocated; above _MAX_CELLS = 2^17 cells the
direct kernel runs instead.  At the criterion-4 shape (10^4 samples,
2 x 10^4 frequencies) the grid was still 4.5x faster than the direct
kernel at 1.4 x 10^5 cells, so the cap is the memory ceiling, not the
crossover.  The spreading sorts the samples by real part, so each block
of samples touches only the about 2 delta / h = 25 x nodes in its reach,
not all of them: a wide, heavy-tailed pool costs little more than a
compact one.  Memory: the grid (at most 1 MiB), O(samples) for the
sorted copy, plus samples- or frequencies-by-nodes blocks of at most
256 KiB each.  Every matrix product stays within 2^19 multiply-adds:
OpenBLAS 0.3.31 runs products that small on the calling thread, while
larger ones wake its worker threads, which cost 4-10 ms per product on
a 2-vCPU VM.

Standard errors need only the mean: |e^{-i<xi,z>}| = 1, so sum_k |w_k|^2
is P = n at order 0 and P = sum_k |prefac_k|^2 otherwise, for every xi,
and stderr = sqrt(max(P - n |mean|^2, 0) / ((n - 1) n)).  At order 0 that
is the classical ECF variance (1 - |phi_hat|^2) / n (Feuerverger &
Mureika 1977) with the n / (n - 1) correction; one sample has stderr 0.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .popdyn import _sample_array, _workers
from .rng import DOMAIN_FOURIER, as_generator

# Samples reduced at a time.  It fixes the summation order of every
# frequency, so changing it changes output bits.
_CHUNK = 1 << 14
# Entries of the sincos table: phases are taken in steps of 2 pi / _TABLE.
_TABLE = 1 << 12
# A tile holds at most _TILE_VALUES phases and _MAX_ROWS frequencies; with
# _CHUNK-wide pieces that is 2 rows.
_TILE_VALUES = 1 << 15
_MAX_ROWS = 8
# |<xi, z>| must stay below 2^40: past it, float64 rounding alone moves a
# phase by more than 1e-4 rad.
_MAX_PHASE = 2.0 ** 40
# Gaussian gridding of fixed_point_residual's inner ECFs (see the module
# docstring).  _ALIAS_LOG is L and _TAU_SCALE is A; _MAX_CELLS caps the
# grid.  Every (samples or frequencies) x nodes block stays within
# _BLOCK_BYTES, and every matrix product within _PRODUCT_MACS
# multiply-adds.
_ALIAS_LOG = math.log(1e14)
_TAU_SCALE = 1.0
_MAX_CELLS = 1 << 17
_BLOCK_BYTES = 1 << 18
# OpenBLAS 0.3.31 runs a product this small on the calling thread, so its
# sums do not depend on the thread count; density's products share it.
_PRODUCT_MACS = 1 << 19


class InsufficientSignalError(RuntimeError):
    """Too few scan radii rise above the noise floor to fit a decay slope."""


@dataclass(frozen=True)
class EcfValue:
    xi: complex
    value: complex
    stderr: float


@dataclass(frozen=True)
class PolarGrid:
    """Statistic values on the full (radius x angle) grid."""

    radii: np.ndarray
    angles: np.ndarray
    values: np.ndarray  # complex, shape (n_radii, n_angles)
    stderrs: np.ndarray  # shape (n_radii, n_angles)


@dataclass(frozen=True)
class DecayScan:
    values: np.ndarray  # per-radius max modulus
    floors: np.ndarray  # 3x the Monte Carlo stderr at the maximizing angle
    kept: np.ndarray  # radii entering the slope fit
    slope: float


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


def _sincos_table(size: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi k / size for k < size (size a multiple of 8).

    Only [0, pi/2] is evaluated, as cos below pi/4 and as sin of the
    complement above it, so every argument is at most pi/4.  The rest
    follows exactly from C[size - k] = C[k], C[size/2 - k] = -C[k] and
    S[k] = C[size/4 - k]: C[size/4] = S[0] = S[size/2] = 0, and
    S[size - k] = -S[k], so the phase at -t takes the same cosine and the
    negated sine.
    """
    quarter = size // 4
    k = np.arange(quarter + 1)
    step = 2.0 * math.pi / size
    # C[0..quarter]: cos up to pi/4, sin of the complement past it
    first = np.concatenate((np.cos(k[:quarter // 2 + 1] * step),
                            np.sin((quarter - k[quarter // 2 + 1:]) * step)))
    half = np.concatenate((first, -first[-2::-1]))  # C[size/2 - k] = -C[k]
    cos = np.concatenate((half, half[-2:0:-1]))  # C[size - k] = C[k]
    # S[k] = C[(size/4 - k) mod size]
    return cos, np.concatenate((cos[quarter::-1], cos[:quarter:-1]))


_COS, _SIN = _sincos_table(_TABLE)


def _sincos(t: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi t / _TABLE, elementwise, for |t| < 2^51.

    t = q + f with q = rint(t), so rho = 2 pi f / _TABLE has |rho| <=
    pi / _TABLE, and cos 2 pi t / _TABLE = C + (C (cos rho - 1) - S sin rho),
    sin 2 pi t / _TABLE = S + (S (cos rho - 1) + C sin rho), with C and S
    the table entries at q mod _TABLE (taken exactly in floating point) and
    sin rho = rho (1 - rho^2 / 6), cos rho - 1 = rho^2 (rho^2 / 24 - 1/2),
    both truncated below 3e-18.  Each step is odd or even in t, so -t gives
    the same cosine and the negated sine bit for bit.

    Overwrites t.  work holds five float64 arrays of at least t's size;
    the results are (cos, sin), views of work[0] and t, and work[1:] is
    free again on return.
    """
    q, c, s, u, v = (a[:t.size].reshape(t.shape) for a in work)
    # the table indices share u's memory: u is spent before they are
    # written, and they are spent before u is written again
    index = work[3].view(np.intp)[:t.size].reshape(t.shape)
    np.rint(t, out=q)
    t -= q  # exact: |t| < 2^51
    t *= 2.0 * math.pi / _TABLE
    np.multiply(q, 1.0 / _TABLE, out=u)
    np.floor(u, out=u)
    u *= _TABLE
    q -= u
    np.copyto(index, q, casting="unsafe")
    # every index is in range: "clip" writes straight into c and s, where
    # the default mode would gather into a temporary first
    np.take(_COS, index, out=c, mode="clip")
    np.take(_SIN, index, out=s, mode="clip")
    np.multiply(t, t, out=u)
    np.multiply(u, -1.0 / 6.0, out=v)
    v += 1.0
    v *= t  # sin rho
    np.multiply(u, 1.0 / 24.0, out=t)
    t -= 0.5
    t *= u  # cos rho - 1
    cos = q  # q is spent: its array takes the cosines
    np.multiply(c, t, out=cos)
    np.multiply(s, v, out=u)
    cos -= u
    cos += c
    t *= s
    np.multiply(c, v, out=u)
    t += u
    t += s
    return cos, t


def _check_phases(zx: np.ndarray, zy: np.ndarray, xr: np.ndarray, xy: np.ndarray) -> None:
    """Raise ValueError unless every |<xi, z>| is bounded below _MAX_PHASE.

    The bound is max |Re xi| max |Re z| + max |Im xi| max |Im z|, taken in
    Python floats, so a huge frequency raises instead of overflowing.
    """
    def extent(a: np.ndarray) -> float:
        return max(-float(a.min()), float(a.max()))

    bound = extent(xr) * extent(zx) + extent(xy) * extent(zy)
    if not bound < _MAX_PHASE:
        raise ValueError(
            f"phases <xi, z> reach {bound:.4g} rad, at or past 2^40 = {_MAX_PHASE:.4g}, "
            "where float64 rounding alone moves a phase by more than 1e-4 rad; "
            "use smaller frequencies")


def _fourier_sums(z: np.ndarray, xis: np.ndarray, prefac: np.ndarray | None,
                  mirror: bool = False) -> np.ndarray:
    """Per-frequency sums over z of prefac * e^{-i<xi,z>} (prefac None: 1), complex128.

    The phases are taken in steps of 2 pi / _TABLE, with _TABLE / (2 pi)
    folded into each frequency, and their cosines and sines come from
    _sincos: a table gather and two short polynomials, all SIMD ufuncs.
    Each sum is within 2^-52 (4 + max_k |<xi, z_k>|) of a long-double
    evaluation, relative to n at order 0 and to sum_k |prefac_k| at orders
    1 and 2; |<xi, z>| must stay below 2^40 (see _check_phases).

    Without a prefactor the cosines are summed into the real parts and the
    sines subtracted from the imaginary parts; with one, each tile builds
    prefac * (cos - i sin) in a complex buffer first.  Each tile of
    frequencies walks the samples in _CHUNK-wide pieces and reduces each
    piece per frequency, so a frequency's summation order, and with it
    every output bit, does not depend on the tiling or on the number of
    workers.  With W workers, worker w takes tiles w, w + W, ..., and the
    workers write disjoint entries of the result.

    With mirror, the result has 2 p entries: the sums at xis, then the sums
    at -xis, both from one cos/sin pass.  The phase at -xi is the exact
    negation of the phase at xi, _sincos gives the same cosine and the
    negated sine there, and x - (-s) is x + s, so the second half equals
    the sums at -xis bit for bit.
    """
    n, p = z.shape[0], xis.shape[0]
    zx, zy = np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag)
    _check_phases(zx, zy, xis.real, xis.imag)
    # phases in table steps: t = <xi * _TABLE / (2 pi), z>
    steps = _TABLE / (2.0 * math.pi)
    xr, xy = xis.real * steps, xis.imag * steps
    width = min(n, _CHUNK)
    rows = min(_MAX_ROWS, _TILE_VALUES // width, p)
    acc = np.zeros(2 * p if mirror else p, np.complex128)
    # each half of the result and how its sines enter: subtracted at xi,
    # added at -xi
    halves = ((acc[:p], np.subtract), (acc[p:], np.add))[:1 + mirror]
    workers = min(_workers(), -(-p // rows))

    def work(w: int) -> None:
        size = rows * width
        # one allocation carved into the phases and _sincos's work arrays:
        # as separate arrays, glibc's malloc returned them to the system and
        # faulted them in again on every call (0.2 ms of a 0.35 ms call at
        # 10^4 samples).  With a prefactor, the complex buffer takes work
        # rows 1 and 2, free once _sincos has returned.
        block = np.empty((6, size))
        ph_buf, work_buf = block[0], block[1:]
        e_buf = block[2:4].reshape(-1).view(np.complex128)
        for lo in range(w * rows, p, workers * rows):
            hi = min(lo + rows, p)
            for a in range(0, n, _CHUNK):
                b = min(a + _CHUNK, n)
                shape = (hi - lo, b - a)
                ph = ph_buf[:shape[0] * shape[1]].reshape(shape)
                tmp = work_buf[0, :ph.size].reshape(shape)
                np.multiply(xr[lo:hi, None], zx[a:b], out=ph)
                np.multiply(xy[lo:hi, None], zy[a:b], out=tmp)
                ph += tmp
                cos, sin = _sincos(ph, work_buf)
                if prefac is None:
                    cos_sums, sin_sums = cos.sum(axis=1), sin.sum(axis=1)
                    for out, sin_op in halves:
                        out.real[lo:hi] += cos_sums
                        im = out.imag[lo:hi]
                        sin_op(im, sin_sums, out=im)
                    continue
                # e = cos - i sin; at -xi that is cos + i (0 + sin), and the
                # product with the prefactor is taken anew, as the direct
                # kernel takes it
                e = e_buf[:ph.size].reshape(shape)
                for out, sin_op in halves:
                    e.real = cos
                    sin_op(0.0, sin, out=e.imag)
                    e *= prefac[a:b]
                    out[lo:hi] += e.sum(axis=1)

    if workers == 1:
        work(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(workers)))
    return acc


def _grid(z: np.ndarray, s: float) -> tuple[complex, int, int, float, float] | None:
    """Gridding layout for frequencies up to |xi| = s > 0: (corner, nx, ny, tau, h).

    The nodes are corner + h (j + i k) for j < nx, k < ny.  None when the
    grid would have more than _MAX_CELLS cells; the count is taken in
    floating point, so a huge or non-finite span allocates nothing.
    """
    tau = _TAU_SCALE / (s * s)
    h = 2.0 * math.pi / (s * (1.0 + math.sqrt(1.0 + _ALIAS_LOG / _TAU_SCALE)))
    delta = math.sqrt(4.0 * tau * _ALIAS_LOG)
    corner = complex(float(z.real.min()) - delta, float(z.imag.min()) - delta)
    nx = np.floor((float(z.real.max()) + delta - corner.real) / h) + 2.0
    ny = np.floor((float(z.imag.max()) + delta - corner.imag) / h) + 2.0
    if not nx * ny <= _MAX_CELLS:
        return None
    return corner, int(nx), int(ny), tau, h


def _phase_powers(f: np.ndarray, h: float, count: int) -> np.ndarray:
    """e^{-i f h k} for k < count (rows) and every entry of f (columns).

    Built by doubling: rows [m, 2m) are rows [0, m) times e^{-i f h m},
    and e^{-i f h 2m} is the square of e^{-i f h m}.  One complex
    exponential per entry of f in place of count; the squarings grow the
    relative error of an entry to about 2 * count * 1.1e-16 at most.
    """
    out = np.empty((count, f.shape[0]), np.complex128)
    out[0] = 1.0
    factor = np.exp(-1j * h * f)
    filled = 1
    while filled < count:
        step = min(filled, count - filled)
        np.multiply(out[:step], factor, out=out[filled:filled + step])
        filled += step
        factor *= factor
    return out


def _gridded_sums(z: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Per-frequency sums over z of e^{-i<xi,z>} through a Gaussian grid, complex128.

    Falls back to the direct float64 kernel when the grid would exceed
    _MAX_CELLS cells (see the module docstring for the identity and bound).
    """
    n, p = z.shape[0], xis.shape[0]
    _check_phases(z.real, z.imag, xis.real, xis.imag)
    s = float(np.abs(xis).max())
    if s == 0.0:
        return np.full(p, complex(n))
    layout = _grid(z, s)
    if layout is None:
        return _fourier_sums(z, xis, None)
    corner, nx, ny, tau, h = layout
    width = max(nx, ny)
    # Spread.  Sorted by real part, a block of samples has x weights above
    # e^{-L} only on the nodes within delta of its own x range.
    w = z[np.argsort(z.real)] - corner
    reach = math.sqrt(4.0 * tau * _ALIAS_LOG) / h
    x_nodes, y_nodes = h * np.arange(nx), h * np.arange(ny)
    grid = np.zeros((nx, ny))
    rows = max(1, _BLOCK_BYTES // (8 * width))
    for a in range(0, n, rows):
        wx, wy = w.real[a:a + rows], w.imag[a:a + rows]
        i0 = max(0, int(wx[0] / h - reach))
        i1 = min(nx, int(wx[-1] / h + reach) + 2)
        gx, gy = np.subtract.outer(wx, x_nodes[i0:i1]), np.subtract.outer(wy, y_nodes)
        for g in (gx, gy):
            np.square(g, out=g)
            g *= -0.25 / tau
            # a floor of e^{-2L} keeps every weight and product a normal
            # number; subnormals slow exp and the matrix product
            np.maximum(g, -2.0 * _ALIAS_LOG, out=g)
            np.exp(g, out=g)
        part = max(1, _PRODUCT_MACS // ((i1 - i0) * ny))
        for r in range(0, wx.shape[0], part):
            grid[i0:i1] += gx[r:r + part].T @ gy[r:r + part]
    # Grid to frequencies: Ey^T (G^T Ex), with G^T Ex as a real product in
    # which each complex column of Ex is two float64 columns.
    out = np.empty(p, np.complex128)
    rows = max(1, _BLOCK_BYTES // (16 * width))
    part = max(1, _PRODUCT_MACS // (nx * ny))
    scale = h * h / (4.0 * math.pi * tau)
    for lo in range(0, p, rows):
        f = xis[lo:lo + rows]
        ex = _phase_powers(f.real, h, nx).view(np.float64)
        m = np.empty((ny, f.shape[0]), np.complex128)
        m_parts = m.view(np.float64)
        for c in range(0, ex.shape[1], part):
            np.matmul(grid.T, ex[:, c:c + part], out=m_parts[:, c:c + part])
        m *= _phase_powers(f.imag, h, ny)
        # deconvolve, and move the phases from the grid corner to the origin
        shift = f.real * corner.real + f.imag * corner.imag
        out[lo:lo + f.shape[0]] = m.sum(axis=0) * scale * np.exp(
            tau * (f.real**2 + f.imag**2) - 1j * shift)
    return out


def _statistic(z: np.ndarray, xis: np.ndarray, prefac: np.ndarray | None,
               mirror: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Mean and stderr of prefac * e^{-i<xi,z>} over z, per frequency (float64).

    With mirror, at xis and then at -xis (see _fourier_sums).
    """
    n = z.shape[0]
    means = _fourier_sums(z, xis, prefac, mirror) / n
    if n == 1:
        return means, np.zeros(means.shape[0])
    # sum |prefac|^2 by numpy's pairwise sum: np.vdot goes through BLAS,
    # whose threads follow the affinity mask and change its rounding
    power = n if prefac is None else float(np.square(prefac.view(np.float64)).sum())
    excess = np.maximum(power - n * (means.real**2 + means.imag**2), 0.0)
    return means, np.sqrt(excess / ((n - 1) * n))


def _frequency(xi) -> complex:
    xi = complex(xi)
    if not (math.isfinite(xi.real) and math.isfinite(xi.imag)):
        raise ValueError(f"frequency xi must be finite, got {xi!r}")
    return xi


def ecf(pool, xi: complex) -> EcfValue:
    """Empirical characteristic function at one frequency."""
    xi = _frequency(xi)
    z = _sample_array(pool)
    values, stderrs = _statistic(z, np.array([xi]), None)
    return EcfValue(xi, complex(values[0]), float(stderrs[0]))


def wirtinger_derivative(pool, xi: complex, which: str = "d_xibar") -> EcfValue:
    """Estimate a first Wirtinger derivative of phi at xi ("d_xi" or "d_xibar")."""
    xi = _frequency(xi)
    z = _sample_array(pool)
    values, stderrs = _statistic(z, np.array([xi]), _prefactor(z, 1, which))
    return EcfValue(xi, complex(values[0]), float(stderrs[0]))


def fixed_point_residual(pool, model, xi: complex, M: int = 1000, rng=None) -> float:
    """|phi_hat(xi) - E_hat prod_j phi_hat(conj(T_j) xi)| over M fresh weight draws.

    The inner ECFs go through the Gaussian grid of _gridded_sums (within
    about 1e-14 of the direct float64 sums) or, when that grid would be
    too large, through the direct float64 kernel.
    """
    if M < 100:
        raise ValueError(f"at least 100 weight draws required, got {M}")
    xi = _frequency(xi)
    rng = as_generator(rng, DOMAIN_FOURIER, 0)
    z = _sample_array(pool)
    values, counts = model.draw_batch(rng, M)
    inner = _gridded_sums(z, np.conj(values) * xi) / z.shape[0]
    products = np.multiply.reduceat(inner, np.concatenate(([0], np.cumsum(counts[:-1]))))
    lhs = complex(_statistic(z, np.array([xi]), None)[0][0])
    return float(abs(lhs - complex(products.mean())))


def polar_grid(pool, radii, n_angles: int = 16, order: int = 0) -> PolarGrid:
    """Evaluate phi_hat (order 0) or the d/d conj(xi) statistic of order 1 or 2 on a polar grid.

    The frequency tiles run on one worker thread per core of the process's
    affinity mask; the result does not depend on the worker count.  With
    an even n_angles, angle k + n_angles / 2 is evaluated at exactly -xi_k,
    where xi_k = r e^{i theta_k}, and shares the trigonometry of angle k.
    """
    r = np.asarray(radii, dtype=np.float64)
    if r.ndim != 1 or r.shape[0] < 1:
        raise ValueError("radii must be a nonempty 1-d sequence")
    if not (np.isfinite(r) & (r > 0)).all():
        raise ValueError("radii must be finite and positive")
    if n_angles < 8:
        raise ValueError(f"at least 8 angles required, got {n_angles}")
    z = _sample_array(pool)
    angles = 2.0 * math.pi * np.arange(n_angles) / n_angles
    mirror = n_angles % 2 == 0
    half = n_angles // 2 if mirror else n_angles
    xis = (r[:, None] * np.exp(1j * angles[:half])[None, :]).reshape(-1)
    values, stderrs = _statistic(z, xis, _prefactor(z, order), mirror)
    # with mirror: (xi or -xi, radius, angle) -> (radius, xi then -xi, angle)
    shape = (1 + mirror, r.shape[0], half)
    values = values.reshape(shape).swapaxes(0, 1).reshape(r.shape[0], n_angles)
    stderrs = stderrs.reshape(shape).swapaxes(0, 1).reshape(r.shape[0], n_angles)
    return PolarGrid(r, angles, values, stderrs)


def decay_from_grid(grid: PolarGrid) -> DecayScan:
    """Fit the log-log decay rate of the per-radius maxima of a polar grid.

    Radii whose maximum sits at or below 3x its own Monte Carlo stderr are
    excluded from the fit; fewer than 3 distinct usable radii raises
    InsufficientSignalError.
    """
    r = grid.radii
    mods = np.abs(grid.values)
    best = mods.argmax(axis=1)
    rows = np.arange(r.shape[0])
    vmax = mods[rows, best]
    floors = 3.0 * grid.stderrs[rows, best]
    kept = vmax > floors
    distinct = np.unique(r[kept]).shape[0]
    if distinct < 3:
        raise InsufficientSignalError(
            f"insufficient signal: only {distinct} distinct of {r.shape[0]} radii "
            "exceed 3x their Monte Carlo noise floor (need at least 3)"
        )
    slope = float(np.polyfit(np.log(r[kept]), np.log(vmax[kept]), 1)[0])
    return DecayScan(vmax, floors, kept, slope)
