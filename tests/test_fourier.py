"""ECF statistics, fixed-point residuals, and decay scans."""

import math
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

from smoothfix import BigginsBinary, CyclicPolya, fourier
from smoothfix.density import kde2d
from smoothfix.fourier import (
    InsufficientSignalError,
    PolarGrid,
    _fourier_sums,
    _gridded_sums,
    decay_from_grid,
    ecf,
    fixed_point_residual,
    polar_grid,
    wirtinger_derivative,
)
from smoothfix.popdyn import run
from smoothfix.rng import DOMAIN_FOURIER, philox


TILT23 = 2.15 * complex(math.cos(2 * math.pi / 23), math.sin(2 * math.pi / 23))


@pytest.fixture(scope="module")
def gaussian_samples():
    rng = philox(5, 0)
    return rng.standard_normal(5000) + 1j * rng.standard_normal(5000)


@pytest.fixture(scope="module")
def polya_pool():
    return run(CyclicPolya(8), n=4000, K=40, seed=1).pool


@pytest.fixture(scope="module")
def tilt23_pool():
    return run(BigginsBinary(TILT23), n=4000, K=40, seed=1).pool


def test_ecf_matches_direct_formula(gaussian_samples):
    z = gaussian_samples
    xi = 0.8 - 0.3j
    est = ecf(z, xi)
    ph = xi.real * z.real + xi.imag * z.imag
    direct = complex(np.cos(ph).mean(), -np.sin(ph).mean())
    assert est.value == pytest.approx(direct, rel=1e-12, abs=1e-15)
    assert est.stderr == pytest.approx(
        math.hypot(np.cos(ph).std(ddof=1), np.sin(ph).std(ddof=1)) / math.sqrt(z.shape[0]),
        rel=1e-10,
    )


def test_ecf_modulus_bounded(gaussian_samples):
    rng = philox(6, 0)
    for _ in range(25):
        xi = complex(*(4 * rng.standard_normal(2)))
        assert abs(ecf(gaussian_samples, xi).value) <= 1.0 + 1e-12


def test_ecf_conjugate_symmetry_exact(gaussian_samples):
    rng = philox(7, 0)
    for _ in range(10):
        xi = complex(*(3 * rng.standard_normal(2)))
        assert ecf(gaussian_samples, xi).value == ecf(gaussian_samples, -xi).value.conjugate()


def test_ecf_at_zero_is_one(gaussian_samples):
    est = ecf(gaussian_samples, 0.0)
    assert est.value == 1.0 + 0.0j


def test_polar_grid_matches_pointwise_ecf(gaussian_samples):
    # angle j + 4 of the 8 is evaluated at exactly -xi_j
    grid = polar_grid(gaussian_samples, [0.5, 2.0], n_angles=8, order=0)
    for i, r in enumerate((0.5, 2.0)):
        for j, t in enumerate(grid.angles):
            if j < 4:
                xi = r * complex(math.cos(t), math.sin(t))
            else:
                xi = -(r * complex(math.cos(grid.angles[j - 4]), math.sin(grid.angles[j - 4])))
            assert grid.values[i, j] == ecf(gaussian_samples, xi).value


def _direct_grid(z, radii, n_angles, order):
    """polar_grid's frequencies, one per angle, through the direct kernel.

    With an even n_angles the second half of each radius is the exact
    negation of the first, as polar_grid defines it.
    """
    radii = np.asarray(radii, dtype=np.float64)
    angles = 2.0 * math.pi * np.arange(n_angles) / n_angles
    half = n_angles // 2 if n_angles % 2 == 0 else n_angles
    xis = radii[:, None] * np.exp(1j * angles[:half])[None, :]
    if half < n_angles:
        xis = np.concatenate((xis, -xis), axis=1)
    values, stderrs = fourier._statistic(z, xis.reshape(-1), fourier._prefactor(z, order))
    shape = (radii.shape[0], n_angles)
    return values.reshape(shape), stderrs.reshape(shape)


def test_fourier_kernel_thread_invariance(polya_pool, monkeypatch):
    # two sample chunks and nine (mirrored polar grid), seven (odd polar
    # grid) or eighty (residual-shaped) frequency tiles; more workers than
    # cores (_workers is stubbed here) and frequent thread switches, so a
    # tile taken twice or lost would show.  Every worker count matches the
    # direct kernel on one worker bit for bit, signed zeros included.
    def use_workers(count):
        monkeypatch.setattr(fourier, "_workers", lambda: count)

    rng = philox(15, 0)
    z = rng.standard_normal((1 << 14) + 300) + 1j * rng.standard_normal((1 << 14) + 300)
    # the inner frequencies of fixed_point_residual, as its fallback sums them
    freqs = np.conj(CyclicPolya(8).draw_batch(philox(11, DOMAIN_FOURIER, 0), 320)[0]) * 3.0
    pool = np.tile(polya_pool.samples, 5)
    radii = [0.5, 2.0, 8.0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for order in (0, 1, 2):
            for n_angles in (48, 17):
                use_workers(1)
                values, stderrs = _direct_grid(z, radii, n_angles, order)
                for count in (1, 2, 7):
                    use_workers(count)
                    grid = polar_grid(z, radii, n_angles=n_angles, order=order)
                    assert grid.values.tobytes() == values.tobytes()
                    assert grid.stderrs.tobytes() == stderrs.tobytes()
        use_workers(1)
        one = _fourier_sums(pool, freqs, None)
        for count in (2, 7):
            use_workers(count)
            many = _fourier_sums(pool, freqs, None)
            assert one.tobytes() == many.tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("name", ["polya_b8", "biggins_tilt23"])
def test_mirrored_grid_matches_direct_frequencies(name, polya_pool, tilt23_pool):
    # angle k + A/2 is taken at -xi_k, which differs from r e^{i theta} by
    # an ulp or so; the values stay within 1e-12 relative of the direct
    # sums at r e^{i theta}
    z = (polya_pool if name == "polya_b8" else tilt23_pool).samples
    radii = np.geomspace(0.5, 50.0, 5)
    for order in (0, 1, 2):
        grid = polar_grid(z, radii, n_angles=16, order=order)
        xis = (radii[:, None] * np.exp(1j * grid.angles)[None, :]).reshape(-1)
        direct = fourier._statistic(z, xis, fourier._prefactor(z, order))[0]
        gap = np.abs(grid.values.reshape(-1) - direct)
        assert (gap <= 1e-12 * np.maximum(1.0, np.abs(direct))).all()


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a call that fits one worker started a thread pool")


def _requested_workers(monkeypatch, z, radii):
    """polar_grid on 64 angles with a ThreadPoolExecutor stand-in that
    records the requested worker count and runs the work inline, so no
    thread starts whatever the count."""
    requested = []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(fourier, "ThreadPoolExecutor", InlinePool)
    return polar_grid(z, radii, n_angles=64), requested


def test_worker_count_capped_at_usable_cores(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    z = philox(17, 0).standard_normal(100) + 0j
    # 64 angles are 32 mirrored pairs: 4 (cores + 1) tiles of 8 frequencies
    radii = np.linspace(1.0, 2.0, cores + 1)
    with monkeypatch.context() as m:
        m.setattr(fourier, "_workers", lambda: 1)
        expected = polar_grid(z, radii, n_angles=64)
    grid, requested = _requested_workers(monkeypatch, z, radii)
    assert requested == ([cores] if cores > 1 else [])
    assert grid.values.tobytes() == expected.values.tobytes()


def test_worker_count_follows_affinity_mask(monkeypatch):
    # the workers are the cores of the affinity mask, or os.cpu_count()
    # where the platform has no mask; 64 angles on 2 radii are 8 tiles
    z = philox(18, 0).standard_normal(100) + 0j
    radii = [1.0, 2.0]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    with monkeypatch.context() as m:
        m.setattr(fourier, "ThreadPoolExecutor", _NoPool)
        expected = polar_grid(z, radii, n_angles=64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    grid, requested = _requested_workers(monkeypatch, z, radii)
    assert requested == [3]
    assert grid.values.tobytes() == expected.values.tobytes()
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _requested_workers(monkeypatch, z, radii)[1] == [5]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _requested_workers(monkeypatch, z, radii)[1] == []


def test_single_tile_calls_start_no_thread(monkeypatch, polya_pool):
    # one frequency tile runs inline: a pool that cannot be built must not
    # be asked for
    monkeypatch.setattr(fourier, "ThreadPoolExecutor", _NoPool)
    z = polya_pool.samples
    ecf(z, 1.0 - 0.5j)
    for which in ("d_xi", "d_xibar"):
        wirtinger_derivative(z, 1.0 - 0.5j, which)
    polar_grid(z, [1.0], n_angles=8)
    fixed_point_residual(z, CyclicPolya(8), 1.0 + 0.5j, M=200, rng=1)  # the grid fits


@pytest.mark.parametrize("name", ["biggins_tilt23", "polya_b8"])
def test_stderrs_match_two_pass_variance(name, polya_pool):
    # the kernel takes sum |w|^2 from sum |prefac|^2; the reference is the
    # two-pass sample variance of w at each frequency
    if name == "polya_b8":
        z = polya_pool.samples
    else:
        z = run(BigginsBinary(TILT23), n=20_000, K=40, seed=1).pool.samples
    radii = np.array([0.5, 2.0, 8.0])
    for order, prefac in ((0, 1.0), (1, -0.5j * z), (2, -0.25 * z * z)):
        grid = polar_grid(z, radii, n_angles=8, order=order)
        xis = (radii[:, None] * np.exp(1j * grid.angles)[None, :]).reshape(-1)
        phase = np.multiply.outer(xis.real, z.real) + np.multiply.outer(xis.imag, z.imag)
        w = prefac * np.exp(-1j * phase)
        ref = np.sqrt((w.real.var(axis=1, ddof=1) + w.imag.var(axis=1, ddof=1)) / z.shape[0])
        np.testing.assert_allclose(grid.stderrs.reshape(-1), ref, rtol=1e-12, atol=0.0)


def test_polar_grid_memory_is_bounded(monkeypatch):
    # one frequency tile per worker is live at a time; an untiled kernel
    # needs about 134 MB for each complex (512 x 2^14) temporary
    monkeypatch.setattr(fourier, "_workers", lambda: 2)
    rng = philox(16, 0)
    z = rng.standard_normal(1 << 14) + 1j * rng.standard_normal(1 << 14)
    tracemalloc.start()
    try:
        polar_grid(z, [3.0], n_angles=512, order=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_polar_grid_validations(gaussian_samples):
    with pytest.raises(ValueError, match="positive"):
        polar_grid(gaussian_samples, [-1.0, 2.0])
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            polar_grid(gaussian_samples, [1.0, bad])
    with pytest.raises(ValueError, match="angles"):
        polar_grid(gaussian_samples, [1.0, 2.0], n_angles=4)


def test_all_ones_pool_radial_max_is_one():
    pool = np.ones(1000, dtype=np.complex128)
    radial_max = np.abs(polar_grid(pool, [1.0, 5.0, 10.0, 50.0], 64).values).max(axis=1)
    assert np.allclose(radial_max, 1.0, atol=1e-12)


def test_wirtinger_finite_difference_identities(polya_pool):
    # d/d xi1 = d_xi + d_xibar, d/d xi2 = i (d_xi - d_xibar), step 1e-4
    h = 1e-4
    rng = philox(9, 0)
    for _ in range(5):
        xi = complex(*(2 * rng.standard_normal(2)))
        dx = wirtinger_derivative(polya_pool, xi, "d_xi").value
        dxb = wirtinger_derivative(polya_pool, xi, "d_xibar").value
        f = lambda q: ecf(polya_pool, q).value
        d1 = (f(xi + h) - f(xi - h)) / (2 * h)
        d2 = (f(xi + 1j * h) - f(xi - 1j * h)) / (2 * h)
        assert abs(d1 - (dx + dxb)) <= 1e-6 * abs(d1)
        assert abs(d2 - 1j * (dx - dxb)) <= 1e-6 * abs(d2)


def test_wirtinger_which_validation(polya_pool):
    with pytest.raises(ValueError, match="d_xi"):
        wirtinger_derivative(polya_pool, 1.0, "gradient")


def test_residual_zero_at_origin(polya_pool):
    assert fixed_point_residual(polya_pool, CyclicPolya(8), 0.0, M=200, rng=1) == 0.0


def test_residual_small_on_converged_pool(polya_pool):
    r = fixed_point_residual(polya_pool, CyclicPolya(8), 1.0 + 0.5j, M=2000, rng=3)
    assert r < 0.1


def _direct_residual(z, model, xi, M, seed):
    """The residual with float64 phases and np.exp throughout."""
    values, counts = model.draw_batch(philox(seed, DOMAIN_FOURIER, 0), M)
    freqs = np.conj(values) * xi
    phase = np.multiply.outer(freqs.real, z.real) + np.multiply.outer(freqs.imag, z.imag)
    inner = np.exp(-1j * phase).mean(axis=1)
    offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
    products = np.multiply.reduceat(inner, offsets)
    lhs = np.exp(-1j * (xi.real * z.real + xi.imag * z.imag)).mean()
    return abs(lhs - products.mean())


def _spy_direct_kernel(monkeypatch):
    """Record the frequency count of every call to the direct kernel."""
    calls = []
    direct = fourier._fourier_sums

    def spy(z, xis, *args):
        calls.append(xis.shape[0])
        return direct(z, xis, *args)

    monkeypatch.setattr(fourier, "_fourier_sums", spy)
    return calls


@pytest.mark.parametrize("name", ["polya_b8", "biggins_tilt23"])
def test_residual_matches_float64_direct(name, monkeypatch, polya_pool, tilt23_pool):
    model = CyclicPolya(8) if name == "polya_b8" else BigginsBinary(TILT23)
    z = (polya_pool if name == "polya_b8" else tilt23_pool).samples
    calls = _spy_direct_kernel(monkeypatch)
    xis = (0.5, 1.0 + 1.0j, 5.0 * complex(math.cos(0.4), math.sin(0.4)))
    for xi in xis:
        fast = fixed_point_residual(z, model, xi, M=300, rng=21)
        assert abs(fast - _direct_residual(z, model, xi, 300, 21)) <= 1e-12
    # only the single-frequency lhs ran direct: every inner sum was gridded
    assert calls == [1, 1, 1]
    if name == "polya_b8":
        return
    # |xi| = 5 has the largest grid of these pools: gridded at a cap of
    # exactly its cell count, direct one cell below
    xi = xis[-1]
    values = model.draw_batch(philox(21, DOMAIN_FOURIER, 0), 300)[0]
    _, nx, ny, _, _ = fourier._grid(z, float(np.abs(np.conj(values) * xi).max()))
    assert (nx, ny) == (181, 97)
    for cap, direct_calls in ((nx * ny, [1]), (nx * ny - 1, [values.shape[0], 1])):
        monkeypatch.setattr(fourier, "_MAX_CELLS", cap)
        calls.clear()
        fast = fixed_point_residual(z, model, xi, M=300, rng=21)
        assert calls == direct_calls
        assert abs(fast - _direct_residual(z, model, xi, 300, 21)) <= 1e-12


@pytest.mark.parametrize("name", ["polya_b8", "biggins_tilt23"])
def test_gridded_sums_match_direct_kernel(name, polya_pool, tilt23_pool):
    model = CyclicPolya(8) if name == "polya_b8" else BigginsBinary(TILT23)
    z = (polya_pool if name == "polya_b8" else tilt23_pool).samples
    n = z.shape[0]
    values = np.conj(model.draw_batch(philox(23, DOMAIN_FOURIER, 0), 400)[0])
    # residual-shaped frequencies at three radii in one call, and xi = 0
    xis = np.concatenate(([0.0], values * 0.5, values * (1.0 + 1.0j), values * 5.0j))
    gridded = _gridded_sums(z, xis)
    assert np.abs(gridded - _fourier_sums(z, xis, None)).max() / n <= 1e-12
    assert abs(gridded[0] - n) / n <= 1e-12
    zeros = _gridded_sums(z, np.zeros(3, np.complex128))
    assert zeros.tobytes() == np.full(3, complex(n)).tobytes()


def test_residual_validations(polya_pool):
    with pytest.raises(ValueError, match="100"):
        fixed_point_residual(polya_pool, CyclicPolya(8), 1.0, M=50, rng=1)
    with pytest.raises(ValueError, match="rng"):
        fixed_point_residual(polya_pool, CyclicPolya(8), 1.0, M=200)
    for bad in (math.inf, math.nan, complex(1.0, math.nan), complex(-math.inf, 2.0)):
        for call in (lambda: fixed_point_residual(polya_pool, CyclicPolya(8), bad, M=200, rng=1),
                     lambda: ecf(polya_pool, bad),
                     lambda: wirtinger_derivative(polya_pool, bad)):
            message = re.escape(f"must be finite, got {complex(bad)!r}")
            with pytest.raises(ValueError, match=message):
                call()


@pytest.mark.parametrize("entry", [
    lambda z: ecf(z, 1.0),
    lambda z: wirtinger_derivative(z, 1.0),
    lambda z: fixed_point_residual(z, CyclicPolya(8), 1.0, M=200, rng=1),
    lambda z: polar_grid(z, [1.0], 8),
    lambda z: kde2d(z),
], ids=["ecf", "wirtinger_derivative", "fixed_point_residual", "polar_grid", "kde2d"])
@pytest.mark.parametrize("bad", [math.inf, complex(0.0, -math.inf), math.nan])
def test_non_finite_samples_rejected(entry, bad, gaussian_samples):
    z = gaussian_samples.copy()
    z[7] = bad
    with pytest.raises(ValueError, match="samples must be finite"):
        entry(z)


def test_residual_memory_is_bounded():
    # 2 x 10^4 inner frequencies on 10^4 samples; the direct kernel took
    # 4.0 MB here; the gridded sums took 2.4 MB
    rng = philox(16, 0)
    z = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
    tracemalloc.start()
    try:
        fixed_point_residual(z, CyclicPolya(8), 5.0, M=10_000, rng=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0e6


def test_residual_checks_samples_once(monkeypatch, polya_pool):
    calls = []
    check = fourier._sample_array

    def counted(pool):
        calls.append(1)
        return check(pool)

    monkeypatch.setattr(fourier, "_sample_array", counted)
    fixed_point_residual(polya_pool, CyclicPolya(8), 2.0 - 1.0j, M=200, rng=1)
    assert len(calls) == 1


def test_residual_deterministic_in_seed(polya_pool):
    a = fixed_point_residual(polya_pool, CyclicPolya(8), 2.0 - 1.0j, M=500, rng=11)
    b = fixed_point_residual(polya_pool, CyclicPolya(8), 2.0 - 1.0j, M=500, rng=11)
    assert a == b


def test_decay_scan_validations(gaussian_samples):
    with pytest.raises(ValueError, match="order"):
        polar_grid(gaussian_samples, [1.0, 3.0, 10.0], order=3)


def test_decay_scan_insufficient_signal_on_gaussian():
    # Gaussian CF decays like exp(-R^2/2): nothing survives past R ~ 5
    rng = philox(13, 0)
    z = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    with pytest.raises(InsufficientSignalError, match="insufficient signal"):
        decay_from_grid(polar_grid(z, np.geomspace(5.0, 50.0, 6), n_angles=8, order=1))


def test_polya8_pool_has_no_slow_first_order_decay():
    """The b = 8 fixed point has a smooth density: its ECF falls much faster
    than the generic first-order bound, so the scan runs out of signal."""
    pool = run(CyclicPolya(8), n=20_000, K=50, seed=1).pool
    with pytest.raises(InsufficientSignalError):
        decay_from_grid(polar_grid(pool, np.geomspace(5.0, 50.0, 7), n_angles=16, order=1))


def _synthetic_grid(radii, rate, peak_angle=2, stderr=1e-9, n_angles=8):
    radii = np.asarray(radii, dtype=np.float64)
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    values = 0.1 * (radii**rate)[:, None] * np.ones(n_angles)
    values[:, :peak_angle] *= 0.5  # per-radius max must land at a known column
    errs = np.full((radii.shape[0], n_angles), stderr)
    return PolarGrid(radii, angles, values.astype(np.complex128), errs)


def test_decay_fit_recovers_exact_rate():
    radii = np.geomspace(5.0, 50.0, 7)
    scan = decay_from_grid(_synthetic_grid(radii, rate=-1.2))
    assert scan.slope == pytest.approx(-1.2, abs=1e-12)
    assert scan.kept.all()
    assert np.array_equal(scan.values, 0.1 * radii**-1.2)
    assert np.array_equal(scan.floors, np.full(7, 3.0 * 1e-9))


def test_decay_fit_counts_distinct_radii():
    # one radius repeated three times used to give a rank-deficient fit
    # and a slope
    for radii in ([5.0, 5.0, 5.0], [5.0, 5.0, 10.0, 10.0]):
        with pytest.raises(InsufficientSignalError, match="distinct"):
            decay_from_grid(_synthetic_grid(radii, rate=-1.2))
    scan = decay_from_grid(_synthetic_grid([5.0, 5.0, 10.0, 20.0], rate=-1.2))
    assert scan.slope == pytest.approx(-1.2, abs=1e-12)


def test_decay_fit_excludes_noise_dominated_radii():
    # Outer radii drown in noise: fit only the surviving inner ones, and the
    # contaminating flat tail must not drag the slope.
    radii = np.geomspace(5.0, 50.0, 7)
    grid = _synthetic_grid(radii, rate=-2.0, stderr=1e-9)
    values = grid.values.copy()
    values[4:] = 1e-10  # below 3 * stderr at the outer radii
    gated = PolarGrid(grid.radii, grid.angles, values, grid.stderrs)
    scan = decay_from_grid(gated)
    assert list(scan.kept) == [True] * 4 + [False] * 3
    assert scan.slope == pytest.approx(-2.0, abs=1e-12)
