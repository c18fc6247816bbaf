"""ECF statistics, fixed-point residuals, and decay scans."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from smoothfix import BigginsBinary, CyclicPolya
from smoothfix.fourier import (
    InsufficientSignalError,
    PolarGrid,
    _fourier_sums,
    decay_from_grid,
    derivative_decay_scan,
    ecf,
    fixed_point_residual,
    polar_grid,
    radial_scan,
    wirtinger_derivative,
)
from smoothfix.popdyn import run
from smoothfix.rng import DOMAIN_FOURIER, philox


@pytest.fixture(scope="module")
def gaussian_samples():
    rng = philox(5, 0)
    return rng.standard_normal(5000) + 1j * rng.standard_normal(5000)


@pytest.fixture(scope="module")
def polya_pool():
    return run(CyclicPolya(8), n=4000, K=40, seed=1).pool


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
    grid = polar_grid(gaussian_samples, [0.5, 2.0], n_angles=8, order=0)
    for i, r in enumerate((0.5, 2.0)):
        for j, t in enumerate(grid.angles):
            xi = r * complex(math.cos(t), math.sin(t))
            assert grid.values[i, j] == ecf(gaussian_samples, xi).value


def test_fourier_kernel_thread_invariance(polya_pool):
    # two sample chunks and nine (float64) or forty (float32) frequency
    # tiles; more threads than cores and frequent thread switches, so a
    # tile taken twice or lost would show
    rng = philox(15, 0)
    z = rng.standard_normal((1 << 14) + 300) + 1j * rng.standard_normal((1 << 14) + 300)
    # the inner frequencies of fixed_point_residual, on its float32 path
    freqs = np.conj(CyclicPolya(8).draw_batch(philox(11, DOMAIN_FOURIER, 0), 320)[0]) * 3.0
    pool = np.tile(polya_pool.samples, 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for order in (0, 1, 2):
            one = polar_grid(z, [0.5, 2.0, 8.0], n_angles=24, order=order, threads=1)
            for threads in (2, 7):
                many = polar_grid(z, [0.5, 2.0, 8.0], n_angles=24, order=order,
                                  threads=threads)
                assert one.values.tobytes() == many.values.tobytes()
                assert one.stderrs.tobytes() == many.stderrs.tobytes()
        one = _fourier_sums(pool, freqs, None, np.float32, 1)
        for threads in (2, 7):
            many = _fourier_sums(pool, freqs, None, np.float32, threads)
            assert one.tobytes() == many.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_polar_grid_memory_is_bounded():
    # one frequency tile per worker is live at a time; an untiled kernel
    # needs about 134 MB for each complex (512 x 2^14) temporary
    rng = philox(16, 0)
    z = rng.standard_normal(1 << 14) + 1j * rng.standard_normal(1 << 14)
    tracemalloc.start()
    try:
        polar_grid(z, [3.0], n_angles=512, order=1, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_radial_scan_validations(gaussian_samples):
    with pytest.raises(ValueError, match="increasing"):
        radial_scan(gaussian_samples, [2.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        radial_scan(gaussian_samples, [-1.0, 2.0])
    with pytest.raises(ValueError, match="angles"):
        radial_scan(gaussian_samples, [1.0, 2.0], n_angles=4)


def test_all_ones_pool_radial_max_is_one():
    pool = np.ones(1000, dtype=np.complex128)
    scan = radial_scan(pool, [1.0, 5.0, 10.0, 50.0], 64)
    assert np.allclose(scan.values, 1.0, atol=1e-12)


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
    with pytest.raises(ValueError, match="d_xi"):
        polar_grid(polya_pool, [1.0], n_angles=8, order=2, which="bogus")
    # the second d/dxi statistic is the mean of (-(i/2) conj Z)^2 e^{-i<xi,Z>}
    z = polya_pool.samples
    grid = polar_grid(z, [2.0], n_angles=8, order=2, which="d_xi")
    for j, t in enumerate(grid.angles):
        xi = 2.0 * complex(math.cos(t), math.sin(t))
        e = np.exp(-1j * (xi.real * z.real + xi.imag * z.imag))
        direct = (-0.25 * np.conj(z) ** 2 * e).mean()
        assert grid.values[0, j] == pytest.approx(direct, rel=1e-12, abs=1e-15)


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


@pytest.mark.parametrize("name", ["polya_b8", "biggins_tilt23"])
def test_residual_float32_phases_match_float64(name):
    if name == "polya_b8":
        model = CyclicPolya(8)
    else:
        model = BigginsBinary(2.15 * complex(math.cos(2 * math.pi / 23),
                                             math.sin(2 * math.pi / 23)))
    z = run(model, n=4000, K=40, seed=1).pool.samples
    for xi in (0.5, 1.0 + 1.0j, 5.0 * complex(math.cos(0.4), math.sin(0.4))):
        fast = fixed_point_residual(z, model, xi, M=300, rng=21)
        assert abs(fast - _direct_residual(z, model, xi, 300, 21)) <= 5e-6


def test_residual_validations(polya_pool):
    with pytest.raises(ValueError, match="100"):
        fixed_point_residual(polya_pool, CyclicPolya(8), 1.0, M=50, rng=1)
    with pytest.raises(ValueError, match="rng"):
        fixed_point_residual(polya_pool, CyclicPolya(8), 1.0, M=200)


def test_residual_deterministic_in_seed(polya_pool):
    a = fixed_point_residual(polya_pool, CyclicPolya(8), 2.0 - 1.0j, M=500, rng=11)
    b = fixed_point_residual(polya_pool, CyclicPolya(8), 2.0 - 1.0j, M=500, rng=11)
    assert a == b


def test_decay_scan_validations(gaussian_samples):
    with pytest.raises(ValueError, match="decade"):
        derivative_decay_scan(gaussian_samples, [5.0, 20.0], order=1)
    with pytest.raises(ValueError, match="order"):
        derivative_decay_scan(gaussian_samples, [1.0, 3.0, 10.0], order=3)


def test_decay_scan_insufficient_signal_on_gaussian():
    # Gaussian CF decays like exp(-R^2/2): nothing survives past R ~ 5
    rng = philox(13, 0)
    z = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    with pytest.raises(InsufficientSignalError, match="insufficient signal"):
        derivative_decay_scan(z, np.geomspace(5.0, 50.0, 6), n_angles=8, order=1)


def test_polya8_pool_has_no_slow_first_order_decay():
    """The b = 8 fixed point has a smooth density: its ECF falls much faster
    than the generic first-order bound, so the scan runs out of signal."""
    pool = run(CyclicPolya(8), n=20_000, K=50, seed=1).pool
    with pytest.raises(InsufficientSignalError):
        derivative_decay_scan(pool, np.geomspace(5.0, 50.0, 7), n_angles=16, order=1)


def _synthetic_grid(radii, rate, peak_angle=2, stderr=1e-9, n_angles=8):
    radii = np.asarray(radii, dtype=np.float64)
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    values = 0.1 * (radii**rate)[:, None] * np.ones(n_angles)
    values[:, :peak_angle] *= 0.5  # per-radius max must land at a known column
    errs = np.full((radii.shape[0], n_angles), stderr)
    return PolarGrid(radii, angles, values.astype(np.complex128), errs, order=1)


def test_decay_fit_recovers_exact_rate():
    radii = np.geomspace(5.0, 50.0, 7)
    scan = decay_from_grid(_synthetic_grid(radii, rate=-1.2))
    assert scan.slope == pytest.approx(-1.2, abs=1e-12)
    assert scan.kept.all()
    assert np.array_equal(scan.values, 0.1 * radii**-1.2)
    assert np.array_equal(scan.floors, np.full(7, 3.0 * 1e-9))


def test_decay_fit_excludes_noise_dominated_radii():
    # Outer radii drown in noise: fit only the surviving inner ones, and the
    # contaminating flat tail must not drag the slope.
    radii = np.geomspace(5.0, 50.0, 7)
    grid = _synthetic_grid(radii, rate=-2.0, stderr=1e-9)
    values = grid.values.copy()
    values[4:] = 1e-10  # below 3 * stderr at the outer radii
    gated = PolarGrid(grid.radii, grid.angles, values, grid.stderrs, order=1)
    scan = decay_from_grid(gated)
    assert list(scan.kept) == [True] * 4 + [False] * 3
    assert scan.slope == pytest.approx(-2.0, abs=1e-12)
