"""End-to-end verification suite.

One test per numbered check; run with -v to get a pass/fail line for
each.  The heavy sample pools are built once per session and shared.
"""

import math
import time

import numpy as np
import pytest

from smoothfix import BigginsBinary, CyclicPolya
from smoothfix.analysis import find_alpha
from smoothfix.branching import estimate_martingale_mean
from smoothfix.cli import main
from smoothfix.density import grid_integral, kde2d
from smoothfix.fourier import (
    decay_from_grid,
    ecf,
    fixed_point_residual,
    polar_grid,
    wirtinger_derivative,
)
from smoothfix.popdyn import run
from smoothfix.rng import philox

SEED = 1


@pytest.fixture(scope="session")
def b8_result():
    return run(CyclicPolya(8), n=10_000, K=50, seed=SEED)


@pytest.fixture(scope="session")
def biggins_pi4_pool():
    lam = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    return run(BigginsBinary(lam), n=10_000, K=50, seed=SEED).pool


@pytest.fixture(scope="session")
def tilt23_pool():
    lam = 2.15 * complex(math.cos(2 * math.pi / 23), math.sin(2 * math.pi / 23))
    return run(BigginsBinary(lam), n=100_000, K=50, seed=SEED).pool


@pytest.fixture(scope="session")
def polya12_pool():
    return run(CyclicPolya(12), n=100_000, K=50, seed=SEED).pool


def test_criterion_1_alpha_root_finding():
    start = time.perf_counter()
    for b in (7, 8, 9):
        res = find_alpha(CyclicPolya(b))
        assert res.method == "closed_form"
        assert abs(res.alpha - 1.0 / math.cos(2 * math.pi / b)) < 1e-9
        mc = find_alpha(CyclicPolya(b), n=100_000, rng=philox(SEED, 0), method="monte_carlo")
        assert abs(mc.alpha - 1.0 / math.cos(2 * math.pi / b)) < 1e-2
    assert abs(find_alpha(CyclicPolya(6)).alpha - 2.0) < 1e-9
    assert time.perf_counter() - start < 5.0


def test_criterion_2_martingale_means():
    start = time.perf_counter()
    models = [
        BigginsBinary(complex(math.cos(math.pi / 4), math.sin(math.pi / 4))),
        CyclicPolya(8),
    ]
    for model in models:
        alpha = find_alpha(model).alpha
        means = estimate_martingale_mean(
            model, alpha, depth=8, reps=10_000, rng=philox(SEED, 2, 0)
        )
        assert not means.truncated
        for k in range(means.depths.shape[0]):
            band_w = 4.0 * means.se_w[k] + 1e-8
            band_z = 4.0 * means.se_z[k] + 1e-8
            assert abs(means.mean_w[k] - 1.0) <= band_w, f"W at depth {k + 1}"
            assert abs(means.mean_z[k] - 1.0) <= band_z, f"Z at depth {k + 1}"
    assert time.perf_counter() - start < 60.0


def test_criterion_3_population_mean_preservation(b8_result):
    for s in b8_result.summaries:
        assert abs(s.mean - 1.0) <= 4.0 * s.mean_se, f"generation {s.generation}"
    doubled = run(CyclicPolya(8), n=10_000, K=50, seed=SEED, init_value=2.0)
    base = b8_result.pool.samples
    assert np.max(np.abs(doubled.pool.samples - 2.0 * base)) <= 1e-12


def test_criterion_4_characteristic_equation_residual(b8_result):
    model = CyclicPolya(8)
    xis = [
        r * complex(math.cos(t), math.sin(t))
        for r in (0.5, 1.0, 2.0, 5.0)
        for t in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    ]
    final = np.array(
        [fixed_point_residual(b8_result.pool, model, xi, M=10_000, rng=99) for xi in xis]
    )
    early_pool = run(model, n=10_000, K=5, seed=SEED).pool
    early = np.array(
        [fixed_point_residual(early_pool, model, xi, M=10_000, rng=99) for xi in xis]
    )
    assert final.max() < 0.05
    assert np.mean(final <= early) >= 0.75


def test_criterion_5_ecf_decay(b8_result):
    radii = [1.0, 5.0, 10.0, 50.0]
    radial_max = np.abs(polar_grid(b8_result.pool, radii, 64).values).max(axis=1)
    assert np.all(np.diff(radial_max) < 0.0)
    assert radial_max[-1] < 0.1
    degenerate = polar_grid(np.ones(10_000, dtype=np.complex128), radii, 64)
    assert np.allclose(np.abs(degenerate.values).max(axis=1), 1.0, atol=1e-12)


def test_criterion_6_derivative_decay_first_order(tilt23_pool):
    scan = decay_from_grid(polar_grid(tilt23_pool, np.geomspace(5.0, 50.0, 7), 16, order=1))
    assert -1.5 <= scan.slope <= -0.5


def test_criterion_6_derivative_decay_second_order(polya12_pool):
    scan = decay_from_grid(polar_grid(polya12_pool, np.geomspace(5.0, 50.0, 7), 16, order=2))
    assert -2.6 <= scan.slope <= -1.4


def test_criterion_7_kde_normalization(b8_result, biggins_pi4_pool):
    for pool in (b8_result.pool, biggins_pi4_pool):
        integral = grid_integral(kde2d(pool))
        assert 0.97 <= integral <= 1.01


def test_criterion_8_figure_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    outdir = tmp_path / "figures"
    assert main(["figures", "--desk", "--seed", "11", "--outdir", str(outdir)]) == 0
    assert time.perf_counter() - start < 600.0
    for name in ("biggins_tilt23", "biggins_pi4", "polya_b7",
                 "polya_b8", "polya_b9", "polya_b12"):
        assert (outdir / f"{name}_density.csv").exists()


def test_criterion_9_wirtinger_consistency(b8_result):
    pool = b8_result.pool
    h = 1e-4
    rng = philox(3, 99)
    for _ in range(20):
        u, t = rng.random(2)
        xi = 3.0 * math.sqrt(u) * complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))
        dx = wirtinger_derivative(pool, xi, "d_xi").value
        dxb = wirtinger_derivative(pool, xi, "d_xibar").value
        f = lambda q: ecf(pool, q).value
        d1 = (f(xi + h) - f(xi - h)) / (2 * h)
        d2 = (f(xi + 1j * h) - f(xi - 1j * h)) / (2 * h)
        assert abs(d1 - (dx + dxb)) <= 1e-6 * abs(d1)
        assert abs(d2 - 1j * (dx - dxb)) <= 1e-6 * abs(d2)
