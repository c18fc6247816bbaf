"""Gaussian-product KDE and grid integrals."""

import math
import tracemalloc

import numpy as np
import pytest

from smoothfix import CyclicPolya, Tabular
from smoothfix.cli import _figure_models
from smoothfix.density import DensityGrid, DensityLine, _eval_2d, grid_integral, kde1d, kde2d
from smoothfix.model import model_from_config
from smoothfix.popdyn import run
from smoothfix.rng import philox


def test_single_point_2d_peak_value():
    # Grid with an odd cell count so the origin is an actual grid node.
    g = kde2d([0.0 + 0.0j], cells=33, extent=((-4, 4), (-4, 4)), bandwidth=(1.0, 1.0))
    assert isinstance(g, DensityGrid)
    i = np.argmin(np.abs(g.x))
    j = np.argmin(np.abs(g.y))
    assert g.x[i] == 0.0 and g.y[j] == 0.0
    assert g.values[i, j] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


def test_single_point_1d_peak_value():
    line = kde1d([0.0], cells=65, extent=(-4, 4), bandwidth=1.0)
    i = np.argmin(np.abs(line.x))
    assert line.values[i] == pytest.approx(0.3989422804014327, rel=1e-12)


def test_two_point_symmetry():
    line = kde1d([-1.0, 1.0], cells=65, extent=(-3, 3), bandwidth=0.5)
    assert np.allclose(line.values, line.values[::-1], atol=1e-15)


def test_default_bandwidth_needs_100_samples():
    with pytest.raises(ValueError, match="100"):
        kde1d(np.zeros(50) + np.arange(50))
    with pytest.raises(ValueError, match="100"):
        kde2d(np.arange(50) * (1 + 1j))
    # explicit bandwidth lifts the requirement
    assert isinstance(kde1d(np.arange(50.0), bandwidth=1.0), DensityLine)
    assert isinstance(kde2d(np.arange(50) * (1 + 1j), bandwidth=(1.0, 1.0)), DensityGrid)


def test_point_mass_pool_rejected():
    with pytest.raises(ValueError, match="point mass"):
        kde2d(np.ones(200, dtype=np.complex128))
    with pytest.raises(ValueError, match="constant"):
        kde1d(np.ones(200))


def test_degenerate_axis_falls_back_to_line():
    pool = run(Tabular([(0.5, (1.2,)), (0.5, (0.4, 0.4))]), n=2000, K=25, seed=3).pool
    assert np.all(pool.samples.imag == 0.0)
    est = kde2d(pool)
    assert isinstance(est, DensityLine)
    assert est.axis == "re"
    assert est.n_samples == 2000
    assert 0.97 <= grid_integral(est) <= 1.01


def test_explicit_bandwidth_disables_fallback():
    z = np.arange(200, dtype=np.float64) + 0.0j  # imag spread exactly zero
    est = kde2d(z, cells=32, bandwidth=(5.0, 1.0))
    assert isinstance(est, DensityGrid)


def test_gaussian_cloud_normalizes():
    rng = philox(21, 0)
    z = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)
    est = kde2d(z, cells=128)
    assert 0.98 <= grid_integral(est) <= 1.01
    line = kde1d(z.real, cells=256)
    assert 0.98 <= grid_integral(line) <= 1.01


def test_translation_equivariance():
    rng = philox(22, 0)
    z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    a = kde2d(z, cells=48, extent=((-3, 3), (-3, 3)), bandwidth=(0.4, 0.4))
    b = kde2d(z + (3 + 2j), cells=48, extent=((0, 6), (-1, 5)), bandwidth=(0.4, 0.4))
    assert np.allclose(a.values, b.values, atol=1e-12)
    assert np.allclose(b.x, a.x + 3.0) and np.allclose(b.y, a.y + 2.0)


def test_fixed_point_density_mode_near_one():
    pool = run(CyclicPolya(8), n=4000, K=40, seed=1).pool
    est = kde2d(pool)
    i, j = np.unravel_index(np.argmax(est.values), est.values.shape)
    assert abs(complex(est.x[i], est.y[j]) - 1.0) < 0.5


def test_grid_integral_exact_on_flat_grid():
    g = DensityGrid(
        x=np.linspace(0.0, 1.0, 11),
        y=np.linspace(0.0, 2.0, 21),
        values=np.ones((11, 21)),
        bandwidth=(1.0, 1.0),
        n_samples=1,
    )
    assert grid_integral(g) == pytest.approx(2.0, abs=1e-14)
    line = DensityLine(np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11), 1.0, 1)
    assert grid_integral(line) == pytest.approx(0.5, abs=1e-14)


def test_bandwidth_validation():
    with pytest.raises(ValueError, match="positive"):
        kde1d(np.arange(200.0), bandwidth=-1.0)
    with pytest.raises(ValueError, match="positive"):
        kde2d(np.arange(200) * (1 + 1j), bandwidth=(1.0, 0.0))


def test_grid_needs_two_cells():
    z = philox(5, 0).standard_normal(200) * (1 + 1j)
    for cells in (-1, 0, 1):
        with pytest.raises(ValueError, match="at least 2 cells"):
            kde1d(z.real, cells=cells)
        with pytest.raises(ValueError, match="at least 2 cells"):
            kde2d(z, cells=cells)
        with pytest.raises(ValueError, match="at least 2 cells"):
            kde2d(z.real + 0j, cells=cells)  # the 1-d fallback path
    assert kde2d(z, cells=2).values.shape == (2, 2)


def test_non_finite_bandwidth_and_extent_rejected():
    z = philox(6, 0).standard_normal(200) * (1 + 1j)
    for h in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            kde1d(z.real, bandwidth=h)
        with pytest.raises(ValueError, match="finite"):
            kde2d(z, bandwidth=(1.0, h))
    # 4 h overflows the default extent
    with pytest.raises(ValueError, match="extent must be finite"):
        kde1d(z.real, bandwidth=1e308)
    with pytest.raises(ValueError, match="extent must be finite"):
        kde2d(z, bandwidth=(1e308, 1e308))
    with pytest.raises(ValueError, match="extent must be finite"):
        kde1d(z.real, extent=(-math.inf, 1.0), bandwidth=1.0)
    with pytest.raises(ValueError, match="extent must be finite"):
        kde2d(z, extent=((-1.0, 1.0), (-1e308, 1e308)), bandwidth=(1.0, 1.0))


def _exact(grid, z):
    return _eval_2d(grid.x, grid.y, z.real, z.imag, *grid.bandwidth)


def test_binned_matches_exact_on_figure_pools():
    for name, cfg in _figure_models():
        pool = run(model_from_config({"model": cfg}), n=10_000, K=50, seed=1).pool
        est = kde2d(pool)
        exact = _exact(est, pool.samples)
        assert np.abs(est.values - exact).max() <= 1e-3 * exact.max(), name


def test_binning_margin():
    # pools of 20000 + 5000 samples: n * 64 cells exceeds the 721^2 mass
    # grid, so kde2d bins them rather than taking the exact sum
    rng = philox(23, 0)
    h, n0 = 0.3, 20_000
    z0 = rng.standard_normal(n0) + 1j * rng.standard_normal(n0)
    ext = ((-3.0, 3.0), (-3.0, 3.0))
    inside = kde2d(z0, cells=64, extent=ext, bandwidth=(h, h))
    # 2 h past the right edge: outside the output grid, inside the 9 h margin;
    # their share of the exact density exceeds 5 % of its peak at the edge
    near = np.concatenate([z0, 3.0 + 2 * h + 0.1j * rng.standard_normal(5000)])
    est = kde2d(near, cells=64, extent=ext, bandwidth=(h, h))
    exact = _exact(est, near)
    added = exact - _exact(inside, z0) * (n0 / near.shape[0])
    assert added[-1].max() > 0.05 * exact.max()
    assert np.abs(est.values - exact).max() <= 1e-3 * exact.max()
    # 20 h past the edge: beyond the fine grid, dropped but counted in 1/n
    far = np.concatenate([z0, 3.0 + 20 * h + 1j * rng.uniform(-3.0, 3.0, 5000)])
    est = kde2d(far, cells=64, extent=ext, bandwidth=(h, h))
    share = n0 / far.shape[0]
    assert np.allclose(est.values, inside.values * share, rtol=1e-12, atol=0.0)
    assert grid_integral(est) == pytest.approx(grid_integral(inside) * share, rel=1e-12)


def test_mass_grid_over_budget_takes_exact_path():
    z = philox(24, 0).standard_normal(1000) * (1 + 1j)
    for bw in ((1e-3, 1e-3), (1e-3, 0.3)):
        est = kde2d(z, cells=256, extent=((-4.0, 4.0), (-4.0, 4.0)), bandwidth=bw)
        assert np.array_equal(est.values, _exact(est, z))
    # 50000 * 256 exceeds the 857 x 13300 mass grid, which exceeds the budget
    z = philox(24, 1).standard_normal(50_000) * (1 + 1j)
    est = kde2d(z, cells=256, extent=((-4.0, 4.0), (-4.0, 4.0)), bandwidth=(0.3, 0.01))
    assert np.array_equal(est.values, _exact(est, z))


def test_small_pool_takes_exact_path():
    # 50 * 256 is far below the mass-grid cells, so the exact sum is cheaper
    z = philox(26, 0).standard_normal(50) * (1 + 1j)
    est = kde2d(z, bandwidth=(1.0, 1.0))
    assert np.array_equal(est.values, _exact(est, z))


def test_kde2d_memory_bounded():
    # the per-sample path held two 256 x 32768 kernel chunks and their
    # temporaries, 256.5 MiB; the mass grid does not grow with n
    rng = philox(25, 0)
    z = rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000)
    tracemalloc.start()
    try:
        kde2d(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20
