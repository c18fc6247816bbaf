"""Gaussian-product KDE and grid integrals."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from smoothfix import CyclicPolya, Tabular, io
from smoothfix.cli import _figure_models
from smoothfix.density import (
    DensityGrid,
    DensityLine,
    _binned_2d,
    _eval_2d,
    _fine_axis,
    _gaussian_sums,
    grid_integral,
    kde2d,
)
from smoothfix.model import model_from_config
from smoothfix.popdyn import SamplePool, run
from smoothfix.rng import philox


def test_single_point_2d_peak_value():
    # The grid spans 0 +- 4 h with an odd cell count, so the origin is a node.
    g = kde2d([0.0 + 0.0j], cells=33, bandwidth=(1.0, 1.0))
    assert isinstance(g, DensityGrid)
    assert np.array_equal(g.x, np.linspace(-4.0, 4.0, 33)) and np.array_equal(g.y, g.x)
    i = np.argmin(np.abs(g.x))
    j = np.argmin(np.abs(g.y))
    assert g.x[i] == 0.0 and g.y[j] == 0.0
    assert g.values[i, j] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


def test_line_fallback_matches_direct_sum():
    x = philox(27, 0).standard_normal(300)
    line = kde2d(x + 0j, cells=65)
    assert isinstance(line, DensityLine) and line.axis == "re" and line.n_samples == 300
    h = line.bandwidth
    assert h == 1.06 * x.std(ddof=1) * 300 ** (-1 / 5)
    span = 4.0 * max(x.std(), h)
    assert np.array_equal(line.x, np.linspace(x.mean() - span, x.mean() + span, 65))
    u = (line.x[:, None] - x[None, :]) / h
    direct = np.exp(-0.5 * u * u).sum(axis=1) / (300 * h * math.sqrt(2 * math.pi))
    assert np.allclose(line.values, direct, rtol=1e-12, atol=0.0)
    assert 0.98 <= grid_integral(line) <= 1.01


def test_im_axis_fallback_matches_re_axis():
    x = philox(28, 0).standard_normal(300)
    re_line = kde2d(x + 0j)
    im_line = kde2d(1j * x)
    assert isinstance(im_line, DensityLine) and im_line.axis == "im"
    assert im_line.x.tobytes() == re_line.x.tobytes()
    assert im_line.values.tobytes() == re_line.values.tobytes()


def test_two_point_symmetry():
    # 100 samples at each of +-1: the mean is exactly 0, so the grid is symmetric
    line = kde2d(np.repeat([-1.0 + 0j, 1.0 + 0j], 100), cells=65)
    assert isinstance(line, DensityLine)
    assert np.allclose(line.values, line.values[::-1], atol=1e-15)


def test_default_bandwidth_needs_100_samples():
    with pytest.raises(ValueError, match="100"):
        kde2d(np.arange(50) * (1 + 1j))
    with pytest.raises(ValueError, match="100"):
        kde2d(np.arange(50.0))  # before the 1-d fallback
    # explicit bandwidth lifts the requirement
    assert isinstance(kde2d(np.arange(50) * (1 + 1j), bandwidth=(1.0, 1.0)), DensityGrid)


def test_point_mass_pool_rejected():
    with pytest.raises(ValueError, match="point mass"):
        kde2d(np.ones(200, dtype=np.complex128))


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
    line = kde2d(z.real, cells=256)
    assert isinstance(line, DensityLine)
    assert 0.98 <= grid_integral(line) <= 1.01


def test_translation_equivariance():
    rng = philox(22, 0)
    z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    a = kde2d(z, cells=48, bandwidth=(0.4, 0.4))
    b = kde2d(z + (3 + 2j), cells=48, bandwidth=(0.4, 0.4))
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
    line = DensityLine(np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11), 1.0, 1, "re")
    assert grid_integral(line) == pytest.approx(0.5, abs=1e-14)


def test_bandwidth_validation():
    with pytest.raises(ValueError, match="positive"):
        kde2d(np.arange(200) * (1 + 1j), bandwidth=(1.0, 0.0))


def test_grid_needs_two_cells():
    z = philox(5, 0).standard_normal(200) * (1 + 1j)
    for cells in (-1, 0, 1):
        with pytest.raises(ValueError, match="at least 2 cells"):
            kde2d(z, cells=cells)
        with pytest.raises(ValueError, match="at least 2 cells"):
            kde2d(z.real + 0j, cells=cells)  # the 1-d fallback path
    assert kde2d(z, cells=2).values.shape == (2, 2)


def test_non_finite_bandwidth_and_extent_rejected():
    z = philox(6, 0).standard_normal(200) * (1 + 1j)
    for h in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            kde2d(z, bandwidth=(1.0, h))
    # 4 h overflows the grid extent
    with pytest.raises(ValueError, match="extent must be finite"):
        kde2d(z, bandwidth=(1e308, 1e308))


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
    # grid, so _binned_2d bins them rather than taking the exact sum
    rng = philox(23, 0)
    h, n0 = 0.3, 20_000
    z0 = rng.standard_normal(n0) + 1j * rng.standard_normal(n0)
    g = np.linspace(-3.0, 3.0, 64)

    def binned(z):
        return _binned_2d(g, g, z.real, z.imag, h, h)

    def exact(z):
        return _eval_2d(g, g, z.real, z.imag, h, h)

    inside = binned(z0)
    # 2 h past the right edge: outside the output grid, inside the 9 h margin;
    # their share of the exact density exceeds 5 % of its peak at the edge
    near = np.concatenate([z0, 3.0 + 2 * h + 0.1j * rng.standard_normal(5000)])
    est, ref = binned(near), exact(near)
    added = ref - exact(z0) * (n0 / near.shape[0])
    assert added[-1].max() > 0.05 * ref.max()
    assert np.abs(est - ref).max() <= 1e-3 * ref.max()
    # 20 h past the edge: beyond the fine grid, dropped but counted in 1/n
    far = np.concatenate([z0, 3.0 + 20 * h + 1j * rng.uniform(-3.0, 3.0, 5000)])
    share = n0 / far.shape[0]
    assert np.allclose(binned(far), inside * share, rtol=1e-12, atol=0.0)


def test_mass_grid_over_budget_takes_exact_path():
    g = np.linspace(-4.0, 4.0, 256)
    z = philox(24, 0).standard_normal(1000) * (1 + 1j)
    for bw in ((1e-3, 1e-3), (1e-3, 0.3)):
        values = _binned_2d(g, g, z.real, z.imag, *bw)
        assert np.array_equal(values, _eval_2d(g, g, z.real, z.imag, *bw))
    # 50000 * 256 exceeds the 857 x 13300 mass grid, which exceeds the budget
    z = philox(24, 1).standard_normal(50_000) * (1 + 1j)
    values = _binned_2d(g, g, z.real, z.imag, 0.3, 0.01)
    assert np.array_equal(values, _eval_2d(g, g, z.real, z.imag, 0.3, 0.01))


def test_small_pool_takes_exact_path():
    # 50 * 256 is far below the mass-grid cells, so the exact sum is cheaper
    z = philox(26, 0).standard_normal(50) * (1 + 1j)
    est = kde2d(z, bandwidth=(1.0, 1.0))
    assert np.array_equal(est.values, _exact(est, z))


def test_banded_sweep_matches_dense_product():
    # the fine grid, margin and bilinear weights of _binned_2d, contracted
    # as one dense K_x @ W @ K_y.T; over 10^4 samples share the central
    # band, and a few lie past the fine grid
    rng = philox(30, 0)
    n = 40_000
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z[:5] = [9.0, -9.0 + 1j, 8.0j, -7.0j, 3.0 + 6.0j]
    gx, gy, hx, hy = np.linspace(-4.0, 4.5, 97), np.linspace(-3.0, 3.0, 64), 0.2, 0.15
    fx, fy = _fine_axis(gx, hx), _fine_axis(gy, hy)
    assert n * gy.shape[0] > fx.count * fy.count  # the binned path
    tx, ty = fx.index(z.real), fy.index(z.imag)
    keep = (tx >= 0) & (tx < fx.count - 1) & (ty >= 0) & (ty < fy.count - 1)
    assert not keep[:5].any()
    tx, ty = tx[keep], ty[keep]
    ix, iy = np.floor(tx).astype(int), np.floor(ty).astype(int)
    wx, wy = tx - ix, ty - iy
    mass = np.zeros((fx.count, fy.count))
    for dx, dy, w in ((0, 0, (1 - wx) * (1 - wy)), (0, 1, (1 - wx) * wy),
                      (1, 0, wx * (1 - wy)), (1, 1, wx * wy)):
        np.add.at(mass, (ix + dx, iy + dy), w)

    def kernel(grid, f, h):
        nodes = f.origin + (np.arange(f.count) - f.pad) * f.spacing
        u = (grid[:, None] - nodes[None, :]) / h
        return np.exp(-0.5 * u * u) / (h * math.sqrt(2 * math.pi))

    dense = kernel(gx, fx, hx) @ mass @ kernel(gy, fy, hy).T / n
    banded = _binned_2d(gx, gy, z.real, z.imag, hx, hy)
    assert np.abs(banded - dense).max() <= 1e-13 * dense.max()


def _traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kde2d_memory_bounded():
    # the binned path holds one index and one 2-byte band key per sample,
    # 256 x fine_y sums and one band of fine rows: 13.4 MiB here, where a
    # whole fine mass grid and the dense products peaked at 54 MiB
    rng = philox(25, 0)
    z = rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000)
    assert _traced_peak(lambda: kde2d(z)) <= 20 * 2**20


def test_exact_paths_memory_bounded():
    # the shared reach-limited sum holds a sort index and sorted copies of
    # the samples, the output and one block of at most 256 KiB per axis:
    # 4.6 MiB for the 1-d fallback and 2.7 MiB for the 2-d exact sum, where
    # full-width kernel matrices of 2^20 entries peaked at 9.5 and 16.6 MiB
    rng = philox(25, 1)
    x = rng.standard_normal(100_000)
    assert _traced_peak(lambda: kde2d(x + 0j)) <= 6 * 2**20
    z = x + 1j * rng.standard_normal(100_000)
    assert _traced_peak(lambda: kde2d(z, bandwidth=(1e-4, 1e-4))) <= 6 * 2**20


def test_gaussian_sums_match_brute_force():
    # unsorted samples, a cluster of 2000 beyond the reach of every node
    # (so at least one block touches no node), and a one-node y axis
    rng = philox(32, 0)
    xs = np.concatenate([rng.standard_normal(3000), 30.0 + rng.standard_normal(2000)])
    ys = rng.standard_normal(xs.shape[0])
    order = rng.permutation(xs.shape[0])
    xs, ys = xs[order], ys[order]
    x_nodes = np.linspace(-4.0, 4.0, 57)
    hx, hy = 0.3, 0.5

    def brute(y_nodes, cut, drop):
        fx = np.exp(np.maximum(-0.5 * ((x_nodes[:, None] - xs) / hx) ** 2, -2.0 * cut))
        fy = np.exp(np.maximum(-0.5 * ((y_nodes[:, None] - ys) / hy) ** 2, -2.0 * cut))
        if drop:  # the terms of every sample farther than the reach from the node
            fx[np.abs(x_nodes[:, None] - xs) > math.sqrt(2.0 * cut) * hx] = 0.0
        return fx @ fy.T

    for y_nodes in (np.linspace(-3.0, 3.0, 40), np.zeros(1)):
        sums = _gaussian_sums(xs, ys, x_nodes, y_nodes, hx, hy, 40.5)
        assert sums.shape == (57, y_nodes.shape[0])
        ref = brute(y_nodes, 40.5, True)
        assert np.abs(sums - ref).max() <= 1e-13 * ref.max()
        # at a cut of 2 (a reach of 2 h) the dropped terms are visible: the
        # sum lies between the brute-force sum with and without them
        sums = _gaussian_sums(xs, ys, x_nodes, y_nodes, hx, hy, 2.0)
        low, high = brute(y_nodes, 2.0, True), brute(y_nodes, 2.0, False)
        assert (high - low).max() > 0.1
        assert (sums >= low * (1 - 1e-13)).all() and (sums <= high * (1 + 1e-13)).all()
    # a block beyond the reach of every node adds nothing
    far = _gaussian_sums(xs[xs > 20.0], ys[xs > 20.0], x_nodes, np.zeros(1), hx, hy, 40.5)
    assert not far.any()


def test_density_files_do_not_depend_on_blas_threads(tmp_path):
    # the dense binned product K_x @ W went through OpenBLAS above its
    # single-thread size, so at 10^5 samples its last bits followed the
    # thread count, which follows the affinity mask
    rng = philox(29, 0)
    pools = {"binned": rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000),
             "exact": rng.standard_normal(1000) + 1j * rng.standard_normal(1000),
             "line": rng.standard_normal(3000) + 0j}
    for name, z in pools.items():
        io.write_pool_csv(tmp_path / f"{name}.csv", SamplePool(0, z, 29, "test"))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        (tmp_path / threads).mkdir()
        for name in pools:
            subprocess.run([sys.executable, "-m", "smoothfix.cli", "density", "--pool",
                            f"../{name}.csv", "--out", f"{name}_density.csv"],
                           cwd=tmp_path / threads, env=env, capture_output=True, check=True)
        outputs.append({p.name: p.read_bytes() for p in sorted((tmp_path / threads).iterdir())})
    assert len(outputs[0]) == 2 * len(pools)
    assert outputs[0] == outputs[1]
