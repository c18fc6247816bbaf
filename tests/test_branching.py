"""Branching-tree trajectories and martingale mean estimation."""

import cmath
import math

import numpy as np
import pytest

from smoothfix import BigginsBinary, CyclicPolya
from smoothfix.analysis import find_alpha
from smoothfix.branching import _batched_generations, estimate_martingale_mean
from smoothfix.popdyn import run
from smoothfix.rng import philox

ALPHA8 = math.sqrt(2.0)


def _final_totals(model, alpha, depth, reps, rng):
    """Per-replica (W_depth, Z_depth) from the batched generator."""
    *_, (n, line, owner) = _batched_generations(model, depth, reps, rng, 10_000_000)
    assert n == depth and line is not None
    w = np.bincount(owner, weights=np.abs(line) ** alpha, minlength=reps)
    z = np.bincount(owner, weights=line.real, minlength=reps) + 1j * np.bincount(
        owner, weights=line.imag, minlength=reps
    )
    return w, z


def test_estimate_requires_enough_reps():
    with pytest.raises(ValueError, match="30"):
        estimate_martingale_mean(CyclicPolya(8), ALPHA8, 3, 10, philox(0, 0))


def test_polya_w_martingale_degenerate():
    means = estimate_martingale_mean(CyclicPolya(8), ALPHA8, 6, 500, philox(2, 0))
    assert np.allclose(means.mean_w, 1.0, atol=1e-8)
    assert (means.se_w < 1e-8).all()
    assert np.array_equal(means.node_count_mean, 2.0 ** np.arange(7))
    assert not means.truncated and means.truncated_at is None


def test_biggins_means_hold_at_four_se():
    model = BigginsBinary(cmath.exp(1j * math.pi / 4))
    alpha = find_alpha(model).alpha
    means = estimate_martingale_mean(model, alpha, 6, 2000, philox(3, 0))
    for i in range(1, 7):
        assert abs(means.mean_w[i] - 1.0) <= 4.0 * means.se_w[i] + 1e-8
        assert abs(means.mean_z[i] - 1.0) <= 4.0 * means.se_z[i] + 1e-8
    assert means.mean_z[0] == 1.0 and means.se_z[0] == 0.0


def test_truncation_at_node_cap():
    """A single trajectory stops at the first generation over the node cap."""
    gens = list(_batched_generations(CyclicPolya(8), 30, 1, philox(1, 0), 100))
    assert [n for n, *_ in gens] == [1, 2, 3, 4, 5, 6, 7]
    assert [len(line) for _, line, _ in gens[:-1]] == [2, 4, 8, 16, 32, 64]
    assert gens[-1][1] is None  # 2^7 = 128 > 100


def test_batch_truncation_flag():
    means = estimate_martingale_mean(CyclicPolya(8), ALPHA8, 20, 100, philox(1, 0),
                                     node_budget=2000)
    assert means.truncated
    assert means.truncated_at == 5  # 100 * 2^5 = 3200 > 2000
    assert means.depths[-1] == means.truncated_at - 1


def test_batched_matches_single_trajectory_law():
    """The estimator's means are the means of the per-replica totals of the
    same generator on the same stream."""
    model = BigginsBinary(1.0)
    means = estimate_martingale_mean(model, 1.0, 4, 64, philox(7, 0))
    w, z = _final_totals(model, 1.0, 4, 64, philox(7, 0))
    assert means.mean_w[4] == pytest.approx(float(w.mean()), abs=1e-15)
    assert means.mean_z[4] == pytest.approx(complex(z.mean()), abs=1e-15)


def test_branching_consistent_with_popdyn_moments():
    """Depth-d branching values and a depth-d pool sample the same law:
    first and second absolute moments agree within 4 joint SE."""
    model = CyclicPolya(8)
    depth, reps = 5, 4000
    _, z = _final_totals(model, ALPHA8, depth, reps, philox(11, 0))
    b1, b2 = np.abs(z), np.abs(z) ** 2
    # popdyn side: independent runs give an honest SE for the same moments
    runs = [run(model, n=1000, K=depth, seed=100 + j) for j in range(8)]
    p1 = np.array([np.abs(r.pool.samples).mean() for r in runs])
    p2 = np.array([(np.abs(r.pool.samples) ** 2).mean() for r in runs])
    for bt, pool_vals in ((b1, p1), (b2, p2)):
        se_b = bt.std(ddof=1) / math.sqrt(reps)
        se_p = pool_vals.std(ddof=1) / math.sqrt(len(pool_vals))
        joint = math.hypot(se_b, se_p)
        assert abs(bt.mean() - pool_vals.mean()) <= 4.0 * joint
