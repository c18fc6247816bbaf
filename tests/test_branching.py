"""Branching-tree trajectories and martingale mean estimation."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from smoothfix import BigginsBinary, CyclicPolya, Tabular
from smoothfix.analysis import find_alpha
from smoothfix.branching import (
    _BLOCK_ROWS,
    _ELIDE_ROWS,
    _replica_totals,
    estimate_martingale_mean,
)
from smoothfix.popdyn import run
from smoothfix.rng import philox

ALPHA8 = math.sqrt(2.0)
DESK_TABULAR = Tabular([(0.5, (0.9,)), (0.5, (0.25, 0.25, 0.25, 0.25, 0.1))])  # E[N] = 3
WIDE_TABULAR = Tabular([(0.5, (0.5,)), (0.5, (0.05,) * 20)])  # E[N] = 10.5
SKEWED_TABULAR = Tabular([(0.9, (0.5,)), (0.1, (0.3,) * 10)])  # E[N] = 1.9, E[N]^2 < 10


def _final_totals(model, alpha, depth, reps, rng):
    """Per-replica (W_depth, Z_depth) from the branching generator."""
    *_, (n, totals) = _replica_totals(model, alpha, depth, reps, rng, 10_000_000)
    assert n == depth and totals is not None
    w, zr, zi, _ = totals
    return w, zr + 1j * zi


# -- reference: whole-generation lines with an owner array per node ---------

def _reference_children(model, rng, rows, node_budget):
    if rows * model.max_children <= node_budget:
        return model.draw_batch(rng, rows)
    blocks, total = [], 0
    for start in range(0, rows, _BLOCK_ROWS):
        values, counts = model.draw_batch(rng, min(_BLOCK_ROWS, rows - start))
        total += int(counts.sum())
        if total > node_budget:
            return None
        blocks.append((values, counts))
    values, counts = zip(*blocks)
    return np.concatenate(values), np.concatenate(counts)


def _reference_means(model, alpha, depth, reps, rng, node_budget):
    """estimate_martingale_mean over whole generations, each reduced with one
    np.bincount per total over a per-node owner array."""
    line = np.ones(reps, dtype=np.complex128)
    owner = np.arange(reps)
    depths, mean_w, se_w, mean_z, se_z, nodes = [0], [1.0], [0.0], [1.0 + 0j], [0.0], [1.0]
    truncated_at = None
    for n in range(1, depth + 1):
        drawn = _reference_children(model, rng, line.shape[0], node_budget)
        if drawn is None:
            truncated_at = n
            break
        values, counts = drawn
        line = np.repeat(line, counts) * values
        owner = np.repeat(owner, counts)
        w = np.bincount(owner, weights=np.abs(line) ** alpha, minlength=reps)
        zr = np.bincount(owner, weights=line.real, minlength=reps)
        zi = np.bincount(owner, weights=line.imag, minlength=reps)
        count = np.bincount(owner, minlength=reps)
        depths.append(n)
        mean_w.append(float(w.mean()))
        se_w.append(float(w.std(ddof=1) / math.sqrt(reps)))
        mean_z.append(complex(zr.mean() + 1j * zi.mean()))
        se_z.append(float(math.hypot(zr.std(ddof=1), zi.std(ddof=1)) / math.sqrt(reps)))
        nodes.append(float(count.mean()))
    arrays = {"depths": np.array(depths), "mean_w": np.array(mean_w), "se_w": np.array(se_w),
              "mean_z": np.array(mean_z, dtype=np.complex128), "se_z": np.array(se_z),
              "node_count_mean": np.array(nodes)}
    return arrays, truncated_at


def test_estimate_requires_enough_reps():
    with pytest.raises(ValueError, match="30"):
        estimate_martingale_mean(CyclicPolya(8), ALPHA8, 3, 10, philox(0, 0))


def test_estimate_rejects_negative_depth():
    with pytest.raises(ValueError, match="depth must be at least 0, got -1"):
        estimate_martingale_mean(CyclicPolya(8), ALPHA8, -1, 50, philox(0, 0))
    means = estimate_martingale_mean(CyclicPolya(8), ALPHA8, 0, 50, philox(0, 0))
    assert means.depths.tolist() == [0]


def test_estimate_rejects_node_budget_below_one():
    for budget in (0, -5):
        with pytest.raises(ValueError, match=f"node budget must be at least 1, got {budget}"):
            estimate_martingale_mean(CyclicPolya(8), ALPHA8, 3, 50, philox(0, 0),
                                     node_budget=budget)


def test_estimate_rejects_non_finite_or_non_positive_alpha():
    for alpha in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            estimate_martingale_mean(CyclicPolya(8), alpha, 3, 50, philox(0, 0))


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
    gens = list(_replica_totals(CyclicPolya(8), ALPHA8, 30, 1, philox(1, 0), 100))
    assert [n for n, _ in gens] == [1, 2, 3, 4, 5, 6, 7]
    assert [totals[3].tolist() for _, totals in gens[:-1]] == [[2], [4], [8], [16], [32], [64]]
    assert gens[-1][1] is None  # 2^7 = 128 > 100


def test_estimate_rejects_reps_over_node_budget():
    """Generation 0 has one node per replica, so the budget bounds it too."""
    with pytest.raises(ValueError, match="50 replicas exceed the node budget of 49"):
        estimate_martingale_mean(CyclicPolya(8), ALPHA8, 3, 50, philox(0, 0), node_budget=49)
    means = estimate_martingale_mean(CyclicPolya(8), ALPHA8, 3, 50, philox(0, 0), node_budget=50)
    assert means.truncated_at == 1


def test_batch_truncation_flag():
    means = estimate_martingale_mean(CyclicPolya(8), ALPHA8, 20, 100, philox(1, 0),
                                     node_budget=2000)
    assert means.truncated
    assert means.truncated_at == 5  # 100 * 2^5 = 3200 > 2000
    assert means.depths[-1] == means.truncated_at - 1


def test_node_budget_bounds_memory():
    """The generation that crosses the budget is abandoned block by block,
    not drawn in full: peak memory stays below its weights alone."""
    model = Tabular([(0.5, (0.5,)), (0.5, (0.05,) * 20)])  # E[N] = 10.5
    reps = 3000
    tracemalloc.start()
    try:
        means = estimate_martingale_mean(model, 1.0, 8, reps, philox(0, 0),
                                         node_budget=400_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert means.truncated_at == 3
    crossing = means.node_count_mean[-1] * reps * 10.5  # expected children of generation 3
    assert peak < crossing * np.dtype(np.complex128).itemsize


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


@pytest.mark.parametrize("model, depth, reps, node_budget", [
    pytest.param(BigginsBinary(complex(0.7071, 0.7071)), 8, 1000, 10_000_000, id="desk-rect"),
    pytest.param(BigginsBinary(cmath.rect(2.15, 0.2732)), 8, 1000, 10_000_000, id="desk-polar"),
    pytest.param(CyclicPolya(8), 8, 1000, 10_000_000, id="desk-polya8"),
    pytest.param(DESK_TABULAR, 6, 1000, 10_000_000, id="desk-tabular"),
    pytest.param(DESK_TABULAR, 8, 300, 200_000, id="tabular-crosses-kept"),
    pytest.param(DESK_TABULAR, 6, 300, 100_000, id="tabular-crosses-final"),
    # replicas of 20-child nodes straddle the draw blocks
    pytest.param(WIDE_TABULAR, 8, 3000, 400_000, id="wide-crosses"),
    pytest.param(WIDE_TABULAR, 3, 3000, 10_000_000, id="wide"),
    # draws of 66000 and 70000 rows: the short tail joins the block before it
    pytest.param(CyclicPolya(8), 2, 66_000, 10_000_000, id="polya-66000"),
    pytest.param(CyclicPolya(8), 4, 70_000, 600_000, id="polya-70000"),
    pytest.param(DESK_TABULAR, 0, 100, 10_000_000, id="depth-0"),
    # generation 4 crosses, counted ahead while generation 3 could not cross
    pytest.param(DESK_TABULAR, 5, 1000, 63_000, id="tabular-next-crosses"),
    # the desk tabular config at depth 7, at a tenth of its replicas and
    # budget: the crossing generation is the final one
    pytest.param(DESK_TABULAR, 7, 1000, 1_000_000, id="tabular-crosses-at-depth"),
    # generations 3 and 4 are counted ahead, fit, and are grown from that count
    pytest.param(SKEWED_TABULAR, 12, 1000, 20_000, id="skewed-ahead-reused"),
    # the desk tabular config at depth 6, scaled the same way: the final
    # generation is counted ahead
    pytest.param(DESK_TABULAR, 6, 1000, 1_000_000, id="tabular-final-ahead"),
    # generation 5 has exactly the budget's 3200 nodes
    pytest.param(CyclicPolya(8), 8, 100, 3200, id="polya-exact-budget"),
])
def test_streamed_generations_match_whole_generations(model, depth, reps, node_budget):
    """Every byte of the estimate, and the generator's final state, equal those
    of whole-generation lines reduced through a per-node owner array."""
    alpha = find_alpha(model).alpha
    rng, ref_rng = philox(5, 2, 0), philox(5, 2, 0)
    means = estimate_martingale_mean(model, alpha, depth, reps, rng, node_budget=node_budget)
    ref, ref_truncated_at = _reference_means(model, alpha, depth, reps, ref_rng, node_budget)
    for name, arr in ref.items():
        assert getattr(means, name).tobytes() == arr.tobytes(), name
    assert means.truncated_at == ref_truncated_at
    assert means.truncated == (ref_truncated_at is not None)
    assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)


@pytest.mark.parametrize("model, depth, reps", [
    # replicas of about 245 parents straddle the block boundaries of generation 6
    pytest.param(DESK_TABULAR, 6, 1000, id="desk-tabular"),
    # replica 0's 158969 parents span two whole blocks of generation 12
    pytest.param(DESK_TABULAR, 12, 2, id="desk-2-replicas"),
    # one replica's 2^18 parents span four blocks of the elided class
    pytest.param(CyclicPolya(8), 19, 1, id="polya-1-replica"),
    # one replica's parents, of up to 20 children each, span five blocks
    pytest.param(WIDE_TABULAR, 8, 1, id="wide-1-replica"),
])
def test_replica_totals_match_whole_generation_bincounts(model, depth, reps):
    """Every replica's totals, in every generation, have the bytes of one
    np.bincount over the whole generation, however the blocks split it."""
    alpha = find_alpha(model).alpha
    generations = list(_replica_totals(model, alpha, depth, reps, philox(5, 2, 0), 10_000_000))
    assert [n for n, _ in generations] == list(range(1, depth + 1))
    rng = philox(5, 2, 0)
    line, owner = np.ones(reps, dtype=np.complex128), np.arange(reps)
    for _, totals in generations:
        values, counts = model.draw_batch(rng, line.shape[0])
        line = np.repeat(line, counts) * values
        owner = np.repeat(owner, counts)
        expected = (np.bincount(owner, weights=np.abs(line) ** alpha, minlength=reps),
                    np.bincount(owner, weights=line.real, minlength=reps),
                    np.bincount(owner, weights=line.imag, minlength=reps),
                    np.bincount(owner, minlength=reps))
        for got, want in zip(totals, expected):
            assert got.tobytes() == want.tobytes()


def test_memory_is_two_generations():
    """Peak memory is about 16 bytes per node of two consecutive generations,
    well below whole-generation lines with an owner array and temporaries."""
    reps, depth = 2000, 6
    alpha = find_alpha(DESK_TABULAR).alpha
    tracemalloc.start()
    try:
        means = estimate_martingale_mean(DESK_TABULAR, alpha, depth, reps, philox(0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not means.truncated
    counts = means.node_count_mean * reps
    pair = float((counts[1:] + counts[:-1]).max())
    block = _BLOCK_ROWS * DESK_TABULAR.max_children * np.dtype(np.complex128).itemsize
    assert peak < 2 * 16 * pair + block


def test_memory_of_one_replica_is_two_generations():
    """A replica that spans many blocks is continued from its running totals:
    peak memory is about 16 bytes per node of the last two generations."""
    depth = 20
    tracemalloc.start()
    try:
        *_, (n, totals) = _replica_totals(CyclicPolya(8), ALPHA8, depth, 1, philox(0, 0),
                                          10_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == depth and totals[3].tolist() == [2 ** depth]
    block = _BLOCK_ROWS * CyclicPolya(8).max_children * np.dtype(np.complex128).itemsize
    assert peak < 2 * 16 * (2 ** (depth - 1) + 2 ** depth) + block


def test_parent_of_crossing_generation_not_stored():
    """When generation n + 1 crosses the budget, generation n is grown without
    being stored: peak memory is 16 bytes per node of the largest two
    consecutive generations that have children, plus one draw's arrays."""
    reps, depth, budget = 10_000, 8, 5_000_000
    alpha = find_alpha(DESK_TABULAR).alpha
    tracemalloc.start()
    try:
        means = estimate_martingale_mean(DESK_TABULAR, alpha, depth, reps, philox(0, 0),
                                         node_budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert means.truncated_at == 6
    parents = means.node_count_mean[:-1] * reps  # generation 5's children crossed
    pair = float((parents[1:] + parents[:-1]).max())
    # one draw of at most _BLOCK_ROWS + _ELIDE_ROWS parents holds, per child
    # slot, a weight and a product (16 bytes each), a replica index and a
    # magnitude (8 bytes each)
    block = (_BLOCK_ROWS + _ELIDE_ROWS) * DESK_TABULAR.max_children * 48
    assert peak < 16 * pair + block
