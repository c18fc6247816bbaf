"""Population-dynamics iteration: streams, preservation laws, summaries."""

import math

import numpy as np
import pytest

from smoothfix import BigginsBinary, CyclicPolya, Tabular, popdyn
from smoothfix.popdyn import PoolOverflowError, init_pool, iterate, run
from smoothfix.rng import BLOCK, DOMAIN_POPDYN, padded_width, philox


def test_init_pool_validation():
    with pytest.raises(ValueError):
        init_pool(1)
    pool = init_pool(5, 2.0 + 1.0j)
    assert pool.generation == 0
    assert (pool.samples == 2.0 + 1.0j).all()


def test_run_requires_at_least_one_generation():
    with pytest.raises(ValueError, match="K >= 1"):
        run(CyclicPolya(8), n=100, K=0, seed=1)


def test_run_rejects_non_finite_or_non_positive_p():
    for p in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="p must be finite and positive"):
            run(CyclicPolya(8), n=100, K=1, seed=1, p=p)


def test_run_deterministic():
    a = run(CyclicPolya(8), n=500, K=10, seed=3)
    b = run(CyclicPolya(8), n=500, K=10, seed=3)
    assert np.array_equal(a.pool.samples, b.pool.samples)
    assert a.summaries == b.summaries


def test_iterate_chunk_size_does_not_change_results(monkeypatch):
    model = BigginsBinary(1.0 + 0.5j)
    pool = init_pool(257, 1.0)
    monkeypatch.setattr(popdyn, "_CHUNK_ROWS", 7)
    out1 = iterate(pool, model, philox(9, DOMAIN_POPDYN, 1))
    monkeypatch.setattr(popdyn, "_CHUNK_ROWS", 100_000)
    out2 = iterate(pool, model, philox(9, DOMAIN_POPDYN, 1))
    assert np.array_equal(out1.samples, out2.samples)


def test_single_output_recomputable_from_its_counter_block():
    """Row i of the generation-k uniform table fully determines output i,
    for equal offspring counts and for ragged ones of 1, 2 and 3 children."""
    mixed = Tabular([(0.3, (0.8 + 0.3j,)), (0.3, (0.5 + 0.2j, 0.45 - 0.1j)),
                     (0.4, (0.35, 0.3 + 0.25j, 0.25 - 0.2j))])
    n, k, seed = 400, 3, 21
    for model in (CyclicPolya(8), mixed):
        result = run(model, n=n, K=k, seed=seed)
        prev = run(model, n=n, K=k - 1, seed=seed).pool.samples
        budget = model.uniform_budget
        width = padded_width(budget + model.max_children)
        arities = set()
        for i in range(n):
            bits = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(DOMAIN_POPDYN, k)))
            bits.advance(i * width // BLOCK)
            row = np.random.Generator(bits).random((1, width))
            values, counts = model.weights_from_uniforms(row[:, :budget])
            iu = row[0, budget : budget + int(counts[0])]
            idx = np.minimum((iu * n).astype(np.int64), n - 1)
            # summed by reduceat as in iterate; np.add.reduce orders three terms differently
            recomputed = np.add.reduceat(values * prev[idx], [0])
            assert recomputed.tobytes() == result.pool.samples[i : i + 1].tobytes()
            arities.add(int(counts[0]))
        assert arities == ({2} if model.kind == "polya" else {1, 2, 3})


def test_scale_equivariance_exact():
    a = run(CyclicPolya(8), n=1000, K=15, seed=4, init_value=1.0)
    b = run(CyclicPolya(8), n=1000, K=15, seed=4, init_value=2.0)
    assert np.array_equal(b.pool.samples, 2.0 * a.pool.samples)


def test_mean_preserved_within_accumulated_se():
    result = run(CyclicPolya(8), n=4000, K=30, seed=1)
    for s in result.summaries[1:]:
        assert abs(s.mean - 1.0) <= 4.0 * s.mean_se
    assert result.summaries[0].mean == 1.0
    assert result.summaries[0].mean_se == 0.0


def test_p_moment_defaults_and_stabilizes():
    result = run(CyclicPolya(8), n=4000, K=30, seed=1)
    assert result.p == pytest.approx(math.sqrt(2.0) - 0.1, abs=1e-6)
    tail = [s.p_moment for s in result.summaries[-10:]]
    for prev, cur in zip(tail, tail[1:]):
        assert abs(cur - prev) <= 0.10 * abs(prev)


def test_default_p_for_model_without_exponent():
    result = run(CyclicPolya(4), n=200, K=3, seed=0)  # m(s) = 2: no root
    assert result.p == 1.0


def test_run_extends_reproducibly():
    # a shorter run is a prefix of a longer one, and iterating its pool on
    # the later generations' streams reproduces the longer run's pool
    model, seed = CyclicPolya(8), 5
    short = run(model, n=300, K=4, seed=seed)
    long = run(model, n=300, K=10, seed=seed)
    assert short.summaries == long.summaries[:5]
    pool = short.pool
    for k in range(5, 11):
        pool = iterate(pool, model, philox(seed, DOMAIN_POPDYN, k))
    assert pool.generation == 10
    assert pool.samples.tobytes() == long.pool.samples.tobytes()


def test_overflow_identifies_index_and_draw():
    model = Tabular([(1.0, (10.0,))])
    pool = init_pool(8, 1e308)
    with pytest.raises(PoolOverflowError) as info:
        iterate(pool, model, philox(0, DOMAIN_POPDYN, 1))
    err = info.value
    assert err.generation == 1
    assert 0 <= err.index < 8
    assert err.weights == (10.0 + 0j,)
    assert str(err.index) in str(err)


def test_summary_fields_consistent():
    result = run(BigginsBinary(1.0 + 0.3j), n=2000, K=8, seed=6)
    s = result.summaries[-1]
    z = result.pool.samples
    assert s.generation == 8
    assert s.mean == complex(z.mean())
    assert s.spread == pytest.approx(math.sqrt(z.real.var(ddof=1) + z.imag.var(ddof=1)))
    assert s.im_dispersion == pytest.approx(z.imag.std(ddof=1))
    assert s.p_moment == pytest.approx(float(np.mean(np.abs(z) ** result.p)))


def test_mixed_offspring_counts():
    # mean-one mixed-arity law: 0.5 * 0.9 + 0.5 * (4 * 0.25 + 0.1) = 1
    model = Tabular([(0.5, (0.9,)), (0.5, (0.25, 0.25, 0.25, 0.25, 0.1))])
    result = run(model, n=1000, K=10, seed=2)
    assert np.isfinite(result.pool.samples).all()
    assert abs(result.summaries[-1].mean - 1.0) <= 4.0 * result.summaries[-1].mean_se
