"""Population-dynamics iteration: streams, preservation laws, summaries."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from smoothfix import BigginsBinary, CyclicPolya, Tabular, io, popdyn
from smoothfix.popdyn import PoolOverflowError, init_pool, iterate, run
from smoothfix.rng import BLOCK, DOMAIN_POPDYN, padded_width, philox

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_init_pool_validation():
    with pytest.raises(ValueError):
        init_pool(1)
    pool = init_pool(5, 2.0 + 1.0j)
    assert pool.generation == 0
    assert (pool.samples == 2.0 + 1.0j).all()
    assert init_pool(np.int64(5)).n == 5


@pytest.mark.parametrize("n", [2.9, 5.0, np.float64(5.0), True, "5"], ids=repr)
def test_pool_size_must_be_an_integer(n):
    # a pool size that is not an integer is rejected, not truncated
    with pytest.raises(ValueError, match="pool size must be an integer"):
        init_pool(n)
    with pytest.raises(ValueError, match="pool size must be an integer"):
        run(CyclicPolya(8), n=n, K=1, seed=1)


def test_iterate_needs_a_seeded_pool():
    with pytest.raises(ValueError, match="seeded pool"):
        iterate(init_pool(100), CyclicPolya(8))


def test_run_requires_at_least_one_generation():
    with pytest.raises(ValueError, match="K >= 1"):
        run(CyclicPolya(8), n=100, K=0, seed=1)


def test_run_deterministic():
    a = run(CyclicPolya(8), n=500, K=10, seed=3)
    b = run(CyclicPolya(8), n=500, K=10, seed=3)
    assert np.array_equal(a.pool.samples, b.pool.samples)
    assert a.summaries == b.summaries


def test_iterate_chunk_size_does_not_change_results(monkeypatch):
    model = BigginsBinary(1.0 + 0.5j)
    pool = init_pool(257, 1.0, seed=9)
    monkeypatch.setattr(popdyn, "_CHUNK_ROWS", 7)
    out1 = iterate(pool, model)
    monkeypatch.setattr(popdyn, "_CHUNK_ROWS", 100_000)
    out2 = iterate(pool, model)
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


def test_run_extends_reproducibly():
    # a shorter run is a prefix of a longer one, and iterating its pool
    # reproduces the longer run's pool
    model, seed = CyclicPolya(8), 5
    short = run(model, n=300, K=4, seed=seed)
    long = run(model, n=300, K=10, seed=seed)
    assert short.summaries == long.summaries[:5]
    pool = short.pool
    for _ in range(5, 11):
        pool = iterate(pool, model)
    assert pool.generation == 10
    assert pool.samples.tobytes() == long.pool.samples.tobytes()


@pytest.mark.parametrize("n", [5000, 70_000])
@pytest.mark.parametrize("model", [CyclicPolya(8), BigginsBinary(1.0 + 0.5j),
                                   Tabular([(0.5, (0.9,)), (0.5, (0.25, 0.25, 0.25, 0.25, 0.1))])],
                         ids=lambda m: m.kind)
def test_pool_read_back_from_disk_continues_like_a_longer_run(tmp_path, model, n):
    # the meta keeps seed and generation, so the next generation's stream
    # is the one a longer run takes
    path = io.write_pool_csv(tmp_path / "pool.csv", run(model, n, K=3, seed=7).pool)
    pool = iterate(io.read_pool_csv(path), model)
    longer = run(model, n, K=4, seed=7).pool
    assert (pool.generation, pool.seed) == (4, 7)
    assert pool.samples.tobytes() == longer.samples.tobytes()


def test_overflow_identifies_index_and_draw():
    model = Tabular([(1.0, (10.0,))])
    pool = init_pool(8, 1e308, seed=0)
    with pytest.raises(PoolOverflowError) as info:
        iterate(pool, model)
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
    n = z.shape[0]  # the GenerationSummary docstring's second moment
    assert np.mean(np.abs(z) ** 2) == pytest.approx(s.spread**2 * (n - 1) / n + abs(s.mean) ** 2)


def test_run_does_not_import_analysis():
    # popdyn sits below analysis: a run neither imports it nor locates alpha
    code = ("import sys\n"
            "from smoothfix import CyclicPolya, popdyn\n"
            "popdyn.run(CyclicPolya(8), n=100, K=2, seed=1)\n"
            "print('smoothfix.analysis' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout == "False\n"


def test_threads_only_while_a_generation_runs():
    # importing starts no thread, and a run on two workers leaves none behind
    code = ("import threading\n"
            "from smoothfix import CyclicPolya, fourier, popdyn\n"
            "print(threading.active_count())\n"
            "popdyn._workers = lambda: 2\n"
            "popdyn.run(CyclicPolya(8), n=40_000, K=2, seed=1)\n"
            "print(threading.active_count())\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout == "1\n1\n"


def test_mixed_offspring_counts():
    # mean-one mixed-arity law: 0.5 * 0.9 + 0.5 * (4 * 0.25 + 0.1) = 1
    model = Tabular([(0.5, (0.9,)), (0.5, (0.25, 0.25, 0.25, 0.25, 0.1))])
    result = run(model, n=1000, K=10, seed=2)
    assert np.isfinite(result.pool.samples).all()
    assert abs(result.summaries[-1].mean - 1.0) <= 4.0 * result.summaries[-1].mean_se


def _reduceat_generation(pool, model, rng):
    """One generation of at most _CHUNK_ROWS outputs, every row summed by np.add.reduceat."""
    n = pool.n
    budget, max_c = model.uniform_budget, model.max_children
    u = rng.random((n, padded_width(budget + max_c)))
    values, counts = model.weights_from_uniforms(u[:, :budget])
    iu = u[:, budget : budget + max_c][np.arange(max_c) < counts[:, None]]
    idx = np.minimum((iu * n).astype(np.int64), n - 1)
    offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
    with np.errstate(over="ignore", invalid="ignore"):
        return values, np.add.reduceat(values * pool.samples[idx], offsets)


def test_pair_sum_matches_reduceat_bits():
    """Rows of two children are summed column-wise, to the bits of reduceat,
    signed zeros from exact cancellation included."""
    rng = np.random.default_rng(8)
    zeros = np.array([0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0)])
    samples = np.concatenate([zeros.repeat(100), rng.standard_normal(600) * 1e5 ** rng.random(600)])
    pool = popdyn.SamplePool(0, samples + 0j, 2, "")
    cancelling = Tabular([(0.5, (1.0, -1.0)), (0.5, (1j, -1j))])
    for model in (CyclicPolya(8), BigginsBinary(1.0 + 0.5j), cancelling):
        out = iterate(pool, model)
        _, expected = _reduceat_generation(pool, model, philox(2, DOMAIN_POPDYN, 1))
        assert out.samples.tobytes() == expected.tobytes()


def test_pair_sum_overflow_names_the_reduceat_row_and_draw():
    model = Tabular([(0.5, (1.0, 1.0)), (0.5, (1.0, -1.0))])
    samples = np.where(np.arange(64) % 2 == 0, 1e308, 1.0).astype(np.complex128)
    pool = popdyn.SamplePool(0, samples, 5, "")
    values, expected = _reduceat_generation(pool, model, philox(5, DOMAIN_POPDYN, 1))
    row = int(np.flatnonzero(~np.isfinite(expected))[0])
    with pytest.raises(PoolOverflowError) as info:
        iterate(pool, model)
    assert info.value.index == row
    assert info.value.weights == tuple(complex(v) for v in values[2 * row : 2 * row + 2])


# sha256 prefixes of run(model, n, K=2, seed=3): pool bytes, then the repr of
# the summaries, recorded with the serial chunk loop that preceded worker blocks
_RAGGED = Tabular([(0.3, (0.8 + 0.3j,)), (0.3, (0.5 + 0.2j, 0.45 - 0.1j)),
                   (0.4, (0.35, 0.3 + 0.25j, 0.25 - 0.2j))])
_DIGEST_MODELS = {"polya": CyclicPolya(8), "biggins": BigginsBinary(1.0 + 0.5j), "ragged": _RAGGED}
_RUN_DIGESTS = {
    ("polya", 2): "c927a0e3c9bded49",
    ("polya", 5): "77d961001cf21fb3",
    ("polya", 2000): "0c1b3fd6dd5863a1",
    ("polya", 16383): "e7f2c163e1db1575",
    ("polya", 16384): "1ebb31e04ee4164b",
    ("polya", 32768): "cf8c4b596d3b82b7",
    ("polya", 34464): "7ecd63f249414544",
    ("polya", 65537): "20c7f73441aae76e",
    ("polya", 100000): "03fe771c1d16c604",
    ("polya", 131073): "07e118615ac97636",
    ("biggins", 2): "be1b7f79c438ded2",
    ("biggins", 5): "c87bd98aae78d750",
    ("biggins", 2000): "40657c9f654bd8fe",
    ("biggins", 16383): "a3a41195ac7fa577",
    ("biggins", 16384): "f0b440ebf199e05b",
    ("biggins", 32768): "4084bd7143594869",
    ("biggins", 34464): "8c32d89abddb0fae",
    ("biggins", 65537): "94a4eb2da30d09e3",
    ("biggins", 100000): "d63a52a69482b385",
    ("biggins", 131073): "52d7137ccfa1abac",
    ("ragged", 2): "dcb7adb465258e52",
    ("ragged", 5): "55e431f904882009",
    ("ragged", 2000): "19c403e46bdae431",
    ("ragged", 16383): "39349c6d8f468d9a",
    ("ragged", 16384): "3038e91e3c36748b",
    ("ragged", 32768): "1c40a318c9c5638f",
    ("ragged", 34464): "57096b9734f27d8f",
    ("ragged", 65537): "642f7a09f1c22382",
    ("ragged", 100000): "1de3d77a3274a626",
    ("ragged", 131073): "7268fa4af8a1e82d",
}


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_pools_bit_identical_for_every_worker_count(monkeypatch, workers):
    # up to more workers than cores (_workers is stubbed) and frequent
    # thread switches, so a block taken twice or lost would show
    monkeypatch.setattr(popdyn, "_workers", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for (name, n), expected in _RUN_DIGESTS.items():
            result = run(_DIGEST_MODELS[name], n=n, K=2, seed=3)
            data = result.pool.samples.tobytes() + repr(result.summaries).encode()
            assert hashlib.sha256(data).hexdigest()[:16] == expected, (name, n)
    finally:
        sys.setswitchinterval(interval)


def test_blocks_cut_chunks_at_fixed_edges():
    blocks = popdyn._blocks(100_000)
    assert blocks == [(0, 16384), (16384, 32768), (32768, 49152), (49152, 65536),
                      (65536, 82768), (82768, 100000)]
    assert popdyn._blocks(32767) == [(0, 32767)]  # under 2^15 rows a chunk stays whole
    assert popdyn._blocks(5) == [(0, 5)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_overflow_in_two_blocks_names_the_lowest_row(monkeypatch, workers):
    """Blocks 1 and 2 both overflow; with two workers they run on different
    threads, and the error names the lower row, as the serial loop did."""
    monkeypatch.setattr(popdyn, "_workers", lambda: workers)
    model = Tabular([(1.0, (10.0,))])
    n, rows = 1 << 16, popdyn._BLOCK_ROWS
    u = philox(6, DOMAIN_POPDYN, 1).random((n, padded_width(2)))
    ancestor = np.minimum((u[:, 1] * n).astype(np.int64), n - 1)
    samples = np.ones(n, dtype=np.complex128)
    # an ancestor that no row of an earlier block picks, for one row of blocks 1 and 2
    for block in (1, 2):
        picked_before = set(ancestor[: block * rows].tolist())
        row = next(r for r in range(block * rows, (block + 1) * rows)
                   if ancestor[r] not in picked_before)
        samples[ancestor[row]] = 1e308
    pool = popdyn.SamplePool(0, samples, 6, "")
    _, expected = _reduceat_generation(pool, model, philox(6, DOMAIN_POPDYN, 1))
    bad = np.flatnonzero(~np.isfinite(expected))
    assert bad[0] // rows == 1 and (bad // rows == 2).any()
    with pytest.raises(PoolOverflowError) as info:
        iterate(pool, model)
    assert info.value.index == bad[0]
    assert info.value.weights == (10.0 + 0j,)


def test_run_memory_is_two_pools_and_per_worker_buffers(monkeypatch):
    """tracemalloc peak of run: the two pools of a generation (32 bytes per
    sample) plus each worker's buffers and weight-map temporaries for one
    block, under 80 bytes per sample at n = 2.5e5 with two workers (the
    chunk-at-a-time loop took 93-116); a second run peaks no higher and
    leaves nothing behind."""
    monkeypatch.setattr(popdyn, "_workers", lambda: 2)
    n = 250_000
    readme = Tabular([(0.5, (0.9,)), (0.5, (0.25, 0.25, 0.25, 0.25, 0.1))])
    for model in (CyclicPolya(8), readme):
        tracemalloc.start()
        try:
            for _ in range(2):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run(model, n=n, K=3, seed=1)
                after, peak = tracemalloc.get_traced_memory()
                assert peak - before < 80 * n, model
                assert after - before < 1 << 16, model
        finally:
            tracemalloc.stop()
