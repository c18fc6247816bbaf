"""CSV writers against np.savetxt, the per-row formatter they replace."""

import json
import tracemalloc

import numpy as np
import pytest

from smoothfix import CyclicPolya, io
from smoothfix.branching import MartingaleMeans
from smoothfix.density import DensityGrid, DensityLine
from smoothfix.fourier import PolarGrid
from smoothfix.popdyn import SamplePool, run

SPECIALS = np.array([-0.0, 5e-324, 1e308, -1e308, 0.0, 3.0, -7.0, 2.0**53, 1e-300, np.pi])


def _savetxt_bytes(tmp_path, header, columns) -> bytes:
    oracle = tmp_path / "oracle.csv"
    np.savetxt(oracle, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")
    return oracle.read_bytes()


def _floats(rng, n):
    """n floats over 600 decades, with every special value placed in the first rows."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    k = min(n, SPECIALS.size)
    x[:k] = SPECIALS[:k]
    return x


@pytest.mark.parametrize("n", [2, 4095, 4096, 4097, 100_000])
def test_pool_csv_matches_savetxt(tmp_path, n):
    rng = np.random.default_rng(n)
    re, im = _floats(rng, n), _floats(rng, n)[::-1]
    z = np.empty(n, dtype=np.complex128)
    z.real, z.imag = re, im  # re + 1j * im would turn -0.0 real parts into 0.0
    path = io.write_pool_csv(tmp_path / "pool.csv", SamplePool(4, z, 9, "fp"))
    assert path.read_bytes() == _savetxt_bytes(tmp_path, "re,im", (re, im))


@pytest.mark.parametrize("shape", [(7, 5), (256, 256)])
def test_density_grid_csv_matches_savetxt(tmp_path, shape):
    rng = np.random.default_rng(shape[0])
    x, y = _floats(rng, shape[0]), _floats(rng, shape[1])[::-1]
    values = _floats(rng, shape[0] * shape[1]).reshape(shape)
    path = io.write_density_csv(tmp_path / "den.csv", DensityGrid(x, y, values, (0.1, 0.2), 50))
    gx, gy = np.meshgrid(x, y, indexing="ij")
    expected = _savetxt_bytes(tmp_path, "x,y,value", (gx.ravel(), gy.ravel(), values.ravel()))
    assert path.read_bytes() == expected


def test_density_line_csv_matches_savetxt(tmp_path):
    rng = np.random.default_rng(3)
    x, values = _floats(rng, 300), _floats(rng, 300)
    path = io.write_density_csv(tmp_path / "line.csv", DensityLine(x, values, 0.1, 50, "re"))
    assert path.read_bytes() == _savetxt_bytes(tmp_path, "x,value", (x, values))


def test_scan_csv_matches_savetxt(tmp_path):
    rng = np.random.default_rng(4)
    radii, angles = np.abs(_floats(rng, 9)), _floats(rng, 600)
    values = (_floats(rng, 9 * 600) + 1j * rng.standard_normal(9 * 600)).reshape(9, 600)
    stderrs = np.abs(_floats(rng, 9 * 600)).reshape(9, 600)
    path = io.write_scan_csv(tmp_path / "scan.csv", PolarGrid(radii, angles, values, stderrs))
    flat = values.ravel()
    expected = _savetxt_bytes(
        tmp_path, "R,theta,re,im,abs,stderr",
        (np.repeat(radii, 600), np.tile(angles, 9), flat.real, flat.imag, np.abs(flat),
         stderrs.ravel()))
    assert path.read_bytes() == expected


def test_martingale_csv_matches_savetxt(tmp_path):
    rng = np.random.default_rng(5)
    n = 5000
    depths = np.arange(n)
    w, se_w, z_re, z_im, se_z, nodes = (_floats(rng, n) for _ in range(6))
    mean_z = z_re + 1j * z_im
    means = MartingaleMeans(depths, w, se_w, mean_z, se_z, nodes,
                            reps=10, truncated=False, truncated_at=None)
    path = io.write_martingale_csv(tmp_path / "mart.csv", means)
    header = "n,mean_W,se_W,mean_Z_re,mean_Z_im,se_Z,node_count_mean"
    expected = _savetxt_bytes(tmp_path, header,
                              (depths, w, se_w, mean_z.real, mean_z.imag, se_z, nodes))
    assert path.read_bytes() == expected


def test_pool_writer_memory_does_not_grow_with_the_pool(tmp_path):
    # 2.5 * 10^5 samples: tracemalloc makes each float object costly, and a
    # 10^6-sample pool reads the same peak but takes about 10 s on 2 vCPUs
    z = np.random.default_rng(6).standard_normal(500_000).view(np.complex128)
    pool = SamplePool(1, z, 1, "fp")
    tracemalloc.start()
    try:
        io.write_pool_csv(tmp_path / "big.csv", pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # a whole-pool column_stack alone is 4 MB


def test_numpy_integer_seed_pool_writes_and_reads_back(tmp_path):
    pool = run(CyclicPolya(8), n=10, K=1, seed=np.int64(1)).pool
    path = io.write_pool_csv(tmp_path / "p.csv", pool)
    assert json.loads(io.pool_meta_path(path).read_text())["seed"] == 1
    assert io.read_pool_csv(path).seed == 1


def test_unserialisable_pool_meta_writes_no_files(tmp_path):
    pool = SamplePool(0, np.ones(4, dtype=np.complex128), np.int64(1), "fp")
    with pytest.raises(TypeError):
        io.write_pool_csv(tmp_path / "p.csv", pool)
    assert list(tmp_path.iterdir()) == []


META_KEYS = {"generation", "seed", "model_fingerprint", "n", "summaries"}
SUMMARY_KEYS = {"generation", "mean_re", "mean_im", "spread", "mean_se", "im_dispersion"}


def test_pool_meta_schema(tmp_path):
    result = run(CyclicPolya(8), n=50, K=3, seed=2)
    path = io.write_pool_csv(tmp_path / "p.csv", result.pool, result.summaries)
    meta = json.loads(io.pool_meta_path(path).read_text())
    assert set(meta) == META_KEYS
    assert [set(s) for s in meta["summaries"]] == [SUMMARY_KEYS] * 4


def test_pool_meta_with_moment_order_keys_still_loads(tmp_path):
    # metas written before the p-th moment summary was dropped carry "p" and "p_moment"
    result = run(CyclicPolya(8), n=50, K=3, seed=2)
    path = io.write_pool_csv(tmp_path / "p.csv", result.pool, result.summaries)
    meta_path = io.pool_meta_path(path)
    meta = json.loads(meta_path.read_text())
    meta["p"] = 1.3142135623730951
    for s in meta["summaries"]:
        s["p_moment"] = 1.0
    meta_path.write_text(json.dumps(meta))
    pool = io.read_pool_csv(path)
    assert pool.samples.tobytes() == result.pool.samples.tobytes()
    assert (pool.n, pool.generation, pool.seed) == (50, 3, 2)
    assert pool.model_fingerprint == result.pool.model_fingerprint
