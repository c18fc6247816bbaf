"""CSV writers against np.savetxt, the per-row formatter they replace, and pool
reads through the .samples.npy sidecar against the CSV parse."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from smoothfix import BigginsBinary, CyclicPolya, Tabular, io
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


# -- the %.17g kernel against Python's % ---------------------------------------

def _assert_formats_like_percent(tmp_path, values):
    """The one-column CSV of values holds b"%.17g" % v on each line, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = io._savetxt(tmp_path / "values.csv", "v", (values,))
    expected = [b"%.17g" % v for v in values.tolist()]
    if path.read_bytes() != b"v\n" + b"\n".join(expected) + b"\n":
        got = path.read_bytes().split(b"\n")[1:-1]
        bad = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
        pytest.fail(f"{len(got)} lines for {len(expected)} values; first differences "
                    f"{[(values[i], got[i], expected[i]) for i in bad[:5]]}")


def _neighbours(x):
    """x with the next float on either side."""
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


# m / 2^18 for odd m: 18 significant digits, the last a 5, so 17 digits tie
TIES = np.arange(26215, 262144, 2) / 2.0**18


def test_kernel_matches_percent_on_a_million_values(tmp_path):
    rng = np.random.default_rng(28)
    patterns = rng.integers(0, 2**64 - 1, 800_000, dtype=np.uint64, endpoint=True)
    subnormals = rng.integers(1, 2**52, 50_000, dtype=np.uint64)
    powers = _neighbours(10.0 ** np.arange(-323, 309))
    switches = [1e-5, 1e-4, 1e16, 1e17]  # where fixed notation turns scientific
    for _ in range(4):
        switches = _neighbours(switches)
    values = np.concatenate([
        patterns.view(np.float64),
        subnormals.view(np.float64),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, np.finfo(float).max],
        powers, -powers, switches, -switches,
        [9.99999999999999999e-5, 9.99999999999999999e16, 0.99999999999999999],  # round up
        rng.integers(0, 2**53, 50_000, endpoint=True).astype(np.float64), [2.0**53 - 1, 2.0**53],
        TIES, -TIES,
    ])
    assert values.size >= 10**6
    _assert_formats_like_percent(tmp_path, values)


def test_kernel_formats_int64_columns_as_floats(tmp_path):
    depths = np.concatenate([np.arange(1000), [2**53 - 1, 2**53, -(2**31)]]).astype(np.int64)
    _assert_formats_like_percent(tmp_path, depths)


def test_exact_ties_reach_the_fallback():
    # D = round(x 10^(16-e)) is a tie on every row, which the error bound
    # cannot decide, so each row's bytes come from Python's %
    e = np.floor(np.log10(TIES)).astype(np.int64)
    _, tie = io._round17(TIES.copy(), e)
    assert tie.all()
    _, tie = io._round17(np.nextafter(TIES, 1.0), e)
    assert not tie.any()


@pytest.mark.parametrize("x", [1e-14, 1e98, 1e-243, 1e-4, 0.1, 1.0, 1e16, 1e17,
                               np.nextafter(1e16, 0), np.nextafter(1e-4, 1), 5e-324,
                               np.finfo(float).max, 0.3])
def test_exponents_off_by_one_are_settled(x):
    # 1e-14, 1e98 and 1e-243 lie within 5e-18 below a power of ten, so one
    # exponent too low their 17 digits round up to 10^17
    mantissa, exponent = (b"%.16e" % x).split(b"e")
    expected = (int(mantissa.replace(b".", b"")), int(exponent))
    for guess in (expected[1] - 1, expected[1], expected[1] + 1):
        a, e = np.array([x]), np.array([guess])
        d, tie = io._round17(a, e)
        io._settle(a, e, d, tie)
        assert (int(d[0]), int(e[0]), bool(tie[0])) == (*expected, False), guess


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


META_KEYS = {"generation", "seed", "model_fingerprint", "n", "summaries", "csv_sha256",
             "npy_sha256"}
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


# -- the .samples.npy sidecar against the CSV parse ---------------------------

def _special_pool(n) -> SamplePool:
    rng = np.random.default_rng(n)
    z = np.empty(n, dtype=np.complex128)
    z.real, z.imag = _floats(rng, n), _floats(rng, n)[::-1]
    return SamplePool(4, z, 9, "fp")


FAMILIES = {
    "biggins": BigginsBinary(complex(np.cos(np.pi / 4), np.sin(np.pi / 4))),
    "polya": CyclicPolya(8),
    "tabular": Tabular([(0.5, (0.9,)), (0.5, (0.25, 0.25, 0.25, 0.25, 0.1))]),
}


class _ParseSpy:
    """Counts the reader's CSV parses: 0 means the samples came from the sidecar."""

    def __init__(self, monkeypatch):
        self.calls = 0
        parse = io._parse_pool_csv

        def counted(path):
            self.calls += 1
            return parse(path)

        monkeypatch.setattr(io, "_parse_pool_csv", counted)


@pytest.mark.parametrize("case", [2, 4095, 4096, 4097, 100_000, *FAMILIES])
def test_sidecar_read_matches_the_csv_parse(tmp_path, monkeypatch, case):
    if case in FAMILIES:
        pool = run(FAMILIES[case], n=3000, K=3, seed=5).pool
    else:
        pool = _special_pool(case)
    path = io.write_pool_csv(tmp_path / "pool.csv", pool)
    assert io.pool_files(path) == [path, io.pool_meta_path(path), io.pool_samples_path(path)]
    spy = _ParseSpy(monkeypatch)
    via_sidecar = io.read_pool_csv(path)
    assert spy.calls == 0
    io.pool_samples_path(path).unlink()
    via_parse = io.read_pool_csv(path)
    assert spy.calls == 1
    assert via_sidecar.samples.dtype == via_parse.samples.dtype == np.complex128
    assert via_sidecar.samples.tobytes() == via_parse.samples.tobytes()
    assert (via_sidecar.generation, via_sidecar.seed, via_sidecar.model_fingerprint) == (
        via_parse.generation, via_parse.seed, via_parse.model_fingerprint)


def _edit_csv_digit(path):
    text = path.read_text()
    i = text.index("\n") + 1  # first digit of the first sample
    path.write_text(text[:i] + ("2" if text[i] == "1" else "1") + text[i + 1 :])


def _truncate_sidecar(path):
    side = io.pool_samples_path(path)
    side.write_bytes(side.read_bytes()[:-16])


def _corrupt_sidecar(path):
    side = io.pool_samples_path(path)
    data = bytearray(side.read_bytes())
    data[-1] ^= 1
    side.write_bytes(bytes(data))


def _drop_digests(path):
    meta_path = io.pool_meta_path(path)
    meta = json.loads(meta_path.read_text())
    del meta["csv_sha256"], meta["npy_sha256"]
    meta_path.write_text(json.dumps(meta))


STALE = {
    "csv-digit-edited": _edit_csv_digit,
    "sidecar-truncated": _truncate_sidecar,
    "sidecar-corrupted": _corrupt_sidecar,
    "sidecar-deleted": lambda path: io.pool_samples_path(path).unlink(),
    "meta-without-digests": _drop_digests,
    "no-meta": lambda path: io.pool_meta_path(path).unlink(),
}


@pytest.mark.parametrize("stale", STALE)
def test_stale_sidecar_is_never_used(tmp_path, monkeypatch, stale):
    path = io.write_pool_csv(tmp_path / "pool.csv", _special_pool(4097))
    STALE[stale](path)
    spy = _ParseSpy(monkeypatch)
    samples = io.read_pool_csv(path).samples
    assert spy.calls == 1
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert samples.tobytes() == (data[:, 0] + 1j * data[:, 1]).tobytes()


def _set_row(path, row):
    lines = path.read_text().splitlines()
    lines[3] = row  # the third data row, line 4
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("row", ["nan,0", "1,-inf", "1,2,3"])
def test_edited_csv_raises_the_parse_error_with_the_sidecar_present(tmp_path, monkeypatch, row):
    """Each edit raises what the parse alone raises: here with the sidecar and
    meta left in place, there with both deleted."""
    def error(path):
        with pytest.raises(ValueError) as info:
            io.read_pool_csv(path)
        return str(info.value)

    with_sidecar, alone = tmp_path / "a" / "pool.csv", tmp_path / "b" / "pool.csv"
    for path in (with_sidecar, alone):
        path.parent.mkdir()
        io.write_pool_csv(path, _special_pool(50))
        _set_row(path, row)
    io.pool_samples_path(alone).unlink()
    io.pool_meta_path(alone).unlink()
    spy = _ParseSpy(monkeypatch)
    message = error(with_sidecar)
    assert spy.calls == 1
    assert message.replace("/a/", "/b/") == error(alone)
    assert "line 4" in message or "row 3" in message  # numpy's own error counts data rows


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pool_written_with_non_finite_samples_reads_through_the_parse(tmp_path, bad):
    # the digests match, but only the parse names the offending line
    z = np.ones(6, dtype=np.complex128)
    z[2] = complex(bad, 0.0)
    path = io.write_pool_csv(tmp_path / "pool.csv", SamplePool(0, z, 1, "fp"))
    with pytest.raises(ValueError, match="non-finite sample on line 4"):
        io.read_pool_csv(path)


def test_empty_pool_reads_through_the_parse(tmp_path):
    path = io.write_pool_csv(tmp_path / "pool.csv",
                             SamplePool(0, np.zeros(0, dtype=np.complex128), 1, "fp"))
    with pytest.raises(ValueError, match="no samples"):
        io.read_pool_csv(path)


@pytest.mark.parametrize("key, value, message", [
    ("generation", -1, "generation must be a non-negative integer"),
    ("seed", "1", "seed must be an integer or null"),
    ("model_fingerprint", 5, "model_fingerprint must be a string"),
])
def test_meta_checks_run_on_the_sidecar_path(tmp_path, monkeypatch, key, value, message):
    path = io.write_pool_csv(tmp_path / "pool.csv", _special_pool(100))
    meta_path = io.pool_meta_path(path)
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    spy = _ParseSpy(monkeypatch)
    with pytest.raises(ValueError, match=message):
        io.read_pool_csv(path)
    assert spy.calls == 0


def test_sidecar_reader_memory_is_near_the_samples_array(tmp_path, monkeypatch):
    z = np.random.default_rng(7).standard_normal(500_000).view(np.complex128)
    path = io.write_pool_csv(tmp_path / "big.csv", SamplePool(1, z, 1, "fp"))
    spy = _ParseSpy(monkeypatch)
    tracemalloc.start()
    try:
        samples = io.read_pool_csv(path).samples
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spy.calls == 0 and samples.tobytes() == z.tobytes()
    assert peak < 1.5 * z.nbytes  # the parse holds a float table and the complex array, 2x
