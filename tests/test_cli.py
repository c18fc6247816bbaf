"""End-to-end command-line checks driven through main()."""

import dataclasses
import hashlib
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from smoothfix import CyclicPolya, cli, fourier, io, popdyn
from smoothfix.analysis import check_assumptions
from smoothfix.cli import main
from smoothfix.popdyn import SamplePool
from smoothfix.rng import philox


@pytest.fixture()
def polya_cfg(tmp_path):
    path = tmp_path / "polya8.json"
    path.write_text(json.dumps({"model": {"type": "polya", "b": 8}}))
    return str(path)


@pytest.fixture()
def biggins_cfg(tmp_path):
    path = tmp_path / "biggins.json"
    path.write_text(json.dumps({"model": {"type": "biggins", "lambda": 1.0}}))
    return str(path)


def _write_gaussian_pool(tmp_path, n=800):
    rng = philox(31, 0)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pool = SamplePool(generation=0, samples=z, seed=31, model_fingerprint="test")
    return str(io.write_pool_csv(tmp_path / "gauss.csv", pool))


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "smoothfix" in capsys.readouterr().out


def test_missing_seed_is_usage_error(capsys, polya_cfg):
    assert main(["sample", "--model", polya_cfg]) == 1
    assert "the following arguments are required: --seed" in capsys.readouterr().err


def test_seed_rejected_where_nothing_is_drawn(tmp_path, capsys):
    # ecf and density draw nothing; a seed there is an unknown argument
    pool_path = _write_gaussian_pool(tmp_path)
    before = sorted(tmp_path.iterdir())
    for command in ("ecf", "density"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--pool", pool_path, "--seed", "3", "--out", str(out)]) == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_negative_seed_is_usage_error(tmp_path, capsys, polya_cfg):
    before = sorted(tmp_path.iterdir())
    for argv in (["analyze", "--model", polya_cfg, "--out", str(tmp_path / "report.json")],
                 ["sample", "--model", polya_cfg, "--out", str(tmp_path / "pool.csv")],
                 ["martingale", "--model", polya_cfg, "--out", str(tmp_path / "mart.csv")],
                 ["figures", "--desk", "--outdir", str(tmp_path / "figures")]):
        # an Arabic-Indic and a fullwidth 1 are rejected, not read as seed 1
        for seed in ("-1", "\u0661", "\uff11"):
            assert main(argv + ["--seed", seed]) == 1
            err = capsys.readouterr().err
            assert f"argument --seed: must be a non-negative integer, got {seed}" in err
    assert sorted(tmp_path.iterdir()) == before


def test_threads_below_one_is_usage_error(tmp_path, polya_cfg, capsys):
    pool_path = _write_gaussian_pool(tmp_path)
    before = sorted(tmp_path.iterdir())
    for argv in (["sample", "--model", polya_cfg, "--seed", "1"],
                 ["ecf", "--pool", pool_path]):
        assert main(argv + ["--threads", "0", "--out", str(tmp_path / "out.csv")]) == 1
        assert "--threads must be at least 1" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_unknown_flag_is_usage_error(capsys, polya_cfg):
    assert main(["sample", "--model", polya_cfg, "--seed", "1", "--banana", "2"]) == 1


def test_missing_config_file(capsys, tmp_path):
    assert main(["analyze", "--model", str(tmp_path / "nope.json"), "--seed", "1"]) == 1
    assert "not found" in capsys.readouterr().err


def test_invalid_config_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", "--model", str(path), "--seed", "1"]) == 1
    assert "invalid config JSON" in capsys.readouterr().err


def test_unknown_model_type(capsys, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"model": {"type": "galton"}}))
    assert main(["analyze", "--model", str(path), "--seed", "1"]) == 1


def test_analyze_writes_report_and_manifest(capsys, tmp_path, polya_cfg):
    out = tmp_path / "report.json"
    argv = ["analyze", "--model", polya_cfg, "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert report["flags"]["A2"] == "pass"
    manifest = json.loads(io.manifest_path(out).read_text())
    assert manifest["argv"] == argv
    assert manifest["seed"] == 5
    assert manifest["model_fingerprint"]
    assert manifest["version"]
    # the CLI writes exactly the library report
    rep = check_assumptions(CyclicPolya(8), seed=5)
    assert out.read_text() == json.dumps(dataclasses.asdict(rep), sort_keys=True, indent=2) + "\n"


def test_analyze_has_no_samples_option(capsys, tmp_path, polya_cfg):
    # the report's moments are exact: there is no sample count to set
    for samples in ("0", "1", "2000"):
        out = tmp_path / f"report{samples}.json"
        argv = ["analyze", "--model", polya_cfg, "--seed", "5",
                "--samples", samples, "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"smoothfix: unrecognized arguments: --samples {samples}\n"
        assert not out.exists()


def test_out_in_missing_directory_fails_before_any_work(tmp_path, capsys, monkeypatch, polya_cfg):
    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("_load_model", "_load_pool", "check_assumptions", "estimate_martingale_mean",
                 "polar_grid", "kde2d"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(popdyn, "run", never)
    pool_path = _write_gaussian_pool(tmp_path)
    out = tmp_path / "missing" / "out.csv"
    for argv in (["analyze", "--model", polya_cfg, "--seed", "1"],
                 ["sample", "--model", polya_cfg, "--seed", "1"],
                 ["martingale", "--model", polya_cfg, "--seed", "1"],
                 ["ecf", "--pool", pool_path],
                 ["density", "--pool", pool_path]):
        assert main(argv + ["--out", str(out)]) == 1, argv[0]
        err = capsys.readouterr().err
        assert err == f"smoothfix: argument --out: no such directory: {out.parent}\n", argv[0]
    assert not out.parent.exists()


def test_out_of_memory_is_runtime_error(tmp_path, capsys, monkeypatch, polya_cfg):
    def run(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(popdyn, "run", run)
    out = tmp_path / "pool.csv"
    assert main(["sample", "--model", polya_cfg, "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "smoothfix: out of memory: Unable to allocate 149. GiB for an array\n"
    assert not out.exists()


def test_sample_rerun_is_byte_identical(tmp_path, polya_cfg, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sample", "--model", polya_cfg, "--seed", "7",
            "--pool-size", "500", "--iterations", "5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta = json.loads(io.pool_meta_path(a).read_text())
    assert meta["n"] == 500 and meta["generation"] == 5


def test_martingale_csv_header(tmp_path, biggins_cfg, capsys):
    out = tmp_path / "mart.csv"
    argv = ["martingale", "--model", biggins_cfg, "--seed", "3",
            "--depth", "4", "--reps", "200", "--out", str(out)]
    assert main(argv) == 0
    header = out.read_text().splitlines()[0]
    assert header == "n,mean_W,se_W,mean_Z_re,mean_Z_im,se_Z,node_count_mean"
    manifest = json.loads(io.manifest_path(out).read_text())
    assert manifest["alpha"] == pytest.approx(1.0, abs=1e-6)


# the four README quick-start configs; the tabular one is the form model_to_config writes
DESK_CONFIGS = {
    "biggins_rect": {"type": "biggins", "lambda": {"re": 0.7071, "im": 0.7071}},
    "biggins_polar": {"type": "biggins", "lambda": {"modulus": 2.15, "arg": 0.2732}},
    "polya_b8": {"type": "polya", "b": 8},
    "tabular": {"type": "tabular", "atoms": [
        {"prob": 0.5, "weights": [[0.9, 0.0]]},
        {"prob": 0.5, "weights": [[0.25, 0.0], [0.25, 0.0], [0.25, 0.0], [0.25, 0.0],
                                  [0.1, 0.0]]},
    ]},
}


@pytest.mark.parametrize("name, digest", [
    ("biggins_rect", "51a4a91ae471b653e4b149dc41c4340df5dd230c730bbda2e5dfe5f03cf4a3a9"),
    ("biggins_polar", "d1c4c0f2f7ea2615b77e982ec9332f0c66eb1dbae739c1f37e688c1e12bf5692"),
    ("polya_b8", "bfa18c889e8499fa02e512560ba763748ca906d144300945f2c614a10dccc542"),
    ("tabular", "c1d2b6e9b8fd71c560ce76999e1f62ae4fb7c6e71001173fcbebdf3ad2a4b23d"),
])
def test_martingale_csv_bytes_are_pinned(tmp_path, capsys, name, digest):
    """The martingale tables of the desk configs keep the bytes recorded
    before the branching reduction moved to per-block np.add.at sums."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"model": DESK_CONFIGS[name]}))
    out = tmp_path / "mart.csv"
    assert main(["martingale", "--model", str(cfg), "--seed", "1", "--depth", "8",
                 "--reps", "2000", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_ecf_scan_csv_and_thread_invariance(tmp_path, monkeypatch, capsys):
    # 3 radii x 16 angles are 3 frequency tiles: 1 worker, then 3 threads,
    # which --threads 1 does not change
    pool_path = _write_gaussian_pool(tmp_path)
    for order in ("0", "1"):
        one, four = tmp_path / f"scan{order}_1.csv", tmp_path / f"scan{order}_4.csv"
        base = ["ecf", "--pool", pool_path, "--radii", "0.5,1,2", "--angles", "16",
                "--order", order]
        monkeypatch.setattr(fourier, "_workers", lambda: 1)
        assert main(base + ["--out", str(one)]) == 0
        monkeypatch.setattr(fourier, "_workers", lambda: 4)
        assert main(base + ["--threads", "1", "--out", str(four)]) == 0
        assert one.read_bytes() == four.read_bytes()
        assert one.read_text().splitlines()[0] == "R,theta,re,im,abs,stderr"
        manifest = json.loads(io.manifest_path(one).read_text())
        assert len(manifest["max_abs"]) == 3
        assert ("slope" in manifest) == (order == "1")


def test_files_are_identical_for_every_worker_count(tmp_path, monkeypatch, capsys):
    # more workers than cores (_workers is stubbed) and frequent thread
    # switches; 40001 samples are two population-dynamics blocks and 40
    # CSV blocks, the last partial, and a 90-cell grid leaves a partial
    # block of grid rows
    (tmp_path / "polya8.json").write_text(json.dumps({"model": {"type": "polya", "b": 8}}))
    (tmp_path / "tabular.json").write_text(json.dumps({"model": DESK_CONFIGS["tabular"]}))
    runs = [
        ["sample", "--model", "../polya8.json", "--seed", "2", "--pool-size", "40001",
         "--iterations", "3", "--out", "pool.csv"],
        ["density", "--pool", "pool.csv", "--grid", "90", "--out", "grid.csv"],
        ["ecf", "--pool", "pool.csv", "--radii", "1,2,3,5", "--angles", "100",
         "--out", "scan.csv"],
        ["martingale", "--model", "../polya8.json", "--seed", "2", "--depth", "8",
         "--reps", "2000", "--out", "mart.csv"],
        ["sample", "--model", "../tabular.json", "--seed", "2", "--pool-size", "3001",
         "--iterations", "3", "--out", "line_pool.csv"],
        ["density", "--pool", "line_pool.csv", "--grid", "90", "--out", "line.csv"],
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(popdyn, "_workers", lambda: workers)
            monkeypatch.setattr(fourier, "_workers", lambda: workers)
            (tmp_path / str(workers)).mkdir()
            monkeypatch.chdir(tmp_path / str(workers))
            for argv in runs:
                assert main(argv) == 0, argv
    finally:
        sys.setswitchinterval(interval)
    files = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert {"pool.csv", "pool.meta.json", "pool.samples.npy", "grid.csv", "line.csv",
            "scan.csv", "mart.csv"} <= set(files)
    assert (tmp_path / "1" / "grid.csv").read_text().startswith("x,y,value\n")
    assert (tmp_path / "1" / "line.csv").read_text().startswith("x,value\n")
    for workers in (2, 3, 5):
        assert sorted(p.name for p in (tmp_path / str(workers)).iterdir()) == files
        for name in files:
            assert (tmp_path / str(workers) / name).read_bytes() == \
                (tmp_path / "1" / name).read_bytes(), (workers, name)


def test_ecf_unordered_radii_match_per_radius_scans(tmp_path, capsys):
    # each radius's rows are those of an increasing scan, whatever the order
    pool_path = _write_gaussian_pool(tmp_path)
    for order in ("0", "1"):
        base = ["ecf", "--pool", pool_path, "--angles", "16", "--order", order]
        ref, mixed = tmp_path / f"ref{order}.csv", tmp_path / f"mixed{order}.csv"
        assert main(base + ["--radii", "0.5,1,2", "--out", str(ref)]) == 0
        assert main(base + ["--radii", "2,0.5,1,0.5", "--out", str(mixed)]) == 0
        rows = ref.read_text().splitlines()[1:]
        block = {r: rows[16 * i:16 * (i + 1)] for i, r in enumerate(("0.5", "1", "2"))}
        expected = block["2"] + block["0.5"] + block["1"] + block["0.5"]
        assert mixed.read_text().splitlines()[1:] == expected


def test_ecf_derivative_without_signal_is_runtime_error(tmp_path, capsys):
    pool_path = _write_gaussian_pool(tmp_path, n=300)
    argv = ["ecf", "--pool", pool_path, "--order", "1",
            "--radii", "5,10,20,50", "--out", str(tmp_path / "scan.csv")]
    assert main(argv) == 2
    assert "insufficient signal" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()


def test_ecf_rejects_non_finite_radii(tmp_path, capsys):
    pool_path = _write_gaussian_pool(tmp_path)
    out = tmp_path / "scan.csv"
    for radii in ("1,inf", "nan,2"):
        argv = ["ecf", "--pool", pool_path, "--radii", radii, "--angles", "8", "--out", str(out)]
        assert main(argv) == 1
        assert "finite and positive" in capsys.readouterr().err
        assert not out.exists() and not io.manifest_path(out).exists()


def test_ecf_rejects_unresolvable_phases(tmp_path, capsys):
    # at or past |<xi, z>| = 2^40 the scan exits 1 and writes nothing; just
    # under it the scan runs without a numpy warning
    pool_path = _write_gaussian_pool(tmp_path)
    z = io.read_pool_csv(pool_path).samples
    edge = fourier._MAX_PHASE / float(np.abs(z.real).max() + np.abs(z.imag).max())
    out = tmp_path / "scan.csv"
    for radii in ("1e308,1,2", repr(1.001 * edge)):
        argv = ["ecf", "--pool", pool_path, "--radii", radii, "--angles", "8", "--out", str(out)]
        assert main(argv) == 1
        assert "2^40" in capsys.readouterr().err
        assert not out.exists() and not io.manifest_path(out).exists()
    argv = ["ecf", "--pool", pool_path, "--radii", repr(0.999 * edge), "--angles", "8",
            "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert out.exists()


def test_ecf_slope_needs_three_radii(tmp_path, capsys):
    # checked before the scan: every radius here has signal, so "1,2" used
    # to scan and then fail at the fit with exit 2, and "5,5,5" to write a
    # slope fitted over one distinct radius
    pool_path = _write_gaussian_pool(tmp_path)
    out = tmp_path / "scan.csv"
    for radii, got in (("1,2", "got 2 distinct of 2"), ("5,5,5", "got 1 distinct of 3")):
        for order in ("1", "2"):
            argv = ["ecf", "--pool", pool_path, "--radii", radii, "--angles", "8",
                    "--order", order, "--out", str(out)]
            assert main(argv) == 1
            assert f"at least 3 radii, {got}" in capsys.readouterr().err
            assert not out.exists() and not io.manifest_path(out).exists()


def test_martingale_rejects_negative_depth(tmp_path, capsys, polya_cfg):
    out = tmp_path / "mart.csv"
    argv = ["martingale", "--model", polya_cfg, "--seed", "1", "--depth", "-2",
            "--reps", "30", "--out", str(out)]
    assert main(argv) == 1
    assert "depth must be at least 0, got -2" in capsys.readouterr().err
    assert not out.exists() and not io.manifest_path(out).exists()


def test_martingale_rejects_node_budget_below_one(tmp_path, capsys, polya_cfg):
    out = tmp_path / "mart.csv"
    argv = ["martingale", "--model", polya_cfg, "--seed", "1", "--depth", "2",
            "--reps", "50", "--node-budget", "-5", "--out", str(out)]
    assert main(argv) == 1
    assert "node budget must be at least 1, got -5" in capsys.readouterr().err
    assert not out.exists() and not io.manifest_path(out).exists()


def test_martingale_rejects_reps_over_node_budget(tmp_path, capsys, polya_cfg):
    out = tmp_path / "mart.csv"
    argv = ["martingale", "--model", polya_cfg, "--seed", "1", "--depth", "2",
            "--reps", "50", "--node-budget", "40", "--out", str(out)]
    assert main(argv) == 1
    assert "50 replicas exceed the node budget of 40" in capsys.readouterr().err
    assert not out.exists() and not io.manifest_path(out).exists()


def test_martingale_rejects_bad_alpha(tmp_path, capsys, polya_cfg):
    out = tmp_path / "mart.csv"
    for alpha in ("nan", "inf", "-1", "0"):
        argv = ["martingale", "--model", polya_cfg, "--seed", "1", "--depth", "2",
                "--reps", "50", "--alpha", alpha, "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "alpha must be finite and positive" in err and alpha in err
        assert not out.exists() and not io.manifest_path(out).exists()


def test_sample_has_no_moment_order_option(tmp_path, capsys, polya_cfg):
    out = tmp_path / "pool.csv"
    argv = ["sample", "--model", polya_cfg, "--seed", "1", "--pool-size", "50",
            "--iterations", "2", "--p", "1.3", "--out", str(out)]
    assert main(argv) == 1
    assert "unrecognized arguments: --p 1.3" in capsys.readouterr().err
    assert not out.exists() and not io.pool_meta_path(out).exists()


def test_ecf_rejects_truncated_pool(tmp_path, capsys):
    pool_path = _write_gaussian_pool(tmp_path, n=1000)
    lines = Path(pool_path).read_text().splitlines(keepends=True)
    Path(pool_path).write_text("".join(lines[:501]))  # header and 500 rows; meta says 1000
    out = tmp_path / "scan.csv"
    assert main(["ecf", "--pool", pool_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"smoothfix: {io.pool_meta_path(pool_path)}: n must be ")
    assert "got 1000" in err
    assert not out.exists() and not io.manifest_path(out).exists()


def _write_pool_with_row(tmp_path, row: str):
    pool_path = _write_gaussian_pool(tmp_path, n=5)
    lines = Path(pool_path).read_text().splitlines()
    lines[3] = row  # the third data row
    Path(pool_path).write_text("\n".join(lines) + "\n")
    return pool_path


def test_read_pool_csv_rejects_non_finite_samples(tmp_path):
    for row in ("nan,0", "1,inf", "-inf,-inf"):
        pool_path = _write_pool_with_row(tmp_path, row)
        with pytest.raises(ValueError, match="non-finite sample on line 4") as info:
            io.read_pool_csv(pool_path)
        assert pool_path in str(info.value)


def test_read_pool_csv_rejects_wrong_column_count(tmp_path):
    # two one-column rows must not be read as one (re, im) sample
    for body, got in (("1\n2\n", 1), ("1,2,3\n", 3)):
        pool_path = tmp_path / "pool.csv"
        pool_path.write_text("re,im\n" + body)
        with pytest.raises(ValueError, match=f"expected two columns re,im, got {got}"):
            io.read_pool_csv(pool_path)


def test_ecf_and_density_reject_non_finite_pool(tmp_path, capsys):
    out = tmp_path / "out.csv"
    for row in ("nan,0", "inf,1"):
        pool_path = _write_pool_with_row(tmp_path, row)
        for argv in (["ecf", "--pool", pool_path, "--radii", "1,2", "--angles", "8"],
                     ["density", "--pool", pool_path, "--bandwidth", "0.5"]):
            assert main(argv + ["--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("smoothfix:") and pool_path in err and "line 4" in err
            assert not out.exists() and not io.manifest_path(out).exists()


def test_ecf_rejects_pool_meta_that_is_not_an_object(tmp_path, capsys):
    pool_path = _write_gaussian_pool(tmp_path)
    meta_path = io.pool_meta_path(pool_path)
    meta_path.write_text("[1, 2]")
    out = tmp_path / "scan.csv"
    assert main(["ecf", "--pool", pool_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"smoothfix: {meta_path}: expected a JSON object\n"
    assert not out.exists()


@pytest.mark.parametrize("meta", [
    '{"generation": null}', '{"generation": "x"}', '{"generation": 2.7}',
    '{"generation": true}', '{"generation": -3}', '{"seed": 1.5}', '{"seed": "1"}',
    '{"model_fingerprint": 5}', '{"n": 199}', '{"n": 200.0}', '{"n": "200"}', '{"n": true}',
    "{bad",
])
def test_ecf_rejects_invalid_pool_meta(tmp_path, capsys, meta):
    pool_path = _write_gaussian_pool(tmp_path, n=200)
    meta_path = io.pool_meta_path(pool_path)
    meta_path.write_text(meta)
    out = tmp_path / "scan.csv"
    assert main(["ecf", "--pool", pool_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"smoothfix: {meta_path}: ") and "Traceback" not in err
    assert not out.exists() and not io.manifest_path(out).exists()


def test_ecf_header_only_pool_names_the_problem(tmp_path, capsys):
    pool_path = tmp_path / "empty.csv"
    pool_path.write_text("re,im\n")
    out = tmp_path / "scan.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["ecf", "--pool", str(pool_path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"smoothfix: {pool_path}: no samples\n"
    assert caught == []
    assert not out.exists()


def test_threads_flag_does_not_change_outputs(tmp_path, polya_cfg, capsys):
    # README: --threads is accepted and ignored; manifests differ only in argv
    pool_path = _write_gaussian_pool(tmp_path)
    d = tmp_path
    runs = [
        (["analyze", "--model", polya_cfg, "--seed", "4", "--out", str(d / "report.json")],
         [d / "report.json"]),
        (["sample", "--model", polya_cfg, "--seed", "4", "--pool-size", "500",
          "--iterations", "5", "--out", str(d / "pool.csv")],
         [d / "pool.csv", d / "pool.meta.json"]),
        (["martingale", "--model", polya_cfg, "--seed", "4", "--depth", "4",
          "--reps", "200", "--out", str(d / "mart.csv")], [d / "mart.csv"]),
        (["density", "--pool", pool_path, "--grid", "32", "--out", str(d / "den.csv")],
         [d / "den.csv"]),
    ]
    for argv, files in runs:
        manifest = io.manifest_path(files[0])
        assert main(argv + ["--threads", "1"]) == 0
        data = [f.read_bytes() for f in files]
        doc1 = json.loads(manifest.read_text())
        assert main(argv + ["--threads", "3"]) == 0
        assert [f.read_bytes() for f in files] == data, argv[0]
        doc3 = json.loads(manifest.read_text())
        assert doc1.pop("argv") != doc3.pop("argv")
        assert doc1 == doc3, argv[0]


def test_density_fallback_writes_line_csv(tmp_path, capsys):
    rng = philox(37, 0)
    pool = SamplePool(0, rng.standard_normal(400) + 0.0j, 37, "test")
    pool_path = io.write_pool_csv(tmp_path / "real.csv", pool)
    out = tmp_path / "den.csv"
    assert main(["density", "--pool", str(pool_path), "--grid", "64",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "x,value"
    manifest = json.loads(io.manifest_path(out).read_text())
    assert manifest["fallback_axis"] == "re"
    assert 0.9 < manifest["integral"] < 1.05


def test_density_grid_csv(tmp_path, capsys):
    pool_path = _write_gaussian_pool(tmp_path)
    out = tmp_path / "den.csv"
    assert main(["density", "--pool", str(pool_path), "--grid", "48",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 48 * 48


def test_density_rejects_grid_below_two_cells(tmp_path, capsys):
    pool_path = _write_gaussian_pool(tmp_path)
    out = tmp_path / "den.csv"
    for grid in ("0", "1"):
        assert main(["density", "--pool", pool_path, "--grid", grid, "--out", str(out)]) == 1
        assert "at least 2 cells" in capsys.readouterr().err
        assert not out.exists()


def test_density_rejects_non_finite_bandwidth(tmp_path, capsys):
    pool_path = _write_gaussian_pool(tmp_path)
    out = tmp_path / "den.csv"
    # 1e308 is finite, but four bandwidths of grid extent overflow
    for bandwidth in ("inf", "1e308"):
        assert main(["density", "--pool", pool_path, "--bandwidth", bandwidth,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("smoothfix:") and "finite" in err
        assert not out.exists()


def test_figures_failure_leaves_no_pool(tmp_path, capsys, monkeypatch):
    """--grid is checked before any sampling, and nothing is written."""
    def no_run(*args, **kwargs):
        raise AssertionError("popdyn.run called before --grid was checked")

    monkeypatch.setattr(popdyn, "run", no_run)
    outdir = tmp_path / "figs"
    for grid in ("0", "1"):
        assert main(["figures", "--desk", "--seed", "1", "--grid", grid,
                     "--outdir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert f"a density grid needs at least 2 cells per axis, got {grid}" in err
        assert not outdir.exists()  # no pool, meta, manifest or directory


def test_density_bandwidth_flag(tmp_path, capsys):
    pool_path = _write_gaussian_pool(tmp_path, n=50)  # too small for Silverman
    out = tmp_path / "den.csv"
    assert main(["density", "--pool", pool_path, "--out", str(out)]) == 1
    assert main(["density", "--pool", pool_path, "--bandwidth", "0.5",
                 "--grid", "32", "--out", str(out)]) == 0
    manifest = json.loads(io.manifest_path(out).read_text())
    assert manifest["bandwidth"] == [0.5, 0.5]


def test_figures_desk_layout(tmp_path, capsys):
    outdir = tmp_path / "figs"
    argv = ["figures", "--desk", "--seed", "9", "--grid", "32",
            "--outdir", str(outdir)]
    assert main(argv) == 0
    top = json.loads((outdir / "figures.manifest.json").read_text())
    assert top["desk"] is True
    for name in ("biggins_tilt23", "biggins_pi4", "polya_b7",
                 "polya_b8", "polya_b9", "polya_b12"):
        assert (outdir / f"{name}_pool.csv").exists()
        density = outdir / f"{name}_density.csv"
        assert density.exists()
        data = np.loadtxt(density, delimiter=",", skiprows=1)
        assert data.shape[1] in (2, 3) and np.all(data[:, -1] >= 0)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "smoothfix.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "smoothfix" in proc.stdout


def test_ecf_and_density_outputs_do_not_depend_on_the_sidecar(tmp_path, polya_cfg, capsys,
                                                              monkeypatch):
    pool = tmp_path / "pool.csv"
    assert main(["sample", "--model", polya_cfg, "--seed", "3", "--pool-size", "2000",
                 "--iterations", "5", "--out", str(pool)]) == 0
    runs = [
        ["ecf", "--pool", str(pool), "--order", "0", "--radii", "1,2,4", "--angles", "16"],
        ["ecf", "--pool", str(pool), "--order", "1", "--radii", "0.5,1,2,4", "--angles", "16"],
        ["density", "--pool", str(pool), "--grid", "32"],
    ]
    parses = []
    parse = io._parse_pool_csv
    monkeypatch.setattr(io, "_parse_pool_csv", lambda path: parses.append(path) or parse(path))

    def outputs():
        files = []
        for i, argv in enumerate(runs):
            out = tmp_path / f"out{i}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            files.append((out.read_bytes(), io.manifest_path(out).read_bytes()))
        return files

    with_sidecar = outputs()
    assert parses == []
    io.pool_samples_path(pool).unlink()
    assert outputs() == with_sidecar
    assert len(parses) == len(runs)


def test_manifests_list_every_pool_file(tmp_path, polya_cfg, capsys, monkeypatch):
    pool = tmp_path / "pool.csv"
    assert main(["sample", "--model", polya_cfg, "--seed", "3", "--pool-size", "200",
                 "--iterations", "2", "--out", str(pool)]) == 0
    sample_files = io.pool_files(pool)
    assert json.loads(io.manifest_path(pool).read_text())["outputs"] == list(map(str, sample_files))
    assert all(p.exists() for p in sample_files)

    run = popdyn.run  # figures at a tenth of a desk run's pool, for speed
    monkeypatch.setattr(popdyn, "run", lambda model, n, K, seed: run(model, n // 10, 2, seed))
    outdir = tmp_path / "figs"
    assert main(["figures", "--desk", "--seed", "1", "--grid", "16",
                 "--outdir", str(outdir)]) == 0
    written = []
    for name in ("biggins_tilt23", "biggins_pi4", "polya_b7", "polya_b8", "polya_b9",
                 "polya_b12"):
        files = [*io.pool_files(outdir / f"{name}_pool.csv"), outdir / f"{name}_density.csv"]
        doc = json.loads((outdir / f"{name}.manifest.json").read_text())
        assert doc["outputs"] == list(map(str, files))
        written += files
    top = json.loads((outdir / "figures.manifest.json").read_text())
    assert top["outputs"] == list(map(str, written))
    manifests = set(outdir.glob("*.manifest.json"))
    assert set(outdir.iterdir()) - manifests == set(written)
