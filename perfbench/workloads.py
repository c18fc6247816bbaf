"""The benchmark's workloads and the checks on every operation's output.

Each workload is a set-up step plus a list of operations, run closed-loop
from one process: one operation in flight, each started when the previous
one returned.  Operations drive only the entry points users call: the
``cli.main`` subcommands, ``popdyn.run`` and the ``fourier`` functions.

Every operation's output is checked.  At any seed the paper's bands
apply (criterion 3: pool mean within 4 mean_se of 1; 4: residual below
0.05; 7: KDE integral in [0.97, 1.01]; 9: Wirtinger finite differences
within 1e-6 relative).  At the reference seed the outputs must also match
the observations recorded in reference.json (see ``compare``).
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from smoothfix import cli, fourier, popdyn
from smoothfix.model import model_from_config
from smoothfix.rng import philox

THREADS = str(len(os.sched_getaffinity(0)))


class CheckFailed(Exception):
    """An operation's output is outside its band or differs from the reference."""


class Context:
    """Where a workload writes, which seed it uses, and how it calls the CLI."""

    def __init__(self, work: Path, seed: int, tracer=None):
        self.work = work
        self.seed = seed
        self.tracer = tracer

    def call(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, args, {})


class Op:
    """One operation: `timed` is measured, `check(result)` returns observations."""

    def __init__(self, name: str, timed, check):
        self.name = name
        self.timed = timed
        self.check = check


def cli_op(ctx: Context, name: str, argv: list[str], check) -> Op:
    def timed():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = ctx.call(f"cli.{argv[0]}", cli.main, argv)
        if code != 0:
            raise CheckFailed(f"exit code {code}: {err.getvalue().strip()}")

    return Op(name, timed, lambda _: check())


# -- output checks ------------------------------------------------------------

def _csv(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def check_pool(path: Path) -> dict:
    """Criterion 3 on the final generation, and the file's digest."""
    meta = json.loads(path.with_suffix(".meta.json").read_text())
    data = _csv(path)
    mean = complex(data[:, 0].mean(), data[:, 1].mean())
    mean_se = meta["summaries"][-1]["mean_se"]
    if not abs(mean - 1.0) <= 4.0 * mean_se:
        raise CheckFailed(f"criterion 3: |mean - 1| = {abs(mean - 1.0):.4g} "
                          f"> 4 mean_se = {4.0 * mean_se:.4g}")
    return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def check_density(path: Path) -> dict:
    """Criterion 7 on the grid integral, and values at 9 x 9 probe points."""
    data = _csv(path)
    if data.shape[1] == 3:
        ny = int(np.argmax(data[:, 0] != data[0, 0])) or data.shape[0]
        x, y = data[::ny, 0], data[:ny, 1]
        values = data[:, 2].reshape(x.shape[0], ny)
        integral = np.trapezoid(np.trapezoid(values, y, axis=1), x)
        ix = np.linspace(0, x.shape[0] - 1, 9).round().astype(int)
        iy = np.linspace(0, ny - 1, 9).round().astype(int)
        probes = {"x": x[ix], "y": y[iy], "v": values[np.ix_(ix, iy)].ravel()}
    else:
        x, values = data[:, 0], data[:, 1]
        integral = np.trapezoid(values, x)
        ix = np.linspace(0, x.shape[0] - 1, 33).round().astype(int)
        probes = {"x": x[ix], "y": np.zeros(0), "v": values[ix]}
    if not 0.97 <= integral <= 1.01:
        raise CheckFailed(f"criterion 7: density integral {integral:.6f} outside [0.97, 1.01]")
    probes = {k: v.tolist() for k, v in probes.items()}
    return {"density": {**probes, "peak": float(values.max())}}


def check_scan(path: Path, rows: int, order: int) -> dict:
    data = _csv(path)
    if data.shape != (rows, 6) or not np.isfinite(data).all():
        raise CheckFailed(f"scan has shape {data.shape} or non-finite values")
    if order == 0 and not (data[:, 4] <= 1.0 + 1e-12).all():
        raise CheckFailed("|ecf| exceeds 1")
    return {"values": data[:, 2:4].ravel().tolist()}


def check_martingale(path: Path, depth: int) -> dict:
    data = _csv(path)
    if not np.isfinite(data).all() or not 2 <= data.shape[0] <= depth + 1:
        raise CheckFailed(f"martingale table has {data.shape[0]} rows or non-finite values")
    return {"values": data.ravel().tolist()}


def check_report(path: Path) -> dict:
    report = json.loads(path.read_text())
    if report["alpha"] is None or report["flags"]["A1"] != "pass":
        raise CheckFailed(f"analyze: alpha={report['alpha']} flags={report['flags']}")
    return {"alpha": report["alpha"], "flags": report["flags"]}


# Tolerances against the reference: float64 ECF and tables within 1e-9
# (relative above magnitude 1), KDE within 1e-3 of the peak, residuals
# within 1e-5 (the float32 phase error fourier.py states).
def compare(obs: dict, ref: dict) -> None:
    for key, want in ref.items():
        kind = key.split(":")[0]
        got = obs.get(key)
        if got is None:
            raise CheckFailed(f"reference {key}: not observed")
        if kind in ("sha256", "flags"):
            ok = got == want
        elif kind == "density":
            ok = all(np.allclose(got[a], want[a], rtol=1e-9, atol=0) for a in ("x", "y"))
            ok = ok and np.abs(np.subtract(got["v"], want["v"])).max() <= 1e-3 * want["peak"]
        elif kind == "residual":
            ok = abs(got - want) <= 1e-5
        else:  # values, alpha
            got, want = np.atleast_1d(got), np.atleast_1d(want)
            ok = got.shape == want.shape and bool(
                (np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want))).all())
        if not ok:
            raise CheckFailed(f"differs from the reference in {key}")


# -- figures ------------------------------------------------------------------
# The paper's six reference models at 10^5 samples: popdyn, KDE and CSV I/O
# at large-pool throughput, and ECF scans of at most 256 frequencies x 10^5
# samples on the float64 path.

CRITERION_6_RADII = ",".join(repr(float(r)) for r in np.geomspace(5.0, 50.0, 7))
DERIVATIVE_SCANS = {"biggins_tilt23": 1, "polya_b12": 2}


def _write_configs(ctx: Context, models) -> dict[str, Path]:
    paths = {}
    for name, cfg in models:
        paths[name] = ctx.work / f"{name}.json"
        paths[name].write_text(json.dumps({"model": cfg}))
    return paths


def figures_setup(ctx: Context):
    return _write_configs(ctx, cli._figure_models())


def figures_ops(ctx: Context, configs) -> list[Op]:
    ops = []
    for name, cfg in configs.items():
        pool = ctx.work / f"{name}_pool.csv"
        den = ctx.work / f"{name}_density.csv"
        scan = ctx.work / f"{name}_scan.csv"
        ops += [
            cli_op(ctx, f"sample:{name}",
                   ["sample", "--model", str(cfg), "--seed", str(ctx.seed), "--threads", THREADS,
                    "--pool-size", "100000", "--iterations", "50", "--out", str(pool)],
                   lambda pool=pool: check_pool(pool)),
            cli_op(ctx, f"density:{name}",
                   ["density", "--pool", str(pool), "--grid", "256", "--threads", THREADS,
                    "--out", str(den)],
                   lambda den=den: check_density(den)),
            cli_op(ctx, f"ecf:{name}",
                   ["ecf", "--pool", str(pool), "--radii", "1,5,10,50", "--angles", "32",
                    "--threads", THREADS, "--out", str(scan)],
                   lambda scan=scan: check_scan(scan, 4 * 32, 0)),
        ]
        if name in DERIVATIVE_SCANS:
            order = DERIVATIVE_SCANS[name]
            dscan = ctx.work / f"{name}_scan{order}.csv"
            ops.append(cli_op(
                ctx, f"ecf{order}:{name}",
                ["ecf", "--pool", str(pool), "--radii", CRITERION_6_RADII, "--angles", "16",
                 "--order", str(order), "--threads", THREADS, "--out", str(dscan)],
                lambda dscan=dscan, order=order: check_scan(dscan, 7 * 16, order)))
    return ops


# -- residual -----------------------------------------------------------------
# Criterion 4's shape: many frequencies (2 x 10^4 per call) x a small pool
# (10^4) on the float32 path, the opposite of the figures scans.

def residual_setup(ctx: Context):
    model = model_from_config({"model": {"type": "polya", "b": 8}})
    return model, popdyn.run(model, n=10_000, K=50, seed=ctx.seed).pool


def _check_residual(value: float) -> dict:
    if not value < 0.05:
        raise CheckFailed(f"criterion 4: residual {value:.4g} not below 0.05")
    return {"residual": value}


def _wirtinger(pool, xi, h=1e-4):
    dx = fourier.wirtinger_derivative(pool, xi, "d_xi").value
    dxb = fourier.wirtinger_derivative(pool, xi, "d_xibar").value
    f = lambda q: fourier.ecf(pool, q).value  # noqa: E731
    d1 = (f(xi + h) - f(xi - h)) / (2 * h)
    d2 = (f(xi + 1j * h) - f(xi - 1j * h)) / (2 * h)
    return dx, dxb, d1, d2


def _check_wirtinger(result) -> dict:
    dx, dxb, d1, d2 = result
    if not (abs(d1 - (dx + dxb)) <= 1e-6 * abs(d1) and abs(d2 - 1j * (dx - dxb)) <= 1e-6 * abs(d2)):
        raise CheckFailed("criterion 9: finite differences disagree with the Wirtinger pair")
    return {"values": [dx.real, dx.imag, dxb.real, dxb.imag]}


def residual_ops(ctx: Context, state) -> list[Op]:
    model, pool = state
    ops = []
    for r in (0.5, 1.0, 2.0, 5.0):
        for k in (0, 1):
            xi = r * cmath.exp(2j * math.pi * k / 16)
            ops.append(Op(f"residual:{r}:{k}",
                          lambda xi=xi: fourier.fixed_point_residual(pool, model, xi,
                                                                     M=10_000, rng=99),
                          _check_residual))
    rng = philox(ctx.seed, 99)
    for i in range(100):
        u, t = rng.random(2)
        xi = 3.0 * math.sqrt(u) * cmath.exp(2j * math.pi * t)
        ops.append(Op(f"wirtinger:{i}", lambda xi=xi: _wirtinger(pool, xi), _check_wirtinger))
    return ops


# -- desk ---------------------------------------------------------------------
# The README quick-start on its four model configs, then figures --desk:
# small inputs where per-call overhead matters, and the only heavy user of
# analysis, branching and model.draw_batch.  The tabular config uses the
# {"prob", "weights"} form that model_to_config writes.

DESK_MODELS = [
    ("biggins_rect", {"type": "biggins", "lambda": {"re": 0.7071, "im": 0.7071}}),
    ("biggins_polar", {"type": "biggins", "lambda": {"modulus": 2.15, "arg": 0.2732}}),
    ("polya_b8", {"type": "polya", "b": 8}),
    ("tabular", {"type": "tabular", "atoms": [
        {"prob": 0.5, "weights": [[0.9, 0.0]]},
        {"prob": 0.5, "weights": [[0.25, 0.0], [0.25, 0.0], [0.25, 0.0], [0.25, 0.0],
                                  [0.1, 0.0]]},
    ]}),
]


def desk_setup(ctx: Context):
    return _write_configs(ctx, DESK_MODELS)


def _check_desk_figures(outdir: Path) -> dict:
    obs = {}
    for name, _ in cli._figure_models():
        obs[f"sha256:{name}"] = check_pool(outdir / f"{name}_pool.csv")["sha256"]
        obs[f"density:{name}"] = check_density(outdir / f"{name}_density.csv")["density"]
    return obs


def desk_ops(ctx: Context, configs) -> list[Op]:
    common = ["--seed", str(ctx.seed), "--threads", THREADS]
    ops = []
    for name, cfg in configs.items():
        out = {kind: ctx.work / f"{name}_{kind}" for kind in
               ("report.json", "pool.csv", "martingale.csv", "scan.csv", "density.csv")}
        ops += [
            cli_op(ctx, f"analyze:{name}",
                   ["analyze", "--model", str(cfg), *common, "--out", str(out["report.json"])],
                   lambda p=out["report.json"]: check_report(p)),
            cli_op(ctx, f"sample:{name}",
                   ["sample", "--model", str(cfg), *common, "--pool-size", "10000",
                    "--iterations", "50", "--out", str(out["pool.csv"])],
                   lambda p=out["pool.csv"]: check_pool(p)),
            cli_op(ctx, f"martingale:{name}",
                   ["martingale", "--model", str(cfg), *common, "--depth", "8", "--reps", "10000",
                    "--out", str(out["martingale.csv"])],
                   lambda p=out["martingale.csv"]: check_martingale(p, 8)),
            cli_op(ctx, f"ecf:{name}",
                   ["ecf", "--pool", str(out["pool.csv"]), "--radii", "1,5,10,50",
                    "--angles", "64", "--threads", THREADS, "--out", str(out["scan.csv"])],
                   lambda p=out["scan.csv"]: check_scan(p, 4 * 64, 0)),
            cli_op(ctx, f"density:{name}",
                   ["density", "--pool", str(out["pool.csv"]), "--grid", "256",
                    "--threads", THREADS, "--out", str(out["density.csv"])],
                   lambda p=out["density.csv"]: check_density(p)),
        ]
    figs = ctx.work / "figures"
    ops.append(cli_op(ctx, "figures:desk",
                      ["figures", "--desk", *common, "--outdir", str(figs)],
                      lambda: _check_desk_figures(figs)))
    return ops


WORKLOADS = {
    "figures": (figures_setup, figures_ops),
    "residual": (residual_setup, residual_ops),
    "desk": (desk_setup, desk_ops),
}
