"""Command-line interface.

Subcommands: analyze, sample, martingale, ecf, density, figures.  The
subcommands that draw (analyze, sample, martingale, figures) require an
explicit --seed and the others reject it; outputs are
byte-identical for identical argv, and each written artifact gets a
manifest JSON (argv, seed, model fingerprint, package version) next to
it.  Exit codes: 0 success, 1 for usage or configuration problems, 2 for
runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import check_assumptions, find_alpha
from .branching import estimate_martingale_mean
from .density import DensityLine, check_cells, grid_integral, kde2d
from .fourier import decay_from_grid, polar_grid
from .model import ConfigError, fingerprint, model_from_config
from .rng import DOMAIN_BRANCHING, philox
from . import io, popdyn


class CliError(Exception):
    """Usage-level problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: a removed option such as sample --p must not
        # silently become --pool-size
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError(message)


def _load_model(path):
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"model config not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid config JSON in {path}: {exc}")
    return model_from_config(doc)


def _load_pool(path):
    try:
        return io.read_pool_csv(path)
    except FileNotFoundError:
        raise CliError(f"pool file not found: {path}")


def _floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"{flag}: expected comma-separated numbers, got {text!r}")
    if not values:
        raise CliError(f"{flag}: no values given")
    return values


def _seed(text: str) -> int:
    # numpy seeds only non-negative integers; int() also reads non-ASCII digits
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return int(text)


def _out_path(text: str) -> str:
    # checked at parse time, so a missing directory fails before any work
    if not Path(text).parent.is_dir():
        raise argparse.ArgumentTypeError(f"no such directory: {Path(text).parent}")
    return text


def _cmd_analyze(args) -> int:
    model = _load_model(args.model)
    report = check_assumptions(model, seed=args.seed)
    out = io.write_json(args.out, dataclasses.asdict(report))
    io.write_manifest(out, args.argv, args.seed, fingerprint(model), outputs=[out])
    alpha = "none" if report.alpha is None else f"{report.alpha:.6f}"
    print(f"analyze: alpha={alpha} flags={report.flags} -> {out}")
    return 0


def _cmd_sample(args) -> int:
    model = _load_model(args.model)
    result = popdyn.run(model, n=args.pool_size, K=args.iterations, seed=args.seed)
    out = io.write_pool_csv(args.out, result.pool, result.summaries)
    io.write_manifest(out, args.argv, args.seed, fingerprint(model),
                      outputs=io.pool_files(out))
    s = result.summaries[-1]
    print(
        f"sample: n={result.pool.n} K={result.pool.generation} "
        f"mean={s.mean.real:.4f}{s.mean.imag:+.4f}i mean_se={s.mean_se:.4f} -> {out}"
    )
    return 0


def _cmd_martingale(args) -> int:
    model = _load_model(args.model)
    if args.alpha is not None:
        alpha = float(args.alpha)
    else:
        res = find_alpha(model)
        if res.alpha is None:
            raise CliError("no characteristic exponent found in (0, 10]; pass --alpha")
        alpha = res.alpha
    means = estimate_martingale_mean(
        model, alpha, args.depth, args.reps, philox(args.seed, DOMAIN_BRANCHING, 0),
        node_budget=args.node_budget,
    )
    out = io.write_martingale_csv(args.out, means)
    io.write_manifest(out, args.argv, args.seed, fingerprint(model), outputs=[out],
                      extra={"alpha": alpha, "truncated": means.truncated,
                             "truncated_at": means.truncated_at})
    tail = f" (truncated at generation {means.truncated_at})" if means.truncated else ""
    print(f"martingale: alpha={alpha:.6f} depth={int(means.depths[-1])} "
          f"W_mean={means.mean_w[-1]:.4f}{tail} -> {out}")
    return 0


def _cmd_ecf(args) -> int:
    pool = _load_pool(args.pool)
    radii = _floats(args.radii, "--radii")
    distinct = len(set(radii))
    if args.order >= 1 and distinct < 3:
        raise CliError(f"--order {args.order} fits a decay slope and needs at least 3 radii, "
                       f"got {distinct} distinct of {len(radii)}")
    grid = polar_grid(pool, radii, args.angles, order=args.order)
    extra = {
        "order": args.order,
        "n_angles": args.angles,
        "max_abs": np.abs(grid.values).max(axis=1).tolist(),
        "radii": radii,
    }
    slope_note = ""
    if args.order >= 1:
        decay = decay_from_grid(grid)  # InsufficientSignalError -> exit 2, nothing written
        extra.update(slope=decay.slope, kept=decay.kept.tolist(),
                     noise_floors=decay.floors.tolist())
        slope_note = f" slope={decay.slope:.3f}"
    out = io.write_scan_csv(args.out, grid)
    io.write_manifest(out, args.argv, None, pool.model_fingerprint,
                      outputs=[out], extra=extra)
    print(f"ecf: {len(radii)} radii x {args.angles} angles order={args.order}"
          f"{slope_note} -> {out}")
    return 0


def _cmd_density(args) -> int:
    pool = _load_pool(args.pool)
    bandwidth = None
    if args.bandwidth is not None:
        values = _floats(args.bandwidth, "--bandwidth")
        if len(values) == 1:
            values = values * 2
        if len(values) != 2:
            raise CliError("--bandwidth: expected one or two numbers")
        bandwidth = (values[0], values[1])
    den = kde2d(pool, cells=args.grid, bandwidth=bandwidth)
    out = io.write_density_csv(args.out, den)
    extra = {"integral": grid_integral(den), "n_samples": den.n_samples}
    if isinstance(den, DensityLine):
        extra.update(fallback_axis=den.axis, bandwidth=den.bandwidth)
        note = f" (1-d fallback on {den.axis})"
    else:
        extra.update(bandwidth=list(den.bandwidth))
        note = ""
    io.write_manifest(out, args.argv, None, pool.model_fingerprint,
                      outputs=[out], extra=extra)
    print(f"density: integral={extra['integral']:.4f}{note} -> {out}")
    return 0


def _figure_models():
    return [
        ("biggins_tilt23", {"type": "biggins",
                            "lambda": {"modulus": 2.15, "arg": 2 * math.pi / 23}}),
        ("biggins_pi4", {"type": "biggins",
                         "lambda": {"re": math.cos(math.pi / 4), "im": math.sin(math.pi / 4)}}),
        ("polya_b7", {"type": "polya", "b": 7}),
        ("polya_b8", {"type": "polya", "b": 8}),
        ("polya_b9", {"type": "polya", "b": 9}),
        ("polya_b12", {"type": "polya", "b": 12}),
    ]


def _cmd_figures(args) -> int:
    check_cells(args.grid)  # kde2d's check, made before any sampling
    outdir = Path(args.outdir)
    n, k = (10_000, 50) if args.desk else (1_000_000, 100)
    written = []
    for name, cfg in _figure_models():
        model = model_from_config({"model": cfg})
        result = popdyn.run(model, n=n, K=k, seed=args.seed)
        den = kde2d(result.pool, cells=args.grid)  # before any write, so a failure leaves none
        outdir.mkdir(parents=True, exist_ok=True)
        pool_path = io.write_pool_csv(outdir / f"{name}_pool.csv", result.pool, result.summaries)
        den_path = io.write_density_csv(outdir / f"{name}_density.csv", den)
        outputs = [*io.pool_files(pool_path), den_path]
        io.write_manifest(outdir / f"{name}.csv", args.argv, args.seed, fingerprint(model),
                          outputs=outputs,
                          extra={"config": cfg, "n": n, "iterations": k,
                                 "integral": grid_integral(den)})
        written.extend(outputs)
        print(f"figures: {name} n={n} K={k} -> {pool_path.name}, {den_path.name}")
    io.write_manifest(outdir / "figures.json", args.argv, args.seed, "",
                      outputs=written, extra={"desk": bool(args.desk)})
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="smoothfix", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"smoothfix {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored; Fourier scans and "
                             "population dynamics use every core of the CPU affinity mask")
    seeded = _Parser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=_seed, required=True, help="seed for all randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[seeded],
                       help="check model assumptions and locate the exponent")
    p.add_argument("--model", required=True, help="model config JSON path")
    p.add_argument("--out", type=_out_path, default="report.json")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sample", parents=[seeded],
                       help="population-dynamics sampling of the fixed point")
    p.add_argument("--model", required=True)
    p.add_argument("--pool-size", type=int, default=10_000)
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--out", type=_out_path, default="pool.csv")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("martingale", parents=[seeded],
                       help="branching-martingale mean trajectories")
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--node-budget", type=int, default=10_000_000)
    p.add_argument("--out", type=_out_path, default="martingale.csv")
    p.set_defaults(func=_cmd_martingale)

    p = sub.add_parser("ecf", parents=[common],
                       help="characteristic-function scans over a polar grid")
    p.add_argument("--pool", required=True, help="pool CSV path")
    p.add_argument("--radii", default="1,5,10,50")
    p.add_argument("--angles", type=int, default=64)
    p.add_argument("--order", type=int, choices=(0, 1, 2), default=0,
                   help="0: ECF, 1: first conj-derivative, 2: second")
    p.add_argument("--out", type=_out_path, default="scan.csv")
    p.set_defaults(func=_cmd_ecf)

    p = sub.add_parser("density", parents=[common],
                       help="kernel density estimate of a pool")
    p.add_argument("--pool", required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--bandwidth", default=None, help="hx,hy (default: Silverman)")
    p.add_argument("--out", type=_out_path, default="density.csv")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("figures", parents=[seeded],
                       help="sample + density for the six reference models")
    p.add_argument("--outdir", default="figures")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--desk", action="store_true",
                   help="reduced scale (n=1e4, K=50) instead of n=1e6, K=100")
    p.set_defaults(func=_cmd_figures)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"smoothfix: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    args.argv = argv
    if args.threads < 1:
        print("smoothfix: --threads must be at least 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (CliError, ConfigError, ValueError) as exc:
        print(f"smoothfix: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError, OSError) as exc:
        print(f"smoothfix: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"smoothfix: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
