"""smoothfix benchmark: closed-loop workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload figures|residual|desk --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, fresh processes
    python3 perfbench/run.py --workload desk --seed 1 --record   # re-record references

Run from the root of a source checkout; the program is imported from
``src/``.  A run sets the workload up five times in fresh child processes
(``setup_s`` is their median) and once more in this process.  It then runs
the workload's operations closed-loop, one at a time and in order: one
whole pass, then on through the list cyclically until ``--seconds`` have
elapsed.  ``wall_s`` is the time of one pass, the sum over operations of
each one's median time.  Output checks run between operations, untimed.

With ``--trace 1`` a run makes one untraced pass, then patches every layer
entry point (tracing.py), sets up and passes once more, and reports the
per-layer metrics of that traced set-up and pass, with
``trace.overhead_s`` = traced minus untraced pass time.  Spans go to
``.bench_out/spans_<workload>_<seed>.jsonl``.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is
the environment block, which is also appended with the result to
``.bench_out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
REF_SEED = 1
SETUP_REPEATS = 5
CLI_COMMANDS = ("analyze", "sample", "martingale", "ecf", "density", "figures")
WORKLOAD_NAMES = ("figures", "residual", "desk")

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_MOVES = {
    "popdyn.": "wall_s on figures and desk; setup_s on residual",
    "rng.": "wall_s on figures",
    "model.weight_map": "wall_s on figures",
    "model.draw_batch": "wall_s on residual and desk",
    "density.": "wall_s on figures and desk",
    "io.": "wall_s on figures",
    "fourier.scan": "wall_s on figures and desk",
    "fourier.residual": "wall_s and peak_rss_mb on residual",
    "fourier.pointwise": "wall_s on residual",
    "analysis.": "wall_s on desk",
    "branching.": "wall_s and peak_rss_mb on desk",
    "cli.": "wall_s on desk and figures",
    "proc.": "wall_s on figures (does --threads work run in parallel?)",
    "trace.": "none: cost of the traced run itself",
}

SETUP_CHILD = """
import sys
from pathlib import Path
sys.path[:0] = [{here!r}, {src!r}]
import workloads
ctx = workloads.Context(Path({work!r}), {seed})
workloads.WORKLOADS[{name!r}][0](ctx)
"""


# -- environment --------------------------------------------------------------

def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _read(path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without searching parent directories."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct is not None:
        return direct.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _steal_seconds() -> float | None:
    """CPU time the hypervisor gave to others, summed over all CPUs."""
    fields = (_read("/proc/stat") or "").split("\n", 1)[0].split()
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
        "seed": seed,
        "loadavg_start": (_read("/proc/loadavg") or "").strip(),
    }


# -- running a workload -------------------------------------------------------

class LoopResult:
    """What a closed loop over a workload's operations measured and observed."""

    def __init__(self):
        self.seconds: dict[str, list[float]] = {}
        self.cpu_seconds: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.observed: dict[str, dict] = {}

    def pass_seconds(self) -> float:
        """Time of one pass over every operation: the sum of per-operation medians."""
        return sum(statistics.median(v) for v in self.seconds.values())

    def pass_cpu_seconds(self) -> float:
        return sum(statistics.median(v) for v in self.cpu_seconds.values())


def run_loop(workloads, ops, ctx, reference, seconds: float = 0.0) -> LoopResult:
    """Run ops in order, one at a time, cyclically: one whole pass, then on
    until `seconds` have elapsed.  Checks run between operations, untimed."""
    res = LoopResult()
    start = time.perf_counter()
    while res.attempted < len(ops) or time.perf_counter() - start < seconds:
        op = ops[res.attempted % len(ops)]
        res.attempted += 1
        if ctx.tracer is not None:
            ctx.tracer.op = op.name
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = op.timed()
            error = None
        except workloads.CheckFailed as exc:
            error = str(exc)
        except Exception:  # a crashing operation counts as failed; the run goes on
            error = traceback.format_exc(limit=3)
        res.seconds.setdefault(op.name, []).append(time.perf_counter() - t0)
        res.cpu_seconds.setdefault(op.name, []).append(time.process_time() - c0)
        if error is None:
            try:
                obs = op.check(result)
                res.observed.setdefault(op.name, obs)
                if reference is not None:
                    if op.name not in reference:
                        raise workloads.CheckFailed("no reference recorded")
                    workloads.compare(obs, reference[op.name])
            except workloads.CheckFailed as exc:
                error = str(exc)
        if error is not None:
            res.failures.append(f"{op.name}: {error}")
    return res


def timed_child_setup(name: str, seed: int, work: Path) -> float:
    work.mkdir(parents=True)
    code = SETUP_CHILD.format(here=str(HERE), src=str(SRC), work=str(work), seed=seed, name=name)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(work)
    return elapsed


def run_workload(args) -> dict:
    import smoothfix

    if Path(smoothfix.__file__).resolve().parent != (SRC / "smoothfix").resolve():
        raise SystemExit(f"smoothfix imported from {smoothfix.__file__}, not from {SRC}")
    import workloads
    import tracing

    setup_fn, ops_fn = workloads.WORKLOADS[args.workload]
    reference = None
    if args.seed == REF_SEED and not args.record:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    work = OUT / f"work_{args.workload}_{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(work, args.seed)
    try:
        setup_times = []
        if not args.trace:
            setup_times = [timed_child_setup(args.workload, args.seed, work / f"setup{i}")
                           for i in range(SETUP_REPEATS)]
        state = setup_fn(ctx)
        seconds = 0.0 if args.trace or args.record else args.seconds
        loops = [run_loop(workloads, ops_fn(ctx, state), ctx, reference, seconds)]
        if args.trace:
            tracer = tracing.Tracer(f"{args.workload}/{args.seed}/{os.getpid()}")
            tracing.install(tracer)
            ctx.tracer = tracer
            try:
                state = setup_fn(ctx)
                loops.append(run_loop(workloads, ops_fn(ctx, state), ctx, reference))
            finally:
                tracer.restore()
                ctx.tracer = None
            tracer.write_jsonl(OUT / f"spans_{args.workload}_{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record:
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        refs[args.workload] = loops[0].observed
        REFERENCE.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")

    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    if args.trace:
        untraced, traced = loops
        values = tracing.layer_metrics(tracer, CLI_COMMANDS)
        values["proc.cpu_s"] = untraced.pass_cpu_seconds()
        values["proc.cpu_util"] = untraced.pass_cpu_seconds() / untraced.pass_seconds()
        values["trace.overhead_s"] = traced.pass_seconds() - untraced.pass_seconds()
    else:
        values = {
            "wall_s": loops[0].pass_seconds(),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    failures = [f for loop in loops for f in loop.failures]
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = sum(loop.attempted for loop in loops)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, {"wall": loops[0].seconds, "cpu": loops[0].cpu_seconds}


# -- every workload -----------------------------------------------------------

def run_all(args) -> int:
    """Each workload untraced then traced, each in a fresh process."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                return proc.returncode
            results[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = all(r["correct"] for r in results.values())
    print("end-to-end (untraced)")
    for name in WORKLOAD_NAMES:
        r = results[name, 0]
        print(f"  {name}: attempted={r['attempted']} failed={r['failed']} "
              f"fail_ratio={r['failed'] / r['attempted']:.4g}")
        for metric, v in r["metrics"].items():
            print(f"    {metric:<14} {v['value']:>14.6g} {v['unit']}")
    print("per-layer (traced run; the e2e metric each should move in brackets)")
    for metric in results[WORKLOAD_NAMES[0], 1]["metrics"]:
        move = next(v for k, v in LAYER_MOVES.items() if metric.startswith(k))
        cells = []
        for name in WORKLOAD_NAMES:
            v = results[name, 1]["metrics"][metric]["value"]
            cells.append(f"{name}={'absent' if v is None else f'{v:.6g}'}")
        unit = results[WORKLOAD_NAMES[0], 1]["metrics"][metric]["unit"]
        print(f"  {metric:<30} {unit:<6} {'  '.join(cells)}  [{move}]")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"write this workload's outputs as the reference (seed {REF_SEED})")
    args = parser.parse_args(argv)
    if args.record and args.seed != REF_SEED:
        parser.error(f"--record needs --seed {REF_SEED}")
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "smoothfix" / "__init__.py").is_file():
        print(f"benchmark: no smoothfix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    steal = _steal_seconds()
    result, op_seconds = run_workload(args)
    env["loadavg_end"] = (_read("/proc/loadavg") or "").strip()
    env["steal_s"] = None if steal is None else _steal_seconds() - steal
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "trace": args.trace,
                             "env": env, **result, "op_seconds": op_seconds}) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
