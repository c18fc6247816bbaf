"""Spans around the public entry points of each smoothfix layer.

The tracer patches each entry point in the namespace where its caller
looks it up (``cli`` imports ``kde2d``, ``polar_grid``,
``check_assumptions`` and ``estimate_martingale_mean`` by name, so those
are patched in ``cli`` as well as in their home modules).  Spans are kept
in memory and written as JSON lines when the run ends; the per-layer
metrics are derived from them.  An entry point that no longer exists is
recorded as missing, and every metric that depends on it is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.op = "setup"
        self.spans: list[dict] = []
        self.missing: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        # A span opened on a worker thread belongs to whatever the main
        # thread is doing (the CLI hands ecf radii to a thread pool).
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "run": self.run_id, "op": self.op,
                    "start": time.perf_counter() - self._t0, "end": None}
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._t0
        self._stack().pop()

    def call(self, name: str, fn, args, kwargs, measure=None):
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if measure is not None:
            span.update(measure(args, kwargs, result))
        return result

    # -- patching ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace owner.attr by a wrapper that records a span `name`."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.add(name)
            return
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, measure)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def wrap_generator_factory(self, owner, attr: str, name: str) -> None:
        """Time .random() on every generator that owner.attr returns."""
        factory = getattr(owner, attr, None)
        if factory is None:
            self.missing.add(name)
            return
        tracer = self

        def traced(*args, **kwargs):
            return _TimedGenerator(factory(*args, **kwargs), tracer, name)

        self._patches.append((owner, attr, factory))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it covered by its child spans."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
                lo, hi = max(c["start"], reach), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def write_jsonl(self, path: Path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "self": selfs[s["id"]]}) + "\n")


class _TimedGenerator:
    """Delegates to a numpy Generator and records a span per .random()."""

    def __init__(self, gen, tracer: Tracer, name: str):
        self._gen = gen
        self._tracer = tracer
        self._name = name

    def random(self, size=None, *args, **kwargs):
        return self._tracer.call(self._name, self._gen.random, (size,) + args, kwargs,
                                 lambda a, k, r: {"items": int(np.size(r))})

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


# -- what each entry point counts -------------------------------------------

def _pool_n(args, kwargs, result):
    return {"items": int(args[0].n), "family": args[1].kind}


def _weight_map(args, kwargs, result):
    model, u = args[0], args[1]
    counts = result[1]
    rows = int(np.shape(u)[0])
    # uniforms a generation actually consumes: the weight columns plus one
    # ancestor index per child; the rest of the padded row is drawn unused
    return {"family": model.kind,
            "used": rows * int(model.uniform_budget) + int(np.sum(counts))}


def _draw_batch(args, kwargs, result):
    return {"items": int(np.sum(result[1]))}


def _kde_flop(args, kwargs, result):
    # GEMM of the separable kernel: 2 * cells_x * cells_y * n; the 1-d
    # fallback sums one kernel row per grid point: 2 * cells * n
    cells = result.x.shape[0] * (result.y.shape[0] if hasattr(result, "y") else 1)
    return {"flop": 2 * cells * int(result.n_samples)}


def _path_bytes(*extra):
    def measure(args, kwargs, result):
        paths = [Path(result)] + [f(result) for f in extra]
        return {"bytes": sum(p.stat().st_size for p in paths if p.exists())}
    return measure


def _read_bytes(meta_path):
    def measure(args, kwargs, result):
        paths = [Path(args[0]), meta_path(args[0])]
        return {"bytes": sum(p.stat().st_size for p in paths if p.exists()),
                "items": int(result.n)}
    return measure


def _scan_pairs(args, kwargs, result):
    n = np.shape(getattr(args[0], "samples", args[0]))[0]
    return {"items": int(result.values.size) * int(n)}


def _residual_samples(args, kwargs, result):
    return {"samples": int(np.shape(getattr(args[0], "samples", args[0]))[0])}


def _martingale(args, kwargs, result):
    nodes = float(np.sum(result.node_count_mean[1:])) * result.reps
    return {"items": nodes, "truncated": bool(result.truncated)}


def install(tracer: Tracer) -> None:
    """Patch every layer entry point the per-layer metrics need."""
    from smoothfix import analysis, branching, cli, density, fourier, io, model, popdyn

    tracer.wrap(popdyn, "run", "popdyn.run")
    tracer.wrap(popdyn, "iterate", "popdyn.iterate", _pool_n)
    tracer.wrap_generator_factory(popdyn, "philox", "rng.uniforms")
    for cls in ("BigginsBinary", "CyclicPolya", "Tabular"):
        owner = getattr(model, cls, None)
        if owner is None:
            tracer.missing.update({"model.weight_map", "model.draw_batch"})
            continue
        tracer.wrap(owner, "weights_from_uniforms", "model.weight_map", _weight_map)
        tracer.wrap(owner, "draw_batch", "model.draw_batch", _draw_batch)
    for owner in (cli, density):
        tracer.wrap(owner, "kde2d", "density.kde2d", _kde_flop)
    tracer.wrap(io, "write_pool_csv", "io.write_pool", _path_bytes(io.pool_meta_path))
    tracer.wrap(io, "read_pool_csv", "io.read_pool", _read_bytes(io.pool_meta_path))
    tracer.wrap(io, "write_density_csv", "io.write_density", _path_bytes())
    for attr in ("write_scan_csv", "write_martingale_csv", "write_json", "write_manifest"):
        tracer.wrap(io, attr, "io." + attr.removesuffix("_csv"), _path_bytes())
    for owner in (cli, fourier):
        tracer.wrap(owner, "polar_grid", "fourier.scan", _scan_pairs)
    tracer.wrap(fourier, "fixed_point_residual", "fourier.residual", _residual_samples)
    tracer.wrap(fourier, "ecf", "fourier.pointwise")
    tracer.wrap(fourier, "wirtinger_derivative", "fourier.pointwise")
    for owner in (cli, analysis):
        tracer.wrap(owner, "check_assumptions", "analysis.check_assumptions")
    for owner in (cli, branching):
        tracer.wrap(owner, "estimate_martingale_mean", "branching.martingale", _martingale)


# -- per-layer metrics --------------------------------------------------------

def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, cli_commands) -> dict[str, float | None]:
    """Per-layer metrics of every span the tracer recorded.

    Only outermost spans of a name count towards its totals, and only io
    writes outside another io call (write_json inside write_pool_csv), so
    nothing is counted twice.
    """
    spans = tracer.spans
    by_id = {s["id"]: s for s in spans}
    selfs = tracer.self_times()

    def outer(name):
        """Spans named `name` with no ancestor of the same name."""
        out = []
        for s in spans:
            if s["name"] != name:
                continue
            p = s["parent"]
            while p is not None and by_id[p]["name"] != name:
                p = by_id[p]["parent"]
            if p is None:
                out.append(s)
        return out

    def dur(ss):
        return sum(s["end"] - s["start"] for s in ss)

    def total(ss, key):
        return sum(s.get(key, 0) for s in ss)

    iters = outer("popdyn.iterate")
    gens = len(iters)
    uniforms = outer("rng.uniforms")
    wmap = outer("model.weight_map")
    kde = outer("density.kde2d")
    writes = [s for s in spans if s["name"].startswith("io.write")]
    writes = [s for s in writes
              if s["parent"] is None or not by_id[s["parent"]]["name"].startswith("io.")]
    reads = outer("io.read_pool")
    scans = outer("fourier.scan")
    residuals = outer("fourier.residual")
    residual_pairs = sum(
        s["samples"] * sum(c.get("items", 0) for c in spans
                           if c["parent"] == s["id"] and c["name"] == "model.draw_batch")
        for s in residuals)
    points = outer("fourier.pointwise")
    draws = outer("model.draw_batch")
    mart = outer("branching.martingale")

    m: dict[str, float | None] = {
        "popdyn.run_s": dur(outer("popdyn.run")),
        "popdyn.iterate_ms": 1e3 * _div(dur(iters), gens),
        "popdyn.iterate_self_ms": 1e3 * _div(sum(selfs[s["id"]] for s in iters), gens),
        "popdyn.updates": total(iters, "items"),
        "popdyn.updates_per_s": _div(total(iters, "items"), dur(iters)),
        "rng.uniforms_ms": 1e3 * _div(dur(uniforms), gens),
        "rng.uniforms_drawn": total(uniforms, "items"),
        "rng.uniform_use_ratio": _div(total(wmap, "used"), total(uniforms, "items")),
        "model.weight_map_ms": 1e3 * _div(dur(wmap), gens),
        "model.draw_batch_ms": 1e3 * _div(dur(draws), len(draws)),
        "density.kde2d_s": dur(kde),
        "density.kde2d_flop": total(kde, "flop"),
        "density.kde2d_gflops": _div(total(kde, "flop"), dur(kde)) / 1e9,
        "io.write_pool_s": dur(outer("io.write_pool")),
        "io.read_pool_s": dur(reads),
        "io.write_density_s": dur(outer("io.write_density")),
        "io.bytes_written": total(writes, "bytes"),
        "io.bytes_read": total(reads, "bytes"),
        "io.write_mb_per_s": _div(total(writes, "bytes"), dur(writes)) / 1e6,
        "io.read_mb_per_s": _div(total(reads, "bytes"), dur(reads)) / 1e6,
        "fourier.scan_s": dur(scans),
        "fourier.scan_pairs": total(scans, "items"),
        "fourier.scan_pairs_per_s": _div(total(scans, "items"), dur(scans)),
        "fourier.residual_s": _div(dur(residuals), len(residuals)),
        "fourier.residual_pairs": residual_pairs,
        "fourier.residual_pairs_per_s": _div(residual_pairs, dur(residuals)),
        "fourier.pointwise_ms": 1e3 * _div(dur(points), len(points)),
        "analysis.check_assumptions_s": dur(outer("analysis.check_assumptions")),
        "branching.martingale_s": dur(mart),
        "branching.nodes": total(mart, "items"),
        "branching.truncations": sum(1 for s in mart if s["truncated"]),
        "branching.nodes_per_s": _div(total(mart, "items"), dur(mart)),
    }
    for family in ("biggins", "polya", "tabular"):
        fam_gens = sum(1 for s in iters if s["family"] == family)
        fam_map = [s for s in wmap if s["family"] == family]
        m[f"model.weight_map_ms.{family}"] = 1e3 * _div(dur(fam_map), fam_gens)
    for cmd in cli_commands:
        m[f"cli.{cmd}_s"] = dur(outer(f"cli.{cmd}"))

    for name in m:
        if any(_depends(name, missing) for missing in tracer.missing):
            m[name] = None
    return m


# Entry points each metric is derived from; a metric whose entry point
# could not be patched is reported as absent.
_SOURCES = {
    "popdyn.": ("popdyn.run", "popdyn.iterate"),
    "rng.": ("rng.uniforms", "model.weight_map"),
    "model.weight_map": ("model.weight_map", "popdyn.iterate"),
    "model.draw_batch": ("model.draw_batch",),
    "density.": ("density.kde2d",),
    "io.": ("io.write_pool", "io.read_pool", "io.write_density", "io.write_scan",
            "io.write_martingale", "io.write_json", "io.write_manifest"),
    "fourier.scan": ("fourier.scan",),
    "fourier.residual": ("fourier.residual", "model.draw_batch"),
    "fourier.pointwise": ("fourier.pointwise",),
    "analysis.": ("analysis.check_assumptions",),
    "branching.": ("branching.martingale",),
}


def _depends(metric: str, missing: str) -> bool:
    return any(metric.startswith(prefix) and missing in sources
               for prefix, sources in _SOURCES.items())
