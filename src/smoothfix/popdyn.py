"""Population-dynamics sampling of the fixed-point law.

A pool of n samples approximates the law of the fixed point X.  One
iteration replaces every sample with sum_j T_j X_{I_j}: a fresh weight
draw per output and ancestor indices I_j drawn uniformly with replacement
from the previous pool.

Every output index owns a fixed block of uniforms in a counter-based
stream keyed by (seed, generation): columns [0, budget) drive the weight
draw, the next max_children columns the ancestor indices, the rest pad
the row to a counter block.  The uniforms and the ancestor indices are
therefore independent of the chunk size, and any single output can be
recomputed in isolation up to rounding.

The sample bits are not independent of the chunk size.  numpy elides the
temporary of an expression such as zeta * np.exp(...) in
CyclicPolya.weights_from_uniforms, or values * pool.samples[idx] below,
only when it is 256 KiB (2^14 complex entries) or larger: zeta * tmp then
runs as tmp *= zeta, with the operands swapped, and a complex product can
round differently by one ulp when its operands are swapped.  On polya
b = 8 at n = 10^5, 2^14-row chunks in place of 2^16 changed 761 of the
2 x 10^5 weights of generation 1 and 2330 samples after three
generations (by at most 4.5e-16).  _CHUNK_ROWS is therefore fixed.  The
bits follow the operand order, not the buffer: np.multiply(tmp, zeta,
out=buf) gives the elided bits and np.multiply(zeta, tmp, out=buf) the
non-elided ones (checked at 65536, 34464, 16384, 16383 and 10^4 rows, for
the polya weights and for values * pool.samples[idx]).  So the products
below are taken into a reused buffer in the operand order that elision
gives them at their size.

Each generation runs on one worker thread per core of the process's CPU
affinity mask.  Every chunk is cut into rows // 2^14 blocks (at least
one), at edges that do not depend on the worker count, and with W
workers worker w takes blocks w, w + W, ..., the first inline.  A block
draws its rows from a copy of the caller's Philox advanced to its first
row's counter block, so its uniforms are the chunk's, and it writes its
rows straight into the new pool.  A cut block still has at least 2^14
rows, and every row at least one child, so its weight map and its
products make the elision choices of its chunk, and chunks under 2^15
rows stay whole; elementwise maps and per-row sums do not depend on where
an array is cut.  Pools are therefore bit-identical for every worker
count.  Each worker reuses one set of buffers (uniforms, ancestor
indices, products) across its blocks, and run allocates them once for
all its generations.

The pool mean is a martingale across generations, but resampling makes
samples within a generation dependent: the variance of the pool mean
accumulates as sum_k var_k / n over generations rather than staying at
var/n.  Summaries report that accumulated standard error as mean_se; it
is the right scale for "mean preserved within a few SE" checks, while the
naive single-generation formula understates the spread several-fold.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import fingerprint
from .rng import BLOCK, DOMAIN_POPDYN, padded_width, philox

# Output rows per chunk of uniforms.  Changing it changes sample bits: it
# decides which products numpy elides into swapped-operand in-place form
# (module docstring).
_CHUNK_ROWS = 1 << 16
# Least rows of a block cut from a chunk: 2^14 complex entries are numpy's
# 256 KiB elision size (_ELIDE_BYTES), so a cut block elides what its
# chunk elides.
_BLOCK_ROWS = 1 << 14
_ELIDE_BYTES = 1 << 18


def _workers() -> int:
    """Worker threads: the cores in this process's affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class PoolOverflowError(ArithmeticError):
    """A pool update produced a non-finite sample."""

    def __init__(self, generation: int, index: int, weights: tuple):
        self.generation = generation
        self.index = index
        self.weights = weights
        super().__init__(
            f"non-finite sample at pool index {index} in generation {generation}; "
            f"offending weight draw: {weights!r}"
        )


@dataclass(frozen=True)
class SamplePool:
    """Pool of fixed-point samples after some number of generations."""

    generation: int
    samples: np.ndarray  # complex128, shape (n,)
    seed: int | None
    model_fingerprint: str

    @property
    def n(self) -> int:
        return self.samples.shape[0]


def _sample_array(pool_or_samples) -> np.ndarray:
    """The samples of a SamplePool or an array-like, as a nonempty, finite complex128 vector."""
    z = np.asarray(getattr(pool_or_samples, "samples", pool_or_samples), dtype=np.complex128)
    if z.ndim != 1 or z.shape[0] < 1:
        raise ValueError("need a one-dimensional, nonempty sample array")
    if not np.isfinite(z).all():
        raise ValueError("samples must be finite")
    return z


@dataclass(frozen=True)
class GenerationSummary:
    """The pool's mean |X|^2 is spread**2 * (n - 1) / n + |mean|**2."""

    generation: int
    mean: complex
    spread: float  # pool standard deviation, sqrt(var_re + var_im)
    mean_se: float  # accumulated SE of the pool mean across generations
    im_dispersion: float


@dataclass(frozen=True)
class RunResult:
    pool: SamplePool
    summaries: tuple[GenerationSummary, ...]


def init_pool(n: int, value: complex = 1.0, seed: int | None = None,
              model_fingerprint: str = "") -> SamplePool:
    if n < 2:
        raise ValueError(f"pool size must be at least 2, got {n}")
    samples = np.full(int(n), complex(value), dtype=np.complex128)
    return SamplePool(0, samples, None if seed is None else int(seed), model_fingerprint)


def _gather_used(block: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flatten the first counts[i] entries of row i of block."""
    c0 = int(counts[0])
    if (counts == c0).all():  # the row mask below is about 4x slower on equal rows
        return block[:, :c0].reshape(-1)
    return block[np.arange(block.shape[1]) < counts[:, None]]


def _blocks(n: int) -> list[tuple[int, int]]:
    """Row ranges [start, stop) of the blocks of a generation of n rows, in order."""
    blocks = []
    for start in range(0, n, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, n - start)
        parts = max(rows // _BLOCK_ROWS, 1)
        blocks += [(start + rows * i // parts, start + rows * (i + 1) // parts)
                   for i in range(parts)]
    return blocks


class _Buffers:
    """One worker's arrays for blocks of up to `rows` rows of `model`."""

    def __init__(self, rows: int, model):
        width = padded_width(model.uniform_budget + model.max_children)
        self.u = np.empty(rows * width)
        self.idx = np.empty(rows * model.max_children, dtype=np.int64)
        self.products = np.empty(rows * model.max_children, dtype=np.complex128)


def _worker_buffers(n: int, model) -> list[_Buffers]:
    """One _Buffers per worker of a generation of n rows of `model`."""
    blocks = _blocks(n)
    rows = max(stop - start for start, stop in blocks)
    return [_Buffers(rows, model) for _ in range(min(_workers(), len(blocks)))]


def _stream_start(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Key and counter of rng's Philox stream, which must stand at a counter-block boundary."""
    bits = rng.bit_generator
    if not isinstance(bits, np.random.Philox):
        raise ValueError(f"iterate needs a Philox generator, got {type(bits).__name__}")
    state = bits.state
    if state["buffer_pos"] != BLOCK or state["has_uint32"]:
        raise ValueError("iterate needs an rng at a Philox counter-block boundary; "
                         "this one holds part of a block already drawn")
    return state["state"]["key"], state["state"]["counter"]


def _update_block(pool: SamplePool, model, stream, start: int, stop: int,
                  buf: _Buffers, out: np.ndarray) -> None:
    """Write rows [start, stop) of the next generation into out[start:stop]."""
    n, rows = pool.n, stop - start
    budget = model.uniform_budget
    max_c = model.max_children
    width = padded_width(budget + max_c)
    key, counter = stream
    bits = np.random.Philox(counter=counter, key=key)
    bits.advance(start * width // BLOCK)
    u = np.random.Generator(bits).random(out=buf.u[: rows * width].reshape(rows, width))
    values, counts = model.weights_from_uniforms(u[:, :budget])
    idx = buf.idx[: rows * max_c].reshape(rows, max_c)
    # (u * n).astype(np.int64), cast on the way into the buffer
    np.multiply(u[:, budget : budget + max_c], n, out=idx, casting="unsafe")
    np.minimum(idx, n - 1, out=idx)
    idx = _gather_used(idx, counts)
    # idx is in range already; mode="raise" would stage out= in a temporary
    products = np.take(pool.samples, idx, out=buf.products[: idx.shape[0]], mode="clip")
    new = out[start:stop]
    with np.errstate(over="ignore", invalid="ignore"):
        # the operand order of values * pool.samples[idx]: from 256 KiB on
        # numpy elides the gathered temporary and multiplies into it
        if products.nbytes >= _ELIDE_BYTES:
            np.multiply(products, values, out=products)
        else:
            products = values * products
        # reduceat adds to a row's first product numpy's sum of the rest,
        # started from -0.0: bit for bit p0 + p1 for two children, but
        # p0 + (p1 + p2) for three, so only pairs take the column sum
        if (counts == 2).all():
            np.add(products[0::2], products[1::2], out=new)
        else:
            offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
            np.add.reduceat(products, offsets, out=new)
    if not np.isfinite(new).all():
        row = int(np.flatnonzero(~np.isfinite(new))[0])
        lo = int(counts[:row].sum())
        hi = lo + int(counts[row])
        raise PoolOverflowError(
            pool.generation + 1,
            start + row,
            tuple(complex(v) for v in values[lo:hi]),
        )


def iterate(pool: SamplePool, model, rng: np.random.Generator, *,
            buffers: list[_Buffers] | None = None) -> SamplePool:
    """Advance the pool one generation.

    Takes rng's Philox stream row-major, padded_width(budget + max_children)
    uniforms per output index, and leaves rng where drawing them all would;
    rng must stand at a counter-block boundary.  The blocks run on one
    worker per entry of buffers (by default _worker_buffers(pool.n, model),
    which run allocates once per run).  An overflow names the lowest
    non-finite row.
    """
    n = pool.n
    width = padded_width(model.uniform_budget + model.max_children)
    stream = _stream_start(rng)
    if buffers is None:
        buffers = _worker_buffers(n, model)
    workers = len(buffers)
    blocks = _blocks(n)
    out = np.empty(n, dtype=np.complex128)

    def work(w: int) -> PoolOverflowError | None:
        for start, stop in blocks[w::workers]:
            try:
                _update_block(pool, model, stream, start, stop, buffers[w], out)
            except PoolOverflowError as err:
                return err  # this worker's blocks run in row order
        return None

    if workers == 1:
        errors = [work(0)]
    else:
        with ThreadPoolExecutor(max_workers=workers - 1) as threads:
            others = [threads.submit(work, w) for w in range(1, workers)]
            errors = [work(0)] + [f.result() for f in others]
    errors = [err for err in errors if err is not None]
    if errors:
        raise min(errors, key=lambda err: err.index)
    rng.bit_generator.advance(n * width // BLOCK)
    return SamplePool(pool.generation + 1, out, pool.seed, pool.model_fingerprint)


def _variances(pool: SamplePool) -> tuple[float, float]:
    """Sample variances (ddof=1) of the real and imaginary parts."""
    z = pool.samples
    return float(z.real.var(ddof=1)), float(z.imag.var(ddof=1))


def _summarize(pool: SamplePool, var: tuple[float, float], cum_var: float) -> GenerationSummary:
    z = pool.samples
    var_re, var_im = var
    return GenerationSummary(
        generation=pool.generation,
        mean=complex(z.mean()),
        spread=math.sqrt(var_re + var_im),
        mean_se=math.sqrt(cum_var / z.shape[0]),
        im_dispersion=math.sqrt(var_im),
    )


def run(model, n: int, K: int, seed: int, init_value: complex = 1.0) -> RunResult:
    """Run K generations from a constant pool and summarize each one.

    Generation k consumes the stream keyed by (seed, DOMAIN_POPDYN, k), so
    runs extend reproducibly: the first K' < K generations of a longer run
    match the shorter run exactly, and run(..., K=k).pool is the pool of
    generation k of any longer run.  Memory is the two pools of a
    generation plus, per worker, one block's buffers and weight-map
    temporaries: under 80 bytes per sample at n = 2.5e5 on two workers.
    """
    if K < 1:
        raise ValueError(f"K >= 1 generations required, got {K}")
    fp = fingerprint(model)
    pool = init_pool(n, init_value, seed, fp)
    buffers = _worker_buffers(pool.n, model)
    cum_var = 0.0
    summaries = [_summarize(pool, _variances(pool), cum_var)]
    for k in range(1, K + 1):
        pool = iterate(pool, model, philox(seed, DOMAIN_POPDYN, k), buffers=buffers)
        var = _variances(pool)
        cum_var += var[0] + var[1]
        summaries.append(_summarize(pool, var, cum_var))
    return RunResult(pool=pool, summaries=tuple(summaries))
