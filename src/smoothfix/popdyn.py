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
only when it is 256 KiB or larger: zeta * tmp then runs as tmp *= zeta,
with the operands swapped, and a complex product can round differently
by one ulp when its operands are swapped.  On polya b = 8 at n = 10^5,
2^14-row chunks in place of 2^16 changed 761 of the 2 x 10^5 weights of
generation 1 and 2330 samples after three generations (by at most
4.5e-16).  _CHUNK_ROWS is therefore fixed.  The bits follow the operand
order, not the buffer: np.multiply(tmp, zeta, out=buf) gives the elided
bits and np.multiply(zeta, tmp, out=buf) the non-elided ones (checked at
65536, 34464, 16384, 16383 and 10^4 rows, for the polya weights and for
values * pool.samples[idx]).  Chunk buffers can therefore be reused
through out= without changing pool bytes, provided each product keeps
the operand order that elision gives it at that size.

The pool mean is a martingale across generations, but resampling makes
samples within a generation dependent: the variance of the pool mean
accumulates as sum_k var_k / n over generations rather than staying at
var/n.  Summaries report that accumulated standard error as mean_se; it
is the right scale for "mean preserved within a few SE" checks, while the
naive single-generation formula understates the spread several-fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import fingerprint
from .rng import DOMAIN_POPDYN, padded_width, philox

# Output rows per block of uniforms.  Changing it changes sample bits: it
# decides which products numpy elides into swapped-operand in-place form
# (module docstring).
_CHUNK_ROWS = 1 << 16


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


def iterate(pool: SamplePool, model, rng: np.random.Generator) -> SamplePool:
    """Advance the pool one generation.

    Consumes rng row-major, padded_width(budget + max_children) uniforms
    per output index, in blocks of _CHUNK_ROWS rows.
    """
    n = pool.n
    budget = model.uniform_budget
    max_c = model.max_children
    width = padded_width(budget + max_c)
    out = np.empty(n, dtype=np.complex128)
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        u = rng.random((stop - start, width))
        values, counts = model.weights_from_uniforms(u[:, :budget])
        iu = _gather_used(u[:, budget : budget + max_c], counts)
        idx = np.minimum((iu * n).astype(np.int64), n - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            products = values * pool.samples[idx]
            # reduceat adds to a row's first product numpy's sum of the rest,
            # started from -0.0: bit for bit p0 + p1 for two children, but
            # p0 + (p1 + p2) for three, so only pairs take the column sum
            if (counts == 2).all():
                new = products[0::2] + products[1::2]
            else:
                offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
                new = np.add.reduceat(products, offsets)
        if not np.isfinite(new).all():
            row = int(np.flatnonzero(~np.isfinite(new))[0])
            lo = int(counts[:row].sum())
            hi = lo + int(counts[row])
            raise PoolOverflowError(
                pool.generation + 1,
                start + row,
                tuple(complex(v) for v in values[lo:hi]),
            )
        out[start:stop] = new
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
    generation k of any longer run.
    """
    if K < 1:
        raise ValueError(f"K >= 1 generations required, got {K}")
    fp = fingerprint(model)
    pool = init_pool(n, init_value, seed, fp)
    cum_var = 0.0
    summaries = [_summarize(pool, _variances(pool), cum_var)]
    for k in range(1, K + 1):
        pool = iterate(pool, model, philox(seed, DOMAIN_POPDYN, k))
        var = _variances(pool)
        cum_var += var[0] + var[1]
        summaries.append(_summarize(pool, var, cum_var))
    return RunResult(pool=pool, summaries=tuple(summaries))
