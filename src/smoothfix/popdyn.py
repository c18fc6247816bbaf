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
only when it is 256 KiB or larger, and the elided in-place form rounds
some complex products differently by one ulp.  On polya b = 8 at
n = 10^5, 2^14-row chunks in place of 2^16 changed 761 of the 2 x 10^5
weights of generation 1 and 2330 samples after three generations (by at
most 4.5e-16).  _CHUNK_ROWS is therefore fixed, and reusing chunk
buffers through out= would change pool bytes as well.

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

_CHUNK_ROWS = 1 << 16  # output rows per block of uniforms; changing it changes sample bits


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
    generation: int
    mean: complex
    spread: float  # pool standard deviation, sqrt(var_re + var_im)
    mean_se: float  # accumulated SE of the pool mean across generations
    p_moment: float  # mean |X|^p
    im_dispersion: float


@dataclass(frozen=True)
class RunResult:
    pool: SamplePool
    summaries: tuple[GenerationSummary, ...]
    p: float


def init_pool(n: int, value: complex = 1.0, seed: int | None = None,
              model_fingerprint: str = "") -> SamplePool:
    if n < 2:
        raise ValueError(f"pool size must be at least 2, got {n}")
    samples = np.full(int(n), complex(value), dtype=np.complex128)
    return SamplePool(0, samples, seed, model_fingerprint)


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
        offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
        with np.errstate(over="ignore", invalid="ignore"):
            new = np.add.reduceat(values * pool.samples[idx], offsets)
        if not np.isfinite(new).all():
            row = int(np.flatnonzero(~np.isfinite(new))[0])
            lo = int(offsets[row])
            hi = lo + int(counts[row])
            raise PoolOverflowError(
                pool.generation + 1,
                start + row,
                tuple(complex(v) for v in values[lo:hi]),
            )
        out[start:stop] = new
    return SamplePool(pool.generation + 1, out, pool.seed, pool.model_fingerprint)


def _default_p(model) -> float:
    from .analysis import SubcriticalMeanError, find_alpha

    try:
        alpha = find_alpha(model).alpha
    except SubcriticalMeanError:
        return 1.0
    return 1.0 if alpha is None else max(alpha - 0.1, 0.5 * alpha)


def _variances(pool: SamplePool) -> tuple[float, float]:
    """Sample variances (ddof=1) of the real and imaginary parts."""
    z = pool.samples
    return float(z.real.var(ddof=1)), float(z.imag.var(ddof=1))


def _summarize(pool: SamplePool, p: float, var: tuple[float, float],
               cum_var: float) -> GenerationSummary:
    z = pool.samples
    var_re, var_im = var
    return GenerationSummary(
        generation=pool.generation,
        mean=complex(z.mean()),
        spread=math.sqrt(var_re + var_im),
        mean_se=math.sqrt(cum_var / z.shape[0]),
        p_moment=float(np.mean(np.abs(z) ** p)),
        im_dispersion=math.sqrt(var_im),
    )


def run(model, n: int, K: int, seed: int, p: float | None = None,
        init_value: complex = 1.0) -> RunResult:
    """Run K generations from a constant pool and summarize each one.

    Generation k consumes the stream keyed by (seed, DOMAIN_POPDYN, k), so
    runs extend reproducibly: the first K' < K generations of a longer run
    match the shorter run exactly, and run(..., K=k).pool is the pool of
    generation k of any longer run.
    """
    if K < 1:
        raise ValueError(f"K >= 1 generations required, got {K}")
    if p is None:
        p = _default_p(model)
    if not (math.isfinite(p) and p > 0.0):
        raise ValueError(f"moment order p must be finite and positive, got {p}")
    fp = fingerprint(model)
    pool = init_pool(n, init_value, seed, fp)
    cum_var = 0.0
    summaries = [_summarize(pool, p, _variances(pool), cum_var)]
    for k in range(1, K + 1):
        pool = iterate(pool, model, philox(seed, DOMAIN_POPDYN, k))
        var = _variances(pool)
        cum_var += var[0] + var[1]
        summaries.append(_summarize(pool, p, var, cum_var))
    return RunResult(pool=pool, summaries=tuple(summaries), p=p)
