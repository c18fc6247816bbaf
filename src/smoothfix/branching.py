"""Weighted branching simulation and the additive martingales.

Nodes of the branching tree carry products of weights along their ancestry
line; generation n has totals W_n = sum_v |L_v|^alpha (the nonnegative
martingale when m(alpha) = 1) and Z_n = sum_v L_v (the complex-additive
martingale when E[sum_j T_j] = 1).  One generator grows the trees of all
replicas together and reduces each generation to per-replica totals.

Trees grow geometrically, so the generator stops early, and the estimator
sets a truncation flag, once a generation would exceed the node budget (at
least 1, and at least the number of replicas).  The budget also bounds
memory, for any replica count, at about 16 bytes per node of the last two
generations that have children: a generation is drawn, multiplied and
reduced in blocks of parents, and its line is stored only if it will be a
parent.  Whenever generation n + 1 may cross the budget, it is counted
before n is grown: n and then n + 1 are drawn through the model's counts
map, which builds no weights, from a saved generator state.  If n + 1
crosses, n is grown without storing its line and the generator is left
where the crossing count stopped; if not, the count of n + 1 and its end
state are kept for the next step.  No generation is counted twice, so no
uniform is drawn more than twice.

The bits follow one draw of a whole generation.  Blocks of rows consume
rng exactly as one draw of all rows does.  A generation of at least
_ELIDE_ROWS rows is drawn in blocks of at least _ELIDE_ROWS rows, so that
polya's zeta * np.exp(...) keeps the rounding of numpy's temporary elision
(popdyn docstring), unless it may cross the budget: then the blocks are
plain _BLOCK_ROWS.  A block takes its children per replica from the
cumulative sum of its parents' child counts, read at the replica
boundaries, and adds each child's |L|^alpha and L into one float and one
complex accumulator per generation with np.add.at.  np.add.at adds in node
order, as np.bincount does, and the accumulators start at 0.0, so a
replica begun in an earlier block simply continues from its running sums,
and every replica's sums have the bits of one np.bincount over the whole
generation (a complex sum adds the real and the imaginary parts as two
float sums would).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BLOCK_ROWS = 1 << 16  # parents per draw
_ELIDE_ROWS = 1 << 14  # rows from which a complex temporary is elided (256 KiB)


@dataclass(frozen=True)
class MartingaleMeans:
    """Across-replica means of (W_n, Z_n) per generation."""

    depths: np.ndarray
    mean_w: np.ndarray
    se_w: np.ndarray
    mean_z: np.ndarray  # complex
    se_z: np.ndarray
    node_count_mean: np.ndarray
    reps: int
    truncated: bool
    truncated_at: int | None


def _draw_bounds(rows, may_cross):
    """Row bounds (start, stop) of the draws of one generation of `rows` parents."""
    starts = list(range(0, rows, _BLOCK_ROWS))
    if not may_cross and len(starts) > 1 and rows - starts[-1] < _ELIDE_ROWS:
        starts.pop()  # the short tail joins the block before it
    return list(zip(starts, starts[1:] + [rows]))


def _count(model, rng, rows, node_budget):
    """Children of `rows` parents, counted in plain blocks; the count stops at
    the first block that takes it over node_budget."""
    total = 0
    for start, stop in _draw_bounds(rows, True):
        total += int(model._draw_counts(rng, stop - start).sum())
        if total > node_budget:
            break
    return total


def _grow(model, alpha, rng, line, per_rep, may_cross, capacity, node_budget):
    """Children of `line` and their per-replica totals (w, zr, zi, count).

    line holds the nodes of every replica in replica order, per_rep[r] of
    replica r.  The children are stored in an array of `capacity` nodes, or
    not at all when capacity is None.  Returns (children or None, totals),
    or None once the children exceed node_budget.
    """
    ends = np.cumsum(per_rep)
    starts = ends - per_rep
    w = np.zeros(per_rep.shape[0])
    z = np.zeros(per_rep.shape[0], dtype=np.complex128)
    count = np.zeros_like(per_rep)
    children = None if capacity is None else np.empty(capacity, dtype=np.complex128)
    total = 0  # children drawn
    for s, e in _draw_bounds(line.shape[0], may_cross):
        values, counts = model.draw_batch(rng, e - s)
        drawn = np.cumsum(counts)  # children of the block's first i + 1 parents
        size = int(drawn[-1])
        if total + size > node_budget:
            return None
        # replicas r0..r1 - 1 have parents in rows [s, e); per[r - r0] children here
        r0 = int(np.searchsorted(ends, s, side="right"))
        r1 = int(np.searchsorted(starts, e, side="left"))
        per = np.diff(drawn[np.minimum(ends[r0:r1], e) - s - 1], prepend=0)
        del drawn
        parents = np.repeat(line[s:e], counts)  # each child's parent node
        del counts
        kids = parents if children is None else children[total:total + size]
        np.multiply(parents, values, out=kids)
        del parents, values
        total += size
        bins = np.repeat(np.arange(r0, r1), per)
        count[r0:r1] += per
        mag = np.abs(kids)
        mag **= alpha
        np.add.at(w, bins, mag)
        del mag
        np.add.at(z, bins, kids)
        del kids  # a view of children, which is resized below
    if children is not None and total < capacity:
        children.resize(total, refcheck=False)  # in place; no view of children is alive
    return children, (w, z.real, z.imag, count)


def _replica_totals(model, alpha, depth, reps, rng, node_budget):
    """Yield (n, totals) for generations n = 1..depth across reps trajectories.

    totals is (w, zr, zi, count): per-replica W_n, Re Z_n, Im Z_n and node
    counts.  It is None at the first generation that exceeds node_budget,
    which ends the trees.  The generator is left where one draw of every
    generation up to that one, or up to depth, leaves it.
    """
    fan = model.max_children
    line = np.ones(reps, dtype=np.complex128)
    per_rep = np.ones(reps, dtype=np.int64)
    ahead = None, None  # node count and end state of generation n, if counted at step n - 1
    for n in range(1, depth + 1):
        rows = line.shape[0]
        (size, end), ahead = ahead, (None, None)
        crossing = None  # generator state where the count of generation n + 1 crossed
        if n < depth and rows * fan * fan > node_budget:  # generation n + 1 may cross
            start = rng.bit_generator.state
            if size is None:
                size = _count(model, rng, rows, node_budget)
                if size > node_budget:
                    yield n, None
                    return
            else:
                rng.bit_generator.state = end
            if size * fan > node_budget:
                after = _count(model, rng, size, node_budget)
                if after > node_budget:
                    crossing = rng.bit_generator.state
                else:
                    ahead = after, rng.bit_generator.state
            rng.bit_generator.state = start
        capacity = None
        if n < depth and crossing is None:  # generation n will have children
            capacity = rows * fan if size is None else size
        grown = _grow(model, alpha, rng, line, per_rep, rows * fan > node_budget,
                      capacity, node_budget)
        if grown is None:
            yield n, None
            return
        line, totals = grown
        per_rep = totals[3]
        if crossing is not None:
            rng.bit_generator.state = crossing
        yield n, totals
        if crossing is not None:
            yield n + 1, None
            return


def estimate_martingale_mean(model, alpha: float, depth: int, reps: int,
                             rng: np.random.Generator,
                             node_budget: int = 10_000_000) -> MartingaleMeans:
    """Estimate E[W_n] and E[Z_n] for n = 0..depth from independent replicas.

    The trees end at the first generation over node_budget nodes, and hold
    about 16 bytes per node of the last two generations that have children,
    for any replica count."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    if reps < 30:
        raise ValueError(f"at least 30 replicas required for the standard errors, got {reps}")
    if node_budget < 1:
        raise ValueError(f"node budget must be at least 1, got {node_budget}")
    if reps > node_budget:
        raise ValueError(f"{reps} replicas exceed the node budget of {node_budget}: "
                         f"generation 0 alone has one node per replica")
    depths = [0]
    mean_w, se_w = [1.0], [0.0]
    mean_z, se_z = [1.0 + 0j], [0.0]
    nodes = [1.0]
    truncated_at = None
    for n, totals in _replica_totals(model, alpha, depth, reps, rng, node_budget):
        if totals is None:
            truncated_at = n
            break
        w, zr, zi, count = totals
        depths.append(n)
        mean_w.append(float(w.mean()))
        se_w.append(float(w.std(ddof=1) / math.sqrt(reps)))
        mean_z.append(complex(zr.mean() + 1j * zi.mean()))
        se_z.append(float(math.hypot(zr.std(ddof=1), zi.std(ddof=1)) / math.sqrt(reps)))
        nodes.append(float(count.mean()))
    return MartingaleMeans(
        depths=np.array(depths),
        mean_w=np.array(mean_w),
        se_w=np.array(se_w),
        mean_z=np.array(mean_z, dtype=np.complex128),
        se_z=np.array(se_z),
        node_count_mean=np.array(nodes),
        reps=reps,
        truncated=truncated_at is not None,
        truncated_at=truncated_at,
    )
