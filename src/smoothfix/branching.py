"""Weighted branching simulation and the additive martingales.

Nodes of the branching tree carry products of weights along their ancestry
line; generation n has totals W_n = sum_v |L_v|^alpha (the nonnegative
martingale when m(alpha) = 1) and Z_n = sum_v L_v (the complex-additive
martingale when E[sum_j T_j] = 1).  One generator grows the trees of all
replicas together.  Trees grow geometrically, so it stops early, and the
estimator sets a truncation flag, once the next generation would exceed
the node budget (at least 1).  The budget also bounds memory: a generation
that may cross it is drawn in blocks of parents and dropped at the first
block that does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BLOCK_ROWS = 1 << 16  # parents per draw when a generation may cross the node budget


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


def _draw_children(model, rng, rows, node_budget):
    """model.draw_batch(rng, rows), or None if it has more than node_budget children.

    Blocks of rows consume rng exactly as one draw of all rows does.
    """
    if rows * model.max_children <= node_budget:
        return model.draw_batch(rng, rows)
    blocks, total = [], 0
    for start in range(0, rows, _BLOCK_ROWS):
        values, counts = model.draw_batch(rng, min(_BLOCK_ROWS, rows - start))
        total += int(counts.sum())
        if total > node_budget:
            return None
        blocks.append((values, counts))
    values, counts = zip(*blocks)
    return np.concatenate(values), np.concatenate(counts)


def _batched_generations(model, depth, reps, rng, node_budget):
    """Yield (n, line, owner) for generations 1..depth across reps trajectories."""
    line = np.ones(reps, dtype=np.complex128)
    owner = np.arange(reps)
    for n in range(1, depth + 1):
        drawn = _draw_children(model, rng, line.shape[0], node_budget)
        if drawn is None:
            yield n, None, None
            return
        values, counts = drawn
        line = np.repeat(line, counts) * values
        owner = np.repeat(owner, counts)
        yield n, line, owner


def estimate_martingale_mean(model, alpha: float, depth: int, reps: int,
                             rng: np.random.Generator,
                             node_budget: int = 10_000_000) -> MartingaleMeans:
    """Estimate E[W_n] and E[Z_n] for n = 0..depth from independent replicas."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    if reps < 30:
        raise ValueError(f"at least 30 replicas required for the standard errors, got {reps}")
    if node_budget < 1:
        raise ValueError(f"node budget must be at least 1, got {node_budget}")
    depths = [0]
    mean_w, se_w = [1.0], [0.0]
    mean_z, se_z = [1.0 + 0j], [0.0]
    nodes = [1.0]
    truncated_at = None
    for n, line, owner in _batched_generations(model, depth, reps, rng, node_budget):
        if line is None:
            truncated_at = n
            break
        w = np.bincount(owner, weights=np.abs(line) ** alpha, minlength=reps)
        zr = np.bincount(owner, weights=line.real, minlength=reps)
        zi = np.bincount(owner, weights=line.imag, minlength=reps)
        count = np.bincount(owner, minlength=reps)
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

