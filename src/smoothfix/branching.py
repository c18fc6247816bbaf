"""Weighted branching simulation and the additive martingales.

Nodes of the branching tree carry products of weights along their ancestry
line; generation n has totals W_n = sum_v |L_v|^alpha (the nonnegative
martingale when m(alpha) = 1) and Z_n = sum_v L_v (the complex-additive
martingale when E[sum_j T_j] = 1).  One generator grows the trees of all
replicas together.  Trees grow geometrically, so it stops early, and the
estimator sets a truncation flag, once the next generation would exceed
the node budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def _batched_generations(model, depth, reps, rng, node_budget):
    """Yield (n, line, owner) for generations 1..depth across reps trajectories."""
    line = np.ones(reps, dtype=np.complex128)
    owner = np.arange(reps)
    for n in range(1, depth + 1):
        values, counts = model.draw_batch(rng, line.shape[0])
        if int(counts.sum()) > node_budget:
            yield n, None, None
            return
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

