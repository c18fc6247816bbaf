"""Deterministic random-stream construction.

All randomness in the package flows through numpy's Philox counter-based
generator, keyed by a user seed plus a fixed domain tag per consumer.  In
a table of uniforms drawn `width` per row, width a multiple of BLOCK, row
i alone is recomputable after Philox.advance(i * width // BLOCK), as
tests/test_popdyn.py shows; popdyn draws each block of rows that way.
"""

from __future__ import annotations

import numpy as np

# Domain tags keep independently-consumed streams disjoint under one seed.
DOMAIN_ANALYSIS = 1
DOMAIN_BRANCHING = 2
DOMAIN_POPDYN = 3
DOMAIN_FOURIER = 4

# Philox advances its counter in blocks of four 64-bit outputs, so row
# widths that are multiples of 4 start every row on a block boundary.
BLOCK = 4


def philox(seed: int, *key: int) -> np.random.Generator:
    """Fresh generator on the Philox stream keyed by (seed, *key)."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def as_generator(rng, *key: int) -> np.random.Generator:
    """rng itself if it is a Generator, philox(rng, *key) if it is an integer seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return philox(int(rng), *key)
    raise ValueError(f"need an rng: a numpy Generator or an integer seed, got {rng!r}")


def padded_width(width: int) -> int:
    """Round a per-row uniform budget up to a counter-block multiple."""
    return -(-width // BLOCK) * BLOCK
