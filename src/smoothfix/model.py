"""Weight models: laws of the complex weight vector (T_1, ..., T_N).

Built-ins cover the two-child exponential-tilt family (BigginsBinary), the
cyclic Polya-urn splitting family (CyclicPolya), and arbitrary finite
discrete laws (Tabular).  Complex powers u^zeta for u in (0, 1) use the
principal branch, u^zeta = exp(zeta * ln u) with ln u real.

Every model exposes two sampling paths.  draw_batch(rng, size) consumes a
free-running generator and may reject degenerate uniforms; it backs the
Monte Carlo moment estimates.  weights_from_uniforms(u) maps a fixed block
of uniforms to weights with no data-dependent consumption, which is what
the counter-aligned population-dynamics streams require; there the single
degenerate uniform u = 0 (probability 2^-53 per draw) is clamped to 2^-53
instead of redrawn.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

_LN2 = math.log(2.0)
_TINY_U = 2.0**-53  # smallest uniform the clamped batch path can emit


class ConfigError(ValueError):
    """Malformed model configuration document."""


@dataclass(frozen=True)
class WeightDraw:
    """One realization (T_1, ..., T_N): nonzero finite weights, N >= 1."""

    weights: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.weights) < 1:
            raise ValueError("a weight draw needs at least one weight")
        for w in self.weights:
            if w == 0:
                raise ValueError("weight draws carry nonzero weights only")
            if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                raise ValueError(f"non-finite weight {w!r}")

    @property
    def n(self) -> int:
        return len(self.weights)


def _logcosh(x: float) -> float:
    # ln cosh x without overflow: |x| + log1p(e^{-2|x|}) - ln 2
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - _LN2


def _exp_or_inf(log_value: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


class BigginsBinary:
    """N = 2 and T_j = exp(-lambda * S_j) / (2 cosh lambda), S_j iid on {+1, -1}."""

    kind = "biggins"
    uniform_budget = 2
    max_children = 2

    def __init__(self, lam: complex):
        lam = complex(lam)
        den = 2.0 * cmath.cosh(lam)
        if abs(den) < 1e-12:
            raise ValueError(f"cosh(lambda) vanishes at lambda = {lam!r}")
        self.lam = lam
        self._t_plus = cmath.exp(-lam) / den
        self._t_minus = cmath.exp(lam) / den
        self._log_abs_cosh = math.log(abs(cmath.cosh(lam)))

    def __repr__(self) -> str:
        return f"BigginsBinary({self.lam!r})"

    def _values_from_u(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # u: (m, 2) uniforms; u < 0.5 selects S = +1
        m = u.shape[0]
        values = np.where(u < 0.5, self._t_plus, self._t_minus).astype(np.complex128)
        return values.reshape(-1), np.full(m, 2, dtype=np.int64)

    def weights_from_uniforms(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._values_from_u(np.asarray(u)[:, : self.uniform_budget])

    def draw_batch(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        return self._values_from_u(rng.random((size, 2)))

    def m_closed_form(self, s: float) -> float:
        a = self.lam.real
        log_m = (1.0 - s) * _LN2 + _logcosh(s * a) - s * self._log_abs_cosh
        return _exp_or_inf(log_m)

    def m_prime_closed_form(self, s: float) -> float:
        a = self.lam.real
        factor = a * math.tanh(s * a) - _LN2 - self._log_abs_cosh
        m = self.m_closed_form(s)
        if math.isinf(m):
            return math.copysign(math.inf, factor) if factor != 0 else 0.0
        return m * factor

    def config(self) -> dict:
        return {
            "type": "biggins",
            "lambda": {"re": self.lam.real, "im": self.lam.imag},
        }


class CyclicPolya:
    """N = 2 with T_1 = U^zeta, T_2 = zeta (1-U)^zeta, zeta = exp(2 pi i / b)."""

    kind = "polya"
    uniform_budget = 1
    max_children = 2

    def __init__(self, b: int):
        integral = isinstance(b, numbers.Integral) or (isinstance(b, float) and b.is_integer())
        if isinstance(b, bool) or not integral or b < 1:
            raise ValueError(f"b must be a positive integer, got {b!r}")
        self.b = int(b)
        self.zeta = cmath.exp(2j * math.pi / self.b)
        self._c = math.cos(2.0 * math.pi / self.b)

    def __repr__(self) -> str:
        return f"CyclicPolya({self.b})"

    def _values_from_u(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # u: (m,) uniforms in (0, 1)
        t1 = np.exp(self.zeta * np.log(u))
        t2 = self.zeta * np.exp(self.zeta * np.log1p(-u))
        values = np.stack([t1, t2], axis=1).reshape(-1)
        return values, np.full(u.shape[0], 2, dtype=np.int64)

    def weights_from_uniforms(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u0 = np.asarray(u)[:, 0]
        return self._values_from_u(np.maximum(u0, _TINY_U))

    def draw_batch(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        u = rng.random(size)
        bad = u == 0.0
        while bad.any():
            u[bad] = rng.random(int(bad.sum()))
            bad = u == 0.0
        return self._values_from_u(u)

    def m_closed_form(self, s: float) -> float:
        # E|T_1|^s + E|T_2|^s = 2 E[U^{sc}] with c = cos(2 pi / b)
        den = 1.0 + s * self._c
        if den <= 0.0:
            return math.inf
        return 2.0 / den

    def m_prime_closed_form(self, s: float) -> float:
        den = 1.0 + s * self._c
        if den <= 0.0:
            return math.inf
        return -2.0 * self._c / (den * den)

    def config(self) -> dict:
        return {"type": "polya", "b": self.b}


class Tabular:
    """Finite discrete law: atom i has probability p_i and a fixed weight tuple."""

    kind = "tabular"
    uniform_budget = 1

    def __init__(self, atoms):
        probs = []
        tuples = []
        for prob, weights in atoms:
            prob = float(prob)
            if not prob > 0.0:
                raise ValueError(f"atom probability must be positive, got {prob}")
            kept = tuple(complex(w) for w in weights if complex(w) != 0)
            for w in kept:
                if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                    raise ValueError(f"non-finite atom weight {w!r}")
            if not kept:
                raise ValueError("atom has no nonzero weights")
            probs.append(prob)
            tuples.append(kept)
        if not probs:
            raise ValueError("at least one atom required")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1")
        self.atoms = tuple(zip(probs, tuples))
        self._probs = np.array(probs)
        self._cum = np.cumsum(self._probs)
        self._cum[-1] = 1.0
        self._lens = np.array([len(t) for t in tuples], dtype=np.int64)
        self._offsets = np.concatenate([[0], np.cumsum(self._lens[:-1])])
        self._flat = np.concatenate([np.array(t, dtype=np.complex128) for t in tuples])
        self.max_children = int(self._lens.max())

    def __repr__(self) -> str:
        return f"Tabular({len(self.atoms)} atoms)"

    def _values_from_u(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.minimum(np.searchsorted(self._cum, u, side="right"), len(self._cum) - 1)
        counts = self._lens[idx]
        total = int(counts.sum())
        # ragged gather of each selected atom's weight run
        ends = np.cumsum(counts)
        within = np.arange(total) - np.repeat(ends - counts, counts)
        values = self._flat[np.repeat(self._offsets[idx], counts) + within]
        return values, counts

    def weights_from_uniforms(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._values_from_u(np.asarray(u)[:, 0])

    def draw_batch(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        return self._values_from_u(rng.random(size))

    def m_closed_form(self, s: float) -> float:
        log_abs = np.log(np.abs(self._flat))
        with np.errstate(over="ignore"):
            powers = np.exp(s * log_abs)
        per_atom = np.add.reduceat(powers, self._offsets)
        return float(self._probs @ per_atom)

    def m_prime_closed_form(self, s: float) -> float:
        log_abs = np.log(np.abs(self._flat))
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.exp(s * log_abs) * log_abs
        per_atom = np.add.reduceat(terms, self._offsets)
        return float(self._probs @ per_atom)

    def config(self) -> dict:
        return {
            "type": "tabular",
            "atoms": [
                {"prob": p, "weights": [[w.real, w.imag] for w in ws]}
                for p, ws in self.atoms
            ],
        }


def draw_weights(model, rng: np.random.Generator) -> WeightDraw:
    """Draw one weight vector from the model."""
    values, counts = model.draw_batch(rng, 1)
    return WeightDraw(tuple(complex(v) for v in values[: counts[0]]))


def _parse_complex(obj, where: str) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, dict):
        if set(obj) == {"re", "im"}:
            return complex(float(obj["re"]), float(obj["im"]))
        if set(obj) == {"modulus", "arg"}:
            return cmath.rect(float(obj["modulus"]), float(obj["arg"]))
    raise ConfigError(
        f"{where}: expected a number, {{'re', 'im'}}, or {{'modulus', 'arg'}}, got {obj!r}"
    )


def _parse_atom(atom, where: str) -> tuple[float, list[complex]]:
    """One tabular atom: {"prob": p, "weights": [...]} or the list form [p, [...]].

    A weight is a number, {"re", "im"}, {"modulus", "arg"} or an [re, im] pair.
    """
    if isinstance(atom, dict):
        prob, weights = atom["prob"], atom["weights"]
    elif isinstance(atom, list) and len(atom) == 2:
        prob, weights = atom
    else:
        raise ConfigError(f"{where}: expected {{'prob', 'weights'}} or [prob, weights], "
                          f"got {atom!r}")
    parsed = []
    for w in weights:
        if not isinstance(w, list):
            parsed.append(_parse_complex(w, f"{where}.weights"))
        elif len(w) == 2:
            parsed.append(complex(float(w[0]), float(w[1])))
        else:
            raise ConfigError(f"{where}.weights: expected an [re, im] pair, got {w!r}")
    return float(prob), parsed


def model_from_config(doc: dict):
    """Build a model from a configuration document ({"model": {...}} or the inner dict)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    inner = doc.get("model", doc)
    if not isinstance(inner, dict) or "type" not in inner:
        raise ConfigError("config needs a 'model' object with a 'type' field")
    kind = inner["type"]
    try:
        if kind == "biggins":
            return BigginsBinary(_parse_complex(inner["lambda"], "model.lambda"))
        if kind == "polya":
            return CyclicPolya(inner["b"])
        if kind == "tabular":
            return Tabular([_parse_atom(atom, f"model.atoms[{i}]")
                            for i, atom in enumerate(inner["atoms"])])
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"model config missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model config: {exc}") from exc
    raise ConfigError(f"unknown model type {kind!r}")


def model_to_config(model) -> dict:
    return {"model": model.config()}


def fingerprint(model) -> str:
    """Short stable digest of the model configuration."""
    blob = json.dumps(model.config(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
