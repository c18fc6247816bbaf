"""Weight models: laws of the complex weight vector (T_1, ..., T_N).

Built-ins cover the two-child exponential-tilt family (BigginsBinary), the
cyclic Polya-urn splitting family (CyclicPolya), and arbitrary finite
discrete laws (Tabular).  Complex powers u^zeta for u in (0, 1) use the
principal branch, u^zeta = exp(zeta * ln u) with ln u real.

Every model has one sampling path.  weights_from_uniforms(u) maps a block
of uniform_budget uniforms per row to one weight vector per row, with no
data-dependent consumption, which is what the counter-aligned
population-dynamics streams require.  draw_batch(rng, size) feeds it
rng.random((size, uniform_budget)) and backs the Monte Carlo moment
estimates, the branching trees and the residual draws.  The degenerate
uniform u = 0 (probability 2^-53 per draw) is clamped to 2^-53, never
redrawn.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import numbers
import sys

import numpy as np

_LN2 = math.log(2.0)
_TINY_U = 2.0**-53  # smallest positive uniform; polya clamps u = 0 to it


class ConfigError(ValueError):
    """Malformed model configuration document."""


def _logcosh(x: float) -> float:
    # ln cosh x without overflow: |x| + log1p(e^{-2|x|}) - ln 2
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - _LN2


def _exp_or_inf(log_value: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


class _WeightModel:
    """Draws weight vectors by mapping fresh uniforms through weights_from_uniforms."""

    def draw_batch(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """(values, counts) for `size` weight vectors; values are concatenated."""
        return self.weights_from_uniforms(rng.random((size, self.uniform_budget)))


class BigginsBinary(_WeightModel):
    """N = 2 and T_j = exp(-lambda * S_j) / (2 cosh lambda), S_j iid on {+1, -1}."""

    kind = "biggins"
    uniform_budget = 2
    max_children = 2

    def __init__(self, lam: complex):
        lam = complex(lam)
        if not cmath.isfinite(lam):
            raise ValueError(f"lambda must be finite, got {lam!r}")
        try:
            den = 2.0 * cmath.cosh(lam)
            t_plus, t_minus = cmath.exp(-lam) / den, cmath.exp(lam) / den
        except OverflowError:  # cosh or exp overflowed
            den = complex(math.inf)
        if not cmath.isfinite(den):
            raise ValueError(f"lambda is out of range: cosh(lambda) overflows at lambda = {lam!r}")
        if abs(den) < 1e-12:
            raise ValueError(f"cosh(lambda) vanishes at lambda = {lam!r}")
        self.lam = lam
        self._t_plus = t_plus
        self._t_minus = t_minus
        self._log_abs_cosh = math.log(abs(cmath.cosh(lam)))

    def __repr__(self) -> str:
        return f"BigginsBinary({self.lam!r})"

    def weights_from_uniforms(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # u: (m, 2) uniforms; u < 0.5 selects S = +1
        u = np.asarray(u)[:, : self.uniform_budget]
        values = np.where(u < 0.5, self._t_plus, self._t_minus).astype(np.complex128)
        return values.reshape(-1), np.full(u.shape[0], 2, dtype=np.int64)

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


class CyclicPolya(_WeightModel):
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

    def weights_from_uniforms(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # first column: uniforms in [0, 1), with 0 clamped into (0, 1)
        u = np.maximum(np.asarray(u)[:, 0], _TINY_U)
        t1 = np.exp(self.zeta * np.log(u))
        t2 = self.zeta * np.exp(self.zeta * np.log1p(-u))
        values = np.stack([t1, t2], axis=1).reshape(-1)
        return values, np.full(u.shape[0], 2, dtype=np.int64)

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


class Tabular(_WeightModel):
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

    def weights_from_uniforms(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = np.asarray(u)[:, 0]
        idx = np.minimum(np.searchsorted(self._cum, u, side="right"), len(self._cum) - 1)
        counts = self._lens[idx]
        # row i takes the first counts[i] entries of its atom's run in _flat
        cols = np.arange(self.max_children)
        values = self._flat[(self._offsets[idx][:, None] + cols)[cols < counts[:, None]]]
        return values, counts

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


def _number(x, where: str) -> float:
    """A finite JSON number; strings, booleans, NaN and infinities are rejected."""
    # abs(x) <= max is false for NaN, infinities and integers beyond float range
    if isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max:
        return float(x)
    raise ConfigError(f"{where}: expected a finite number, got {x!r}")


def _parse_complex(obj, where: str) -> complex:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return complex(_number(obj, where))
    if isinstance(obj, dict):
        if set(obj) == {"re", "im"}:
            return complex(_number(obj["re"], where), _number(obj["im"], where))
        if set(obj) == {"modulus", "arg"}:
            return cmath.rect(_number(obj["modulus"], where), _number(obj["arg"], where))
    raise ConfigError(
        f"{where}: expected a number, {{'re', 'im'}}, or {{'modulus', 'arg'}}, got {obj!r}"
    )


def _reject_extra_fields(obj: dict, fields: tuple, where: str) -> None:
    extra = [key for key in obj if key not in fields]
    if extra:
        raise ConfigError(f"{where}: unexpected field {extra[0]!r}")


def _parse_atom(atom, where: str) -> tuple[float, list[complex]]:
    """One tabular atom: {"prob": p, "weights": [...]} or the list form [p, [...]].

    A weight is a number, {"re", "im"}, {"modulus", "arg"} or an [re, im] pair.
    """
    if isinstance(atom, dict):
        _reject_extra_fields(atom, ("prob", "weights"), where)
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
            parsed.append(complex(_number(w[0], f"{where}.weights"),
                                  _number(w[1], f"{where}.weights")))
        else:
            raise ConfigError(f"{where}.weights: expected an [re, im] pair, got {w!r}")
    return _number(prob, f"{where}.prob"), parsed


def model_from_config(doc: dict):
    """Build a model from a configuration document ({"model": {...}} or the inner dict)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    if "model" in doc:
        _reject_extra_fields(doc, ("model",), "config")
    inner = doc.get("model", doc)
    if not isinstance(inner, dict) or "type" not in inner:
        raise ConfigError("config needs a 'model' object with a 'type' field")
    kind = inner["type"]
    fields = {"biggins": "lambda", "polya": "b", "tabular": "atoms"}
    if not isinstance(kind, str) or kind not in fields:
        raise ConfigError(f"unknown model type {kind!r}")
    _reject_extra_fields(inner, ("type", fields[kind]), "model")
    try:
        if kind == "biggins":
            return BigginsBinary(_parse_complex(inner["lambda"], "model.lambda"))
        if kind == "polya":
            return CyclicPolya(inner["b"])
        return Tabular([_parse_atom(atom, f"model.atoms[{i}]")
                        for i, atom in enumerate(inner["atoms"])])
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"model config missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad model config: {exc}") from exc


def model_to_config(model) -> dict:
    return {"model": model.config()}


def fingerprint(model) -> str:
    """Short stable digest of the model configuration."""
    blob = json.dumps(model.config(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
