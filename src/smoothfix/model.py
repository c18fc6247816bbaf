"""Weight models: laws of the complex weight vector (T_1, ..., T_N).

Built-ins cover the two-child exponential-tilt family (BigginsBinary), the
cyclic Polya-urn splitting family (CyclicPolya), and arbitrary finite
discrete laws (Tabular).  Complex powers u^zeta for u in (0, 1) use the
principal branch, u^zeta = exp(zeta * ln u) with ln u real.

Every model has one sampling path.  weights_from_uniforms(u) maps a block
of uniform_budget uniforms per row to one weight vector per row, with no
data-dependent consumption, which is what the counter-aligned
population-dynamics streams require.  draw_batch(rng, size) feeds it
rng.random((size, uniform_budget)) and backs find_alpha's Monte Carlo
path, the branching trees and the residual draws; _draw_counts(rng,
size) feeds the same draw to a private counts map, which gives the
children counts of weights_from_uniforms without building the weights
(the branching generator counts a generation that may cross its node
budget this way).  The degenerate uniform u = 0 (probability 2^-53 per
draw) is clamped to 2^-53, never redrawn.

Every model also has one expectation rule, _expectation_rule() ->
(probs, values, counts): rows laid out as draw_batch lays them out, with
E g(T_1, ..., T_N) = sum_k probs[k] g(row k).  It is exact for
BigginsBinary (its four sign pairs) and Tabular (its atoms).  CyclicPolya
uses the tanh-sinh rule in U (Takahasi & Mori 1974) with step 1/64 on
|t| <= 4: at b = 5, 7, 8, 9 and 12 its 406 nodes inside (0, 1) give m(2)
and the Beta moments E[U^a (1-U)^c] within 3e-16, and the report's A4
statistic, which has a kink at |Z_1| = 1, within 1.1e-6 relative of step
1/4096.  m(s) = E sum_j |T_j|^s and m'(s) are the rule's finite sums,
exact for BigginsBinary and Tabular.  BigginsBinary's rule takes log|T_-|
and log|T_+| from lambda, not from the rounded weights: for real lambda
past about 20, T_- rounds to 1 while log|T_-| does not round to 0.
CyclicPolya keeps closed forms: its E U^{sc}, c = cos(2 pi / b), diverges
at s c <= -1, which no quadrature rule can see.

BigginsBinary and Tabular map uniforms through tables.  Biggins takes
each weight from the 2-entry table (T_-, T_+), indexed by u < 0.5.
Tabular selects a row's atom as k - 1 less the number of the k - 1
cumulative thresholds above its uniform, which is
searchsorted(side="right") on the cumulative probabilities.  The
comparisons cost O(k) per row: on 2^16 random uniforms (2 vCPUs, numpy
2.4.6) they took 0.07 ms at 2 atoms against 1.3 ms for searchsorted,
but 48 ms at 1000 atoms against 5.5 ms.  It then gathers the row's run
of the atom's weights in _flat through one index array, which steps by
1 inside a row and jumps to the next row's run at each row's first
child.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import json
import math
import numbers
import sys

import numpy as np

_TINY_U = 2.0**-53  # smallest positive uniform; polya clamps u = 0 to it


class ConfigError(ValueError):
    """Malformed model configuration document."""


def _tanh_sinh_uniforms(step: float) -> tuple[np.ndarray, np.ndarray]:
    # (probs, u) with E f(U) = sum_k probs[k] f(u[k]) for U uniform on (0, 1):
    # u = (1 + tanh g) / 2, g = pi/2 sinh t on t = k step, |t| <= 4, weight step du/dt
    t = np.arange(-round(4.0 / step), round(4.0 / step) + 1) * step
    g = 0.5 * math.pi * np.sinh(t)
    u = 0.5 * (1.0 + np.tanh(g))
    probs = step * 0.25 * math.pi * np.cosh(t) / np.cosh(g) ** 2
    inside = (u > 0.0) & (u < 1.0)  # drop the nodes that round to 0 or 1
    return probs[inside], u[inside]


class _DrawTable:
    """A rule's or drawn weight vectors as rows, laid out as draw_batch returns them, for any s."""

    def __init__(self, values: np.ndarray, counts: np.ndarray, log_abs: np.ndarray | None = None):
        """log_abs, when given, is log|T| known better than from the values; the table takes it over."""
        self.values = values
        self.counts = counts
        self.offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
        self._zeros = np.flatnonzero(values == 0)
        with np.errstate(divide="ignore"):
            self.log_abs = np.log(np.abs(values)) if log_abs is None else log_abs
        self.log_abs[self._zeros] = -np.inf  # a weight that rounds to 0 counts as 0

    def seg_sum(self, flat: np.ndarray) -> np.ndarray:
        return np.add.reduceat(flat, self.offsets)

    def m_hat(self, s: float) -> np.ndarray:
        """Per-row sums sum_j |T_j|^s, with 0^0 = 1; may contain inf for huge s."""
        with np.errstate(over="ignore", invalid="ignore"):  # finite powers may sum past max
            powers = np.exp(s * self.log_abs)
            powers[self._zeros] = s == 0.0  # s ln 0 is nan at s = 0
            return self.seg_sum(powers)

    def m_hat_prime(self, s: float) -> np.ndarray:
        """Per-row sums sum_j |T_j|^s ln|T_j|, with 0^s ln 0 taken as 0."""
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.exp(s * self.log_abs) * self.log_abs
            terms[self._zeros] = 0.0
            return self.seg_sum(terms)


class _WeightModel:
    """Draws weight vectors by mapping fresh uniforms through weights_from_uniforms."""

    def draw_batch(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """(values, counts) for `size` weight vectors; values are concatenated."""
        return self.weights_from_uniforms(rng.random((size, self.uniform_budget)))

    def _draw_counts(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The counts of draw_batch(rng, size), from the same uniforms, without the weights."""
        return self._counts_from_uniforms(rng.random((size, self.uniform_budget)))

    def _counts_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        # every row has max_children children unless a model says otherwise
        return np.full(np.shape(u)[0], self.max_children, dtype=np.int64)

    @functools.cached_property
    def _rule_table(self) -> tuple[np.ndarray, _DrawTable]:
        """(probs, table): the expectation rule's weights and rows."""
        probs, values, counts = self._expectation_rule()
        return probs, _DrawTable(values, counts, self._rule_log_abs(values))

    def _rule_log_abs(self, values: np.ndarray) -> np.ndarray | None:
        """log|T| of the rule's weights where the model knows it exactly; None takes it from values."""
        return None

    @functools.cached_property
    def _rule_moduli(self) -> tuple[np.ndarray, np.ndarray]:
        """(log w, l): the rule's distinct log-moduli l, each with its total probability w."""
        probs, table = self._rule_table
        moduli, at = np.unique(table.log_abs, return_inverse=True)
        return np.log(np.bincount(at, np.repeat(probs, table.counts))), moduli

    def m_closed_form(self, s: float) -> float:
        """m(s) = E sum_j |T_j|^s under the expectation rule; inf when a row sum overflows."""
        probs, table = self._rule_table
        return float(probs @ table.m_hat(s))

    def log_m_closed_form(self, s: float) -> float:
        """log m(s) for s > 0, a log-sum-exp over the rule's distinct moduli.

        It keeps its sign where m(s) - 1 is below rounding: for real
        biggins lambda, |T_-|^s reads 1 and log|T_-| does not.
        """
        log_w, moduli = self._rule_moduli
        x = log_w + s * moduli
        top = int(x.argmax())
        return float(x[top] + np.log1p(np.exp(np.delete(x, top) - x[top]).sum()))

    def m_prime_closed_form(self, s: float) -> float:
        """m'(s) = E sum_j |T_j|^s ln|T_j| under the expectation rule."""
        probs, table = self._rule_table
        return float(probs @ table.m_hat_prime(s))


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
        self._table = np.array([t_minus, t_plus])  # indexed by u < 0.5
        # log|T_-| and log|T_+| from lambda = a + ib, without forming cosh:
        # |2 cosh lambda| = e^|a| sqrt(y), y = 1 + 2 cos(2b) e^{-2|a|} + e^{-4|a|}
        # = expm1(-2|a|)^2 + 4 e^{-2|a|} cos(b)^2.  log1p keeps a y near 1
        # (large |a|); near a zero of cosh, where y is small, 1 + x cancels
        # and the sum of squares does not.
        a = abs(lam.real)
        y = math.expm1(-2.0 * a) ** 2 + 4.0 * math.exp(-2.0 * a) * math.cos(lam.imag) ** 2
        if y < 0.5:
            r = 0.5 * math.log(y)
        else:
            r = 0.5 * math.log1p(2.0 * math.cos(2.0 * lam.imag) * math.exp(-2.0 * a) + math.exp(-4.0 * a))
        near, far = -r, -2.0 * a - r
        self._log_moduli = (near, far) if lam.real >= 0.0 else (far, near)

    def __repr__(self) -> str:
        return f"BigginsBinary({self.lam!r})"

    def weights_from_uniforms(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # u: (m, 2) uniforms; u < 0.5 selects S = +1
        u = np.asarray(u)[:, : self.uniform_budget]
        values = np.take(self._table, u < 0.5)
        return values.reshape(-1), self._counts_from_uniforms(u)

    def _expectation_rule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the four sign pairs, each with probability 1/4
        u = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
        return (np.full(4, 0.25), *self.weights_from_uniforms(u))

    def _rule_log_abs(self, values: np.ndarray) -> np.ndarray:
        # T_+ = T_- only where a = 0, and there the two moduli agree
        return np.where(values == self._table[1], self._log_moduli[1], self._log_moduli[0])

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
        return values, self._counts_from_uniforms(u)

    def _expectation_rule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        probs, u = _tanh_sinh_uniforms(1.0 / 64.0)
        return (probs, *self.weights_from_uniforms(u[:, None]))

    def m_closed_form(self, s: float) -> float:
        # E|T_1|^s + E|T_2|^s = 2 E[U^{sc}] with c = cos(2 pi / b)
        den = 1.0 + s * self._c
        return 2.0 / den if den > 0.0 else math.inf

    def m_prime_closed_form(self, s: float) -> float:
        den = 1.0 + s * self._c
        return -2.0 * self._c / (den * den) if den > 0.0 else math.inf

    def log_m_closed_form(self, s: float) -> float:
        return math.log(self.m_closed_form(s))

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

    def _atoms_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        # the atom each row's first uniform selects: k - 1 less the number of
        # thresholds cum[:-1] above u, which is searchsorted(side="right"),
        # NaN included
        u = np.asarray(u)[:, 0]
        idx = np.full(u.shape[0], len(self._cum) - 1, dtype=np.int64)
        for threshold in self._cum[:-1]:
            idx -= u < threshold
        return idx

    def _counts_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return self._lens[self._atoms_from_uniforms(u)]

    def weights_from_uniforms(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = self._atoms_from_uniforms(u)
        del u
        counts = self._lens[idx]
        first = self._offsets[idx]  # each row's run in _flat starts here
        del idx
        # row i takes the first counts[i] entries of its run: the gather index
        # steps by 1 inside a row and jumps at each row's first child, from the
        # previous row's last entry first[i - 1] + counts[i - 1] - 1
        ends = np.cumsum(counts)
        at = np.ones(int(counts.sum()), dtype=np.int64)
        at[:1] = first[:1]
        at[ends[:-1]] = first[1:] - first[:-1] - counts[:-1] + 1
        del first, ends
        np.cumsum(at, out=at)
        return self._flat[at], counts

    def _expectation_rule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._probs, self._flat, self._lens

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
