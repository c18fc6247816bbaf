"""Moment analysis of weight models.

Computes the characteristic exponent alpha solving m(alpha) = 1 for
m(s) = E[sum_j |T_j|^s], and an assumption report covering
supercriticality (A1), existence of alpha (A2), the negative-drift and
W_1 log W_1 conditions (A3), the |Z_1|^alpha log-moment condition (A4),
the offspring second-moment conditions (C1), and a support probe for the
fixed point (Z1).  The report's thresholds are fixed: alpha is searched in
(0, 10] and bisected to width 1e-9, A4 uses eps = 0.1, the support class
is read from the first 10^4 draws, and Z1 passes when a 2000-sample,
10-generation pool has an imaginary-part spread above 1e-6.

alpha and m'(alpha) come from the model's closed forms.  Monte Carlo
paths (the report's moments, find_alpha with method="monte_carlo") reuse
one table of weight draws across all s, so estimated curves are smooth
convex functions of s and bisection on them is well posed.  Moment
finiteness is never provable from samples; it is flagged "pass" when the
estimate stabilizes (relative change over the last doubling of the sample
at most 5%) and "indeterminate" otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import popdyn
from .model import fingerprint
from .rng import DOMAIN_ANALYSIS, as_generator, philox

DENSITY_ALPHA_RANGE = (1.0, 2.0)  # absolute-continuity results need alpha in (1, 2]

_S_MAX = 10.0  # alpha is the smallest root of m(s) = 1 in (0, _S_MAX]
_TOL = 1e-9  # bisection bracket width for alpha
_EPS = 0.1  # the epsilon in E[|Z_1|^alpha log_+^{2+eps} |Z_1|]
_STABLE_REL = 0.05  # max relative change over the last sample doubling
_SUPPORT_DRAWS = 10_000
_Z_POOL_SIZE = 2_000
_Z_GENERATIONS = 10
_Z_IM_THRESHOLD = 1e-6


class SubcriticalMeanError(ValueError):
    """Raised when m(0) = E[N] <= 1: no supercritical branching, no exponent."""

    def __init__(self, m0: float):
        super().__init__(
            f"subcritical mean: m(0) = E[N] = {m0!r} <= 1, no characteristic exponent"
        )
        self.m0 = m0


class EstimateOverflowError(ArithmeticError):
    """A Monte Carlo moment overflowed; the estimate is indeterminate."""


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    stderr: float
    n_samples: int
    method: str  # always "monte_carlo"; the report schema keeps the field


@dataclass(frozen=True)
class AlphaResult:
    alpha: float | None
    stderr: float
    multiple_roots: bool
    method: str
    m0: float


class _DrawTable:
    """One batch of weight draws, reusable across every s-dependent statistic."""

    def __init__(self, model, n: int, rng: np.random.Generator):
        if n < 2:
            raise ValueError(f"Monte Carlo estimates need at least 2 draws, got {n}")
        values, counts = model.draw_batch(rng, n)
        self.n = n
        self.values = values
        self.counts = counts
        self.offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
        self.log_abs = np.log(np.abs(values))

    def seg_sum(self, flat: np.ndarray) -> np.ndarray:
        return np.add.reduceat(flat, self.offsets)

    def m_hat(self, s: float) -> np.ndarray:
        """Per-draw sums sum_j |T_j|^s; may contain inf for huge s."""
        with np.errstate(over="ignore"):
            return self.seg_sum(np.exp(s * self.log_abs))

    def m_hat_prime(self, s: float) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.seg_sum(np.exp(s * self.log_abs) * self.log_abs)


def _mean_with_se(per_draw: np.ndarray, what: str) -> MomentEstimate:
    if not np.isfinite(per_draw).all():
        bad = int(np.flatnonzero(~np.isfinite(per_draw))[0])
        raise EstimateOverflowError(
            f"{what}: non-finite contribution at draw {bad}; "
            "the moment is indeterminate at this order"
        )
    n = per_draw.shape[0]
    mean = float(per_draw.mean())
    se = float(per_draw.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MomentEstimate(mean, se, n, "monte_carlo")


def _scan_grid() -> np.ndarray:
    # geometric scan from 2^-6 up to _S_MAX, ratio 2^(1/8)
    lo, ratio = 2.0**-6, 2.0 ** (1.0 / 8.0)
    k = int(math.ceil(math.log(_S_MAX / lo) / math.log(ratio)))
    grid = lo * ratio ** np.arange(k + 1)
    grid[-1] = _S_MAX
    return grid


def find_alpha(model, n: int = 100_000, rng=None, method: str = "closed_form") -> AlphaResult:
    """Locate the characteristic exponent: the smallest root of m(s) = 1 in (0, 10].

    Scans a geometric grid for a sign change of m - 1 and bisects the
    bracket down to width 1e-9.  m is convex, so there are at most two
    roots; if m has returned above 1 by s = 10 the result carries
    multiple_roots = True and alpha is the smaller root.  method is
    "closed_form" (the model's m) or "monte_carlo" (the mean over n weight
    draws from rng, an rng or an integer seed, with a delta-method stderr).
    """
    if method == "closed_form":
        table = None
        m_of = model.m_closed_form
        m0 = float(m_of(0.0))
    elif method == "monte_carlo":
        table = _DrawTable(model, n, as_generator(rng, DOMAIN_ANALYSIS, 0))
        m0 = float(table.counts.mean())

        def m_of(s: float) -> float:
            return float(table.m_hat(s).mean())
    else:
        raise ValueError(f"unknown method {method!r}")

    if not m0 > 1.0:
        raise SubcriticalMeanError(m0)

    grid = _scan_grid()
    lo = 0.0
    hi = None
    for s in grid:
        if m_of(float(s)) - 1.0 <= 0.0:
            hi = float(s)
            break
        lo = float(s)
    if hi is None:
        return AlphaResult(None, 0.0, False, method, m0)

    for _ in range(200):
        if hi - lo <= _TOL:
            break
        mid = 0.5 * (lo + hi)
        if m_of(mid) - 1.0 <= 0.0:
            hi = mid
        else:
            lo = mid
    alpha = 0.5 * (lo + hi)

    multiple = (_S_MAX - alpha) > 10.0 * _TOL and m_of(_S_MAX) >= 1.0 - 1e-12

    stderr = 0.0
    if table is not None:
        # delta method: se(alpha) ~= se(m_hat(alpha)) / |m_hat'(alpha)|
        per_draw = table.m_hat(alpha)
        se_m = float(per_draw.std(ddof=1) / math.sqrt(table.n))
        slope = float(table.m_hat_prime(alpha).mean())
        stderr = se_m / abs(slope) if slope != 0.0 else math.inf
    return AlphaResult(alpha, stderr, multiple, method, m0)


@dataclass(frozen=True)
class AssumptionReport:
    m0: float
    alpha: float | None
    alpha_stderr: float
    alpha_in_density_range: bool
    multiple_roots: bool
    m_prime_alpha: float | None
    w1_loglog: MomentEstimate | None
    a4_moment: MomentEstimate | None
    c1_n2: MomentEstimate | None
    c1_cross: MomentEstimate | None
    support_class: str
    z_im_dispersion: float
    flags: dict
    model_fingerprint: str
    seed: int
    n_samples: int


def _stable(est: MomentEstimate, est_half: MomentEstimate) -> bool:
    a, b = est.value, est_half.value
    if a == b:
        return True
    return abs(a - b) <= _STABLE_REL * max(abs(a), 1e-300)


def _support_class(values: np.ndarray) -> str:
    if (values.imag == 0.0).all():
        return "positive_real" if (values.real > 0.0).all() else "real"
    return "complex"


def check_assumptions(model, n_samples: int = 100_000, seed: int = 0) -> AssumptionReport:
    """Evaluate A1-A4, C1, and the fixed-point support probe for a model.

    All randomness is keyed off seed; the report is a deterministic
    function of (model, n_samples, seed).
    """
    flags: dict[str, str] = {}
    table = _DrawTable(model, n_samples, philox(seed, DOMAIN_ANALYSIS, 2))
    half = slice(0, n_samples // 2)

    def estimate(per_draw: np.ndarray, what: str):
        """(estimate, flag) with the stabilization heuristic; overflow -> indeterminate."""
        try:
            full = _mean_with_se(per_draw, what)
            part = _mean_with_se(per_draw[half], what)
        except EstimateOverflowError:
            return None, "indeterminate"
        ok = _stable(full, part)
        return full, ("pass" if ok else "indeterminate")

    # A1 / A2: supercriticality and the exponent
    alpha_res: AlphaResult | None = None
    try:
        alpha_res = find_alpha(model)
        m0 = alpha_res.m0
    except SubcriticalMeanError as exc:
        m0 = exc.m0
    alpha = alpha_res.alpha if alpha_res is not None else None
    flags["A1"] = "pass" if m0 > 1.0 else "fail"
    flags["A2"] = "pass" if alpha is not None else "fail"

    m_prime_alpha = None
    w1_est = a4_est = None
    if alpha is not None:
        m_prime_alpha = float(model.m_prime_closed_form(alpha))

        # A3: negative drift and E[W_1 log_+ W_1] < inf, W_1 = sum |T_j|^alpha
        w1 = table.m_hat(alpha)
        w1_est, w1_flag = estimate(w1 * np.log(np.maximum(w1, 1.0)), "W1 log+ W1")
        if not m_prime_alpha < 0.0:
            flags["A3"] = "fail"
        else:
            flags["A3"] = w1_flag

        # A4: m'(alpha) <= 0 and E[|Z_1|^alpha log_+^{2+eps} |Z_1|] < inf
        z1_abs = np.abs(table.seg_sum(table.values))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a4_stat = np.where(
                z1_abs > 0.0,
                z1_abs**alpha * np.log(np.maximum(z1_abs, 1.0)) ** (2.0 + _EPS),
                0.0,
            )
        a4_est, a4_flag = estimate(a4_stat, "|Z1|^alpha log moment")
        if m_prime_alpha > 0.0:
            flags["A4"] = "fail"
        else:
            flags["A4"] = a4_flag
    else:
        flags["A3"] = "indeterminate"
        flags["A4"] = "indeterminate"

    # C1: E[N^2] < inf and E[N sum_j log_+ |T_j|] < inf
    nvec = table.counts.astype(np.float64)
    n2_est, n2_flag = estimate(nvec**2, "N^2")
    cross = nvec * table.seg_sum(np.maximum(table.log_abs, 0.0))
    cross_est, cross_flag = estimate(cross, "N sum log+ |T|")
    order = {"pass": 0, "indeterminate": 1, "fail": 2}
    flags["C1"] = max(n2_flag, cross_flag, key=order.__getitem__)

    # weight support class from the first draws of the table
    k = min(_SUPPORT_DRAWS, n_samples)
    support = _support_class(table.values[: int(table.offsets[k - 1] + table.counts[k - 1])])

    # Z1: the fixed point should not concentrate on the real line
    z_seed = int(np.random.SeedSequence(seed, spawn_key=(DOMAIN_ANALYSIS, 99)).generate_state(1, np.uint64)[0])
    z_run = popdyn.run(model, n=_Z_POOL_SIZE, K=_Z_GENERATIONS, seed=z_seed)
    z_disp = float(z_run.pool.samples.imag.std())
    flags["Z1"] = "pass" if z_disp > _Z_IM_THRESHOLD else "fail"

    in_range = alpha is not None and DENSITY_ALPHA_RANGE[0] < alpha <= DENSITY_ALPHA_RANGE[1]
    return AssumptionReport(
        m0=m0,
        alpha=alpha,
        alpha_stderr=alpha_res.stderr if alpha_res is not None else 0.0,
        alpha_in_density_range=in_range,
        multiple_roots=alpha_res.multiple_roots if alpha_res is not None else False,
        m_prime_alpha=m_prime_alpha,
        w1_loglog=w1_est,
        a4_moment=a4_est,
        c1_n2=n2_est,
        c1_cross=cross_est,
        support_class=support,
        z_im_dispersion=z_disp,
        flags=flags,
        model_fingerprint=fingerprint(model),
        seed=seed,
        n_samples=n_samples,
    )
