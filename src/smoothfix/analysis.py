"""Moment analysis of weight models.

Computes the characteristic exponent alpha solving m(alpha) = 1 for
m(s) = E[sum_j |T_j|^s], and an assumption report covering
supercriticality (A1), existence of alpha (A2), the negative-drift and
W_1 log W_1 conditions (A3), the |Z_1|^alpha log-moment condition (A4),
the offspring second-moment conditions (C1), and a support probe for the
fixed point (Z1).  The report's thresholds are fixed: alpha is searched in
(0, 10] and bisected to width 1e-9, A4 uses eps = 0.1, and Z1 passes when
a 2000-sample, 10-generation pool has an imaginary-part spread above 1e-6.

m and m', and so alpha and m'(alpha), are exact finite sums over the
atoms of the model's expectation rule for biggins and tabular, and closed
forms for polya, whose quadrature rule cannot see where m diverges.  The
report's moments and support class are expectations under the same rule,
model._rule_table; a moment is flagged "pass" when finite and
"indeterminate", with the value null, when it overflows.
find_alpha(method="closed_form") bisects on the sign of log m(s), a
log-sum-exp over the rule's distinct moduli: for real biggins lambda
past about 20, T_- rounds to 1 and m(s) - 1 reads 0 past some s < 1,
while log|T_-|, taken from lambda, keeps the sign.  Where m'(alpha)
rounds to 0 (biggins at lambda = 700, where log|T_-| underflows too),
m is flat at 1 in floating point and no root can be told: the report
gives alpha as null and A2 as "indeterminate".
find_alpha(method="monte_carlo") averages over one table of weight
draws reused across all s, so its curve is a smooth convex function of
s and bisection on it is well posed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import popdyn
from .model import _DrawTable, fingerprint
from .rng import DOMAIN_ANALYSIS, as_generator

DENSITY_ALPHA_RANGE = (1.0, 2.0)  # absolute-continuity results need alpha in (1, 2]

_S_MAX = 10.0  # alpha is the smallest root of m(s) = 1 in (0, _S_MAX]
_TOL = 1e-9  # bisection bracket width for alpha
_EPS = 0.1  # the epsilon in E[|Z_1|^alpha log_+^{2+eps} |Z_1|]
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


@dataclass(frozen=True)
class AlphaResult:
    alpha: float | None
    stderr: float
    multiple_roots: bool
    method: str
    m0: float


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
    bracket down to width 1e-9; the closed form takes the sign from log m,
    which keeps it where m - 1 is below rounding.  m is convex, so there are at most two
    roots; if m is back at or above 1 at s = 10, by the sign of the
    excess with no tolerance, the result carries multiple_roots = True
    and alpha is the smaller root.  method is "closed_form" (the model's
    m) or "monte_carlo" (the mean over n weight draws from rng, an rng or
    an integer seed, with a delta-method stderr).
    """
    if method == "closed_form":
        table = None
        excess = model.log_m_closed_form
        m0 = float(model.m_closed_form(0.0))
    elif method == "monte_carlo":
        rng = as_generator(rng, DOMAIN_ANALYSIS, 0)
        if n < 2:
            raise ValueError(f"Monte Carlo estimates need at least 2 draws, got {n}")
        table = _DrawTable(*model.draw_batch(rng, n))
        m0 = float(table.counts.mean())

        def excess(s: float) -> float:
            return float(table.m_hat(s).mean()) - 1.0
    else:
        raise ValueError(f"unknown method {method!r}")

    if not m0 > 1.0:
        raise SubcriticalMeanError(m0)

    grid = _scan_grid()
    lo = 0.0
    hi = None
    for s in grid:
        if excess(float(s)) <= 0.0:
            hi = float(s)
            break
        lo = float(s)
    if hi is None:
        return AlphaResult(None, 0.0, False, method, m0)

    for _ in range(200):
        if hi - lo <= _TOL:
            break
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    alpha = 0.5 * (lo + hi)

    multiple = (_S_MAX - alpha) > 10.0 * _TOL and excess(_S_MAX) >= 0.0

    stderr = 0.0
    if table is not None:
        # delta method: se(alpha) ~= se(m_hat(alpha)) / |m_hat'(alpha)|
        per_draw = table.m_hat(alpha)
        se_m = float(per_draw.std(ddof=1) / math.sqrt(n))
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
    w1_loglog: float | None
    a4_moment: float | None
    c1_n2: float | None
    c1_cross: float | None
    support_class: str
    z_im_dispersion: float
    flags: dict
    model_fingerprint: str
    seed: int


def _support_class(values: np.ndarray) -> str:
    if (values.imag == 0.0).all():
        return "positive_real" if (values.real > 0.0).all() else "real"
    return "complex"


def check_assumptions(model, *, seed: int = 0) -> AssumptionReport:
    """Evaluate A1-A4, C1, and the fixed-point support probe for a model.

    The moments are expectations under the model's deterministic rule;
    only the Z1 probe draws, keyed off seed, so the report is a
    deterministic function of (model, seed).
    """
    flags: dict[str, str] = {}
    probs, table = model._rule_table

    def expect(per_row: np.ndarray):
        """(moment, flag): "pass" when finite; an overflow gives (None, "indeterminate")."""
        value = float(probs @ per_row)
        return (value, "pass") if math.isfinite(value) else (None, "indeterminate")

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
        if m_prime_alpha == 0.0:  # m is flat at the root in floating point: no root to tell
            alpha = m_prime_alpha = None
            flags["A2"] = "indeterminate"
    if alpha is not None:
        # A3: negative drift and E[W_1 log_+ W_1] < inf, W_1 = sum |T_j|^alpha
        w1 = table.m_hat(alpha)
        w1_est, w1_flag = expect(w1 * np.log(np.maximum(w1, 1.0)))
        if not m_prime_alpha < 0.0:
            flags["A3"] = "fail"
        else:
            flags["A3"] = w1_flag

        # A4: m'(alpha) <= 0 and E[|Z_1|^alpha log_+^{2+eps} |Z_1|] < inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            z1_abs = np.abs(table.seg_sum(table.values))
            a4_stat = np.where(
                z1_abs > 0.0,
                z1_abs**alpha * np.log(np.maximum(z1_abs, 1.0)) ** (2.0 + _EPS),
                0.0,
            )
        a4_est, a4_flag = expect(a4_stat)
        if m_prime_alpha > 0.0:
            flags["A4"] = "fail"
        else:
            flags["A4"] = a4_flag
    else:
        flags["A3"] = "indeterminate"
        flags["A4"] = "indeterminate"

    # C1: E[N^2] < inf and E[N sum_j log_+ |T_j|] < inf
    nvec = table.counts.astype(np.float64)
    n2_est, n2_flag = expect(nvec**2)
    cross = nvec * table.seg_sum(np.maximum(table.log_abs, 0.0))
    cross_est, cross_flag = expect(cross)
    flags["C1"] = "pass" if n2_flag == cross_flag == "pass" else "indeterminate"

    support = _support_class(table.values)

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
        multiple_roots=alpha is not None and alpha_res.multiple_roots,
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
    )
