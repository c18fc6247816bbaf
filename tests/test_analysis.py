"""Moment estimation, exponent root finding, and the assumption report."""

import dataclasses
import json
import math

import numpy as np
import pytest

from smoothfix import BigginsBinary, CyclicPolya, Tabular, model_from_config
from smoothfix.analysis import (
    SubcriticalMeanError,
    _DrawTable,
    check_assumptions,
    find_alpha,
)
from smoothfix.model import _tanh_sinh_uniforms
from smoothfix.rng import DOMAIN_ANALYSIS, philox


def _table(model, n, seed):
    return _DrawTable(*model.draw_batch(philox(seed, DOMAIN_ANALYSIS, 0), n))


def test_estimate_m_closed_form_fields():
    assert BigginsBinary(1.0).m_closed_form(2.0) == pytest.approx(0.790012829192987, abs=1e-12)
    res = find_alpha(BigginsBinary(1.0))
    assert res.method == "closed_form" and res.stderr == 0.0


def test_estimate_m_monte_carlo_agrees_with_closed_form():
    per_draw = _table(BigginsBinary(1.0), 200_000, 3).m_hat(2.0)
    assert per_draw.shape == (200_000,)
    mean, se = per_draw.mean(), per_draw.std(ddof=1) / math.sqrt(per_draw.shape[0])
    assert se > 0
    assert abs(mean - 0.790012829192987) < 4 * se


def test_estimate_m_monte_carlo_tabular_matches_exact():
    model = Tabular([(0.5, (1.2,)), (0.5, (0.4, 0.4))])
    per_draw = _table(model, 100_000, 9).m_hat(1.7)
    mean, se = per_draw.mean(), per_draw.std(ddof=1) / math.sqrt(per_draw.shape[0])
    assert abs(mean - model.m_closed_form(1.7)) < 4 * se


def test_estimate_m_requires_rng_for_monte_carlo():
    with pytest.raises(ValueError, match="rng"):
        find_alpha(BigginsBinary(1.0), method="monte_carlo")


def test_estimate_m_overflow_reported():
    # |Z_1| = 2e308 overflows on the rare atom: its moment is reported
    # indeterminate, with no value, while W_1 = 2e154 there stays finite
    model = Tabular([(1e-200, (1e308, 1e308)), (1.0, (0.25, 0.25))])
    rep = check_assumptions(model, seed=0)
    assert rep.alpha == pytest.approx(0.5, abs=1e-6)
    assert rep.flags["A3"] == "pass" and rep.w1_loglog is not None
    assert rep.flags["A4"] == "indeterminate"
    assert rep.a4_moment is None


def test_m_derivative_closed_and_monte_carlo():
    model = BigginsBinary(1.0)
    assert model.m_prime_closed_form(1.0) == pytest.approx(-0.36533385508720756, abs=1e-12)
    per_draw = _table(model, 200_000, 4).m_hat_prime(1.0)
    mean, se = per_draw.mean(), per_draw.std(ddof=1) / math.sqrt(per_draw.shape[0])
    assert abs(mean - (-0.36533385508720756)) < 4 * se


def test_find_alpha_closed_form_polya():
    for b in (6, 7, 8, 9, 12):
        res = find_alpha(CyclicPolya(b))
        assert res.method == "closed_form"
        assert res.alpha == pytest.approx(1.0 / math.cos(2 * math.pi / b), abs=1e-9)
        assert not res.multiple_roots
        assert res.m0 == 2.0


def test_find_alpha_monte_carlo_biggins():
    # alpha = 1 exactly for lambda = 1 (E[|T_1)| + |T_2|] = 1)
    res = find_alpha(BigginsBinary(1.0), method="monte_carlo", n=100_000, rng=11)
    assert res.method == "monte_carlo"
    assert res.alpha == pytest.approx(1.0, abs=1e-2)
    assert res.stderr > 0
    assert abs(res.alpha - 1.0) < 4 * res.stderr + 1e-9


def test_find_alpha_subcritical_error():
    for method in ("closed_form", "monte_carlo"):
        with pytest.raises(SubcriticalMeanError, match="subcritical mean") as info:
            find_alpha(Tabular([(1.0, (0.5,))]), n=1_000, rng=0, method=method)
        assert info.value.m0 == 1.0  # check_assumptions reports m(0) from here


def test_find_alpha_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'auto'"):
        find_alpha(CyclicPolya(8), method="auto")


def test_find_alpha_no_root_returns_none():
    res = find_alpha(CyclicPolya(4))  # m(s) = 2 for all s
    assert res.alpha is None
    assert res.m0 == 2.0


def test_find_alpha_multiple_roots_flagged():
    # m dips below 1 and grows back above it before s_max = 10
    model = Tabular([(0.9, (0.3, 0.9)), (0.1, (1.3,))])
    res = find_alpha(model)
    assert res.alpha is not None
    assert 1.0 < res.alpha < 2.0
    assert res.multiple_roots
    assert model.m_closed_form(res.alpha) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("lam", [19.0, 30.0, 350.0])
def test_find_alpha_large_real_lambda_has_one_root(lam):
    # log m(10) is below 0 by less than 1e-12 here (-9.9e-304 at 350): the
    # sign alone says m has not come back to 1
    assert BigginsBinary(lam).log_m_closed_form(10.0) < 0.0
    assert not find_alpha(BigginsBinary(lam)).multiple_roots


def test_check_assumptions_polya8():
    rep = check_assumptions(CyclicPolya(8), seed=7)
    assert rep.alpha == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert rep.alpha_in_density_range
    assert not rep.multiple_roots
    assert rep.m_prime_alpha == pytest.approx(-math.cos(math.pi / 4) / 2, abs=1e-9)
    assert rep.flags == {
        "A1": "pass", "A2": "pass", "A3": "pass", "A4": "pass", "C1": "pass", "Z1": "pass",
    }
    assert rep.support_class == "complex"
    assert rep.z_im_dispersion > 0.01
    assert rep.c1_n2 == 4.0  # N = 2 always
    assert rep.c1_cross == 0.0  # |T_j| <= 1 for the Polya family


def test_check_assumptions_alpha_out_of_density_range():
    rep = check_assumptions(CyclicPolya(5), seed=3)
    assert rep.alpha == pytest.approx(1.0 / math.cos(2 * math.pi / 5), abs=1e-9)
    assert not rep.alpha_in_density_range


def test_check_assumptions_subcritical_model_still_reports():
    rep = check_assumptions(Tabular([(1.0, (1.0,))]), seed=5)
    assert rep.m0 == 1.0
    assert rep.alpha is None
    assert rep.m_prime_alpha is None
    assert rep.flags["A1"] == "fail"
    assert rep.flags["A2"] == "fail"
    assert rep.flags["A3"] == "indeterminate"
    assert rep.support_class == "positive_real"
    assert rep.flags["Z1"] == "fail"  # fixed point is the constant 1


def test_check_assumptions_deterministic_and_json_roundtrip():
    rep1 = check_assumptions(CyclicPolya(8), seed=42)
    rep2 = check_assumptions(CyclicPolya(8), seed=42)
    text = json.dumps(dataclasses.asdict(rep1), sort_keys=True)
    assert text == json.dumps(dataclasses.asdict(rep2), sort_keys=True)
    doc = json.loads(text)
    assert doc == dataclasses.asdict(rep1)
    assert doc["model_fingerprint"] == rep1.model_fingerprint
    assert doc["c1_n2"] == 4.0


def test_zero_weight_in_the_rule_is_counted_without_warning():
    # T_+ = e^-700 / (2 cosh 700) underflows to 0; warnings are errors here
    model = BigginsBinary(700.0)
    assert 0.0 in model._expectation_rule()[1]
    rep = check_assumptions(model, seed=1)
    assert rep.m0 == 2.0
    doc = dataclasses.asdict(rep)
    numbers = [v for v in doc.values() if isinstance(v, float)]
    assert numbers and all(math.isfinite(v) for v in numbers)
    assert json.loads(json.dumps(doc)) == doc


def test_real_weight_model_support_and_z_flag():
    model = Tabular([(0.5, (1.2,)), (0.5, (0.4, 0.4))])
    rep = check_assumptions(model, seed=1)
    assert rep.support_class == "positive_real"
    assert rep.flags["Z1"] == "fail"  # fixed point is real: no imaginary dispersion
    assert rep.z_im_dispersion == 0.0


def test_monte_carlo_estimates_need_two_draws():
    model = BigginsBinary(1.0)
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2 draws"):
            find_alpha(model, n=n, rng=0, method="monte_carlo")


# The deterministic expectation rule behind the report's moments

_EXPECTATION_MODELS = [
    BigginsBinary(complex(0.7071, 0.7071)),
    CyclicPolya(8),
    Tabular([(0.5, (0.9,)), (0.5, (0.25, 0.25, 0.25, 0.25, 0.1))]),
]


def _row_statistics(table, alpha):
    """Per row: sum_j |T_j|^s at s = 0.5 and 2, and the report's A4 statistic."""
    z1_abs = np.abs(table.seg_sum(table.values))
    a4 = z1_abs**alpha * np.log(np.maximum(z1_abs, 1.0)) ** 2.1
    return [table.m_hat(0.5), table.m_hat(2.0), a4]


@pytest.mark.parametrize("model", _EXPECTATION_MODELS, ids=repr)
def test_expectation_rule_matches_draw_batch_means(model):
    alpha = find_alpha(model).alpha
    probs, values, counts = model._expectation_rule()
    exact = [probs @ stat for stat in _row_statistics(_DrawTable(values, counts), alpha)]
    draws = _row_statistics(_table(model, 100_000, 13), alpha)
    for want, per_draw in zip(exact, draws):
        se = per_draw.std(ddof=1) / math.sqrt(per_draw.shape[0])
        assert se > 0
        assert abs(per_draw.mean() - want) < 5 * se


def _a4_moment(model, probs, values, counts):
    alpha = find_alpha(model).alpha
    return probs @ _row_statistics(_DrawTable(values, counts), alpha)[2]


@pytest.mark.parametrize("b", [5, 7, 8, 9, 12])
def test_polya_expectation_rule_accuracy(b):
    model = CyclicPolya(b)
    probs, values, counts = model._expectation_rule()
    assert counts.tolist() == [2] * probs.shape[0]
    t1, t2 = np.abs(values[0::2]), np.abs(values[1::2])
    assert abs(probs.sum() - 1.0) < 1e-14
    assert abs(probs @ (t1**2 + t2**2) - model.m_closed_form(2.0)) < 1e-14
    # |T_1| = U^c and |T_2| = (1 - U)^c with c = cos(2 pi / b)
    c = math.cos(2.0 * math.pi / b)
    for a, d in ((0.5, 0.5), (2.0, 3.0), (0.1, 0.7), (1.3, 0.0)):
        beta = math.gamma(a + 1.0) * math.gamma(d + 1.0) / math.gamma(a + d + 2.0)
        assert abs(probs @ (t1 ** (a / c) * t2 ** (d / c)) - beta) < 1e-14
    # A4's log_+ has a kink at |Z_1| = 1: the slowest statistic to converge
    fine_probs, u = _tanh_sinh_uniforms(1.0 / 512.0)
    fine = _a4_moment(model, fine_probs, *model.weights_from_uniforms(u[:, None]))
    assert abs(_a4_moment(model, probs, values, counts) / fine - 1.0) < 1e-5


def test_tabular_expectation_rule_is_its_atoms():
    # a midpoint uniform in the 1e-17 atom's interval selects the next atom,
    # so the rule must take the atoms themselves
    model = Tabular([(0.5, (0.3,)), (1e-17, (2.0, 0.5j)), (0.5, (0.4, 0.4))])
    midpoints = np.cumsum(model._probs) - 0.5 * model._probs
    assert model._atoms_from_uniforms(midpoints[:, None]).tolist() == [0, 2, 2]
    probs, values, counts = model._expectation_rule()
    assert probs.tolist() == [0.5, 1e-17, 0.5]
    assert values.tolist() == [0.3, 2.0, 0.5j, 0.4, 0.4]
    assert counts.tolist() == [1, 2, 2]
    # the support class reads every atom, however rare
    assert check_assumptions(model, seed=0).support_class == "complex"


# alpha, flags and support class of the README's four configs, as the Monte
# Carlo report gave them at seed 1
_README_REPORTS = [
    ({"type": "biggins", "lambda": {"re": 0.7071, "im": 0.7071}},
     1.5885453386902666, "pass", "complex"),
    ({"type": "biggins", "lambda": {"modulus": 2.15, "arg": 0.2732}},
     1.178096986712202, "pass", "complex"),
    ({"type": "polya", "b": 8}, 1.414213561935845, "pass", "complex"),
    ({"type": "tabular", "atoms": [[0.5, [0.9]], [0.5, [0.25, 0.25, 0.25, 0.25, 0.1]]]},
     0.9999999996908173, "fail", "positive_real"),
]


# find_alpha's bits on the desk and figure configs, recorded with the closed
# forms the expectation rule replaced
_PINNED_ALPHAS = [
    pytest.param({"type": "biggins", "lambda": {"re": 0.7071, "im": 0.7071}},
                 1.5885453386902666, id="biggins_rect"),
    pytest.param({"type": "biggins", "lambda": {"modulus": 2.15, "arg": 0.2732}},
                 1.178096986712202, id="biggins_polar"),
    pytest.param({"type": "polya", "b": 8}, 1.414213561935845, id="polya_b8"),
    pytest.param({"type": "tabular",
                  "atoms": [[0.5, [0.9]], [0.5, [0.25, 0.25, 0.25, 0.25, 0.1]]]},
                 0.9999999996908173, id="tabular"),
    pytest.param({"type": "biggins", "lambda": {"modulus": 2.15, "arg": 2 * math.pi / 23}},
                 1.178062726666288, id="biggins_tilt23"),
    pytest.param({"type": "biggins",
                  "lambda": {"re": math.cos(math.pi / 4), "im": math.sin(math.pi / 4)}},
                 1.5885671956762617, id="biggins_pi4"),
    pytest.param({"type": "polya", "b": 7}, 1.6038754716464914, id="polya_b7"),
    pytest.param({"type": "polya", "b": 9}, 1.3054072890981192, id="polya_b9"),
    pytest.param({"type": "polya", "b": 12}, 1.1547005381695967, id="polya_b12"),
]


@pytest.mark.parametrize("config, alpha", _PINNED_ALPHAS)
def test_find_alpha_bits_on_desk_and_figure_configs(config, alpha):
    assert find_alpha(model_from_config({"model": config})).alpha == alpha


def test_find_alpha_biggins_real_lambda_is_one():
    # m(1) = E[T_1 + T_2] = 1 for real lambda; at lambda = 10 the log-cosh
    # closed form put the root 4.0e-8 below 1
    assert abs(find_alpha(BigginsBinary(10.0)).alpha - 1.0) < 2e-8


def test_find_alpha_is_one_for_real_biggins_lambda():
    # T_- rounds to 1 from lambda = 20 on, so m(s) - 1 read 0 past some s
    # and alpha read 0.918 at lambda = 20 and 0.0525 at 350; log m keeps
    # the sign from log|T_-|, which is taken from lambda
    for lam in np.geomspace(1.0, 350.0, 25):
        assert abs(find_alpha(BigginsBinary(lam)).alpha - 1.0) <= 1e-9, lam


def test_flat_m_leaves_alpha_indeterminate():
    # at lambda = 700, log|T_-| underflows to -0 and T_+ to 0: m reads 1
    # on all of (0, 10] and m' reads 0, so no root can be told
    rep = check_assumptions(BigginsBinary(700.0), seed=1)
    assert rep.alpha is None and rep.m_prime_alpha is None
    assert not rep.multiple_roots
    assert rep.flags["A2"] == rep.flags["A3"] == rep.flags["A4"] == "indeterminate"
    assert rep.flags["A1"] == "pass"


def test_biggins_rule_log_moduli_match_the_weights():
    # log|T_-| and log|T_+| come from lambda; near a zero of cosh the
    # log1p form cancelled (a domain error at lambda = i(pi/2 - 1e-9))
    for lam in (complex(0.0, math.pi / 2 - 1e-9), complex(1e-9, math.pi / 2),
                0.3 + 1.2j, -0.5 + 2.0j, 5.0):
        table = BigginsBinary(lam)._rule_table[1]
        np.testing.assert_allclose(table.log_abs, np.log(np.abs(table.values)),
                                   rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("config", [p.values[0] for p in _PINNED_ALPHAS])
def test_log_m_matches_m(config):
    model = model_from_config({"model": config})
    for s in (0.25, 1.0, 1.5, 4.0, 10.0):
        m = model.m_closed_form(s)
        assert model.log_m_closed_form(s) == pytest.approx(math.log(m), rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("config, alpha, z1, support", _README_REPORTS,
                         ids=lambda v: v["type"] if isinstance(v, dict) else None)
def test_readme_configs_keep_their_report(config, alpha, z1, support):
    rep = check_assumptions(model_from_config({"model": config}), seed=1)
    assert rep.alpha == pytest.approx(alpha, rel=1e-12)
    assert rep.flags == {"A1": "pass", "A2": "pass", "A3": "pass", "A4": "pass",
                         "C1": "pass", "Z1": z1}
    assert rep.support_class == support


def test_check_assumptions_seed_is_keyword_only():
    with pytest.raises(TypeError):
        check_assumptions(CyclicPolya(8), 5)
