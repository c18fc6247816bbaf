"""Moment estimation, exponent root finding, and the assumption report."""

import dataclasses
import json
import math

import numpy as np
import pytest

from smoothfix import BigginsBinary, CyclicPolya, Tabular
from smoothfix.analysis import (
    EstimateOverflowError,
    SubcriticalMeanError,
    check_assumptions,
    estimate_m,
    find_alpha,
    m_derivative,
)
from smoothfix.rng import philox


def test_estimate_m_closed_form_fields():
    est = estimate_m(BigginsBinary(1.0), 2.0)
    assert est.method == "closed_form"
    assert est.stderr == 0.0 and est.n_samples == 0
    assert est.value == pytest.approx(0.790012829192987, abs=1e-12)


def test_estimate_m_monte_carlo_agrees_with_closed_form():
    model = BigginsBinary(1.0)
    est = estimate_m(model, 2.0, n=200_000, rng=3, method="monte_carlo")
    assert est.method == "monte_carlo"
    assert est.n_samples == 200_000
    assert est.stderr > 0
    assert abs(est.value - 0.790012829192987) < 4 * est.stderr


def test_estimate_m_monte_carlo_tabular_matches_exact():
    model = Tabular([(0.5, (1.2,)), (0.5, (0.4, 0.4))])
    est = estimate_m(model, 1.7, n=100_000, rng=9, method="monte_carlo")
    assert abs(est.value - model.m_closed_form(1.7)) < 4 * est.stderr


def test_estimate_m_requires_rng_for_monte_carlo():
    with pytest.raises(ValueError, match="rng"):
        estimate_m(BigginsBinary(1.0), 1.0, method="monte_carlo")


def test_estimate_m_overflow_reported():
    model = Tabular([(1.0, (1e200,))])
    with pytest.raises(EstimateOverflowError, match="indeterminate"):
        estimate_m(model, 3.0, n=1000, rng=0, method="monte_carlo")


def test_m_derivative_closed_and_monte_carlo():
    model = BigginsBinary(1.0)
    assert m_derivative(model, 1.0).value == pytest.approx(-0.36533385508720756, abs=1e-12)
    est = m_derivative(model, 1.0, n=200_000, rng=4, method="monte_carlo")
    assert abs(est.value - (-0.36533385508720756)) < 4 * est.stderr


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


def test_check_assumptions_polya8():
    rep = check_assumptions(CyclicPolya(8), n_samples=20_000, seed=7)
    assert rep.alpha == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert rep.alpha_in_density_range
    assert not rep.multiple_roots
    assert rep.m_prime_alpha == pytest.approx(-math.cos(math.pi / 4) / 2, abs=1e-9)
    assert rep.flags == {
        "A1": "pass", "A2": "pass", "A3": "pass", "A4": "pass", "C1": "pass", "Z1": "pass",
    }
    assert rep.support_class == "complex"
    assert rep.z_im_dispersion > 0.01
    assert rep.c1_n2.value == 4.0  # N = 2 always
    assert rep.c1_cross.value == 0.0  # |T_j| <= 1 for the Polya family


def test_check_assumptions_alpha_out_of_density_range():
    rep = check_assumptions(CyclicPolya(5), n_samples=5_000, seed=3)
    assert rep.alpha == pytest.approx(1.0 / math.cos(2 * math.pi / 5), abs=1e-9)
    assert not rep.alpha_in_density_range


def test_check_assumptions_subcritical_model_still_reports():
    rep = check_assumptions(Tabular([(1.0, (1.0,))]), n_samples=2_000, seed=5)
    assert rep.m0 == 1.0
    assert rep.alpha is None
    assert rep.m_prime_alpha is None
    assert rep.flags["A1"] == "fail"
    assert rep.flags["A2"] == "fail"
    assert rep.flags["A3"] == "indeterminate"
    assert rep.support_class == "positive_real"
    assert rep.flags["Z1"] == "fail"  # fixed point is the constant 1


def test_check_assumptions_deterministic_and_json_roundtrip():
    rep1 = check_assumptions(CyclicPolya(8), n_samples=5_000, seed=42)
    rep2 = check_assumptions(CyclicPolya(8), n_samples=5_000, seed=42)
    text = json.dumps(dataclasses.asdict(rep1), sort_keys=True)
    assert text == json.dumps(dataclasses.asdict(rep2), sort_keys=True)
    doc = json.loads(text)
    assert doc == dataclasses.asdict(rep1)
    assert doc["model_fingerprint"] == rep1.model_fingerprint
    assert doc["c1_n2"] == {"value": 4.0, "stderr": 0.0, "n_samples": 5_000,
                            "method": "monte_carlo"}


def test_real_weight_model_support_and_z_flag():
    model = Tabular([(0.5, (1.2,)), (0.5, (0.4, 0.4))])
    rep = check_assumptions(model, n_samples=5_000, seed=1)
    assert rep.support_class == "positive_real"
    assert rep.flags["Z1"] == "fail"  # fixed point is real: no imaginary dispersion
    assert rep.z_im_dispersion == 0.0


def test_monte_carlo_estimates_need_two_draws():
    model = BigginsBinary(1.0)
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2 draws"):
            estimate_m(model, 1.0, n=n, rng=0, method="monte_carlo")
        with pytest.raises(ValueError, match="at least 2 draws"):
            m_derivative(model, 1.0, n=n, rng=0, method="monte_carlo")
        with pytest.raises(ValueError, match="at least 2 draws"):
            find_alpha(model, n=n, rng=0, method="monte_carlo")
        with pytest.raises(ValueError, match="at least 2 draws"):
            check_assumptions(model, n_samples=n, seed=0)
    assert check_assumptions(model, n_samples=2, seed=0).n_samples == 2
