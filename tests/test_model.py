"""Weight-model construction, sampling paths, and closed-form moments."""

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from smoothfix import (
    BigginsBinary,
    ConfigError,
    CyclicPolya,
    Tabular,
    fingerprint,
    model_from_config,
    model_to_config,
)
from smoothfix.rng import philox


def test_biggins_weights_lambda_one():
    model = BigginsBinary(1.0)
    values, counts = model.weights_from_uniforms(np.array([[0.1, 0.9]]))
    assert counts.tolist() == [2]
    # S = (+1, -1): logistic pair (1/(1+e^2), e^2/(1+e^2))
    assert values[0] == pytest.approx(0.11920292202211756, abs=1e-15)
    assert values[1] == pytest.approx(0.8807970779778824, abs=1e-15)
    assert values[0].real + values[1].real == pytest.approx(1.0, abs=1e-15)


def test_biggins_rejects_vanishing_cosh():
    with pytest.raises(ValueError):
        BigginsBinary(1j * math.pi / 2)


def test_biggins_rejects_non_finite_lambda():
    for lam in (float("nan"), float("inf"), complex(math.inf, 0.0), complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            BigginsBinary(lam)


def test_biggins_rejects_lambda_out_of_range():
    for lam in (1000.0, -1000.0, 710.0):
        with pytest.raises(ValueError, match="out of range.*lambda = "):
            BigginsBinary(lam)
    with pytest.raises(ConfigError, match="out of range.*1000"):
        model_from_config({"model": {"type": "biggins", "lambda": 1000}})
    # still in range: the weights are about (0, 1)
    values, _ = BigginsBinary(700.0).weights_from_uniforms(np.array([[0.1, 0.9]]))
    assert values[0] == 0.0 and values[1] == pytest.approx(1.0, rel=1e-12)


def test_biggins_m_closed_form():
    model = BigginsBinary(1.0)
    assert model.m_closed_form(0.0) == pytest.approx(2.0, abs=1e-15)
    assert model.m_closed_form(1.0) == pytest.approx(1.0, abs=1e-15)
    # cosh(2) / (2 cosh(1)^2), evaluated independently of the model's log form
    assert model.m_closed_form(2.0) == pytest.approx(0.790012829192987, abs=1e-12)
    # huge s must not overflow the intermediate cosh
    assert math.isfinite(model.m_closed_form(500.0))
    assert 0.0 < model.m_closed_form(500.0) < 1e-20


def test_biggins_m_prime_closed_form_matches_finite_differences():
    model = BigginsBinary(1.0)
    assert model.m_prime_closed_form(1.0) == pytest.approx(
        -0.36533385508720756, abs=1e-12
    )
    for s in (0.3, 1.0, 2.7):
        h = 1e-6
        fd = (model.m_closed_form(s + h) - model.m_closed_form(s - h)) / (2 * h)
        assert model.m_prime_closed_form(s) == pytest.approx(fd, rel=1e-7)


def test_polya_half_uniform_gives_zeta_rotation():
    model = CyclicPolya(8)
    values, counts = model.weights_from_uniforms(np.array([[0.5]]))
    assert counts.tolist() == [2]
    t1, t2 = values
    zeta = cmath.exp(2j * math.pi / 8)
    assert t2 / t1 == pytest.approx(zeta, abs=1e-14)
    assert abs(t1) == pytest.approx(0.5 ** math.cos(math.pi / 4), abs=1e-14)


def test_polya_m_closed_form_root_at_inverse_cos():
    for b in (7, 8, 9, 12):
        model = CyclicPolya(b)
        alpha = 1.0 / math.cos(2.0 * math.pi / b)
        assert model.m_closed_form(alpha) == pytest.approx(1.0, abs=1e-14)
        assert model.m_closed_form(0.0) == 2.0
        assert model.m_prime_closed_form(alpha) == pytest.approx(
            -math.cos(2.0 * math.pi / b) / 2.0, abs=1e-14
        )
    # past the integrability boundary the moment is infinite
    assert math.isinf(CyclicPolya(3).m_closed_form(3.0))


def test_polya_batch_clamps_endpoint_uniform():
    model = CyclicPolya(8)
    values, _ = model.weights_from_uniforms(np.array([[0.0]]))
    assert np.isfinite(values).all()
    assert (np.abs(values) > 0).all()


def test_polya_single_draw_never_degenerate():
    values, counts = CyclicPolya(8).draw_batch(philox(123, 9), 200)
    assert counts.tolist() == [2] * 200
    assert np.isfinite(values).all()
    assert (np.abs(values) > 0).all()


def test_tabular_validation():
    with pytest.raises(ValueError):
        Tabular([(0.5, (1.0,)), (0.5 + 1e-9, (2.0,))])  # probs off by > 1e-12
    with pytest.raises(ValueError):
        Tabular([(1.0, (0.0,))])  # nothing left after stripping zeros
    with pytest.raises(ValueError):
        Tabular([(-0.5, (1.0,)), (1.5, (1.0,))])
    model = Tabular([(1.0, (2.0, 0.0, 3.0j))])
    values, counts = model.draw_batch(philox(0, 1), 4)
    assert counts.tolist() == [2, 2, 2, 2]  # zero stripped at construction
    assert values.reshape(4, 2)[0].tolist() == [2.0 + 0j, 3.0j]


def test_tabular_ragged_gather_layout():
    model = Tabular([(0.25, (1.0, 2.0)), (0.25, (3.0,)), (0.5, (4.0, 5.0, 6.0))])
    values, counts = model.weights_from_uniforms(np.array([[0.1], [0.3], [0.7]]))
    assert counts.tolist() == [2, 1, 3]
    assert values.tolist() == [1, 2, 3, 4, 5, 6]
    assert model.max_children == 3


def test_tabular_m_closed_form_exact():
    model = Tabular([(0.5, (1.2,)), (0.5, (0.4, 0.4))])
    assert model.m_closed_form(0.0) == pytest.approx(1.5, abs=1e-15)
    assert model.m_closed_form(1.0) == pytest.approx(1.0, abs=1e-13)
    expected = 0.5 * 1.2**2 + 0.5 * 2 * 0.4**2
    assert model.m_closed_form(2.0) == pytest.approx(expected, abs=1e-13)
    expected_prime = 0.5 * 1.2 * math.log(1.2) + 0.5 * 2 * 0.4 * math.log(0.4)
    assert model.m_prime_closed_form(1.0) == pytest.approx(expected_prime, abs=1e-13)


def test_draw_batch_deterministic_and_matches_uniform_path():
    """draw_batch reads uniform_budget uniforms per row from the stream, in
    order; martingale, analysis and residual reproducibility rest on it."""
    models = [
        BigginsBinary(cmath.exp(1j * math.pi / 4)),
        CyclicPolya(8),
        Tabular([(0.25, (1.0, 2.0)), (0.25, (3.0,)), (0.5, (4.0, 5.0, 6.0))]),
    ]
    for model in models:
        a = model.draw_batch(philox(7, 2), 100)
        b = model.draw_batch(philox(7, 2), 100)
        u = philox(7, 2).random(100 * model.uniform_budget)
        c = model.weights_from_uniforms(u.reshape(100, model.uniform_budget))
        for x in (b, c):
            assert np.array_equal(a[0], x[0]) and np.array_equal(a[1], x[1])


def test_config_roundtrip_and_polar_lambda():
    models = [
        BigginsBinary(2.15 * cmath.exp(2j * math.pi / 23)),
        CyclicPolya(12),
        Tabular([(0.25, (1.0, 2.0)), (0.75, (0.5j,))]),
    ]
    for model in models:
        doc = model_to_config(model)
        again = model_from_config(doc)
        assert fingerprint(again) == fingerprint(model)

    polar = {"model": {"type": "biggins", "lambda": {"modulus": 2.15, "arg": 2 * math.pi / 23}}}
    model = model_from_config(polar)
    assert model.lam == pytest.approx(2.15 * cmath.exp(2j * math.pi / 23), abs=1e-14)


def test_config_errors_name_the_problem():
    with pytest.raises(ConfigError):
        model_from_config({"model": {"type": "nonsense"}})
    with pytest.raises(ConfigError):
        model_from_config({"model": {"type": "biggins"}})
    with pytest.raises(ConfigError, match="lambda"):
        model_from_config({"model": {"type": "biggins", "lambda": {"real": 1}}})
    with pytest.raises(ConfigError):
        model_from_config([1, 2, 3])
    with pytest.raises(ConfigError, match="config: unexpected field 'typo'"):
        model_from_config({"model": {"type": "polya", "b": 8}, "typo": 1})
    with pytest.raises(ConfigError, match="unexpected field 'lambda'"):
        model_from_config({"type": "polya", "b": 8, "lambda": 0.5})
    with pytest.raises(ConfigError, match=r"model.atoms\[0\]: unexpected field 'extra'"):
        model_from_config({"type": "tabular",
                           "atoms": [{"prob": 1.0, "weights": [0.5, 0.6], "extra": 3}]})


def test_config_rejects_values_it_would_coerce():
    bad = [
        {"type": "tabular", "atoms": [{"prob": "1", "weights": [[0.5, 0.0]]}]},
        {"type": "tabular", "atoms": [{"prob": 1.0, "weights": [["0.5", "0"]]}]},
        {"type": "tabular", "atoms": [[1.0, [True]]]},
        {"type": "biggins", "lambda": True},
        {"type": "biggins", "lambda": {"re": "0.7", "im": "0.7"}},
        {"type": "biggins", "lambda": {"modulus": 2.15, "arg": "0.27"}},
        json.loads('{"type": "biggins", "lambda": NaN}'),
        json.loads('{"type": "biggins", "lambda": Infinity}'),
        json.loads('{"type": "biggins", "lambda": {"re": -Infinity, "im": 0}}'),
        {"type": "biggins", "lambda": 10**400},
        {"type": "polya", "b": 10**400},
    ]
    for inner in bad:
        with pytest.raises(ConfigError):
            model_from_config({"model": inner})
    assert model_from_config({"type": "biggins", "lambda": 1}).lam == 1.0


README_TABULAR = (
    '{"model": {"type": "tabular", "atoms": '
    '[[0.5, [0.9]], [0.5, [0.25, 0.25, 0.25, 0.25, 0.1]]]}}'
)


def test_config_tabular_list_form_from_readme():
    assert README_TABULAR in (Path(__file__).parents[1] / "README.md").read_text()
    listed = model_from_config(json.loads(README_TABULAR))
    keyed = model_from_config({"model": {"type": "tabular", "atoms": [
        {"prob": 0.5, "weights": [[0.9, 0.0]]},
        {"prob": 0.5, "weights": [[0.25, 0.0]] * 4 + [[0.1, 0.0]]},
    ]}})
    assert listed.config() == keyed.config()
    assert fingerprint(listed) == fingerprint(keyed)
    with pytest.raises(ConfigError, match="atoms"):
        model_from_config({"model": {"type": "tabular", "atoms": [[0.5, [0.9], 1]]}})
    for pair in ([0.5], [0.5, 0.0, 1.0]):
        with pytest.raises(ConfigError, match=r"\[re, im\] pair"):
            model_from_config({"model": {"type": "tabular",
                                         "atoms": [{"prob": 1.0, "weights": [pair]}]}})


def test_config_polya_b_must_be_an_integer():
    for b in (8, 8.0):
        model = model_from_config({"model": {"type": "polya", "b": b}})
        assert model.b == 8 and isinstance(model.b, int)
    for b in (8.7, True, "8", None, 0):
        with pytest.raises(ConfigError, match="positive integer"):
            model_from_config({"model": {"type": "polya", "b": b}})


def test_fingerprint_distinguishes_models():
    assert fingerprint(CyclicPolya(8)) != fingerprint(CyclicPolya(9))
    assert fingerprint(BigginsBinary(1.0)) != fingerprint(BigginsBinary(1.0 + 1e-9j))
    assert fingerprint(CyclicPolya(8)) == fingerprint(CyclicPolya(8))
