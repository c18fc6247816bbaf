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
from smoothfix.analysis import find_alpha
from smoothfix.rng import philox


def test_biggins_weights_lambda_one():
    model = BigginsBinary(1.0)
    values, counts = model.weights_from_uniforms(np.array([[0.1, 0.9]]))
    assert counts.tolist() == [2]
    # S = (+1, -1): logistic pair (1/(1+e^2), e^2/(1+e^2))
    assert values[0] == pytest.approx(0.11920292202211756, abs=1e-15)
    assert values[1] == pytest.approx(0.8807970779778824, abs=1e-15)
    assert values[0].real + values[1].real == pytest.approx(1.0, abs=1e-15)


def test_biggins_half_uniform_selects_t_minus():
    """u < 0.5 selects S = +1, so u = 0.5 exactly selects T_- = e^lambda / (2 cosh lambda)."""
    lam = cmath.exp(1j * math.pi / 4)
    model = BigginsBinary(lam)
    t_plus = cmath.exp(-lam) / (2.0 * cmath.cosh(lam))
    t_minus = cmath.exp(lam) / (2.0 * cmath.cosh(lam))
    below = np.nextafter(0.5, 0.0)
    values, counts = model.weights_from_uniforms(np.array([[0.5, below], [0.0, 0.5]]))
    assert values.dtype == np.complex128 and counts.tolist() == [2, 2]
    assert values.tolist() == [t_minus, t_plus, t_plus, t_minus]


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


# the lambdas of the desk configs (rect, polar) and of the figures (tilt23, pi4)
_DESK_AND_FIGURE_LAMBDAS = [
    pytest.param({"re": 0.7071, "im": 0.7071}, id="rect"),
    pytest.param({"modulus": 2.15, "arg": 0.2732}, id="polar"),
    pytest.param({"modulus": 2.15, "arg": 2 * math.pi / 23}, id="tilt23"),
    pytest.param({"re": math.cos(math.pi / 4), "im": math.sin(math.pi / 4)}, id="pi4"),
]


@pytest.mark.parametrize("lam", _DESK_AND_FIGURE_LAMBDAS)
def test_biggins_moments_match_paper_formula(lam):
    """The rule's sums give m(s) = 2 cosh(s a) / (2 |cosh lambda|)^s, a = Re lambda, and
    m'(s) = m(s) (a tanh(s a) - ln(2 |cosh lambda|)).  The bracket is written as
    -(2 a / (e^{2 s a} + 1) + ln|1 + e^{-2 lambda}|), which cancels nothing."""
    model = model_from_config({"model": {"type": "biggins", "lambda": lam}})
    a, den = model.lam.real, 2.0 * abs(cmath.cosh(model.lam))
    z = cmath.exp(-2.0 * model.lam)
    log_excess = 0.5 * math.log1p(2.0 * z.real + abs(z) ** 2)  # ln(2 |cosh lambda|) - a
    for s in np.linspace(0.0, 10.0, 201)[1:].tolist():
        m = 2.0 * math.cosh(s * a) / den**s
        m_prime = -m * (2.0 * a / (math.exp(2.0 * s * a) + 1.0) + log_excess)
        assert model.m_closed_form(s) == pytest.approx(m, rel=1e-13, abs=0.0)
        assert model.m_prime_closed_form(s) == pytest.approx(m_prime, rel=1e-13, abs=0.0)


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


def _random_tabular(k, seed, max_len=1):
    rng = np.random.default_rng(seed)
    probs = rng.random(k) + 0.1
    probs /= probs.sum()
    lens = rng.integers(1, max_len + 1, k)
    return Tabular([(p, tuple(rng.random(n) + 1j * rng.random(n)))
                    for p, n in zip(probs, lens)])


@pytest.mark.parametrize("k", [1, 2, 5, 33, 64, 1000])
def test_tabular_atom_selection_matches_searchsorted(k):
    """Atoms are selected by comparing u with the k - 1 cumulative thresholds,
    which gives searchsorted(side="right"), at every threshold exactly and at
    NaN too."""
    model = _random_tabular(k, k)
    cum = model._cum
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0), 1.0, np.nan], cum[:-1],
                        np.nextafter(cum[:-1], 0.0), philox(k, 3).random(5000)])
    expected = np.minimum(np.searchsorted(cum, u, side="right"), k - 1)
    assert np.array_equal(model._atoms_from_uniforms(u[:, None]), expected)


def test_tabular_gather_matches_index_matrix_gather():
    """The run-offset gather takes each row's first counts[i] entries of its
    atom's run, as a rows x max_children index matrix and mask would."""
    for k, seed in ((2, 0), (5, 1), (33, 2)):
        model = _random_tabular(k, seed, max_len=7)
        u = np.concatenate([[[0.0]], philox(seed, 5).random((3000, 1))])
        values, counts = model.weights_from_uniforms(u)
        idx = np.minimum(np.searchsorted(model._cum, u[:, 0], side="right"), k - 1)
        cols = np.arange(model.max_children)
        matrix = (model._offsets[idx][:, None] + cols)[cols < model._lens[idx][:, None]]
        assert np.array_equal(counts, model._lens[idx])
        assert values.tobytes() == model._flat[matrix].tobytes()
    assert Tabular([(1.0, (2.0,))]).weights_from_uniforms(np.empty((0, 1)))[0].shape == (0,)


def test_tabular_m_closed_form_exact():
    model = Tabular([(0.5, (1.2,)), (0.5, (0.4, 0.4))])
    assert model.m_closed_form(0.0) == pytest.approx(1.5, abs=1e-15)
    assert model.m_closed_form(1.0) == pytest.approx(1.0, abs=1e-13)
    expected = 0.5 * 1.2**2 + 0.5 * 2 * 0.4**2
    assert model.m_closed_form(2.0) == pytest.approx(expected, abs=1e-13)
    expected_prime = 0.5 * 1.2 * math.log(1.2) + 0.5 * 2 * 0.4 * math.log(0.4)
    assert model.m_prime_closed_form(1.0) == pytest.approx(expected_prime, abs=1e-13)


def test_tabular_m_overflowing_row_sum_is_inf_without_warning():
    # each power is finite, their sum within the first atom is not; warnings are errors here
    model = Tabular([(1e-3, (1e308, 1e308)), (1 - 1e-3, (1e-300, 1e-300))])
    assert model.m_closed_form(1.0) == math.inf
    assert model.m_prime_closed_form(1.0) == math.inf
    assert find_alpha(model).m0 == 2.0


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


def test_counts_map_matches_weight_path():
    """The private counts map, which the branching generator uses to count a
    generation, gives the counts of weights_from_uniforms on the same
    uniforms, and _draw_counts leaves the generator where draw_batch does."""
    tabular = Tabular([(0.25, (1.0, 2.0)), (0.25, (3.0,)), (0.5, (4.0, 5.0, 6.0))])
    models = [
        BigginsBinary(cmath.exp(1j * math.pi / 4)),
        CyclicPolya(8),
        tabular,
        Tabular([(0.5, (0.9,)), (0.5, (0.25, 0.25, 0.25, 0.25, 0.1))]),
        Tabular([(1.0, (0.5, 0.5))]),
    ]
    below_one = np.nextafter(1.0, 0.0)
    for model in models:
        u = philox(3, 1).random((1000, model.uniform_budget))
        edges = np.concatenate([[0.0], tabular._cum, [below_one]]) if model is tabular else [0.0]
        edge_rows = np.repeat(np.asarray(edges)[:, None], model.uniform_budget, axis=1)
        for block in (u, edge_rows):
            counts = model._counts_from_uniforms(block)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, model.weights_from_uniforms(block)[1])
        rng, ref = philox(9, 4), philox(9, 4)
        assert np.array_equal(model._draw_counts(rng, 500), model.draw_batch(ref, 500)[1])
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
    # the last atom's edge: u at or past _cum[-1] = 1 still selects the last atom
    u = np.array([[tabular._cum[0]], [tabular._cum[1]], [below_one], [1.0]])
    assert tabular._counts_from_uniforms(u).tolist() == [1, 3, 3, 3]


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
