import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcrit import integrand
from symcrit.errors import ParameterError

FINITE_S = st.floats(min_value=-50, max_value=50, allow_nan=False)
POSITIVE_T = st.floats(min_value=1e-6, max_value=50, allow_nan=False)


def test_plaplace_values():
    J = integrand.builtin("plaplace", p=2.0)
    assert J.j(5.0, 2.0) == 2.0
    assert float(J.j_s(5.0, 2.0)) == 0.0
    assert J.j_t(5.0, 2.0) == 2.0


def test_modulated_values():
    J = integrand.builtin("modulated", p=2.0)
    t = np.array([0.5, 1.0, 2.0])
    assert np.allclose(J.j(np.zeros(3), t), t ** 2 / 2)
    # the modulation doubles the density as |s| grows
    assert np.allclose(J.j(1e6, 1.0), 2.0 / 2.0, rtol=1e-10)


def test_rejects_bad_p():
    with pytest.raises(ParameterError):
        integrand.builtin("plaplace", p=1.0)


def test_rejects_unknown_name():
    with pytest.raises(ParameterError):
        integrand.builtin("fancy", p=2.0)


@pytest.mark.parametrize("p", [1.8, 2.0, 2.5])
@pytest.mark.parametrize("name", ["plaplace", "modulated"])
def test_second_partials_match_central_differences(name, p):
    J = integrand.builtin(name, p=p)
    assert J.second_partials
    s = np.linspace(-3.0, 3.0, 13)[:, None]
    t = np.linspace(0.2, 4.0, 12)[None, :]
    h = 1e-6
    pairs = (
        (J.j_ss, (J.j_s(s + h, t) - J.j_s(s - h, t)) / (2 * h)),
        (J.j_st, (J.j_s(s, t + h) - J.j_s(s, t - h)) / (2 * h)),
        (J.j_st, (J.j_t(s + h, t) - J.j_t(s - h, t)) / (2 * h)),
        (J.j_tt, (J.j_t(s, t + h) - J.j_t(s, t - h)) / (2 * h)),
    )
    for exact, numeric in pairs:
        got = np.broadcast_to(exact(s, t), (13, 12))
        assert np.all(np.abs(got - numeric) <= 1e-7 * (1.0 + np.abs(got)))


@given(s=FINITE_S, t=POSITIVE_T)
@settings(max_examples=200, deadline=None)
def test_modulated_sign_condition(s, t):
    """j_s(s, t) * s >= 0 everywhere: the sign radius is zero."""
    J = integrand.builtin("modulated", p=2.0)
    assert float(J.j_s(s, t)) * s >= 0.0


@given(s=FINITE_S, t=POSITIVE_T)
@settings(max_examples=200, deadline=None)
def test_modulated_growth_envelope(s, t):
    J = integrand.builtin("modulated", p=2.0)
    jv = float(J.j(s, t))
    assert J.alpha0 * t ** 2 <= jv * (1 + 1e-12) + 1e-300
    assert jv <= float(J.alpha(abs(s))) * t ** 2 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# condition checker


@pytest.mark.parametrize("name", ["plaplace", "modulated"])
def test_builtin_conditions_pass(name):
    J = integrand.builtin(name, p=2.0)
    report = integrand.check_conditions(J, q=4.0)
    assert report.all_passed, {k: c.verdict for k, c in report.checks.items()}
    assert report.checks["j5"].margin >= 0.0


def test_plaplace_j5_delta_near_limit():
    """For t^p/p the superlinearity holds up to delta = q/p - 1."""
    J = integrand.builtin("plaplace", p=2.0)
    J.delta = (4.0 / 2.0 - 1.0) - 1e-6
    report = integrand.check_conditions(J, q=4.0)
    assert report.checks["j5"].verdict == "pass"
    J.delta = (4.0 / 2.0 - 1.0) + 0.1
    report = integrand.check_conditions(J, q=4.0)
    assert report.checks["j5"].verdict == "fail"
    assert report.checks["j5"].witness is not None


def test_linear_density_fails_with_witness():
    """j(s,t) = t has no p-growth from below for p = 2."""
    J = integrand.Integrand(
        name="linear", p=2.0,
        j=lambda s, t: t + 0 * s,
        j_s=lambda s, t: np.zeros(np.broadcast(s, t).shape),
        j_t=lambda s, t: np.ones(np.broadcast(s, t).shape),
        alpha0=0.5, alpha=lambda s: np.ones(np.shape(s)))
    report = integrand.check_conditions(J, q=4.0)
    assert not report.all_passed
    failed = {k: c for k, c in report.checks.items() if c.verdict == "fail"}
    assert failed
    assert failed["j2"].witness is not None
    s, t = failed["j2"].witness
    # the witness really violates the coercivity bound
    assert 0.5 * t ** 2 > float(J.j(s, t))


def test_short_tail_is_inconclusive():
    J = integrand.builtin("plaplace", p=2.0)
    report = integrand.check_conditions(J, q=4.0, s_max=1.0)
    assert report.checks["j6"].verdict == "inconclusive"
    assert not report.all_passed


def test_requires_q_above_p():
    J = integrand.builtin("plaplace", p=2.0)
    with pytest.raises(ParameterError):
        integrand.check_conditions(J, q=2.0)


def test_report_serializes():
    J = integrand.builtin("modulated", p=2.0)
    d = integrand.check_conditions(J, q=4.0).to_dict()
    assert d["all_passed"] is True
    assert set(d["checks"]) == {"j1", "j2", "j3", "j3t", "j4", "j5", "j6"}


@pytest.mark.parametrize("p", [1.5, 1.8, 2.0, 2.5])
@pytest.mark.parametrize("name, homogeneous", [("plaplace", True),
                                               ("modulated", False)])
def test_homogeneous_flag_matches_the_density(name, homogeneous, p):
    # the flag lets the ray price f(t v) as t^p A - t^q B, so it must be
    # set exactly when j(lambda s, lambda t) = lambda^p j(s, t)
    J = integrand.builtin(name, p=p)
    assert J.homogeneous is homogeneous
    rng = np.random.default_rng(11)
    s = rng.uniform(-5.0, 5.0, 400)
    t = np.concatenate([[0.0], rng.uniform(0.0, 5.0, 399)])
    base = J.j(s, t)
    worst = 0.0
    for lam in (1e-3, 0.3, 2.0, 7.5, 1e3):
        want = lam ** p * base
        err = np.abs(J.j(lam * s, lam * t) - want)
        worst = max(worst, float(np.max(err / np.maximum(np.abs(want),
                                                         1e-300))))
    assert (worst <= 1e-13) is homogeneous
