import dataclasses

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


def test_low_envelope_fails_the_growth_bound():
    """j = t^2/2 under the envelope alpha = 1/4: j <= alpha t^p fails."""
    J = dataclasses.replace(integrand.builtin("plaplace", p=2.0),
                            name="low-envelope",
                            alpha=lambda s: np.full(np.shape(s), 0.25))
    check = integrand.check_conditions(J, q=4.0).checks["j2"]
    assert check.verdict == "fail"
    assert "growth bound" in check.note
    s, t = check.witness
    assert float(J.j(s, t)) > 0.25 * t ** 2


@pytest.mark.parametrize("key, part, power", [("j3", "j_s", 2.0),
                                              ("j3t", "j_t", 1.0)])
def test_cubic_density_fails_the_partial_growth(key, part, power):
    """j = (1 + s^2) t^3/3 with p = 2: |j_s|/t^2 and |j_t|/t grow like t."""
    J = integrand.Integrand(
        name="cubic", p=2.0,
        j=lambda s, t: (1.0 + s * s) * t ** 3 / 3.0,
        j_s=lambda s, t: 2.0 * s * t ** 3 / 3.0,
        j_t=lambda s, t: (1.0 + s * s) * t ** 2,
        alpha0=0.5, alpha=lambda s: 1.0 + s * s, alpha_bounded=False)
    check = integrand.check_conditions(J, q=4.0, t_max=4.0).checks[key]
    assert check.verdict == "fail"
    s, t = check.witness
    # the witness lies at the box edge, and its ratio is still growing
    assert t >= 0.9 * 4.0

    def ratio(t):
        return abs(float(getattr(J, part)(s, t))) / t ** power
    assert ratio(t) > ratio(0.5 * t) > 0.0


def test_fading_modulation_fails_the_sign_condition():
    """a(s) = 2 - s^2/(1+s^2) falls in |s|, so j_s s < 0 off s = 0."""
    def a(s):
        return 2.0 - s * s / (1.0 + s * s)

    def a_prime(s):
        return -2.0 * s / (1.0 + s * s) ** 2
    J = integrand.Integrand(
        name="fading", p=2.0,
        j=lambda s, t: a(s) * t ** 2 / 2.0,
        j_s=lambda s, t: a_prime(s) * t ** 2 / 2.0,
        j_t=lambda s, t: a(s) * t,
        alpha0=0.5, alpha=lambda s: a(s) / 2.0)
    check = integrand.check_conditions(J, q=4.0).checks["j4"]
    assert check.verdict == "fail"
    s, t = check.witness
    assert abs(s) >= J.sign_radius
    assert float(J.j_s(s, t)) * s < 0.0


def test_slowly_fading_envelope_ratio_is_inconclusive():
    """With q - p = 0.1, alpha / s^{q-p} falls only by 2^-0.1 over the
    sampled tail [4, 8]: decreasing, but not clearly vanishing."""
    J = dataclasses.replace(integrand.builtin("plaplace", p=2.0),
                            name="near-critical")
    check = integrand.check_conditions(J, q=2.1, s_max=8.0).checks["j6"]
    assert check.verdict == "inconclusive"
    assert check.witness is None
    assert "not yet clearly vanishing" in check.note
    assert check.margin == pytest.approx(0.5 / 8.0 ** 0.1, rel=1e-12)
    assert check.margin > 0.9 * 0.5 / 4.0 ** 0.1


def test_growing_envelope_ratio_fails():
    """alpha = (1 + s^2)/2 with q - p = 1: alpha/s grows along the tail."""
    J = integrand.Integrand(
        name="steep", p=2.0,
        j=lambda s, t: (1.0 + s * s) * t ** 2 / 2.0,
        j_s=lambda s, t: s * t ** 2,
        j_t=lambda s, t: (1.0 + s * s) * t,
        alpha0=0.5, alpha=lambda s: (1.0 + s * s) / 2.0,
        alpha_bounded=False)
    check = integrand.check_conditions(J, q=3.0, s_max=8.0,
                                       density=60).checks["j6"]
    assert check.verdict == "fail"
    s, _ = check.witness
    # the ratio rises into the witness from the sample before it
    step = 2.0 * 8.0 / (2 * 60)

    def ratio(s):
        return float(J.alpha(s)) / s ** (3.0 - 2.0)
    assert s - step >= 4.0
    assert ratio(s) > ratio(s - step)


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
