"""Quasi-linear energy densities j(s, t) and their structural conditions.

The density enters the energy as j(u, |Du|), so ``s`` is the function
value and ``t >= 0`` the gradient magnitude.  All callables must be
vectorized over numpy arrays.  The checker samples a box in the (s, t)
plane; it can falsify a condition with a concrete witness but can only
report "pass" for the sampled region, and says "inconclusive" when the
sampled tail is too short to judge a limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass
class Integrand:
    """Density j with partial derivatives and growth metadata.

    alpha0 is the coercivity constant in alpha0 * t^p <= j(s, t); alpha is
    the increasing envelope in j <= alpha(|s|) * t^p, given in closed form
    as part of the density's data.
    sign_radius and superlinear_radius are the thresholds beyond which the
    sign condition j_s(s,t)*s >= 0 and the q-superlinearity hold.
    j_ss, j_st and j_tt are the second partials; when all three are given
    the solver finishes its ray stage with Newton steps on the exact
    Hessian, and without them it never tries one.
    homogeneous declares that j is jointly p-homogeneous:
    j(lambda s, lambda t) = lambda^p j(s, t) for every lambda > 0.  The
    energy along a ray is then t^p A - t^q B: ``functional.ray`` forms
    the two sums and the solver takes the ray's peak and level from them
    in closed form instead of searching per cell; set it on a density
    that is not homogeneous and every peak search is wrong.
    """

    name: str
    p: float
    j: callable
    j_s: callable
    j_t: callable
    alpha0: float
    alpha: callable
    alpha_bounded: bool = True
    sign_radius: float = 0.0
    superlinear_radius: float = 0.0
    delta: float = None
    j_ss: callable = None
    j_st: callable = None
    j_tt: callable = None
    homogeneous: bool = False

    @property
    def second_partials(self) -> bool:
        """Whether j_ss, j_st and j_tt are all given."""
        return None not in (self.j_ss, self.j_st, self.j_tt)


def builtin(name: str, p: float) -> Integrand:
    """Construct a built-in density: ``plaplace`` or ``modulated``."""
    if p <= 1:
        raise ParameterError(f"growth exponent must satisfy p > 1, got {p}")

    if name == "plaplace":
        return Integrand(
            name="plaplace",
            p=p,
            j=lambda s, t: t ** p / p,
            j_s=lambda s, t: np.zeros(np.broadcast(s, t).shape),
            j_t=lambda s, t: t ** (p - 1.0),
            alpha0=1.0 / p,
            alpha=lambda s: np.full(np.shape(s) or (), 1.0 / p),
            alpha_bounded=True,
            j_ss=lambda s, t: np.zeros(np.broadcast(s, t).shape),
            j_st=lambda s, t: np.zeros(np.broadcast(s, t).shape),
            j_tt=lambda s, t: (p - 1.0) * t ** (p - 2.0),
            homogeneous=True,
        )

    if name == "modulated":
        # j = a(s) t^p / p with a(s) = 1 + s^2/(1+s^2); a is even, bounded
        # in [1, 2), and s * a'(s) >= 0, so the sign condition holds with
        # sign_radius 0.
        def a(s):
            s2 = np.square(s)
            return 1.0 + s2 / (1.0 + s2)

        def a_prime(s):
            return 2.0 * s / np.square(1.0 + np.square(s))

        def a_second(s):
            s2 = np.square(s)
            return (2.0 - 6.0 * s2) / (1.0 + s2) ** 3

        return Integrand(
            name="modulated",
            p=p,
            j=lambda s, t: a(s) * t ** p / p,
            j_s=lambda s, t: a_prime(s) * t ** p / p,
            j_t=lambda s, t: a(s) * t ** (p - 1.0),
            alpha0=1.0 / p,
            alpha=lambda s: a(s) / p,
            alpha_bounded=True,
            j_ss=lambda s, t: a_second(s) * t ** p / p,
            j_st=lambda s, t: a_prime(s) * t ** (p - 1.0),
            j_tt=lambda s, t: (p - 1.0) * a(s) * t ** (p - 2.0),
        )

    raise ParameterError(f"unknown built-in integrand {name!r}")


# ---------------------------------------------------------------------------
# condition checking


@dataclass
class ConditionCheck:
    verdict: str                 # "pass" | "fail" | "inconclusive"
    margin: float = None
    witness: tuple = None        # offending (s, t) when verdict == "fail"
    note: str = ""

    def to_dict(self):
        return {"verdict": self.verdict, "margin": self.margin,
                "witness": list(self.witness) if self.witness else None,
                "note": self.note}


@dataclass
class ConditionReport:
    integrand: str
    p: float
    q: float
    delta: float
    s_max: float
    t_max: float
    density: int
    checks: dict

    @property
    def all_passed(self) -> bool:
        return all(c.verdict == "pass" for c in self.checks.values())

    def to_dict(self):
        return {
            "integrand": self.integrand, "p": self.p, "q": self.q,
            "delta": self.delta, "s_max": self.s_max, "t_max": self.t_max,
            "density": self.density, "all_passed": self.all_passed,
            "checks": {k: c.to_dict() for k, c in self.checks.items()},
        }


def _argmin_witness(values, s_grid, t_grid):
    i, k = np.unravel_index(np.argmin(values), values.shape)
    return float(s_grid[i]), float(t_grid[k])


def check_conditions(J: Integrand, q: float, s_max: float = 8.0,
                     t_max: float = 4.0, density: int = 60) -> ConditionReport:
    """Sample the structural conditions on [-s_max, s_max] x (0, t_max]."""
    p = J.p
    if q <= p:
        raise ParameterError(f"superlinearity requires q > p, got q={q}, p={p}")
    delta = J.delta if J.delta is not None else (q / p - 1.0) / 2.0

    s_grid = np.linspace(-s_max, s_max, 2 * density + 1)
    t_grid = np.linspace(t_max / density, t_max, density)
    S = s_grid[:, None]
    T = t_grid[None, :]
    jv = J.j(S, T)
    js = J.j_s(S, T)
    jt = J.j_t(S, T)
    checks = {}

    # (j1) strict convexity and strict monotonicity in t, per fixed s
    mid = 0.5 * (T[:, :-1] + T[:, 1:])
    gap = 0.5 * (jv[:, :-1] + jv[:, 1:]) - J.j(S, mid)
    inc = jv[:, 1:] - jv[:, :-1]
    conv_margin = float(np.min(gap))
    inc_margin = float(np.min(inc))
    if conv_margin <= 0 or inc_margin <= 0:
        if conv_margin <= 0:
            i, k = np.unravel_index(np.argmin(gap), gap.shape)
            wit = (float(s_grid[i]), float(mid[0, k]))
        else:
            i, k = np.unravel_index(np.argmin(inc), inc.shape)
            wit = (float(s_grid[i]), float(t_grid[k + 1]))
        checks["j1"] = ConditionCheck("fail", min(conv_margin, inc_margin), wit,
                                      "midpoint convexity or monotonicity violated")
    else:
        checks["j1"] = ConditionCheck("pass", min(conv_margin, inc_margin),
                                      note="strict midpoint convexity margin")

    # (j2) alpha0 t^p <= j <= alpha(|s|) t^p
    tp = T ** p
    lower = jv - J.alpha0 * tp
    low_margin = float(np.min(lower))
    if low_margin < -1e-12 * float(np.max(np.abs(jv))):
        checks["j2"] = ConditionCheck("fail", low_margin,
                                      _argmin_witness(lower, s_grid, t_grid),
                                      "coercivity alpha0 t^p <= j violated")
    else:
        upper = J.alpha(np.abs(S)) * tp - jv
        up_margin = float(np.min(upper))
        if up_margin < -1e-12 * float(np.max(np.abs(jv))):
            checks["j2"] = ConditionCheck(
                "fail", up_margin, _argmin_witness(upper, s_grid, t_grid),
                "growth bound j <= alpha(|s|) t^p violated")
        else:
            checks["j2"] = ConditionCheck("pass", min(low_margin, up_margin))

    # (j3)/(j3') growth of the partials: the ratios |j_s|/t^p and |j_t|/t^{p-1}
    # must not still be growing at the edge of the sampled t-range
    for key, part, power in (("j3", np.abs(js), p), ("j3t", np.abs(jt), p - 1.0)):
        ratio = part / T ** power
        head = int(0.9 * density)
        peak_head = np.max(ratio[:, :head])
        peak_tail = np.max(ratio[:, head:])
        if peak_tail > peak_head * (1 + 1e-6) + 1e-12:
            i, k = np.unravel_index(np.argmax(ratio), ratio.shape)
            checks[key] = ConditionCheck(
                "fail", float(peak_tail - peak_head),
                (float(s_grid[i]), float(t_grid[k])),
                f"ratio grows with t at the box edge (sup {peak_tail!r})")
        else:
            checks[key] = ConditionCheck("pass", float(peak_tail),
                                         note="sup of the sampled ratio")

    # (j4) sign condition beyond sign_radius
    mask = np.abs(S) >= J.sign_radius
    sign_vals = np.where(mask, js * S, np.inf)
    sign_margin = float(np.min(sign_vals))
    if sign_margin < -1e-12:
        checks["j4"] = ConditionCheck("fail", sign_margin,
                                      _argmin_witness(sign_vals, s_grid, t_grid),
                                      "j_s(s,t) s changes sign beyond the radius")
    else:
        checks["j4"] = ConditionCheck("pass", sign_margin)

    # (j5) q-superlinearity with the supplied delta beyond superlinear_radius
    mask = np.abs(S) >= J.superlinear_radius
    super_vals = np.where(mask, q * jv - js * S - (1 + delta) * jt * T, np.inf)
    super_margin = float(np.min(super_vals))
    if super_margin < -1e-12 * float(np.max(np.abs(jv))):
        checks["j5"] = ConditionCheck("fail", super_margin,
                                      _argmin_witness(super_vals, s_grid, t_grid),
                                      f"fails with delta={delta!r}")
    else:
        checks["j5"] = ConditionCheck("pass", super_margin,
                                      note=f"delta={delta!r}")

    # (j6) alpha(|s|) / |s|^{q-p} -> 0: judged on the sampled tail only
    tail = s_grid[s_grid >= max(1.0, 0.5 * s_max)]
    if tail.size < 6:
        checks["j6"] = ConditionCheck(
            "inconclusive", note="sampled tail too short to judge the limit")
    else:
        ratio = np.asarray(J.alpha(tail)) / tail ** (q - p)
        decreasing = bool(np.all(ratio[1:] <= ratio[:-1] * (1 + 1e-9)))
        vanishing = ratio[-1] <= 0.9 * ratio[0]
        if decreasing and vanishing:
            checks["j6"] = ConditionCheck("pass", float(ratio[-1]))
        elif decreasing:
            checks["j6"] = ConditionCheck(
                "inconclusive", float(ratio[-1]),
                note="tail decreasing but not yet clearly vanishing")
        else:
            k = int(np.argmax(ratio[1:] - ratio[:-1])) + 1
            checks["j6"] = ConditionCheck(
                "fail", float(ratio[-1] - ratio[0]), (float(tail[k]), 0.0),
                "alpha(|s|)/|s|^{q-p} grows along the sampled tail")

    return ConditionReport(integrand=J.name, p=p, q=q, delta=delta,
                           s_max=s_max, t_max=t_max, density=density,
                           checks=checks)
