"""The variational energy f(u) = int j(u, |Du|) + |u|^p/p - |u|^q/q.

Everything is assembled from the domain's cell map: the density sees the
cell average of u and the per-cell first-difference gradient magnitude,
so the discrete energy is an exactly differentiable function of the
nodal values and the residual below, the transposed map applied to the
per-cell partial derivatives, is its literal gradient.  Where a cell has
|Du| = 0 the convention j_t * Du/|Du| = 0 applies.

The optional positivity flag replaces |u|^q/q by (u^+)^q/q, which is the
standard device for steering the search toward nonnegative solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError, ParameterError
from .grid import Domain, GridFunction, cell_values
from .integrand import Integrand


@dataclass
class EnergyModel:
    """Domain + density + exponents; validates the subcritical window."""

    domain: Domain
    integrand: Integrand
    q: float
    positivity: bool = False

    def __post_init__(self):
        p, n = self.integrand.p, self.domain.dim
        if not 1 < p < n:
            raise ParameterError(
                f"need 1 < p < N for the Sobolev setting, got p={p}, N={n}")
        p_star = n * p / (n - p)
        if not p < self.q < p_star:
            raise ParameterError(
                f"need p < q < p* = {p_star!r}, got q={self.q!r} (p={p!r})")

    @property
    def p(self) -> float:
        return self.integrand.p


def _check_domain(model, u):
    if u.domain is not model.domain:
        raise DomainMismatchError("function was built on a different domain")


def _power_slope(s, expo):
    """d/ds |s|^expo / expo = sign(s) |s|^{expo-1}, safe at s = 0."""
    return np.sign(s) * np.abs(s) ** (expo - 1.0)


def _q_value(model, s):
    if model.positivity:
        return np.maximum(s, 0.0) ** model.q / model.q
    return np.abs(s) ** model.q / model.q


def _q_slope(model, s):
    if model.positivity:
        return np.maximum(s, 0.0) ** (model.q - 1.0)
    return _power_slope(s, model.q)


def energy_of_values(model: EnergyModel, values: np.ndarray):
    """f of one nodal vector (a float), or of each row of a (k, n) stack
    (a (k,) array), from one product with the cell map."""
    dom, J, p = model.domain, model.integrand, model.integrand.p
    avg, t, _ = cell_values(dom, values)
    density = J.j(avg, t) + np.abs(avg) ** p / p - _q_value(model, avg)
    f = np.sum(dom.cells.weights * density, axis=-1)
    return f if f.ndim else float(f)


def energy(model: EnergyModel, u: GridFunction) -> float:
    """Evaluate f(u).  Finite for finite input by construction."""
    _check_domain(model, u)
    return energy_of_values(model, u.values)


def residual_of_values(model: EnergyModel, values: np.ndarray) -> np.ndarray:
    """All partial derivatives f'(u) e_i in one sweep, zero on the boundary."""
    dom, J, p = model.domain, model.integrand, model.integrand.p
    cs = dom.cells
    avg, t, grads = cell_values(dom, values)

    s_part = cs.weights * (J.j_s(avg, t) + _power_slope(avg, p)
                           - _q_slope(model, avg))
    t_part = cs.weights * J.j_t(avg, t)
    ratio = np.divide(t_part, t, out=np.zeros_like(t), where=t > 0)

    r = cs.op_t @ np.concatenate([s_part, (ratio * grads).reshape(-1)])
    r[dom.boundary] = 0.0
    return r


def directional_derivative(model: EnergyModel, u: GridFunction,
                           v: GridFunction) -> float:
    """f'(u) v with the j_t * Du/|Du| = 0 convention on flat cells."""
    _check_domain(model, u)
    _check_domain(model, v)
    dom, J, p = model.domain, model.integrand, model.integrand.p
    avg, t, grads = cell_values(dom, u.values)
    vavg, _, vgrads = cell_values(dom, v.values)

    s_term = (J.j_s(avg, t) + _power_slope(avg, p) - _q_slope(model, avg)) * vavg
    dot = (grads * vgrads).sum(axis=0)
    t_term = np.divide(J.j_t(avg, t) * dot, t, out=np.zeros_like(t), where=t > 0)
    return float(np.sum(dom.cells.weights * (s_term + t_term)))


# ---------------------------------------------------------------------------
# truncation and cutoff utilities


def truncate(values, k: float):
    """T_k: clamp values to [-k, k]; 1-Lipschitz, identity on |s| <= k."""
    if k <= 0:
        raise ParameterError(f"truncation level must be positive, got {k}")
    return np.clip(values, -k, k)


def cutoff(values):
    """C^1 bump H: 1 on [-1, 1], 0 outside [-2, 2], |H'| <= 2."""
    s = np.abs(np.asarray(values, dtype=np.float64))
    x = np.clip(s - 1.0, 0.0, 1.0)
    return 1.0 - x * x * (3.0 - 2.0 * x)


def clamped_ramp(values, slope: float, radius: float):
    """zeta(s) = slope * min(|s|, radius): linear near 0, then flat."""
    if slope < 0 or radius < 0:
        raise ParameterError("ramp slope and radius must be nonnegative")
    return slope * np.minimum(np.abs(values), radius)


@dataclass
class PositivityCertificate:
    """Outcome of testing f'(u) against the sign-probing direction."""

    value: float                 # f'(u) applied to -u^- e^{zeta(u)}
    negative_part_norm: float    # ||u^-||_p with the node quadrature
    cell_lower_bound: float      # cell-quadrature integral of |avg(u)^-|^p
    slope: float
    radius: float


def positivity_certificate(model: EnergyModel, u: GridFunction,
                           slope: float = 1.0,
                           radius: float = None) -> PositivityCertificate:
    """Probe in the direction -u^- e^{zeta(u)}.

    At a critical point this derivative vanishes while it dominates the
    integral of |u^-|^p, so a vanishing certificate value certifies that
    the negative part is numerically zero.
    """
    _check_domain(model, u)
    J = model.integrand
    if radius is None:
        radius = J.sign_radius
    neg = np.maximum(-u.values, 0.0)
    v = GridFunction(model.domain,
                     -neg * np.exp(clamped_ramp(u.values, slope, radius)))
    value = directional_derivative(model, u, v)

    p = J.p
    norm_neg = float(np.sum(model.domain.weights * neg ** p) ** (1.0 / p))
    avg = cell_values(model.domain, u.values)[0]
    cell_bound = float(np.sum(model.domain.cells.weights
                              * np.maximum(-avg, 0.0) ** p))
    return PositivityCertificate(value=value, negative_part_norm=norm_neg,
                                 cell_lower_bound=cell_bound,
                                 slope=slope, radius=radius)
