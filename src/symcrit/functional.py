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
from .grid import Domain, GridFunction, cell_form, cell_values
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


def _density(model, avg, t):
    """Energy density per cell from the cell averages and |Du|."""
    p = model.p
    return model.integrand.j(avg, t) + np.abs(avg) ** p / p \
        - _q_value(model, avg)


def _value_slope(model, avg, t):
    """Partial derivative of the density in the cell average."""
    return model.integrand.j_s(avg, t) + _power_slope(avg, model.p) \
        - _q_slope(model, avg)


def energy_of_values(model: EnergyModel, values: np.ndarray):
    """f of one nodal vector (a float), or of each row of a (k, n) stack
    (a (k,) array), from one product with the cell map."""
    avg, t, _ = cell_values(model.domain, values)
    f = np.sum(model.domain.cells.weights * _density(model, avg, t), axis=-1)
    return f if f.ndim else float(f)


def energy(model: EnergyModel, u: GridFunction) -> float:
    """Evaluate f(u).  Finite for finite input by construction."""
    _check_domain(model, u)
    return energy_of_values(model, u.values)


def residual_of_values(model: EnergyModel, values: np.ndarray) -> np.ndarray:
    """All partial derivatives f'(u) e_i in one sweep, zero on the boundary."""
    dom, J = model.domain, model.integrand
    cs = dom.cells
    avg, t, grads = cell_values(dom, values)

    coefs = np.empty((1 + grads.shape[0], cs.count))
    coefs[0] = cs.weights * _value_slope(model, avg, t)
    t_part = cs.weights * J.j_t(avg, t)
    ratio = np.divide(t_part, t, out=np.zeros_like(t), where=t > 0)
    np.multiply(ratio, grads, out=coefs[1:])

    r = cs.apply_t(coefs)
    r[dom.boundary] = 0.0
    return r


def hessian_of_values(model: EnergyModel, values: np.ndarray):
    """The Hessian of f at one nodal vector on the interior nodes, a
    ``grid.CellForm.matrix``: dense up to ``grid.DENSE_MAX_UNKNOWNS``
    interior nodes, a CSC matrix above; the density must have its second
    partials.

    It is op^T B op, assembled by ``grid.cell_form``, where B holds one
    (1+d) x (1+d) block per cell in the order (average, gradient
    components): rho_ss, then rho_st n, then (rho_t/t)(I - n n^T)
    + rho_tt n n^T, times the cell weight.  rho is the density with the
    |s|^p/p and q terms and n = Du/|Du|.  As in the Picard metric, |Du| is
    clamped at 1e-8 (1 + max |Du|) so flat cells stay finite for p < 2,
    and |s| is floored the same way in the |s|^{p-2} and |s|^{q-2} terms.
    Off those floors the matrix is the exact derivative of
    ``residual_of_values``.
    """
    dom, J = model.domain, model.integrand
    if not J.second_partials:
        raise ParameterError(f"density {J.name!r} has no second partials")
    cs = dom.cells
    p, q = model.p, model.q
    avg, t, grads = cell_values(dom, values)
    t = np.maximum(t, 1e-8 * (1.0 + float(t.max(initial=0.0))))
    s = np.abs(avg)
    s = np.maximum(s, 1e-8 * (1.0 + float(s.max(initial=0.0))))
    q_ss = (q - 1.0) * s ** (q - 2.0)
    if model.positivity:
        q_ss = np.where(avg > 0.0, q_ss, 0.0)
    w = cs.weights
    n = grads / t
    tangent = w * J.j_t(avg, t) / t
    d = n.shape[0]
    block = np.empty((d + 1, d + 1, cs.count))
    block[0, 0] = w * (J.j_ss(avg, t) + (p - 1.0) * s ** (p - 2.0) - q_ss)
    block[0, 1:] = block[1:, 0] = w * J.j_st(avg, t) * n
    block[1:, 1:] = (w * J.j_tt(avg, t) - tangent) * n[:, None] * n[None] \
        + tangent * np.eye(d)[:, :, None]
    return cell_form(dom).matrix(block, 0.0)


def directional_derivative(model: EnergyModel, u: GridFunction,
                           v: GridFunction) -> float:
    """f'(u) v with the j_t * Du/|Du| = 0 convention on flat cells."""
    _check_domain(model, u)
    _check_domain(model, v)
    dom, J = model.domain, model.integrand
    avg, t, grads = cell_values(dom, u.values)
    vavg, _, vgrads = cell_values(dom, v.values)

    s_term = _value_slope(model, avg, t) * vavg
    dot = (grads * vgrads).sum(axis=0)
    t_term = np.divide(J.j_t(avg, t) * dot, t, out=np.zeros_like(t), where=t > 0)
    return float(np.sum(dom.cells.weights * (s_term + t_term)))


@dataclass(frozen=True)
class Ray:
    """The energy along the ray t v, t >= 0, priced from v's cell
    quantities alone: the cell averages and |Du| of t v are t times those
    of v, so no further product with the cell map is needed.  The slope
    is summed over the cells, for any density.

    For a homogeneous density (``Integrand.homogeneous``) ``ray`` also
    sets A = sum w (j(a, |Dv|) + |a|^p/p) and B = sum w Q(a)/q, with a
    the cell averages and Q(a)/q the q term of ``_density``; then
    f(t v) = t^p A - t^q B exactly (the fibering map), whose one peak the
    solver takes in closed form from the two sums.  Otherwise A and B are
    None."""

    model: EnergyModel
    avg: np.ndarray             # cell averages of v
    grad: np.ndarray            # |Dv| per cell
    A: float = None             # the t^p coefficient, homogeneous j only
    B: float = None             # the t^q coefficient, homogeneous j only

    def slope(self, t: float) -> float:
        """d/dt f(t v) = f'(t v) v; flat cells contribute j_t * 0."""
        s, g = t * self.avg, t * self.grad
        terms = _value_slope(self.model, s, g) * self.avg \
            + self.model.integrand.j_t(s, g) * self.grad
        return float(np.sum(self.model.domain.cells.weights * terms))


def ray(model: EnergyModel, values: np.ndarray) -> Ray:
    """The ray through one nodal vector, from one product with the cell
    map; for a homogeneous density also its two sums A and B, from which
    the ray's peak and level follow in closed form."""
    avg, t, _ = cell_values(model.domain, values)
    if not model.integrand.homogeneous:
        return Ray(model, avg, t)
    w, p = model.domain.cells.weights, model.p
    a = float(np.sum(w * (model.integrand.j(avg, t) + np.abs(avg) ** p / p)))
    b = float(np.sum(w * _q_value(model, avg)))
    return Ray(model, avg, t, a, b)
