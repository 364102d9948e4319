"""Criticality checks at computed points.

A restricted solve only controls the group-invariant part of the energy
gradient.  Whether the complementary part also vanishes is exactly the
numerical content of symmetric criticality, so the checks here split the
residual into its invariant and transverse components and measure both
in the dual quadrature norm, alongside a dense sweep of normalized test
directions.
"""

from dataclasses import asdict, dataclass
import math

import numpy as np

from .errors import HypothesisViolationError, ParameterError
from . import functional
from . import grid
from .grid import GridFunction
from . import group as group_mod

# admissible distance from Fix(G); points farther away are rejected, not
# projected, because a silent projection would hide solver defects
INVARIANCE_TOL = 1e-10


def dual_norm(domain, r: np.ndarray) -> float:
    """Norm of a residual vector in the dual of the quadrature metric."""
    w = domain.weights
    return float(math.sqrt(np.sum(r * r / w)))


# ---------------------------------------------------------------------------
# weak slope


@dataclass
class SlopeValue:
    """Weak slope at a point; formal_only marks the nonsmooth regime.

    With a bounded modulation envelope the energy is C^1 on the grid and
    the weak slope equals the dual gradient norm.  Without that bound the
    identification is formal: the number is still the gradient norm, but
    it only upper-bounds the true slope.
    """

    value: float
    formal_only: bool

    def __float__(self):
        return self.value

    def to_dict(self) -> dict:
        return {"value": self.value, "formal_only": self.formal_only}


def weak_slope(model, u: GridFunction, *, residual=None) -> SlopeValue:
    """Dual-norm gradient magnitude used by the solver's stopping test.

    ``residual`` is f'(u) when the caller already has it.
    """
    r = (functional.residual_of_values(model, u.values)
         if residual is None else residual)
    return SlopeValue(value=dual_norm(model.domain, r),
                      formal_only=not model.integrand.alpha_bounded)


# ---------------------------------------------------------------------------
# dense direction sweep


def dense_test_sweep(model, u: GridFunction, j_max: int, *,
                     residual=None) -> list:
    """Per-level maxima of |f'(u) v| over unit nodal test directions.

    Level j admits the hat direction at node i only where |u_i| <= j, a
    growing filtration whose union is every interior direction, so the
    maxima are nondecreasing in j and saturate once j >= max |u|.  Each
    hat is scaled to unit W^{1,p} norm before testing.  ``residual`` is
    f'(u) when the caller already has it.
    """
    if j_max < 1:
        raise ParameterError(f"sweep needs j_max >= 1, got {j_max}")
    dom = model.domain
    r = (functional.residual_of_values(model, u.values)
         if residual is None else residual)
    norms = grid.hat_w1p_norms(dom, model.p)
    interior = ~dom.boundary
    slopes = np.abs(r) / norms
    rows = []
    for j in range(1, int(j_max) + 1):
        mask = interior & (np.abs(u.values) <= float(j))
        top = float(np.max(slopes[mask])) if np.any(mask) else 0.0
        rows.append((j, top))
    return rows


# ---------------------------------------------------------------------------
# symmetric criticality


@dataclass
class CriticalityReport:
    tangential: float
    transverse: float
    tau_tan: float
    tau_trans: float
    tangential_ok: bool
    transverse_ok: bool
    principle_holds: bool
    invariance_error: float
    weak_slope: SlopeValue
    sweep: list

    def to_dict(self) -> dict:
        # asdict keeps the sweep rows as tuples; the report lists them
        return {**asdict(self), "sweep": [list(row) for row in self.sweep]}


def palais_check(model, symmetry, u: GridFunction,
                 tau_tan: float = 1e-8) -> CriticalityReport:
    """Split the residual at an invariant point and test both parts.

    The headline verdict is an implication: when the tangential part is
    below tau_tan (the point is critical for the restricted problem), the
    transverse part must fall below tau_trans = 10 * tau_tan too.  On a
    grid that carries G the discrete energy is invariant under the node
    maps, so at an invariant point the transverse part holds roundoff
    and errors of the group code only, not discretization error.  The
    slope sweep runs to level ceil(max |u|) + 1, past the level where its
    maxima saturate.
    """
    if tau_tan <= 0:
        raise ParameterError("tangential tolerance must be positive")
    tau_trans = 10.0 * tau_tan

    dom = model.domain
    inv_err = float(np.max(np.abs(
        u.values - group_mod.average_values(symmetry, u.values))))
    if inv_err > INVARIANCE_TOL:
        raise HypothesisViolationError(
            f"point is {inv_err:.3e} from the fixed subspace, beyond "
            f"{INVARIANCE_TOL:.0e}")

    r = functional.residual_of_values(model, u.values)
    # averaging is self-adjoint because node weights are group-invariant,
    # so it splits the dual vector orthogonally in the 1/w metric
    r_tan = group_mod.average_values(symmetry, r)
    tangential = dual_norm(dom, r_tan)
    transverse = dual_norm(dom, r - r_tan)

    j_max = int(math.ceil(np.max(np.abs(u.values)))) + 1
    sweep = dense_test_sweep(model, u, j_max, residual=r)
    slope = weak_slope(model, u, residual=r)

    tangential_ok = tangential <= tau_tan
    transverse_ok = transverse <= tau_trans
    return CriticalityReport(
        tangential=tangential,
        transverse=transverse,
        tau_tan=tau_tan,
        tau_trans=tau_trans,
        tangential_ok=tangential_ok,
        transverse_ok=transverse_ok,
        principle_holds=tangential_ok and transverse_ok,
        invariance_error=inv_err,
        weak_slope=slope,
        sweep=sweep,
    )
