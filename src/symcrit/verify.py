"""Criticality checks at computed points.

A restricted solve only controls the group-invariant part of the energy
gradient.  Whether the complementary part also vanishes is exactly the
numerical content of symmetric criticality, so the checks here split the
residual into its invariant and transverse components and measure both
in the dual quadrature norm, alongside a dense sweep of normalized test
directions and a sampling falsifier for the directional lower bound the
restricted-to-full implication rests on.
"""

from dataclasses import asdict, dataclass
import math

import numpy as np

from .errors import HypothesisViolationError, ParameterError
from . import functional
from . import grid
from .grid import GridFunction
from . import group as group_mod

SWEEP_CSV_HEADER = "j,max_directional_derivative"

# admissible distance from Fix(G); points farther away are rejected, not
# projected, because a silent projection would hide solver defects
INVARIANCE_TOL = 1e-10


def dual_norm(domain, r: np.ndarray) -> float:
    """Norm of a residual vector in the dual of the quadrature metric."""
    w = domain.weights
    return float(math.sqrt(np.sum(r * r / w)))


def _invariance_gate(symmetry, values, who) -> float:
    """Sup distance of values from Fix(G); raises beyond INVARIANCE_TOL."""
    proj = group_mod.average_values(symmetry, values)
    err = float(np.max(np.abs(values - proj)))
    if err > INVARIANCE_TOL:
        raise HypothesisViolationError(
            f"{who} is {err:.3e} from the fixed subspace, beyond "
            f"{INVARIANCE_TOL:.0e}")
    return err


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


def weak_slope(model, u: GridFunction) -> SlopeValue:
    """Dual-norm gradient magnitude used by the solver's stopping test."""
    r = functional.residual_of_values(model, u.values)
    return SlopeValue(value=dual_norm(model.domain, r),
                      formal_only=not model.integrand.alpha_bounded)


# ---------------------------------------------------------------------------
# dense direction sweep


def dense_test_sweep(model, u: GridFunction, j_max: int) -> list:
    """Per-level maxima of |f'(u) v| over unit nodal test directions.

    Level j admits the hat direction at node i only where |u_i| <= j, a
    growing filtration whose union is every interior direction, so the
    maxima are nondecreasing in j and saturate once j >= max |u|.  Each
    hat is scaled to unit W^{1,p} norm before testing.
    """
    if j_max < 1:
        raise ParameterError(f"sweep needs j_max >= 1, got {j_max}")
    dom = model.domain
    r = functional.residual_of_values(model, u.values)
    norms = grid.hat_w1p_norms(dom, model.p)
    interior = ~dom.boundary
    slopes = np.abs(r) / norms
    rows = []
    for j in range(1, int(j_max) + 1):
        mask = interior & (np.abs(u.values) <= float(j))
        top = float(np.max(slopes[mask])) if np.any(mask) else 0.0
        rows.append((j, top))
    return rows


def write_sweep_csv(rows, path, extra_comments=()):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for line in extra_comments:
            fh.write(f"# {line}\n")
        for j, top in rows:
            fh.write(f"{j},{top:.17g}\n")


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


def palais_check(model, symmetry, u: GridFunction, tau_tan: float = 1e-8,
                 tau_trans: float = None, j_max: int = None) -> CriticalityReport:
    """Split the residual at an invariant point and test both parts.

    The headline verdict is an implication: when the tangential part is
    below tau_tan (the point is critical for the restricted problem), the
    transverse part must fall below tau_trans too.  tau_trans defaults to
    10 * tau_tan because the transverse component carries discretization
    error the solver's own stopping test never sees.
    """
    if tau_tan <= 0:
        raise ParameterError("tangential tolerance must be positive")
    if tau_trans is None:
        tau_trans = 10.0 * tau_tan
    if tau_trans <= 0:
        raise ParameterError("transverse tolerance must be positive")

    dom = model.domain
    inv_err = _invariance_gate(symmetry, u.values, "point")

    r = functional.residual_of_values(model, u.values)
    # averaging is self-adjoint because node weights are group-invariant,
    # so it splits the dual vector orthogonally in the 1/w metric
    r_tan = group_mod.average_values(symmetry, r)
    tangential = dual_norm(dom, r_tan)
    transverse = dual_norm(dom, r - r_tan)

    if j_max is None:
        j_max = max(1, int(math.ceil(np.max(np.abs(u.values)))) + 1)
    sweep = dense_test_sweep(model, u, j_max)
    slope = weak_slope(model, u)

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


# ---------------------------------------------------------------------------
# directional lower-bound sampling


@dataclass
class AssumptionReport:
    """Sampled margins of the transverse directional lower bound.

    worst_margin is the minimum over admitted samples of
    [f(z0 + t(z - Az)) - f(z0)] / (t * ||z - Az||); a finite negative
    bound is the expected outcome.  Sampling can only falsify the bound,
    so diverging=True (margins blowing up under t-refinement at the worst
    witness) is the meaningful failure, never a proof of the inequality.
    """

    worst_margin: float
    diverging: bool
    samples: int
    used: int
    degenerate_skipped: int
    side_skipped: int
    rho: float
    seed: int
    refinement_margins: list
    witness: dict

    @property
    def vacuous(self) -> bool:
        return self.used == 0

    def to_dict(self) -> dict:
        return {
            "worst_margin": None if self.vacuous else self.worst_margin,
            "diverging": self.diverging,
            "samples": self.samples,
            "used": self.used,
            "degenerate_skipped": self.degenerate_skipped,
            "side_skipped": self.side_skipped,
            "rho": self.rho,
            "seed": self.seed,
            "refinement_margins": self.refinement_margins,
            "witness": self.witness,
        }


def check_assumption_A(model, symmetry, u: GridFunction, v: GridFunction,
                       samples: int = 1000, rho: float = 0.5,
                       seed: int = 0) -> AssumptionReport:
    """Sample difference quotients along transverse directions near (u, v).

    Draws z0 in the invariant rho-ball around u, z in the plain rho-ball
    around v, and t in (0, rho] log-uniformly; samples violating the
    energy side condition f(z0 - t Az) <= f(u) + rho are outside the
    bound's domain and skipped.  The worst witness is then re-evaluated
    under 20 halvings of t; a margin sequence that keeps deepening by a
    factor of 1000 marks divergence.
    """
    if samples < 1:
        raise ParameterError("need at least one sample")
    if rho <= 0:
        raise ParameterError("sampling radius must be positive")
    _invariance_gate(symmetry, u.values, "base point")
    _invariance_gate(symmetry, v.values, "direction anchor")

    dom = model.domain
    rng = np.random.default_rng([seed, 3])
    f_u = functional.energy_of_values(model, u.values)

    def ball_draw(center, invariant):
        step = rng.standard_normal(dom.n_nodes)
        step[dom.boundary] = 0.0
        if invariant:
            step = group_mod.average_values(symmetry, step)
        size = grid.norm_w1p(GridFunction(dom, step), model.p)
        if size == 0.0:
            return center.copy()
        return center + (rho * rng.uniform() / size) * step

    worst = math.inf
    witness = {}
    used = 0
    degenerate = 0
    side = 0
    worst_state = None
    for _ in range(samples):
        z0 = ball_draw(u.values, invariant=True)
        z = ball_draw(v.values, invariant=False)
        az = group_mod.average_values(symmetry, z)
        d = z - az
        nd = grid.norm_w1p(GridFunction(dom, d), model.p)
        if nd <= 1e-14 * (1.0 + float(np.max(np.abs(z)))):
            degenerate += 1
            continue
        t = rho * 10.0 ** rng.uniform(-3.0, 0.0)
        if functional.energy_of_values(model, z0 - t * az) > f_u + rho:
            side += 1
            continue
        f_z0 = functional.energy_of_values(model, z0)
        margin = (functional.energy_of_values(model, z0 + t * d) - f_z0) \
            / (t * nd)
        used += 1
        if margin < worst:
            worst = margin
            worst_state = (z0, d, nd, f_z0, t)

    refinement = []
    diverging = False
    if worst_state is not None:
        z0, d, nd, f_z0, t = worst_state
        for k in range(20):
            tk = t * 0.5 ** k
            mk = (functional.energy_of_values(model, z0 + tk * d) - f_z0) \
                / (tk * nd)
            refinement.append(float(mk))
        diverging = (refinement[-1] < -1e3 * (1.0 + abs(refinement[0]))
                     and refinement[-1] < refinement[0])
        witness = {"t": t, "margin": worst,
                   "z0_max": float(np.max(np.abs(z0))),
                   "direction_norm": nd}

    return AssumptionReport(
        worst_margin=worst, diverging=diverging, samples=samples, used=used,
        degenerate_skipped=degenerate, side_skipped=side, rho=rho, seed=seed,
        refinement_margins=refinement, witness=witness)
