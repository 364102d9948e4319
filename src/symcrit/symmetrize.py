"""Polarization and exact discrete symmetric-decreasing rearrangement.

A polarizer swaps values across an involutive node pairing, keeping the
larger value on the designated positive side.  Running the rounds of a
sorting network as polarizers realizes the rearrangement u* exactly in
finitely many steps.  The rearrangement sorts within the classes of
equal-weight nodes of ``weight_classes``, one index array per domain
whose rows are ordered by exact integer keys of the grid, with no float
tolerance.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DomainMismatchError,
    ParameterError,
    SymmetryCompatibilityError,
    UnsupportedDomainError,
)
from . import grid
from . import group
from .grid import Domain, GridFunction
from . import functional


# relative slack for float comparisons of quantities that are exact
# rearrangements in real arithmetic
_REL_EPS = 1e-12

# the energy-decrease gate prices its samples in stacks of at most this
# many nodal values
_GATE_BLOCK_VALUES = 1 << 16

# the energy-decrease gate passes a sample whose rearranged energy exceeds
# f(u) by at most this much relative to 1 + |f(u)|
_GATE_TOLERANCE = 1e-10


@dataclass
class Polarizer:
    """An involutive value swap: positive side keeps the larger value.

    ``pairs[k] = (positive node, negative node)``.  Every node appears in
    at most one pair; unpaired nodes are fixed.
    """

    domain: Domain
    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.array(self.pairs, dtype=np.int64, copy=True)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
            raise ParameterError("polarizer needs a nonempty (k, 2) pair array")
        n = self.domain.n_nodes
        if pairs.min() < 0 or pairs.max() >= n:
            raise ParameterError("polarizer pair index out of range")
        flat = pairs.reshape(-1)
        if grid.distinct(flat).shape[0] != flat.shape[0]:
            raise ParameterError("polarizer pairs must not share nodes")
        w = self.domain.weights
        wa, wb = w[pairs[:, 0]], w[pairs[:, 1]]
        bad = np.abs(wa - wb) > _REL_EPS * np.maximum(wa, wb)
        if np.any(bad):
            k = int(np.nonzero(bad)[0][0])
            raise SymmetryCompatibilityError(
                f"polarizer pair ({pairs[k, 0]}, {pairs[k, 1]}) joins nodes "
                f"of unequal quadrature weight ({wa[k]:.17g} vs {wb[k]:.17g})"
            )
        self.pairs = pairs


def polarize(u: GridFunction, h: Polarizer) -> GridFunction:
    """Two-point rearrangement: max on the positive side, min opposite."""
    if u.domain is not h.domain:
        raise DomainMismatchError("grid function and polarizer domains differ")
    return GridFunction(u.domain, _polarized(u.values, h))


def _polarized(values: np.ndarray, h: Polarizer) -> np.ndarray:
    """``polarize`` on one nodal vector or on each row of a stack."""
    out = values.copy()
    a = out[..., h.pairs[:, 0]]
    b = out[..., h.pairs[:, 1]]
    out[..., h.pairs[:, 0]] = np.maximum(a, b)
    out[..., h.pairs[:, 1]] = np.minimum(a, b)
    return out


# ---------------------------------------------------------------------------
# reflection polarizers (grid symmetries)


def _pairs_from_permutation(perm: np.ndarray) -> np.ndarray:
    idx = np.arange(perm.shape[0])
    lower = idx[idx < perm]
    # positive side = smaller node index, so the rearranged maximum lands
    # where the radial tie-break of the target ordering expects it
    return np.column_stack([lower, perm[lower]])


def reflection_polarizers(domain: Domain) -> tuple:
    """One polarizer per mirror of ``group.mirrors``, in that order.

    The positive side of each mirror is its smaller-index half, which
    leaves the rearranged function fixed.  The mirrors are checked like
    group elements (equal weights, boundary, grid edges), so a domain
    whose weights break a mirror raises SymmetryCompatibilityError.  The
    1-d radial domain has no mirrors, so its tuple is empty.
    """
    return tuple(Polarizer(domain, _pairs_from_permutation(perm))
                 for perm in group.mirrors(domain))


# ---------------------------------------------------------------------------
# rearrangement


def weight_classes(domain: Domain) -> np.ndarray:
    """Interior node classes of equal quadrature weight, in target order:
    one read-only (classes, size) index array, a class per row.

    The square's interior is one class, ordered by the exact integer
    (2 ix - m)^2 + (2 iy - m)^2, its squared radius in units of (h/2)^2
    with m = axis_nodes - 1, and then by node index, so mirror partners
    tie and the index breaks the tie.  Each interior ring of a polar grid
    is a class in node order: the interior rings are contiguous and a
    ring has one radius.  Each shell of the radial ball is a class of one
    node, so there the rearrangement takes absolute values.  The
    rearranged function is non-increasing along every row.  The
    rearrangement kernels build it once per domain (``_classes``).
    """
    interior = np.flatnonzero(domain.interior)
    if domain.kind == "square":
        na = domain.meta["axis_nodes"]
        r2 = ((2 * (interior % na) - (na - 1)) ** 2
              + (2 * (interior // na) - (na - 1)) ** 2)
        classes = interior[np.argsort(r2, kind="stable")][None]
    elif domain.kind in ("disk-polar", "annulus-polar"):
        classes = interior.reshape(-1, domain.meta["n_theta"])
    elif domain.kind == "radial-ball-1d":
        classes = interior[:, None]
    else:
        raise UnsupportedDomainError(
            f"no equal-weight partition for domain kind {domain.kind!r}")
    w = domain.weights[classes]
    if not np.all(w == w[:, :1]):
        raise UnsupportedDomainError(
            "quadrature weights differ within a rearrangement class; "
            "refusing to approximate the rearrangement")
    classes.flags.writeable = False
    return classes


def _classes(domain: Domain) -> np.ndarray:
    """``weight_classes`` of the domain, built on first use and kept."""
    return domain.cached("weight_classes", lambda: weight_classes(domain))


def schwarz_values(domain: Domain, values: np.ndarray) -> np.ndarray:
    """``schwarz`` on raw nodal values, one vector or each row of a (k, n)
    stack: one sort along the last axis of the classes' values."""
    classes = _classes(domain)
    out = np.zeros(values.shape)
    out[..., classes] = np.sort(np.abs(values[..., classes]),
                                axis=-1)[..., ::-1]
    return out


def schwarz(u: GridFunction) -> GridFunction:
    """Rearrange |u| to be non-increasing within each equal-weight class."""
    return GridFunction(u.domain, schwarz_values(u.domain, u.values))


def cone_project(u: GridFunction) -> GridFunction:
    """Metric projection onto the fixed cone of the rearrangement.

    The cone {v : v = v*} consists of nonnegative functions that are
    non-increasing along each class order; projecting is per-class
    decreasing isotonic regression followed by clipping at zero.  Unlike
    the rearrangement itself this is a contraction that pools an order
    violation instead of reflecting it, so a projected descent step is
    never forced below the scale of the violation.
    """
    classes = _classes(u.domain)
    rows = u.values[classes]
    # only rows out of order are fitted: the fit pools runs of equal
    # values too, and their recomputed mean may move by an ulp
    bad = np.flatnonzero(np.any(rows[:, 1:] > rows[:, :-1], axis=1))
    if bad.size:
        # imported here: scipy.optimize costs about 16 MB of resident
        # memory, and one-node classes never get here (classes have equal
        # quadrature weights, so the fit is unweighted)
        from scipy.optimize import isotonic_regression
        for i in bad:
            rows[i] = isotonic_regression(rows[i], increasing=False).x
    out = np.zeros(u.domain.n_nodes)
    out[classes] = np.maximum(rows, 0.0)
    return GridFunction(u.domain, out)


@dataclass
class SymmetrizationPlan:
    """Rounds of polarizers mapping |u| to its rearrangement exactly: each
    a ``Polarizer`` of disjoint comparators (positive node, negative node)
    within one weight class, the positive node first in target order."""

    domain: Domain
    rounds: tuple

    @property
    def swap_count(self) -> int:
        return sum(h.pairs.shape[0] for h in self.rounds)

    @property
    def swap_bound(self) -> int:
        n = int(np.count_nonzero(self.domain.interior))
        return n * (n - 1) // 2


def _batcher_rounds(n: int):
    """Batcher's odd-even merge sort on wires 0..n-1: one nonempty array
    of disjoint (lower, upper) pairs per round, the lower wire taking the
    larger value.  Comparators of the power-of-two network that touch a
    wire >= n are dropped: such wires could hold -inf, which none moves."""
    p = 1
    while p < n:
        k = p
        while k >= 1:
            lo = np.arange(k % p, n - k)
            yield np.column_stack([lo, lo + k])[
                ((lo - k % p) % (2 * k) < k)
                & (lo // (2 * p) == (lo + k) // (2 * p))]
            k //= 2
        p *= 2


def plan(domain: Domain) -> SymmetrizationPlan:
    """Batcher's merge network along each class's target order, round s
    holding round s of every class's network.  A class of 2^k nodes takes
    (k^2 - k + 4) 2^(k-2) - 1 comparators, a class of one node none."""
    classes = _classes(domain)
    return SymmetrizationPlan(domain, tuple(
        Polarizer(domain, classes[:, pairs].reshape(-1, 2))
        for pairs in _batcher_rounds(classes.shape[1])))


def apply_plan(p: SymmetrizationPlan, u: GridFunction,
               record_distance: bool = False):
    """Run |u| through the plan a round at a time; optionally log the L2
    distance to schwarz(u) first and after every comparator, priced per
    pair within a round and recomputed in full at its end."""
    if u.domain is not p.domain:
        raise DomainMismatchError("grid function and plan domains differ")
    vals = np.abs(u.values)
    if record_distance:
        target, w = schwarz(u).values, p.domain.weights
        sq = [np.array([np.sum(w * (vals - target) ** 2)])]
    for h in p.rounds:
        out = _polarized(vals, h)
        if record_distance:
            # a swap moving g from vals[j] to vals[i] changes the squared
            # distance by -2 w g (target[i] - target[j]) <= 0
            i, j = h.pairs.T
            sq.append(sq[-1][-1] - np.cumsum(2.0 * w[i] * (out[i] - vals[i])
                                              * (target[i] - target[j])))
            sq[-1][-1] = np.sum(w * (out - target) ** 2)
        vals = out
    if record_distance:
        return (GridFunction(p.domain, vals),
                np.sqrt(np.maximum(np.concatenate(sq), 0.0)))
    return GridFunction(p.domain, vals)


def edge_dirichlet_energy(domain: Domain, values: np.ndarray,
                          p: float) -> float:
    """Sum of |u_i - u_j|^p over grid-neighbor edges."""
    d = values[domain.edges[:, 0]] - values[domain.edges[:, 1]]
    return float(np.sum(np.abs(d) ** p))


# ---------------------------------------------------------------------------
# axiom checker


@dataclass
class AxiomReport:
    """Sampled verification of the rearrangement axioms on one domain."""

    domain_kind: str
    samples: int
    idempotence_max: float
    schwarz_fixed_max: float
    schwarz_of_polarized_max: float
    contraction_max_ratio: float
    theta_lipschitz_estimate: float
    plan_swaps: int
    plan_swap_bound: int
    plan_exact: bool
    plan_max_deviation: float
    distance_monotone: bool
    dirichlet_decrease_violations: int
    adversarial_rejected: bool

    @property
    def all_passed(self) -> bool:
        return (
            self.idempotence_max == 0.0
            and self.schwarz_fixed_max == 0.0
            and self.schwarz_of_polarized_max == 0.0
            and self.contraction_max_ratio <= 1.0 + _REL_EPS
            and self.theta_lipschitz_estimate <= 1.0 + _REL_EPS
            and self.plan_exact
            and self.plan_swaps <= self.plan_swap_bound
            and self.distance_monotone
            and self.dirichlet_decrease_violations == 0
            and self.adversarial_rejected
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "all_passed": self.all_passed}


def _adversarial_rejected(domain: Domain) -> bool:
    w = domain.weights
    i = int(np.argmin(w))
    j = int(np.argmax(w))
    if w[i] == w[j]:
        return True
    try:
        Polarizer(domain, np.array([[i, j]]))
    except SymmetryCompatibilityError:
        return True
    return False


def check_axioms(domain: Domain, samples: int = 40,
                 seed: int = 20240817) -> AxiomReport:
    """Sample the polarization and rearrangement axioms on one domain."""
    if samples < 1:
        raise ParameterError("axiom check needs at least one sample")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    reflections = reflection_polarizers(domain)
    p = plan(domain)
    # contraction is probed on the mirrors plus a spread of plan comparators
    comparators = np.concatenate(
        [np.empty((0, 2), dtype=np.int64)] + [h.pairs for h in p.rounds])
    stride = max(1, p.swap_count // 25)
    probes = list(reflections) + [Polarizer(domain, pair[None])
                                  for pair in comparators[::stride][:25]]

    idem = fixed = repolar = contraction = theta_lip = plan_dev = 0.0
    dirichlet_violations = 0
    monotone = True

    for k in range(samples):
        u = GridFunction(domain, rng.standard_normal(domain.n_nodes))
        v = GridFunction(domain, rng.standard_normal(domain.n_nodes))
        star = schwarz(u)
        diff = GridFunction(domain, u.values - v.values)
        dens = {m: grid.norm_lm(diff, m) for m in (1.0, 2.0, 4.0)}
        for h in probes:
            uh = polarize(u, h)
            vh = polarize(v, h)
            idem = max(idem, float(np.max(np.abs(
                polarize(uh, h).values - uh.values))))
            fixed = max(fixed, float(np.max(np.abs(
                polarize(star, h).values - star.values))))
            repolar = max(repolar, float(np.max(np.abs(
                schwarz(uh).values - star.values))))
            hdiff = GridFunction(domain, uh.values - vh.values)
            for m, den in dens.items():
                if den == 0.0:
                    continue
                contraction = max(contraction, grid.norm_lm(hdiff, m) / den)
        # two-point rearrangement inequality on edge-compatible mirrors
        before = edge_dirichlet_energy(domain, u.values, 2.0)
        for h in reflections:
            after = edge_dirichlet_energy(
                domain, polarize(u, h).values, 2.0)
            if after > before * (1.0 + _REL_EPS):
                dirichlet_violations += 1
        den = dens[2.0]
        if den > 0.0:
            ta = GridFunction(domain, np.abs(u.values) - np.abs(v.values))
            theta_lip = max(theta_lip, grid.norm_lm(ta, 2.0) / den)
        if k < 8:
            planned, dists = apply_plan(p, u, record_distance=True)
            monotone &= bool(np.all(
                np.diff(dists) <= _REL_EPS * (1.0 + dists[:-1])))
        else:
            planned = apply_plan(p, u)
        plan_dev = max(plan_dev,
                       float(np.max(np.abs(planned.values - star.values))))

    return AxiomReport(
        domain_kind=domain.kind,
        samples=samples,
        idempotence_max=idem,
        schwarz_fixed_max=fixed,
        schwarz_of_polarized_max=repolar,
        contraction_max_ratio=contraction,
        theta_lipschitz_estimate=theta_lip,
        plan_swaps=p.swap_count,
        plan_swap_bound=p.swap_bound,
        plan_exact=plan_dev == 0.0,
        plan_max_deviation=plan_dev,
        distance_monotone=monotone,
        dirichlet_decrease_violations=dirichlet_violations,
        adversarial_rejected=_adversarial_rejected(domain),
    )


# ---------------------------------------------------------------------------
# energy-decrease gate for the direct solver mode


@dataclass
class HypothesisBReport:
    """Empirical check that polarization never raises the energy."""

    passed: bool
    samples: int
    polarizer_count: int
    theta_violations: int
    polarization_violations: int
    max_excess: float
    tolerance: float

    def to_dict(self) -> dict:
        return asdict(self)


def hypothesis_b_check(model, samples: int = 100,
                       seed: int = 20240817) -> HypothesisBReport:
    """Sample f(|u|^H) <= f(u) for the domain's mirrors and f(|u|) <= f(u).

    The inequality is a theorem hypothesis, not a theorem: cell-averaged
    gradients need not satisfy the two-point rearrangement bound, so the
    direct solver mode may only run when this empirical gate passes.
    The samples are random nodal vectors, zero on the boundary, priced in
    blocks of stacked rows: u, |u| and each mirror's polarization of |u|
    take one ``energy_of_values`` call per block each.
    """
    rng = np.random.default_rng(seed)
    domain = model.domain
    reflections = reflection_polarizers(domain)
    rows = max(1, _GATE_BLOCK_VALUES // domain.n_nodes)
    theta_violations = 0
    polarization_violations = 0
    max_excess = 0.0
    for start in range(0, samples, rows):
        # one draw per block gives the same numbers as one per sample
        u = rng.standard_normal((min(rows, samples - start), domain.n_nodes))
        u[:, domain.boundary] = 0.0
        fu = functional.energy_of_values(model, u)
        scale = 1.0 + np.abs(fu)
        bound = fu + _GATE_TOLERANCE * scale
        mag = np.abs(u)
        stacks = [mag] + [_polarized(mag, h) for h in reflections]
        for k, stack in enumerate(stacks):
            f = functional.energy_of_values(model, stack)
            over = f > bound
            if k:
                polarization_violations += int(over.sum())
            else:
                theta_violations += int(over.sum())
            if over.any():
                max_excess = max(max_excess, float(np.max(
                    (f[over] - fu[over]) / scale[over])))
    return HypothesisBReport(
        passed=(theta_violations == 0 and polarization_violations == 0),
        samples=samples,
        polarizer_count=len(reflections),
        theta_violations=theta_violations,
        polarization_violations=polarization_violations,
        max_excess=max_excess,
        tolerance=_GATE_TOLERANCE,
    )
