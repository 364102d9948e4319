"""Discrete mountain-pass solver: plain, restricted, and direct modes.

``run`` builds the endpoints 0 and e and runs stages on one shared state.
The ray stage is the local minimax method of Li and Zhou: it descends the
peak energy max_t f(t v) over directions v on the unit W^{1,p} sphere.
Every ray crosses the sphere on which ``init_endpoints`` proves f >= sigma0
> 0, so no iterate can fall to u = 0.  It is the only descent loop: after a
stall the iterate is averaged over a group with coarser orbits and the
ray stage runs again from there (the "polish" iterations), and in direct
mode the cone sweep is the ray stage run from the rearranged converged
point with every trial projected onto the rearrangement cone.

Restricted mode runs the same stages as a plain solve of the quotient
model (``group.quotient``): the unknowns are the values on the node
orbits, and the energy of orbit values x is f(B x), B the orbit-indicator
matrix.  By the principle of symmetric criticality (Palais 1979) applied
to Fix(G), a critical point of that energy is a critical point of f, so
no direction needs projecting.  The iterate is expanded to all nodes only
where a full vector is read: record rows, the rearrangement distances,
snap proposals, a failure's last state and the returned point.
"""

from collections import deque
from dataclasses import asdict, dataclass, replace
import hashlib
import json
import math
import time
import warnings

import numpy as np

from .errors import (
    GeometryError,
    NumericalFailureError,
    ParameterError,
    SymmetryCompatibilityError,
)
from . import functional, grid, symmetrize
from .grid import GridFunction
from . import group as group_mod


MODES = ("plain", "restricted", "direct")
PS_CSV_HEADER = "iteration,f,grad_norm,w1p_norm,dist_vstar_V,dist_vstar_W"

# iterate tail kept for Cauchy diagnostics; older iterates are summarized
# by their logged norms only
TAIL_RETENTION = 600

# relative size of the seeded symmetry-breaking perturbation applied to
# the initial path (averaged away again in restricted mode)
_INIT_NOISE = 0.05

# record rows are priced in stacks of about this many nodal values, so
# the stacked temporaries stay small at any grid size
_SAMPLE_BLOCK_VALUES = 1 << 14

# ray-stage line search: first step, backtracking factor, Armijo constant,
# and the most backtracks (or doublings of a peak bracket) tried
_STEP_INIT = 1.0
_STEP_SHRINK = 0.5
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60

# ray stage: iterations the dual residual may go without halving before
# the stage stalls, metric refresh
_RAY_PATIENCE = 20
_RAY_METRIC_REFRESH = 5

# Newton finish of the ray stage: the first trial waits until the dual
# residual is this fraction of the run's first one, a trial is kept
# only if it cuts the residual to this share, and after a rejection the
# next one waits until the residual has fallen by this factor
_NEWTON_START = 1e-3
_NEWTON_GAIN = 0.25
_NEWTON_BACKOFF = 0.5

# relative peak-energy decrease over a stalled ray stage above which the
# stage reruns from its last point when no symmetry snap helps
_RESUME_PROGRESS = 1e-12

# compare_levels: slack in c_plain <= c_restricted + LEVEL_TOLERANCE
LEVEL_TOLERANCE = 1e-4

# ps_diagnostics: sup of the iterates' W^{1,p} norms above which they
# count as unbounded
W1P_CEILING = 1e3


def __getattr__(name):
    # ``solver.sparse_linalg`` stays readable although the module is
    # imported only when a solve factorizes a sparse system:
    # perfbench/tracer.py wraps ``splu`` through this attribute to count
    # SuperLU factorizations (--trace 1)
    if name == "sparse_linalg":
        import scipy.sparse.linalg as sparse_linalg
        return sparse_linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class SolveConfig:
    """Parameters of one mountain-pass run."""

    mode: str = "restricted"
    # samples of the initial noisy path from 0 to e; the ray stage starts
    # from the direction of its maximum-energy sample
    path_points: int = 12
    max_iterations: int = 5000
    grad_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(
                f"mode must be one of {MODES}, got {self.mode!r}")
        if self.path_points < 8:
            raise ParameterError("path needs at least 8 points")
        if self.max_iterations < 1:
            raise ParameterError("iteration budget must be positive")
        if self.grad_tol <= 0:
            raise ParameterError("gradient tolerance must be positive")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


def config_digest(cfg: SolveConfig) -> str:
    text = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class PSRecord:
    """Per-iteration log of the current iterate."""

    def __init__(self):
        self.iteration = []
        self.f = []
        self.grad_norm = []
        self.w1p_norm = []
        self.dist_vstar_V = []
        self.dist_vstar_W = []
        self._tail = deque(maxlen=TAIL_RETENTION)

    def __len__(self):
        return len(self.iteration)

    def append(self, iteration, f, grad_norm, w1p_norm, dist_v, dist_w,
               values):
        row = (f, grad_norm, w1p_norm, dist_v, dist_w)
        if not all(math.isfinite(x) for x in row):
            raise ParameterError("non-finite entry in iteration record")
        self.iteration.append(int(iteration))
        self.f.append(float(f))
        self.grad_norm.append(float(grad_norm))
        self.w1p_norm.append(float(w1p_norm))
        self.dist_vstar_V.append(float(dist_v))
        self.dist_vstar_W.append(float(dist_w))
        self._tail.append(np.array(values, dtype=np.float64, copy=True))

    def tail_values(self) -> list:
        return list(self._tail)


@dataclass
class EndpointData:
    """Mountain-pass geometry: sphere radius, level bound, far end."""

    rho0: float
    sigma0: float
    tau: float
    e: GridFunction
    f_zero: float
    f_e: float

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "e"}


@dataclass
class SolveReport:
    mode: str
    requested_mode: str
    converged: bool
    u: GridFunction
    level: float
    record: PSRecord
    endpoints: EndpointData
    iterations: int
    wall_time: float
    config: SolveConfig
    config_hash: str
    downgrade_reason: str | None = None
    # record row of the first polarization sweep (direct mode only)
    sweep_start: int | None = None
    # iterations per stage ("ray", "polish", "sweep") and the first ray
    # stage's exit: its status and the dual residual it ended at
    stage_iterations: dict | None = None
    ray_exit: dict | None = None
    # work of the stages: ray-peak searches ("peak_searches") and exact-
    # Hessian Newton trials ("newton_trials"), accepted or not
    counts: dict | None = None


# ---------------------------------------------------------------------------
# endpoints


def default_psi(domain) -> GridFunction:
    """A smooth invariant bump vanishing on the Dirichlet boundary."""
    if domain.kind == "square":
        side = domain.extents["side"]
        x, y = domain.coords[:, 0], domain.coords[:, 1]
        vals = np.cos(math.pi * x / side) * np.cos(math.pi * y / side)
    elif domain.kind in ("disk-polar", "radial-ball-1d"):
        r = np.sqrt(domain.radius2)
        vals = np.cos(0.5 * math.pi * r / domain.extents["radius"])
    elif domain.kind == "annulus-polar":
        r_in = domain.extents["inner_radius"]
        r_out = domain.extents["outer_radius"]
        r = np.sqrt(domain.radius2)
        vals = np.sin(math.pi * (r - r_in) / (r_out - r_in))
    else:
        raise ParameterError(f"no default bump for domain kind {domain.kind!r}")
    return GridFunction(domain, vals)


def _orbit_coordinates(model, symmetry):
    """The model of the invariant functions in orbit coordinates (on
    ``group.quotient``) and the orbit map back to the nodes; the model
    itself and None without a group or with the trivial one."""
    if symmetry is None or group_mod.quotient(symmetry) is symmetry.domain:
        return model, None
    return (replace(model, domain=group_mod.quotient(symmetry)),
            group_mod.fix_basis(symmetry))


def init_endpoints(model, symmetry=None,
                   psi: GridFunction | None = None) -> EndpointData:
    """Construct the mountain-pass geometry data for one model.

    The sphere is measured in the norm the energy reads, N(v)^p = sum_c
    w_c (|Dv|_c^p + |avg_c|^p) over the cells.  With m = min(alpha0, 1/p)
    and K = (min_c w_c)^(-(q-p)/p), |avg_c| <= w_c^(-1/p) N gives
    f(v) >= m N^p - (K/q) N^q.  rho0 is that bound's peak and sigma0 =
    m (1 - p/q) rho0^p its value there, a proven lower bound of f on the
    sphere N = rho0.  tau is the smallest scale making the far endpoint
    provably negative-energy and past that sphere, then doubled for
    margin.
    """
    domain = model.domain
    j = model.integrand
    p, q = model.p, model.q
    if psi is None:
        psi = default_psi(domain)
    elif psi.domain is not domain:
        raise ParameterError("psi lives on a different domain")
    if symmetry is not None:
        drift = float(np.max(np.abs(
            group_mod.average_values(symmetry, psi.values) - psi.values)))
        if drift > 1e-10 * (1.0 + float(np.max(np.abs(psi.values)))):
            raise SymmetryCompatibilityError(
                "endpoint bump is not invariant under the given group")

    psi_inf = float(np.max(np.abs(psi.values)))
    if psi_inf == 0.0:
        raise ParameterError("endpoint bump must be nonzero")
    psi_p_p = float(np.sum(domain.weights * np.abs(psi.values) ** p))
    psi_q_q = float(np.sum(domain.weights * np.abs(psi.values) ** q))
    avg, dpsi, _ = grid.cell_values(domain, psi.values)
    cw = domain.cells.weights
    dpsi_p_p = float(np.sum(cw * dpsi ** p))
    psi_n = (dpsi_p_p + float(np.sum(cw * np.abs(avg) ** p))) ** (1.0 / p)

    m_coer = min(j.alpha0, 1.0 / p)
    k_emb = float(np.min(cw)) ** (-(q - p) / p)
    rho0 = (m_coer * p / k_emb) ** (1.0 / (q - p))
    sigma0 = m_coer * (1.0 - p / q) * rho0 ** p

    tau_floor = max(
        ((2.0 * q / p) * psi_p_p / psi_q_q) ** (1.0 / (q - p)),
        rho0 / psi_n,
    )

    def admissible(tau: float) -> bool:
        if tau <= tau_floor:
            return False
        lhs = float(j.alpha(tau * psi_inf)) * tau ** p
        rhs = (0.5 / q) * psi_q_q / dpsi_p_p * tau ** q
        return lhs <= rhs

    hi = 1e-6
    for _ in range(220):
        if admissible(hi):
            break
        hi *= 2.0
    else:
        raise GeometryError(
            "no admissible endpoint scale: the growth inequality "
            "never holds; p, q, or the domain truncation look unsuitable")
    lo = hi / 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    tau = 2.0 * hi

    e = GridFunction(domain, tau * psi.values)
    f_zero = functional.energy_of_values(model, np.zeros(domain.n_nodes))
    f_e = functional.energy_of_values(model, e.values)
    if not f_e < 0.0:
        raise GeometryError(
            f"endpoint energy f(e) = {f_e:.6e} is not negative at "
            f"tau = {tau:.6e}; the discrete geometry rejects this model")
    if not tau * psi_n > rho0:
        raise GeometryError("endpoint lies inside the mountain-pass sphere")
    return EndpointData(rho0=rho0, sigma0=sigma0, tau=tau, e=e,
                        f_zero=f_zero, f_e=f_e)


# ---------------------------------------------------------------------------
# main loop


def _dist_to_rearranged(domain, values, p, q):
    """Distances in V and W of one nodal vector, or of each row of a
    (k, n) stack, to its own rearrangement."""
    diff = values - symmetrize.schwarz_values(domain, values)
    dist_w = grid.lm_norms(domain, diff, q)
    return np.maximum(grid.lm_norms(domain, diff, p), dist_w), dist_w


class _DenseFactors:
    """A dense system with the ``solve`` of SuperLU's factors: LAPACK's
    gesv (``np.linalg.solve``) factors it with partial pivoting at each
    solve, so a singular matrix raises ``LinAlgError`` there."""

    def __init__(self, matrix):
        self.matrix = matrix

    def solve(self, rhs):
        return np.linalg.solve(self.matrix, rhs)


def _factorize(matrix):
    """LU factors of a ``grid.CellForm.matrix``: a dense ndarray (at most
    ``grid.DENSE_MAX_UNKNOWNS`` unknowns) goes to numpy's LAPACK, a CSC
    matrix to SuperLU.  scipy.sparse.linalg is imported on the first
    sparse call, so a solve at desk scale loads no scipy module."""
    if isinstance(matrix, np.ndarray):
        return _DenseFactors(matrix)
    import scipy.sparse.linalg as sparse_linalg
    return sparse_linalg.splu(matrix)


def _slope_parts(model, values, w):
    """Preconditioned direction, slope, dual norm."""
    r = functional.residual_of_values(model, values)
    d = r / w
    slope = float(np.sum(r * d))
    return d, slope, math.sqrt(max(slope, 0.0))


def _metric_coefficients(model, values):
    """Cell blocks diag(0, c, ..., c) of the Picard metric: c is the cell
    weight times j_t/t frozen at ``values``, clamped to [1e-6, 1e6] times
    the median positive value (j_t/t blows up at flat cells for p < 2)."""
    avg, t, grads = grid.cell_values(model.domain, values)
    t_floor = 1e-8 * (1.0 + float(t.max(initial=0.0)))
    t_eff = np.maximum(t, t_floor)
    a = model.integrand.j_t(avg, t_eff) / t_eff
    positive = a[a > 0]
    # np.median's value without its numpy.ma import: the mean of the two
    # middle values, which are one value when the count is odd
    mid = [(positive.size - 1) // 2, positive.size // 2]
    med = (float(np.partition(positive, mid)[mid].sum() / 2)
           if positive.size else 1.0)
    coef = model.domain.cells.weights * np.clip(a, 1e-6 * med, 1e6 * med)
    return np.diag([0.0] + [1.0] * grads.shape[0])[:, :, None] * coef


def _polish_metric(model, values):
    """Solve with the SPD Picard metric, or None when assembly fails.

    G^T diag(c) G + M on the interior nodes: G the gradient rows of the
    cell map, c the clamped cell coefficients of ``_metric_coefficients``
    and M the mass.  ``grid.cell_form`` assembles it from those blocks as
    it does the Newton Hessian, so a call costs the fill of a cached
    pattern and the factorization.  The ray stage applies the metric to
    the residual.  The solve leaves the Dirichlet entries exactly zero.
    """
    dom = model.domain
    inner = dom.interior
    try:
        lu = _factorize(grid.cell_form(dom).matrix(
            _metric_coefficients(model, values), dom.weights[inner]))
    except (RuntimeError, ValueError, np.linalg.LinAlgError):
        return None

    def solve(rhs):
        out = np.zeros(dom.n_nodes)
        out[inner] = lu.solve(rhs[inner])
        return out

    return solve


def _newton_point(model, values, covector):
    """values minus the exact-Hessian Newton step for the residual
    ``covector`` (``functional.hessian_of_values``, interior nodes), or
    None when the factorization or the solve fails.  The Hessian is
    indefinite at a mountain pass, so it is factored by LU."""
    dom = model.domain
    inner = dom.interior
    try:
        step = _factorize(functional.hessian_of_values(model, values)) \
            .solve(covector[inner])
    except (RuntimeError, ValueError, np.linalg.LinAlgError):
        return None
    if not np.all(np.isfinite(step)):
        return None
    out = np.array(values, dtype=np.float64, copy=True)
    out[inner] -= step
    return out


def _snap_groups(domain, symmetry):
    """The grid's full dihedral group, offered to average a stalled
    iterate over when it has fewer node orbits than the current group (or
    than the nodes, with none); nothing on the radial ball.

    For p < 2 the integrand kink at flat cells walls off the last digits
    of an almost-symmetric iterate; averaging over coarser orbits jumps
    the wall in one move.  A snap is only taken on a strictly smaller
    dual residual, so an unsuitable candidate costs one evaluation.  The
    full group contains every group the domain realizes (on a polar grid
    its orbits are the rings), so the average is invariant under each of
    them and in restricted mode its orbit values are exact.
    """
    g = group_mod.full_group(domain)
    if g is None:
        return []
    current = (domain.n_nodes if symmetry is None
               else group_mod.fix_basis(symmetry).reps.size)
    return [g] if group_mod.fix_basis(g).reps.size < current else []


class _Solve:
    """State the stages of one run share: the model solved (in restricted
    mode the quotient's, so ``u`` holds orbit values), config, the orbit
    map ``basis`` back to the full ``domain`` (None when the model is the
    full one), record, iteration counter and the current iterate ``u``.
    Record rows wait in ``queue`` until ``flush`` logs them."""

    def __init__(self, model, cfg, basis, domain, trivial_level):
        self.model = model
        self.cfg = cfg
        self.basis = basis
        self.domain = domain
        self.w = model.domain.weights
        self.trivial_level = trivial_level
        self.record = PSRecord()
        self.queue = []
        self.it = 0
        self.u = None
        # dual residual at or below which the ray stage tries its next
        # Newton step; set from the run's first residual
        self.newton_gate = None
        self.counts = {"peak_searches": 0, "newton_trials": 0,
                       "factorizations": 0}

    def full(self, values):
        """Nodal values on the full domain: orbit values expanded."""
        return values if self.basis is None else values[self.basis.orbit]

    def fail(self, msg):
        raise NumericalFailureError(
            f"{msg} at iteration {self.it}",
            last_state={"iteration": self.it,
                        "u": np.array(self.full(self.u))})

    def measure(self, values, f_val, where, parts=None):
        """Check the iterate, queue its record row and return its
        direction, slope and dual residual norm: ``parts`` when the caller
        has them from ``_slope_parts`` already.  The queue is flushed once
        it holds ``_SAMPLE_BLOCK_VALUES`` nodal values."""
        if not math.isfinite(f_val):
            self.fail(f"energy became non-finite {where}")
        d, slope, grad_norm = parts or _slope_parts(self.model, values,
                                                    self.w)
        if not math.isfinite(slope):
            self.fail(f"residual became non-finite {where}")
        # iterates are never written in place, so a queued row stays put
        self.queue.append((self.it, f_val, grad_norm, self.full(values)))
        if len(self.queue) * self.domain.n_nodes >= _SAMPLE_BLOCK_VALUES:
            self.flush()
        return d, slope, grad_norm

    def flush(self):
        """Log the queued rows in order, their W^{1,p} norms and distances
        to the rearrangement priced as one (k, n) stack (every row of a
        stack gets bitwise its own vector's value)."""
        if not self.queue:
            return
        its, fs, gs, rows = zip(*self.queue)
        self.queue = []
        full, p = np.stack(rows), self.model.p
        norms = grid.w1p_norms(self.domain, full, p)
        dist_v, dist_w = _dist_to_rearranged(self.domain, full, p,
                                             self.model.q)
        for row in zip(its, fs, gs, norms, dist_v, dist_w, full):
            self.record.append(*row)


def _illinois(g, a, ga, b, gb, rtol):
    """Root of g in [a, b] with g(a) >= 0 >= g(b) to rtol relative width:
    regula falsi that halves the value kept at an end that stays put."""
    side = 0
    while ga != 0.0 and gb != 0.0 and b - a > rtol * b:
        c = (a * gb - b * ga) / (gb - ga)
        if not a < c < b:
            break       # the secant root rounds to an end
        gc = g(c)
        if gc > 0.0:
            a, ga, gb = c, gc, gb * 0.5 if side == 1 else gb
            side = 1
        else:
            b, gb, ga = c, gc, ga * 0.5 if side == -1 else ga
            side = -1
    return a if abs(ga) <= abs(gb) else b


def _fibering_peak(model, ray, u):
    """The peak of f(t u) = t^p A - t^q B on a two-sum ray, in closed
    form: t* = (p A / (q B))^(1/(q-p)) is the only critical point, so
    the peak is t* u at the level t*^p A - t*^q B, or None when A <= 0 or
    B <= 0 leaves the ray without a peak."""
    a, b, p, q = ray.A, ray.B, model.p, model.q
    if not (math.isfinite(a) and math.isfinite(b)):
        raise FloatingPointError("energy")
    if a <= 0.0 or b <= 0.0:
        return None
    try:
        t = (p * a / (q * b)) ** (1.0 / (q - p))
        level = t ** p * a - t ** q * b
    except OverflowError:
        level = math.nan
    # an infinite t* leaves the level NaN
    if not math.isfinite(level):
        raise FloatingPointError("energy")
    w = t * u
    if not np.all(np.isfinite(w)):
        raise FloatingPointError("energy")
    return w, level


def _ray_peak(model, u):
    """First local maximum of f on the ray through u and its energy, or
    None.  The ray's cell quantities are read once (``functional.ray``).
    A ray with the two sums of a homogeneous density takes its peak in
    closed form (``_fibering_peak``).  On any other ray the slope
    d/dt f(t u) is priced per cell from those quantities: from t = 1, t
    doubles while the slope is positive, or halves while it is not, until
    the slope changes sign; a ray whose slope keeps its sign for
    ``_MAX_BACKTRACKS`` steps has no peak.  Illinois regula falsi between
    the last two samples fixes the peak to 1e-15 relative, and its energy
    is measured from its own nodal values.  Non-finite values raise
    ``FloatingPointError``."""
    ray = functional.ray(model, u)
    if ray.A is not None:
        return _fibering_peak(model, ray, u)

    def slope(t):
        g = ray.slope(t)
        if not math.isfinite(g):
            raise FloatingPointError("residual")
        return g

    a, g_a = 1.0, slope(1.0)
    factor = 2.0 if g_a > 0.0 else 0.5
    for _ in range(_MAX_BACKTRACKS):
        b, g_b = factor * a, slope(factor * a)
        if (g_b > 0.0) != (g_a > 0.0):
            break
        a, g_a = b, g_b
    else:
        return None
    if factor < 1.0:
        a, g_a, b, g_b = b, g_b, a, g_a
    w = _illinois(slope, a, g_a, b, g_b, 1e-15) * u
    f = functional.energy_of_values(model, w)
    if not math.isfinite(f):
        raise FloatingPointError("energy")
    return w, f


def _ray_stage(st, u0, where="in the ray stage", cone=False):
    """Descend the peak energy f(t*(v) v) over unit directions v,
    starting from the direction of u0.

    A step moves the peak point along its Picard-metric gradient and
    takes the peak of the new ray.  It is accepted by Armijo on the peak
    energy or, once the energy change is below roundoff, by a smaller
    dual residual.  Once the dual residual is ``_NEWTON_START`` times the
    run's first one, an iteration first tries a Newton step on the exact
    Hessian (``_newton_point``) and takes it in place of the ray step if
    it cuts the residual to ``_NEWTON_GAIN`` of the current one and
    leaves the energy finite and above the trivial level.  After a
    rejected or failed trial the next waits until the residual has
    fallen by ``_NEWTON_BACKOFF``; the gate (``st.newton_gate``) carries
    over to the stages that rerun after a stall.  A point reached by a
    Newton step is not the peak of its own ray, so no ray step from it
    can pass the peak-energy tests: when its own Newton trial is rejected
    or fails, the stage stalls at once.  Returns the status, "converged",
    "stalled" (no step left, a Newton point's trial rejected, or the
    residual did not halve in ``_RAY_PATIENCE`` iterations) or "budget",
    the last residual and the relative decrease of the peak energy over
    the stage.  ``st.counts`` tallies its peak searches, its Newton trials
    and its factorizations, one per Newton trial and per metric build.

    With ``cone`` set this is the direct-mode cone sweep: the start and
    every trial point are projected onto the rearrangement cone
    (``symmetrize.cone_project``; the cone is closed under scaling, so
    every peak stays on it), Armijo reads the projected displacement,
    and no Newton step is tried.
    """
    model, cfg, w = st.model, st.cfg, st.w
    newton = not cone and model.integrand.second_partials

    def peak_of(u):
        st.counts["peak_searches"] += 1
        try:
            return _ray_peak(model, u)
        except FloatingPointError as exc:
            st.fail(f"{exc} became non-finite {where}")

    def on_cone(values):
        return symmetrize.cone_project(
            GridFunction(model.domain, values)).values if cone else values

    def finish(status):
        # the stage's queued record rows are logged before it returns
        st.flush()
        return status, grad_norm, (f_0 - f_u) / abs(f_0) if f_0 else 0.0

    st.u = u0
    first = peak_of(on_cone(u0))
    if first is None:
        st.fail(f"no energy peak along the starting ray {where}")
    st.u, f_u = first
    f_0 = f_u
    s_mem = _STEP_INIT
    g_ref, it_ref = math.inf, 0
    metric_it = -math.inf
    # the residual parts of st.u when a test of it computed them already
    parts = None
    # st.u came from an accepted Newton step
    newton_point = False
    while st.it < cfg.max_iterations:
        st.it += 1
        d, _, grad_norm = st.measure(st.u, f_u, where, parts)
        parts = None
        if grad_norm <= cfg.grad_tol:
            return finish("converged")
        if grad_norm <= 0.5 * g_ref:
            g_ref, it_ref = grad_norm, st.it
        elif st.it - it_ref >= _RAY_PATIENCE:
            return finish("stalled")
        covector = w * d
        if st.newton_gate is None:
            st.newton_gate = _NEWTON_START * grad_norm
        if newton and grad_norm <= st.newton_gate:
            st.counts["newton_trials"] += 1
            st.counts["factorizations"] += 1
            trial = _newton_point(model, st.u, covector)
            if trial is not None:
                f_trial = functional.energy_of_values(model, trial)
                parts = _slope_parts(model, trial, w)
                if parts[2] <= _NEWTON_GAIN * grad_norm \
                        and math.isfinite(f_trial) \
                        and f_trial > st.trivial_level:
                    st.u, f_u = trial, f_trial
                    newton_point = True
                    continue
            st.newton_gate = _NEWTON_BACKOFF * grad_norm
            if newton_point:
                return finish("stalled")
        if st.it - metric_it >= _RAY_METRIC_REFRESH:
            metric, metric_it = _polish_metric(model, st.u), st.it
            st.counts["factorizations"] += 1
        grad = d if metric is None else metric(covector)
        slope = float(np.sum(covector * grad))
        s = s_mem
        for _ in range(_MAX_BACKTRACKS):
            parts = None
            trial = on_cone(st.u - s * grad)
            bound = (f_u + _ARMIJO * float(np.sum(covector * (trial - st.u)))
                     if cone else f_u - _ARMIJO * s * slope)
            cand = peak_of(trial)
            if cand is not None:
                if cand[1] <= bound:
                    break
                if abs(cand[1] - f_u) <= 1e-14 * (1.0 + abs(f_u)):
                    parts = _slope_parts(model, cand[0], w)
                    if parts[2] < grad_norm:
                        break
            s *= _STEP_SHRINK
        else:
            return finish("stalled")
        st.u, f_u = cand
        s_mem = min(_STEP_INIT, s / _STEP_SHRINK)
    return finish("budget")


def _snap_stalls(st, status, residual, progress, symmetry, cone=False):
    """After each stall, average the expanded iterate over the first group
    of ``_snap_groups`` (built at the first stall) whose average has a
    smaller dual residual, and rerun the ray stage from there; in orbit
    coordinates the average's representative values are the new start.
    When no snap helps but the stalled stage still lowered the peak
    energy by more than ``_RESUME_PROGRESS`` (relative), the stage reruns
    from the peak of its last point's ray instead, with its patience and
    step reset.  A stage that stalled at a Newton point whose next Newton
    trial was rejected is finished the same way.  Returns the last
    status, which stays "stalled" once neither applies."""
    snaps = None
    while status == "stalled" and st.it < st.cfg.max_iterations:
        if snaps is None:
            snaps = _snap_groups(st.domain, symmetry)
        for g_big in snaps:
            cand = group_mod.average_values(g_big, st.full(st.u))
            if st.basis is not None:
                cand = cand[st.basis.reps]
            if _slope_parts(st.model, cand, st.w)[2] < residual:
                break
        else:
            if not progress > _RESUME_PROGRESS:
                break
            cand = st.u
        status, residual, progress = _ray_stage(st, cand, "during polishing",
                                                cone)
    return status


def run(model, symmetry, cfg: SolveConfig) -> SolveReport:
    """Mountain-pass solve; returns a report (non-convergence included).

    The ray stage starts from the direction of the maximum-energy sample
    of a seeded noisy path from 0 to e; after a stall it runs again from
    a symmetry snap (``_snap_stalls``).  Direct mode then sweeps from the
    converged point: far from the solution a sweep and the descent fight
    each other, near the symmetric limit they cooperate.
    """
    t_start = time.perf_counter()
    domain = model.domain
    mode = cfg.mode
    downgrade_reason = None
    if mode == "restricted" and symmetry is None:
        raise ParameterError("restricted mode needs a symmetry group")
    if mode == "direct":
        gate = symmetrize.hypothesis_b_check(model, samples=100,
                                             seed=cfg.seed)
        if not gate.passed:
            downgrade_reason = (
                "energy-decrease check failed "
                f"(max excess {gate.max_excess:.3e}); running plain mode")
            warnings.warn(downgrade_reason)
            mode = "plain"
    project = symmetry if mode == "restricted" else None

    endpoints = init_endpoints(model, project)
    # the interior samples of a seeded noisy path from 0 to e
    e_vals = endpoints.e.values
    noise = np.random.default_rng([cfg.seed, 1]).standard_normal(
        (cfg.path_points - 2, domain.n_nodes))
    noise[:, domain.boundary] = 0.0
    path = (np.linspace(0.0, 1.0, cfg.path_points)[1:-1, None] * e_vals
            + _INIT_NOISE * float(np.max(np.abs(e_vals))) * noise)
    # restricted mode solves on the quotient: the stages see orbit values
    # only, and every iterate is invariant by construction
    solved, basis = _orbit_coordinates(model, project)
    if basis is not None:
        path = basis.means(path)
    # a point that descended to the zero local minimum is not a pass;
    # sigma0 bounds f on its sphere only, and an iterate need not lie
    # past it, so only a scale-relative zero test is safe as the gate
    st = _Solve(solved, cfg, basis, domain,
                trivial_level=1e-10 * (1.0 + abs(endpoints.f_e)))

    u0 = path[int(np.argmax(functional.energy_of_values(solved, path)))]
    status, residual, progress = _ray_stage(st, u0)
    ray_exit = {"status": status, "residual": residual}
    stages = {"ray": st.it, "polish": 0, "sweep": 0}
    status = _snap_stalls(st, status, residual, progress, project)
    stages["polish"] = st.it - stages["ray"]
    sweep_start = None
    if status == "converged" and mode == "direct" \
            and st.it < cfg.max_iterations:
        sweep_start = len(st.record)
        status, residual, progress = _ray_stage(
            st, symmetrize.schwarz_values(domain, st.u), "during polishing",
            cone=True)
        status = _snap_stalls(st, status, residual, progress, project,
                              cone=True)
        stages["sweep"] = st.it - stages["ray"] - stages["polish"]
    converged = status == "converged" \
        and functional.energy_of_values(solved, st.u) > st.trivial_level

    u_final = GridFunction(domain, st.full(st.u))
    return SolveReport(
        mode=mode,
        requested_mode=cfg.mode,
        converged=converged,
        u=u_final,
        level=functional.energy_of_values(model, u_final.values),
        record=st.record,
        endpoints=endpoints,
        iterations=st.it,
        wall_time=time.perf_counter() - t_start,
        config=cfg,
        config_hash=config_digest(cfg),
        downgrade_reason=downgrade_reason,
        sweep_start=sweep_start,
        stage_iterations=stages,
        ray_exit=ray_exit,
        counts=st.counts,
    )


# ---------------------------------------------------------------------------
# level comparison


@dataclass
class LevelComparison:
    declined: bool
    reason: str | None
    c_plain: float | None
    c_restricted: float | None
    ordered: bool | None
    tolerance: float
    # per mode, of each solve that returned a report
    iterations: dict
    stage_iterations: dict
    # the numerical failure that ended the comparison: its mode, message
    # and iteration
    failure: dict | None
    plain_report: SolveReport | None
    restricted_report: SolveReport | None

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items()
                if not k.endswith("_report")}


def compare_levels(model, symmetry, cfg: SolveConfig) -> LevelComparison:
    """Run plain and restricted solves and compare minimax levels.

    A numerical failure of either solve declines the comparison and is
    reported with its mode; the restricted solve does not run after a
    failed plain one.
    """
    reports, failure = {}, None
    for mode in ("plain", "restricted"):
        try:
            reports[mode] = run(model, symmetry, replace(cfg, mode=mode))
        except NumericalFailureError as exc:
            failure = {"mode": mode, "message": str(exc),
                       "iteration": exc.last_state["iteration"]}
            break
    plain, restricted = reports.get("plain"), reports.get("restricted")
    bad = [mode for mode, rep in reports.items() if not rep.converged]
    if failure is not None:
        reason = f"numerical failure: {failure['mode']}"
    elif bad:
        reason = f"non-converged: {', '.join(bad)}"
    else:
        reason = None
    return LevelComparison(
        declined=reason is not None,
        reason=reason,
        c_plain=plain.level if plain and plain.converged else None,
        c_restricted=(restricted.level
                      if restricted and restricted.converged else None),
        ordered=None if reason else
        plain.level <= restricted.level + LEVEL_TOLERANCE,
        tolerance=LEVEL_TOLERANCE,
        iterations={mode: rep.iterations for mode, rep in reports.items()},
        stage_iterations={mode: rep.stage_iterations
                          for mode, rep in reports.items()},
        failure=failure,
        plain_report=plain, restricted_report=restricted)


# ---------------------------------------------------------------------------
# Palais-Smale diagnostics


@dataclass
class PSDiagnostics:
    sup_w1p: float
    ceiling: float
    bounded: bool
    cauchy_tail: float
    cauchy_points: int
    cauchy_truncated: bool
    dist_v_final: float
    dist_v_monotone: bool | None
    sweep_start: int | None
    violations: list

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0

    def to_dict(self) -> dict:
        return asdict(self)


def ps_diagnostics(record: PSRecord, model,
                   sweep_start: int | None = None) -> PSDiagnostics:
    """Boundedness, tail Cauchy-in-W, and rearrangement-distance trends.

    ``sweep_start`` is the record row of the first polarization sweep (a
    direct solve's ``SolveReport.sweep_start``).  Given, the Cauchy tail
    is the swept segment and the rearrangement distance must not grow
    along it.  Without it the tail is the record's last quartile and no
    distance trend is checked.
    """
    n = len(record)
    if n < 2:
        raise ParameterError("diagnostics need a record of length >= 2")
    violations = []
    sup_w1p = max(record.w1p_norm)
    bounded = sup_w1p <= W1P_CEILING
    if not bounded:
        violations.append(
            f"iterates unbounded: sup W1p norm {sup_w1p:.6e} "
            f"exceeds ceiling {W1P_CEILING:.6e}")

    start = None if sweep_start is None else min(max(sweep_start, 0), n - 1)
    window = max(2, -(-n // 4)) if start is None else n - start
    tail = record.tail_values()
    truncated = window > len(tail)
    pts = tail[-min(window, len(tail)):]
    # bound the pairwise sweep to 120 points; an even stride (all of them
    # when there are fewer) keeps first and last iterates
    idx = np.linspace(0, len(pts) - 1, min(len(pts), 120)).astype(int)
    pts = np.array([pts[i] for i in grid.distinct(idx)])
    # one row reduction per anchor against every later iterate
    cauchy = 0.0
    for a in range(len(pts) - 1):
        norms = grid.lm_norms(model.domain, pts[a] - pts[a + 1:], model.q)
        cauchy = max(cauchy, float(np.max(norms)))

    dist_v = np.array(record.dist_vstar_V)
    monotone = None
    if start is not None:
        seg = dist_v[start:]
        steps = np.diff(seg)
        monotone = bool(np.all(steps <= 1e-12 * (1.0 + seg[:-1]))) \
            if seg.shape[0] > 1 else True
        if not monotone:
            violations.append(
                "rearrangement distance increased after the first sweep")
    return PSDiagnostics(
        sup_w1p=sup_w1p, ceiling=W1P_CEILING, bounded=bounded,
        cauchy_tail=cauchy, cauchy_points=len(pts),
        cauchy_truncated=truncated,
        dist_v_final=float(dist_v[-1]), dist_v_monotone=monotone,
        sweep_start=sweep_start, violations=violations)
