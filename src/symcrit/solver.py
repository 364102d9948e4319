"""Discrete mountain-pass solver: plain, restricted, and direct modes.

``run`` builds the endpoints 0 and e and a noisy path between them, then
runs stages on one shared state: the path stage descends the path's
maximum-energy point, the polish stage contracts from the best point seen
by conjugate gradient on the squared dual residual norm, and in direct
mode a second polish, the cone sweep, keeps every trial on the
rearrangement cone.  Restricted mode projects every direction onto the
invariant subspace.
"""

from collections import deque
from dataclasses import asdict, dataclass, replace
import hashlib
import json
import math
import time
import warnings

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

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
# the initial path (projected away again in restricted mode)
_INIT_NOISE = 0.05

_MAX_BACKTRACKS = 60
_SMOOTHING = 0.25

# path-phase handoff: iterations without progress of the path maximum
# before polishing starts, and the share of the budget the path may use
_STALL_PATIENCE = 300
_PHASE1_FRACTION = 0.6

# polish-phase cadences: metric refresh and higher-symmetry proposals
_METRIC_REFRESH = 100
_SNAP_EVERY = 50


@dataclass
class SolveConfig:
    """Parameters of one mountain-pass run."""

    mode: str = "restricted"
    path_points: int = 12
    max_iterations: int = 5000
    grad_tol: float = 1e-8
    step_init: float = 1.0
    step_shrink: float = 0.5
    armijo: float = 1e-4
    seed: int = 0
    log_iterations: bool = True

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
        if self.step_init <= 0:
            raise ParameterError("initial step must be positive")
        if not 0 < self.step_shrink < 1:
            raise ParameterError("shrink factor must lie in (0, 1)")
        if not 0 < self.armijo < 1:
            raise ParameterError("Armijo constant must lie in (0, 1)")


def config_digest(cfg: SolveConfig) -> str:
    text = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class PSRecord:
    """Per-iteration log of the max-energy path point."""

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

    def write_csv(self, path, extra_comments=()):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(PS_CSV_HEADER + "\n")
            for line in extra_comments:
                fh.write(f"# {line}\n")
            for k in range(len(self)):
                fh.write(
                    f"{self.iteration[k]},{self.f[k]:.17g},"
                    f"{self.grad_norm[k]:.17g},{self.w1p_norm[k]:.17g},"
                    f"{self.dist_vstar_V[k]:.17g},"
                    f"{self.dist_vstar_W[k]:.17g}\n")


@dataclass
class EndpointData:
    """Mountain-pass geometry: bump, sphere radius, level bound, far end."""

    psi: GridFunction
    rho0: float
    sigma0: float
    tau: float
    e: GridFunction
    f_zero: float
    f_e: float
    sphere_samples: int

    def to_dict(self) -> dict:
        return {
            "rho0": self.rho0, "sigma0": self.sigma0, "tau": self.tau,
            "f_zero": self.f_zero, "f_e": self.f_e,
            "sphere_samples": self.sphere_samples,
        }


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


# ---------------------------------------------------------------------------
# endpoints


def default_psi(domain) -> GridFunction:
    """A smooth invariant bump vanishing on the Dirichlet boundary."""
    if domain.kind == "square":
        side = domain.extents["side"]
        x, y = domain.coords[:, 0], domain.coords[:, 1]
        vals = np.cos(math.pi * x / side) * np.cos(math.pi * y / side)
    elif domain.kind == "disk-polar":
        radius = domain.extents["radius"]
        r = np.sqrt(domain.radius2)
        vals = np.cos(0.5 * math.pi * r / radius)
    elif domain.kind == "annulus-polar":
        r_in = domain.extents["inner_radius"]
        r_out = domain.extents["outer_radius"]
        r = np.sqrt(domain.radius2)
        vals = np.sin(math.pi * (r - r_in) / (r_out - r_in))
    elif domain.kind == "radial-ball-1d":
        radius = domain.extents["radius"]
        r = domain.coords[:, 0]
        vals = np.cos(0.5 * math.pi * r / radius)
    else:
        raise ParameterError(f"no default bump for domain kind {domain.kind!r}")
    return GridFunction(domain, vals)


def _alpha_at(j, s: float) -> float:
    if j.alpha is not None:
        return float(np.asarray(j.alpha(np.asarray(s, dtype=float))))
    # fall back to the empirical growth envelope sup_t j(s, t) / t^p
    t = np.linspace(1e-3, 8.0, 200)
    s_arr = np.full_like(t, s)
    return float(np.max(np.asarray(j.j(s_arr, t)) / t ** j.p))


def init_endpoints(model, symmetry=None, psi: GridFunction | None = None,
                   sphere_samples: int = 200, seed: int = 0) -> EndpointData:
    """Construct the mountain-pass geometry data for one model.

    The sphere radius starts at the largest scale where the coercivity
    certificate already proves the energy infimum positive and is halved
    until sphere samples confirm it; tau is the smallest scale making the
    far endpoint provably negative-energy, then doubled for margin.
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
            group_mod.average(symmetry, psi).values - psi.values)))
        if drift > 1e-10 * (1.0 + float(np.max(np.abs(psi.values)))):
            raise SymmetryCompatibilityError(
                "endpoint bump is not invariant under the given group")

    psi_inf = float(np.max(np.abs(psi.values)))
    if psi_inf == 0.0:
        raise ParameterError("endpoint bump must be nonzero")
    psi_p_p = float(np.sum(domain.weights * np.abs(psi.values) ** p))
    psi_q_q = float(np.sum(domain.weights * np.abs(psi.values) ** q))
    dpsi = grid.gradient_magnitude(psi)
    dpsi_p_p = float(np.sum(domain.cells.weights * dpsi ** p))
    psi_w1p = grid.norm_w1p(psi, p)

    # Certificate: f(v) >= m r^p - (K/q) r^q on the sphere ||v||_{1,p} = r,
    # with m = min(alpha0, 1/p) and K the embedding constant from the
    # smallest interior quadrature weight.  The bound peaks at r_cert, so
    # spheres at that radius have a provably positive infimum; random
    # sampling alone would accept radii far beyond the critical point.
    w_min = float(np.min(domain.weights[domain.interior]))
    m_coer = min(j.alpha0, 1.0 / p)
    k_emb = w_min ** (-(q - p) / p)
    r_cert = (m_coer * p / k_emb) ** (1.0 / (q - p))

    rng = np.random.default_rng(seed)
    project = symmetry is not None and symmetry.order > 1
    rho = min(r_cert, psi_w1p)
    rho0 = sigma0 = None
    history = []
    for _ in range(60):
        inf_f = math.inf
        for _ in range(sphere_samples):
            noise = rng.standard_normal(domain.n_nodes)
            noise[domain.boundary] = 0.0
            if project:
                noise = group_mod.average_values(symmetry, noise)
            nrm = grid.norm_w1p(GridFunction(domain, noise), p)
            if nrm == 0.0:
                continue
            sample = (rho / nrm) * noise
            inf_f = min(inf_f, functional.energy_of_values(model, sample))
        history.append((rho, inf_f))
        if inf_f > 0.0:
            rho0, sigma0 = rho, inf_f
            break
        rho *= 0.5
    if rho0 is None:
        raise GeometryError(
            "no sphere radius with positive energy infimum; last attempts: "
            + ", ".join(f"(rho={r:.3e}, inf={v:.3e})" for r, v in history[-5:])
        )

    tau_floor = max(
        ((2.0 * q / p) * psi_p_p / psi_q_q) ** (1.0 / (q - p)),
        rho0 / psi_w1p,
    )

    def admissible(tau: float) -> bool:
        if tau <= tau_floor:
            return False
        lhs = _alpha_at(j, tau * psi_inf) * tau ** p
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
    f_zero = functional.energy(model, grid.zeros(domain))
    f_e = functional.energy(model, e)
    if not f_e < 0.0:
        raise GeometryError(
            f"endpoint energy f(e) = {f_e:.6e} is not negative at "
            f"tau = {tau:.6e}; the discrete geometry rejects this model")
    if not grid.norm_w1p(e, p) > rho0:
        raise GeometryError("endpoint lies inside the mountain-pass sphere")
    return EndpointData(psi=psi, rho0=rho0, sigma0=sigma0, tau=tau, e=e,
                        f_zero=f_zero, f_e=f_e,
                        sphere_samples=sphere_samples)


# ---------------------------------------------------------------------------
# main loop


def _dist_to_rearranged(domain, values, p, q):
    star = symmetrize.schwarz(GridFunction(domain, values))
    diff = GridFunction(domain, values - star.values)
    dist_w = grid.norm_lm(diff, q)
    dist_v = max(grid.norm_lm(diff, p), dist_w)
    return dist_v, dist_w


def _slope_parts(model, values, w, project):
    """Preconditioned (projected) direction, slope, dual norm."""
    r = functional.residual_of_values(model, values)
    d = r / w
    if project is not None:
        d = group_mod.average_values(project, d)
    slope = float(np.sum(r * d))
    return d, slope, math.sqrt(max(slope, 0.0))


def _hess_dir(model, values, d):
    """Hessian of f applied to d, by central differences of the residual.

    The direction is normalized before differencing so the assembly
    roundoff in the residual does not swamp the difference near a
    critical point.
    """
    d_inf = float(np.max(np.abs(d)))
    if d_inf == 0.0:
        return np.zeros_like(d)
    eps = 1e-5 * (1.0 + float(np.max(np.abs(values)))) / d_inf
    rp = functional.residual_of_values(model, values + eps * d)
    rm = functional.residual_of_values(model, values - eps * d)
    return (rp - rm) / (2.0 * eps)


def _wnorm(w, values):
    return math.sqrt(float(np.sum(w * values * values)))


def _polish_metric(model, values):
    """Solve with the SPD polish metric, or None when assembly fails.

    G^T diag(c) G + M on the interior nodes: G the gradient rows of the
    cell map, c the quasi-linear cell coefficient j_t/t frozen at the
    current point and M the quadrature mass.  The coefficient is clamped
    because j_t/t blows up at flat cells for p < 2.  Applied on both
    sides of the merit gradient it matches the squared stiffness of the
    merit, which a single application cannot.  The returned solve leaves
    the Dirichlet entries exactly zero.
    """
    dom = model.domain
    cs = dom.cells
    inner = dom.interior
    try:
        avg, t, _ = grid.cell_values(dom, values)
        t_floor = 1e-8 * (1.0 + float(t.max(initial=0.0)))
        t_eff = np.maximum(t, t_floor)
        a = model.integrand.j_t(avg, t_eff) / t_eff
        positive = a[a > 0]
        med = float(np.median(positive)) if positive.size else 1.0
        coef = cs.weights * np.clip(a, 1e-6 * med, 1e6 * med)

        g = dom.cached("interior_gradient", lambda: cs.op[cs.count:, inner])
        c = sparse.diags(np.tile(coef, g.shape[0] // cs.count))
        metric = g.T @ c @ g + sparse.diags(dom.weights[inner])
        lu = sparse_linalg.splu(metric.tocsc())
    except (RuntimeError, ValueError, np.linalg.LinAlgError):
        return None

    def solve(rhs):
        out = np.zeros(dom.n_nodes)
        out[inner] = lu.solve(rhs[inner])
        return out

    return solve


def _snap_groups(domain, symmetry):
    """Strictly larger symmetry realizations worth proposing during polish.

    For p < 2 the integrand kink at flat cells walls off the last digits
    of an almost-symmetric iterate; averaging over a bigger group jumps
    the wall in one move.  Proposals are only ever accepted on a strict
    merit decrease, so an unsuitable candidate costs one evaluation.
    """
    if domain.kind in ("disk-polar", "annulus-polar"):
        labels = ["rotations_%d" % domain.meta["n_theta"]]
    elif domain.kind == "square":
        labels = ["dihedral_4"]
    else:
        labels = []
    current = 0 if symmetry is None else symmetry.order
    out = []
    for label in labels:
        try:
            g = group_mod.build_group(domain, label)
        except SymmetryCompatibilityError:
            continue
        if g.order > current:
            out.append(g)
    return out


def _reparametrize(model, w, path, f_path, k_keep):
    """String reparametrization: resample the interior nodes at uniform
    arc length along the polyline, keeping the node k_keep in place.

    Arc length uses the quadrature-weighted metric.  Without this
    redistribution the free nodes cluster in the wells and the sampled
    maximum stops representing the ridge crossing.  The resampling can
    raise the sampled maximum transiently when a new node lands nearer a
    segment's crest than the old one did.  Returns the polyline length.
    """
    m = len(path)
    old = list(path)
    seg = np.array([_wnorm(w, old[k + 1] - old[k]) for k in range(m - 1)])
    total = float(seg.sum())
    if not math.isfinite(total) or total <= 0.0:
        return total
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, total, m)
    for k in range(1, m - 1):
        if k == k_keep:
            continue
        pos = min(float(targets[k]), total)
        j = int(np.searchsorted(cum, pos, side="right")) - 1
        j = min(max(j, 0), m - 2)
        frac = 0.0 if seg[j] == 0.0 else (pos - cum[j]) / seg[j]
        cand = (1.0 - frac) * old[j] + frac * old[j + 1]
        f_c = functional.energy_of_values(model, cand)
        if math.isfinite(f_c):
            path[k] = cand
            f_path[k] = f_c
    return total


def _merit_directions(metric, w, gm):
    """Preconditioned merit gradients to try: the Picard-metric sandwich
    when it is finite, then the diagonal fallback gm / w."""
    if metric is not None:
        sandwich = metric(w * metric(gm))
        if np.all(np.isfinite(sandwich)):
            yield sandwich
    yield gm / w


class _Solve:
    """State the stages of one run share: model, config and projector,
    record and iteration counters, the path, the current iterate ``u``
    and, from the first ``restart`` on, the polish's conjugate-gradient
    memory and Picard metric."""

    def __init__(self, model, cfg, project, path, trivial_level):
        self.model = model
        self.cfg = cfg
        self.project = project
        self.w = model.domain.weights
        self.trivial_level = trivial_level
        self.path = path
        self.f_path = np.array(
            [functional.energy_of_values(model, v) for v in path])
        self.record = PSRecord()
        self.it = 0
        self.polish_it = 0
        self.u = None

    def fail(self, msg):
        state = {"iteration": self.it, "f_path": self.f_path.copy(),
                 "path": [v.copy() for v in self.path]}
        raise NumericalFailureError(msg, last_state=state)

    def measure(self, values, f_val, where):
        """Check the iterate, log its row (every row with log_iterations,
        else only at the tolerance and the budget end) and return its
        direction, slope and dual residual norm."""
        if not math.isfinite(f_val):
            self.fail(f"energy became non-finite {where}")
        d, slope, grad_norm = _slope_parts(self.model, values, self.w,
                                           self.project)
        if not math.isfinite(slope):
            self.fail(f"residual became non-finite {where}")
        cfg = self.cfg
        if cfg.log_iterations or grad_norm <= cfg.grad_tol \
                or self.it == cfg.max_iterations:
            domain, p = self.model.domain, self.model.p
            dist_v, dist_w = _dist_to_rearranged(domain, values, p,
                                                 self.model.q)
            self.record.append(self.it, f_val, grad_norm,
                               grid.norm_w1p(GridFunction(domain, values), p),
                               dist_v, dist_w, values)
        return d, slope, grad_norm

    def restart(self, u):
        """Make u the current iterate and start the conjugate-gradient
        memory afresh, with the Picard metric frozen at u."""
        self.u = u
        self.s_dir = self.gm_prev = self.pm_prev = None
        self.since_restart = 0
        self.metric = _polish_metric(self.model, u)


def _snap_restart(st, snaps, merit):
    """Restart from the first higher-symmetry average of the iterate that
    lowers the merit; False when none does."""
    for g_big in snaps:
        cand = group_mod.average_values(g_big, st.u)
        if st.project is not None:
            cand = group_mod.average_values(st.project, cand)
        _, m_s, _ = _slope_parts(st.model, cand, st.w, st.project)
        if math.isfinite(m_s) and m_s < merit:
            st.restart(cand)
            return True
    return False


def _path_stage(st):
    """Ratchet the maximum-energy point of the path down to the pass.

    Uses at most ``_PHASE1_FRACTION`` of the budget.  Returns whether the
    path maximum met the residual tolerance at a nontrivial level, and
    the point the polish starts from: that maximum, or else the
    smallest-gradient point seen at the lowest level the maximum reached.
    """
    model, cfg, w = st.model, st.cfg, st.w
    path, f_path = st.path, st.f_path
    m = len(path)
    step_mem = np.full(m, cfg.step_init)
    length = sum(_wnorm(w, path[k + 1] - path[k]) for k in range(m - 1))
    u_best = None
    g_best = f_best = math.inf
    stall = 0
    budget = max(1, int(_PHASE1_FRACTION * cfg.max_iterations))
    while st.it < budget:
        st.it += 1
        k_max = 1 + int(np.argmax(f_path[1:-1]))
        u = st.u = path[k_max]
        f_u = float(f_path[k_max])
        d, slope, grad_norm = st.measure(u, f_u, "at the path maximum")
        if grad_norm <= cfg.grad_tol:
            if f_u > st.trivial_level:
                return True, u
            break
        # stall counts iterations without any level progress
        if f_u > st.trivial_level \
                and f_u < f_best - 1e-12 * (1.0 + abs(f_u)):
            f_best = f_u
            g_best = grad_norm
            u_best = u.copy()
            stall = 0
        else:
            if f_u > st.trivial_level \
                    and f_u <= f_best + 1e-9 * (1.0 + abs(f_u)) \
                    and grad_norm < g_best:
                g_best = grad_norm
                u_best = u.copy()
            stall += 1
        if stall >= _STALL_PATIENCE and u_best is not None:
            break

        # Armijo backtracking on the max point, with the displacement
        # capped at half a node spacing so a single step can never leap
        # past the neighbors into the unbounded -|u|^q well; once the
        # point slips below the sampled crest, a resampled neighbor takes
        # over as the maximum
        d_norm = _wnorm(w, d)
        t = step_mem[k_max]
        if d_norm > 0.0 and length > 0.0:
            t = min(t, 0.5 * length / ((m - 1) * d_norm))
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = u - t * d
            f_c = functional.energy_of_values(model, cand)
            if math.isfinite(f_c) and f_c <= f_u - cfg.armijo * t * slope:
                accepted = True
                break
            t *= cfg.step_shrink
        if accepted:
            path[k_max] = cand
            f_path[k_max] = f_c
            step_mem[k_max] = min(cfg.step_init, t / cfg.step_shrink)
        else:
            step_mem[k_max] = max(t, 1e-300)

        # pull the neighbors toward the segment midpoints to keep the
        # polyline from kinking around the moving maximum
        for kk in (k_max - 1, k_max + 1):
            if kk <= 0 or kk >= m - 1:
                continue
            mid = 0.5 * (path[kk - 1] + path[kk + 1])
            cand = (1.0 - _SMOOTHING) * path[kk] + _SMOOTHING * mid
            f_c = functional.energy_of_values(model, cand)
            if math.isfinite(f_c):
                path[kk] = cand
                f_path[kk] = f_c

        length = _reparametrize(model, w, path, f_path, k_max)
    return False, st.u if u_best is None else u_best


def _line_search(st, direction, gm, mslope, merit, t, cone):
    """Armijo backtracking on the merit from ``st.u`` along ``direction``;
    returns the accepted point, step and merit, or None.  On the cone the
    step is capped at the iterate's scale (an uncapped projected trial can
    land on the trivial critical point in one jump), every trial is
    projected, the slope test uses the projected displacement, and a
    trial must keep a nontrivial level."""
    model, cfg, u = st.model, st.cfg, st.u
    if cone:
        s_inf = float(np.max(np.abs(direction)))
        if s_inf > 0.0:
            t = min(t, (1.0 + float(np.max(np.abs(u)))) / s_inf)
    for _ in range(_MAX_BACKTRACKS):
        cand = u + t * direction
        step_slope = t * mslope
        if cone and np.all(np.isfinite(cand)):
            cand = symmetrize.cone_project(
                GridFunction(model.domain, cand)).values
            step_slope = float(np.sum(gm * (cand - u)))
            if not (math.isfinite(step_slope) and step_slope < 0.0):
                t *= cfg.step_shrink
                continue
        if np.all(np.isfinite(cand)):
            _, m_c, _ = _slope_parts(model, cand, st.w, st.project)
            if math.isfinite(m_c) \
                    and m_c <= merit + cfg.armijo * step_slope \
                    and (not cone or functional.energy_of_values(model, cand)
                         > st.trivial_level):
                return cand, t, m_c
        t *= cfg.step_shrink
    return None


def _polish_stage(st, start, snaps, sweep_quota=None):
    """Contract from start to the critical point.

    Nonlinear conjugate gradient on the squared dual residual norm, run
    in the Picard metric: plain descent on that merit squares the
    stiffness of the problem, and sandwiching the merit gradient between
    two inverse applications of the frozen-coefficient operator squares
    the metric to match.  ``snaps`` come from ``_snap_groups``.  With
    ``sweep_quota`` set this is the cone sweep, which stops only once it
    has logged that many rows.  Returns the energy where the residual
    tolerance was met, or None when the budget ran out or no step was left.
    """
    model, cfg, w, project = st.model, st.cfg, st.w, st.project
    sweeping = sweep_quota is not None
    first_row = len(st.record)
    st.restart(start)
    t_mem = cfg.step_init
    micro_steps = 0
    while st.it < cfg.max_iterations:
        st.it += 1
        st.polish_it += 1
        u = st.u
        f_u = functional.energy_of_values(model, u)
        d, merit, grad_norm = st.measure(u, f_u, "during polishing")
        if grad_norm <= cfg.grad_tol and (
                not sweeping or len(st.record) - first_row >= sweep_quota):
            return f_u
        if snaps and not sweeping \
                and (st.polish_it % _SNAP_EVERY == 1
                     or grad_norm <= 1e3 * cfg.grad_tol) \
                and _snap_restart(st, snaps, merit):
            continue
        if st.metric is not None and st.polish_it % _METRIC_REFRESH == 0:
            st.metric = _polish_metric(model, u)
        gm = _hess_dir(model, u, d)
        for pm in _merit_directions(st.metric, w, gm):
            if project is not None:
                pm = group_mod.average_values(project, pm)
            denom = float(np.sum(gm * pm))
            if math.isfinite(denom) and denom > 0.0:
                break
        else:
            return None
        beta = 0.0
        if st.s_dir is not None and st.since_restart < 50:
            num = float(np.sum((gm - st.gm_prev) * pm))
            prev = float(np.sum(st.gm_prev * st.pm_prev))
            if math.isfinite(num) and prev > 0.0:
                beta = max(0.0, num / prev)
        s_cand = -pm + beta * (st.s_dir if st.s_dir is not None else 0.0)
        mslope = float(np.sum(gm * s_cand))
        if not (math.isfinite(mslope) and mslope < 0.0):
            # not a descent direction: fall back to steepest descent
            s_cand = -pm
            mslope = -denom
            st.since_restart = 0
        step = _line_search(st, s_cand, gm, mslope, merit, t_mem, sweeping)
        if step is None:
            if sweeping and grad_norm <= cfg.grad_tol:
                # settled on the cone at the residual floor; the record
                # keeps the point until the quota is met
                continue
            if not _snap_restart(st, snaps, merit):
                return None
            t_mem = cfg.step_init
            continue
        cand, t, m_c = step
        # a merit plateau with a large residual is a spurious stationary
        # point of the merit, not a solution; stop instead of looping on
        # no-op steps.  Near the tolerance the same step sizes are the
        # legitimate endgame, so the guard only fires while the residual
        # is still far out.
        if merit - m_c <= 1e-18 * (1.0 + merit) \
                and grad_norm > 100.0 * cfg.grad_tol:
            micro_steps += 1
            if micro_steps >= 10:
                if not _snap_restart(st, snaps, merit):
                    return None
                micro_steps = 0
                continue
        else:
            micro_steps = 0
        st.u = cand
        t_mem = min(cfg.step_init, t / cfg.step_shrink)
        st.s_dir, st.gm_prev, st.pm_prev = s_cand, gm, pm
        st.since_restart += 1
    return None


def run(model, symmetry, cfg: SolveConfig) -> SolveReport:
    """Mountain-pass solve; returns a report (non-convergence included).

    The path stage locates the saddle only to about the node spacing;
    near a nondegenerate critical point the polish merit is locally
    convex, so the polish contracts where plain energy descent would
    slide off the saddle.  Direct mode sweeps only after the contraction:
    far from the solution the merit route runs through sign-changing
    territory where a sweep and the contraction fight each other, while
    near the symmetric limit they cooperate.  The sweep runs until the
    swept segment owns the final quartile of the record, so the tail
    statistics are measured on iterates that follow it.
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

    endpoints = init_endpoints(model, project, seed=cfg.seed)
    e_vals = endpoints.e.values
    rng = np.random.default_rng([cfg.seed, 1])
    scale = _INIT_NOISE * float(np.max(np.abs(e_vals)))
    path = [t * e_vals for t in np.linspace(0.0, 1.0, cfg.path_points)]
    for k in range(1, cfg.path_points - 1):
        noise = rng.standard_normal(domain.n_nodes)
        noise[domain.boundary] = 0.0
        path[k] = path[k] + scale * noise
        if project is not None:
            path[k] = group_mod.average_values(project, path[k])
    # a point polished down to the zero local minimum is not a pass; the
    # sampled sigma0 overestimates the true sphere infimum, so only a
    # scale-relative zero test is safe as the triviality gate
    st = _Solve(model, cfg, project, path,
                trivial_level=1e-10 * (1.0 + abs(endpoints.f_e)))

    converged, start = _path_stage(st)
    sweep_start = None
    if st.it < cfg.max_iterations and (not converged or mode == "direct"):
        snaps = _snap_groups(domain, project)
        level = _polish_stage(st, start, snaps)
        if level is not None and mode == "direct":
            sweep_start = len(st.record)
            swept = symmetrize.schwarz(GridFunction(domain, st.u)).values
            level = _polish_stage(st, swept, snaps,
                                  sweep_quota=max(1, -(-sweep_start // 3)))
        converged = level is not None and level > st.trivial_level

    u_final = GridFunction(domain, st.u)
    return SolveReport(
        mode=mode,
        requested_mode=cfg.mode,
        converged=converged,
        u=u_final,
        level=functional.energy(model, u_final),
        record=st.record,
        endpoints=endpoints,
        iterations=st.it,
        wall_time=time.perf_counter() - t_start,
        config=cfg,
        config_hash=config_digest(cfg),
        downgrade_reason=downgrade_reason,
        sweep_start=sweep_start,
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
    plain_report: SolveReport
    restricted_report: SolveReport

    def to_dict(self) -> dict:
        return {
            "declined": self.declined, "reason": self.reason,
            "c_plain": self.c_plain, "c_restricted": self.c_restricted,
            "ordered": self.ordered, "tolerance": self.tolerance,
        }


def compare_levels(model, symmetry, cfg: SolveConfig,
                   level_tolerance: float = 1e-4) -> LevelComparison:
    """Run plain and restricted solves and compare minimax levels."""
    plain = run(model, symmetry, replace(cfg, mode="plain"))
    restricted = run(model, symmetry, replace(cfg, mode="restricted"))
    bad = [name for name, rep in (("plain", plain), ("restricted", restricted))
           if not rep.converged]
    return LevelComparison(
        declined=bool(bad),
        reason=f"non-converged: {', '.join(bad)}" if bad else None,
        c_plain=plain.level if plain.converged else None,
        c_restricted=restricted.level if restricted.converged else None,
        ordered=None if bad else
        plain.level <= restricted.level + level_tolerance,
        tolerance=level_tolerance,
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


def ps_diagnostics(record: PSRecord, model, ceiling: float = 1e3,
                   direct_mode: bool = False,
                   sweep_start: int | None = None) -> PSDiagnostics:
    """Boundedness, tail Cauchy-in-W, and rearrangement-distance trends.

    ``sweep_start`` anchors the distance-trend check at the record row of
    the first polarization sweep; without it the trend is taken over the
    whole record past the initial point.
    """
    n = len(record)
    if n < 2:
        raise ParameterError("diagnostics need a record of length >= 2")
    violations = []
    sup_w1p = max(record.w1p_norm)
    bounded = sup_w1p <= ceiling
    if not bounded:
        violations.append(
            f"iterates unbounded: sup W1p norm {sup_w1p:.6e} "
            f"exceeds ceiling {ceiling:.6e}")

    quartile = max(2, -(-n // 4))
    tail = record.tail_values()
    truncated = quartile > len(tail)
    pts = tail[-min(quartile, len(tail)):]
    # bound the pairwise sweep; an even stride keeps first and last iterates
    if len(pts) > 120:
        idx = np.unique(np.linspace(0, len(pts) - 1, 120).astype(int))
        pts = [pts[i] for i in idx]
    domain = model.domain
    q = model.q
    cauchy = 0.0
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            diff = GridFunction(domain, pts[a] - pts[b])
            cauchy = max(cauchy, grid.norm_lm(diff, q))

    dist_v = np.array(record.dist_vstar_V)
    monotone = None
    if direct_mode:
        start = 1 if sweep_start is None else min(max(sweep_start, 0), n - 1)
        seg = dist_v[start:]
        steps = np.diff(seg)
        monotone = bool(np.all(steps <= 1e-12 * (1.0 + seg[:-1]))) \
            if seg.shape[0] > 1 else True
        if not monotone:
            violations.append(
                "rearrangement distance increased after the first sweep")
    return PSDiagnostics(
        sup_w1p=sup_w1p, ceiling=ceiling, bounded=bounded,
        cauchy_tail=cauchy, cauchy_points=len(pts),
        cauchy_truncated=truncated,
        dist_v_final=float(dist_v[-1]), dist_v_monotone=monotone,
        sweep_start=sweep_start, violations=violations)
