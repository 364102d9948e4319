from dataclasses import fields, replace
import math
import warnings

import numpy as np
import pytest

from symcrit import functional, grid, group, integrand, symmetrize, verify
from symcrit.errors import NumericalFailureError, ParameterError
from symcrit.grid import GridFunction
from symcrit.solver import (PS_CSV_HEADER, TAIL_RETENTION, PSRecord,
                            SolveConfig, compare_levels, config_digest,
                            default_psi, init_endpoints, ps_diagnostics, run)


def make_model(kind, dom_kw, name="plaplace", p=2.0, q=4.0, positivity=False):
    dom = grid.build_domain(kind, **dom_kw)
    return functional.EnergyModel(domain=dom,
                                  integrand=integrand.builtin(name, p=p),
                                  q=q, positivity=positivity)


@pytest.fixture(scope="module")
def toy_model():
    """Two-unknown radial ball: every node is hand-checkable."""
    return make_model("radial-ball-1d",
                      dict(dimension=3, radius=12.0, resolution=2))


@pytest.fixture(scope="module")
def square_model():
    return make_model("square", dict(side=6.0, resolution=9), p=1.8, q=3.0)


@pytest.fixture(scope="module")
def square_run(square_model):
    sym = group.build_group(square_model.domain, "dihedral_4")
    cfg = SolveConfig(mode="restricted", path_points=12,
                      max_iterations=6000, grad_tol=1e-8, seed=0)
    return sym, cfg, run(square_model, sym, cfg)


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize("kw", [
    dict(mode="newton"),
    dict(path_points=7),
    dict(max_iterations=0),
    dict(grad_tol=0.0),
    dict(grad_tol=-1e-8),
    dict(step_init=0.0),
    dict(step_shrink=0.0),
    dict(step_shrink=1.0),
    dict(armijo=0.0),
    dict(armijo=1.0),
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(ParameterError):
        SolveConfig(**kw)


def test_config_digest_tracks_content():
    a = SolveConfig(seed=3)
    assert config_digest(a) == config_digest(SolveConfig(seed=3))
    assert len(config_digest(a)) == 64
    changed = dict(mode="plain", path_points=13, max_iterations=5001,
                   grad_tol=1e-9, step_init=0.5, step_shrink=0.25,
                   armijo=1e-3, seed=4, log_iterations=False)
    assert set(changed) == {f.name for f in fields(SolveConfig)}
    for name, value in changed.items():
        assert config_digest(replace(a, **{name: value})) \
            != config_digest(a), name
    # every payload embeds the digest, so its bytes must not move
    assert config_digest(SolveConfig()) == (
        "14fd735a03801902228928ba340ccfe6e88b6d87c200a6afe67db2d6abed7f7f")


def test_restricted_mode_requires_group(toy_model):
    cfg = SolveConfig(mode="restricted", max_iterations=10)
    with pytest.raises(ParameterError):
        run(toy_model, None, cfg)


@pytest.mark.parametrize("bad_call, where", [
    (3, "at the path maximum"),
    (7, "during polishing"),
])
def test_nonfinite_residual_names_the_stage(toy_model, monkeypatch,
                                            bad_call, where):
    # with a budget of 10 the path stage runs 6 iterations and computes
    # one residual in each, so call 7 is the first polish measurement
    clean = functional.residual_of_values
    calls = []

    def poisoned(model, values):
        calls.append(1)
        r = clean(model, values)
        return np.full_like(r, np.nan) if len(calls) >= bad_call else r

    monkeypatch.setattr(functional, "residual_of_values", poisoned)
    cfg = SolveConfig(mode="plain", max_iterations=10)
    with pytest.raises(NumericalFailureError,
                       match=f"residual became non-finite {where}") as err:
        run(toy_model, None, cfg)
    state = err.value.last_state
    assert state["iteration"] == bad_call
    assert len(state["path"]) == cfg.path_points
    assert all(v.shape == (toy_model.domain.n_nodes,)
               for v in state["path"])
    assert np.all(np.isfinite(state["f_path"]))


# ---------------------------------------------------------------------------
# iteration record


def test_record_rejects_nonfinite():
    rec = PSRecord()
    with pytest.raises(ParameterError):
        rec.append(0, math.nan, 1.0, 1.0, 0.0, 0.0, np.zeros(3))


def test_record_csv_roundtrip(tmp_path):
    rec = PSRecord()
    rec.append(0, 1.5, 2.5, 3.5, 0.25, 0.125, np.zeros(3))
    rec.append(1, 1.25, 2.0, 3.25, 0.2, 0.1, np.ones(3))
    out = tmp_path / "record.csv"
    rec.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == PS_CSV_HEADER
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "1.5"


def test_record_tail_is_bounded():
    rec = PSRecord()
    for k in range(TAIL_RETENTION + 50):
        rec.append(k, 0.0, 1.0, 1.0, 0.0, 0.0, np.full(2, float(k)))
    assert len(rec) == TAIL_RETENTION + 50
    tail = rec.tail_values()
    assert len(tail) == TAIL_RETENTION
    # oldest rows fall out, newest stay
    assert tail[-1][0] == float(TAIL_RETENTION + 49)
    assert tail[0][0] == 50.0


# ---------------------------------------------------------------------------
# endpoint geometry


def test_endpoints_radial_geometry(toy_model):
    ep = init_endpoints(toy_model, None, seed=0)
    assert ep.f_zero == 0.0
    assert ep.f_e < 0.0
    assert ep.rho0 > 0.0
    assert ep.sigma0 > 0.0
    assert ep.tau >= 1.0
    # far end must sit outside the sphere that carries the level bound
    assert grid.norm_w1p(ep.e, toy_model.p) > ep.rho0


def test_endpoints_reject_foreign_psi(toy_model, square_small):
    psi = GridFunction(square_small, np.ones(square_small.n_nodes))
    with pytest.raises(ParameterError):
        init_endpoints(toy_model, None, psi=psi)


def test_endpoints_reject_zero_psi(toy_model):
    psi = GridFunction(toy_model.domain,
                       np.zeros(toy_model.domain.n_nodes))
    with pytest.raises(ParameterError):
        init_endpoints(toy_model, None, psi=psi)


def test_default_psi_is_admissible(ball_small):
    psi = default_psi(ball_small)
    assert np.all(psi.values >= 0.0)
    assert np.all(psi.values[ball_small.boundary] == 0.0)
    assert np.max(psi.values) > 0.0


# ---------------------------------------------------------------------------
# saddle-level oracle
#
# The resolution-2 radial ball has two interior unknowns, so the discrete
# energy is an explicit function of (u0, u1) and the minimax level can be
# found without the solver: activate cells of a dense value grid in order
# of increasing energy and union-find neighbors until the cells holding 0
# and e connect.  The first connecting energy is the lowest in-box path
# maximum.  A second sweep on a tight box around the located saddle, with
# endpoints displaced along the unstable direction of a finite-difference
# Hessian, removes the O(spacing^2) upward bias of the global sweep.

TOY_P, TOY_Q, TOY_RADIUS = 2.0, 4.0, 12.0
SWEEP_LEVEL = 276.2788717979144       # 400 x 400 global box
REFINED_LEVEL = 276.2408717432417     # 400 x 400 zoomed box
SOLVER_LEVEL = 276.240858560441


def toy_energy(u0, u1):
    """Hand-derived energy of the resolution-2 radial ball scheme."""
    dr = TOY_RADIUS / 2.0
    sigma = 4.0 * math.pi
    cw0 = sigma * dr ** 3 / 3.0
    cw1 = sigma * ((2.0 * dr) ** 3 - dr ** 3) / 3.0
    t0 = np.abs(u1 - u0) / dr
    t1 = np.abs(-u1) / dr
    a0 = 0.5 * (u0 + u1)
    a1 = 0.5 * u1

    def dens(t, a):
        return (t ** TOY_P / TOY_P + np.abs(a) ** TOY_P / TOY_P
                - np.abs(a) ** TOY_Q / TOY_Q)

    return cw0 * dens(t0, a0) + cw1 * dens(t1, a1)


def sweep_level(src_pt, dst_pt, box, g):
    """Minimax level between two value-grid cells by sublevel percolation."""
    xs = np.linspace(box[0], box[1], g)
    ys = np.linspace(box[2], box[3], g)
    u0g, u1g = np.meshgrid(xs, ys, indexing="ij")
    f = toy_energy(u0g, u1g).ravel()

    def cell_of(a, b):
        return (int(np.argmin(np.abs(xs - a))) * g
                + int(np.argmin(np.abs(ys - b))))

    src = cell_of(*src_pt)
    dst = cell_of(*dst_pt)
    parent = np.arange(g * g, dtype=np.int64)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    active = np.zeros(g * g, dtype=bool)
    for idx in np.argsort(f, kind="stable"):
        active[idx] = True
        i, j = divmod(int(idx), g)
        for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if 0 <= ni < g and 0 <= nj < g and active[ni * g + nj]:
                parent[find(int(idx))] = find(ni * g + nj)
        if active[src] and active[dst] and find(src) == find(dst):
            return float(f[idx]), float(xs[i]), float(ys[j])
    raise AssertionError("sublevel sets never connected")


def unstable_direction(sx, sy):
    h = 1e-5
    hess = np.empty((2, 2))
    hess[0, 0] = (toy_energy(sx + h, sy) - 2 * toy_energy(sx, sy)
                  + toy_energy(sx - h, sy)) / h ** 2
    hess[1, 1] = (toy_energy(sx, sy + h) - 2 * toy_energy(sx, sy)
                  + toy_energy(sx, sy - h)) / h ** 2
    hess[0, 1] = hess[1, 0] = (
        toy_energy(sx + h, sy + h) - toy_energy(sx + h, sy - h)
        - toy_energy(sx - h, sy + h)
        + toy_energy(sx - h, sy - h)) / (4 * h ** 2)
    evals, evecs = np.linalg.eigh(hess)
    assert evals[0] < 0 < evals[1]
    return evecs[:, 0]


def test_toy_energy_matches_module(toy_model):
    pts = [(0.5, -1.0), (2.0, 0.1), (-3.0, 4.0), (5.465, 3.864), (0.0, 0.0)]
    for u0, u1 in pts:
        want = toy_energy(u0, u1)
        got = functional.energy_of_values(toy_model,
                                          np.array([u0, u1, 0.0]))
        assert abs(want - got) <= 1e-10 * (1.0 + abs(want))


def test_solver_level_matches_value_grid_search(toy_model):
    ep = init_endpoints(toy_model, None, seed=0)
    e0, e1 = float(ep.e.values[0]), float(ep.e.values[1])
    assert ep.f_e < 0.0

    lo = min(-2.0, e0 - 2.0, e1 - 2.0)
    hi = max(2.0, e0 + 2.0, e1 + 2.0)
    level1, sx, sy = sweep_level((0.0, 0.0), (e0, e1), (lo, hi, lo, hi), 400)
    assert level1 == pytest.approx(SWEEP_LEVEL, rel=1e-9)

    v = unstable_direction(sx, sy)
    half = 6.0 * (hi - lo) / 399.0
    p0 = (sx - 0.5 * half * v[0], sy - 0.5 * half * v[1])
    p1 = (sx + 0.5 * half * v[0], sy + 0.5 * half * v[1])
    assert toy_energy(*p0) < level1 and toy_energy(*p1) < level1
    level2, rx, ry = sweep_level(
        p0, p1, (sx - half, sx + half, sy - half, sy + half), 400)
    assert level2 == pytest.approx(REFINED_LEVEL, rel=1e-9)
    # the global sweep overshoots by its cell size, the zoom must not
    assert level2 < level1
    assert abs(level2 - level1) < 0.05

    sym = group.build_group(toy_model.domain, "trivial")
    cfg = SolveConfig(mode="restricted", path_points=24,
                      max_iterations=5000, grad_tol=1e-8, seed=0)
    rep = run(toy_model, sym, cfg)
    assert rep.converged
    assert abs(rep.level - level2) <= 1e-3
    assert rep.level == pytest.approx(SOLVER_LEVEL, abs=1e-6)
    assert abs(rep.u.values[0] - rx) < 5e-3
    assert abs(rep.u.values[1] - ry) < 5e-3


# ---------------------------------------------------------------------------
# solve runs


def test_restricted_iterates_stay_invariant(square_run):
    sym, cfg, rep = square_run
    assert rep.converged
    assert rep.mode == "restricted"
    assert rep.requested_mode == "restricted"
    assert rep.downgrade_reason is None
    proj = group.average_values(sym, rep.u.values)
    assert np.max(np.abs(rep.u.values - proj)) <= 1e-13
    assert rep.level > 0.0
    assert rep.config_hash == config_digest(cfg)


def test_same_seed_reproduces_bitwise(square_model, square_run):
    sym, cfg, first = square_run
    second = run(square_model, sym, cfg)
    assert second.level == first.level
    assert np.array_equal(second.u.values, first.u.values)
    assert second.iterations == first.iterations
    assert second.record.f == first.record.f
    assert second.record.grad_norm == first.record.grad_norm


def test_report_carries_run_metadata(square_run):
    _, cfg, rep = square_run
    assert rep.iterations == len(rep.record)
    assert rep.wall_time > 0.0
    assert rep.endpoints.f_e < 0.0
    assert rep.config is cfg or rep.config == cfg


def test_direct_mode_downgrades_on_failed_gate(toy_model):
    # two huge cells break the rearrangement inequality for cell averages,
    # so the energy-decrease gate must refuse direct mode here
    cfg = SolveConfig(mode="direct", path_points=24,
                      max_iterations=5000, grad_tol=1e-8, seed=0)
    with pytest.warns(UserWarning, match="energy-decrease check failed"):
        rep = run(toy_model, None, cfg)
    assert rep.requested_mode == "direct"
    assert rep.mode == "plain"
    assert rep.downgrade_reason is not None


def test_direct_gate_passes_on_fine_radial_grid():
    model = make_model("radial-ball-1d",
                       dict(dimension=3, radius=12.0, resolution=30),
                       name="modulated", p=2.0, q=4.0, positivity=True)
    gate = symmetrize.hypothesis_b_check(model, samples=50, seed=0)
    assert gate.passed
    assert gate.max_excess == 0.0


def test_direct_mode_sweeps_onto_cone():
    model = make_model("radial-ball-1d",
                       dict(dimension=3, radius=12.0, resolution=30),
                       name="modulated", p=2.0, q=4.0, positivity=True)
    cfg = SolveConfig(mode="direct", path_points=12,
                      max_iterations=20000, grad_tol=1e-8, seed=0)
    rep = run(model, None, cfg)
    assert rep.converged
    assert rep.mode == "direct"
    assert rep.sweep_start is not None
    assert 0 < rep.sweep_start < len(rep.record)
    # every iterate after the sweep sits on the cone exactly
    dist = np.array(rep.record.dist_vstar_V)
    assert np.all(dist[rep.sweep_start:] == 0.0)
    star = symmetrize.schwarz(rep.u)
    assert np.array_equal(star.values, rep.u.values)
    # the swept segment owns the window the tail statistics measure
    diag = ps_diagnostics(rep.record, model, direct_mode=True,
                          sweep_start=rep.sweep_start)
    assert diag.passed
    assert diag.dist_v_final <= 1e-9
    assert diag.dist_v_monotone is True
    assert diag.cauchy_tail <= 1e-6


def test_returned_point_is_the_measured_point():
    # the polish solve must leave Dirichlet entries exactly zero, or the
    # boundary clamp of the returned point moves it off the point whose
    # residual passed the convergence test
    model = make_model("radial-ball-1d",
                       dict(dimension=3, radius=12.0, resolution=30),
                       positivity=True)
    sym = group.build_group(model.domain, "trivial")
    cfg = SolveConfig(mode="restricted", path_points=12,
                      max_iterations=20000, grad_tol=1e-8, seed=0)
    rep = run(model, sym, cfg)
    assert rep.converged
    measured = rep.record.tail_values()[-1]
    assert measured.tobytes() == rep.u.values.tobytes()
    r = functional.residual_of_values(model, rep.u.values)
    assert verify.dual_norm(model.domain, r) <= cfg.grad_tol


# ---------------------------------------------------------------------------
# level comparison


def test_compare_levels_orders_toy(toy_model):
    sym = group.build_group(toy_model.domain, "trivial")
    cfg = SolveConfig(mode="plain", path_points=24, max_iterations=5000,
                      grad_tol=1e-8, seed=0)
    cmp_ = compare_levels(toy_model, sym, cfg)
    assert not cmp_.declined
    assert cmp_.ordered
    assert cmp_.c_plain <= cmp_.c_restricted + cmp_.tolerance
    d = cmp_.to_dict()
    assert d["declined"] is False and d["ordered"] is True


def test_compare_levels_declines_without_convergence(toy_model):
    sym = group.build_group(toy_model.domain, "trivial")
    cfg = SolveConfig(mode="plain", path_points=24, max_iterations=1,
                      grad_tol=1e-8, seed=0)
    cmp_ = compare_levels(toy_model, sym, cfg)
    assert cmp_.declined
    assert "non-converged" in cmp_.reason
    assert cmp_.ordered is None


# ---------------------------------------------------------------------------
# iterate diagnostics


def synthetic_record(rows, values):
    rec = PSRecord()
    for k, (f, g, w, dv, dw) in enumerate(rows):
        rec.append(k, f, g, w, dv, dw, values[k])
    return rec


def test_diagnostics_need_two_rows(toy_model):
    rec = PSRecord()
    rec.append(0, 1.0, 1.0, 1.0, 0.0, 0.0, np.zeros(3))
    with pytest.raises(ParameterError):
        ps_diagnostics(rec, toy_model)


def test_diagnostics_accept_settled_record(toy_model):
    vals = [np.array([1.0, 0.5, 0.0])] * 4
    rows = [(2.0, 1e-9, 5.0, 0.3, 0.3)] * 4
    diag = ps_diagnostics(synthetic_record(rows, vals), toy_model,
                          direct_mode=True)
    assert diag.bounded
    assert diag.cauchy_tail == 0.0
    assert diag.dist_v_monotone is True
    assert diag.passed


def test_diagnostics_flag_unbounded_iterates(toy_model):
    vals = [np.zeros(3)] * 3
    rows = [(2.0, 1.0, 5.0, 0.0, 0.0),
            (2.0, 1.0, 2e3, 0.0, 0.0),
            (2.0, 1.0, 5.0, 0.0, 0.0)]
    diag = ps_diagnostics(synthetic_record(rows, vals), toy_model)
    assert not diag.bounded
    assert diag.sup_w1p == 2e3
    assert not diag.passed
    assert any("unbounded" in v for v in diag.violations)


def test_diagnostics_flag_growing_rearrangement_distance(toy_model):
    # the first interval is the initial sweep and may move any amount;
    # growth after it is the violation
    vals = [np.zeros(3)] * 4
    rows = [(2.0, 1.0, 5.0, 5.0, 0.0),
            (2.0, 1.0, 5.0, 1.0, 0.0),
            (2.0, 1.0, 5.0, 1.0, 0.0),
            (2.0, 1.0, 5.0, 2.0, 0.0)]
    diag = ps_diagnostics(synthetic_record(rows, vals), toy_model,
                          direct_mode=True)
    assert diag.dist_v_monotone is False
    assert not diag.passed


def test_diagnostics_measure_tail_spread(toy_model):
    a = np.array([0.0, 0.0, 0.0])
    b = np.array([1.0, -1.0, 0.0])
    c = np.array([1.0, 0.5, 0.0])
    rows = [(2.0, 1.0, 5.0, 0.0, 0.0)] * 3
    diag = ps_diagnostics(synthetic_record(rows, [a, b, c]), toy_model)
    dom = toy_model.domain
    want = grid.norm_lm(GridFunction(dom, b - c), toy_model.q)
    assert diag.cauchy_tail == pytest.approx(want, rel=1e-12)
    assert diag.cauchy_points == 2
