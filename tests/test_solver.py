from dataclasses import fields, replace
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sparse

from symcrit import (functional, grid, group, integrand, solver, symmetrize,
                     verify)
from symcrit.errors import (NumericalFailureError, ParameterError,
                            SymmetryCompatibilityError)
from symcrit.grid import GridFunction
from symcrit.solver import (PS_CSV_HEADER, TAIL_RETENTION, PSRecord,
                            SolveConfig, _metric_coefficients,
                            _polish_metric, _ray_peak,
                            compare_levels, config_digest, default_psi,
                            init_endpoints, ps_diagnostics, run)

from conftest import poison_ray, poison_residual
import grid_oracle


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
    dict(seed=-1),
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(ParameterError):
        SolveConfig(**kw)


def test_config_digest_tracks_content():
    a = SolveConfig(seed=3)
    assert config_digest(a) == config_digest(SolveConfig(seed=3))
    assert len(config_digest(a)) == 64
    changed = dict(mode="plain", path_points=13, max_iterations=5001,
                   grad_tol=1e-9, seed=4)
    assert set(changed) == {f.name for f in fields(SolveConfig)}
    for name, value in changed.items():
        assert config_digest(replace(a, **{name: value})) \
            != config_digest(a), name
    # every payload embeds the digest, so its bytes must not move
    assert config_digest(SolveConfig()) == (
        "bd09e0b9c55f2089672888034620a84deadc955f17e973c39f2198264cd11c48")


def test_restricted_mode_requires_group(toy_model):
    cfg = SolveConfig(mode="restricted", max_iterations=10)
    with pytest.raises(ParameterError):
        run(toy_model, None, cfg)


@pytest.mark.parametrize("mode, part, bad_call, where, iteration", [
    # on the modulated toy ball ray 1 prices the starting peak and ray 2 is
    # iteration 1's first trial step, so a NaN ray slope fails inside its
    # per-cell peak search (a two-sum ray takes no slope)
    ("plain", "slope", 2, "in the ray stage", 1),
    # the ray stage on the direct-mode ball converges in 21 iterations and
    # 21 residual calls (its peak searches make none, and a measurement
    # reuses the residual of the Newton trial it follows), so call 22 is
    # the first measurement of the sweep, a polish from the rearranged point
    ("direct", "residual", 22, "during polishing", 22),
])
def test_nonfinite_residual_names_the_stage(monkeypatch, mode, part,
                                            bad_call, where, iteration):
    # the direct-mode gate passes on the modulated ball at res 30
    model = make_model("radial-ball-1d", dict(
        dimension=3, radius=12.0, resolution=2 if mode == "plain" else 30),
        name="modulated", positivity=mode == "direct")
    if part == "slope":
        poison_ray(monkeypatch, part, bad_call)
    else:
        poison_residual(monkeypatch, bad_call)
    cfg = SolveConfig(mode=mode,
                      max_iterations=10 if mode == "plain" else 20000)
    with pytest.raises(NumericalFailureError,
                       match=f"residual became non-finite {where} "
                             f"at iteration {iteration}") as err:
        run(model, None, cfg)
    state = err.value.last_state
    assert state["iteration"] == iteration
    assert state["u"].shape == (model.domain.n_nodes,)
    assert np.all(np.isfinite(state["u"]))


def test_nonfinite_energy_in_peak_search_names_the_stage(toy_model,
                                                        monkeypatch):
    # a two-sum peak is priced from the ray's sums: ray 1 finds the
    # starting peak, ray 2 belongs to iteration 1
    poison_ray(monkeypatch, "A", 2)
    with pytest.raises(NumericalFailureError,
                       match="energy became non-finite in the ray stage "
                             "at iteration 1") as err:
        run(toy_model, None, SolveConfig(mode="plain", max_iterations=10))
    assert np.all(np.isfinite(err.value.last_state["u"]))


def test_nonfinite_energy_in_per_cell_peak_search_names_the_stage(
        monkeypatch):
    # a per-cell peak search prices its level from the peak point's nodal
    # values; the 5th energy call is iteration 1's first peak
    model = make_model("radial-ball-1d",
                       dict(dimension=3, radius=12.0, resolution=2),
                       name="modulated")
    clean = functional.energy_of_values
    calls = []

    def poisoned(model, values):
        calls.append(1)
        f = clean(model, values)
        return np.nan * f if len(calls) >= 5 else f

    monkeypatch.setattr(functional, "energy_of_values", poisoned)
    with pytest.raises(NumericalFailureError,
                       match="energy became non-finite in the ray stage "
                             "at iteration 1") as err:
        run(model, None, SolveConfig(mode="plain", max_iterations=10))
    assert np.all(np.isfinite(err.value.last_state["u"]))


# ---------------------------------------------------------------------------
# iteration record


def test_record_rejects_nonfinite():
    rec = PSRecord()
    with pytest.raises(ParameterError):
        rec.append(0, math.nan, 1.0, 1.0, 0.0, 0.0, np.zeros(3))


def test_record_csv_roundtrip():
    rec = PSRecord()
    rec.append(0, 1.5, 2.5, 3.5, 0.25, 0.125, np.zeros(3))
    rec.append(1, 1.25, 2.0, 3.25, 0.2, 0.1, np.ones(3))
    text = grid.format_table(
        [PS_CSV_HEADER], rec.iteration,
        [rec.f, rec.grad_norm, rec.w1p_norm, rec.dist_vstar_V,
         rec.dist_vstar_W])
    lines = text.splitlines()
    assert lines[0] == PS_CSV_HEADER
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "1.5"
    assert lines[1] == "0,1.5,2.5,3.5,0.25,0.125"
    assert lines[2] == ("1,1.25,2,3.25,0.20000000000000001,"
                        "0.10000000000000001")
    assert text.endswith("\n")


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


def _recomputed_columns(rep, model):
    """The record's diagnostic columns recomputed row by row from the
    iterates it keeps."""
    rows = rep.record.tail_values()
    assert len(rows) == len(rep.record)
    dists = [solver._dist_to_rearranged(model.domain, v, model.p, model.q)
             for v in rows]
    return ([grid.w1p_norms(model.domain, v, model.p) for v in rows],
            [float(d[0]) for d in dists], [float(d[1]) for d in dists])


@pytest.mark.parametrize("mode", ["plain", "restricted"])
def test_stacked_record_columns_match_row_by_row(square_model, mode):
    sym = group.build_group(square_model.domain, "dihedral_4")
    rep = run(square_model, sym, SolveConfig(mode=mode))
    assert rep.converged
    rec = rep.record
    assert _recomputed_columns(rep, square_model) == (
        rec.w1p_norm, rec.dist_vstar_V, rec.dist_vstar_W)


def test_stacked_record_flushes_in_blocks(square_model, monkeypatch):
    # a block of three rows splits every stage into several flushes; the
    # logged columns stay bitwise those of one flush per stage
    cfg = SolveConfig(mode="plain")
    whole = run(square_model, None, cfg)
    stacks = []
    norms = grid.w1p_norms

    def counted(domain, values, p):
        stacks.append(values.shape[0])
        return norms(domain, values, p)

    monkeypatch.setattr(solver, "_SAMPLE_BLOCK_VALUES",
                        3 * square_model.domain.n_nodes)
    monkeypatch.setattr(grid, "w1p_norms", counted)
    blocked = run(square_model, None, cfg)
    assert blocked.stage_iterations["ray"] > 3 and max(stacks) == 3
    assert sum(stacks) == len(blocked.record) == len(whole.record)
    for col in ("iteration", "f", "grad_norm", "w1p_norm", "dist_vstar_V",
                "dist_vstar_W"):
        assert getattr(blocked.record, col) == getattr(whole.record, col)
    assert _recomputed_columns(blocked, square_model)[0] == \
        blocked.record.w1p_norm


def test_nonfinite_record_diagnostic_raises(square_model, monkeypatch):
    monkeypatch.setattr(grid, "w1p_norms",
                        lambda domain, values, p: np.full(len(values), np.nan))
    with pytest.raises(ParameterError, match="non-finite entry"):
        run(square_model, None, SolveConfig(mode="plain"))


# ---------------------------------------------------------------------------
# endpoint geometry


def test_endpoints_radial_geometry(toy_model):
    ep = init_endpoints(toy_model, None)
    assert ep.f_zero == 0.0
    assert ep.f_e < 0.0
    assert ep.rho0 > 0.0
    assert ep.sigma0 > 0.0
    assert ep.tau >= 1.0
    # far end must sit outside the sphere that carries the level bound
    assert grid.norm_w1p(ep.e, toy_model.p) > ep.rho0


def _energy_norm(domain, values, p):
    """N(v) = (sum_c w_c (|Dv|_c^p + |avg_c|^p))^(1/p), of each row."""
    avg, t, _ = grid.cell_values(domain, values)
    w = domain.cells.weights
    return np.sum(w * (t ** p + np.abs(avg) ** p), axis=-1) ** (1.0 / p)


@pytest.mark.parametrize("dom_name, label, p, q, positivity", [
    ("square_small", "dihedral_4", 1.8, 3.0, False),
    ("disk_small", "rotations_4", 1.8, 3.0, False),
    ("annulus_small", "dihedral_2", 1.8, 3.0, False),
    ("ball_small", "trivial", 2.0, 4.0, True),
])
@pytest.mark.parametrize("name", ["plaplace", "modulated"])
def test_energy_on_the_sphere_is_at_least_sigma0(request, dom_name, label,
                                                 p, q, positivity, name):
    # sigma0 is proven, not sampled: random directions and single-node
    # spikes, plain and as orbit means, scaled onto the sphere N = rho0
    dom = request.getfixturevalue(dom_name)
    model = functional.EnergyModel(
        domain=dom, integrand=integrand.builtin(name, p=p), q=q,
        positivity=positivity)
    ep = init_endpoints(model, None)
    assert ep.sigma0 > 0.0
    rng = np.random.default_rng(16)
    noise = rng.standard_normal((200, dom.n_nodes))
    spikes = np.eye(dom.n_nodes)[dom.interior]
    dirs = np.concatenate([noise, -noise, spikes, -spikes])
    dirs[:, dom.boundary] = 0.0
    sym = group.build_group(dom, label)
    dirs = np.concatenate([dirs, group.average_values(sym, dirs)])
    on_sphere = ep.rho0 / _energy_norm(dom, dirs, p)[:, None] * dirs
    assert np.allclose(_energy_norm(dom, on_sphere, p), ep.rho0, rtol=1e-12)
    assert np.min(functional.energy_of_values(model, on_sphere)) >= ep.sigma0
    # the far end lies past the sphere
    assert _energy_norm(dom, ep.e.values, p) > ep.rho0


def test_default_psi_is_admissible(ball_small):
    psi = default_psi(ball_small)
    assert np.all(psi.values >= 0.0)
    assert np.all(psi.values[ball_small.boundary] == 0.0)
    assert np.max(psi.values) > 0.0


@pytest.mark.parametrize("kind, dom_kw", [
    ("square", dict(side=6.0, resolution=9)),
    ("disk-polar", dict(radius=6.0, resolution=10, angular_resolution=16)),
    ("annulus-polar", dict(inner_radius=1.0, outer_radius=6.0,
                           resolution=10, angular_resolution=32)),
    ("radial-ball-1d", dict(dimension=3, radius=12.0, resolution=30)),
])
def test_default_psi_is_positive_inside_every_kind(kind, dom_kw):
    # init_endpoints scales this bump to the far end, so it is nonzero
    dom = grid.build_domain(kind, **dom_kw)
    psi = default_psi(dom).values
    assert np.all(psi[~dom.boundary] > 0.0)
    assert np.all(psi[dom.boundary] == 0.0)


def test_endpoints_refuse_a_bump_the_group_moves(square_model, monkeypatch):
    # a bump tilted along x is not invariant under dihedral_4, so the
    # restricted solve stops before its first stage
    bump = default_psi

    def tilted(domain):
        psi = bump(domain)
        return GridFunction(domain,
                            psi.values * (1.0 + 0.1 * domain.coords[:, 0]))

    monkeypatch.setattr(solver, "default_psi", tilted)
    sym = group.build_group(square_model.domain, "dihedral_4")
    with pytest.raises(SymmetryCompatibilityError,
                       match="^endpoint bump is not invariant under the "
                             "given group$"):
        run(square_model, sym, SolveConfig(mode="restricted"))
    # a plain solve projects nothing and accepts the same bump
    assert init_endpoints(square_model, None).f_e < 0.0


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
    ep = init_endpoints(toy_model, None)
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
# ray peak


@pytest.mark.parametrize("kind, dom_kw, p, q", [
    ("square", dict(side=6.0, resolution=9), 1.8, 3.0),
    ("radial-ball-1d", dict(dimension=3, radius=12.0, resolution=30),
     2.0, 4.0),
])
@pytest.mark.parametrize("scale", [0.02, 1.0, 40.0])
def test_ray_peak_matches_closed_form(kind, dom_kw, p, q, scale):
    # plaplace does not depend on u itself, so on this discretization
    # f(t v) = A t^p - B t^q exactly, with its single peak in closed form;
    # the peak search must land on it from starting points far inside and
    # far beyond it, with the sums formed here from the cell quantities
    model = make_model(kind, dom_kw, p=p, q=q)
    dom = model.domain
    rng = np.random.default_rng(5)
    v = default_psi(dom).values + 0.3 * rng.standard_normal(dom.n_nodes)
    v[dom.boundary] = 0.0
    avg, grad, _ = grid.cell_values(dom, v)
    a = float(np.sum(dom.cells.weights * (grad ** p + np.abs(avg) ** p))) / p
    b = float(np.sum(dom.cells.weights * np.abs(avg) ** q)) / q
    t_want = (p * a / (q * b)) ** (1.0 / (q - p))
    peak, f = _ray_peak(model, scale * t_want * v)
    t = grid.w1p_norms(dom, peak, p) / grid.w1p_norms(dom, v, p)
    assert t == pytest.approx(t_want, rel=1e-12)
    assert f == pytest.approx(a * t_want ** p - b * t_want ** q, rel=1e-12)
    ray_slope = float(np.sum(functional.residual_of_values(model, peak) * v))
    assert abs(ray_slope) <= 1e-13 * p * a * t_want ** (p - 1.0)


def strip_two_sums(monkeypatch):
    """Make ``functional.ray`` drop A and B, so every peak search runs the
    per-cell slope bracket and Illinois search."""
    clean = functional.ray

    def stripped(model, values):
        ray = clean(model, values)
        return functional.Ray(model, ray.avg, ray.grad)

    monkeypatch.setattr(functional, "ray", stripped)


@pytest.mark.parametrize("kind, dom_kw, p, q", [
    ("square", dict(side=6.0, resolution=9), 1.8, 3.0),
    ("radial-ball-1d", dict(dimension=3, radius=12.0, resolution=30),
     2.0, 4.0),
    ("disk-polar", dict(radius=6.0, resolution=10, angular_resolution=16),
     1.8, 3.0),
])
@pytest.mark.parametrize("positivity", [False, True])
@pytest.mark.parametrize("scale", [0.02, 1.0, 40.0])
def test_two_sum_peak_matches_the_per_cell_search(monkeypatch, kind, dom_kw,
                                                  p, q, positivity, scale):
    # the closed-form peak of a two-sum ray against the slope bracket and
    # Illinois search on the same ray without its sums, from starting
    # points far inside, near and far beyond the peak
    model = make_model(kind, dom_kw, p=p, q=q, positivity=positivity)
    dom = model.domain
    rng = np.random.default_rng(5)
    v = default_psi(dom).values + 0.3 * rng.standard_normal(dom.n_nodes)
    v[dom.boundary] = 0.0
    ray = functional.ray(model, v)
    u = scale * (p * ray.A / (q * ray.B)) ** (1.0 / (q - p)) * v
    peak, f = _ray_peak(model, u)
    strip_two_sums(monkeypatch)
    want, f_want = _ray_peak(model, u)
    np.testing.assert_array_max_ulp(peak, want, maxulp=4)
    assert abs(f - f_want) <= 1e-14 * abs(f_want)


@pytest.mark.parametrize("a, b, peak", [
    (1.0, 0.0, None),               # no q term: f rises along the ray
    (0.0, 1.0, None),               # no t^p term: f falls from 0
    (-1.0, 1.0, None),
    (np.nan, 1.0, "energy"),
    (np.inf, 1.0, "energy"),
    (1.0, np.nan, "energy"),
    (1e300, 1e-300, "energy"),      # t* overflows
])
def test_two_sum_peak_without_a_peak_or_with_nonfinite_sums(monkeypatch, a,
                                                             b, peak):
    model = make_model("square", dict(side=6.0, resolution=9), p=1.8, q=3.0)
    clean = functional.ray
    monkeypatch.setattr(functional, "ray", lambda m, values: replace(
        clean(m, values), A=a, B=b))
    v = default_psi(model.domain).values
    if peak is None:
        assert _ray_peak(model, v) is None
    else:
        with pytest.raises(FloatingPointError, match=peak):
            _ray_peak(model, v)


def test_ray_peak_reads_the_ray_once(monkeypatch):
    # a two-sum peak is priced from one product with the cell map and its
    # level from the two sums; a per-cell search prices its bracket and
    # Illinois slopes from that product and only the peak point's energy
    # takes a second one
    products, energies = [], []
    cell_values = grid.cell_values
    energy_of_values = functional.energy_of_values

    def counted(domain, values):
        products.append(1)
        return cell_values(domain, values)

    def counted_energy(model, values):
        energies.append(1)
        return energy_of_values(model, values)

    def residual(model, values):
        raise AssertionError("the peak search called the residual")

    monkeypatch.setattr(grid, "cell_values", counted)
    monkeypatch.setattr(functional, "cell_values", counted)
    monkeypatch.setattr(functional, "energy_of_values", counted_energy)
    monkeypatch.setattr(functional, "residual_of_values", residual)
    for name in ("plaplace", "modulated"):
        model = make_model("square", dict(side=6.0, resolution=9),
                           name=name, p=1.8, q=3.0)
        products.clear()
        energies.clear()
        peak, f = _ray_peak(model, default_psi(model.domain).values)
        if name == "plaplace":
            assert len(products) == 1 and not energies
        else:
            assert len(products) == 2 and len(energies) == 1
            assert f == energy_of_values(model, peak)


@pytest.mark.parametrize("name, least_slopes", [("plaplace", 0),
                                                ("modulated", 2)])
def test_ray_peak_counts_its_slopes(monkeypatch, name, least_slopes):
    # a two-sum ray takes its peak in closed form with no slope; a
    # per-cell ray brackets its slope's sign change, two samples at least,
    # and the Illinois search prices its roots from the same slope
    model = make_model("square", dict(side=6.0, resolution=63), name=name,
                       p=1.8, q=3.0)
    slopes = []
    slope = functional.Ray.slope

    def counted_slope(self, t):
        slopes.append(t)
        return slope(self, t)

    monkeypatch.setattr(functional.Ray, "slope", counted_slope)
    assert _ray_peak(model, default_psi(model.domain).values) is not None
    assert len(slopes) >= least_slopes
    if not least_slopes:
        assert not slopes


@pytest.mark.parametrize("kind, dom_kw", [
    ("square", dict(side=6.0, resolution=7)),
    ("disk-polar", dict(radius=6.0, resolution=5, angular_resolution=16)),
    ("annulus-polar", dict(inner_radius=1.0, outer_radius=3.0, resolution=4,
                           angular_resolution=8)),
    ("radial-ball-1d", dict(dimension=3, radius=12.0, resolution=30)),
])
@pytest.mark.parametrize("positivity", [False, True])
def test_per_cell_peak_is_the_first_drop_of_a_dense_scan(kind, dom_kw,
                                                         positivity):
    # the slope bracket and Illinois search from starting points t v far
    # inside and far beyond the peak, against 6,000 energy samples of the
    # ray on (0, 2.2 t*]: t* lies within 1.5 steps of the samples' first
    # drop, and no sample lies above its level beyond roundoff
    model = make_model(kind, dom_kw, name="modulated", p=1.8, q=3.0,
                       positivity=positivity)
    dom = model.domain
    rng = np.random.default_rng(11)
    for _ in range(8):
        v = default_psi(dom).values + 0.5 * rng.standard_normal(dom.n_nodes)
        v[dom.boundary] = 0.0
        scan = None
        for scale in (1.0, 1e-2, 1e-1, 1e1, 1e2):
            peak, f = _ray_peak(model, scale * v)
            t = grid.w1p_norms(dom, peak, 1.8) / grid.w1p_norms(dom, v, 1.8)
            if scan is None:
                step = 2.2 * t / 6000
                ts = step * np.arange(1, 6001)
                scan = np.concatenate([[0.0], functional.energy_of_values(
                    model, ts[:, None] * v)])
                first_drop = np.flatnonzero(scan[1:] <= scan[:-1])[0]
            assert abs(t - first_drop * step) <= 1.5 * step
            assert f >= scan.max() - 1e-14 * abs(scan.max())


@pytest.mark.parametrize("name", ["plaplace", "modulated"])
def test_ray_without_a_peak_returns_none(name):
    # under positivity a nonpositive direction has no q term (B = 0), so
    # the energy rises along the whole ray: the homogeneous plaplace ray
    # has no closed-form peak, and the per-cell search of modulated gives
    # up after its range doublings instead of raising
    model = make_model("square", dict(side=6.0, resolution=9), name=name,
                       p=1.8, q=3.0, positivity=True)
    v = -default_psi(model.domain).values
    assert (functional.ray(model, v).A is not None) == (name == "plaplace")
    assert _ray_peak(model, v) is None


def as_array(matrix):
    """A ``CellForm.matrix`` as an ndarray: it is one up to
    ``grid.DENSE_MAX_UNKNOWNS`` unknowns and a CSC matrix above."""
    n = matrix.shape[0]
    assert isinstance(matrix, np.ndarray) == (n <= grid.DENSE_MAX_UNKNOWNS)
    return matrix if isinstance(matrix, np.ndarray) else matrix.toarray()


@pytest.mark.parametrize("kind, dom_kw, label", [
    ("square", dict(side=6.0, resolution=9), None),
    ("disk-polar", dict(radius=6.0, resolution=10, angular_resolution=16),
     None),
    ("annulus-polar", dict(inner_radius=1.0, outer_radius=3.0, resolution=4,
                           angular_resolution=8), None),
    ("radial-ball-1d", dict(dimension=3, radius=12.0, resolution=30), None),
    ("square", dict(side=6.0, resolution=9), "dihedral_4"),
    # six orbits on the first ring, which the center couples densely
    ("disk-polar", dict(radius=6.0, resolution=4, angular_resolution=48),
     "rotations_8"),
    ("disk-polar", dict(radius=6.0, resolution=10, angular_resolution=16),
     "dihedral_8"),
    # one orbit on the first ring: the core cells read one node
    ("disk-polar", dict(radius=6.0, resolution=20, angular_resolution=32),
     "rotations_32"),
    # the chains at the dense cap and one node above it
    ("radial-ball-1d", dict(dimension=3, radius=12.0, resolution=128), None),
    ("radial-ball-1d", dict(dimension=3, radius=12.0, resolution=129), None),
])
def test_cell_form_matches_sparse_congruence(kind, dom_kw, label):
    model = make_model(kind, dom_kw, p=1.8, q=3.0)
    if label is not None:
        sym = group.build_group(model.domain, label)
        model = replace(model, domain=group.quotient(sym))
    dom = model.domain
    cs, inner = dom.cells, dom.interior
    op = grid_oracle.folded(cs)[:, inner]
    k = op.shape[0] // cs.count
    form = grid.cell_form(dom)
    rng = np.random.default_rng(3)
    blocks = rng.standard_normal((k, k, cs.count))
    blocks += blocks.transpose(1, 0, 2)
    mass = rng.standard_normal(op.shape[1])
    # B as one sparse matrix over the rows of the cell map
    rows = np.arange(k)[:, None, None] * cs.count + np.arange(cs.count)
    cols = np.swapaxes(rows, 0, 1)
    b = sparse.csr_matrix(
        (blocks.ravel(), (np.broadcast_to(rows, blocks.shape).ravel(),
                          np.broadcast_to(cols, blocks.shape).ravel())),
        shape=(op.shape[0],) * 2)
    want = (op.T @ (b @ op) + sparse.diags(mass)).toarray()
    got = as_array(form.matrix(blocks, mass))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # the Picard metric G^T diag(c) G + M from its diag(0, c, ..., c)
    # blocks; rounded values leave flat cells, where j_t/t is clamped
    g = op[cs.count:]
    v = rng.standard_normal(dom.n_nodes)
    for values in (v, np.round(0.5 * v)):
        values[dom.boundary] = 0.0
        blocks = _metric_coefficients(model, values)
        want = (g.T @ sparse.diags(np.tile(blocks[1, 1], k - 1)) @ g
                + sparse.diags(dom.weights[inner])).toarray()
        got = as_array(form.matrix(blocks, dom.weights[inner]))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.any(grid.cell_values(dom, values)[1] == 0.0)


@pytest.mark.parametrize("resolution", [8, 9])
def test_metric_clamp_median_is_numpys(resolution):
    # the metric's clamp takes the median without np.median (which imports
    # numpy.ma); it equals np.median bitwise at an odd (81) and an even
    # (100) cell count
    model = make_model("square", dict(side=6.0, resolution=resolution),
                       p=1.8, q=3.0)
    dom = model.domain
    values = np.random.default_rng(3).standard_normal(dom.n_nodes)
    avg, t, _ = grid.cell_values(dom, values)
    t_eff = np.maximum(t, 1e-8 * (1.0 + t.max()))
    a = model.integrand.j_t(avg, t_eff) / t_eff
    med = np.median(a[a > 0])
    want = dom.cells.weights * np.clip(a, 1e-6 * med, 1e6 * med)
    assert np.array_equal(_metric_coefficients(model, values)[1, 1], want)


@pytest.mark.parametrize("kind, dom_kw, label", [
    ("radial-ball-1d", dict(dimension=3, radius=12.0, resolution=60), None),
    ("square", dict(side=6.0, resolution=23), "dihedral_4"),
    # the center couples the first ring densely
    ("disk-polar", dict(radius=6.0, resolution=4, angular_resolution=16),
     None),
])
def test_dense_and_sparse_forms_agree(monkeypatch, kind, dom_kw, label):
    # with the cap moved to force each branch, the dense matrix is the CSC
    # matrix's toarray() bitwise, and gesv and SuperLU solve the Hessian
    # and the Picard metric at default_psi alike
    model = make_model(kind, dom_kw, p=1.8, q=3.0)
    u = default_psi(model.domain).values
    if label is not None:
        sym = group.build_group(model.domain, label)
        model = replace(model, domain=group.quotient(sym))
        u = u[group.fix_basis(sym).reps]
    dom = model.domain
    inner = dom.interior
    form = grid.cell_form(dom)
    assert (form.span.size > 0) == (kind == "disk-polar")
    n = int(np.count_nonzero(inner))
    rhs = np.random.default_rng(5).standard_normal(n)
    metric = _metric_coefficients(model, u)
    for build in (lambda: functional.hessian_of_values(model, u),
                  lambda: form.matrix(metric, dom.weights[inner])):
        monkeypatch.setattr(grid, "DENSE_MAX_UNKNOWNS", n)
        dense = build()
        monkeypatch.setattr(grid, "DENSE_MAX_UNKNOWNS", n - 1)
        csc = build()
        assert isinstance(dense, np.ndarray)
        assert not isinstance(csc, np.ndarray)
        assert np.array_equal(dense, csc.toarray())
        want = solver._factorize(csc).solve(rhs)
        got = solver._factorize(dense).solve(rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("kind, dom_kw, label, dense", [
    ("square", dict(side=6.0, resolution=9), "dihedral_4", True),
    ("disk-polar", dict(radius=6.0, resolution=32, angular_resolution=64),
     None, False),
])
def test_solve_counts_its_factorizations(monkeypatch, kind, dom_kw, label,
                                         dense):
    # the desk square's quotient (15 unknowns) is factored densely and
    # plain disk 32x64 (2,048) by SuperLU; the report counts both alike
    model = make_model(kind, dom_kw, p=1.8, q=3.0)
    factorize = solver._factorize
    kinds = []

    def counted(matrix):
        kinds.append(isinstance(matrix, np.ndarray))
        return factorize(matrix)

    monkeypatch.setattr(solver, "_factorize", counted)
    sym = None if label is None else group.build_group(model.domain, label)
    rep = run(model, sym, SolveConfig(mode="plain" if sym is None
                                      else "restricted", seed=0))
    assert rep.converged
    assert rep.counts["factorizations"] == len(kinds) > 0
    assert set(kinds) == {dense}


# ---------------------------------------------------------------------------
# solve runs


@pytest.mark.parametrize("res", [30, 40, 60, 120])
def test_radial_ball_reaches_the_pass_at_every_seed(res):
    # every ray from 0 crosses the sphere on which f > 0 is certified, so
    # no seed may collapse to u = 0 or stall; all seeds find one level
    model = make_model("radial-ball-1d",
                       dict(dimension=3, radius=12.0, resolution=res),
                       positivity=True)
    sym = group.build_group(model.domain, "trivial")
    levels = []
    for seed in range(4):
        rep = run(model, sym, SolveConfig(mode="restricted", path_points=12,
                                          max_iterations=20000,
                                          grad_tol=1e-8, seed=seed))
        assert rep.converged, seed
        assert rep.level > 1e-10 * (1.0 + abs(rep.endpoints.f_e))
        levels.append(rep.level)
    assert max(levels) - min(levels) <= 1e-9 * max(levels)


@pytest.mark.parametrize("kind, dom_kw, label, seed, iterations, peaks", [
    pytest.param("square", dict(side=6.0, resolution=23), "dihedral_4", 0,
                 16, 14, id="square_res23"),
    pytest.param("disk-polar", dict(radius=6.0, resolution=20,
                                    angular_resolution=32),
                 "rotations_8", 0, 16, 13, id="disk_res20"),
    pytest.param("radial-ball-1d", dict(dimension=3, radius=12.0,
                                        resolution=120),
                 "trivial", 0, 18, 15, id="ball_res120"),
    pytest.param("radial-ball-1d", dict(dimension=3, radius=12.0,
                                        resolution=60),
                 "trivial", 0, 32, 29, id="ball_res60_a"),
    pytest.param("radial-ball-1d", dict(dimension=3, radius=12.0,
                                        resolution=60),
                 "trivial", 1, 30, 27, id="ball_res60_b"),
])
def test_refine_solves_keep_their_iteration_counts(kind, dom_kw, label, seed,
                                                   iterations, peaks):
    # the restricted plaplace solves past desk scale: a change that moves
    # an iterate beyond roundoff (a peak, a metric, an accepted step)
    # moves these counts, which the plateau endgame amplifies
    p, q, positivity = ((2.0, 4.0, True) if kind == "radial-ball-1d"
                        else (1.8, 3.0, False))
    model = make_model(kind, dom_kw, p=p, q=q, positivity=positivity)
    rep = run(model, group.build_group(model.domain, label),
              SolveConfig(mode="restricted", path_points=12,
                          max_iterations=20000, grad_tol=1e-8, seed=seed))
    assert rep.converged
    assert rep.iterations == iterations
    assert rep.counts["peak_searches"] == peaks


def test_full_rotation_group_of_the_disk_reaches_the_rotations_8_level():
    # an invariant function of rotations_32 on disk 20x32 is constant on
    # every ring, and its quotient reads the roundoff |Du| of the core
    # cells as 0; the restricted solve then finds the rotations_8 pass,
    # which is radial too
    model = make_model("disk-polar", dict(radius=6.0, resolution=20,
                                          angular_resolution=32),
                       p=1.8, q=3.0)
    levels = {}
    for label in ("rotations_8", "rotations_32"):
        rep = run(model, group.build_group(model.domain, label),
                  SolveConfig(mode="restricted", path_points=12,
                              max_iterations=20000, grad_tol=1e-8, seed=0))
        assert rep.converged, label
        levels[label] = rep.level
    assert abs(levels["rotations_32"] - levels["rotations_8"]) \
        <= 1e-12 * levels["rotations_8"]


def test_disk_of_twelve_turns_reaches_the_desk_disk_level():
    # 12 nodes per ring is no multiple of 8, yet rotations_4 divides it;
    # the restricted point is constant on every ring, so its level is the
    # desk disk 10x16's
    model = make_model("disk-polar", dict(radius=6.0, resolution=10,
                                          angular_resolution=12),
                       p=1.8, q=3.0)
    rep = run(model, group.build_group(model.domain, "rotations_4"),
              SolveConfig(mode="restricted", seed=0))
    assert rep.converged
    assert abs(rep.level - 10.154723725994499) <= 1e-12 * rep.level


def test_direct_modulated_disk_finishes_in_newton_steps():
    # the direct solve of the modulated disk 32x64: once a rejected Newton
    # trial backs off only by half, Newton finishes the ray stage before
    # the plateau drift does
    model = make_model("disk-polar", dict(radius=6.0, resolution=32,
                                          angular_resolution=64),
                       name="modulated", p=1.8, q=3.0)
    rep = run(model, group.build_group(model.domain, "rotations_8"),
              SolveConfig(mode="direct", path_points=12,
                          max_iterations=20000, grad_tol=1e-8, seed=0))
    assert rep.converged and rep.mode == "direct"
    assert rep.iterations == 12
    assert abs(rep.level - 15.230145601121944) <= 1e-9 * rep.level


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
    assert rep.endpoints.f_e < 0.0
    assert rep.config_hash == config_digest(cfg)


@pytest.mark.parametrize("kind, dom_kw, p, q, positivity", [
    ("radial-ball-1d", dict(dimension=3, radius=12.0, resolution=30),
     2.0, 4.0, True),
    # the square's plain polish proposes dihedral snaps
    ("square", dict(side=6.0, resolution=9), 1.8, 3.0, False),
])
def test_restricted_trivial_group_reproduces_plain_bitwise(kind, dom_kw, p,
                                                           q, positivity):
    # the trivial group's quotient is the domain itself, so restricted
    # mode runs the plain solve's arithmetic
    model = make_model(kind, dom_kw, p=p, q=q, positivity=positivity)
    sym = group.build_group(model.domain, "trivial")
    cfg = SolveConfig(mode="plain", path_points=12, max_iterations=20000,
                      grad_tol=1e-8, seed=0)
    plain = run(model, sym, cfg)
    restricted = run(model, sym, replace(cfg, mode="restricted"))
    assert plain.converged and restricted.mode == "restricted"
    assert restricted.level == plain.level
    assert np.array_equal(restricted.u.values, plain.u.values)
    assert restricted.stage_iterations == plain.stage_iterations
    for name in ("iteration", "f", "grad_norm", "w1p_norm", "dist_vstar_V",
                 "dist_vstar_W"):
        assert getattr(restricted.record, name) \
            == getattr(plain.record, name), name


def test_restricted_stages_never_project(monkeypatch):
    # the stages solve in orbit coordinates and the endpoint samples and
    # the initial path are orbit means: the only average over the solve's
    # own group checks the endpoint bump, whatever the iteration count
    model = make_model("disk-polar", dict(radius=6.0, resolution=10,
                                          angular_resolution=16),
                       p=1.8, q=3.0)
    sym = group.build_group(model.domain, "rotations_8")
    average = group.average_values
    calls = []

    def counted(g, values):
        calls.append(g is sym)
        return average(g, values)

    monkeypatch.setattr(group, "average_values", counted)
    counts = []
    for budget in (1, 20000):
        calls.clear()
        rep = run(model, sym, SolveConfig(mode="restricted", seed=0,
                                          max_iterations=budget))
        counts.append(sum(calls))
    assert rep.converged and rep.stage_iterations["polish"] > 0
    assert counts == [1, 1]
    # u is B x for the orbit values x, so it is exactly invariant
    elements = grid_oracle.elements(sym)
    assert np.array_equal(rep.u.values[elements], np.broadcast_to(
        rep.u.values, elements.shape))


@pytest.mark.parametrize("kind, dom_kw, label", [
    ("square", dict(side=6.0, resolution=9), "dihedral_4"),
    ("square", dict(side=6.0, resolution=9), "rotations_4"),
    ("square", dict(side=6.0, resolution=9), "dihedral_1"),
    ("disk-polar", dict(radius=6.0, resolution=10, angular_resolution=16),
     "rotations_8"),
    ("disk-polar", dict(radius=6.0, resolution=10, angular_resolution=16),
     "dihedral_8"),
    ("annulus-polar", dict(inner_radius=1.0, outer_radius=3.0, resolution=4,
                           angular_resolution=8), "dihedral_2"),
])
def test_quotient_metric_solve_matches_full(kind, dom_kw, label):
    # for an invariant covector c the full Picard-metric solve of c is
    # invariant and equals B times the quotient solve of B^T c
    model = make_model(kind, dom_kw, p=1.8, q=3.0)
    sym = group.build_group(model.domain, label)
    basis = group.fix_basis(sym)
    qmodel = replace(model, domain=group.quotient(sym))
    rng = np.random.default_rng(11)
    x = rng.standard_normal(qmodel.domain.n_nodes)
    y = rng.standard_normal(qmodel.domain.n_nodes)
    x[qmodel.domain.boundary] = y[qmodel.domain.boundary] = 0.0
    c = y[basis.orbit]
    want = _polish_metric(model, x[basis.orbit])(c)
    got = _polish_metric(qmodel, x)(basis.sizes * y)[basis.orbit]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
    diag = ps_diagnostics(rep.record, model, sweep_start=rep.sweep_start)
    assert diag.passed
    assert diag.dist_v_final <= 1e-9
    assert diag.dist_v_monotone is True
    assert diag.cauchy_tail <= 1e-6


def test_direct_mode_sweeps_straight_from_a_converged_ray():
    # a ray stage that met the tolerance hands its point to the sweep; no
    # polish iteration re-measures it as a second record row
    model = make_model("radial-ball-1d",
                       dict(dimension=3, radius=12.0, resolution=30),
                       name="modulated", positivity=True)
    rep = run(model, None, SolveConfig(mode="direct", max_iterations=20000))
    assert rep.converged
    assert rep.ray_exit["status"] == "converged"
    assert rep.stage_iterations["polish"] == 0
    assert rep.sweep_start == rep.stage_iterations["ray"]
    # the rearranged point already meets the tolerance, so the sweep
    # measures it once and stops
    assert rep.stage_iterations["sweep"] == 1
    assert len(rep.record) == rep.sweep_start + 1
    assert rep.record.grad_norm[-1] <= 1e-8


@pytest.mark.parametrize("seed", [0, 1])
def test_direct_mode_sweeps_the_disk_to_the_restricted_level(seed):
    # the sweep is the ray stage with every trial projected onto the cone;
    # the disk's cone holds the rotation-invariant pass, so the sweep
    # reaches the restricted level of desk disk_modulated
    model = make_model("disk-polar", dict(radius=6.0, resolution=10,
                                          angular_resolution=16),
                       name="modulated", p=1.8, q=3.0)
    rep = run(model, None, SolveConfig(mode="direct", max_iterations=2000,
                                       seed=seed))
    assert rep.mode == "direct" and rep.converged
    assert abs(rep.level - 15.5398239474) <= 1e-9
    dist = np.array(rep.record.dist_vstar_V)
    assert rep.sweep_start is not None
    assert np.all(dist[rep.sweep_start:] == 0.0)
    # the sweep ends the first time it meets the tolerance
    swept = np.array(rep.record.grad_norm[rep.sweep_start:])
    assert swept[-1] <= 1e-8
    assert np.all(swept[:-1] > 1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_plain_square_stall_is_finished_by_a_snap(square_model, seed):
    # the plain ray stage stalls near the dihedral pass; one average over
    # the square's dihedral group and a second ray stage finish it
    sym = group.build_group(square_model.domain, "dihedral_4")
    cmp = compare_levels(square_model, sym, SolveConfig(
        mode="plain", max_iterations=20000, seed=seed))
    assert not cmp.declined
    assert abs(cmp.c_plain - cmp.c_restricted) <= 1e-9
    assert cmp.stage_iterations["plain"]["polish"] < 60


@pytest.mark.parametrize("dom_kw", [
    dict(radius=6.0, resolution=10, angular_resolution=16),
    dict(radius=6.0, resolution=20, angular_resolution=32),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_restricted_half_dihedral_disk_is_finished_by_the_rotation_snap(
        dom_kw, seed):
    # dihedral_{n_theta/2} has two orbits per ring, the full rotation group
    # one: its snap finishes the stall at the rotations_8 level (the
    # dihedral group has the rotation group's order, and a snap offered
    # only for a larger order left these solves unconverged)
    model = make_model("disk-polar", dom_kw, p=1.8, q=3.0)
    half = "dihedral_%d" % (dom_kw["angular_resolution"] // 2)
    levels = []
    for label in ("rotations_8", half):
        sym = group.build_group(model.domain, label)
        rep = run(model, sym, SolveConfig(mode="restricted", seed=seed,
                                          max_iterations=20000))
        assert rep.converged, label
        levels.append(rep.level)
    assert abs(levels[1] - levels[0]) <= 1e-12 * levels[0]


def test_snap_groups_offer_only_coarser_orbits():
    # the full group is offered when it has fewer node orbits than the
    # solve's group, or than the nodes with no group
    disk = grid.build_domain("disk-polar", radius=6.0, resolution=10,
                             angular_resolution=16)
    square = grid.build_domain("square", side=6.0, resolution=9)
    table = [(disk, None, ["dihedral_16"]),
             (disk, "rotations_8", ["dihedral_16"]),
             (disk, "dihedral_8", ["dihedral_16"]),
             (disk, "rotations_16", []),
             (disk, "dihedral_16", []),
             (square, None, ["dihedral_4"]),
             (square, "dihedral_4", []),
             (square, "rotations_4", ["dihedral_4"]),
             (square, "dihedral_1", ["dihedral_4"])]
    for dom, label, want in table:
        sym = None if label is None else group.build_group(dom, label)
        got = [g.label for g in solver._snap_groups(dom, sym)]
        assert got == want, (dom.kind, label)
    # on the polar grid the full dihedral group's orbits are the rings,
    # those of the full rotation group, so its average is theirs
    offered = group.fix_basis(solver._snap_groups(disk, None)[0])
    rings = group.fix_basis(group.build_group(disk, "rotations_16"))
    for name in ("orbit", "reps", "sizes"):
        assert np.array_equal(getattr(offered, name), getattr(rings, name))


@pytest.mark.parametrize("mode, name, seed, level", [
    ("plain", "plaplace", 0, 9.7193017086),
    ("plain", "plaplace", 1, 9.7193017086),
    ("direct", "modulated", 0, 15.2301456011),
    ("direct", "modulated", 3, 15.2301456011),
])
def test_stall_without_snap_resumes_on_progress(mode, name, seed, level):
    # on disk 32x64 the first ray stage stalls off-centre, where no
    # rotation average has a smaller residual; while the stage still
    # lowers the energy it reruns from its last point and reaches the
    # rotation-invariant pass (the restricted level)
    model = make_model("disk-polar", dict(radius=6.0, resolution=32,
                                          angular_resolution=64),
                       name=name, p=1.8, q=3.0)
    rep = run(model, None, SolveConfig(mode=mode, max_iterations=20000,
                                       seed=seed))
    assert rep.mode == mode and rep.converged
    assert rep.ray_exit["status"] == "stalled"
    assert abs(rep.level - level) <= 1e-9 * level


def test_no_newton_trial_without_second_partials(square_model, monkeypatch):
    # without j_ss, j_st and j_tt the ray stage never assembles a Hessian
    # and runs exactly as the first-order stage: 48 iterations on the
    # restricted square at seed 0
    def no_hessian(*args):
        raise AssertionError("Newton trial without second partials")

    monkeypatch.setattr(functional, "hessian_of_values", no_hessian)
    bare = replace(square_model.integrand, j_ss=None, j_st=None, j_tt=None)
    model = replace(square_model, integrand=bare)
    sym = group.build_group(model.domain, "dihedral_4")
    rep = run(model, sym, SolveConfig(mode="restricted",
                                      max_iterations=20000))
    assert rep.converged
    assert rep.iterations == rep.stage_iterations["ray"] == 48
    assert abs(rep.level - 10.75203566060433) <= 1e-9


def test_newton_finishes_the_ray_stage(square_model, monkeypatch):
    # with the second partials the same solve ends in Newton steps: far
    # fewer iterations, the same level
    calls = []
    original = functional.hessian_of_values

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(functional, "hessian_of_values", counted)
    sym = group.build_group(square_model.domain, "dihedral_4")
    rep = run(square_model, sym, SolveConfig(mode="restricted",
                                             max_iterations=20000))
    assert rep.converged and calls
    assert rep.iterations < 48
    assert abs(rep.level - 10.75203566060433) <= 1e-9


def test_restricted_square_converges_when_no_system_can_be_factored(
        square_model, monkeypatch):
    # every metric build and Newton trial fails, so the ray stage steps
    # along the weight-preconditioned gradient alone: 120 iterations in
    # place of 18, and the failed attempts are still counted
    attempts = []

    def singular(matrix):
        attempts.append(1)
        raise RuntimeError("singular factor")

    monkeypatch.setattr(solver, "_factorize", singular)
    sym = group.build_group(square_model.domain, "dihedral_4")
    rep = run(square_model, sym, SolveConfig(mode="restricted",
                                             max_iterations=20000))
    assert rep.converged and rep.iterations == 120
    assert abs(rep.level - 10.75203566060433) <= 1e-12 * rep.level
    assert rep.counts["factorizations"] == len(attempts) == 39


class _NanFactors:
    def solve(self, rhs):
        return np.full_like(rhs, np.nan)


@pytest.mark.parametrize("failure", ["raises", "nan"])
def test_newton_point_is_none_when_the_hessian_solve_fails(
        square_model, monkeypatch, failure):
    def factorize(matrix):
        if failure == "raises":
            raise np.linalg.LinAlgError("singular matrix")
        return _NanFactors()

    monkeypatch.setattr(solver, "_factorize", factorize)
    values = default_psi(square_model.domain).values
    covector = functional.residual_of_values(square_model, values)
    assert solver._newton_point(square_model, values, covector) is None


def test_ray_stage_stalls_when_no_step_lowers_the_peak(square_model,
                                                       monkeypatch):
    # every trial peak lies above the starting level, so the first
    # iteration halves its step _MAX_BACKTRACKS times and stalls; the
    # residual is far above the Newton gate, so no Newton trial is made
    start = default_psi(square_model.domain).values
    level = _ray_peak(square_model, start)[1]
    peaks = []

    def above(model, u):
        peaks.append(1)
        w, f = _ray_peak(model, u)
        return (w, f) if len(peaks) == 1 else (w, level + 1.0)

    monkeypatch.setattr(solver, "_ray_peak", above)
    st = solver._Solve(square_model, SolveConfig(mode="plain"), None,
                       square_model.domain, trivial_level=0.0)
    status, _, progress = solver._ray_stage(st, start)
    assert status == "stalled" and st.it == 1 and progress == 0.0
    assert st.counts["peak_searches"] == len(peaks) \
        == 1 + solver._MAX_BACKTRACKS
    assert st.counts["newton_trials"] == 0


def test_nonpositive_start_has_no_peak_under_positivity(square_model):
    # with (u+)^q in place of |u|^q the energy grows along the ray of a
    # nonpositive function, so the stage fails by name before iterating
    model = replace(square_model, positivity=True)
    st = solver._Solve(model, SolveConfig(mode="plain"), None,
                       model.domain, trivial_level=0.0)
    with pytest.raises(NumericalFailureError) as err:
        solver._ray_stage(st, -default_psi(model.domain).values)
    assert str(err.value) == ("no energy peak along the starting ray in "
                              "the ray stage at iteration 0")


def test_newton_point_ends_the_stage_when_its_retrial_is_rejected(
        monkeypatch):
    # refine's disk_res20 at seed 0: a Newton point is not the peak of its
    # own ray, so after its next Newton trial is rejected the stage stalls
    # at once and the rotation snap finishes the solve (halving the ray
    # step 60 times there first would make 73 peak searches)
    peaks = []
    original = solver._ray_peak

    def counted(*args):
        peaks.append(1)
        return original(*args)

    monkeypatch.setattr(solver, "_ray_peak", counted)
    model = make_model("disk-polar", dict(radius=6.0, resolution=20,
                                          angular_resolution=32),
                       p=1.8, q=3.0)
    sym = group.build_group(model.domain, "rotations_8")
    rep = run(model, sym, SolveConfig(mode="restricted",
                                      max_iterations=20000))
    assert rep.converged and rep.ray_exit["status"] == "stalled"
    assert rep.iterations == 16
    assert abs(rep.level - 9.765707780737076) <= 1e-15 * rep.level
    assert rep.counts["peak_searches"] == len(peaks) <= 20
    assert rep.counts["newton_trials"] > 0


@pytest.mark.parametrize("seed", range(4))
def test_plain_disk_stall_is_finished_after_a_rejected_newton_retrial(seed):
    # plain disk 32x64: the stage that reaches a Newton point stalls at its
    # rejected retrial and the rotation snap or a resumed stage finishes
    # the solve at the restricted level (35-125 iterations when ray steps
    # are tried from the Newton point)
    model = make_model("disk-polar", dict(radius=6.0, resolution=32,
                                          angular_resolution=64),
                       p=1.8, q=3.0)
    rep = run(model, None, SolveConfig(mode="plain", max_iterations=20000,
                                       seed=seed))
    assert rep.converged
    assert rep.iterations <= 20
    assert abs(rep.level - 9.7193017086) <= 1e-9 * rep.level


@pytest.mark.parametrize("seed", [0, 1])
def test_plain_annulus_stall_resumes_the_stage(monkeypatch, seed):
    # plain annulus (1, 6) 6x16: no snap lowers the residual where the ray
    # stage stalls, but the stage still lowered the peak, so it reruns from
    # its last point and converges (354 and 161 iterations)
    model = make_model("annulus-polar",
                       dict(inner_radius=1.0, outer_radius=6.0, resolution=6,
                            angular_resolution=16), p=1.8, q=3.0)
    cfg = SolveConfig(mode="plain", max_iterations=20000, seed=seed)
    rep = run(model, None, cfg)
    assert rep.converged
    assert abs(rep.level - 12.1778308158) <= 1e-9 * rep.level
    # without the rerun the solve stops unconverged (at 47 and 59)
    monkeypatch.setattr(solver, "_RESUME_PROGRESS", math.inf)
    assert not run(model, None, cfg).converged


@pytest.mark.parametrize("retrial", ["rejected", "failed"])
def test_rejected_newton_retrial_stalls_without_a_peak_search(monkeypatch,
                                                              retrial):
    # from a Newton point the ray stage returns "stalled" as soon as the
    # next Newton trial is rejected or fails, before any ray step
    model = make_model("radial-ball-1d",
                       dict(dimension=3, radius=12.0, resolution=30),
                       positivity=True)
    start = run(model, None, SolveConfig(mode="plain", grad_tol=1e-4)).u
    trials = []
    peaks_after = []
    newton_point, ray_peak = solver._newton_point, solver._ray_peak

    def second_rejected(model, values, covector):
        trials.append(1)
        if len(trials) == 1:
            return newton_point(model, values, covector)
        # an unchanged point cuts no residual
        return values.copy() if retrial == "rejected" else None

    def counted(*args):
        if len(trials) > 1:
            peaks_after.append(1)
        return ray_peak(*args)

    monkeypatch.setattr(solver, "_newton_point", second_rejected)
    monkeypatch.setattr(solver, "_ray_peak", counted)
    st = solver._Solve(model, SolveConfig(mode="plain", grad_tol=1e-300,
                                          max_iterations=50),
                       None, model.domain, trivial_level=0.0)
    st.newton_gate = math.inf
    status, residual, _ = solver._ray_stage(st, start.values)
    assert status == "stalled"
    assert st.it == 2 and len(trials) == 2 and not peaks_after
    assert st.counts == {"peak_searches": 1, "newton_trials": 2,
                         "factorizations": 2}
    assert st.newton_gate == solver._NEWTON_BACKOFF * residual


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
                          sweep_start=1)
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
                          sweep_start=1)
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


def test_diagnostics_measure_the_swept_segment(toy_model):
    # with a sweep start the tail is the swept segment, not the quartile
    vals = [np.array([5.0 * k, 0.0, 0.0]) for k in range(5)] + [
        np.array([1.0, 0.5, 0.0]), np.array([1.0, 0.0, 0.0]),
        np.array([1.0, 0.25, 0.0])]
    rows = [(2.0, 1.0, 5.0, 0.0, 0.0)] * 8
    diag = ps_diagnostics(synthetic_record(rows, vals), toy_model,
                          sweep_start=5)
    want = grid.norm_lm(GridFunction(toy_model.domain, vals[5] - vals[6]),
                        toy_model.q)
    assert diag.cauchy_points == 3
    assert diag.cauchy_tail == pytest.approx(want, rel=1e-12)
    assert diag.passed


def test_cauchy_tail_matches_pairwise_definition(square_model):
    # 600 rows give a 150-row tail quartile, of which the record keeps
    # and the sweep reads the last 120
    dom, q = square_model.domain, square_model.q
    rng = np.random.default_rng(11)
    vals = 1.0 + np.geomspace(1.0, 1e-6, 600)[:, None] \
        * rng.standard_normal((600, dom.n_nodes))
    vals[:, dom.boundary] = 0.0
    rows = [(2.0, 1.0, 5.0, 0.0, 0.0)] * 600
    diag = ps_diagnostics(synthetic_record(rows, vals), square_model)
    pts = vals[-120:]
    want = 0.0
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            want = max(want, grid.norm_lm(GridFunction(dom, pts[a] - pts[b]),
                                          q))
    assert diag.cauchy_points == TAIL_RETENTION == 120
    assert diag.cauchy_truncated
    assert diag.cauchy_tail == want


def test_sparse_linalg_resolves_before_any_solve():
    # perfbench/tracer.py wraps splu through solver.sparse_linalg when it
    # installs, before any solve has imported scipy.sparse.linalg
    code = ("import symcrit.solver as s; splu = s.sparse_linalg.splu; "
            "import scipy.sparse.linalg as linalg; "
            "print(splu is linalg.splu)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(solver.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["True"]


# ---------------------------------------------------------------------------
# subgroup ladder on a wide annulus


def test_annulus_subgroup_ladder():
    # examples/annulus_breaking.cfg: for H in K, Fix(K) lies in Fix(H), so
    # the restricted levels climb the ladder.  rotations_8 and rotations_4
    # find the same radial point; the plain ground state is far from
    # invariant, so the restricted points are critical points above it
    model = make_model("annulus-polar",
                       dict(inner_radius=1.0, outer_radius=6.0, resolution=10,
                            angular_resolution=32), p=1.8, q=3.0)
    dom = model.domain
    expected = {"rotations_8": 34.112133855327286,
                "rotations_4": 34.112133855327286,
                "rotations_2": 21.589304512425862,
                "plain": 10.800498689120062}
    levels, points = {}, {}
    for label in expected:
        mode = "plain" if label == "plain" else "restricted"
        sym = group.build_group(dom, "trivial" if mode == "plain" else label)
        rep = run(model, sym, SolveConfig(mode=mode, max_iterations=20000,
                                          seed=0))
        assert rep.converged, label
        levels[label], points[label] = rep.level, rep.u
        assert rep.level == pytest.approx(expected[label], rel=1e-9), label
        if mode == "restricted":
            assert verify.palais_check(model, sym, rep.u).principle_holds, \
                label
    assert levels["plain"] <= levels["rotations_2"] <= levels["rotations_4"] \
        <= levels["rotations_8"]
    u = points["plain"].values
    avg = group.average_values(group.build_group(dom, "rotations_8"), u)
    assert np.max(np.abs(u - avg)) > 0.8 * np.max(np.abs(u))
