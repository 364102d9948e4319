"""Acceptance suite: one test per shipped guarantee, desk scale.

Each test prints a single [PASS] line with its runtime once every
property inside it held; a failing assertion leaves the line unprinted
and the pytest report carries the verdict instead.  Budgets are wall
clock and generous against measured runtimes, so a miss means a real
regression rather than scheduler noise.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import symcrit
from symcrit import functional, grid, group, integrand, solver, symmetrize
from symcrit import verify

from conftest import random_function
import grid_oracle
from test_solver import sweep_level, toy_energy, unstable_direction

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")
# the child interpreter runs in a temporary cwd, where a relative import
# path would not resolve
SRC = os.path.dirname(os.path.dirname(os.path.abspath(symcrit.__file__)))


def _finish(tag: str, label: str, t0: float, budget: float):
    dt = time.perf_counter() - t0
    assert dt < budget, f"{label}: {dt:.1f}s exceeded the {budget:.0f}s budget"
    print(f"[PASS] {tag} {label}: {dt:.1f}s (budget {budget:.0f}s)")


def _groups_catalogue():
    square = grid.build_domain("square", side=6.0, resolution=9)
    disk = grid.build_domain("disk-polar", radius=3.0, resolution=4,
                             angular_resolution=8)
    annulus = grid.build_domain("annulus-polar", inner_radius=1.0,
                                outer_radius=3.0, resolution=4,
                                angular_resolution=8)
    ball = grid.build_domain("radial-ball-1d", dimension=3, radius=10.0,
                             resolution=40)
    combos = []
    for label in ("trivial", "rotations_2", "rotations_4", "dihedral_1",
                  "dihedral_2", "dihedral_4", "reflections",
                  "block_product"):
        combos.append((square, label))
    for dom in (disk, annulus):
        for label in ("trivial", "rotations_2", "rotations_4", "rotations_8",
                      "dihedral_2", "dihedral_4", "reflections",
                      "block_product"):
            combos.append((dom, label))
    combos.append((ball, "trivial"))
    return combos


def test_01_projector_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for dom, label in _groups_catalogue():
        g = group.build_group(dom, label)
        elements = grid_oracle.elements(g)
        for _ in range(100):
            u = random_function(dom, rng)
            au = group.average_values(g, u.values)
            aau = group.average_values(g, au)
            assert np.max(np.abs(aau - au)) <= 1e-13
            for perm in elements:
                agu = group.average_values(g, grid_oracle.act(perm, u.values))
                assert np.max(np.abs(agu - au)) <= 1e-13
            for norm in (lambda v: grid.norm_lm(grid.GridFunction(dom, v), 2.0),
                         lambda v: grid.norm_w1p(grid.GridFunction(dom, v), 2.0)):
                assert norm(au) <= norm(u.values) + 1e-12
    _finish("01", "group projector suite", t0, 5.0)


def test_02_energy_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    square = grid.build_domain("square", side=6.0, resolution=9)
    disk = grid.build_domain("disk-polar", radius=3.0, resolution=4,
                             angular_resolution=8)
    ball = grid.build_domain("radial-ball-1d", dimension=3, radius=10.0,
                             resolution=40)
    cases = [(square, "dihedral_4", 1.8, 3.0),
             (disk, "dihedral_4", 1.8, 3.0),
             (ball, "trivial", 2.0, 4.0)]
    for dom, label, p, q in cases:
        elements = grid_oracle.elements(group.build_group(dom, label))
        for name in ("plaplace", "modulated"):
            model = functional.EnergyModel(
                domain=dom, integrand=integrand.builtin(name, p=p), q=q)
            for _ in range(100):
                u = random_function(dom, rng)
                f_u = functional.energy_of_values(model, u.values)
                for perm in elements:
                    f_gu = functional.energy_of_values(
                        model, grid_oracle.act(perm, u.values))
                    assert abs(f_gu - f_u) <= 1e-12 * (1.0 + abs(f_u))
    _finish("02", "energy invariance under group actions", t0, 10.0)


def test_03_gradient_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    dom = grid.build_domain("radial-ball-1d", dimension=3, radius=5.0,
                            resolution=12)
    h = 1e-5
    orders = []
    for name in ("plaplace", "modulated"):
        model = functional.EnergyModel(
            domain=dom, integrand=integrand.builtin(name, p=2.0), q=4.0)
        for _ in range(25):
            u = random_function(dom, rng, scale=0.5)
            v = random_function(dom, rng, scale=0.5)
            r = functional.residual_of_values(model, u.values)
            exact = float(np.dot(r, v.values))

            def central(step):
                fp = functional.energy_of_values(model, u.values + step * v.values)
                fm = functional.energy_of_values(model, u.values - step * v.values)
                return (fp - fm) / (2.0 * step)

            err_h = abs(central(h) - exact)
            assert err_h <= 1e-6 * (1.0 + abs(exact))
            # at h = 1e-5 the difference quotient already sits on the
            # cancellation floor, so the order is measured at steps where
            # truncation still dominates roundoff
            err_c = abs(central(1e-3) - exact)
            err_f = abs(central(5e-4) - exact)
            if err_f > 1e-11 * (1.0 + abs(exact)):
                orders.append(math.log2(err_c / err_f))
    assert len(orders) >= 40
    assert float(np.median(orders)) >= 1.9
    _finish("03", "gradient consistency, observed order "
            f"{float(np.median(orders)):.2f}", t0, 10.0)


def test_04_symmetrization_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    square = grid.build_domain("square", side=2.0, resolution=5)
    disk = grid.build_domain("disk-polar", radius=3.0, resolution=4,
                             angular_resolution=8)
    annulus = grid.build_domain("annulus-polar", inner_radius=1.0,
                                outer_radius=3.0, resolution=4,
                                angular_resolution=8)
    domains = (square, disk, annulus)
    mirrors = {dom.kind: symmetrize.reflection_polarizers(dom)
               for dom in domains}

    per_domain = 1000 // len(domains) + 1
    for dom in domains:
        for _ in range(per_domain):
            u = random_function(dom, rng)
            v = random_function(dom, rng)
            for hpol in mirrors[dom.kind]:
                uh = symmetrize.polarize(u, hpol)
                vh = symmetrize.polarize(v, hpol)
                assert np.array_equal(
                    symmetrize.polarize(uh, hpol).values, uh.values)
                for p in (1.0, 2.0, 4.0):
                    d0 = grid.norm_lm(
                        grid.GridFunction(dom, u.values - v.values), p)
                    d1 = grid.norm_lm(
                        grid.GridFunction(dom, uh.values - vh.values), p)
                    assert d1 <= d0 + 1e-12
            before = symmetrize.edge_dirichlet_energy(dom, u.values, 2.0)
            for hpol in mirrors[dom.kind]:
                after = symmetrize.edge_dirichlet_energy(
                    dom, symmetrize.polarize(u, hpol).values, 2.0)
                assert after <= before * (1.0 + 1e-12)

    for dom in domains:
        pl = symmetrize.plan(dom)
        for _ in range(200):
            u = random_function(dom, rng)
            assert np.array_equal(symmetrize.apply_plan(pl, u).values,
                                  symmetrize.schwarz(u).values)
    _finish("04", "polarization and rearrangement axioms", t0, 30.0)


def test_05_saddle_level_oracle():
    t0 = time.perf_counter()
    model = functional.EnergyModel(
        domain=grid.build_domain("radial-ball-1d", dimension=3, radius=12.0,
                                 resolution=2),
        integrand=integrand.builtin("plaplace", p=2.0), q=4.0)
    ep = solver.init_endpoints(model, None)
    e0, e1 = float(ep.e.values[0]), float(ep.e.values[1])
    lo = min(-2.0, e0 - 2.0, e1 - 2.0)
    hi = max(2.0, e0 + 2.0, e1 + 2.0)
    level1, sx, sy = sweep_level((0.0, 0.0), (e0, e1), (lo, hi, lo, hi), 400)
    vdir = unstable_direction(sx, sy)
    half = 6.0 * (hi - lo) / 399.0
    p0 = (sx - 0.5 * half * vdir[0], sy - 0.5 * half * vdir[1])
    p1 = (sx + 0.5 * half * vdir[0], sy + 0.5 * half * vdir[1])
    oracle, _, _ = sweep_level(
        p0, p1, (sx - half, sx + half, sy - half, sy + half), 400)
    assert oracle <= level1

    sym = group.build_group(model.domain, "trivial")
    cfg = solver.SolveConfig(mode="restricted", path_points=24,
                             max_iterations=5000, grad_tol=1e-8, seed=0)
    rep = solver.run(model, sym, cfg)
    assert rep.converged
    assert rep.level >= rep.endpoints.sigma0
    assert abs(rep.level - oracle) <= 1e-3
    _finish("05", f"brute-force saddle oracle, gap "
            f"{abs(rep.level - oracle):.2e}", t0, 30.0)


def _restricted_cases():
    square = grid.build_domain("square", side=6.0, resolution=9)
    disk = grid.build_domain("disk-polar", radius=6.0, resolution=10,
                             angular_resolution=16)
    ball = grid.build_domain("radial-ball-1d", dimension=3, radius=12.0,
                             resolution=30)
    return [
        (square, "dihedral_4", "plaplace", 1.8, 3.0, False),
        (square, "dihedral_4", "modulated", 1.8, 3.0, False),
        (disk, "rotations_8", "plaplace", 1.8, 3.0, False),
        (disk, "rotations_8", "modulated", 1.8, 3.0, False),
        (ball, "trivial", "plaplace", 2.0, 4.0, True),
        (ball, "trivial", "modulated", 2.0, 4.0, True),
    ]


def test_06_symmetric_criticality():
    t0 = time.perf_counter()
    converged = 0
    for dom, label, name, p, q, pos in _restricted_cases():
        model = functional.EnergyModel(
            domain=dom, integrand=integrand.builtin(name, p=p), q=q,
            positivity=pos)
        sym = group.build_group(dom, label)
        cfg = solver.SolveConfig(mode="restricted", path_points=12,
                                 max_iterations=20000, grad_tol=1e-8, seed=0)
        rep = solver.run(model, sym, cfg)
        if not rep.converged:
            continue
        converged += 1
        assert rep.level >= rep.endpoints.sigma0, (label, name)
        crit = verify.palais_check(model, sym, rep.u, tau_tan=1e-8)
        # a restricted critical point must be critical in the full space
        assert crit.tangential <= 1e-8, (label, name)
        assert crit.transverse <= 1e-7, (label, name)
    assert converged >= 5
    _finish("06", f"restricted-to-full criticality on {converged} solves",
            t0, 300.0)


def test_07_level_ordering():
    t0 = time.perf_counter()
    dom = grid.build_domain("square", side=6.0, resolution=9)
    model = functional.EnergyModel(
        domain=dom, integrand=integrand.builtin("plaplace", p=1.8), q=3.0)
    sym = group.build_group(dom, "dihedral_4")
    cfg = solver.SolveConfig(mode="plain", path_points=12,
                             max_iterations=20000, grad_tol=1e-8, seed=0)
    cmp_ = solver.compare_levels(model, sym, cfg)
    assert not cmp_.declined
    assert cmp_.ordered
    assert cmp_.c_plain <= cmp_.c_restricted + 1e-4
    for rep in (cmp_.plain_report, cmp_.restricted_report):
        assert rep.level >= rep.endpoints.sigma0
    _finish("07", f"level ordering, c_plain {cmp_.c_plain:.6f} <= "
            f"c_restricted {cmp_.c_restricted:.6f}", t0, 120.0)


def test_08_radial_positive_solution():
    t0 = time.perf_counter()
    dom = grid.build_domain("radial-ball-1d", dimension=3, radius=12.0,
                            resolution=30)
    model = functional.EnergyModel(
        domain=dom, integrand=integrand.builtin("plaplace", p=2.0), q=4.0,
        positivity=True)
    sym = group.build_group(dom, "trivial")
    cfg = solver.SolveConfig(mode="plain", path_points=12,
                             max_iterations=20000, grad_tol=1e-8, seed=0)
    rep = solver.run(model, sym, cfg)
    assert rep.converged
    neg = grid.GridFunction(dom, np.minimum(rep.u.values, 0.0))
    assert grid.norm_lm(neg, model.p) <= 1e-8
    assert grid.norm_w1p(rep.u, model.p) >= rep.endpoints.rho0
    assert rep.endpoints.sigma0 > 0.0
    assert rep.level >= rep.endpoints.sigma0
    assert rep.endpoints.f_e < 0.0
    _finish("08", f"radial positive solution at level {rep.level:.6f}",
            t0, 120.0)


def test_09_direct_mode_monitoring():
    t0 = time.perf_counter()
    dom = grid.build_domain("radial-ball-1d", dimension=3, radius=12.0,
                            resolution=30)
    model = functional.EnergyModel(
        domain=dom, integrand=integrand.builtin("modulated", p=2.0), q=4.0,
        positivity=True)
    cfg = solver.SolveConfig(mode="direct", path_points=12,
                             max_iterations=20000, grad_tol=1e-8, seed=0)
    rep = solver.run(model, None, cfg)
    assert rep.converged
    assert rep.level >= rep.endpoints.sigma0
    assert rep.mode == "direct"
    assert rep.sweep_start is not None
    dist = np.array(rep.record.dist_vstar_V)
    seg = dist[rep.sweep_start:]
    assert np.all(np.diff(seg) <= 1e-12 * (1.0 + seg[:-1]))
    assert seg[-1] <= 1e-9
    diag = solver.ps_diagnostics(rep.record, model,
                                 sweep_start=rep.sweep_start)
    assert diag.passed
    assert diag.sup_w1p < diag.ceiling
    assert diag.cauchy_tail <= 1e-6
    _finish("09", "direct-mode rearrangement monitoring, tail spread "
            f"{diag.cauchy_tail:.1e}", t0, 180.0)


def test_10_condition_checker():
    t0 = time.perf_counter()
    for name in ("plaplace", "modulated"):
        report = integrand.check_conditions(
            integrand.builtin(name, p=2.0), q=4.0)
        assert report.all_passed, name
        for key, check in report.checks.items():
            assert check.verdict == "pass", (name, key)
            assert check.margin is not None, (name, key)

    # same density, lying about its coercivity constant: the lower bound
    # alpha0 t^p <= j must fail with a located witness
    sound = integrand.builtin("plaplace", p=2.0)
    faulty = integrand.Integrand(
        name="overclaimed", p=2.0, j=sound.j, j_s=sound.j_s, j_t=sound.j_t,
        alpha0=1.0, alpha=sound.alpha)
    report = integrand.check_conditions(faulty, q=4.0)
    assert not report.all_passed
    bad = report.checks["j2"]
    assert bad.verdict == "fail"
    assert bad.witness is not None
    print(f"injected fault witness at (s, t) = {tuple(bad.witness)}")
    _finish("10", "structural condition checker", t0, 10.0)


def test_11_reproducibility(tmp_path):
    t0 = time.perf_counter()
    cfg = os.path.abspath(os.path.join(EXAMPLES, "radial_direct.cfg"))
    manifests = []
    for tag, threads in (("a", None), ("b", None), ("t1", 1), ("t4", 4)):
        workdir = tmp_path / tag
        workdir.mkdir()
        env = dict(os.environ)
        env.pop("SYMCRIT_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        if threads is not None:
            env["SYMCRIT_THREADS"] = str(threads)
        proc = subprocess.run(
            [sys.executable, "-m", "symcrit.cli", "solve",
             "--config", cfg, "--quiet"],
            cwd=str(workdir), env=env, capture_output=True, text=True,
            timeout=600)
        assert proc.returncode == 0, proc.stderr
        with open(workdir / "runs" / "radial_direct" / "manifest.json",
                  encoding="utf-8") as fh:
            manifests.append(json.load(fh))
    base = manifests[0]["files"]
    assert len(base) == 6
    for other in manifests[1:]:
        assert other["files"] == base
    _finish("11", "byte-identical artifacts across runs and thread caps",
            t0, 300.0)
