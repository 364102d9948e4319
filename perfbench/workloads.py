"""Workload definitions and input generation for the symcrit benchmark.

A workload is a list of cases.  Each case is one `symcrit` subcommand run
on a config (and, for `verify-point`, a stored grid function) that this
module writes from the workload name and the seed alone.

The solver seeds of `desk` and `refine` are pinned (run.seed 0, and 0 and
1 for the res-60 pair), so these two workloads take nothing from the
benchmark seed: at other solver seeds the iteration counts of these solves
change up to sevenfold (seen at seeds 0-4), and a pass time drawn over
seeds could not hold any bound.  In `audit` the seed draws the stored
points.
"""

import math
import os

import numpy as np

SOLVER_KEYS = {
    "solver.path_points": 12,
    "solver.max_iterations": 20000,
    "solver.grad_tol": 1e-8,
}

SQUARE_9 = {"domain.kind": "square", "domain.side": 6.0,
            "domain.resolution": 9}
DISK_10 = {"domain.kind": "disk-polar", "domain.radius": 6.0,
           "domain.resolution": 10, "domain.angular_resolution": 16}
BALL = {"domain.kind": "radial-ball-1d", "domain.dimension": 3,
        "domain.radius": 12.0}

P18 = {"model.q": 3.0, "integrand.p": 1.8}
P2POS = {"model.q": 4.0, "integrand.p": 2.0, "model.positivity": True}


def _case(name, command, seed=0, **keys):
    cfg = dict(SOLVER_KEYS)
    cfg.update(keys)
    cfg["run.seed"] = seed
    return {"name": name, "command": command, "config": cfg}


def _cfg(*parts, **extra):
    out = {}
    for part in parts:
        out.update(part)
    out.update({k.replace("__", "."): v for k, v in extra.items()})
    return out


def desk():
    """The acceptance solves at desk scale (31-176 nodes)."""
    cases = []
    for dom_name, dom, label in (("square", SQUARE_9, "dihedral_4"),
                                 ("disk", DISK_10, "rotations_8")):
        for integrand in ("plaplace", "modulated"):
            cases.append(_case(
                f"{dom_name}_{integrand}", "solve",
                **_cfg(dom, P18, group__label=label,
                       integrand__name=integrand, solver__mode="restricted")))
    ball = _cfg(BALL, P2POS, domain__resolution=30, group__label="trivial")
    for integrand in ("plaplace", "modulated"):
        cases.append(_case(
            f"ball_{integrand}", "solve",
            **_cfg(ball, integrand__name=integrand,
                   solver__mode="restricted")))
    cases.append(_case(
        "ball_direct", "solve",
        **_cfg(ball, integrand__name="modulated", solver__mode="direct")))
    cases.append(_case(
        "square_compare", "compare-levels",
        **_cfg(SQUARE_9, P18, group__label="dihedral_4",
               integrand__name="plaplace", solver__mode="plain")))
    return cases


def refine():
    """The resolution ladder past desk scale (121-672 nodes)."""
    ball = _cfg(BALL, P2POS, group__label="trivial",
                integrand__name="plaplace", solver__mode="restricted")
    return [
        _case("square_res23", "solve",
              **_cfg(SQUARE_9, P18, domain__resolution=23,
                     group__label="dihedral_4", integrand__name="plaplace",
                     solver__mode="restricted")),
        _case("disk_res20", "solve",
              **_cfg(DISK_10, P18, domain__resolution=20,
                     domain__angular_resolution=32,
                     group__label="rotations_8", integrand__name="plaplace",
                     solver__mode="restricted")),
        _case("ball_res120", "solve", 0,
              **_cfg(ball, domain__resolution=120)),
        _case("ball_res60_a", "solve", 0,
              **_cfg(ball, domain__resolution=60)),
        _case("ball_res60_b", "solve", 1,
              **_cfg(ball, domain__resolution=60)),
    ]


def audit():
    """verify-point on stored invariant points (2,209-6,272 nodes)."""
    model = {"integrand.name": "plaplace", **P18}
    return [
        {"name": "square_res45", "command": "verify-point",
         "config": _cfg(SQUARE_9, model, domain__resolution=45,
                        group__label="dihedral_4")},
        {"name": "disk_res32x128", "command": "verify-point",
         "config": _cfg(DISK_10, model, domain__resolution=32,
                        domain__angular_resolution=128,
                        group__label="rotations_8")},
        {"name": "disk_res48x128", "command": "verify-point",
         "config": _cfg(DISK_10, model, domain__resolution=48,
                        domain__angular_resolution=128,
                        group__label="dihedral_8")},
    ]


WORKLOADS = {"desk": desk, "refine": refine, "audit": audit}


def make_cases(name, seed):
    """The workload's cases; the audit points are drawn from the seed."""
    cases = WORKLOADS[name]()
    for case in cases:
        if case["command"] == "verify-point":
            case["seed"] = seed
    return cases


def invariant_point(domain, psi, seed):
    """Default bump times a seeded smooth perturbation, invariant by design.

    The perturbation is a seeded combination of smooth functions of the
    group invariants: x^2 + y^2 and x^2 y^2 on the square (dihedral_4),
    r and cos(8 theta) on the disk (rotations_8 and dihedral_8).  It is
    therefore its own group average, which `verify-point` confirms with
    its invariance gate before it tests anything else.
    """
    rng = np.random.default_rng([seed, 7])
    c = rng.uniform(-1.0, 1.0, size=4)
    x, y = domain.coords[:, 0], domain.coords[:, 1]
    if domain.kind == "square":
        half = 0.5 * domain.extents["side"]
        a = (x * x + y * y) / (2.0 * half * half)
        b = (x * x) * (y * y) / half ** 4
    else:
        a = np.sqrt(domain.radius2) / domain.extents["radius"]
        b = np.cos(8.0 * np.arctan2(y, x))
    pert = (c[0] * np.sin(math.pi * a) + c[1] * a * a
            + c[2] * b + c[3] * a * b)
    return psi * (1.0 + 0.3 * pert)


def write_inputs(symcrit, cases, workdir):
    """Write every case's config (and stored point) under workdir."""
    for case in cases:
        cdir = os.path.join(workdir, case["name"])
        os.makedirs(cdir, exist_ok=True)
        cfg_path = os.path.join(cdir, "case.cfg")
        symcrit.config.write_config(case["config"], cfg_path)
        case["config_path"] = cfg_path
        case["out"] = os.path.join(cdir, "out")
        if case["command"] == "verify-point":
            cfg = case["config"]
            dom = symcrit.grid.build_domain(
                cfg["domain.kind"],
                **{k.split(".", 1)[1]: v for k, v in cfg.items()
                   if k.startswith("domain.") and k != "domain.kind"})
            psi = symcrit.solver.default_psi(dom).values
            u = symcrit.grid.GridFunction(
                dom, invariant_point(dom, psi, case["seed"]))
            point = os.path.join(cdir, "point.csv")
            symcrit.grid.write_gridfunction(u, point)
            case["point_path"] = point
