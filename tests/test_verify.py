import dataclasses
import json
import math

import numpy as np
import pytest

from symcrit import functional, grid, group, integrand, verify
from symcrit.errors import HypothesisViolationError, ParameterError
from symcrit.grid import GridFunction
from symcrit.solver import SolveConfig, run

from conftest import random_function
import grid_oracle


@pytest.fixture(scope="module")
def square_setup():
    dom = grid.build_domain("square", side=6.0, resolution=9)
    model = functional.EnergyModel(domain=dom,
                                   integrand=integrand.builtin("plaplace",
                                                               p=1.8),
                                   q=3.0)
    sym = group.build_group(dom, "dihedral_4")
    return dom, model, sym


@pytest.fixture(scope="module")
def converged(square_setup):
    dom, model, sym = square_setup
    cfg = SolveConfig(mode="restricted", path_points=12,
                      max_iterations=6000, grad_tol=1e-8, seed=0)
    rep = run(model, sym, cfg)
    assert rep.converged
    return rep


# ---------------------------------------------------------------------------
# residual splitting


def test_zero_point_is_fully_critical(square_setup):
    dom, model, sym = square_setup
    rpt = verify.palais_check(model, sym,
                              GridFunction(dom, np.zeros(dom.n_nodes)))
    assert rpt.tangential == 0.0
    assert rpt.transverse == 0.0
    assert rpt.principle_holds
    assert float(rpt.weak_slope) == 0.0
    assert all(top == 0.0 for _, top in rpt.sweep)


def test_converged_point_confirms_transverse_criticality(square_setup,
                                                         converged):
    dom, model, sym = square_setup
    rpt = verify.palais_check(model, sym, converged.u)
    # the solver only drove the tangential part down; the transverse part
    # vanishing as well is the checkable claim
    assert rpt.tangential <= 1e-8
    assert rpt.transverse <= 1e-7
    assert rpt.tangential_ok and rpt.transverse_ok and rpt.principle_holds
    assert rpt.invariance_error <= 1e-13
    assert rpt.tau_trans == pytest.approx(10.0 * rpt.tau_tan)
    tops = [top for _, top in rpt.sweep]
    assert all(top <= 1e-7 for top in tops)
    assert all(b >= a for a, b in zip(tops, tops[1:]))


def test_non_invariant_point_is_rejected(square_setup, converged, rng):
    dom, model, sym = square_setup
    noisy = converged.u.values + 0.1 * random_function(dom, rng).values
    with pytest.raises(HypothesisViolationError):
        verify.palais_check(model, sym, GridFunction(dom, noisy))


def test_group_motion_leaves_report_unchanged(square_setup, converged):
    dom, model, sym = square_setup
    base = verify.palais_check(model, sym, converged.u)
    for perm in grid_oracle.elements(sym)[:3]:
        moved = GridFunction(dom, converged.u.values[perm])
        rpt = verify.palais_check(model, sym, moved)
        # the point is invariant only to roundoff, so the residual split
        # may move by machine epsilon times the Hessian scale
        assert rpt.tangential == pytest.approx(base.tangential, rel=1e-4,
                                               abs=1e-12)
        assert rpt.transverse == pytest.approx(base.transverse, abs=1e-13)
        assert rpt.principle_holds == base.principle_holds


def test_tolerances_validated(square_setup):
    dom, model, sym = square_setup
    u = GridFunction(dom, np.zeros(dom.n_nodes))
    with pytest.raises(ParameterError):
        verify.palais_check(model, sym, u, tau_tan=0.0)


def test_palais_check_computes_the_residual_once(monkeypatch, square_setup,
                                                converged):
    dom, model, sym = square_setup
    clean = functional.residual_of_values
    calls = []

    def counted(model, values):
        calls.append(1)
        return clean(model, values)

    monkeypatch.setattr(functional, "residual_of_values", counted)
    rpt = verify.palais_check(model, sym, converged.u)
    assert len(calls) == 1
    # the standalone checks compute their own residual and agree exactly
    alone = dataclasses.replace(
        rpt, sweep=verify.dense_test_sweep(model, converged.u, len(rpt.sweep)),
        weak_slope=verify.weak_slope(model, converged.u))
    assert len(calls) == 3
    assert alone.to_dict() == rpt.to_dict()


def test_report_serializes_to_json(square_setup, converged):
    dom, model, sym = square_setup
    rpt = verify.palais_check(model, sym, converged.u)
    blob = json.loads(json.dumps(rpt.to_dict()))
    assert blob["principle_holds"] is True
    assert blob["weak_slope"]["formal_only"] is False
    assert len(blob["sweep"]) == len(rpt.sweep)


# ---------------------------------------------------------------------------
# direction sweep


def test_sweep_rejects_bad_level_count(square_setup):
    dom, model, _ = square_setup
    u = GridFunction(dom, np.zeros(dom.n_nodes))
    with pytest.raises(ParameterError):
        verify.dense_test_sweep(model, u, 0)


def test_sweep_saturates_to_all_directions(square_setup, rng):
    dom, model, _ = square_setup
    u = random_function(dom, rng)
    j_max = int(math.ceil(np.max(np.abs(u.values)))) + 1
    rows = verify.dense_test_sweep(model, u, j_max)
    r = functional.residual_of_values(model, u.values)
    norms = grid.hat_w1p_norms(dom, model.p)
    interior = ~dom.boundary
    full = float(np.max(np.abs(r[interior]) / norms[interior]))
    assert rows[-1][1] == pytest.approx(full, rel=1e-12)


def test_sweep_agrees_with_directional_derivative(square_setup, rng):
    dom, model, _ = square_setup
    u = random_function(dom, rng)
    r = functional.residual_of_values(model, u.values)
    norms = grid.hat_w1p_norms(dom, model.p)
    interior = np.flatnonzero(~dom.boundary)
    i = int(interior[np.argmax(np.abs(r[interior]) / norms[interior])])
    hat = np.zeros(dom.n_nodes)
    hat[i] = 1.0 / norms[i]
    dd = functional.directional_derivative(model, u, GridFunction(dom, hat))
    assert abs(dd) == pytest.approx(abs(r[i]) / norms[i], rel=1e-10)


def test_sweep_csv_format(square_setup, rng):
    dom, model, _ = square_setup
    rows = verify.dense_test_sweep(model, random_function(dom, rng), 3)
    js, tops = zip(*rows)
    header = "j,max_directional_derivative"
    lines = grid.format_table([header], js, [tops]).splitlines()
    assert lines[0] == header
    assert len(lines) == 4
    assert lines[1].startswith("1,")
    assert grid.format_table([header, "# note"], [1, 2],
                             [[0.1, 0.0]]) == (
        f"{header}\n# note\n1,0.10000000000000001\n2,0\n")


# ---------------------------------------------------------------------------
# weak slope


def test_weak_slope_is_dual_residual_norm(square_setup, rng):
    dom, model, _ = square_setup
    u = random_function(dom, rng)
    slope = verify.weak_slope(model, u)
    r = functional.residual_of_values(model, u.values)
    want = math.sqrt(float(np.sum(r * r / dom.weights)))
    assert slope.value == pytest.approx(want, rel=1e-13)
    assert slope.formal_only is False


def test_weak_slope_flags_unbounded_envelope(square_setup, rng):
    dom, _, _ = square_setup
    p = 1.8
    raw = integrand.Integrand(
        name="steep", p=p,
        j=lambda s, t: (1.0 + s * s) * t ** p / p,
        j_s=lambda s, t: 2.0 * s * t ** p / p,
        j_t=lambda s, t: (1.0 + s * s) * t ** (p - 1.0),
        alpha0=1.0 / p, alpha=lambda s: (1.0 + s * s) / p,
        alpha_bounded=False)
    model = functional.EnergyModel(domain=dom, integrand=raw, q=3.0)
    slope = verify.weak_slope(model, random_function(dom, rng))
    assert slope.formal_only is True
    assert slope.value > 0.0
    assert slope.to_dict()["formal_only"] is True

