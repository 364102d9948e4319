import dataclasses
import math

import numpy as np
import pytest

from symcrit import functional, grid, group, integrand
from symcrit.errors import DomainMismatchError, ParameterError

from conftest import random_function
import grid_oracle


def make_model(domain, name="plaplace", p=2.0, q=4.0, positivity=False):
    return functional.EnergyModel(domain=domain,
                                  integrand=integrand.builtin(name, p=p),
                                  q=q, positivity=positivity)


@pytest.fixture(scope="module")
def ball_model():
    dom = grid.build_domain("radial-ball-1d", dimension=3, radius=6.0,
                            resolution=24)
    return make_model(dom)


@pytest.fixture(scope="module")
def square_model():
    dom = grid.build_domain("square", side=4.0, resolution=7)
    return make_model(dom, p=1.8, q=3.0)


@pytest.fixture(scope="module")
def disk_model():
    dom = grid.build_domain("disk-polar", radius=3.0, resolution=5,
                            angular_resolution=16)
    return make_model(dom, name="modulated", p=1.8, q=3.0)


# ---------------------------------------------------------------------------
# construction guards


def test_exponent_window_enforced():
    dom = grid.build_domain("square", side=1.0, resolution=3)
    with pytest.raises(ParameterError):
        make_model(dom, p=2.0, q=3.0)          # p = N is out
    with pytest.raises(ParameterError):
        make_model(dom, p=1.5, q=1.4)          # q below p
    with pytest.raises(ParameterError):
        make_model(dom, p=1.5, q=6.0)          # q at p* = 6 is out
    make_model(dom, p=1.5, q=5.9)              # inside the window


def test_domain_mismatch_rejected(ball_model):
    other = grid.build_domain("radial-ball-1d", dimension=3, radius=6.0,
                              resolution=24)
    u = grid.GridFunction(other, np.zeros(other.n_nodes))
    with pytest.raises(DomainMismatchError):
        functional.directional_derivative(ball_model, u, u)


# ---------------------------------------------------------------------------
# frozen hand oracle


def test_energy_matches_hand_quadrature():
    """Three interior radial nodes, u = (1, 2, 1): fully hand-computable."""
    dom = grid.build_domain("radial-ball-1d", dimension=3, radius=3.0,
                            resolution=3)
    model = make_model(dom)
    u = grid.GridFunction(dom, [1.0, 2.0, 1.0, 0.0])

    oracle = 0.0
    for i in range(3):
        w = 4 * math.pi / 3 * ((i + 1) ** 3 - i ** 3)
        avg = (u.values[i] + u.values[i + 1]) / 2
        t = abs(u.values[i + 1] - u.values[i])
        oracle += w * (t ** 2 / 2 + avg ** 2 / 2 - avg ** 4 / 4)
    frozen = 60.5411084285533

    assert abs(oracle - frozen) <= 1e-12 * frozen
    f = functional.energy_of_values(model, u.values)
    assert abs(f - frozen) <= 1e-12 * frozen


@pytest.mark.parametrize("positivity", [False, True])
@pytest.mark.parametrize("name", ["plaplace", "modulated"])
def test_stacked_energy_is_rowwise_bitwise(name, positivity, rng):
    # a (k, n) stack takes one product with the cell map, and each row
    # must still get exactly the energy it gets on its own
    domains = (grid.build_domain("square", side=4.0, resolution=7),
               grid.build_domain("disk-polar", radius=3.0, resolution=5,
                                 angular_resolution=16),
               grid.build_domain("radial-ball-1d", dimension=3, radius=6.0,
                                 resolution=24))
    for dom in domains:
        model = make_model(dom, name=name, p=1.8, q=3.0,
                           positivity=positivity)
        stack = (np.geomspace(1e-3, 30.0, 40)[:, None]
                 * rng.standard_normal((40, dom.n_nodes)))
        stack[:, dom.boundary] = 0.0
        energies = functional.energy_of_values(model, stack)
        assert energies.shape == (40,)
        for row, f in zip(stack, energies):
            assert f == functional.energy_of_values(model, row)


@pytest.mark.parametrize("positivity", [False, True])
@pytest.mark.parametrize("name", ["plaplace", "modulated"])
def test_ray_matches_energy_and_derivative(name, positivity, rng):
    # the ray prices d/dt f(t v) from the cell quantities of v, which those
    # of t v equal times t up to roundoff
    domains = (grid.build_domain("square", side=4.0, resolution=7),
               grid.build_domain("disk-polar", radius=3.0, resolution=5,
                                 angular_resolution=16),
               grid.build_domain("annulus-polar", inner_radius=1.0,
                                 outer_radius=3.0, resolution=4,
                                 angular_resolution=8),
               grid.build_domain("radial-ball-1d", dimension=3, radius=6.0,
                                 resolution=24))
    ts = np.geomspace(1e-3, 30.0, 25)
    p, q = 1.8, 3.0
    for dom in domains:
        model = make_model(dom, name=name, p=p, q=q, positivity=positivity)
        v = random_function(dom, rng)
        ray = functional.ray(model, v.values)
        for t in ts:
            tv = grid.GridFunction(dom, t * v.values)
            # roundoff scales with the cell terms, which cancel at large t;
            # each term of the slope is at most q/t times its energy term
            avg, grad, _ = grid.cell_values(dom, tv.values)
            terms = float(np.sum(dom.cells.weights * (
                model.integrand.j(avg, grad) + np.abs(avg) ** p / p
                + np.abs(avg) ** q / q)))
            want = functional.directional_derivative(model, tv, v)
            assert abs(ray.slope(t) - want) <= 1e-13 * q * terms / t


@pytest.mark.parametrize("positivity", [False, True])
def test_homogeneous_ray_prices_from_two_sums(positivity, rng):
    # plaplace is p-homogeneous, so its ray carries the fibering-map sums
    # and f(t v) = t^p A - t^q B; modulated is not and carries none
    dom = grid.build_domain("disk-polar", radius=3.0, resolution=5,
                            angular_resolution=16)
    p, q = 1.8, 3.0
    v = random_function(dom, rng).values
    avg, grad, _ = grid.cell_values(dom, v)
    w = dom.cells.weights
    a = float(np.sum(w * (grad ** p + np.abs(avg) ** p))) / p
    pos = np.maximum(avg, 0.0) if positivity else np.abs(avg)
    b = float(np.sum(w * pos ** q)) / q
    ray = functional.ray(make_model(dom, p=p, q=q, positivity=positivity), v)
    assert ray.A == pytest.approx(a, rel=1e-14)
    assert ray.B == pytest.approx(b, rel=1e-14)
    ts = np.geomspace(1e-3, 30.0, 25)
    scale = ts ** p * a + ts ** q * b
    for t, s in zip(ts, scale):
        slope = p * t ** (p - 1.0) * a - q * t ** (q - 1.0) * b
        assert abs(ray.slope(t) - slope) <= 1e-13 * q * s / t
    # the poisoned-ray helper of the solver tests rebuilds a ray this way
    assert functional.Ray(**vars(ray)) == ray
    other = functional.ray(make_model(dom, name="modulated", p=p, q=q,
                                      positivity=positivity), v)
    assert other.A is None and other.B is None


@pytest.mark.parametrize("positivity", [False, True])
@pytest.mark.parametrize("name", ["plaplace", "modulated"])
def test_hessian_matches_residual_differences(name, positivity, rng):
    # at a point with no flat cells and no zero cell average the Hessian is
    # the exact derivative of the residual; the quotient Hessian is that of
    # the orbit-coordinate energy.  The point changes sign, so the
    # positivity branch of the q term is exercised on both sides.
    cases = (("square", dict(side=4.0, resolution=7), "dihedral_4"),
             ("disk-polar", dict(radius=3.0, resolution=5,
                                 angular_resolution=16), "rotations_8"),
             ("radial-ball-1d", dict(dimension=3, radius=6.0,
                                     resolution=24), None))
    h = 1e-6
    for kind, kw, label in cases:
        dom = grid.build_domain(kind, **kw)
        full = make_model(dom, name=name, p=1.8, q=3.0, positivity=positivity)
        models = [(full, lambda v: v)]
        if label is not None:
            g = group.build_group(dom, label)
            quot = functional.EnergyModel(
                domain=group.quotient(g), integrand=full.integrand, q=3.0,
                positivity=positivity)
            basis = group.fix_basis(g)
            models.append((quot, lambda v, b=basis: b.means(v[None])[0]))
        for model, reduce in models:
            qd = model.domain
            u = reduce(2.0 * random_function(dom, rng).values + 0.5)
            u[qd.boundary] = 0.0
            avg, t, _ = grid.cell_values(qd, u)
            assert t.min() > 1e-3 and np.abs(avg).min() > 1e-6
            hess = functional.hessian_of_values(model, u)
            inner = qd.interior
            assert hess.shape == (int(inner.sum()),) * 2
            v = np.zeros(qd.n_nodes)
            v[inner] = rng.standard_normal(int(inner.sum()))
            diff = (functional.residual_of_values(model, u + h * v)
                    - functional.residual_of_values(model, u - h * v)) \
                / (2 * h)
            scale = np.max(np.abs(diff))
            assert np.max(np.abs(hess @ v[inner] - diff[inner])) \
                <= 1e-6 * scale, (kind, label)


def test_hessian_needs_second_partials(square_model):
    bare = dataclasses.replace(square_model.integrand, j_tt=None)
    model = dataclasses.replace(square_model, integrand=bare)
    with pytest.raises(ParameterError, match="no second partials"):
        functional.hessian_of_values(model, np.zeros(model.domain.n_nodes))


def test_zero_function_has_zero_energy(ball_model, square_model):
    for model in (ball_model, square_model):
        assert functional.energy_of_values(
            model, np.zeros(model.domain.n_nodes)) == 0.0


def test_positivity_flag_changes_negative_bumps():
    dom = grid.build_domain("radial-ball-1d", dimension=3, radius=6.0,
                            resolution=24)
    plain = make_model(dom, positivity=False)
    pos = make_model(dom, positivity=True)
    vals = -np.exp(-dom.coords[:, 0] ** 2)
    vals[dom.boundary] = 0.0
    u = grid.GridFunction(dom, vals)
    # the positivity variant drops the negative-part reward entirely
    assert functional.energy_of_values(pos, u.values) \
        > functional.energy_of_values(plain, u.values)


def test_coercivity_lower_bound(ball_model, disk_model, rng):
    """f(u) >= alpha0 ||Du||_p^p + cell terms, exactly in cell quadrature."""
    for model in (ball_model, disk_model):
        dom = model.domain
        p, q = model.p, model.q
        for _ in range(25):
            u = random_function(dom, rng)
            avg, t, _ = grid.cell_values(dom, u.values)
            w = dom.cells.weights
            bound = float(np.sum(w * (model.integrand.alpha0 * t ** p
                                      + np.abs(avg) ** p / p
                                      - np.abs(avg) ** q / q)))
            f = functional.energy_of_values(model, u.values)
            assert f >= bound - 1e-12 * (1 + abs(bound))


# ---------------------------------------------------------------------------
# derivative correctness


def central_difference(model, u, v, h):
    fp = functional.energy_of_values(model, u.values + h * v.values)
    fm = functional.energy_of_values(model, u.values - h * v.values)
    return (fp - fm) / (2 * h)


def test_gradient_consistency_accuracy(ball_model, square_model, disk_model,
                                       rng):
    """Central differences at h = 1e-5 match the analytic derivative."""
    for model in (ball_model, square_model, disk_model):
        for _ in range(17):
            u = random_function(model.domain, rng)
            v = random_function(model.domain, rng)
            dd = functional.directional_derivative(model, u, v)
            err = abs(central_difference(model, u, v, 1e-5) - dd)
            assert err <= 1e-6 * (1 + abs(dd))


def test_gradient_consistency_order(rng):
    """On C^2 models (p = 2) the error halves at observed order >= 1.9.

    Densities with p < 2 kink where a cell average crosses zero, so the
    clean quadratic rate is only a theorem for the smooth exponents.
    """
    dom = grid.build_domain("radial-ball-1d", dimension=3, radius=6.0,
                            resolution=24)
    for name in ("plaplace", "modulated"):
        model = make_model(dom, name=name, p=2.0, q=4.0)
        for _ in range(25):
            u = random_function(dom, rng)
            v = random_function(dom, rng)
            dd = functional.directional_derivative(model, u, v)
            e1 = abs(central_difference(model, u, v, 1e-3) - dd)
            e2 = abs(central_difference(model, u, v, 5e-4) - dd)
            # skip pairs whose truncation error sits at the roundoff floor
            f = functional.energy_of_values(model, u.values)
            floor = 2.3e-16 * (1 + abs(f)) / 5e-4
            if e2 > 50 * floor:
                assert math.log2(e1 / e2) >= 1.9


def test_directional_derivative_linear(ball_model, rng):
    model = ball_model
    u = random_function(model.domain, rng)
    v = random_function(model.domain, rng)
    w = random_function(model.domain, rng)
    combo = grid.GridFunction(model.domain, 2.0 * v.values - 3.0 * w.values)
    lhs = functional.directional_derivative(model, u, combo)
    rhs = (2.0 * functional.directional_derivative(model, u, v)
           - 3.0 * functional.directional_derivative(model, u, w))
    assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs))


def test_residual_matches_directions(ball_model, disk_model, rng):
    """The one-sweep residual agrees with per-direction derivatives."""
    for model in (ball_model, disk_model):
        dom = model.domain
        u = random_function(dom, rng)
        r = functional.residual_of_values(model, u.values)
        assert np.all(r[dom.boundary] == 0.0)
        interior = np.nonzero(~dom.boundary)[0]
        for i in rng.choice(interior, size=20, replace=False):
            e = np.zeros(dom.n_nodes)
            e[i] = 1.0
            dd = functional.directional_derivative(model, u,
                                                   grid.GridFunction(dom, e))
            assert abs(r[i] - dd) <= 1e-13 * (1 + abs(dd))


def test_flat_cells_follow_zero_convention(ball_model):
    """Constant interior u has |Du| = 0 on inner cells; no NaN anywhere."""
    dom = ball_model.domain
    vals = np.ones(dom.n_nodes)
    vals[dom.boundary] = 0.0
    u = grid.GridFunction(dom, vals)
    r = functional.residual_of_values(ball_model, u.values)
    assert np.all(np.isfinite(r))
    e = functional.energy_of_values(ball_model, u.values)
    assert np.isfinite(e)


# ---------------------------------------------------------------------------
# symmetry


def test_energy_invariance_both_builtins(rng):
    dom = grid.build_domain("square", side=4.0, resolution=7)
    elements = grid_oracle.elements(group.build_group(dom, "dihedral_4"))
    for name in ("plaplace", "modulated"):
        model = make_model(dom, name=name, p=1.8, q=3.0)
        for _ in range(25):
            u = random_function(dom, rng)
            f0 = functional.energy_of_values(model, u.values)
            for perm in elements:
                fe = functional.energy_of_values(
                    model, grid_oracle.act(perm, u.values))
                assert abs(fe - f0) <= 1e-12 * (1 + abs(f0))


def test_residual_equivariance(rng):
    dom = grid.build_domain("disk-polar", radius=3.0, resolution=5,
                            angular_resolution=16)
    elements = grid_oracle.elements(group.build_group(dom, "dihedral_8"))
    model = make_model(dom, name="modulated", p=1.8, q=3.0)
    for _ in range(10):
        u = random_function(dom, rng)
        r = functional.residual_of_values(model, u.values)
        for perm in elements:
            r_gu = functional.residual_of_values(
                model, grid_oracle.act(perm, u.values))
            expected = grid_oracle.act(perm, r)
            scale = 1 + float(np.max(np.abs(r)))
            assert np.max(np.abs(r_gu - expected)) <= 1e-12 * scale
