from dataclasses import replace
import gc
import itertools
import weakref

import numpy as np
import pytest

from symcrit import functional, grid, group, integrand
from symcrit.errors import SymmetryCompatibilityError

from conftest import random_function


@pytest.fixture(scope="module")
def square_dihedral():
    dom = grid.build_domain("square", side=2.0, resolution=5)
    return dom, group.build_group(dom, "dihedral_4")


@pytest.fixture(scope="module")
def disk_rotations():
    dom = grid.build_domain("disk-polar", radius=3.0, resolution=4,
                            angular_resolution=16)
    return dom, group.build_group(dom, "rotations_8")


# ---------------------------------------------------------------------------
# construction


def test_trivial_group_everywhere(square_small, disk_small, ball_small):
    for dom in (square_small, disk_small, ball_small):
        g = group.build_group(dom, "trivial")
        assert g.order == 1


def test_dihedral4_order(square_dihedral):
    _, g = square_dihedral
    assert g.order == 8


def test_group_closure_exhaustive(square_dihedral):
    """Composition table closes: every product is again an element."""
    _, g = square_dihedral
    keys = {p.tobytes() for p in g.perms}
    for pa, pb in itertools.product(g.perms, repeat=2):
        assert pb[pa].tobytes() in keys


def test_validation_agrees_with_the_composition_table(square_dihedral):
    # every nonempty subset of the dihedral elements: the generator-based
    # closure check raises exactly when some product of two is missing
    dom, g = square_dihedral
    identity = np.arange(dom.n_nodes, dtype=g.perms.dtype).tobytes()
    outcomes = set()
    for mask in itertools.product([False, True], repeat=g.order):
        perms = g.perms[list(mask)]
        if perms.shape[0] == 0:
            continue
        keys = {p.tobytes() for p in perms}
        if identity not in keys:
            message = "identity element missing"
        elif all(pb[pa].tobytes() in keys
                 for pa, pb in itertools.product(perms, repeat=2)):
            message = None
        else:
            message = "not closed under composition"
        outcomes.add(message)
        partial = group.SymmetryGroup(domain=dom, label="partial",
                                      perms=perms)
        if message is None:
            group._validate_group(partial)
        else:
            with pytest.raises(SymmetryCompatibilityError, match=message):
                group._validate_group(partial)
    assert len(outcomes) == 3
    # an element listed twice is still one element
    group._validate_group(group.SymmetryGroup(
        domain=dom, label="repeated",
        perms=np.concatenate([g.perms, g.perms[:1]])))


def _check_one(dom, perm, who):
    """The element checks one element at a time, as the stacked
    ``group._check_elements`` must report them."""
    if not np.array_equal(np.sort(perm), np.arange(dom.n_nodes)):
        raise SymmetryCompatibilityError(f"{who} is not a node permutation")
    bad = np.nonzero(~np.isclose(dom.weights[perm], dom.weights,
                                 rtol=1e-12, atol=0.0))[0]
    if bad.size:
        i = int(bad[0])
        raise SymmetryCompatibilityError(
            f"{who} maps node {i} (weight {dom.weights[i]!r}) to node "
            f"{int(perm[i])} (weight {dom.weights[perm[i]]!r})")
    if not np.array_equal(dom.boundary[perm], dom.boundary):
        raise SymmetryCompatibilityError(
            f"{who} does not preserve the boundary mask")
    mapped = perm[dom.edges]
    bad = np.flatnonzero(~grid.is_edge(dom, mapped))
    if bad.size:
        (a, b), (ia, ib) = dom.edges[bad[0]], mapped[bad[0]]
        raise SymmetryCompatibilityError(
            f"{who} maps edge ({int(a)}, {int(b)}) to "
            f"({int(ia)}, {int(ib)}), which is not a grid edge")


@pytest.mark.parametrize("block", [1, 3, 1 << 19])
def test_stacked_element_checks_report_the_first_offender(
        disk_rotations, monkeypatch, block):
    # a node map that is no permutation, one that swaps rings of unequal
    # weight, one that swaps an interior and a boundary node and one that
    # swaps two neighbours of a ring; on the uniform-weight copy of the
    # disk the last two reach the boundary and the edge checks
    disk, g = disk_rotations
    monkeypatch.setattr(group, "_CHECK_BLOCK", block * disk.edges.shape[0])
    ident = np.arange(disk.n_nodes)

    def swap(a, b):
        perm = ident.copy()
        perm[[a, b]] = perm[[b, a]]
        return perm

    dup = ident.copy()
    dup[0] = 1
    outer = int(np.flatnonzero(disk.boundary)[0])
    bad = [dup, swap(0, 16), swap(0, outer), swap(0, 1)]
    uniform = replace(disk, weights=np.ones(disk.n_nodes))
    for dom in (disk, uniform):
        for combo in ([0], [1], [2], [3], [3, 1], [2, 0], [1, 3, 2]):
            perms = np.concatenate([g.perms[:3], [bad[k] for k in combo],
                                    g.perms[3:]])
            names = [f"element {e}" for e in range(len(perms))]
            with pytest.raises(SymmetryCompatibilityError) as want:
                for name, perm in zip(names, perms):
                    _check_one(dom, perm, name)
            with pytest.raises(SymmetryCompatibilityError) as got:
                group._check_elements(dom, perms, names.__getitem__)
            assert str(got.value) == str(want.value)
    group._check_elements(disk, g.perms, str)


def test_group_edges_are_checked_on_generators_only(disk_rotations,
                                                   monkeypatch):
    # rotations_8 is generated by its first rotation, and a product of
    # node maps that keep grid edges keeps them, so only that element's
    # edges are looked up
    _, g = disk_rotations
    assert group._generators(g.label, g.perms) == [1]
    edge_checked = []
    original = group._check_elements

    def spy(dom, perms, who, edges=True):
        if edges:
            edge_checked.append(len(perms))
        return original(dom, perms, who, edges)

    monkeypatch.setattr(group, "_check_elements", spy)
    group._validate_group(g)
    assert edge_checked == [1]


@pytest.mark.parametrize("corruption, check", [
    ("duplicate", "is not a node permutation"),
    ("ring swap", "(weight"),
    ("boundary swap", "does not preserve the boundary mask"),
    ("neighbour swap", "which is not a grid edge"),
])
def test_corrupted_non_generator_keeps_its_message(disk_rotations,
                                                   corruption, check):
    # element 5 of rotations_8 is no generator; whichever check it fails,
    # the error is the one of checking every element in full, one at a
    # time, before closure
    disk, g = disk_rotations
    uniform = replace(disk, weights=np.ones(disk.n_nodes))
    outer = int(np.flatnonzero(disk.boundary)[0])
    perm = g.perms[5].copy()
    dom = disk
    if corruption == "duplicate":
        perm[0] = perm[1]
    else:
        a, b, dom = {"ring swap": (0, 16, disk),
                     "boundary swap": (0, outer, uniform),
                     "neighbour swap": (0, 1, disk)}[corruption]
        perm[[a, b]] = perm[[b, a]]
    perms = np.concatenate([g.perms[:5], [perm], g.perms[6:]])
    with pytest.raises(SymmetryCompatibilityError) as want:
        for e, one in enumerate(perms):
            _check_one(dom, one, f"element {e} of 'corrupt'")
    with pytest.raises(SymmetryCompatibilityError) as got:
        group._validate_group(group.SymmetryGroup(domain=dom, label="corrupt",
                                                  perms=perms))
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("element 5 of 'corrupt'")
    assert check in str(got.value)


def test_incompatible_rotation_rejected():
    dom = grid.build_domain("disk-polar", radius=1.0, resolution=4,
                            angular_resolution=16)
    with pytest.raises(SymmetryCompatibilityError) as err:
        group.build_group(dom, "rotations_5")
    assert "16" in str(err.value)


def test_radial_only_trivial(ball_small):
    with pytest.raises(SymmetryCompatibilityError):
        group.build_group(ball_small, "rotations_4")


def test_unknown_label(square_small):
    with pytest.raises(SymmetryCompatibilityError):
        group.build_group(square_small, "icosahedral")


@pytest.mark.parametrize("kind, alias, target, order", [
    ("square", "reflections", "dihedral_2", 4),
    ("square", "block_product", "dihedral_2", 4),
    ("disk", "reflections", "dihedral_1", 2),
    ("disk", "block_product", "dihedral_2", 4),
])
def test_alias_labels_build_their_target(square_small, disk_small,
                                         kind, alias, target, order):
    dom = square_small if kind == "square" else disk_small
    elements = {p.tobytes() for p in group.build_group(dom, alias).perms}
    expected = {p.tobytes() for p in group.build_group(dom, target).perms}
    assert elements == expected
    assert len(elements) == order


# ---------------------------------------------------------------------------
# averaging projector


def test_average_fixes_invariant_functions(disk_rotations, rng):
    dom, g = disk_rotations
    # radial profiles are invariant under every rotation
    vals = np.exp(-dom.radius2)
    vals[dom.boundary] = 0.0
    u = grid.GridFunction(dom, vals)
    au = group.average(g, u)
    assert np.max(np.abs(au.values - u.values)) <= 1e-14


def test_average_of_orbit_indicator(square_dihedral):
    dom, g = square_dihedral
    fb = group.fix_basis(g)
    orbit = next(o for o in fb.orbits if o.size == 4)
    vals = np.zeros(dom.n_nodes)
    vals[orbit[0]] = 1.0
    au = group.average(g, grid.GridFunction(dom, vals))
    expected = np.zeros(dom.n_nodes)
    # dihedral_4 has order 8; a size-4 orbit gets 8/4 = 2 hits per node
    expected[orbit] = 2.0 / 8.0
    assert np.max(np.abs(au.values - expected)) <= 1e-15


def test_average_idempotent(square_dihedral, disk_rotations, rng):
    for dom, g in (square_dihedral, disk_rotations):
        for _ in range(100):
            u = random_function(dom, rng)
            au = group.average_values(g, u.values)
            aau = group.average_values(g, au)
            assert np.max(np.abs(aau - au)) <= 1e-14


def test_average_nonexpansive(square_dihedral, rng):
    dom, g = square_dihedral
    for m in (1.0, 2.0, 4.0):
        for _ in range(50):
            u = random_function(dom, rng)
            au = group.average(g, u)
            assert grid.norm_lm(au, m) <= grid.norm_lm(u, m) * (1 + 1e-12)
    for _ in range(50):
        u = random_function(dom, rng)
        au = group.average(g, u)
        assert grid.norm_w1p(au, 2) <= grid.norm_w1p(u, 2) * (1 + 1e-12)


def test_average_preserves_bounds(disk_rotations, rng):
    """A maps the box {|u| <= c} into itself (invariant convex set)."""
    dom, g = disk_rotations
    for _ in range(50):
        u = random_function(dom, rng)
        au = group.average(g, u)
        assert np.max(np.abs(au.values)) <= np.max(np.abs(u.values)) + 1e-15


def test_average_self_adjoint(square_dihedral, rng):
    dom, g = square_dihedral
    w = dom.weights
    for _ in range(50):
        u = random_function(dom, rng).values
        v = random_function(dom, rng).values
        lhs = float(np.sum(w * group.average_values(g, u) * v))
        rhs = float(np.sum(w * u * group.average_values(g, v)))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_group_action_is_isometry(square_dihedral, disk_rotations, rng):
    for dom, g in (square_dihedral, disk_rotations):
        for _ in range(25):
            u = random_function(dom, rng)
            for e in range(g.order):
                gu = group.apply(g, e, u)
                for m in (1.0, 3.0):
                    assert abs(grid.norm_lm(gu, m) - grid.norm_lm(u, m)) \
                        <= 1e-12 * (1 + grid.norm_lm(u, m))
                assert abs(grid.norm_w1p(gu, 2) - grid.norm_w1p(u, 2)) \
                    <= 1e-12 * (1 + grid.norm_w1p(u, 2))


# ---------------------------------------------------------------------------
# fixed-point subspace


def test_rotation_orbits_on_odd_square():
    dom = grid.build_domain("square", side=2.0, resolution=5)
    g = group.build_group(dom, "rotations_4")
    fb = group.fix_basis(g)
    sizes = sorted(o.size for o in fb.orbits)
    assert sizes[0] == 1                      # the center node
    assert all(s == 4 for s in sizes[1:])
    assert fb.dim == (25 - 1) // 4 + 1


def test_fix_dimension_matches_projector_rank():
    dom = grid.build_domain("square", side=2.0, resolution=5)
    g = group.build_group(dom, "rotations_4")
    fb = group.fix_basis(g)
    interior = ~dom.boundary
    cols = []
    for i in np.nonzero(interior)[0]:
        e = np.zeros(dom.n_nodes)
        e[i] = 1.0
        cols.append(group.average_values(g, e)[interior])
    rank = np.linalg.matrix_rank(np.column_stack(cols), tol=1e-10)
    assert rank == fb.dim


def test_trivial_group_orbit_count(ball_small):
    g = group.build_group(ball_small, "trivial")
    fb = group.fix_basis(g)
    assert fb.dim == int(np.sum(~ball_small.boundary))


# ---------------------------------------------------------------------------
# quotient domain


QUOTIENT_CASES = [
    ("square", dict(side=6.0, resolution=9), "dihedral_4"),
    ("square", dict(side=6.0, resolution=8), "dihedral_4"),
    ("square", dict(side=6.0, resolution=9), "rotations_4"),
    ("square", dict(side=6.0, resolution=9), "dihedral_1"),
    ("disk-polar", dict(radius=6.0, resolution=10, angular_resolution=16),
     "rotations_8"),
    ("disk-polar", dict(radius=6.0, resolution=10, angular_resolution=16),
     "dihedral_8"),
    ("annulus-polar", dict(inner_radius=1.0, outer_radius=3.0, resolution=4,
                           angular_resolution=8), "dihedral_2"),
]


def quotient_case(kind, dom_kw, label, name="modulated"):
    dom = grid.build_domain(kind, **dom_kw)
    g = group.build_group(dom, label)
    j = integrand.builtin(name, p=1.8)
    model = functional.EnergyModel(domain=dom, integrand=j, q=3.0)
    return g, model, replace(model, domain=group.quotient(g))


def invariant_pair(quot, basis, rng):
    """Random orbit values x (zero on the boundary) and u = B x."""
    x = rng.standard_normal(quot.n_nodes)
    x[quot.boundary] = 0.0
    return x, x[basis.orbit]


@pytest.mark.parametrize("kind, dom_kw, label", QUOTIENT_CASES)
@pytest.mark.parametrize("name", ["plaplace", "modulated"])
def test_quotient_energy_and_residual_match_full(kind, dom_kw, label, name,
                                                 rng):
    # F(x) = f(B x) and F'(x) = B^T f'(B x) for every orbit vector x
    g, model, qmodel = quotient_case(kind, dom_kw, label, name)
    basis = group.fix_basis(g)
    for _ in range(5):
        x, u = invariant_pair(qmodel.domain, basis, rng)
        f = functional.energy_of_values(model, u)
        assert abs(functional.energy_of_values(qmodel, x) - f) \
            <= 1e-13 * abs(f)
        r = functional.residual_of_values(model, u)
        r_q = functional.residual_of_values(qmodel, x)
        want = np.bincount(basis.orbit, weights=r,
                           minlength=basis.reps.shape[0])
        assert np.max(np.abs(r_q - want)) <= 1e-13 * np.max(np.abs(r))


@pytest.mark.parametrize("kind, dom_kw, label", QUOTIENT_CASES)
def test_average_is_the_mean_of_the_group_action(kind, dom_kw, label, rng):
    # the orbit-mean projector against (1/|G|) sum_e e u, for one vector
    # and for each row of a stack
    dom = grid.build_domain(kind, **dom_kw)
    g = group.build_group(dom, label)
    stack = [random_function(dom, rng) for _ in range(4)]
    want = np.stack([sum(group.apply(g, e, u).values for e in range(g.order))
                     / g.order for u in stack])
    got = group.average_values(g, np.stack([u.values for u in stack]))
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale
    one = group.average_values(g, stack[0].values)
    assert np.max(np.abs(one - want[0])) <= 1e-14 * scale


def test_domain_is_freed_without_the_cycle_collector(rng):
    # the group keeps the orbit map and the domain caches the quotient;
    # neither may refer back to the domain, or every domain would wait
    # for a full collection
    gc.disable()
    try:
        dom = grid.build_domain("square", side=6.0, resolution=9)
        g = group.build_group(dom, "dihedral_4")
        group.fix_basis(g)
        group.quotient(g)
        group.average_values(g, random_function(dom, rng).values)
        ref = weakref.ref(dom)
        del dom, g
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("kind, dom_kw, label", QUOTIENT_CASES)
def test_quotient_weights_and_norms(kind, dom_kw, label, rng):
    g, model, qmodel = quotient_case(kind, dom_kw, label)
    quot, dom = qmodel.domain, model.domain
    basis = group.fix_basis(g)
    assert quot.weights.sum() == pytest.approx(dom.volume, rel=1e-12)
    assert quot.cells.weights.sum() == pytest.approx(dom.volume, rel=1e-12)
    assert np.array_equal(quot.boundary, dom.boundary[basis.reps])
    # the per-node loop the orbit map replaced: node i's orbit is the set
    # of its images
    for i in range(dom.n_nodes):
        members = np.flatnonzero(basis.orbit == basis.orbit[i])
        assert np.array_equal(members, np.unique(g.perms[:, i]))
    x, u = invariant_pair(quot, basis, rng)
    assert grid.w1p_norms(quot, x, 1.8) == pytest.approx(
        grid.w1p_norms(dom, u, 1.8), rel=1e-13)


@pytest.mark.parametrize("kind, dom_kw, label, nodes, cells", [
    ("square", dict(side=6.0, resolution=23), "dihedral_4", 91, 78),
    ("disk-polar", dict(radius=6.0, resolution=20, angular_resolution=32),
     "rotations_8", 84, 84),
])
def test_quotient_sizes(kind, dom_kw, label, nodes, cells):
    dom = grid.build_domain(kind, **dom_kw)
    quot = group.quotient(group.build_group(dom, label))
    assert (quot.n_nodes, quot.cells.count) == (nodes, cells)
    assert quot.cells.op.shape == (3 * cells, nodes)


def test_quotient_is_cached_and_trivial_is_the_domain(square_small):
    g = group.build_group(square_small, "dihedral_4")
    assert group.quotient(g) is group.quotient(
        group.build_group(square_small, "dihedral_4"))
    trivial = group.build_group(square_small, "trivial")
    assert group.quotient(trivial) is square_small


def test_quotient_rejects_element_that_breaks_cells(square_small):
    # swapping two neighboring interior nodes keeps weights and the
    # boundary, but the cells around them map onto no cell
    a = 2 * 7 + 2
    swap = np.arange(square_small.n_nodes)
    swap[[a, a + 1]] = swap[[a + 1, a]]
    g = group.SymmetryGroup(domain=square_small, label="swap",
                            perms=np.stack([np.arange(swap.shape[0]), swap]))
    with pytest.raises(SymmetryCompatibilityError, match="onto no cell"):
        group.quotient(g)
