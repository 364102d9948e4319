from dataclasses import replace
import gc
import itertools
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from symcrit import functional, grid, group, integrand, solver
from symcrit.errors import SymmetryCompatibilityError

from conftest import random_function
import grid_oracle


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
        assert len(grid_oracle.elements(g)) == 1


def test_dihedral4_order(square_dihedral):
    _, g = square_dihedral
    assert len(grid_oracle.elements(g)) == 8


# labels that name the group of another label, as group.build_group reads them
ALIASES = {
    "square": {"reflections": "dihedral_2", "block_product": "dihedral_2"},
    "polar": {"reflections": "dihedral_1", "block_product": "dihedral_2"},
}


def _turn(angle):
    return np.array([[np.cos(angle), -np.sin(angle)],
                     [np.sin(angle), np.cos(angle)]])


def _mirror(dom):
    """The grid's mirror of the dihedral labels: x -> -x on the square,
    theta -> -theta on the polar grids."""
    return np.diag([-1.0, 1.0] if dom.kind == "square" else [1.0, -1.0])


def _node_map(dom, a):
    """The node map of the linear map a, found from the node coordinates:
    node i goes to the node at a @ coords[i]."""
    image = dom.coords @ a.T
    dist = np.linalg.norm(image[:, None, :] - dom.coords[None, :, :], axis=-1)
    perm = np.argmin(dist, axis=1)
    assert np.max(dist[np.arange(dom.n_nodes), perm]) <= 1e-9
    return perm


def _reference_elements(dom, label):
    """The element set of a label as a (order, n) stack: the turns by
    2*pi*j/k and, for dihedral_k, each turn after the grid's mirror."""
    aliases = ALIASES["square" if dom.kind == "square" else "polar"]
    label = aliases.get(label, label)
    k = 1 if label == "trivial" else int(label.split("_")[1])
    maps = [_turn(2 * np.pi * j / k) for j in range(k)]
    if label.startswith("dihedral_"):
        maps += [a @ _mirror(dom) for a in maps]
    return np.stack([_node_map(dom, a) for a in maps])


def _labels(dom):
    kind = "square" if dom.kind == "square" else "polar"
    turns = 4 if kind == "square" else dom.meta["n_theta"]
    divisors = [k for k in range(1, turns + 1) if turns % k == 0]
    return ["trivial", *ALIASES[kind],
            *(f"{name}_{k}" for name in ("rotations", "dihedral")
              for k in divisors)]


def test_group_closure_exhaustive():
    """Every label's generators close to the identity first, k elements
    for rotations_k and 2k for dihedral_k, the element set found from the
    node coordinates (an alias its target's), elements that pass every
    check one at a time, and a closed composition table; the orbit map
    built from the generators is that of the coordinate element set."""
    for dom in (grid.build_domain("square", side=2.0, resolution=8),
                grid.build_domain("square", side=2.0, resolution=9),
                grid.build_domain("disk-polar", radius=3.0, resolution=4,
                                  angular_resolution=48),
                grid.build_domain("annulus-polar", inner_radius=1.0,
                                  outer_radius=3.0, resolution=4,
                                  angular_resolution=8)):
        aliases = ALIASES["square" if dom.kind == "square" else "polar"]
        for label in _labels(dom):
            g = group.build_group(dom, label)
            elements = grid_oracle.elements(g)
            keys = {p.tobytes() for p in elements}
            target = aliases.get(label, label)
            k = 1 if target == "trivial" else int(target.split("_")[1])
            order = 2 * k if target.startswith("dihedral_") else k
            assert len(elements) == len(keys) == order, label
            assert np.array_equal(elements[0], np.arange(dom.n_nodes))
            reference = _reference_elements(dom, label)
            assert keys == {p.tobytes() for p in reference}, label
            if label in aliases:
                assert keys == {p.tobytes() for p in grid_oracle.elements(
                    group.build_group(dom, target))}
            for e, perm in enumerate(elements):
                _check_one(dom, perm, f"element {e} of {label!r}")
            for pa, pb in itertools.product(elements, repeat=2):
                assert pb[pa].tobytes() in keys
            # the orbit of node i is the column reference[:, i]
            reps, orbit, sizes = np.unique(reference.min(axis=0),
                                           return_inverse=True,
                                           return_counts=True)
            fb = group.fix_basis(g)
            assert np.array_equal(fb.orbit, orbit), label
            assert np.array_equal(fb.reps, reps), label
            assert np.array_equal(fb.sizes, sizes), label
        # rotations_1 names the trivial group, whose quotient is the domain
        g = group.build_group(dom, "rotations_1")
        assert g.gens.shape == (0, dom.n_nodes)
        assert group.quotient(g) is dom
        model = functional.EnergyModel(
            domain=dom, integrand=integrand.builtin("plaplace", p=1.8),
            q=3.0)
        solved, basis = solver._orbit_coordinates(model, g)
        assert solved is model and basis is None


def test_group_build_and_orbits_keep_no_element_table():
    # the 256 node maps of rotations_256 on the 64 x 256 disk would take
    # 32.5 MB; the generator and the orbit map take a fraction of a
    # quarter of that
    code = (
        "import resource; from symcrit import grid, group; "
        "dom = grid.build_domain('disk-polar', radius=6.0, resolution=64, "
        "angular_resolution=256); "
        "group.fix_basis(group.build_group(dom, 'rotations_2')); "
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
        "fb = group.fix_basis(group.build_group(dom, 'rotations_256')); "
        "rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before; "
        "print(dom.n_nodes // fb.reps.shape[0], rise / 1024)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(group.__file__)))
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True).stdout.split()
    assert out[0] == "256"
    assert float(out[1]) < 8.0


@pytest.mark.parametrize("kind, dom_kw, label, broken, node", [
    ("disk-polar", dict(radius=3.0, resolution=4, angular_resolution=16),
     "rotations_8", 0, 1),
    ("disk-polar", dict(radius=3.0, resolution=4, angular_resolution=16),
     "dihedral_4", 1, 1),
    ("square", dict(side=2.0, resolution=9), "rotations_4", 0, 12),
    ("square", dict(side=2.0, resolution=8), "dihedral_4", 1, 21),
])
def test_broken_generator_is_named_by_its_first_failed_check(
        kind, dom_kw, label, broken, node):
    # the generators are the 2*pi/k turn, then for dihedral_k the grid's
    # mirror; raising the weights of node's orbit under the generators
    # before ``broken`` leaves those intact and breaks generator ``broken``
    dom = grid.build_domain(kind, **dom_kw)
    k = int(label.split("_")[1])
    gens = [_node_map(dom, _turn(2 * np.pi / k))]
    if label.startswith("dihedral_"):
        gens.append(_node_map(dom, _mirror(dom)))
    basis = group.fix_basis(group.build_group(
        dom, "trivial" if broken == 0 else f"rotations_{k}"))
    weights = dom.weights.copy()
    weights[basis.orbit == basis.orbit[node]] *= 1.5
    altered = replace(dom, weights=weights)
    with pytest.raises(SymmetryCompatibilityError) as want:
        for e, gen in enumerate(gens):
            _check_one(altered, gen, f"generator {e} of {label!r}")
    with pytest.raises(SymmetryCompatibilityError) as got:
        group.build_group(altered, label)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"generator {broken} of {label!r} maps")
    assert "(weight" in str(got.value)


def _check_one(dom, perm, who):
    """The element checks one element at a time, as
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


@pytest.mark.parametrize("lead", [1, 3, 1 << 19])
def test_stacked_element_checks_report_the_first_offender(disk_rotations,
                                                          lead):
    # a node map that is no permutation, one that swaps rings of unequal
    # weight, one that swaps an interior and a boundary node and one that
    # swaps two neighbours of a ring; on the uniform-weight copy of the
    # disk the last two reach the boundary and the edge checks.  The bad
    # maps follow the first `lead` group elements (all of them when
    # `lead` exceeds the order)
    disk, g = disk_rotations
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
    elements = grid_oracle.elements(g)
    for dom in (disk, uniform):
        for combo in ([0], [1], [2], [3], [3, 1], [2, 0], [1, 3, 2]):
            perms = np.concatenate([elements[:lead],
                                    [bad[k] for k in combo],
                                    elements[lead:]])
            names = [f"element {e}" for e in range(len(perms))]
            with pytest.raises(SymmetryCompatibilityError) as want:
                for name, perm in zip(names, perms):
                    _check_one(dom, perm, name)
            with pytest.raises(SymmetryCompatibilityError) as got:
                group._check_elements(dom, perms, names.__getitem__)
            assert str(got.value) == str(want.value)
    group._check_elements(disk, elements, str)


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


@pytest.mark.parametrize("kind, label", [
    ("square", "rotations_3"), ("square", "dihedral_8"),
    ("square", "rotations_0"), ("square", "dihedral_x"),
    ("square", "rotations_0_4"), ("square", "dihedral_+4"),
    ("disk", "dihedral_3"), ("disk", "rotations_16"), ("disk", "rotations_"),
    ("disk", "dihedral_two"), ("disk", "rotations_-4"),
])
def test_orders_that_do_not_divide_the_turns_are_refused(
        square_small, disk_small, kind, label):
    # k must divide the grid's number of turns: 4 on the square, the
    # angular resolution (8 on disk_small) on a polar grid
    dom = square_small if kind == "square" else disk_small
    with pytest.raises(SymmetryCompatibilityError):
        group.build_group(dom, label)


def test_quotient_domain_refuses_every_label(square_small, disk_small):
    # a quotient's kind has no turns or mirrors, so no label, not even
    # trivial, is realized on it
    for dom, label in ((square_small, "dihedral_4"),
                       (disk_small, "rotations_4")):
        quot = group.quotient(group.build_group(dom, label))
        assert quot.kind == f"{dom.kind}/{label}"
        for name in ("trivial", "rotations_1", "rotations_2", "dihedral_1",
                     label, "reflections", "block_product", "icosahedral"):
            with pytest.raises(SymmetryCompatibilityError):
                group.build_group(quot, name)
        with pytest.raises(SymmetryCompatibilityError):
            group.mirrors(quot)


@pytest.mark.parametrize("kind, alias, target, order", [
    ("square", "reflections", "dihedral_2", 4),
    ("square", "block_product", "dihedral_2", 4),
    ("disk", "reflections", "dihedral_1", 2),
    ("disk", "block_product", "dihedral_2", 4),
])
def test_alias_labels_build_their_target(square_small, disk_small,
                                         kind, alias, target, order):
    dom = square_small if kind == "square" else disk_small
    elements = {p.tobytes() for p in
                grid_oracle.elements(group.build_group(dom, alias))}
    expected = {p.tobytes() for p in
                grid_oracle.elements(group.build_group(dom, target))}
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
    au = group.average_values(g, u.values)
    assert np.max(np.abs(au - u.values)) <= 1e-14


def test_average_of_orbit_indicator(square_dihedral):
    dom, g = square_dihedral
    fb = group.fix_basis(g)
    k = np.flatnonzero((fb.sizes == 4) & fb.interior)[0]
    orbit = np.flatnonzero(fb.orbit == k)
    vals = np.zeros(dom.n_nodes)
    vals[orbit[0]] = 1.0
    au = group.average_values(g, vals)
    expected = np.zeros(dom.n_nodes)
    # dihedral_4 has order 8; a size-4 orbit gets 8/4 = 2 hits per node
    expected[orbit] = 2.0 / 8.0
    assert np.max(np.abs(au - expected)) <= 1e-15


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
            au = grid.GridFunction(dom, group.average_values(g, u.values))
            assert grid.norm_lm(au, m) <= grid.norm_lm(u, m) * (1 + 1e-12)
    for _ in range(50):
        u = random_function(dom, rng)
        au = grid.GridFunction(dom, group.average_values(g, u.values))
        assert grid.norm_w1p(au, 2) <= grid.norm_w1p(u, 2) * (1 + 1e-12)


def test_average_preserves_bounds(disk_rotations, rng):
    """A maps the box {|u| <= c} into itself (invariant convex set)."""
    dom, g = disk_rotations
    for _ in range(50):
        u = random_function(dom, rng)
        au = group.average_values(g, u.values)
        assert np.max(np.abs(au)) <= np.max(np.abs(u.values)) + 1e-15


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
        elements = grid_oracle.elements(g)
        for _ in range(25):
            u = random_function(dom, rng)
            for perm in elements:
                gu = grid.GridFunction(dom, grid_oracle.act(perm, u.values))
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
    sizes = sorted(fb.sizes[fb.interior])
    assert sizes[0] == 1                      # the center node
    assert all(s == 4 for s in sizes[1:])
    assert np.count_nonzero(fb.interior) == (25 - 1) // 4 + 1


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
    assert rank == np.count_nonzero(fb.interior)


def test_trivial_group_orbit_count(ball_small):
    g = group.build_group(ball_small, "trivial")
    fb = group.fix_basis(g)
    assert np.count_nonzero(fb.interior) == int(np.sum(~ball_small.boundary))


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
    # the full rotation group: an invariant function is constant on every
    # ring, so |Du| is 0 up to roundoff on the core cells inside ring 0
    ("disk-polar", dict(radius=6.0, resolution=20, angular_resolution=32),
     "rotations_32"),
    ("disk-polar", dict(radius=6.0, resolution=20, angular_resolution=32),
     "dihedral_32"),
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
    elements = grid_oracle.elements(g)
    want = np.stack([sum(grid_oracle.act(perm, u.values) for perm in elements)
                     / len(elements) for u in stack])
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


def reference_cell_orbits(g):
    """Smallest cell and size of each cell orbit from every element's
    image of every cell, cells matched by their corner sets."""
    images = grid_oracle.cell_images(g.domain.cells, grid_oracle.elements(g))
    return np.unique(images.min(axis=0), return_counts=True)


@pytest.mark.parametrize("kind, dom_kw, label", QUOTIENT_CASES)
def test_cell_maps_match_corner_sets(kind, dom_kw, label):
    # the integer keys against a dict of sorted corner sets
    g = group.build_group(grid.build_domain(kind, **dom_kw), label)
    assert np.array_equal(group._cell_maps(g),
                          grid_oracle.cell_images(g.domain.cells, g.gens))


@pytest.mark.parametrize("kind, dom_kw, label", QUOTIENT_CASES)
def test_cell_orbits_from_generators_match_every_element(kind, dom_kw,
                                                         label):
    g = group.build_group(grid.build_domain(kind, **dom_kw), label)
    reps, sizes = group._cell_orbits(g)
    want_reps, want_sizes = reference_cell_orbits(g)
    assert np.array_equal(reps, want_reps)
    assert np.array_equal(sizes, want_sizes)


BUILDER_CASES = [
    ("square", dict(side=6.0, resolution=9), "trivial"),
    ("disk-polar", dict(radius=6.0, resolution=10, angular_resolution=16),
     "trivial"),
    ("disk-polar", dict(radius=6.0, resolution=64, angular_resolution=256),
     "trivial"),
    ("annulus-polar", dict(inner_radius=1.0, outer_radius=3.0, resolution=4,
                           angular_resolution=8), "trivial"),
    ("radial-ball-1d", dict(dimension=3, radius=12.0, resolution=30),
     "trivial"),
]


@pytest.mark.parametrize("kind, dom_kw, label",
                         BUILDER_CASES + QUOTIENT_CASES)
def test_corner_table_matches_the_coo_oracle(monkeypatch, kind, dom_kw,
                                             label, rng):
    # the oracle sums the builder's corners through scipy's COO format; on
    # a quotient the representative cells' corners move to their orbits
    seen = []
    real = grid._cell_operator

    def recorded(*args):
        seen.append(args)
        return real(*args)
    monkeypatch.setattr(grid, "_cell_operator", recorded)
    full = grid.build_domain(kind, **dom_kw)
    g = group.build_group(full, label)
    dom = group.quotient(g)
    cs = dom.cells
    nodes, tables = seen[0]
    if dom is not full:
        fb = group.fix_basis(g)
        reps = group._cell_orbits(g)[0]
        tables = [np.broadcast_to(t, nodes.shape)[reps] for t in tables]
        nodes = np.append(fb.orbit, fb.reps.shape[0])[nodes[reps]]
    op = grid_oracle.cell_operator(nodes, tables, cs.n_columns)
    blocks = cs.table.shape[0]
    assert cs.cols.shape[0] <= 4

    # forward: bitwise, a zero's sign aside (== does not see it)
    stack = rng.standard_normal((3, dom.n_nodes))
    for values in (stack, stack[0]):
        want = (op @ cs.extend(values).T).T.reshape(
            *values.shape[:-1], blocks, cs.count)
        assert np.array_equal(cs.apply(values), want)
    # transposed: within roundoff of the sum of absolute terms
    coefs = rng.standard_normal((blocks, cs.count))
    op = grid_oracle.folded(cs, op)
    want = op.T @ coefs.reshape(-1)
    bound = abs(op).T @ np.abs(coefs).reshape(-1)
    assert np.all(np.abs(cs.apply_t(coefs) - want) <= 1e-14 * bound)
    # each row of a stack gets bitwise what it gets on its own
    parts = grid.cell_values(dom, stack)
    full_stack = rng.standard_normal((3, full.n_nodes))
    means = group.average_values(g, full_stack)
    for i in range(3):
        for part, alone in zip(parts, grid.cell_values(dom, stack[i])):
            assert np.array_equal(part[i], alone)
        assert np.array_equal(means[i],
                              group.average_values(g, full_stack[i]))


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
    elements = grid_oracle.elements(g)
    for i in range(dom.n_nodes):
        members = np.flatnonzero(basis.orbit == basis.orbit[i])
        assert np.array_equal(members, np.unique(elements[:, i]))
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
    assert grid_oracle.folded(quot.cells).shape == (3 * cells, nodes)


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
                            gens=swap[None])
    with pytest.raises(SymmetryCompatibilityError, match="onto no cell"):
        group.quotient(g)
