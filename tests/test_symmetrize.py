import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symcrit import functional, grid, group, integrand, symmetrize
from symcrit.errors import (
    DomainMismatchError,
    ParameterError,
    SymmetryCompatibilityError,
    UnsupportedDomainError,
)

from conftest import random_function
import grid_oracle


@pytest.fixture(scope="module")
def square_dom():
    return grid.build_domain("square", side=2.0, resolution=3)


@pytest.fixture(scope="module")
def disk_dom():
    return grid.build_domain("disk-polar", radius=3.0, resolution=3,
                             angular_resolution=8)


@pytest.fixture(scope="module")
def ball_dom():
    return grid.build_domain("radial-ball-1d", dimension=3, radius=5.0,
                             resolution=12)


@pytest.fixture(scope="module")
def ring8_dom():
    # interior rings of 8 equal-weight nodes: brute-force territory
    return grid.build_domain("disk-polar", radius=2.0, resolution=3,
                             angular_resolution=8)


# ---------------------------------------------------------------------------
# polarizer construction


def test_polarizer_rejects_weight_mismatch(square_dom):
    w = square_dom.weights
    interior = int(np.nonzero(square_dom.interior)[0][0])
    corner = int(np.argmin(w))
    assert w[interior] != w[corner]
    with pytest.raises(SymmetryCompatibilityError):
        symmetrize.Polarizer(square_dom, np.array([[interior, corner]]))


def test_polarizer_rejects_malformed_pairs(square_dom):
    with pytest.raises(ParameterError):
        symmetrize.Polarizer(square_dom, np.zeros((0, 2), dtype=int))
    with pytest.raises(ParameterError):
        symmetrize.Polarizer(square_dom, np.array([[1, 1]]))
    with pytest.raises(ParameterError):
        symmetrize.Polarizer(square_dom, np.array([[0, 10 ** 6]]))
    with pytest.raises(ParameterError):
        # node 6 appears in two pairs
        symmetrize.Polarizer(square_dom, np.array([[6, 7], [6, 8]]))


def test_square_reflections(square_dom):
    mirrors = symmetrize.reflection_polarizers(square_dom)
    assert len(mirrors) == 4
    for h in mirrors:
        perm = h.permutation
        assert grid.is_edge(square_dom, perm[square_dom.edges]).all()
        assert np.array_equal(perm[perm], np.arange(square_dom.n_nodes))
        assert np.all(h.pairs[:, 0] < h.pairs[:, 1])


def test_disk_and_radial_reflections(disk_dom, ball_dom):
    mirrors = symmetrize.reflection_polarizers(disk_dom)
    assert len(mirrors) == 1
    assert grid.is_edge(disk_dom, mirrors[0].permutation[disk_dom.edges]).all()
    assert symmetrize.reflection_polarizers(ball_dom) == ()


def test_reflections_reject_asymmetric_weights(square_dom):
    w = square_dom.weights.copy()
    w[np.nonzero(square_dom.interior)[0][0]] *= 1.5
    tampered = dataclasses.replace(square_dom, weights=w)
    with pytest.raises(SymmetryCompatibilityError):
        symmetrize.reflection_polarizers(tampered)


# ---------------------------------------------------------------------------
# polarize


def test_polarize_moves_max_to_positive_side(ring8_dom):
    h = symmetrize.Polarizer(ring8_dom, np.array([[1, 3]]))
    vals = np.zeros(ring8_dom.n_nodes)
    vals[1], vals[3] = 1.0, 3.0
    u = grid.GridFunction(ring8_dom, vals)
    uh = symmetrize.polarize(u, h)
    assert uh.values[1] == 3.0 and uh.values[3] == 1.0
    again = symmetrize.polarize(uh, h)
    assert np.array_equal(again.values, uh.values)


def test_polarize_domain_mismatch(square_dom, disk_dom):
    h = symmetrize.reflection_polarizers(square_dom)[0]
    u = grid.zeros(disk_dom)
    with pytest.raises(DomainMismatchError):
        symmetrize.polarize(u, h)


def test_polarize_idempotent(square_dom, disk_dom, rng):
    for dom in (square_dom, disk_dom):
        for h in symmetrize.reflection_polarizers(dom):
            for _ in range(25):
                u = random_function(dom, rng)
                uh = symmetrize.polarize(u, h)
                assert np.array_equal(
                    symmetrize.polarize(uh, h).values, uh.values)


@given(
    a1=st.floats(-1e6, 1e6), a2=st.floats(-1e6, 1e6),
    b1=st.floats(-1e6, 1e6), b2=st.floats(-1e6, 1e6),
    p=st.sampled_from([1.0, 2.0, 4.0]),
)
def test_two_point_contraction_inequality(a1, a2, b1, b2, p):
    lhs = (abs(max(a1, a2) - max(b1, b2)) ** p
           + abs(min(a1, a2) - min(b1, b2)) ** p)
    rhs = abs(a1 - b1) ** p + abs(a2 - b2) ** p
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


def test_polarize_contracts_lp(square_dom, disk_dom, rng):
    for dom in (square_dom, disk_dom):
        mirrors = symmetrize.reflection_polarizers(dom)
        for _ in range(100):
            u = random_function(dom, rng)
            v = random_function(dom, rng)
            for h in mirrors:
                uh = symmetrize.polarize(u, h)
                vh = symmetrize.polarize(v, h)
                for p in (1.0, 2.0, 4.0):
                    before = grid.norm_lm(
                        grid.GridFunction(dom, u.values - v.values), p)
                    after = grid.norm_lm(
                        grid.GridFunction(dom, uh.values - vh.values), p)
                    assert after <= before * (1 + 1e-12) + 1e-15


# ---------------------------------------------------------------------------
# rearrangement


def test_weight_classes_structure(square_dom, disk_dom, ball_dom):
    sq = symmetrize.weight_classes(square_dom)
    assert len(sq) == 1
    assert sq[0].shape[0] == int(np.count_nonzero(square_dom.interior))
    dk = symmetrize.weight_classes(disk_dom)
    n_theta = disk_dom.meta["n_theta"]
    assert [c.shape[0] for c in dk] == [n_theta] * 3
    bl = symmetrize.weight_classes(ball_dom)
    assert all(c.shape[0] == 1 for c in bl)


@pytest.mark.parametrize("res", [8, 9, 45, 127])
def test_square_class_order_matches_float_radius_grouping(res):
    # the exact integer radius key against float radii grouped within a
    # tolerance; mirror partners share a radius, so the node index orders
    # them and the rearranged function is fixed by its own mirrors
    dom = grid.build_domain("square", side=6.0, resolution=res)
    want, rank = grid_oracle.square_class(dom)
    classes = symmetrize.weight_classes(dom)
    assert classes.shape == (1, want.shape[0])
    assert np.array_equal(classes[0], want)
    for perm in group.mirrors(dom):
        assert np.array_equal(rank[perm], rank)


def test_weight_classes_reject_tampered_weights(square_dom, disk_dom):
    # one interior node of the square, one node of a polar ring
    for dom, node in ((square_dom, np.nonzero(square_dom.interior)[0][0]),
                      (disk_dom, disk_dom.meta["n_theta"] + 3)):
        w = dom.weights.copy()
        w[node] *= 1.5
        tampered = dataclasses.replace(dom, weights=w)
        with pytest.raises(UnsupportedDomainError):
            symmetrize.weight_classes(tampered)


def test_schwarz_sorts_within_classes(square_dom, disk_dom, rng):
    for dom in (square_dom, disk_dom):
        for _ in range(20):
            u = random_function(dom, rng)
            star = symmetrize.schwarz(u)
            assert np.all(star.values >= 0)
            for cls in symmetrize.weight_classes(dom):
                vals = star.values[cls]
                assert np.all(np.diff(vals) <= 0)
                assert sorted(vals) == sorted(np.abs(u.values[cls]))


def test_schwarz_preserves_lebesgue_norms(square_dom, disk_dom, rng):
    for dom in (square_dom, disk_dom):
        for _ in range(20):
            u = random_function(dom, rng)
            star = symmetrize.schwarz(u)
            for m in (1.8, 3.0):
                ref = grid.norm_lm(grid.GridFunction(dom, np.abs(u.values)), m)
                assert grid.norm_lm(star, m) == pytest.approx(ref, rel=1e-13)


def test_schwarz_fixes_sorted_nonnegative(disk_dom):
    # non-increasing within each ring already: schwarz must not move it
    vals = np.zeros(disk_dom.n_nodes)
    n_theta = disk_dom.meta["n_theta"]
    for cls in symmetrize.weight_classes(disk_dom):
        vals[cls] = np.linspace(5.0, 1.0, n_theta)
    u = grid.GridFunction(disk_dom, vals)
    assert np.array_equal(symmetrize.schwarz(u).values, u.values)


def test_schwarz_radial_is_absolute_value(ball_dom, rng):
    for _ in range(10):
        u = random_function(ball_dom, rng)
        assert np.array_equal(symmetrize.schwarz(u).values, np.abs(u.values))


def test_schwarz_values_prices_each_row_of_a_stack(square_dom, disk_dom,
                                                   ball_dom, rng):
    for dom in (square_dom, disk_dom, ball_dom):
        stack = np.stack([random_function(dom, rng).values
                          for _ in range(5)])
        out = symmetrize.schwarz_values(dom, stack)
        assert out.shape == stack.shape
        for row, got in zip(stack, out):
            assert np.array_equal(got, symmetrize.schwarz_values(dom, row))


def test_schwarz_bruteforce_oracle(ring8_dom):
    cls = symmetrize.weight_classes(ring8_dom)[0]
    assert cls.shape[0] == 8

    def oracle(class_values):
        best = None
        for perm in itertools.permutations(class_values):
            arr = np.array(perm)
            if np.all(np.diff(arr) <= 0):
                if best is None:
                    best = arr
                else:
                    assert np.array_equal(best, arr)
        return best

    for values in ([7.0, -5.0, 2.0, 5.0, 0.0, 1.0, -4.0, 3.0],
                   [0.0, 5.0, 2.0, 5.0, 0.0, 1.0, 4.0, 7.0]):
        vals = np.zeros(ring8_dom.n_nodes)
        vals[cls] = values
        star = symmetrize.schwarz(grid.GridFunction(ring8_dom, vals))
        assert np.array_equal(star.values[cls],
                              oracle(np.abs(np.array(values))))
    # frozen spot check for the duplicated-value pattern
    assert list(star.values[cls]) == [7.0, 5.0, 5.0, 4.0, 2.0, 1.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# metric projection onto the rearrangement cone


def projection_oracle(values):
    """Exact projection onto non-increasing nonnegative sequences.

    The optimum is constant on contiguous blocks, so enumerating all
    2^(n-1) block partitions, clipping each block-mean candidate at zero
    and keeping the feasible ones finds it by exhaustion.
    """
    n = len(values)
    best, best_d = None, None
    for mask in range(1 << (n - 1)):
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        cand = np.empty(n)
        for a, b in zip(cuts, cuts[1:]):
            cand[a:b] = np.mean(values[a:b])
        cand = np.maximum(cand, 0.0)
        if np.all(np.diff(cand) <= 1e-12):
            d = float(np.sum((cand - values) ** 2))
            if best is None or d < best_d:
                best, best_d = cand, d
    return best


def test_cone_project_matches_bruteforce(ring8_dom):
    cls = symmetrize.weight_classes(ring8_dom)[0]
    for values in ([1.0, 3.0, 2.0, -0.5, 0.25, -2.0, 1.5, 0.5],
                   [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 4.0],
                   [5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.125]):
        vals = np.zeros(ring8_dom.n_nodes)
        vals[cls] = values
        proj = symmetrize.cone_project(grid.GridFunction(ring8_dom, vals))
        want = projection_oracle(np.array(values))
        assert np.max(np.abs(proj.values[cls] - want)) <= 1e-12


def test_cone_project_fixes_rearranged_input(square_dom, disk_dom, rng):
    for dom in (square_dom, disk_dom):
        for _ in range(25):
            star = symmetrize.schwarz(random_function(dom, rng))
            proj = symmetrize.cone_project(star)
            assert np.array_equal(proj.values, star.values)


def test_cone_project_lands_on_cone(square_dom, disk_dom, ball_dom, rng):
    for dom in (square_dom, disk_dom, ball_dom):
        for _ in range(25):
            proj = symmetrize.cone_project(random_function(dom, rng))
            assert np.array_equal(symmetrize.schwarz(proj).values,
                                  proj.values)
            again = symmetrize.cone_project(proj)
            assert np.array_equal(again.values, proj.values)


def test_cone_project_is_nearest_point(square_dom, disk_dom, rng):
    # closer than any sampled cone point in the weighted metric, and in
    # particular never farther than the rearrangement itself
    for dom in (square_dom, disk_dom):
        w = dom.weights
        for _ in range(50):
            u = random_function(dom, rng)
            proj = symmetrize.cone_project(u)
            d_proj = float(np.sum(w * (u.values - proj.values) ** 2))
            star = symmetrize.schwarz(u)
            assert d_proj <= np.sum(w * (u.values - star.values) ** 2) + 1e-12
            for scale in (0.1, 1.0, 10.0):
                v = symmetrize.schwarz(random_function(dom, rng))
                d_v = float(np.sum(w * (u.values - scale * v.values) ** 2))
                assert d_proj <= d_v + 1e-12


def test_cone_project_radial_is_clipping(ball_dom, rng):
    # singleton classes leave only the sign constraint: projection clips
    # where the rearrangement would reflect
    for _ in range(10):
        u = random_function(ball_dom, rng)
        proj = symmetrize.cone_project(u)
        assert np.array_equal(proj.values, np.maximum(u.values, 0.0))


# ---------------------------------------------------------------------------
# plan


def test_plan_matches_schwarz_bitwise(square_dom, disk_dom, rng):
    for dom in (square_dom, disk_dom):
        p = symmetrize.plan(dom)
        assert p.swap_count <= p.swap_bound
        for _ in range(200):
            u = random_function(dom, rng)
            planned = symmetrize.apply_plan(p, u)
            assert np.array_equal(planned.values,
                                  symmetrize.schwarz(u).values)


def test_plan_fixes_rearranged_input(square_dom, rng):
    p = symmetrize.plan(square_dom)
    for _ in range(20):
        star = symmetrize.schwarz(random_function(square_dom, rng))
        assert np.array_equal(symmetrize.apply_plan(p, star).values,
                              star.values)


def _network_sorted(rows):
    """Run each row through Batcher's network on its length, comparator
    by comparator: the lower wire keeps the larger value."""
    rows = rows.copy()
    for pairs in symmetrize._batcher_rounds(rows.shape[1]):
        for i, j in pairs:
            a, b = rows[:, i], rows[:, j]
            rows[:, i], rows[:, j] = np.maximum(a, b), np.minimum(a, b)
    return rows


@pytest.mark.parametrize("n", range(1, 13))
def test_network_zero_one_principle(n):
    # a comparator network sorts every input iff it sorts every 0/1 input
    rows = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    out = _network_sorted(rows.astype(float))
    assert np.all(out[:, 1:] <= out[:, :-1])
    assert np.array_equal(out.sum(axis=1), rows.sum(axis=1))


def test_network_sorts_every_size_to_130(rng):
    for n in range(1, 131):
        rows = np.stack([rng.standard_normal(n),
                         rng.integers(0, 3, n).astype(float),
                         np.full(n, 0.5),
                         np.arange(n, dtype=float)])
        assert np.array_equal(_network_sorted(rows),
                              np.sort(rows, axis=1)[:, ::-1])
        assert all(pairs.shape[0] for pairs in symmetrize._batcher_rounds(n))


@pytest.mark.parametrize("k", range(11))
def test_network_has_batcher_count(k):
    rounds = list(symmetrize._batcher_rounds(2 ** k))
    assert len(rounds) == k * (k + 1) // 2
    count = sum(pairs.shape[0] for pairs in rounds)
    assert count == ((k * k - k + 4) * 2 ** k) // 4 - 1


def test_plan_counts_batcher_comparators_per_ring(ball_dom):
    dom = grid.build_domain("disk-polar", radius=6.0, resolution=5,
                            angular_resolution=64)
    assert symmetrize.plan(dom).swap_count == 5 * 543
    assert symmetrize.plan(ball_dom).rounds == ()


def _class_sizes_to_130():
    squares = [grid.build_domain("square", side=2.0, resolution=r)
               for r in range(3, 12)]
    rings = [grid.build_domain("disk-polar", radius=2.0, resolution=3,
                               angular_resolution=n)
             for n in range(8, 129, 8)]
    return squares + rings


def test_plan_matches_schwarz_on_class_sizes_to_130(rng):
    for dom in _class_sizes_to_130():
        p = symmetrize.plan(dom)
        reverse = np.zeros(dom.n_nodes)
        for cls in symmetrize.weight_classes(dom):
            reverse[cls] = np.arange(1, cls.shape[0] + 1)
        tied = rng.integers(-2, 3, dom.n_nodes).astype(float)
        equal = np.full(dom.n_nodes, -1.5)
        for vals in (reverse, tied, equal, random_function(dom, rng).values):
            u = grid.GridFunction(dom, vals)
            assert np.array_equal(symmetrize.apply_plan(p, u).values,
                                  symmetrize.schwarz(u).values)


def test_plan_rounds_are_disjoint_within_one_class(square_dom, disk_dom):
    annulus = grid.build_domain("annulus-polar", inner_radius=1.0,
                                outer_radius=3.0, resolution=4,
                                angular_resolution=16)
    for dom in (square_dom, disk_dom, annulus):
        label = np.full(dom.n_nodes, -1)
        place = np.full(dom.n_nodes, -1)
        for c, cls in enumerate(symmetrize.weight_classes(dom)):
            label[cls] = c
            place[cls] = np.arange(cls.shape[0])
        for h in symmetrize.plan(dom).rounds:
            pos, neg = h.pairs[:, 0], h.pairs[:, 1]
            assert np.unique(h.pairs).shape[0] == 2 * h.pairs.shape[0]
            assert np.all(label[pos] >= 0)
            assert np.array_equal(label[pos], label[neg])
            assert np.all(place[pos] < place[neg])


def test_plan_distance_monotone(square_dom, disk_dom, rng):
    for dom in (square_dom, disk_dom):
        p = symmetrize.plan(dom)
        for _ in range(20):
            u = random_function(dom, rng)
            _, dists = symmetrize.apply_plan(p, u, record_distance=True)
            assert dists.shape[0] == p.swap_count + 1
            assert np.all(np.diff(dists) <= 1e-12 * (1 + dists[:-1]))
            assert dists[-1] <= 1e-13
            # reference: one comparator at a time, full squared distance
            # after each; the plan prices a round's steps from a running
            # sum, so they agree to rounding in the squared distance
            target = symmetrize.schwarz(u).values
            vals = np.abs(u.values)
            ref = [np.sum(dom.weights * (vals - target) ** 2)]
            for h in p.rounds:
                for i, j in h.pairs:
                    vals[i], vals[j] = max(vals[i], vals[j]), min(vals[i],
                                                                  vals[j])
                    ref.append(np.sum(dom.weights * (vals - target) ** 2))
            assert np.allclose(dists ** 2, ref, rtol=0.0,
                               atol=1e-12 * ref[0])


def test_schwarz_commutes_with_polarization(square_dom, rng):
    # (u^H)* = u* and (u*)^H = u*, exactly
    for h in symmetrize.reflection_polarizers(square_dom):
        for _ in range(25):
            u = random_function(square_dom, rng)
            star = symmetrize.schwarz(u)
            uh = symmetrize.polarize(u, h)
            assert np.array_equal(symmetrize.schwarz(uh).values, star.values)
            assert np.array_equal(symmetrize.polarize(star, h).values,
                                  star.values)


def test_schwarz_fixed_under_mirrors_with_inexact_spacing(rng):
    # node spacing 1/3 makes mirror partners' squared radii differ in the
    # last ulps; the class order must still tie-break those by node index
    # or the rearranged function stops being fixed under its own mirrors
    dom = grid.build_domain("square", side=2.0, resolution=5)
    r2 = dom.radius2[dom.interior]
    assert np.unique(r2).shape[0] > np.unique(np.round(r2, 6)).shape[0]
    for _ in range(25):
        star = symmetrize.schwarz(random_function(dom, rng))
        for h in symmetrize.reflection_polarizers(dom):
            assert np.array_equal(symmetrize.polarize(star, h).values,
                                  star.values)


# ---------------------------------------------------------------------------
# edge Dirichlet energy under mirrors


def test_edge_dirichlet_decrease(square_dom, disk_dom, rng):
    for dom in (square_dom, disk_dom):
        mirrors = symmetrize.reflection_polarizers(dom)
        for _ in range(300):
            u = random_function(dom, rng)
            for h in mirrors:
                uh = symmetrize.polarize(u, h)
                for p in (1.8, 2.0, 3.0):
                    before = symmetrize.edge_dirichlet_energy(dom, u.values, p)
                    after = symmetrize.edge_dirichlet_energy(dom, uh.values, p)
                    assert after <= before * (1 + 1e-12)


# ---------------------------------------------------------------------------
# axiom report


def test_check_axioms_square(square_dom):
    report = symmetrize.check_axioms(square_dom, samples=20, seed=7)
    assert report.all_passed
    assert report.idempotence_max == 0.0
    assert report.schwarz_fixed_max == 0.0
    assert report.contraction_max_ratio <= 1 + 1e-12
    assert report.theta_lipschitz_estimate <= 1 + 1e-12
    assert report.plan_exact
    assert report.dirichlet_decrease_violations == 0
    assert report.adversarial_rejected
    d = report.to_dict()
    assert d["all_passed"] is True
    assert d["plan_swaps"] <= d["plan_swap_bound"]


@pytest.mark.parametrize("kind, dom_kw", [
    ("disk-polar", dict(radius=6.0, resolution=32, angular_resolution=64)),
    ("annulus-polar", dict(inner_radius=1.0, outer_radius=3.0,
                           resolution=4, angular_resolution=16)),
])
def test_check_axioms_polar(kind, dom_kw):
    report = symmetrize.check_axioms(grid.build_domain(kind, **dom_kw),
                                     seed=7)
    assert report.all_passed
    assert report.plan_exact
    assert report.distance_monotone


def test_check_axioms_radial(ball_dom):
    report = symmetrize.check_axioms(ball_dom, samples=10, seed=7)
    assert report.all_passed
    assert report.plan_swaps == 0


def test_check_axioms_sample_guard(square_dom):
    with pytest.raises(ParameterError):
        symmetrize.check_axioms(square_dom, samples=0)
    # numpy's generators refuse a negative seed
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        symmetrize.check_axioms(square_dom, seed=-1)


# ---------------------------------------------------------------------------
# energy-decrease gate


def test_hypothesis_b_radial_plaplace(ball_dom):
    model = functional.EnergyModel(
        domain=ball_dom, integrand=integrand.builtin("plaplace", p=2.0),
        q=4.0, positivity=True)
    report = symmetrize.hypothesis_b_check(model, samples=60, seed=3)
    assert report.passed
    assert report.max_excess == 0.0
    assert report.polarizer_count == 0
    assert report.theta_violations == 0


def test_hypothesis_b_report_consistency(disk_dom):
    model = functional.EnergyModel(
        domain=disk_dom, integrand=integrand.builtin("modulated", p=1.8),
        q=3.0, positivity=True)
    report = symmetrize.hypothesis_b_check(model, samples=40, seed=3)
    assert report.passed == (report.theta_violations == 0
                             and report.polarization_violations == 0)
    keys = set(report.to_dict())
    assert {"passed", "theta_violations", "polarization_violations",
            "max_excess"} <= keys


def hypothesis_b_loop(model, samples, seed, tolerance=1e-10):
    """The energy-decrease gate one sample and one energy call at a time:
    the oracle of the stacked gate."""
    rng = np.random.default_rng(seed)
    reflections = symmetrize.reflection_polarizers(model.domain)
    theta = polarization = 0
    max_excess = 0.0
    for _ in range(samples):
        u = grid.GridFunction(model.domain,
                              rng.standard_normal(model.domain.n_nodes))
        fu = functional.energy_of_values(model, u.values)
        slack = tolerance * (1.0 + abs(fu))
        mag = grid.GridFunction(model.domain, np.abs(u.values))
        f_mag = functional.energy_of_values(model, mag.values)
        if f_mag > fu + slack:
            theta += 1
            max_excess = max(max_excess, (f_mag - fu) / (1.0 + abs(fu)))
        for h in reflections:
            fh = functional.energy_of_values(
                model, symmetrize.polarize(mag, h).values)
            if fh > fu + slack:
                polarization += 1
                max_excess = max(max_excess, (fh - fu) / (1.0 + abs(fu)))
    return theta, polarization, max_excess


@pytest.mark.parametrize("kind, dom_kw, p, q", [
    ("square", dict(side=6.0, resolution=5), 1.8, 3.0),
    ("annulus-polar", dict(inner_radius=1.0, outer_radius=3.0, resolution=4,
                           angular_resolution=8), 1.8, 3.0),
    ("radial-ball-1d", dict(dimension=3, radius=12.0, resolution=2),
     2.0, 4.0),
])
@pytest.mark.parametrize("block", [None, 50])
def test_hypothesis_b_stacks_match_a_per_sample_loop(monkeypatch, kind,
                                                     dom_kw, p, q, block):
    # the gate prices its samples as stacks, in one block or, with a small
    # block size, in several; its report must be bitwise the loop's, on
    # models with violations (of both kinds on the square and annulus; the
    # ball has no mirrors)
    if block is not None:
        monkeypatch.setattr(symmetrize, "_GATE_BLOCK_VALUES", block)
    model = functional.EnergyModel(
        domain=grid.build_domain(kind, **dom_kw),
        integrand=integrand.builtin("modulated", p=p), q=q)
    report = symmetrize.hypothesis_b_check(model, samples=37, seed=3)
    want = hypothesis_b_loop(model, 37, 3)
    assert (report.theta_violations, report.polarization_violations,
            report.max_excess) == want
    assert report.theta_violations > 0
    assert report.polarization_violations > 0 or kind == "radial-ball-1d"
    assert not report.passed
