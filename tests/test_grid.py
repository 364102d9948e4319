import dataclasses
import math
import warnings

import numpy as np
import pytest

from symcrit import functional, grid, group, integrand
from symcrit.errors import (ConfigurationError, ParameterError,
                            SymmetryCompatibilityError)

from conftest import random_function
import grid_oracle


# ---------------------------------------------------------------------------
# independent quadrature oracle


def radial_l2_oracle(radius, dimension, profile, samples=400_000):
    """Midpoint-rule integral of profile(r)^2 over the ball, no grid code."""
    r = (np.arange(samples) + 0.5) * (radius / samples)
    sphere = 2.0 * math.pi ** (dimension / 2) / math.gamma(dimension / 2)
    shell = sphere * r ** (dimension - 1) * (radius / samples)
    return math.sqrt(float(np.sum(profile(r) ** 2 * shell)))


# ---------------------------------------------------------------------------
# construction


def test_square_node_counts_and_weights():
    dom = grid.build_domain("square", side=1.0, resolution=3)
    assert dom.n_nodes == 25
    assert int(np.sum(~dom.boundary)) == 9
    assert int(np.sum(dom.boundary)) == 16
    interior_w = dom.weights[~dom.boundary]
    assert np.allclose(interior_w, 0.25 ** 2, rtol=0, atol=1e-15)


def test_weights_sum_to_volume(square_small, disk_small, annulus_small, ball_small):
    for dom in (square_small, disk_small, annulus_small, ball_small):
        assert abs(np.sum(dom.weights) - dom.volume) <= 1e-10 * dom.volume
        assert np.all(dom.weights > 0)


def test_radial_ball_weight_profile():
    dom = grid.build_domain("radial-ball-1d", dimension=3, radius=10.0,
                            resolution=100)
    exact = 4.0 / 3.0 * math.pi * 10.0 ** 3
    assert abs(np.sum(dom.weights) - exact) <= 1e-2 * exact
    # away from the ends the weight is the exact shell volume, which is
    # 4 pi r^2 dr up to the cubic correction pi dr^3 / 3
    dr = dom.meta["dr"]
    r = dom.coords[5:-5, 0]
    shell = 4 * math.pi * r ** 2 * dr + math.pi * dr ** 3 / 3
    assert np.allclose(dom.weights[5:-5], shell, rtol=1e-12)
    assert np.allclose(dom.weights[5:-5], 4 * math.pi * r ** 2 * dr, rtol=1e-2)


def test_angular_resolution_divisibility():
    # any angular resolution from 3 up builds; the rotation orders the
    # grid realizes are the divisors of it
    dom = grid.build_domain("disk-polar", radius=1.0, resolution=4,
                            angular_resolution=12)
    assert dom.meta["n_theta"] == 12
    for label in ("rotations_4", "dihedral_12"):
        assert group.build_group(dom, label).label == label
    with pytest.raises(SymmetryCompatibilityError,
                       match="does not divide the grid's 12 turns"):
        group.build_group(dom, "rotations_8")


@pytest.mark.parametrize("kind, geometry, foreign", [
    ("square", dict(side=6.0), "angular_resolution"),
    ("disk-polar", dict(radius=6.0, angular_resolution=16), "side"),
    ("annulus-polar", dict(inner_radius=1.0, outer_radius=6.0,
                           angular_resolution=16), "dimension"),
    ("radial-ball-1d", dict(dimension=3, radius=12.0), "inner_radius"),
])
def test_build_domain_takes_exactly_its_kinds_keys(kind, geometry, foreign):
    # a key of another kind and a missing key are refused by name, where
    # the first was once ignored
    assert geometry.keys() == grid.GEOMETRY[kind].keys()
    assert grid.build_domain(kind, resolution=4, **geometry).kind == kind
    expected = f"a {kind} domain takes the geometry keys {sorted(geometry)}"
    with pytest.raises(ConfigurationError) as err:
        grid.build_domain(kind, resolution=4, **geometry, **{foreign: 1})
    assert str(err.value) == \
        f"{expected}, got {sorted([*geometry, foreign])}"
    for key in geometry:
        fewer = {k: v for k, v in geometry.items() if k != key}
        with pytest.raises(ConfigurationError) as err:
            grid.build_domain(kind, resolution=4, **fewer)
        assert str(err.value) == f"{expected}, got {sorted(fewer)}"


def test_resolution_floor():
    with pytest.raises(ConfigurationError):
        grid.build_domain("square", side=1.0, resolution=2)
    with pytest.raises(ConfigurationError):
        grid.build_domain("radial-ball-1d", dimension=3, radius=1.0,
                          resolution=1)
    # the radial chain supports the minimal two-unknown configuration
    dom = grid.build_domain("radial-ball-1d", dimension=3, radius=1.0,
                            resolution=2)
    assert int(np.count_nonzero(dom.interior)) == 2


def test_unknown_kind():
    with pytest.raises(ConfigurationError):
        grid.build_domain("hexagon", side=1.0, resolution=4)


def test_ball_needs_dimension():
    with pytest.raises(ConfigurationError):
        grid.build_domain("radial-ball-1d", radius=1.0, resolution=10)
    with pytest.raises(ConfigurationError):
        grid.build_domain("radial-ball-1d", dimension=1, radius=1.0,
                          resolution=10)


def test_polar_excludes_center():
    disk = grid.build_domain("disk-polar", radius=2.0, resolution=5,
                             angular_resolution=8)
    assert np.min(disk.radius2) > 0


# ---------------------------------------------------------------------------
# builders against the COO oracle

ORACLE_DOMAINS = [
    ("square", {"side": 6.0, "resolution": 9}),
    ("square", {"side": 6.0, "resolution": 45}),
    ("disk-polar", {"radius": 3.0, "resolution": 10,
                    "angular_resolution": 16}),
    ("disk-polar", {"radius": 3.0, "resolution": 48,
                    "angular_resolution": 128}),
    ("disk-polar", {"radius": 3.0, "resolution": 64,
                    "angular_resolution": 256}),
    ("annulus-polar", {"inner_radius": 1.0, "outer_radius": 3.0,
                       "resolution": 4, "angular_resolution": 8}),
    ("annulus-polar", {"inner_radius": 1.0, "outer_radius": 3.0,
                       "resolution": 20, "angular_resolution": 64}),
    ("radial-ball-1d", {"dimension": 3, "radius": 12.0, "resolution": 30}),
    ("radial-ball-1d", {"dimension": 3, "radius": 12.0, "resolution": 120}),
]


def assert_same_csr(cells, want):
    got = grid_oracle.as_csr(cells)
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


@pytest.mark.parametrize(
    "kind, extents", ORACLE_DOMAINS,
    ids=[f"{kind}-{extents['resolution']}"
         for kind, extents in ORACLE_DOMAINS])
def test_builders_match_the_coo_oracle_bitwise(monkeypatch, kind, extents):
    seen = {}

    def spy(name):
        real = getattr(grid, name)

        def recorded(*args):
            seen[name] = args
            return real(*args)
        monkeypatch.setattr(grid, name, recorded)

    spy("_cell_operator")
    spy("_quad_edges")
    dom = grid.build_domain(kind, **extents)
    assert_same_csr(dom.cells, grid_oracle.cell_operator(
        *seen["_cell_operator"], dom.cells.n_columns))
    # the folded map has one column per node; the center, where there is
    # one, is the mean of the first ring
    assert grid_oracle.folded(dom.cells).shape[1] == dom.n_nodes
    if kind == "disk-polar":
        n_theta = dom.meta["n_theta"]
        assert np.array_equal(
            grid_oracle.center_row(dom.cells).toarray()[0],
            np.repeat([1.0 / n_theta, 0.0],
                      [n_theta, dom.n_nodes - n_theta]))
    else:
        assert dom.cells.center_nodes is None
    # the ball's chain edges are its cells and need no deduplication
    if kind != "radial-ball-1d":
        assert np.array_equal(dom.edges,
                              grid_oracle.quad_edges(*seen["_quad_edges"]))
    if kind.endswith("-polar"):
        coords, radius2 = grid_oracle.polar_coords(
            dom.meta["radii"], dom.meta["n_theta"], dom.meta["d_theta"])
        assert np.array_equal(dom.coords, coords)
        assert np.array_equal(dom.radius2, radius2)
    for p in (1.8, 2.0):
        norms = grid.hat_w1p_norms(dom, p)
        want = grid_oracle.hat_w1p_norms(dom, p)
        # the disk prices its center cells apart from the folded rows
        if dom.cells.center_nodes is None:
            assert np.array_equal(norms, want)
        else:
            assert np.max(np.abs(norms - want) / want) <= 1e-13


def test_repeated_corners_merge_like_the_coo_oracle(rng):
    # five nodes and two extra columns (5 and 6): cells repeat a corner,
    # list their corners out of order and read both extra columns; a
    # repeated corner's zero sum leaves no entry
    nodes = np.array([[5, 5, 0, 1], [2, 6, 5, 1], [6, 6, 4, 3],
                      [0, 1, 2, 3], [4, 3, 1, 0]])
    tables = (0.25, rng.standard_normal(nodes.shape),
              rng.standard_normal(nodes.shape))
    tables[2][2, 1] = -tables[2][2, 0]
    cells = grid.CellSet(*grid._cell_operator(nodes, tables),
                         weights=np.ones(nodes.shape[0]), n_nodes=7)
    assert_same_csr(cells, grid_oracle.cell_operator(nodes, tables, 7))


# ---------------------------------------------------------------------------
# gradients


def test_distinct_is_numpy_unique(rng):
    # np.unique by sort and mask, without its numpy.ma import
    for keys in (np.zeros(0, dtype=np.int64), np.array([5]),
                 rng.integers(0, 20, size=50),
                 rng.integers(-3, 3, size=(4, 6))):
        want = np.unique(keys)
        got = grid.distinct(keys)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # and the numbering of the items, np.unique's inverse
        got, at = grid.numbering(keys.ravel())
        want, inverse = np.unique(keys.ravel(), return_inverse=True)
        assert np.array_equal(got, want) and np.array_equal(at, inverse)
        assert at.dtype == inverse.dtype


def test_zero_field_gradient(square_small, disk_small, ball_small):
    for dom in (square_small, disk_small, ball_small):
        u = grid.GridFunction(dom, np.zeros(dom.n_nodes))
        assert np.all(grid.cell_values(dom, u.values)[1] == 0.0)


def test_radial_linear_gradient():
    R, a = 10.0, 0.7
    dom = grid.build_domain("radial-ball-1d", dimension=3, radius=R,
                            resolution=40)
    u = grid.GridFunction(dom, a * (R - dom.coords[:, 0]))
    du = grid.cell_values(dom, u.values)[1]
    assert np.max(np.abs(du - a)) <= 1e-12


def test_square_coordinate_gradient():
    dom = grid.build_domain("square", side=2.0, resolution=7)
    vals = dom.coords[:, 0].copy()
    vals[dom.boundary] = 0.0
    u = grid.GridFunction(dom, vals)
    du = grid.cell_values(dom, u.values)[1]
    # cells whose four corners are all interior see the exact slope; the
    # positive average rows of the cell map touch exactly those corners
    averages = grid_oracle.folded(dom.cells)[:dom.cells.count]
    all_interior = averages @ dom.boundary.astype(float) == 0.0
    assert np.any(all_interior)
    assert np.max(np.abs(du[all_interior] - 1.0)) <= 1e-12


@pytest.mark.parametrize("kind, extents, label", [
    ("square", dict(side=6.0, resolution=9), None),
    ("disk-polar", dict(radius=6.0, resolution=10, angular_resolution=16),
     None),
    ("annulus-polar", dict(inner_radius=1.0, outer_radius=3.0, resolution=4,
                           angular_resolution=8), None),
    ("radial-ball-1d", dict(dimension=3, radius=12.0, resolution=30), None),
    ("square", dict(side=6.0, resolution=9), "dihedral_4"),
    ("disk-polar", dict(radius=6.0, resolution=10, angular_resolution=16),
     "rotations_8"),
    ("disk-polar", dict(radius=6.0, resolution=4, angular_resolution=48),
     "rotations_8"),
    ("annulus-polar", dict(inner_radius=1.0, outer_radius=3.0, resolution=4,
                           angular_resolution=8), "dihedral_2"),
])
def test_cell_rows_lie_on_their_average_row(kind, extents, label):
    # grid.CellForm takes each cell's corners from the columns of its
    # average row, whose coefficients are positive, and hat_w1p_norms each
    # center cell's corners; both on the map with the center's column and
    # on the folded map
    dom = grid.build_domain(kind, **extents)
    if label is not None:
        dom = group.quotient(group.build_group(dom, label))
    cs = dom.cells
    for op in (grid_oracle.as_csr(cs), grid_oracle.folded(cs)):
        avg = op[:cs.count]
        assert np.all(avg.data > 0)
        for start in range(cs.count, op.shape[0], cs.count):
            rows = op[start:start + cs.count]
            assert rows.multiply(avg).count_nonzero() == rows.count_nonzero()
    # at most four corners per cell on the map the code reads
    assert np.diff(grid_oracle.as_csr(cs).indptr[:cs.count + 1]).max() <= 4


@pytest.mark.parametrize("rings, angles", [(64, 256), (32, 512), (16, 1024),
                                           (8, 2048)])
def test_disk_cell_map_is_linear_in_the_grid_size(rings, angles):
    # about 17k nodes each; with the center folded into the core rows the
    # map held 20 to 466 entries per node, growing with the angles
    dom = grid.build_domain("disk-polar", radius=6.0, resolution=rings,
                            angular_resolution=angles)
    assert grid_oracle.as_csr(dom.cells).nnz <= 13 * dom.n_nodes


CENTER_CASES = [
    (dict(resolution=10, angular_resolution=16), None),
    (dict(resolution=10, angular_resolution=16), "rotations_8"),
    (dict(resolution=10, angular_resolution=16), "dihedral_8"),
    # one orbit on the first ring: the quotient's core cells read one node
    (dict(resolution=20, angular_resolution=32), "rotations_32"),
]


@pytest.mark.parametrize("extents, label", CENTER_CASES)
def test_center_column_matches_the_folded_map(extents, label, rng):
    # cell quantities, the transposed map, the residual and the hat norms
    # against the same products with the folded map
    dom = grid.build_domain("disk-polar", radius=6.0, **extents)
    if label is not None:
        dom = group.quotient(group.build_group(dom, label))
    cs = dom.cells
    op = grid_oracle.folded(cs)

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    stack = rng.standard_normal((3, dom.n_nodes))
    stack[:, dom.boundary] = 0.0
    for values in (stack, stack[0]):
        avg, t, grads = grid.cell_values(dom, values)
        want = (op @ values.T).T.reshape(*values.shape[:-1], -1, cs.count)
        close(avg, want[..., 0, :])
        close(grads, want[..., 1:, :])
        close(t, np.sqrt((want[..., 1:, :] ** 2).sum(axis=-2)))
    coef = rng.standard_normal(op.shape[0])
    close(cs.apply_t(coef.reshape(-1, cs.count)), op.T @ coef)

    model = functional.EnergyModel(
        domain=dom, integrand=integrand.builtin("modulated", p=1.8), q=3.0)
    cells = (op @ stack[0]).reshape(-1, cs.count)
    avg, grads = cells[0], cells[1:]
    t = np.sqrt((grads * grads).sum(axis=0))
    w, j_t = cs.weights, model.integrand.j_t(avg, t)
    ratio = np.divide(w * j_t, t, out=np.zeros_like(t), where=t > 0)
    want = op.T @ np.concatenate([w * functional._value_slope(model, avg, t),
                                  (ratio * grads).reshape(-1)])
    want[dom.boundary] = 0.0
    close(functional.residual_of_values(model, stack[0]), want)

    for p in (1.8, 2.0):
        norms = grid.hat_w1p_norms(dom, p)
        want = grid_oracle.hat_w1p_norms(dom, p)
        assert np.max(np.abs(norms - want) / want) <= 1e-13


# ---------------------------------------------------------------------------
# norms


def test_norm_rejects_bad_exponents(ball_small):
    u = grid.GridFunction(ball_small, np.zeros(ball_small.n_nodes))
    with pytest.raises(ParameterError):
        grid.norm_lm(u, 0.5)
    with pytest.raises(ParameterError):
        grid.norm_w1p(u, 1.0)


def test_hat_norms_match_their_definition(square_small, disk_small,
                                          ball_small):
    # includes the disk's ring-1 nodes, which also feed the core cells
    # through the reconstructed center value
    for dom in (square_small, disk_small, ball_small):
        for p in (1.8, 2.0):
            norms = grid.hat_w1p_norms(dom, p)
            for i in np.flatnonzero(dom.interior):
                hat = np.zeros(dom.n_nodes)
                hat[i] = 1.0
                direct = grid.norm_w1p(grid.GridFunction(dom, hat), p)
                assert norms[i] == pytest.approx(direct, rel=1e-12)


def test_replaced_domain_does_not_share_derived_geometry(disk_small):
    before = grid.hat_w1p_norms(disk_small, 2.0)
    heavier = dataclasses.replace(disk_small, weights=2.0 * disk_small.weights)
    after = grid.hat_w1p_norms(heavier, 2.0)
    assert not np.allclose(after, before)
    assert np.array_equal(grid.hat_w1p_norms(disk_small, 2.0), before)


def test_stacked_norms_are_rowwise_bitwise(square_small, disk_small,
                                           ball_small, rng):
    for dom in (square_small, disk_small, ball_small):
        stack = rng.standard_normal((30, dom.n_nodes))
        stack[:, dom.boundary] = 0.0
        for m in (1.0, 1.8, 3.0):
            lm = grid.lm_norms(dom, stack, m)
            w1p = grid.w1p_norms(dom, stack, 1.0 + m)
            for k, row in enumerate(stack):
                u = grid.GridFunction(dom, row)
                assert lm[k] == grid.norm_lm(u, m)
                assert w1p[k] == grid.norm_w1p(u, 1.0 + m)


def test_zero_norms(square_small):
    u = grid.GridFunction(square_small, np.zeros(square_small.n_nodes))
    assert grid.norm_lm(u, 2) == 0.0
    assert grid.norm_w1p(u, 2) == 0.0


def test_gaussian_l2_against_refined_oracle():
    R = 10.0
    dom = grid.build_domain("radial-ball-1d", dimension=3, radius=R,
                            resolution=400)
    vals = np.exp(-dom.coords[:, 0] ** 2)
    vals[dom.boundary] = 0.0
    u = grid.GridFunction(dom, vals)
    oracle = radial_l2_oracle(R, 3, lambda r: np.exp(-r * r))
    # sanity: the closed form of the integral is (pi/2)^{3/2}
    assert abs(oracle ** 2 - (math.pi / 2) ** 1.5) < 1e-6
    assert abs(grid.norm_lm(u, 2) - oracle) <= 1e-3 * oracle


@pytest.mark.parametrize("m", [1.0, 2.0, 4.0])
def test_triangle_inequality_lm(square_small, rng, m):
    dom = square_small
    for _ in range(250):
        u = random_function(dom, rng)
        v = random_function(dom, rng)
        s = grid.GridFunction(dom, u.values + v.values)
        lhs = grid.norm_lm(s, m)
        rhs = grid.norm_lm(u, m) + grid.norm_lm(v, m)
        assert lhs <= rhs + 1e-12 * (1 + rhs)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_triangle_inequality_w1p(disk_small, rng, p):
    dom = disk_small
    for _ in range(100):
        u = random_function(dom, rng)
        v = random_function(dom, rng)
        s = grid.GridFunction(dom, u.values + v.values)
        lhs = grid.norm_w1p(s, p)
        rhs = grid.norm_w1p(u, p) + grid.norm_w1p(v, p)
        assert lhs <= rhs + 1e-12 * (1 + rhs)


def test_norm_homogeneity(ball_small, rng):
    u = random_function(ball_small, rng)
    for c in (-3.5, 0.25, 7.0):
        cu = grid.GridFunction(ball_small, c * u.values)
        assert abs(grid.norm_lm(cu, 3) - abs(c) * grid.norm_lm(u, 3)) \
            <= 1e-12 * (1 + grid.norm_lm(u, 3))
        assert abs(grid.norm_w1p(cu, 2) - abs(c) * grid.norm_w1p(u, 2)) \
            <= 1e-12 * (1 + grid.norm_w1p(u, 2))


def test_refinement_consistency():
    """Norms of a fixed smooth profile settle as the grid refines."""
    R = 6.0
    profile = lambda r: np.cos(math.pi * r / (2 * R))
    oracle = radial_l2_oracle(R, 3, profile)
    errors = []
    for res in (16, 32, 64, 128):
        dom = grid.build_domain("radial-ball-1d", dimension=3, radius=R,
                                resolution=res)
        vals = profile(dom.coords[:, 0])
        vals[dom.boundary] = 0.0
        errors.append(abs(grid.norm_lm(grid.GridFunction(dom, vals), 2) - oracle))
    assert errors[-1] <= 0.01 * oracle
    for a, b in zip(errors, errors[1:]):
        assert b <= a * 1.05


# ---------------------------------------------------------------------------
# serialization


def test_gridfunction_roundtrip(tmp_path, disk_small, rng):
    u = random_function(disk_small, rng)
    path = tmp_path / "u.csv"
    grid.write_gridfunction(u, path, extra_comments=["config_hash = deadbeef"])
    text = path.read_text()
    assert text.startswith(grid.GRIDFUNCTION_HEADER + "\n")
    back = grid.read_gridfunction(disk_small, path)
    assert np.array_equal(back.values, u.values)


def write_rows_one_by_one(u, path, extra_comments=()):
    """The grid-function writer formatting one row at a time."""
    dom = u.domain
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(grid.GRIDFUNCTION_HEADER + "\n")
        for line in extra_comments:
            fh.write(f"# {line}\n")
        cols = ",".join(f"x{i}" for i in range(dom.coords.shape[1]))
        fh.write(f"index,{cols},value\n")
        for i in range(dom.n_nodes):
            coord_txt = ",".join(f"{c:.17g}" for c in dom.coords[i])
            fh.write(f"{i},{coord_txt},{u.values[i]:.17g}\n")


def test_gridfunction_text_matches_the_row_writer(
        tmp_path, square_small, disk_small, annulus_small, ball_small, rng):
    for dom in (square_small, disk_small, annulus_small, ball_small):
        u = random_function(dom, rng, scale=1e-3)
        u.values[np.flatnonzero(dom.interior)[:2]] = [-0.0, 1e300]
        comments = ["config_hash = deadbeef", f"kind = {dom.kind}"]
        grid.write_gridfunction(u, tmp_path / "block.csv",
                                extra_comments=comments)
        write_rows_one_by_one(u, tmp_path / "rows.csv",
                              extra_comments=comments)
        assert (tmp_path / "block.csv").read_bytes() \
            == (tmp_path / "rows.csv").read_bytes()


def test_gridfunction_header_check(tmp_path, disk_small):
    path = tmp_path / "bad.csv"
    path.write_text("not a header\n0,0,0,0\n")
    with pytest.raises(ConfigurationError):
        grid.read_gridfunction(disk_small, path)


def test_gridfunction_rejects_a_domain_of_the_same_size(tmp_path, rng):
    # a side-6 and a side-8 square of one resolution have the same nodes
    small = grid.build_domain("square", side=6.0, resolution=8)
    large = grid.build_domain("square", side=8.0, resolution=8)
    path = tmp_path / "u.csv"
    grid.write_gridfunction(random_function(small, rng), path)
    with pytest.raises(ConfigurationError, match="different domain"):
        grid.read_gridfunction(large, path)


def test_gridfunction_rejects_a_repeated_node(tmp_path, disk_small, rng):
    path = tmp_path / "u.csv"
    grid.write_gridfunction(random_function(disk_small, rng), path)
    lines = path.read_text().splitlines()
    row = next(line for line in lines if line.startswith("5,"))
    path.write_text("\n".join([*lines, row.rsplit(",", 1)[0] + ",7"]) + "\n")
    with pytest.raises(ConfigurationError, match="once each"):
        grid.read_gridfunction(disk_small, path)


def test_gridfunction_rejects_a_malformed_row(tmp_path, disk_small, rng):
    path = tmp_path / "u.csv"
    grid.write_gridfunction(random_function(disk_small, rng), path)
    path.write_text(path.read_text().replace("\n5,", "\n5,x", 1))
    with pytest.raises(ConfigurationError, match="malformed"):
        grid.read_gridfunction(disk_small, path)


def test_gridfunction_without_rows_is_refused_without_warning(
        tmp_path, disk_small, rng):
    # the header and the column names, but no node rows
    path = tmp_path / "u.csv"
    grid.write_gridfunction(random_function(disk_small, rng), path)
    lines = path.read_text().splitlines()
    names = next(i for i, line in enumerate(lines)
                 if line.startswith("index,"))
    path.write_text("\n".join(lines[:names + 1]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="got 0 rows"):
            grid.read_gridfunction(disk_small, path)


def test_gridfunction_boundary_clamp(ball_small):
    vals = np.ones(ball_small.n_nodes)
    u = grid.GridFunction(ball_small, vals)
    assert np.all(u.values[ball_small.boundary] == 0.0)


def test_gridfunction_rejects_nan(ball_small):
    vals = np.zeros(ball_small.n_nodes)
    vals[0] = np.nan
    with pytest.raises(ParameterError):
        grid.GridFunction(ball_small, vals)
