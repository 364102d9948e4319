"""Discretized group-invariant domains and grid functions.

A Domain carries nodes with positive quadrature weights that sum to the
volume of the continuum region, a homogeneous-Dirichlet boundary mask,
and a set of integration cells.  The cells own one linear map from nodal
values to per-cell averages and first-difference gradients, stored as a
table of each cell's corner columns and coefficients.  Every term of the
energy reads that same map, so the discrete energy is exactly
differentiable with respect to the nodal values and its gradient is the
transposed map applied to the per-cell partial derivatives.

Polar grids exclude the r = 0 node; the disk closes the core with cells
whose inner corner is a virtual center, the angular average of the first
ring.  The map carries that center as one extra column, and the cell set
keeps the node coefficients that define it, so every cell reads
at most four columns and the map stays linear in the grid size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DomainMismatchError,
    ParameterError,
)

GRIDFUNCTION_HEADER = "# symcrit-gridfunction v1"

#: The angular resolution of a polar grid must be a multiple of this, so
#: that every rotation order up to it can be realized; any other divisor
#: of the angular resolution is a rotation order too.
MAX_ROTATION_ORDER = 8

#: Largest number of interior unknowns whose ``CellForm.matrix`` is a dense
#: ndarray, factored by numpy's LAPACK; larger systems are scipy CSC
#: matrices for SuperLU.  Fill, factorization and one solve (best of 200,
#: 2-core x86-64, Python 3.11) cost the same both ways near 220 unknowns on
#: a plain square and past 190 on a disk, but near 80 on a ball's chain,
#: where SuperLU is linear (0.21 against 0.11 ms at 128).  At 128 the dense
#: matrix is 128 KB; the benchmark's desk and refine solves (15-120
#: unknowns) all fit under it.
DENSE_MAX_UNKNOWNS = 128

#: Rows of a payload table formatted by one ``%`` operation, so the
#: per-value Python floats that formatting needs stay few at any grid size
_FORMAT_BLOCK_ROWS = 1 << 9


@dataclass(frozen=True)
class CellSet:
    """Quadrature cells and their linear map, stored as a corner table.

    ``cols[w, c]`` is the w-th corner column of cell c, ascending, and
    ``table[b, w, c]`` its coefficient in row block b: block 0 forms the
    cell averages, each following block one gradient component.  A column
    that a cell lists twice holds its coefficients in its first slot and
    zeros in the repeat.  The map has one column per node and, on the
    disk, one more (``n_nodes``) for the virtual center, the sum of
    ``center_coefs`` times the values at ``center_nodes``.  ``apply``
    yields every cell quantity of nodal values, ``apply_t`` scatters
    per-cell coefficients back onto the nodes.
    """

    cols: np.ndarray            # (W, count) corner columns
    table: np.ndarray           # (1 + d, W, count) corner coefficients
    weights: np.ndarray         # (count,) cell weights
    n_nodes: int
    center_nodes: np.ndarray | None = None
    center_coefs: np.ndarray | None = None

    @property
    def count(self) -> int:
        return self.weights.shape[0]

    @property
    def n_columns(self) -> int:
        return self.n_nodes + (self.center_nodes is not None)

    def extend(self, values: np.ndarray) -> np.ndarray:
        """Nodal values, or each row of a (k, n) stack, followed by the
        center value that the map's last column reads."""
        if self.center_nodes is None:
            return values
        # a running sum adds in one order for a vector and for each row of
        # a stack, so every row gets bitwise the center it gets on its own
        center = np.cumsum(np.take(values, self.center_nodes, axis=-1)
                           * self.center_coefs, axis=-1)
        return np.concatenate([values, center[..., -1:]], axis=-1)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The map applied to nodal values or to each row of a (k, n)
        stack: the (..., 1 + d, cells) cell averages and gradient
        components, the cell axis last and contiguous.  Each sum adds the
        corners in column order, so a row of a stack gets bitwise the
        values of the row on its own."""
        corners = np.take(self.extend(values), self.cols, axis=-1)
        # einsum puts a stack's row axis innermost; copying is cheaper
        # than asking it for C order
        return np.ascontiguousarray(
            np.einsum("bwc,...wc->...bc", self.table, corners))

    def apply_t(self, coefs: np.ndarray) -> np.ndarray:
        """The transposed map on (1 + d, cells) per-cell coefficients:
        one coefficient per corner, summed onto the columns; the center's
        entry then goes back onto the nodes that define it (the transpose
        of ``extend``)."""
        corners = np.einsum("bwc,bc->wc", self.table, coefs)
        out = np.bincount(self.cols.ravel(), corners.ravel(),
                          minlength=self.n_columns)
        if self.center_nodes is not None:
            out[self.center_nodes] += out[-1] * self.center_coefs
        return out[:self.n_nodes]

    def quotient(self, cells, orbit, weights) -> CellSet:
        """The map of the listed cells on functions constant on node
        orbits, in orbit coordinates: node column i moves to ``orbit[i]``
        and the columns of one orbit merge, while the center stays the
        last column and sums its coefficients per orbit."""
        k = int(orbit.max()) + 1
        center_nodes = center_coefs = None
        if self.center_nodes is not None:
            orbit = np.append(orbit, k)
            center_nodes, at = numbering(orbit[self.center_nodes])
            center_coefs = np.bincount(at, self.center_coefs)
        cols, table = _cell_operator(orbit[self.cols[:, cells]].T,
                                     np.moveaxis(self.table[:, :, cells], 1, 2))
        return CellSet(cols, table, weights, n_nodes=k,
                       center_nodes=center_nodes, center_coefs=center_coefs)


@dataclass
class Domain:
    """A discretized symmetric domain.

    Treat instances as immutable; all arrays are set once by build_domain
    or group.quotient.  Geometry derived from them is built on first use
    and kept per instance (see ``cached``), so ``dataclasses.replace``
    starts a fresh cache.
    """

    kind: str
    dim: int
    extents: dict
    resolution: int
    coords: np.ndarray          # (n_nodes, n_coord) Cartesian embedding
    radius2: np.ndarray         # squared distance to the symmetry center
    weights: np.ndarray         # (n_nodes,) positive, sums to the volume
    boundary: np.ndarray        # (n_nodes,) bool Dirichlet mask
    cells: CellSet
    edges: np.ndarray           # (n_edges, 2) grid-neighbor node pairs
    volume: float
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]

    @property
    def interior(self) -> np.ndarray:
        return ~self.boundary

    def cached(self, key, build):
        """Value of ``build()`` for ``key``, built on first request only."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


@dataclass
class GridFunction:
    """Nodal values on a Domain, zero on the Dirichlet boundary."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        if v.shape[0] != self.domain.n_nodes:
            raise DomainMismatchError(
                f"expected {self.domain.n_nodes} nodal values, got {v.shape[0]}"
            )
        if not np.all(np.isfinite(v)):
            raise ParameterError("grid function contains non-finite values")
        v[self.domain.boundary] = 0.0
        self.values = v


# ---------------------------------------------------------------------------
# domain builders


def _sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _edge_keys(pairs, n: int) -> np.ndarray:
    """Order-free int64 key ``a * n + b`` (a < b) of each node pair."""
    a, b = np.asarray(pairs, dtype=np.int64).T
    return np.minimum(a, b) * n + np.maximum(a, b)


def _drop_repeats(keys) -> np.ndarray:
    """The entries of a sorted 1-d array that differ from the one before."""
    keep = np.empty(keys.shape[0], dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def distinct(keys) -> np.ndarray:
    """The distinct entries of an integer array, ascending: ``np.unique``
    by sort and mask, which does not import ``numpy.ma`` as a bare
    ``np.unique`` does."""
    return _drop_repeats(np.sort(keys, axis=None))


def numbering(labels):
    """The distinct labels of a 1-d integer array, ascending, and each
    item's index into them: ``np.unique(labels, return_inverse=True)`` by
    sort and search, with no argsort of the items.  Counts, where wanted,
    are ``np.bincount`` of the index."""
    keys = distinct(labels)
    return keys, np.searchsorted(keys, labels)


def _quad_edges(nodes, n: int) -> np.ndarray:
    """Distinct sides of quadrilateral cells as sorted (a, b) node rows.

    Corners are ordered like (SW, SE, NW, NE); rows come out in
    lexicographic order.  The order-free keys of the four sides fill one
    array, which is sorted in place.
    """
    count = nodes.shape[0]
    keys = np.empty((4, count), dtype=np.int64)
    for out, (a, b) in zip(keys, ((0, 1), (2, 3), (0, 2), (1, 3))):
        np.minimum(nodes[:, a], nodes[:, b], out=out)
        out *= n
        out += np.maximum(nodes[:, a], nodes[:, b])
    keys = keys.reshape(-1)
    keys.sort()
    keys = _drop_repeats(keys)
    edges = np.empty((keys.shape[0], 2), dtype=np.int64)
    np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
    return edges


def _cell_operator(nodes, tables):
    """Corner columns and coefficient table of ``CellSet``.

    ``nodes[c, k]`` is the k-th corner of cell c, and ``tables`` holds the
    average table first, then one table per gradient component, each
    broadcastable to ``nodes.shape``.  Each cell's corners are put in
    column order, and a corner that a cell lists twice (the disk's center,
    or two nodes of one orbit in a quotient) keeps the sum of its
    coefficients in its first slot and zeros in the repeat.  Both arrays
    are filled in the (corner, cell) layout ``CellSet`` keeps, with no
    cell-major copy.
    """
    count, width = nodes.shape
    cols = np.empty((width, count), dtype=np.intp)
    cols[...] = nodes.T
    table = np.empty((len(tables), width, count))
    for block, t in zip(table, tables):
        block[...] = np.broadcast_to(t, nodes.shape).T
    # on the grids, only cells that close a polar ring or repeat a corner
    # list their corners out of order
    wrap = np.flatnonzero(np.any(cols[1:] <= cols[:-1], axis=0))
    order = np.argsort(cols[:, wrap], axis=0, kind="stable")
    cols[:, wrap] = np.take_along_axis(cols[:, wrap], order, axis=0)
    table[:, :, wrap] = np.take_along_axis(table[:, :, wrap], order[None],
                                           axis=1)
    for k in range(width - 1, 0, -1):
        rep = np.flatnonzero(cols[k] == cols[k - 1])
        table[:, k - 1, rep] += table[:, k, rep]
        table[:, k, rep] = 0.0
    return cols, table


def _build_square(side: float, resolution: int) -> Domain:
    n = resolution
    na = n + 2                        # nodes per axis including boundary
    h = side / (n + 1)
    axis = -0.5 * side + h * np.arange(na)
    xs, ys = np.meshgrid(axis, axis, indexing="xy")
    # node index = iy * na + ix
    coords = np.column_stack([xs.reshape(-1), ys.reshape(-1)])
    ix = np.tile(np.arange(na), na)
    iy = np.repeat(np.arange(na), na)
    boundary = (ix == 0) | (ix == na - 1) | (iy == 0) | (iy == na - 1)

    # trapezoid tensor weights: the sum telescopes to side**2 exactly
    wa = np.full(na, h)
    wa[0] = wa[-1] = 0.5 * h
    weights = (wa[iy] * wa[ix]).reshape(-1)

    # cells between node columns/rows; corners SW, SE, NW, NE
    cx, cy = np.meshgrid(np.arange(na - 1), np.arange(na - 1), indexing="xy")
    cx = cx.reshape(-1)
    cy = cy.reshape(-1)
    sw = cy * na + cx
    se = sw + 1
    nw = sw + na
    ne = nw + 1
    nodes = np.column_stack([sw, se, nw, ne])
    gx = np.array([-1.0, 1.0, -1.0, 1.0]) / (2 * h)
    gy = np.array([-1.0, -1.0, 1.0, 1.0]) / (2 * h)
    cells = CellSet(*_cell_operator(nodes, (0.25, gx, gy)),
                    weights=np.full(nodes.shape[0], h * h), n_nodes=na * na)
    edges = _quad_edges(nodes, na * na)

    return Domain(
        kind="square",
        dim=2,
        extents={"side": float(side)},
        resolution=n,
        coords=coords,
        radius2=coords[:, 0] * coords[:, 0] + coords[:, 1] * coords[:, 1],
        weights=weights,
        boundary=boundary,
        cells=cells,
        edges=edges,
        volume=float(side) ** 2,
        meta={"axis_nodes": na, "h": h},
    )


def _build_polar(kind: str, resolution: int, angular_resolution: int,
                 r_inner: float, r_outer: float) -> Domain:
    if angular_resolution % MAX_ROTATION_ORDER != 0:
        raise ConfigurationError(
            f"angular resolution {angular_resolution} must be a multiple of "
            f"{MAX_ROTATION_ORDER}, so that every rotation order up to "
            f"{MAX_ROTATION_ORDER} can be realized"
        )
    n_theta = angular_resolution
    d_theta = 2 * math.pi / n_theta

    if kind == "disk-polar":
        # rings i = 1..m at r_i = i*dr; ring m is the Dirichlet boundary
        m = resolution + 1
        dr = r_outer / m
        radii = dr * np.arange(1, m + 1)
        boundary_rings = [m - 1]          # position in the radii array
    else:
        # annulus: rings i = 0..m at R_in + i*dr; rings 0 and m are boundary
        m = resolution + 1
        dr = (r_outer - r_inner) / m
        radii = r_inner + dr * np.arange(0, m + 1)
        boundary_rings = [0, m]

    n_rings = radii.shape[0]
    n_nodes = n_rings * n_theta
    theta = d_theta * np.arange(n_theta)
    coords = np.column_stack([np.outer(radii, np.cos(theta)).reshape(-1),
                              np.outer(radii, np.sin(theta)).reshape(-1)])
    radius2 = np.repeat(radii * radii, n_theta)

    boundary = np.zeros(n_nodes, dtype=bool)
    for i in boundary_rings:
        boundary[i * n_theta:(i + 1) * n_theta] = True

    # node weights: ring i owns the radial slab between the midpoints to its
    # neighbors, clipped to [inner, outer]; the disk core goes to ring 1.
    lo_clip = 0.0 if kind == "disk-polar" else r_inner
    cuts = np.empty(n_rings + 1)
    cuts[0] = lo_clip
    cuts[1:-1] = 0.5 * (radii[:-1] + radii[1:])
    cuts[-1] = r_outer
    ring_w = 0.5 * d_theta * (cuts[1:] ** 2 - cuts[:-1] ** 2)
    weights = np.repeat(ring_w, n_theta)

    # cells between consecutive node rings, ring by ring
    k = np.arange(n_theta)
    kp = (k + 1) % n_theta
    lo = (np.arange(n_rings - 1) * n_theta)[:, None]
    nodes = np.column_stack([(lo + k).ravel(), (lo + kp).ravel(),
                             (lo + n_theta + k).ravel(),
                             (lo + n_theta + kp).ravel()])
    r_lo = np.repeat(radii[:-1], n_theta)
    gr = np.broadcast_to(np.array([-1.0, -1.0, 1.0, 1.0]) / (2 * dr),
                         nodes.shape)
    gt = (np.array([-1.0, 1.0, -1.0, 1.0])
          / (2 * (r_lo + 0.5 * dr) * d_theta)[:, None])
    cw = 0.5 * d_theta * ((r_lo + dr) ** 2 - r_lo ** 2)
    edges = _quad_edges(nodes, n_nodes)

    center_nodes = center_coefs = None
    if kind == "disk-polar":
        # core cells close the disk: their inner corner is the center, the
        # angular average of ring 1, read from column n_nodes
        r1 = radii[0]
        v = np.full(n_theta, n_nodes)
        core_nodes = np.column_stack([v, v, k, kp])
        core_gr = np.tile(np.array([-0.5, -0.5, 0.5, 0.5]) / r1, (n_theta, 1))
        core_gt = np.tile(
            np.array([0.0, 0.0, -1.0, 1.0]) / (0.5 * r1 * d_theta), (n_theta, 1)
        )
        core_w = np.full(n_theta, 0.5 * d_theta * r1 ** 2)
        nodes = np.vstack([core_nodes, nodes])
        gr = np.vstack([core_gr, gr])
        gt = np.vstack([core_gt, gt])
        cw = np.concatenate([core_w, cw])
        center_nodes, center_coefs = k, np.full(n_theta, 1.0 / n_theta)

    cells = CellSet(*_cell_operator(nodes, (0.25, gr, gt)), weights=cw,
                    n_nodes=n_nodes, center_nodes=center_nodes,
                    center_coefs=center_coefs)

    extents = {"radius": float(r_outer)} if kind == "disk-polar" else {
        "inner_radius": float(r_inner), "outer_radius": float(r_outer)}
    volume = math.pi * (r_outer ** 2 - (0.0 if kind == "disk-polar" else r_inner ** 2))
    return Domain(
        kind=kind,
        dim=2,
        extents=extents,
        resolution=resolution,
        coords=coords,
        radius2=radius2,
        weights=weights,
        boundary=boundary,
        cells=cells,
        edges=edges,
        volume=volume,
        meta={"rings": n_rings, "n_theta": n_theta, "dr": dr,
              "radii": radii, "d_theta": d_theta},
    )


def _build_radial_ball(dimension: int, radius: float, resolution: int) -> Domain:
    n = resolution                     # interior nodes, r = 0 .. R - dr
    dr = radius / n
    r = dr * np.arange(n + 1)
    sigma = _sphere_area(dimension)

    lo = np.clip(r - 0.5 * dr, 0.0, None)
    hi = np.minimum(r + 0.5 * dr, radius)
    weights = sigma * (hi ** dimension - lo ** dimension) / dimension

    boundary = np.zeros(n + 1, dtype=bool)
    boundary[-1] = True

    i = np.arange(n)
    edges = np.column_stack([i, i + 1])
    g = np.array([-1.0, 1.0]) / dr
    cw = sigma * (r[1:] ** dimension - r[:-1] ** dimension) / dimension
    cells = CellSet(*_cell_operator(edges, (0.5, g)), weights=cw,
                    n_nodes=n + 1)

    return Domain(
        kind="radial-ball-1d",
        dim=dimension,
        extents={"radius": float(radius)},
        resolution=n,
        coords=r[:, None].copy(),
        radius2=r * r,
        weights=weights,
        boundary=boundary,
        cells=cells,
        edges=edges,
        volume=sigma * radius ** dimension / dimension,
        meta={"dr": dr},
    )


def build_domain(kind: str, *, resolution: int, dimension: int | None = None,
                 side: float | None = None, radius: float | None = None,
                 inner_radius: float | None = None,
                 outer_radius: float | None = None,
                 angular_resolution: int | None = None) -> Domain:
    """Construct a supported domain.

    kind is one of ``square``, ``disk-polar``, ``annulus-polar``,
    ``radial-ball-1d``.  ``resolution`` counts interior nodes per axis
    (interior rings for polar kinds, interior radial nodes for the ball).
    """
    # the 1-d radial chain is meaningful from two interior nodes up
    floor = 2 if kind == "radial-ball-1d" else 3
    if resolution < floor:
        raise ConfigurationError(
            f"resolution must be at least {floor} for kind {kind!r}")

    if kind == "square":
        if side is None or side <= 0:
            raise ConfigurationError("square domain needs a positive side")
        dom = _build_square(side, resolution)
    elif kind in ("disk-polar", "annulus-polar"):
        if angular_resolution is None or angular_resolution < 3:
            raise ConfigurationError("polar domains need angular_resolution >= 3")
        if kind == "disk-polar":
            if radius is None or radius <= 0:
                raise ConfigurationError("disk domain needs a positive radius")
            dom = _build_polar(kind, resolution, angular_resolution,
                               0.0, radius)
        else:
            if (inner_radius is None or outer_radius is None
                    or not 0 < inner_radius < outer_radius):
                raise ConfigurationError(
                    "annulus domain needs 0 < inner_radius < outer_radius")
            dom = _build_polar(kind, resolution, angular_resolution,
                               inner_radius, outer_radius)
    elif kind == "radial-ball-1d":
        if dimension is None or dimension < 2:
            raise ConfigurationError(
                "radial-ball-1d needs the ambient dimension N >= 2")
        if radius is None or radius <= 0:
            raise ConfigurationError("ball domain needs a positive radius")
        dom = _build_radial_ball(dimension, radius, resolution)
    else:
        raise ConfigurationError(f"unknown domain kind {kind!r}")

    _validate_domain(dom)
    return dom


def _validate_domain(dom: Domain):
    if np.any(dom.weights <= 0):
        raise ConfigurationError("quadrature weights must be positive")
    total = float(np.sum(dom.weights))
    if abs(total - dom.volume) > 1e-10 * dom.volume:
        raise ConfigurationError(
            f"weights sum to {total!r}, expected volume {dom.volume!r}")
    ctotal = float(np.sum(dom.cells.weights))
    if abs(ctotal - dom.volume) > 1e-10 * dom.volume:
        raise ConfigurationError(
            f"cell weights sum to {ctotal!r}, expected volume {dom.volume!r}")


# ---------------------------------------------------------------------------
# differential and norm operations


def cell_values(domain: Domain, values: np.ndarray):
    """Cell averages, |Du| and the gradient components of nodal values.

    ``values`` is one nodal vector or a (k, n) stack of them; either way
    it takes one product with the cell map.  ``grads`` is the (..., d,
    cells) gradient block and ``t`` the Euclidean magnitude over its
    components.  The cell axis comes out last and contiguous, so a
    reduction over it gives every row of a stack bitwise the value of the
    row on its own.
    """
    out = domain.cells.apply(values)
    avg, grads = out[..., 0, :], out[..., 1:, :]
    if grads.shape[-2] == 1:
        t = np.abs(grads[..., 0, :])
    else:
        t = np.sqrt((grads * grads).sum(axis=-2))
    return avg, t, grads


class CellForm:
    """op^T B op + diag(m) on the interior nodes, for one symmetric
    (1 + d) x (1 + d) block of B per cell, filled into a fixed CSC pattern
    as a finite-element code assembles element matrices.  ``keys`` holds
    the pattern's entries as col * n + row, ascending, so the filled data
    scatters into a dense matrix as well (``matrix``).

    Cells are assembled over the interior nodes and the center, each over
    its at most four corners.  ``table`` is the cell set's corner table
    with each cell's interior and center corners moved first, and
    ``slots`` a slot for each corner pair: the CSC slot of two
    nodes, a slot of the center's coupling x to a node or of its own entry
    a, and one past them for padding and for (center, node), the transpose
    of (node, center).  With c the center's row of node coefficients, the
    form on the nodes is the node part plus x c^T + c x^T + a c c^T, a
    dense block over ``span``, the nodes the center's cells and c touch
    (the disk's first ring).
    """

    def __init__(self, domain: Domain):
        cs = domain.cells
        n = int(np.count_nonzero(domain.interior))
        relabel = np.full(cs.n_columns, -1)
        relabel[:domain.n_nodes][domain.interior] = np.arange(n)
        relabel[domain.n_nodes:] = n
        ends = relabel[cs.cols]
        ends[1:][cs.cols[1:] == cs.cols[:-1]] = -1
        # each cell's kept corners first, still in column order
        order = np.argsort(ends < 0, axis=0, kind="stable")
        ends = np.take_along_axis(ends, order, axis=0)
        self.table = np.take_along_axis(cs.table, order[None], axis=1)

        # pair (a, b) of a cell is the entry at row ends[a], column ends[b]
        pair_keys = ends[None] * n + ends[:, None]
        node = (ends >= 0) & (ends < n)
        center = ends == n
        kept = node[None] & node[:, None]
        core = np.zeros(n)
        if cs.center_nodes is not None:
            at = relabel[cs.center_nodes]
            core[at[at >= 0]] = cs.center_coefs[at >= 0]
        self.span = distinct(np.concatenate(
            [np.flatnonzero(core), ends[node & np.any(center, axis=0)]]))
        self.center = core[self.span]
        ring_keys = (self.span[None, :] * n + self.span[:, None]).reshape(-1)
        diag_keys = np.arange(n) * (n + 1)
        # CSC order: column-major keys col * n + row, each once
        keys = distinct(np.concatenate([pair_keys[kept], ring_keys,
                                        diag_keys]))
        nnz, s = keys.shape[0], self.span.shape[0]
        self.slots = np.full(pair_keys.shape, nnz + s + 1)
        self.slots[kept] = np.searchsorted(keys, pair_keys[kept])
        coupling = node[:, None] & center[None]
        self.slots[coupling] = nnz + np.searchsorted(
            self.span, np.broadcast_to(ends[:, None], pair_keys.shape)[coupling])
        self.slots[center[:, None] & center[None]] = nnz + s
        self.ring_slots = np.searchsorted(keys, ring_keys)
        self.diag = np.searchsorted(keys, diag_keys)
        self.keys = keys
        self.indices = (keys % n).astype(np.intc)
        self.indptr = np.searchsorted(keys // n,
                                      np.arange(n + 1)).astype(np.intc)

    def matrix(self, blocks, mass):
        """op^T B op + diag(mass); ``blocks`` is the (1 + d, 1 + d, cells)
        array of the cell blocks of B.  Up to ``DENSE_MAX_UNKNOWNS``
        interior nodes it is a dense ndarray, the CSC data scattered to
        its keys, so it equals the CSC matrix's ``toarray()`` bitwise;
        above, a scipy CSC matrix, and only then is scipy.sparse
        imported."""
        local = np.einsum("iac,ibc->abc", self.table,
                          np.einsum("ijc,jbc->ibc", blocks, self.table))
        nnz, s = self.indices.shape[0], self.span.shape[0]
        data = np.bincount(self.slots.reshape(-1), local.reshape(-1),
                           minlength=nnz + s + 2)
        x, a, data = data[nnz:nnz + s], data[nnz + s], data[:nnz]
        if s:
            c = self.center
            data[self.ring_slots] += (np.outer(x, c)
                                      + np.outer(c, x + a * c)).reshape(-1)
        data[self.diag] += mass
        n = self.indptr.shape[0] - 1
        if n <= DENSE_MAX_UNKNOWNS:
            # key col * n + row is the entry's place in column-major order
            dense = np.zeros(n * n)
            dense[self.keys] = data
            return dense.reshape(n, n).T
        import scipy.sparse as sparse
        return sparse.csc_matrix((data, self.indices, self.indptr),
                                 shape=(n, n))


def cell_form(domain: Domain) -> CellForm:
    """The domain's ``CellForm``, built on first use and cached."""
    return domain.cached("cell_form", lambda: CellForm(domain))


def _roots(sums, m: float):
    """sums ** (1/m), taken on each scalar: numpy's array power can differ
    from libm's pow in the last ulp, and a row of a stack must get the
    norm its vector gets on its own."""
    if np.ndim(sums) == 0:
        return float(sums ** (1.0 / m))
    return np.array([s ** (1.0 / m) for s in sums])


def lm_norms(domain: Domain, values: np.ndarray, m: float):
    """Discrete Lebesgue norm with the node quadrature weights, of one
    nodal vector (a float) or of each row of a (k, n) stack."""
    if m < 1:
        raise ParameterError(f"Lebesgue exponent must satisfy m >= 1, got {m}")
    return _roots(np.sum(domain.weights * np.abs(values) ** m, axis=-1), m)


def w1p_norms(domain: Domain, values: np.ndarray, p: float):
    """Discrete W^{1,p} norm (||v||_p^p + ||Dv||_p^p)^{1/p}, of one nodal
    vector (a float) or of each row of a (k, n) stack."""
    if p <= 1:
        raise ParameterError(f"Sobolev exponent must satisfy p > 1, got {p}")
    du = cell_values(domain, values)[1]
    up = np.sum(domain.weights * np.abs(values) ** p, axis=-1)
    dup = np.sum(domain.cells.weights * du ** p, axis=-1)
    return _roots(up + dup, p)


def norm_lm(u: GridFunction, m: float) -> float:
    """Discrete Lebesgue norm of a grid function (see ``lm_norms``)."""
    return lm_norms(u.domain, u.values, m)


def norm_w1p(u: GridFunction, p: float) -> float:
    """Discrete W^{1,p} norm of a grid function (see ``w1p_norms``)."""
    return w1p_norms(u.domain, u.values, p)


def hat_w1p_norms(domain: Domain, p: float) -> np.ndarray:
    """W^{1,p} norms of all nodal hat functions, in O(cells) of the map.

    The hat at node i has the gradient coefficients of its corner slots,
    so |D hat_i|^2 on a cell sums that slot's squared coefficients over
    the components.  A cell that reads the center also sees c_i times the
    center's slot, c_i being node i's share of the center: on its corners
    that adds to their coefficients, and a node of the first ring that is
    not one of its corners sees c_i times the center's gradient alone.
    Those last terms are priced once for all nodes and taken off again at
    each cell's corners, so the center's dense rows are never formed.
    Every slot is priced first as the plain corner it is on most cells;
    the center terms are then computed on the core cells alone, the
    cells that read the center.
    """
    if p <= 1:
        raise ParameterError(f"Sobolev exponent must satisfy p > 1, got {p}")

    def build():
        cs = domain.cells
        n, grads = cs.n_nodes, cs.table[1:]
        # slots in cell-major memory, the order the nodes sum them in
        cell_major = np.empty(cs.cols.shape[::-1])
        slots = cell_major.T
        np.square(grads[0], out=slots)
        for g in grads[1:]:
            slots += g ** 2
        slots **= 0.5 * p
        slots *= cs.weights
        price = np.zeros(cs.count)
        core = np.zeros(cs.n_columns)
        if cs.center_nodes is not None:
            core[cs.center_nodes] = cs.center_coefs
            at = np.flatnonzero(np.any(cs.cols == n, axis=0))
            cols, grads, w = cs.cols[:, at], grads[:, :, at], cs.weights[at]
            # each core cell's center gradient
            center = np.where(cols == n, grads, 0.0).sum(axis=1)
            price[at] = w * np.sum(center ** 2, axis=0) ** (0.5 * p)
            # a node's share of the center, counted once per cell
            share = core[cols]
            share[1:][cols[1:] == cols[:-1]] = 0.0
            comb = grads + center[:, None] * share
            slots[:, at] = (w * np.sum(comb ** 2, axis=0) ** (0.5 * p)
                            - np.abs(share) ** p * price[at])
        # each node sums its corners cell by cell, in cell order
        dup = np.bincount(cs.cols.T.reshape(-1), cell_major.reshape(-1),
                          minlength=cs.n_columns)[:n]
        dup += np.abs(core[:n]) ** p * price.sum()
        return (domain.weights + dup) ** (1.0 / p)

    return domain.cached(("hat_w1p", float(p)), build)


def is_edge(domain: Domain, pairs: np.ndarray) -> np.ndarray:
    """Mask of the rows of a (k, 2) node-pair array that are grid edges."""
    n = domain.n_nodes
    keys = domain.cached("edge_keys",
                         lambda: np.sort(_edge_keys(domain.edges, n)))
    k = _edge_keys(pairs, n)
    pos = np.minimum(np.searchsorted(keys, k), keys.shape[0] - 1)
    return keys[pos] == k


# ---------------------------------------------------------------------------
# serialization


def format_table(lines, index, columns) -> str:
    """Text of a CSV payload: the leading ``lines``, then one row per entry
    of the integer column ``index`` followed by the float ``columns`` (1-d
    columns or 2-d blocks) in %.17g, which round-trips.  Rows are
    formatted ``_FORMAT_BLOCK_ROWS`` at a time, one ``%`` operation per
    block, and the text is joined once."""
    index = np.asarray(index)
    columns = [np.asarray(c) for c in columns]
    parts = [f"{line}\n" for line in lines]
    for start in range(0, index.shape[0], _FORMAT_BLOCK_ROWS):
        rows = slice(start, start + _FORMAT_BLOCK_ROWS)
        block = np.column_stack([index[rows], *(c[rows] for c in columns)])
        row = "%d" + ",%.17g" * (block.shape[1] - 1) + "\n"
        parts.append((row * block.shape[0])
                     % tuple(block.reshape(-1).tolist()))
    return "".join(parts)


def format_gridfunction(u: GridFunction, extra_comments=()) -> str:
    """The fixed CSV format: header, comments, index/coords/value rows."""
    dom = u.domain
    cols = ",".join(f"x{i}" for i in range(dom.coords.shape[1]))
    return format_table(
        [GRIDFUNCTION_HEADER, *(f"# {line}" for line in extra_comments),
         f"index,{cols},value"],
        np.arange(dom.n_nodes), [dom.coords, u.values])


def write_gridfunction(u: GridFunction, path, extra_comments=()):
    """Write ``format_gridfunction(u, extra_comments)`` to ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_gridfunction(u, extra_comments))


def read_gridfunction(domain: Domain, path) -> GridFunction:
    """Read the CSV format back onto an existing domain.

    The rows must list nodes 0 .. n-1 once each, in order, at the domain's
    own coordinates (``write_gridfunction`` writes them with %.17g, which
    round-trips), so a file written on another grid of the same size is
    refused.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != GRIDFUNCTION_HEADER:
            raise ConfigurationError(
                f"not a symcrit grid-function file (header {first!r})")
        for line in fh:
            if line.startswith("index,"):
                break
        try:
            with warnings.catch_warnings():
                # a file without rows is refused below, without numpy's
                # warning on stderr first
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                        "no data", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise ConfigurationError(f"malformed grid-function row: {exc}")
    n, n_coord = domain.coords.shape
    if rows.shape != (n, n_coord + 2) \
            or not np.array_equal(rows[:, 0], np.arange(n)):
        raise ConfigurationError(
            f"grid-function file must list nodes 0..{n - 1} once each and "
            f"in order, in {n_coord + 2} columns; got {rows.shape[0]} rows")
    moved = np.flatnonzero(np.any(rows[:, 1:-1] != domain.coords, axis=1))
    if moved.size:
        i = int(moved[0])
        raise ConfigurationError(
            f"node {i} is at {rows[i, 1:-1].tolist()} in the file but at "
            f"{domain.coords[i].tolist()} on the domain: the file was "
            "written on a different domain")
    return GridFunction(domain, rows[:, -1])
