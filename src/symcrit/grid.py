"""Discretized group-invariant domains and grid functions.

A Domain carries nodes with positive quadrature weights that sum to the
volume of the continuum region, a homogeneous-Dirichlet boundary mask,
and a set of integration cells.  The cells own one sparse linear map from
nodal values to per-cell averages and first-difference gradients.  Every
term of the energy reads that same map, so the discrete energy is exactly
differentiable with respect to the nodal values and its gradient is the
transposed map applied to the per-cell partial derivatives.

Polar grids exclude the r = 0 node; the disk closes the core with cells
whose inner corner value is the angular average of the first ring, and
that reconstruction is folded into the columns of the map.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .errors import (
    ConfigurationError,
    DomainMismatchError,
    ParameterError,
)

GRIDFUNCTION_HEADER = "# symcrit-gridfunction v1"

#: Largest rotation order the polar builders promise to support; the
#: angular resolution must be divisible by it.
MAX_ROTATION_ORDER = 8


@dataclass(frozen=True)
class CellSet:
    """Quadrature cells and their stacked linear map.

    ``op`` is a CSR matrix with one column per node and ``(1 + d) * count``
    rows: the first ``count`` rows form the cell averages, each following
    block of ``count`` rows one gradient component.  ``op @ u`` therefore
    yields every cell quantity of ``u`` at once, and ``op_t``, its
    transpose, scatters per-cell coefficients back onto the nodes.
    """

    op: sparse.csr_matrix
    weights: np.ndarray

    @property
    def count(self) -> int:
        return self.weights.shape[0]

    @functools.cached_property
    def op_t(self) -> sparse.csr_matrix:
        # scipy rebuilds ``op.T`` on every access; the residual needs it
        # once per call
        return self.op.T.tocsr()


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


def zeros(domain: Domain) -> GridFunction:
    return GridFunction(domain, np.zeros(domain.n_nodes))


# ---------------------------------------------------------------------------
# domain builders


def _sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _edge_keys(pairs, n: int) -> np.ndarray:
    """Order-free int64 key ``a * n + b`` (a < b) of each node pair."""
    a, b = np.asarray(pairs, dtype=np.int64).T
    return np.minimum(a, b) * n + np.maximum(a, b)


def _quad_edges(nodes, n: int) -> np.ndarray:
    """Distinct sides of quadrilateral cells as sorted (a, b) node rows.

    Corners are ordered like (SW, SE, NW, NE); rows come out in
    lexicographic order.
    """
    sides = np.vstack([nodes[:, :2], nodes[:, 2:], nodes[:, ::2],
                       nodes[:, 1::2]])
    keys = np.sort(_edge_keys(sides, n))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return np.column_stack([keys // n, keys % n])


def _fold_core(cols, vals, n_nodes, core):
    """Rows of the cells with core corners, over the real columns they touch.

    ``cols`` holds those cells' corners and ``vals`` their (blocks, cells,
    k) coefficients.  Returns the touched columns, in order, and the rows'
    (blocks, cells, columns) entries: each real corner's coefficient, then,
    core row by core row, the summed coefficient of the corners naming it
    times that row.  That is the order in which a product with the stacked
    map ``[I; core]`` adds them, so the entries match it bitwise.
    """
    touched = np.any(core != 0, axis=0)
    touched[cols[cols < n_nodes]] = True
    span = np.flatnonzero(touched)
    slot = np.cumsum(touched) - 1
    blocks, cells, k = vals.shape
    fold = np.zeros((blocks, cells, span.shape[0]))
    center = np.zeros((blocks, cells, core.shape[0]))
    rows = np.arange(cells)
    for j in range(k):
        c = cols[:, j]
        real = c < n_nodes
        fold[:, rows[real], slot[c[real]]] += vals[:, real, j]
        center[:, rows[~real], c[~real] - n_nodes] += vals[:, ~real, j]
    for m in range(core.shape[0]):
        fold += center[:, :, m, None] * core[m, span]
    return span, fold


def _cell_operator(nodes, tables, n_nodes, core) -> sparse.csr_matrix:
    """Stack per-cell coefficient tables into one CSR map over the nodes.

    ``nodes[c, k]`` is the k-th corner of cell c and ``tables`` holds the
    average table first, then one table per gradient component, each
    broadcastable to ``nodes.shape``.  Corner indices from ``n_nodes`` on
    name the rows of ``core`` (reconstructed values such as the polar
    center, or None when there are none), which are folded into the real
    node columns.  Cells with core corners come first; a cell's real
    corners are distinct nodes.

    The CSR arrays are written directly, block by block and cell by cell:
    a plain cell's row lists its corners in column order, a core cell's
    row every column ``_fold_core`` gives it.
    """
    count, k = nodes.shape
    blocks = len(tables)
    cols = nodes.copy()
    vals = np.stack([np.broadcast_to(t, nodes.shape) for t in tables])
    # only cells that close a polar ring or repeat a core corner list
    # their corners out of order
    wrap = np.flatnonzero(np.any(nodes[:, 1:] <= nodes[:, :-1], axis=1))
    order = np.argsort(nodes[wrap], axis=1, kind="stable")
    cols[wrap] = np.take_along_axis(nodes[wrap], order, axis=1)
    vals[:, wrap] = np.take_along_axis(vals[:, wrap], order[None], axis=2)

    n_core = int(np.count_nonzero(cols[:, -1] >= n_nodes))
    span, fold = _fold_core(
        cols[:n_core], vals[:, :n_core], n_nodes,
        np.zeros((0, n_nodes)) if core is None else core)
    fold_cols = np.tile(span, n_core)
    plain_cols = cols[n_core:].reshape(-1)
    indices = np.concatenate([part for _ in range(blocks)
                              for part in (fold_cols, plain_cols)])
    data = np.concatenate([part for b in range(blocks)
                           for part in (fold[b].reshape(-1),
                                        vals[b, n_core:].reshape(-1))])
    width = np.repeat([span.shape[0], k], [n_core, count - n_core])
    indptr = np.concatenate(([0], np.cumsum(np.tile(width, blocks))))
    op = sparse.csr_matrix((data, indices, indptr),
                           shape=(blocks * count, n_nodes))
    op.eliminate_zeros()
    # every row was written in column order; say so, or scipy re-checks
    op.has_sorted_indices = True
    return op


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
    cells = CellSet(op=_cell_operator(nodes, (0.25, gx, gy), na * na, None),
                    weights=np.full(nodes.shape[0], h * h))
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
            f"angular resolution {angular_resolution} must be divisible by the "
            f"largest supported rotation order {MAX_ROTATION_ORDER}"
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

    core = None
    if kind == "disk-polar":
        # core cells close the disk: the inner corner value is the angular
        # average of ring 1, reconstructed in column n_nodes
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
        core = np.zeros((1, n_nodes))
        core[0, :n_theta] = 1.0 / n_theta

    cells = CellSet(op=_cell_operator(nodes, (0.25, gr, gt), n_nodes, core),
                    weights=cw)

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
    cells = CellSet(op=_cell_operator(edges, (0.5, g), n + 1, None),
                    weights=cw)

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
    cs = domain.cells
    out = np.ascontiguousarray((cs.op @ values.T).T)
    out = out.reshape(*values.shape[:-1], -1, cs.count)
    avg, grads = out[..., 0, :], out[..., 1:, :]
    if grads.shape[-2] == 1:
        t = np.abs(grads[..., 0, :])
    else:
        t = np.sqrt((grads * grads).sum(axis=-2))
    return avg, t, grads


class CellForm:
    """op^T B op + diag(m) on the interior nodes, for one symmetric
    (1 + d) x (1 + d) block of B per cell, filled into a fixed CSC pattern
    as a finite-element code assembles element matrices.

    Every row of a cell lies on the columns of its average row, the
    cell's corners.  ``table`` keeps the rows of each cell with at most
    four corners on them, and ``slots`` the CSC slot of each corner pair
    (one past the last slot for padding and for wider cells).  The wider
    cells are the disk's core cells, which read the whole first ring;
    their rows are one dense block ``ring`` over the columns they touch.
    """

    def __init__(self, domain: Domain):
        count = domain.cells.count
        op = domain.cells.op[:, domain.interior].tocsr()
        n = op.shape[1]
        per_cell = np.diff(op.indptr[:count + 1])
        wide = per_cell > 4
        # cell, row block and column of every nonzero of the map
        row = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
        cell, block, col = row % count, row // count, op.indices
        avg = np.flatnonzero(~wide[cell[:op.indptr[count]]])
        ends = np.full((int(per_cell[~wide].max()), count), -1)
        ends[avg - op.indptr[cell[avg]], cell[avg]] = col[avg]
        narrow = np.flatnonzero(~wide[cell])
        pos = np.argmax(ends[:, cell[narrow]] == col[narrow], axis=0)
        self.table = np.zeros((op.shape[0] // count,) + ends.shape)
        self.table[block[narrow], pos, cell[narrow]] = op.data[narrow]

        pair_keys = ends[None] * n + ends[:, None]
        kept = (ends[None] >= 0) & (ends[:, None] >= 0)
        dense = np.flatnonzero(wide[cell])
        cols = np.unique(col[dense])
        self.wide = np.flatnonzero(wide)
        self.ring = np.zeros((self.table.shape[0], self.wide.shape[0],
                              cols.shape[0]))
        self.ring[block[dense], np.searchsorted(self.wide, cell[dense]),
                  np.searchsorted(cols, col[dense])] = op.data[dense]
        ring_keys = (cols[None, :] * n + cols[:, None]).reshape(-1)
        diag_keys = np.arange(n) * (n + 1)
        # CSC order: column-major keys col * n + row
        keys = np.unique(np.concatenate([pair_keys[kept], ring_keys,
                                         diag_keys]))
        self.slots = np.where(kept, np.searchsorted(keys, pair_keys),
                              keys.shape[0])
        self.ring_slots = np.searchsorted(keys, ring_keys)
        self.diag = np.searchsorted(keys, diag_keys)
        self.indices = (keys % n).astype(np.intc)
        self.indptr = np.searchsorted(keys // n,
                                      np.arange(n + 1)).astype(np.intc)

    def matrix(self, blocks, mass):
        """op^T B op + diag(mass) as a CSC matrix; ``blocks`` is the
        (1 + d, 1 + d, cells) array of the cell blocks of B."""
        local = np.einsum("iac,ibc->abc", self.table,
                          np.einsum("ijc,jbc->ibc", blocks, self.table))
        data = np.bincount(self.slots.reshape(-1), local.reshape(-1),
                           minlength=self.indices.shape[0] + 1)[:-1]
        if self.wide.size:
            rows = np.einsum("ijc,jcr->icr", blocks[:, :, self.wide],
                             self.ring)
            width = self.ring.shape[-1]
            data[self.ring_slots] += (self.ring.reshape(-1, width).T
                                      @ rows.reshape(-1, width)).reshape(-1)
        data[self.diag] += mass
        n = self.indptr.shape[0] - 1
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
    """W^{1,p} norms of all nodal hat functions, in O(nnz) of the cell map.

    The hat at node i has the gradient components of column i of the
    gradient rows, so |D hat_i|^2 on a cell sums that column's squared
    entries over the components.
    """
    if p <= 1:
        raise ParameterError(f"Sobolev exponent must satisfy p > 1, got {p}")

    def build():
        cs = domain.cells
        gsq = cs.op[cs.count:2 * cs.count].power(2)
        for start in range(2 * cs.count, cs.op.shape[0], cs.count):
            gsq = gsq + cs.op[start:start + cs.count].power(2)
        dup = gsq.power(0.5 * p).T @ cs.weights
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


def write_gridfunction(u: GridFunction, path, extra_comments=()):
    """Write the fixed CSV format: header, comments, index/coords/value rows."""
    dom = u.domain
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(GRIDFUNCTION_HEADER + "\n")
        for line in extra_comments:
            fh.write(f"# {line}\n")
        ncoord = dom.coords.shape[1]
        cols = ",".join(f"x{i}" for i in range(ncoord))
        fh.write(f"index,{cols},value\n")
        row = "%d" + ",%.17g" * (ncoord + 1) + "\n"
        table = np.column_stack([np.arange(dom.n_nodes), dom.coords,
                                 u.values])
        fh.write((row * dom.n_nodes) % tuple(table.reshape(-1).tolist()))


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
