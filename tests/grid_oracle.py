"""Reference builders for the tests: the cell map, the edge list and the
hat norms assembled the plain way, through scipy's COO format and
``np.unique``, and polar node coordinates filled ring by ring.
``symcrit.grid`` builds the same arrays in whole-array passes; the tests
hold the two to bitwise equality.  ``as_csr`` reads a cell set's corner
table as a CSR matrix with the center's column, and ``folded`` gives the
map over the node columns alone, the disk's center folded into every row
that reads it, as a reference for the code that carries the center as a
column.  ``elements`` lists a symmetry group's elements, which the
library never forms, and ``act`` applies one of them to node values.
``square_class`` orders the square's interior by float squared radii
grouped within a tolerance, and ``cell_images`` matches cells by their
sorted corner sets: references for the exact integer keys of
``symmetrize.weight_classes`` and of the group's cell maps.
"""

import numpy as np
import scipy.sparse as sparse

from symcrit.grid import _edge_keys


def quad_edges(nodes, n):
    """Distinct sides of quadrilateral cells, through ``np.unique``."""
    sides = np.vstack([nodes[:, :2], nodes[:, 2:], nodes[:, ::2],
                       nodes[:, 1::2]])
    keys = np.unique(_edge_keys(sides, n))
    return np.column_stack([keys // n, keys % n])


def cell_operator(nodes, tables, n_columns):
    """The cell map from COO triplets; scipy sums a repeated corner."""
    count, k = nodes.shape
    blocks = len(tables)
    data = np.concatenate([np.broadcast_to(t, nodes.shape).reshape(-1)
                           for t in tables])
    rows = np.repeat(np.arange(blocks * count), k)
    cols = np.tile(nodes.reshape(-1), blocks)
    op = sparse.csr_matrix((data, (rows, cols)),
                           shape=(blocks * count, n_columns))
    op.eliminate_zeros()
    op.sort_indices()
    return op


def as_csr(cells):
    """The corner table as a CSR matrix with one row per cell and block
    and one column per node and center; scipy sums the zero coefficients
    of a repeated column into its entry and drops what is zero."""
    blocks, width, count = cells.table.shape
    rows = np.arange(blocks)[:, None, None] * count + np.arange(count)
    op = sparse.csr_matrix(
        (cells.table.reshape(-1),
         (np.broadcast_to(rows, cells.table.shape).reshape(-1),
          np.broadcast_to(cells.cols, cells.table.shape).reshape(-1))),
        shape=(blocks * count, cells.n_columns))
    op.eliminate_zeros()
    op.sort_indices()
    return op


def center_row(cells):
    """The center's (1, n_nodes) row of node coefficients, or None."""
    if cells.center_nodes is None:
        return None
    return sparse.csr_matrix(
        (cells.center_coefs, cells.center_nodes,
         [0, cells.center_nodes.shape[0]]), shape=(1, cells.n_nodes))


def folded(cells, op=None):
    """The cell map over the node columns: op[:, :n] + op[:, n:] @ core,
    with op the cell set's own map unless one is given."""
    op = as_csr(cells) if op is None else op
    core = center_row(cells)
    if core is None:
        return op
    n = cells.n_nodes
    return (op[:, :n] + op[:, n:] @ core).tocsr()


def hat_w1p_norms(domain, p):
    """Hat-function W^{1,p} norms with the gradient blocks summed by
    mapping every gradient row of the folded map onto its cell through
    COO."""
    cs = domain.cells
    sq = folded(cs)[cs.count:].power(2).tocoo()
    gsq = sparse.csr_matrix((sq.data, (sq.row % cs.count, sq.col)),
                            shape=(cs.count, domain.n_nodes))
    dup = gsq.power(0.5 * p).T @ cs.weights
    return (domain.weights + dup) ** (1.0 / p)


def polar_coords(radii, n_theta, d_theta):
    """Node coordinates and squared radii of a polar grid, ring by ring."""
    theta = d_theta * np.arange(n_theta)
    coords = np.empty((radii.shape[0] * n_theta, 2))
    radius2 = np.empty(radii.shape[0] * n_theta)
    for i, r in enumerate(radii):
        sl = slice(i * n_theta, (i + 1) * n_theta)
        coords[sl, 0] = r * np.cos(theta)
        coords[sl, 1] = r * np.sin(theta)
        radius2[sl] = r * r
    return coords, radius2


def elements(g):
    """Every product of the generators of g, breadth first from the
    identity, found through a set of the node maps seen; (order, n)."""
    found = [np.arange(g.domain.n_nodes, dtype=np.int64)]
    seen = {found[0].tobytes()}
    # the loop also visits the elements appended while it runs
    for x in found:
        for t in g.gens:
            y = x[t]
            if y.tobytes() not in seen:
                seen.add(y.tobytes())
                found.append(y)
    return np.stack(found)


def act(perm, values):
    """The action (g u)(x) = u(g^{-1} x) of the node map perm: the result
    r has r[perm] = values, along the last axis."""
    return values[..., np.argsort(perm)]


def square_class(domain):
    """The square's interior ordered by squared radius, then node index;
    float radii within 1e-9 relative of the first of a run count as one
    radius, which merges rounding noise and nothing at the node-spacing
    scale.  Also returns each node's radius rank."""
    r2 = domain.radius2
    rank = np.empty(r2.shape[0], dtype=np.int64)
    idx = np.argsort(r2, kind="stable")
    tol = 1e-9 * (1.0 + float(r2[idx[-1]]))
    current, anchor = 0, float(r2[idx[0]])
    for i in idx:
        if float(r2[i]) - anchor > tol:
            current, anchor = current + 1, float(r2[i])
        rank[i] = current
    interior = np.flatnonzero(domain.interior)
    return interior[np.lexsort((interior, rank[interior]))], rank


def cell_images(cells, perms):
    """(maps, cells) image of every cell under each node map, by a dict
    from each cell's sorted set of corner columns to the cell; a map moves
    the node columns and keeps the disk's center column."""
    corners = [sorted(set(c)) for c in cells.cols.T.tolist()]
    cell_of = {tuple(c): i for i, c in enumerate(corners)}
    out = np.empty((len(perms), cells.count), dtype=np.int64)
    for e, perm in enumerate(perms):
        moved = np.append(perm, np.arange(cells.n_nodes, cells.n_columns))
        out[e] = [cell_of[tuple(sorted(moved[c].tolist()))] for c in corners]
    return out
