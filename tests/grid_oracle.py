"""Reference builders for the tests: the cell map, the edge list and the
hat norms assembled the plain way, through scipy's COO format and
``np.unique``, and polar node coordinates filled ring by ring.
``symcrit.grid`` builds the same arrays in whole-array passes; the tests
hold the two to bitwise equality.  ``folded`` gives the cell map over the
node columns alone, the disk's center folded into every row that reads
it, as a reference for the code that carries the center as a column.
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


def folded(cells):
    """The cell map over the node columns: op[:, :n] + op[:, n:] @ core."""
    if cells.core is None:
        return cells.op
    n = cells.core.shape[1]
    return (cells.op[:, :n] + cells.op[:, n:] @ cells.core).tocsr()


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
