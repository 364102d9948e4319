"""Finite symmetry groups acting on domains by node permutations.

Construction is exact: each label names its generators, node maps that
turn or mirror the grid, and a generator, or a mirror from ``mirrors``,
is admitted only when it permutes nodes of equal quadrature weight,
preserves the boundary and maps grid edges to grid edges; their products
then do too.  When the requested action cannot be realized this way the
constructor raises a SymmetryCompatibilityError instead of returning an
approximation.  A group is its generators and its orbit map, with no
element list: every consumer reads Fix(G) alone, and the node and cell
orbits come from the generators by one propagation (``_smallest_members``).

The action on functions follows (g u)(x) = u(g^{-1} x): if ``perm`` sends
node i to node perm[i] geometrically, then ``(g u)[perm] = u``.

A G-invariant function is fixed by its values on the node orbits
(``fix_basis``).  That orbit map gives the projector onto Fix(G), orbit
means expanded (``average_values``), and ``quotient``: a domain whose
nodes are the orbits and whose energy is that of the invariant function.
By the principle of symmetric criticality (Palais 1979) a critical point
of f restricted to Fix(G) is critical for f, so restricted solves run on
the quotient and need no projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SymmetryCompatibilityError
from .grid import Domain, cell_values, distinct, is_edge, numbering

# labels that name the group of another label, per domain kind
_POLAR_ALIASES = {"reflections": "dihedral_1", "block_product": "dihedral_2"}
_ALIASES = {
    "square": {"reflections": "dihedral_2", "block_product": "dihedral_2"},
    "disk-polar": _POLAR_ALIASES,
    "annulus-polar": _POLAR_ALIASES,
}


@dataclass
class SymmetryGroup:
    """A finite group of node permutations, held as its generators and,
    once ``fix_basis`` has built it, its orbit map; no element list."""

    domain: Domain
    label: str
    gens: np.ndarray        # (k, n_nodes) int, geometric node maps
    # the orbit map, built on first use by ``fix_basis``
    _basis: FixBasis | None = field(default=None, init=False, repr=False)


@dataclass(frozen=True)
class FixBasis:
    """The node orbits of a group: the coordinates of Fix(G).

    ``orbit[i]`` numbers the orbit of node i, ``reps`` holds the smallest
    node of each orbit (ascending, so orbits are numbered in the order of
    their representatives), ``sizes`` the orbit sizes and ``interior``
    marks the orbits off the boundary.  With B the n x k orbit-indicator
    matrix, an invariant function is B x = ``x[orbit]`` for its orbit
    values ``x = u[reps]``; the projector onto Fix(G) is B (B^T v /
    sizes).  Boundary orbits are kept, so every node has one.  The group
    keeps its basis, which refers to no domain or group.
    """

    orbit: np.ndarray       # (n_nodes,) orbit number of each node
    reps: np.ndarray        # (k,) smallest node of each orbit
    sizes: np.ndarray       # (k,) nodes per orbit
    interior: np.ndarray    # (k,) bool, orbit off the boundary

    @property
    def dim(self) -> int:
        """dim Fix(G): the number of interior orbits."""
        return int(np.count_nonzero(self.interior))

    @property
    def orbits(self) -> list:
        """Member nodes of each interior orbit."""
        members = np.split(np.argsort(self.orbit, kind="stable"),
                           np.cumsum(self.sizes)[:-1])
        return [m for m, keep in zip(members, self.interior) if keep]

    def means(self, values: np.ndarray) -> np.ndarray:
        """Orbit means B^T v / sizes of a vector or of each stacked row;
        each orbit sum adds its members in node order."""
        if values.ndim > 1:
            return np.stack([self.means(row) for row in values])
        return np.bincount(self.orbit, values) / self.sizes


def _symmetries(domain):
    """The grid's turns and mirrors: the turn by j of its smallest steps,
    the number N of those steps in a full turn, and its mirrors, the one
    of the dihedral labels first.

    The square turns by quarter turns (N = 4) and has four mirrors
    (x -> -x, y -> -y, the diagonal and the antidiagonal); a polar grid
    turns by its angular step (N = n_theta) and has the theta -> -theta
    mirror; the radial ball has no turn (None) and no mirror.
    """
    if domain.kind == "square":
        na = domain.meta["axis_nodes"]
        m = na - 1
        ix = np.tile(np.arange(na), na)
        iy = np.repeat(np.arange(na), na)

        def at(fx, fy):
            return (fy * na + fx).astype(np.int64)

        turns = [at(ix, iy), at(m - iy, ix), at(m - ix, m - iy),
                 at(iy, m - ix)]
        return lambda j: turns[j % 4], 4, [at(m - ix, iy), at(ix, m - iy),
                                           at(iy, ix), at(m - iy, m - ix)]
    if domain.kind in ("disk-polar", "annulus-polar"):
        n_theta = domain.meta["n_theta"]
        k = np.arange(n_theta)
        base = (np.arange(domain.meta["rings"]) * n_theta)[:, None]

        def at(new_k):
            # angular index k goes to new_k[k] on every ring
            return (base + new_k % n_theta).reshape(-1).astype(np.int64)

        return lambda j: at(k + j), n_theta, [at(-k)]
    if domain.kind == "radial-ball-1d":
        return None, 1, []
    raise SymmetryCompatibilityError(f"unsupported domain kind {domain.kind!r}")


def build_group(domain: Domain, label: str) -> SymmetryGroup:
    """Realize a built-in group label on a domain, or fail exactly.

    One grammar reads the grid's turns and mirrors (``_symmetries``):
    ``trivial`` has no generators; ``rotations_k`` and ``dihedral_k``,
    for k dividing the N steps of a full turn, have the turn by N/k steps
    (left out when k = 1), and ``dihedral_k`` the first mirror after it.
    Each generator is checked by ``_check_elements``; every product of
    them keeps the weights, the boundary and the grid edges as they do,
    and none is formed.
    """
    turn, n_turns, maps = _symmetries(domain)
    target = _ALIASES.get(domain.kind, {}).get(label, label)
    gens = []
    if target != "trivial":
        if turn is None:
            raise SymmetryCompatibilityError(
                "the radial profile already quotients out O(N); only the "
                "trivial group acts on radial-ball-1d")
        name, _, order = target.partition("_")
        if name not in ("rotations", "dihedral"):
            raise SymmetryCompatibilityError(
                f"label {label!r} is not realizable on a {domain.kind} grid")
        if not order.isdecimal():
            raise SymmetryCompatibilityError(f"malformed label {label!r}")
        k = int(order)
        if k < 1 or n_turns % k:
            raise SymmetryCompatibilityError(
                f"the order {k} of {label!r} does not divide the grid's "
                f"{n_turns} turns")
        gens = [turn(n_turns // k)] if k > 1 else []
        if name == "dihedral":
            gens.append(maps[0])
    _check_elements(domain, gens, lambda e: f"generator {e} of {label!r}")
    return SymmetryGroup(domain=domain, label=label,
                         gens=np.array(gens, dtype=np.int64).reshape(
                             -1, domain.n_nodes))


def full_group(domain: Domain) -> SymmetryGroup | None:
    """The grid's full dihedral group ``dihedral_N``, or None on the
    radial ball, which has no turn."""
    turn, n_turns, _ = _symmetries(domain)
    return None if turn is None else build_group(domain, f"dihedral_{n_turns}")


def mirrors(domain: Domain) -> list:
    """The domain's exact mirror symmetries as node permutations, those
    of ``_symmetries``.  Each one passes the same checks as a group's
    generators."""
    maps = _symmetries(domain)[2]
    _check_elements(domain, maps, lambda e: "mirror")
    return maps


def _check_elements(dom: Domain, maps, who):
    """Each node map must permute nodes of equal weight, the boundary
    mask and the grid edges; the first map that fails, named ``who(e)``,
    is reported by its first failed check."""
    nodes = np.arange(dom.n_nodes)
    for e, perm in enumerate(maps):
        if not np.array_equal(np.sort(perm), nodes):
            raise SymmetryCompatibilityError(
                f"{who(e)} is not a node permutation")
        heavy = ~np.isclose(dom.weights[perm], dom.weights, rtol=1e-12,
                            atol=0.0)
        if heavy.any():
            i = int(np.argmax(heavy))
            raise SymmetryCompatibilityError(
                f"{who(e)} maps node {i} (weight {dom.weights[i]!r}) to "
                f"node {int(perm[i])} (weight {dom.weights[perm[i]]!r})")
        if not np.array_equal(dom.boundary[perm], dom.boundary):
            raise SymmetryCompatibilityError(
                f"{who(e)} does not preserve the boundary mask")
        mapped = perm[dom.edges]
        torn = ~is_edge(dom, mapped)
        if torn.any():
            k = int(np.argmax(torn))
            (a, b), (ia, ib) = dom.edges[k], mapped[k]
            raise SymmetryCompatibilityError(
                f"{who(e)} maps edge ({int(a)}, {int(b)}) to "
                f"({int(ia)}, {int(ib)}), which is not a grid edge")


def average_values(g: SymmetryGroup, values: np.ndarray) -> np.ndarray:
    """Orbit average of a vector or of each row of a (k, n) stack: the
    projector B (B^T v / sizes) onto Fix(G)."""
    basis = fix_basis(g)
    return np.take(basis.means(values), basis.orbit, axis=-1)


def _smallest_members(maps, count):
    """Smallest member of the orbit of each of ``count`` items under the
    (k, count) item maps.

    Each item's label starts as the item itself and takes the smallest
    label among its images until no label changes; an orbit is connected
    through the maps, so every item of it ends with its smallest member.
    """
    labels = np.arange(count)
    while True:
        new = labels
        for m in maps:
            new = np.minimum(new, new[m])
        if np.array_equal(new, labels):
            return labels
        labels = new


def fix_basis(g: SymmetryGroup) -> FixBasis:
    """The node orbits of g from its generators, built once per group.

    Each node's smallest orbit member is its orbit's label; the distinct
    labels are the representatives, ``numbering`` gives each node its
    orbit's number and ``np.bincount`` the sizes."""
    if g._basis is None:
        reps, orbit = numbering(_smallest_members(g.gens, g.domain.n_nodes))
        g._basis = FixBasis(orbit=orbit, reps=reps, sizes=np.bincount(orbit),
                            interior=~g.domain.boundary[reps])
    return g._basis


def quotient(g: SymmetryGroup) -> Domain:
    """The orbit domain of g: the energy of Fix(G) in orbit coordinates.

    Its nodes are the node orbits of ``fix_basis`` and its cells one
    representative per cell orbit, the cell orbits propagated through the
    generators' cell maps, which match cells by exact integer corner keys
    (``_cell_maps``).  With B the orbit-indicator matrix, the
    cell map is the representative cells of the domain's map times B,
    the disk's center column kept with its coefficients summed per orbit;
    node and cell weights are the representatives' weights times the
    orbit size.  An invariant u = B x has equal cell averages and |Du| on
    every cell of an orbit, so the quotient energy F(x) equals f(B x) and
    its residual is B^T f'(B x): by the principle of symmetric
    criticality a critical point of F is a critical point of f.  A group
    whose orbits are single nodes is trivial, and its quotient is the
    domain itself.  Raises SymmetryCompatibilityError when a generator
    does not map cells to cells of equal weight and equal |Du| for
    invariant functions.
    """
    if fix_basis(g).reps.shape[0] == g.domain.n_nodes:
        return g.domain
    return g.domain.cached(("quotient", g.gens.tobytes()),
                           lambda: _build_quotient(g))


def _cell_maps(g: SymmetryGroup) -> np.ndarray:
    """(generators, cells) image of every cell under each generator.

    Cells are matched by exact integer keys: each column of the cell map
    gets a seeded random 60-bit label, and a cell's key is the sum of its
    corner labels, at most four, so it fits in int64.  A node map moves
    column j to perm[j] and keeps the disk's center column, so the image
    of a cell is the cell whose key is the sum of its moved labels, found
    by ``searchsorted`` in the sorted keys.  A map fails when an image
    matches no key, or lands on a cell of another weight or, for an
    invariant function, of another |Du|.  A product of generators maps
    cells onto cells of equal weight and |Du| when each generator does.
    """
    dom = g.domain
    cs = dom.cells
    rng = np.random.default_rng(0)
    labels = rng.integers(1 << 60, size=cs.n_columns)
    keys = labels[cs.cols].sum(axis=0)
    moved = np.hstack([labels[g.gens],
                       np.tile(labels[dom.n_nodes:], (g.gens.shape[0], 1))])
    images = moved[:, cs.cols].sum(axis=1)
    order = np.argsort(keys)
    cmap = order[np.minimum(np.searchsorted(keys[order], images),
                            cs.count - 1)]
    bad = keys[cmap] != images
    bad |= ~np.isclose(cs.weights[cmap], cs.weights, rtol=1e-12, atol=0.0)
    # an invariant function must have one |Du| on all cells of an orbit
    fb = fix_basis(g)
    grad = cell_values(dom, rng.uniform(1.0, 2.0, dom.n_nodes)[
        fb.reps[fb.orbit]])[1]
    # |Du| is 0 on a cell whose nodes share one orbit (the disk's core
    # cells under its full rotation group), which reads as roundoff
    bad |= ~np.isclose(grad[cmap], grad, rtol=1e-12,
                       atol=1e-12 * np.max(grad))
    if bad.any():
        e, c = (int(i[0]) for i in np.nonzero(bad))
        raise SymmetryCompatibilityError(
            f"generator {e} of {g.label!r} maps cell {c} onto no cell of "
            "equal weight and gradient")
    return cmap


def _cell_orbits(g: SymmetryGroup):
    """Smallest cell of each cell orbit, ascending, and the orbit sizes,
    from the generators' cell maps."""
    reps, at = numbering(_smallest_members(_cell_maps(g),
                                           g.domain.cells.count))
    return reps, np.bincount(at)


def _build_quotient(g: SymmetryGroup) -> Domain:
    dom, fb = g.domain, fix_basis(g)
    cs = dom.cells
    cell_reps, cell_sizes = _cell_orbits(g)
    k = fb.reps.shape[0]
    # grid edges between two distinct orbits
    ends = np.sort(fb.orbit[dom.edges], axis=1)
    edge_keys = distinct(ends[:, 0] * k + ends[:, 1])
    edge_keys = edge_keys[edge_keys // k != edge_keys % k]
    return Domain(
        kind=f"{dom.kind}/{g.label}",
        dim=dom.dim,
        extents=dom.extents,
        resolution=dom.resolution,
        coords=dom.coords[fb.reps],
        radius2=dom.radius2[fb.reps],
        weights=dom.weights[fb.reps] * fb.sizes,
        boundary=dom.boundary[fb.reps],
        cells=cs.quotient(cell_reps, fb.orbit,
                          cs.weights[cell_reps] * cell_sizes),
        edges=np.column_stack([edge_keys // k, edge_keys % k]),
        volume=dom.volume,
    )
