"""Finite symmetry groups acting on domains by node permutations.

Construction is exact: a group element, or a mirror from ``mirrors``, is
admitted only when it permutes nodes of equal quadrature weight, preserves
the boundary and maps grid edges to grid edges.  When the requested
action cannot be realized this way the constructor raises a
SymmetryCompatibilityError instead of returning an approximation.

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

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .errors import DomainMismatchError, SymmetryCompatibilityError
from .grid import CellSet, Domain, GridFunction, cell_values, is_edge

_SQUARE_TABLE = {
    "trivial": ("id",),
    "rotations_2": ("id", "rot180"),
    "rotations_4": ("id", "rot90", "rot180", "rot270"),
    "dihedral_1": ("id", "refl_x"),
    "dihedral_2": ("id", "rot180", "refl_x", "refl_y"),
    "dihedral_4": ("id", "rot90", "rot180", "rot270",
                   "refl_x", "refl_y", "refl_d", "refl_a"),
}

_POLAR_KINDS = ("disk-polar", "annulus-polar")

# elements are validated in stacks of about this many node or edge
# entries, so a large group never holds all its edge images at once
_CHECK_BLOCK = 1 << 14

# labels that name an element set already in a grid's table
_ALIASES = {
    "square": {"reflections": "dihedral_2", "block_product": "dihedral_2"},
    "polar": {"reflections": "dihedral_1", "block_product": "dihedral_2"},
}


@dataclass
class SymmetryGroup:
    """Explicit finite group of node permutations."""

    domain: Domain
    label: str
    perms: np.ndarray       # (order, n_nodes) int, geometric node maps
    # the orbit map, built on first use by ``fix_basis``
    _basis: FixBasis | None = field(default=None, init=False, repr=False)

    @property
    def order(self) -> int:
        return self.perms.shape[0]


@dataclass(frozen=True)
class FixBasis:
    """The node orbits of a group: the coordinates of Fix(G).

    ``orbit[i]`` numbers the orbit of node i, ``reps`` holds the smallest
    node of each orbit (ascending, so orbits are numbered in the order of
    their representatives), ``sizes`` the orbit sizes and ``interior``
    marks the orbits off the boundary.  ``sums`` is B^T for the n x k
    orbit-indicator matrix B: an invariant function is B x = ``x[orbit]``
    for its orbit values ``x = u[reps]``; the projector onto Fix(G) is
    B (B^T v / sizes).  Boundary orbits are kept, so every node has one.
    The group keeps its basis, which refers to no domain or group.
    """

    orbit: np.ndarray       # (n_nodes,) orbit number of each node
    reps: np.ndarray        # (k,) smallest node of each orbit
    sizes: np.ndarray       # (k,) nodes per orbit
    interior: np.ndarray    # (k,) bool, orbit off the boundary
    sums: sparse.csr_matrix  # (k, n_nodes) orbit sums B^T

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
        """Orbit means B^T v / sizes of a vector or of each stacked row."""
        return (self.sums @ values.T).T / self.sizes


def _square_index_maps(domain):
    na = domain.meta["axis_nodes"]
    m = na - 1
    ix = np.tile(np.arange(na), na)
    iy = np.repeat(np.arange(na), na)

    def to_perm(fx, fy):
        return (fy * na + fx).astype(np.int64)

    return {
        "id": to_perm(ix, iy),
        "rot90": to_perm(m - iy, ix),
        "rot180": to_perm(m - ix, m - iy),
        "rot270": to_perm(iy, m - ix),
        "refl_x": to_perm(m - ix, iy),
        "refl_y": to_perm(ix, m - iy),
        "refl_d": to_perm(iy, ix),
        "refl_a": to_perm(m - iy, m - ix),
    }


def _square_elements(domain, label):
    if label not in _SQUARE_TABLE:
        raise SymmetryCompatibilityError(
            f"label {label!r} is not realizable on a square grid; "
            f"supported: {sorted([*_SQUARE_TABLE, *_ALIASES['square']])}")
    maps = _square_index_maps(domain)
    return np.stack([maps[name] for name in _SQUARE_TABLE[label]])


def _polar_perm(domain, new_k):
    """Node map sending angular index k to new_k[k] on every ring."""
    n_theta = domain.meta["n_theta"]
    base = (np.arange(domain.meta["rings"]) * n_theta)[:, None]
    return (base + (new_k % n_theta)[None, :]).reshape(-1).astype(np.int64)


def _polar_elements(domain, label):
    n_theta = domain.meta["n_theta"]
    k_nodes = np.arange(n_theta)

    def order_from(prefix):
        try:
            k = int(label[len(prefix):])
        except ValueError:
            raise SymmetryCompatibilityError(f"malformed label {label!r}")
        if k < 1:
            raise SymmetryCompatibilityError(f"group order in {label!r} must be >= 1")
        if n_theta % k != 0:
            r = domain.meta["radii"][0]
            raise SymmetryCompatibilityError(
                f"rotation by 2*pi/{k} maps node 0 at (r={r:.6g}, theta=0) to "
                f"angle {2 * math.pi / k:.6g}, which is not a grid angle: "
                f"{k} does not divide the angular resolution {n_theta}")
        return k

    if label == "trivial":
        return _polar_perm(domain, k_nodes)[None, :]
    if label.startswith("rotations_"):
        k = order_from("rotations_")
        shifts = range(0, n_theta, n_theta // k)
        return np.stack([_polar_perm(domain, k_nodes + s) for s in shifts])
    if label.startswith("dihedral_"):
        k = order_from("dihedral_")
        shifts = range(0, n_theta, n_theta // k)
        return np.stack([_polar_perm(domain, k_nodes + s) for s in shifts]
                        + [_polar_perm(domain, s - k_nodes) for s in shifts])
    raise SymmetryCompatibilityError(
        f"label {label!r} is not realizable on a polar grid")


def build_group(domain: Domain, label: str) -> SymmetryGroup:
    """Realize a built-in group label on a domain, or fail exactly."""
    if domain.kind == "square":
        perms = _square_elements(domain, _ALIASES["square"].get(label, label))
    elif domain.kind in _POLAR_KINDS:
        perms = _polar_elements(domain, _ALIASES["polar"].get(label, label))
    elif domain.kind == "radial-ball-1d":
        if label != "trivial":
            raise SymmetryCompatibilityError(
                "the radial profile already quotients out O(N); only the "
                "trivial group acts on radial-ball-1d")
        perms = np.arange(domain.n_nodes, dtype=np.int64)[None, :]
    else:
        raise SymmetryCompatibilityError(f"unsupported domain kind {domain.kind!r}")

    g = SymmetryGroup(domain=domain, label=label, perms=perms)
    _validate_group(g)
    return g


def mirrors(domain: Domain) -> list:
    """The domain's exact mirror symmetries as node permutations.

    The square's four mirrors (x, y, diagonal, antidiagonal), the polar
    grid's theta = 0 mirror, none on the radial ball.  Each one passes the
    same checks as a group element.
    """
    if domain.kind == "square":
        maps = _square_index_maps(domain)
        perms = [maps[name] for name in ("refl_x", "refl_y", "refl_d",
                                         "refl_a")]
    elif domain.kind in _POLAR_KINDS:
        perms = [_polar_perm(domain, -np.arange(domain.meta["n_theta"]))]
    elif domain.kind == "radial-ball-1d":
        perms = []
    else:
        raise SymmetryCompatibilityError(f"unsupported domain kind {domain.kind!r}")
    _check_elements(domain, perms, lambda e: "mirror")
    return perms


def _check_elements(dom: Domain, perms, who, edges=True):
    """Each element must permute nodes of equal weight, the boundary mask
    and, unless ``edges`` is false, the grid edges; ``who(e)`` names
    element e in the error.

    The elements are checked in stacks of about ``_CHECK_BLOCK`` node or
    edge entries, with one ``is_edge`` lookup per stack.  The first
    element that fails is reported by its first failed check, as if the
    elements were checked one at a time.
    """
    n = dom.n_nodes
    nodes = np.arange(n)
    block = max(1, _CHECK_BLOCK // max(n, dom.edges.shape[0]))
    for start in range(0, len(perms), block):
        stack = np.asarray(perms[start:start + block])
        is_perm = np.all(np.sort(stack, axis=1) == nodes, axis=1)
        # rows that are no permutation fail first; index with the identity
        safe = np.where(is_perm[:, None], stack, nodes)
        heavy = ~np.isclose(dom.weights[safe], dom.weights, rtol=1e-12,
                            atol=0.0)
        moved = dom.boundary[safe] != dom.boundary
        failed = ~is_perm | heavy.any(axis=1) | moved.any(axis=1)
        if edges:
            mapped = safe[:, dom.edges]
            torn = ~is_edge(dom, mapped.reshape(-1, 2)).reshape(
                mapped.shape[:2])
            failed |= torn.any(axis=1)
        if not failed.any():
            continue
        e = int(np.argmax(failed))
        name, perm = who(start + e), stack[e]
        if not is_perm[e]:
            raise SymmetryCompatibilityError(
                f"{name} is not a node permutation")
        if heavy[e].any():
            i = int(np.argmax(heavy[e]))
            raise SymmetryCompatibilityError(
                f"{name} maps node {i} (weight {dom.weights[i]!r}) to node "
                f"{int(perm[i])} (weight {dom.weights[perm[i]]!r})")
        if moved[e].any():
            raise SymmetryCompatibilityError(
                f"{name} does not preserve the boundary mask")
        k = int(np.argmax(torn[e]))
        (a, b), (ia, ib) = dom.edges[k], mapped[e, k]
        raise SymmetryCompatibilityError(
            f"{name} maps edge ({int(a)}, {int(b)}) to "
            f"({int(ia)}, {int(ib)}), which is not a grid edge")


def _validate_group(g: SymmetryGroup):
    """Every element passes ``_check_elements``, the identity is one of
    them, and the elements are closed under composition.

    Closure is checked on generators: if x[t] (t applied first) is an
    element for every element x and every generator t, and products of
    generators reach every element, then so is every product x[y].  The
    generators are taken from the elements not reached yet, so a cyclic
    or dihedral group costs one or two vectorized compositions of all
    elements instead of |G|^2 single ones.  Every element is then a
    product of generators, and a product of permutations that map grid
    edges to grid edges does too, so the edge check runs on the
    generators only.  On any failure every element is checked in full
    first, so the error names the first offender as if each element had
    been checked before closure.
    """
    perms = g.perms.astype(np.int64)

    def who(e):
        return f"element {e} of {g.label!r}"

    try:
        _check_elements(g.domain, perms, who, edges=False)
        _check_elements(g.domain, perms[_generators(g.label, perms)], who)
    except SymmetryCompatibilityError:
        _check_elements(g.domain, perms, who)
        raise


def _generators(label, perms):
    """Elements whose products reach every element, taken by the closure
    walk of ``_validate_group``; raises when the identity is missing or
    a product is no element."""
    # rows are looked up by a random integer key (products wrap exactly)
    # and count as an element only if they equal the element found
    weights = np.random.default_rng(0).integers(1, 1 << 62, perms.shape[1])
    keys = perms @ weights
    order = np.argsort(keys)
    keys = keys[order]

    def index(rows):
        """The element equal to each row, or -1."""
        found = order[np.minimum(np.searchsorted(keys, rows @ weights),
                                 order.shape[0] - 1)]
        return np.where(np.all(perms[found] == rows, axis=1), found, -1)

    identity = index(np.arange(perms.shape[1])[None, :])[0]
    if identity < 0:
        raise SymmetryCompatibilityError("identity element missing")
    reached = np.zeros(perms.shape[0], dtype=bool)
    reached[identity] = True
    gens, steps = [], []
    while not reached.all():
        t = np.argmin(reached)
        # the element x[t] of every element x
        step = index(perms[:, perms[t]])
        if np.any(step < 0):
            raise SymmetryCompatibilityError(
                f"group {label!r} is not closed under composition")
        gens.append(t)
        steps.append(step)
        # t itself, which the lookup finds as its first copy if listed twice
        reached[t] = True
        count = 0
        while count < reached.sum():
            count = reached.sum()
            for s in steps:
                reached[s[reached]] = True
    return gens


def apply(g: SymmetryGroup, element: int, u: GridFunction) -> GridFunction:
    """The action (g u)(x) = u(g^{-1} x) of one group element."""
    if u.domain is not g.domain:
        raise DomainMismatchError("function and group live on different domains")
    out = np.empty_like(u.values)
    out[g.perms[element]] = u.values
    return GridFunction(g.domain, out)


def average_values(g: SymmetryGroup, values: np.ndarray) -> np.ndarray:
    """Orbit average of a vector or of each row of a (k, n) stack: the
    projector B (B^T v / sizes) onto Fix(G)."""
    basis = fix_basis(g)
    return basis.means(values)[..., basis.orbit]


def average(g: SymmetryGroup, u: GridFunction) -> GridFunction:
    """Center of gravity of the orbit of u: A u = (1/|G|) sum_g g u."""
    if u.domain is not g.domain:
        raise DomainMismatchError("function and group live on different domains")
    return GridFunction(g.domain, average_values(g, u.values))


def fix_basis(g: SymmetryGroup) -> FixBasis:
    """The orbit map of g, built once per group.

    The orbit of node i is the column ``perms[:, i]``, so its smallest
    member is the column minimum.
    """
    if g._basis is None:
        reps, orbit, sizes = np.unique(g.perms.min(axis=0),
                                       return_inverse=True,
                                       return_counts=True)
        n = g.domain.n_nodes
        sums = sparse.csr_matrix((np.ones(n), (orbit, np.arange(n))),
                                 shape=(reps.shape[0], n))
        g._basis = FixBasis(orbit=orbit, reps=reps, sizes=sizes,
                            interior=~g.domain.boundary[reps], sums=sums)
    return g._basis


def quotient(g: SymmetryGroup) -> Domain:
    """The orbit domain of g: the energy of Fix(G) in orbit coordinates.

    Its nodes are the node orbits of ``fix_basis`` and its cells one
    representative per cell orbit.  With B the orbit-indicator matrix, the
    cell map is the representative rows of the domain's map times B, and
    node and cell weights are the representatives' weights times the
    orbit size.  An invariant u = B x has equal cell averages and |Du| on
    every cell of an orbit, so the quotient energy F(x) equals f(B x) and
    its residual is B^T f'(B x): by the principle of symmetric
    criticality a critical point of F is a critical point of f.  The
    trivial group's quotient is the domain itself.  Raises
    SymmetryCompatibilityError when an element does not map cells to
    cells of equal weight and equal |Du| for invariant functions.
    """
    if g.order == 1:
        return g.domain
    return g.domain.cached(("quotient", g.perms.tobytes()),
                           lambda: _build_quotient(g))


def _cell_maps(g: SymmetryGroup) -> np.ndarray:
    """(order, cells) image of every cell under every element.

    An element sends the cell whose average row is a_c to the cell whose
    row is a_c with column j moved to perm[j]; applied to node values z
    that row gives a_c @ z[perm].  Two seeded random value columns key
    the cells, and each image key is matched to the nearest cell key.
    """
    dom = g.domain
    cs = dom.cells
    avg = cs.op[:cs.count]
    z = np.random.default_rng(0).uniform(1.0, 2.0, size=(dom.n_nodes, 2))
    keys = avg @ z
    images = (avg @ z[g.perms.T].reshape(dom.n_nodes, -1)).reshape(
        cs.count, g.order, 2).transpose(1, 0, 2)
    order = np.argsort(keys[:, 0])
    sorted_keys = keys[order, 0]
    pos = np.clip(np.searchsorted(sorted_keys, images[..., 0]), 1,
                  cs.count - 1)
    left = np.abs(images[..., 0] - sorted_keys[pos - 1]) \
        < np.abs(images[..., 0] - sorted_keys[pos])
    cmap = order[pos - left]
    bad = (np.abs(keys[cmap] - images) > 1e-12 * np.max(keys)).any(axis=-1)
    bad |= ~np.isclose(cs.weights[cmap], cs.weights, rtol=1e-12, atol=0.0)
    # an invariant function must have one |Du| on all cells of an orbit
    fb = fix_basis(g)
    grad = cell_values(dom, z[fb.reps[fb.orbit], 0])[1]
    bad |= ~np.isclose(grad[cmap], grad, rtol=1e-12, atol=0.0)
    if bad.any():
        e, c = (int(i[0]) for i in np.nonzero(bad))
        raise SymmetryCompatibilityError(
            f"element {e} of {g.label!r} maps cell {c} onto no cell of "
            "equal weight and gradient")
    return cmap


def _build_quotient(g: SymmetryGroup) -> Domain:
    dom, fb = g.domain, fix_basis(g)
    cs = dom.cells
    cell_reps, cell_sizes = np.unique(_cell_maps(g).min(axis=0),
                                      return_counts=True)
    blocks = cs.op.shape[0] // cs.count
    rows = (np.arange(blocks)[:, None] * cs.count + cell_reps).ravel()
    k = fb.reps.shape[0]
    op = (cs.op[rows] @ fb.sums.T).tocsr()
    op.eliminate_zeros()
    op.sort_indices()
    # grid edges between two distinct orbits
    ends = np.sort(fb.orbit[dom.edges], axis=1)
    edge_keys = np.unique(ends[:, 0] * k + ends[:, 1])
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
        cells=CellSet(op=op, weights=cs.weights[cell_reps] * cell_sizes),
        edges=np.column_stack([edge_keys // k, edge_keys % k]),
        volume=dom.volume,
    )
