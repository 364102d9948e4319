"""Finite symmetry groups acting on domains by node permutations.

Construction is exact: a group element, or a mirror from ``mirrors``, is
admitted only when it permutes nodes of equal quadrature weight, preserves
the boundary and maps grid edges to grid edges.  When the requested
action cannot be realized this way the constructor raises a
SymmetryCompatibilityError instead of returning an approximation.

The action on functions follows (g u)(x) = u(g^{-1} x): if ``perm`` sends
node i to node perm[i] geometrically, then ``(g u)[perm] = u``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError, SymmetryCompatibilityError
from .grid import Domain, GridFunction, is_edge

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

    @property
    def order(self) -> int:
        return self.perms.shape[0]


@dataclass
class FixBasis:
    """Orbit decomposition of the interior nodes under a group."""

    group: SymmetryGroup
    orbit_id: np.ndarray    # (n_nodes,) orbit label per node, -1 on boundary
    orbits: list            # list of int arrays, interior orbits only

    @property
    def dim(self) -> int:
        return len(self.orbits)


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
    for perm in perms:
        _check_element(domain, perm, "mirror")
    return perms


def _check_element(dom: Domain, perm: np.ndarray, who: str):
    """An element must permute nodes of equal weight, the boundary mask
    and the grid edges."""
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
    bad = np.flatnonzero(~is_edge(dom, mapped))
    if bad.size:
        (a, b), (ia, ib) = dom.edges[bad[0]], mapped[bad[0]]
        raise SymmetryCompatibilityError(
            f"{who} maps edge ({int(a)}, {int(b)}) to "
            f"({int(ia)}, {int(ib)}), which is not a grid edge")


def _validate_group(g: SymmetryGroup):
    keys = {}
    for e, perm in enumerate(g.perms):
        _check_element(g.domain, perm, f"element {e} of {g.label!r}")
        keys[perm.tobytes()] = e
    if np.arange(g.domain.n_nodes, dtype=np.int64).tobytes() not in keys:
        raise SymmetryCompatibilityError("identity element missing")
    for pa in g.perms:
        for pb in g.perms:
            if pb[pa].astype(np.int64).tobytes() not in keys:
                raise SymmetryCompatibilityError(
                    f"group {g.label!r} is not closed under composition")


def apply(g: SymmetryGroup, element: int, u: GridFunction) -> GridFunction:
    """The action (g u)(x) = u(g^{-1} x) of one group element."""
    if u.domain is not g.domain:
        raise DomainMismatchError("function and group live on different domains")
    out = np.empty_like(u.values)
    out[g.perms[element]] = u.values
    return GridFunction(g.domain, out)


def average_values(g: SymmetryGroup, values: np.ndarray) -> np.ndarray:
    """Orbit average of a value array (the projector onto Fix(G))."""
    acc = np.zeros_like(values, dtype=np.float64)
    for perm in g.perms:
        if values.ndim == 1:
            acc[perm] += values
        else:
            acc[:, perm] += values
    return acc / g.order


def average(g: SymmetryGroup, u: GridFunction) -> GridFunction:
    """Center of gravity of the orbit of u: A u = (1/|G|) sum_g g u."""
    if u.domain is not g.domain:
        raise DomainMismatchError("function and group live on different domains")
    return GridFunction(g.domain, average_values(g, u.values))


def fix_basis(g: SymmetryGroup) -> FixBasis:
    """Orbit partition of the interior nodes; dim Fix(G) = number of orbits."""
    n = g.domain.n_nodes
    orbit_id = np.full(n, -1, dtype=np.int64)
    orbits = []
    interior = np.nonzero(~g.domain.boundary)[0]
    for i in interior:
        if orbit_id[i] != -1:
            continue
        members = np.unique(g.perms[:, i])
        orbit_id[members] = len(orbits)
        orbits.append(members)
    return FixBasis(group=g, orbit_id=orbit_id, orbits=orbits)
