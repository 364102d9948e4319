"""Finite symmetry groups acting on domains by node permutations.

Construction is exact: an element is admitted only when it permutes nodes
of equal quadrature weight and maps grid edges to grid edges.  When the
requested action cannot be realized this way the constructor raises a
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

_SQUARE_LABELS = ("trivial", "rotations_2", "rotations_4", "dihedral_1",
                  "dihedral_2", "dihedral_4", "reflections", "block_product")


@dataclass
class SymmetryGroup:
    """Explicit finite group of node permutations plus its point action."""

    domain: Domain
    label: str
    perms: np.ndarray       # (order, n_nodes) int, geometric node maps
    matrices: np.ndarray    # (order, d, d) orthogonal matrices on R^d

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


def _rotation(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def _reflection(psi):
    """Reflection across the line through the origin at angle psi."""
    c, s = math.cos(2 * psi), math.sin(2 * psi)
    return np.array([[c, s], [s, -c]])


def _square_index_maps(domain):
    na = domain.meta["axis_nodes"]
    m = na - 1
    ix = np.tile(np.arange(na), na)
    iy = np.repeat(np.arange(na), na)

    def to_perm(fx, fy):
        return (fy * na + fx).astype(np.int64)

    return {
        "id": (to_perm(ix, iy), np.eye(2)),
        "rot90": (to_perm(m - iy, ix), _rotation(math.pi / 2)),
        "rot180": (to_perm(m - ix, m - iy), _rotation(math.pi)),
        "rot270": (to_perm(iy, m - ix), _rotation(3 * math.pi / 2)),
        "refl_x": (to_perm(m - ix, iy), _reflection(math.pi / 2)),
        "refl_y": (to_perm(ix, m - iy), _reflection(0.0)),
        "refl_d": (to_perm(iy, ix), _reflection(math.pi / 4)),
        "refl_a": (to_perm(m - iy, m - ix), _reflection(3 * math.pi / 4)),
    }


def _square_elements(domain, label):
    maps = _square_index_maps(domain)
    named = {
        "trivial": ["id"],
        "rotations_2": ["id", "rot180"],
        "rotations_4": ["id", "rot90", "rot180", "rot270"],
        "dihedral_1": ["id", "refl_x"],
        "dihedral_2": ["id", "rot180", "refl_x", "refl_y"],
        "dihedral_4": ["id", "rot90", "rot180", "rot270",
                       "refl_x", "refl_y", "refl_d", "refl_a"],
        "reflections": ["id", "refl_x", "refl_y", "rot180"],
        "block_product": ["id", "refl_x", "refl_y", "rot180"],
    }
    if label not in named:
        raise SymmetryCompatibilityError(
            f"label {label!r} is not realizable on a square grid; "
            f"supported: {sorted(named)}")
    chosen = [maps[name] for name in named[label]]
    return (np.stack([p for p, _ in chosen]),
            np.stack([mat for _, mat in chosen]))


def _polar_shift_perm(domain, shift):
    n_theta = domain.meta["n_theta"]
    rings = domain.meta["rings"]
    k = np.arange(n_theta)
    new_k = (k + shift) % n_theta
    base = (np.arange(rings) * n_theta)[:, None]
    return (base + new_k[None, :]).reshape(-1).astype(np.int64)


def _polar_reflect_perm(domain, c):
    n_theta = domain.meta["n_theta"]
    rings = domain.meta["rings"]
    k = np.arange(n_theta)
    new_k = (c - k) % n_theta
    base = (np.arange(rings) * n_theta)[:, None]
    return (base + new_k[None, :]).reshape(-1).astype(np.int64)


def _polar_elements(domain, label):
    n_theta = domain.meta["n_theta"]
    d_theta = domain.meta["d_theta"]

    def order_from(label, prefix):
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

    perms, mats = [], []
    if label == "trivial":
        perms = [_polar_shift_perm(domain, 0)]
        mats = [np.eye(2)]
    elif label.startswith("rotations_"):
        k = order_from(label, "rotations_")
        for j in range(k):
            perms.append(_polar_shift_perm(domain, j * (n_theta // k)))
            mats.append(_rotation(2 * math.pi * j / k))
    elif label.startswith("dihedral_"):
        k = order_from(label, "dihedral_")
        for j in range(k):
            perms.append(_polar_shift_perm(domain, j * (n_theta // k)))
            mats.append(_rotation(2 * math.pi * j / k))
        for j in range(k):
            perms.append(_polar_reflect_perm(domain, j * (n_theta // k)))
            mats.append(_reflection(math.pi * j / k))
    elif label == "reflections":
        perms = [_polar_shift_perm(domain, 0), _polar_reflect_perm(domain, 0)]
        mats = [np.eye(2), _reflection(0.0)]
    elif label == "block_product":
        if n_theta % 2 != 0:
            raise SymmetryCompatibilityError(
                "block_product needs an even angular resolution")
        half = n_theta // 2
        perms = [_polar_shift_perm(domain, 0), _polar_reflect_perm(domain, 0),
                 _polar_shift_perm(domain, half), _polar_reflect_perm(domain, half)]
        mats = [np.eye(2), _reflection(0.0), _rotation(math.pi),
                _reflection(math.pi / 2)]
    else:
        raise SymmetryCompatibilityError(
            f"label {label!r} is not realizable on a polar grid")
    return np.stack(perms), np.stack(mats)


def build_group(domain: Domain, label: str) -> SymmetryGroup:
    """Realize a built-in group label on a domain, or fail exactly."""
    if domain.kind == "square":
        perms, mats = _square_elements(domain, label)
    elif domain.kind in ("disk-polar", "annulus-polar"):
        perms, mats = _polar_elements(domain, label)
    elif domain.kind == "radial-ball-1d":
        if label != "trivial":
            raise SymmetryCompatibilityError(
                "the radial profile already quotients out O(N); only the "
                "trivial group acts on radial-ball-1d")
        perms = np.arange(domain.n_nodes, dtype=np.int64)[None, :]
        mats = np.eye(domain.dim)[None, :, :]
    else:
        raise SymmetryCompatibilityError(f"unsupported domain kind {domain.kind!r}")

    g = SymmetryGroup(domain=domain, label=label, perms=perms, matrices=mats)
    _validate_group(g)
    return g


def _validate_group(g: SymmetryGroup):
    dom = g.domain
    n = dom.n_nodes
    keys = {}
    for e, perm in enumerate(g.perms):
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise SymmetryCompatibilityError(
                f"element {e} of {g.label!r} is not a node permutation")
        bad = np.nonzero(~np.isclose(dom.weights[perm], dom.weights,
                                     rtol=1e-12, atol=0.0))[0]
        if bad.size:
            i = int(bad[0])
            raise SymmetryCompatibilityError(
                f"element {e} maps node {i} (weight {dom.weights[i]!r}) to node "
                f"{int(perm[i])} (weight {dom.weights[perm[i]]!r})")
        if not np.array_equal(dom.boundary[perm], dom.boundary):
            raise SymmetryCompatibilityError(
                f"element {e} does not preserve the boundary mask")
        mapped = perm[dom.edges]
        bad = np.flatnonzero(~is_edge(dom, mapped))
        if bad.size:
            (a, b), (ia, ib) = dom.edges[bad[0]], mapped[bad[0]]
            raise SymmetryCompatibilityError(
                f"element {e} maps edge ({int(a)}, {int(b)}) to "
                f"({int(ia)}, {int(ib)}), which is not a grid edge")
        keys[perm.tobytes()] = e
    if np.arange(n, dtype=np.int64).tobytes() not in keys:
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


def orbit_packing_count(g: SymmetryGroup, y, r: float) -> int:
    """Largest number of orbit points of y whose open r-balls are disjoint.

    Exhaustive branch-and-bound over the finite orbit, visiting points in
    greedy order, so the count is exact.
    """
    y = np.asarray(y, dtype=np.float64)
    pts = np.unique(np.round(g.matrices @ y, 9), axis=0)
    m = pts.shape[0]
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    ok = d2 >= (2.0 * r) ** 2

    best = 0

    def extend(chosen_mask, start, count):
        nonlocal best
        best = max(best, count)
        for i in range(start, m):
            if count + (m - i) <= best:
                return
            if np.all(ok[i, chosen_mask]):
                chosen_mask[i] = True
                extend(chosen_mask, i + 1, count + 1)
                chosen_mask[i] = False

    extend(np.zeros(m, dtype=bool), 0, 0)
    return best
