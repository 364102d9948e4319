"""Bitwise pins and memory bounds of the kernels on the verify-point path.

The cell map, the edge list, the hat norms and the orbit numbering are
pinned by sha256 digests of their bytes, dtypes and shapes.  The oracle
comparisons of ``test_grid`` read the disk's hat norms only to 1e-13, so
a reordered sum would pass there and fails here.  The traced peaks of
the domain builder, the hat norms, ``fix_basis`` and the grid-function
formatter are held to small multiples of what each keeps, so that none
of them forms a full-size temporary it does not need.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from symcrit import grid, group

DOMAINS = {
    "square-45": ("square", dict(side=6.0, resolution=45)),
    "square-23": ("square", dict(side=6.0, resolution=23)),
    "disk-10x16": ("disk-polar", dict(radius=6.0, resolution=10,
                                      angular_resolution=16)),
    "disk-32x128": ("disk-polar", dict(radius=6.0, resolution=32,
                                       angular_resolution=128)),
    "disk-48x128": ("disk-polar", dict(radius=6.0, resolution=48,
                                       angular_resolution=128)),
    "annulus-10x32": ("annulus-polar", dict(inner_radius=1.0,
                                            outer_radius=6.0, resolution=10,
                                            angular_resolution=32)),
    "ball-60": ("radial-ball-1d", dict(dimension=3, radius=12.0,
                                       resolution=60)),
}

# (domain, group label) of each pinned quotient
QUOTIENTS = {
    "square-23/dihedral_4": ("square-23", "dihedral_4"),
    "disk-32x128/rotations_8": ("disk-32x128", "rotations_8"),
    "disk-48x128/dihedral_8": ("disk-48x128", "dihedral_8"),
}

HAT_EXPONENTS = (1.5, 1.8, 2.0, 3.0)


def digest(*arrays) -> str:
    """sha256 of each array's dtype, shape and bytes, in turn."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def pinned_domain(name):
    """The named domain or quotient, and the group of a quotient."""
    if name in QUOTIENTS:
        base, label = QUOTIENTS[name]
        g = group.build_group(pinned_domain(base)[0], label)
        return group.quotient(g), g
    kind, extents = DOMAINS[name]
    return grid.build_domain(kind, **extents), None


def geometry_digest(dom):
    cs = dom.cells
    center = () if cs.center_nodes is None else (cs.center_nodes,
                                                 cs.center_coefs)
    return digest(cs.cols, cs.table, cs.weights, dom.edges, *center)


def hat_digest(dom):
    return digest(*(grid.hat_w1p_norms(dom, p) for p in HAT_EXPONENTS))


def basis_digest(g):
    fb = group.fix_basis(g)
    return digest(fb.orbit, fb.reps, fb.sizes, fb.interior)


GEOMETRY = {
    "square-45":
        "9f9c72b7910a48419c7363f5ea9680e854f869874a7dbc878b9a6394d6505d11",
    "square-23":
        "a633d48bf6f2ed79cc032d5ec6a1e2200f0cfd4e9355acd9d384d102295e43ea",
    "disk-10x16":
        "f2acd52b42513663a9017dc8f91dba754689139233aabb4189f7bcba83f76add",
    "disk-32x128":
        "8533aa97425bcf766773a87041844741c80afdb2e75d5285fa851b88fd3dbc18",
    "disk-48x128":
        "8aa53b0ad28eb6ef35a7652d13a8659637d68eb599190665501199e6815a3b93",
    "annulus-10x32":
        "9deb6b5b7cab253f7e2d2cdb7ea353d492877f13facd2fba1a51e215da4b4475",
    "ball-60":
        "dd678cce6c5cbeb4bb42e4cbf30a94b58aa03b313292ae8359e36b6c8d491976",
    "square-23/dihedral_4":
        "d02ce6d4d2ce1f183ded624838bb6e2313db76b2cc9e52f0d42e9b1b89fa58fe",
    "disk-32x128/rotations_8":
        "4742b149d751904e9d7b1a6aafb42f0b398553e17ea5b845670f0d47c561892b",
    "disk-48x128/dihedral_8":
        "b8ed922710646b45b48351445b47b398ab11cab6eb9d7d6fe24723342c618ee4",
}

HAT_NORMS = {
    "square-45":
        "c5c498cbfe7a3b924c5ef2045688d2b7942cfa082d25edb4708f3811ea28a9b8",
    "square-23":
        "2169b24adbb58b33ea63bffbd91f522b583aab5dd01bdd6f351c93e11b26426d",
    "disk-10x16":
        "93b1d5489ae1eab3a882e6c1d49e21ed0feec0bb4f409c2f79b795eb3fb96aa8",
    "disk-32x128":
        "f0ce527dcbf30fc7ed36e191979e45a2c4092f76504735954bce14368e3d400b",
    "disk-48x128":
        "d0862a9bbd4543e28dc3cc4837bbc16a2495befc6447a377cb9cf23b94efae74",
    "annulus-10x32":
        "0503cc6159674d7f6eda351a97c39f2e12d586091d220ccd271bb16766812595",
    "ball-60":
        "2025c33aa3ca885672e8295405fe1a7c75bfdacfd595a208e5782a0280837511",
    "square-23/dihedral_4":
        "19b15f7aa943ced972834c7f597d78cc1bbced24257ae3cc459b44787c1eda8c",
    "disk-32x128/rotations_8":
        "ef587a6422fa2b7815f6400a2ea86491c27fef15dfc3f45f4adc973ca47a0499",
    "disk-48x128/dihedral_8":
        "872d9069cf4261a11594a2b265d733a8dd7658e50395e91a0fb5e33f2b61cc7c",
}

BASES = {
    "square-23/dihedral_4":
        "62d369e79a59ae7007b446892fe5c83fa42eaf073c4b36c7d6feb990910e493f",
    "disk-32x128/rotations_8":
        "87fed46c480c2d9846b953e18c96d4464e378b9d7e7fb934035aa9657cad8686",
    "disk-48x128/dihedral_8":
        "21383dfa062044c69538cbe88ae7d4fe198a821a0db00754632029f990246ee6",
}


@pytest.mark.parametrize("name", [*DOMAINS, *QUOTIENTS])
def test_geometry_and_hat_norms_are_pinned_bitwise(name):
    dom, g = pinned_domain(name)
    assert geometry_digest(dom) == GEOMETRY[name]
    assert hat_digest(dom) == HAT_NORMS[name]
    if g is not None:
        assert basis_digest(g) == BASES[name]


def test_format_table_blocks_match_one_format_operation(rng):
    # rows are formatted in blocks; the text is that of one % operation
    # over the whole table, at every block boundary
    b = grid._FORMAT_BLOCK_ROWS
    for count in (0, 1, b - 1, b, b + 1, 2 * b + 3):
        index = np.arange(count)
        coords = rng.standard_normal((count, 2))
        values = rng.standard_normal(count) * 10.0 ** rng.integers(
            -300, 300, size=count)
        values[::7] = 0.0
        table = np.column_stack([index, coords, values])
        want = "# head\nindex,x0,x1,value\n" + (
            ("%d" + ",%.17g" * 3 + "\n") * count) % tuple(
                table.reshape(-1).tolist())
        got = grid.format_table(["# head", "index,x0,x1,value"], index,
                                [coords, values])
        assert got == want, count


# ---------------------------------------------------------------------------
# traced peaks on the 6,272-node disk of the audit workload


def traced(build):
    """``build()``, the bytes still allocated after it and its traced
    peak, both counted from the start of the call."""
    tracemalloc.start()
    try:
        out = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept, peak


@pytest.fixture(scope="module")
def audit_disk():
    # a first small build keeps one-time allocations out of the traces
    grid.build_domain("disk-polar", radius=6.0, resolution=4,
                      angular_resolution=16)
    return traced(lambda: pinned_domain("disk-48x128")[0])


def test_build_domain_peak_stays_near_what_it_keeps(audit_disk):
    _, kept, peak = audit_disk
    assert peak <= 1.8 * kept


def test_hat_norm_peak_is_a_few_nodal_vectors(audit_disk):
    dom = audit_disk[0]
    grid.hat_w1p_norms(pinned_domain("disk-10x16")[0], 1.8)
    _, _, peak = traced(lambda: grid.hat_w1p_norms(dom, 1.8))
    assert peak <= 20 * 8 * dom.n_nodes


def test_fix_basis_peak_is_a_few_nodal_vectors(audit_disk):
    dom = audit_disk[0]
    g = group.build_group(dom, "dihedral_8")
    _, _, peak = traced(lambda: group.fix_basis(g))
    assert peak <= 5 * 8 * dom.n_nodes


def test_format_gridfunction_peak_stays_near_its_text(audit_disk):
    dom = audit_disk[0]
    u = grid.GridFunction(dom, np.sin(dom.coords[:, 0]))
    warm = pinned_domain("disk-10x16")[0]
    grid.format_gridfunction(grid.GridFunction(warm, np.zeros(warm.n_nodes)))
    text, _, peak = traced(lambda: grid.format_gridfunction(u))
    assert peak <= 3 * len(text)
