"""Kernel probe: microseconds per call of the solver's hot kernels.

Runs in the traced run only, with no wrappers installed, on seeded inputs
at three sizes: the desk disk (176 nodes), a 63-resolution square (4,225
nodes) and a 64 x 256 disk (16,640 nodes).  Each kernel is warmed up, then
timed in batches of about BATCH_S seconds; the median batch gives the
per-call time.
"""

import statistics
import time

import numpy as np

SIZES = (
    ("n176", "disk-polar", {"radius": 6.0, "resolution": 10,
                            "angular_resolution": 16}, "rotations_8"),
    ("n4225", "square", {"side": 6.0, "resolution": 63}, "dihedral_4"),
    ("n16640", "disk-polar", {"radius": 6.0, "resolution": 64,
                              "angular_resolution": 256}, "rotations_8"),
)

BATCH_S = 0.04
BATCHES = 5

# energy and residual per call from ROADMAP item 2, for comparison
ROADMAP_US = {
    "functional.energy_of_values": {"n176": 78, "n4225": 475,
                                    "n16640": 8100},
    "functional.residual_of_values": {"n176": 135, "n4225": 993,
                                      "n16640": 4500},
}


def _per_call_us(fn):
    fn()
    fn()
    t = time.perf_counter()
    fn()
    one = max(time.perf_counter() - t, 1e-7)
    reps = max(1, int(BATCH_S / one))
    batches = []
    for _ in range(BATCHES):
        t = time.perf_counter()
        for _ in range(reps):
            fn()
        batches.append((time.perf_counter() - t) / reps)
    return 1e6 * statistics.median(batches)


def kernel_probe(symcrit, seed):
    grid, group = symcrit.grid, symcrit.group
    functional, symmetrize = symcrit.functional, symcrit.symmetrize
    out = {}
    for tag, kind, kwargs, label in SIZES:
        dom = grid.build_domain(kind, **kwargs)
        sym = group.build_group(dom, label)
        model = functional.EnergyModel(
            domain=dom, integrand=symcrit.integrand.builtin("plaplace", p=1.8),
            q=3.0)
        rng = np.random.default_rng([seed, dom.n_nodes])
        v = rng.standard_normal(dom.n_nodes)
        v[dom.boundary] = 0.0
        u = grid.GridFunction(dom, v)
        kernels = {
            "functional.energy_of_values":
                lambda: functional.energy_of_values(model, v),
            "functional.residual_of_values":
                lambda: functional.residual_of_values(model, v),
            "group.average_values": lambda: group.average_values(sym, v),
            "symmetrize.schwarz": lambda: symmetrize.schwarz(u),
            "symmetrize.cone_project": lambda: symmetrize.cone_project(u),
        }
        for name, fn in kernels.items():
            out[f"{name}.us_per_call.{tag}"] = _per_call_us(fn)
    return out


def roadmap_lines(probed):
    """One line per probed kernel that ROADMAP item 2 has a figure for."""
    return [f"probe {name}.{tag}: {probed[f'{name}.us_per_call.{tag}']:.0f} us"
            f" (ROADMAP item 2: {us} us)"
            for name, sizes in ROADMAP_US.items() for tag, us in sizes.items()]
