import numpy as np
import pytest

from symcrit import functional, grid


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def square_small():
    return grid.build_domain("square", side=2.0, resolution=5)


@pytest.fixture(scope="session")
def disk_small():
    return grid.build_domain("disk-polar", radius=3.0, resolution=4,
                             angular_resolution=8)


@pytest.fixture(scope="session")
def annulus_small():
    return grid.build_domain("annulus-polar", inner_radius=1.0,
                             outer_radius=3.0, resolution=4,
                             angular_resolution=8)


@pytest.fixture(scope="session")
def ball_small():
    return grid.build_domain("radial-ball-1d", dimension=3, radius=10.0,
                             resolution=50)


def poison_residual(monkeypatch, bad_call):
    """Make the dual residual NaN from its bad_call-th evaluation on."""
    clean = functional.residual_of_values
    calls = []

    def poisoned(model, values):
        calls.append(1)
        r = clean(model, values)
        return np.full_like(r, np.nan) if len(calls) >= bad_call else r

    monkeypatch.setattr(functional, "residual_of_values", poisoned)


def poison_ray(monkeypatch, part, bad_ray):
    """Make ``part`` NaN on the bad_ray-th ``functional.ray`` and every
    later one: the method "slope" returns NaN, a two-sum field ("A" or
    "B") holds it."""
    clean = functional.ray
    rays = []

    class Poisoned(functional.Ray):
        pass

    if part == "slope":
        Poisoned.slope = lambda self, t: np.nan * functional.Ray.slope(self, t)

    def poisoned(model, values):
        rays.append(1)
        ray = clean(model, values)
        if len(rays) < bad_ray:
            return ray
        fields = vars(ray)
        if part in fields:
            fields = {**fields, part: np.nan}
        return Poisoned(**fields)

    monkeypatch.setattr(functional, "ray", poisoned)


def random_function(domain, rng, scale=1.0):
    """Random interior values, zero boundary."""
    vals = scale * rng.standard_normal(domain.n_nodes)
    vals[domain.boundary] = 0.0
    return grid.GridFunction(domain, vals)
