"""Shared fixtures and suite-wide timing for the acceptance budget."""

import time

import numpy as np
import pytest

from innershape import Immersion, Topology, build_grid, cylinder_surface, torus_surface

#: wall-clock start of the test session, read by the acceptance timing check
SESSION_START = time.monotonic()

#: wall-clock seconds spent in tests excluded from the timing budget,
#: filled in by the excluded tests themselves
EXCLUDED_SECONDS = {}


def pytest_collection_modifyitems(config, items):
    """Run the suite-timing acceptance check after everything else."""
    tail = [it for it in items if "timing_budget" in it.name]
    rest = [it for it in items if "timing_budget" not in it.name]
    items[:] = rest + tail


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def plane_mesh():
    return build_grid(Topology.PLANE, 4, 4)


@pytest.fixture(scope="session")
def cylinder_mesh():
    return build_grid(Topology.CYLINDER, 8, 8)


@pytest.fixture(scope="session")
def torus_mesh():
    return build_grid(Topology.TORUS, 4, 4)


@pytest.fixture(scope="session")
def flat_square():
    mesh = build_grid(Topology.PLANE, 4, 4)
    coords = np.column_stack([mesh.nodes, np.zeros(mesh.n_nodes)])
    return Immersion(mesh, coords)


@pytest.fixture(scope="session")
def cylinder_shape(cylinder_mesh):
    return cylinder_surface(cylinder_mesh)


@pytest.fixture(scope="session")
def bumpy_torus(torus_mesh):
    """A mildly perturbed torus: generic but safely regular geometry."""
    base = torus_surface(torus_mesh, 0.35, 0.15)
    bump = np.random.default_rng(7).normal(scale=0.01, size=base.coords.shape)
    return Immersion(torus_mesh, base.coords + bump)


@pytest.fixture(params=["flat_square", "cylinder_shape", "bumpy_torus"])
def any_shape(request):
    """Each of the plane, cylinder and torus shapes in turn."""
    return request.getfixturevalue(request.param)


def random_field(rng, mesh, scale=1.0):
    return scale * rng.standard_normal((mesh.n_nodes, 3))
