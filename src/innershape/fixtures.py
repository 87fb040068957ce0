"""Deterministic parametric test shapes.

All generators map a mesh's parameter square onto a closed-form surface;
every shape is reproducible from its parameters alone.  The cylinder family
covers the bend-and-ripple registration problems, the torus family the
triangle experiment, and the vase family the mean experiment.
"""

import numpy as np

from .geometry import Immersion
from .mesh import DomainMesh, Topology


def _require(mesh: DomainMesh, topology: Topology, what: str) -> None:
    if mesh.topology is not topology:
        raise ValueError(f"{what} needs a {topology.value} mesh, got {mesh.topology.value}")


def cylinder_surface(
    mesh: DomainMesh,
    radius: float = 0.25,
    height: float = 1.0,
    bend_deg: float = 0.0,
    ripples: int = 0,
    ripple_amplitude: float = 0.0,
) -> Immersion:
    """Cylinder of given radius and height, optionally bent and rippled.

    The axis is bent into a circular arc of ``bend_deg`` degrees whose arc
    length stays ``height``; the tube radius is modulated by ``ripples``
    sine periods of relative amplitude ``ripple_amplitude`` along the axis.
    With zero bend and zero amplitude this is exactly the straight cylinder.
    """
    _require(mesh, Topology.CYLINDER, "cylinder_surface")
    phi = 2.0 * np.pi * mesh.nodes[:, 0]
    s = mesh.nodes[:, 1]
    rho = radius * (1.0 + ripple_amplitude * np.sin(2.0 * np.pi * ripples * s))

    theta = np.deg2rad(bend_deg)
    if theta == 0.0:
        axis = np.column_stack([np.zeros_like(s), np.zeros_like(s), height * s])
        normal = np.column_stack([np.ones_like(s), np.zeros_like(s), np.zeros_like(s)])
    else:
        # arc in the x-z plane with arc length = height
        arc_radius = height / theta
        axis = np.column_stack(
            [arc_radius * (1.0 - np.cos(theta * s)), np.zeros_like(s), arc_radius * np.sin(theta * s)]
        )
        normal = np.column_stack([np.cos(theta * s), np.zeros_like(s), -np.sin(theta * s)])
    binormal = np.array([0.0, 1.0, 0.0])
    coords = (
        axis
        + (rho * np.cos(phi))[:, None] * normal
        + (rho * np.sin(phi))[:, None] * binormal
    )
    return Immersion(mesh, coords)


def torus_surface(
    mesh: DomainMesh,
    major_radius: float = 0.35,
    minor_radius: float = 0.15,
    asymmetry: float = 0.0,
) -> Immersion:
    """Torus with a tube radius modulated along the major angle.

    ``asymmetry`` is the relative amplitude of the modulation; nonzero
    values break the rotational symmetry about the torus axis.
    """
    _require(mesh, Topology.TORUS, "torus_surface")
    theta = 2.0 * np.pi * mesh.nodes[:, 0]  # around the tube
    phi = 2.0 * np.pi * mesh.nodes[:, 1]  # around the axis
    tube = minor_radius * (1.0 + asymmetry * np.cos(phi))
    ring = major_radius + tube * np.cos(theta)
    coords = np.column_stack([ring * np.cos(phi), ring * np.sin(phi), tube * np.sin(theta)])
    return Immersion(mesh, coords)


def vase_surface(
    mesh: DomainMesh,
    radius: float = 0.25,
    height: float = 1.0,
    bulges: tuple = (),
) -> Immersion:
    """Open-ended vase: a cylinder with Gaussian bulges along its height.

    ``bulges`` is a sequence of (amplitude, center, width) triples acting on
    the relative radius profile.
    """
    _require(mesh, Topology.CYLINDER, "vase_surface")
    phi = 2.0 * np.pi * mesh.nodes[:, 0]
    s = mesh.nodes[:, 1]
    profile = np.ones_like(s)
    for amplitude, center, width in bulges:
        profile = profile + amplitude * np.exp(-0.5 * ((s - center) / width) ** 2)
    rho = radius * profile
    coords = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), height * s])
    return Immersion(mesh, coords)


def rotation_matrix(axis: str, degrees: float) -> np.ndarray:
    """Right-handed rotation about a coordinate axis ("x", "y" or "z")."""
    a = np.deg2rad(degrees)
    c, s = np.cos(a), np.sin(a)
    if axis == "x":
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)
    if axis == "y":
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)
    if axis == "z":
        return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)
    raise ValueError(f"axis must be x, y or z, got {axis!r}")


def rotated(q: Immersion, rotation: np.ndarray) -> Immersion:
    """The immersion rigidly rotated about the origin."""
    return Immersion(q.mesh, q.coords @ np.asarray(rotation, dtype=float).T)


#: rotations placing the three triangle-experiment tori: each pair of
#: shapes differs by a composition of two axis rotations
TORUS_TRIANGLE_ROTATIONS = (
    (("z", 0.0), ("x", 0.0)),
    (("z", 15.0), ("x", 25.0)),
    (("z", -15.0), ("y", 25.0)),
)


def torus_triangle(
    mesh: DomainMesh,
    major_radius: float = 0.35,
    minor_radius: float = 0.15,
    asymmetry: float = 0.3,
) -> list[Immersion]:
    """The three rotated copies of the asymmetric torus."""
    base = torus_surface(mesh, major_radius, minor_radius, asymmetry)
    out = []
    for (ax1, deg1), (ax2, deg2) in TORUS_TRIANGLE_ROTATIONS:
        rot = rotation_matrix(ax2, deg2) @ rotation_matrix(ax1, deg1)
        out.append(rotated(base, rot))
    return out


#: bulge profiles (amplitude, center, width) of the five mean-experiment vases
VASE_PRESETS = (
    ((0.35, 0.30, 0.16),),
    ((0.30, 0.45, 0.14),),
    ((0.40, 0.55, 0.15),),
    ((0.30, 0.65, 0.14),),
    ((0.25, 0.50, 0.22),),
)


def vase_family(mesh: DomainMesh, radius: float = 0.25, height: float = 1.0) -> list[Immersion]:
    """The five preset vases used by the mean experiment."""
    return [vase_surface(mesh, radius, height, bulges) for bulges in VASE_PRESETS]
