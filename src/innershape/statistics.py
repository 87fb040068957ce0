"""Shape statistics on top of registration: angles, triangles, means.

Velocities at a common base immersion live in one inner-product space, so
angles between initial velocities, geodesic side lengths and averaged
velocities give curvature-sensitive statistics of a shape collection.
"""

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ZeroVelocityError
from .geometry import Immersion, check_same_mesh, surface_area
from .metric import MetricOperator, assemble, inner_product, norm
from .registration import RegistrationConfig, RegistrationResult, RegistrationStatus, register
from .shooting import path_length, shoot

logger = logging.getLogger(__name__)

#: velocities with metric norm below this count as zero for angles
ZERO_VELOCITY_TOL = 1e-14

#: angles below one degree usually mean a numerically degenerate triangle
DEGENERATE_ANGLE_DEG = 1.0


def geodesic_angle(op: MetricOperator, u: np.ndarray, v: np.ndarray) -> float:
    """Angle in degrees between two velocities under an assembled metric."""
    uu = inner_product(op, u, u)
    vv = inner_product(op, v, v)
    if uu <= ZERO_VELOCITY_TOL**2 or vv <= ZERO_VELOCITY_TOL**2:
        raise ZeroVelocityError("angle undefined for a zero velocity")
    cosine = inner_product(op, u, v) / np.sqrt(uu * vv)
    return float(np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0))))


@dataclass
class TriangleReport:
    """Geodesic triangle between three shapes A, B, C.

    Angles are measured at each vertex between the initial velocities of the
    two outgoing registrations; side data comes from the A->B, B->C and
    C->A paths.  ``statuses`` records every registration's outcome keyed by
    direction ("AB", "BA", ...).
    """

    angles_deg: tuple[float, float, float]
    side_lengths: tuple[float, float, float]
    midpoints: tuple[Immersion, Immersion, Immersion] = field(repr=False)
    midpoint_areas: tuple[float, float, float]
    vertex_areas: tuple[float, float, float]
    statuses: dict[str, RegistrationStatus]

    @property
    def angle_sum_deg(self) -> float:
        return float(sum(self.angles_deg))

    @property
    def converged(self) -> bool:
        return all(s is RegistrationStatus.CONVERGED for s in self.statuses.values())


def triangle_experiment(
    op_a: MetricOperator, qb: Immersion, qc: Immersion, cfg: RegistrationConfig
) -> TriangleReport:
    """Register all ordered vertex pairs and report the triangle geometry.

    Vertex A is ``op_a.immersion``; the operators at B and C are assembled
    with ``op_a.alpha``.  Needs an even step count so path midpoints land on
    a frame.
    """
    if cfg.n_steps % 2 != 0:
        raise ValueError(f"triangle midpoints need an even n_steps, got {cfg.n_steps}")
    check_same_mesh(op_a.immersion.mesh, qb.mesh, "triangle")
    check_same_mesh(op_a.immersion.mesh, qc.mesh, "triangle")

    ops = {"A": op_a, "B": assemble(qb, op_a.alpha), "C": assemble(qc, op_a.alpha)}
    results: dict[str, RegistrationResult] = {}
    for src in "ABC":
        for dst in "ABC":
            if src != dst:
                logger.info("triangle: registering %s -> %s", src, dst)
                results[src + dst] = register(ops[src], ops[dst].immersion, cfg)

    angles = tuple(
        geodesic_angle(ops[v], results[v + n1].u0, results[v + n2].u0)
        for v, n1, n2 in (("A", "B", "C"), ("B", "C", "A"), ("C", "A", "B"))
    )
    for v, a in zip("ABC", angles):
        if a < DEGENERATE_ANGLE_DEG:
            logger.warning("triangle: angle at %s is %.3f deg, nearly degenerate", v, a)

    sides = ("AB", "BC", "CA")
    lengths = tuple(path_length(results[s].path) for s in sides)
    midpoints = tuple(results[s].path.immersions[cfg.n_steps // 2] for s in sides)
    return TriangleReport(
        angles_deg=angles,
        side_lengths=lengths,
        midpoints=midpoints,
        midpoint_areas=tuple(surface_area(m) for m in midpoints),
        vertex_areas=tuple(surface_area(ops[v].immersion) for v in "ABC"),
        statuses={k: r.status for k, r in results.items()},
    )


class MeanStatus(Enum):
    CONVERGED = "converged"
    MAX_OUTER = "max_outer"


@dataclass
class MeanResult:
    """Iterative mean of a shape collection.

    ``velocity_norms`` has one entry per outer iteration: the metric norm of
    the averaged registration velocity at the current mean before the mean
    moves.  ``per_shape_velocities`` and ``statuses`` describe the final
    round of registrations.
    """

    mean: Immersion = field(repr=False)
    velocity_norms: list[float]
    per_shape_velocities: list[np.ndarray] = field(repr=False)
    statuses: list[RegistrationStatus]
    status: MeanStatus

    @property
    def iterations(self) -> int:
        return len(self.velocity_norms)


def karcher_mean(
    shapes: list[Immersion],
    op_start: MetricOperator,
    cfg: RegistrationConfig,
    mean_tol: float = 1e-3,
    max_outer: int = 20,
) -> MeanResult:
    """Fixed-point mean: register the mean to every shape, average the
    initial velocities, shoot along the average, repeat.

    The mean starts at ``op_start.immersion``; every later mean is assembled
    with ``op_start.alpha``.  Stops when the averaged velocity's metric norm
    at the mean drops to ``mean_tol`` or after ``max_outer`` iterations.
    """
    if not shapes:
        raise ValueError("karcher_mean needs at least one shape")
    if not (np.isfinite(mean_tol) and mean_tol >= 0):
        raise ValueError(f"mean_tol must be finite and >= 0, got {mean_tol}")
    if max_outer < 1:
        raise ValueError(f"max_outer must be >= 1, got {max_outer}")
    mean = op_start.immersion
    for k, s in enumerate(shapes):
        check_same_mesh(mean.mesh, s.mesh, f"mean shape {k}")

    norms: list[float] = []
    velocities: list[np.ndarray] = []
    statuses: list[RegistrationStatus] = []
    status = MeanStatus.MAX_OUTER

    for outer in range(1, max_outer + 1):
        op_mean = assemble(mean, op_start.alpha) if outer > 1 else op_start
        results = [register(op_mean, s, cfg) for s in shapes]
        velocities = [r.u0 for r in results]
        statuses = [r.status for r in results]
        u_bar = sum(velocities) / len(velocities)
        vn = norm(op_mean, u_bar)
        norms.append(vn)
        logger.info("mean: outer %d, averaged velocity norm %.6e", outer, vn)
        if vn <= mean_tol:
            status = MeanStatus.CONVERGED
            break
        mean = shoot(op_mean, u_bar, cfg.n_steps).final

    return MeanResult(
        mean=mean,
        velocity_norms=norms,
        per_shape_velocities=velocities,
        statuses=statuses,
        status=status,
    )
