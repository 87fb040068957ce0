"""Discrete geodesic shooting for the inner metric.

The flow integrates, with step dt = 1/N,

    q_{i+1} = q_i + dt * u_i
    A(q_{i+1}) u_{i+1} = A(q_i) u_i + dt * (d/dq) l(u_i, u_i; q_i)

where A is the metric operator and l the kinetic form: the momentum is
updated by the surface gradient of the kinetic energy, then converted back
to a velocity with the metric at the new immersion.  Time always spans
[0, 1]; reaching the same endpoint with more steps only refines the path.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateElementError, SolverError, StepFailureError
from .geometry import Immersion
from .metric import MetricOperator, assemble, kinetic_surface_gradient, sharp


@dataclass
class GeodesicPath:
    """A discrete geodesic: immersions q_0..q_N and velocities u_0..u_{N-1}.

    ``kinetic[i]`` is 1/2 <u_i, u_i> at q_i; ``operators[i]`` is the
    assembled metric operator at q_i for i < N (reused by the adjoint sweep):
    ``operators[0]`` is the operator the path was shot from, and the later
    ones carry its alpha and regularity threshold.
    """

    dt: float
    immersions: list[Immersion] = field(repr=False)
    velocities: list[np.ndarray] = field(repr=False)
    kinetic: np.ndarray = field(repr=False)
    operators: list[MetricOperator] = field(repr=False)

    @property
    def n_steps(self) -> int:
        return len(self.velocities)

    @property
    def final(self) -> Immersion:
        return self.immersions[-1]


def shoot(op0: MetricOperator, u0: np.ndarray, n_steps: int) -> GeodesicPath:
    """Integrate the geodesic flow from an initial operator and velocity.

    Parameters
    ----------
    op0 : MetricOperator
        Assembled metric at the initial immersion ``op0.immersion``; the
        operators at later steps are assembled with its alpha and eps_reg.
    u0 : ndarray, shape (n, 3)
        Initial velocity, one vector per unique node.
    n_steps : int
        Number of time steps N; dt = 1/N.

    Raises
    ------
    StepFailureError
        Wrapping degenerate geometry or solver failures, with the index of
        the step being advanced.  A degenerate initial immersion fails
        earlier, in the ``assemble`` that built ``op0``.
    """
    q0 = op0.immersion
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (q0.mesh.n_nodes, 3):
        raise ValueError(f"expected ({q0.mesh.n_nodes}, 3) velocity, got {u0.shape}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    dt = 1.0 / n_steps

    immersions = [q0]
    velocities = [u0]
    kinetic = np.empty(n_steps)
    operators = [op0]

    for i in range(n_steps):
        q_i = immersions[i]
        u_i = velocities[i]
        op_i = operators[i]
        # the momentum A u_i, which also gives <u_i, u_i>
        a_u = op_i.block @ u_i
        kinetic[i] = 0.5 * float(np.sum(u_i * a_u))
        try:
            q_next = Immersion(q_i.mesh, q_i.coords + dt * u_i)
            if i < n_steps - 1:
                momentum = a_u + dt * kinetic_surface_gradient(op_i, u_i, u_i)
                op_next = assemble(q_next, op0.alpha, op0.eps_reg)
                operators.append(op_next)
                velocities.append(sharp(op_next, momentum))
        except (DegenerateElementError, SolverError, ValueError) as exc:
            raise StepFailureError(i, str(exc)) from exc
        immersions.append(q_next)

    return GeodesicPath(
        dt=dt,
        immersions=immersions,
        velocities=velocities,
        kinetic=kinetic,
        operators=operators,
    )


def path_energy(path: GeodesicPath) -> float:
    """Discrete energy: dt times the summed per-step kinetic energies."""
    return path.dt * float(np.sum(path.kinetic))


def path_length(path: GeodesicPath) -> float:
    """Discrete length: dt times the summed per-step speeds."""
    return path.dt * float(np.sum(np.sqrt(2.0 * np.maximum(path.kinetic, 0.0))))

