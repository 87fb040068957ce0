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
    """A discrete geodesic: q_0..q_N (``immersions``) and u_0..u_{N-1}.

    For i < N, ``operators[i]`` is the assembled metric operator at q_i, whose
    ``immersion`` is q_i (reused by the adjoint sweep), and ``kinetic[i]`` is
    1/2 <u_i, u_i> at q_i; ``final`` is q_N.  ``operators[0]`` is the operator
    the path was shot from, and the later ones carry its alpha.
    """

    operators: list[MetricOperator] = field(repr=False)
    velocities: list[np.ndarray] = field(repr=False)
    kinetic: np.ndarray = field(repr=False)
    final: Immersion = field(repr=False)

    @property
    def n_steps(self) -> int:
        return len(self.velocities)

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps

    @property
    def immersions(self) -> list[Immersion]:
        return [op.immersion for op in self.operators] + [self.final]


def shoot(op0: MetricOperator, u0: np.ndarray, n_steps: int) -> GeodesicPath:
    """Integrate the geodesic flow from an initial operator and velocity.

    Parameters
    ----------
    op0 : MetricOperator
        Assembled metric at the initial immersion ``op0.immersion``; the
        operators at later steps are assembled with its alpha.
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

    velocities = [u0]
    kinetic = np.empty(n_steps)
    operators = [op0]

    for i in range(n_steps):
        op_i = operators[i]
        u_i = velocities[i]
        try:
            # the momentum A u_i (which gives <u_i, u_i>) and its update; overflow fails the step
            with np.errstate(over="raise", invalid="raise"):
                a_u = op_i.block @ u_i
                kinetic[i] = 0.5 * float(np.sum(u_i * a_u))
                if i < n_steps - 1:
                    momentum = a_u + dt * kinetic_surface_gradient(op_i, u_i, u_i)
            q_next = op_i.immersion.displaced(dt * u_i)
            if i < n_steps - 1:
                op_next = assemble(q_next, op0.alpha)
                operators.append(op_next)
                velocities.append(sharp(op_next, momentum))
        except FloatingPointError:
            raise StepFailureError(i, "velocity too large: its kinetic energy overflows") from None
        except DegenerateElementError as exc:
            # hypot does not overflow where the squares would
            reach = float(np.max(np.hypot.reduce(dt * u_i, axis=1)))
            raise StepFailureError(
                i, f"{exc}, after the step moves a node by up to |dt u| = {reach:.3e}"
            ) from exc
        except (SolverError, ValueError) as exc:
            raise StepFailureError(i, str(exc)) from exc

    return GeodesicPath(operators, velocities, kinetic, final=q_next)


def path_energy(path: GeodesicPath) -> float:
    """Discrete energy: dt times the summed per-step kinetic energies."""
    return path.dt * float(np.sum(path.kinetic))


def path_length(path: GeodesicPath) -> float:
    """Discrete length: dt times the summed per-step speeds."""
    return path.dt * float(np.sum(np.sqrt(2.0 * np.maximum(path.kinetic, 0.0))))

