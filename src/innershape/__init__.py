"""Surface registration by geodesic shooting under a first-order inner metric.

The package discretizes parametrized surfaces as piecewise-linear immersions
of flat model domains (plane, cylinder, torus), equips the space of nodal
velocity fields with a volume-weighted first-order inner product, integrates
geodesics of that metric, and matches surfaces by metric L-BFGS on a
shooting energy with an exact adjoint gradient.  On top of registration it
offers simple shape statistics: geodesic distances, triangle angles and
iterated means.
"""

import os

# Every dense kernel here is small (batched solve fronts, (n, 3) fields), so
# OpenBLAS's worker pool never speeds a call up and only costs start-up CPU;
# set before numpy loads, and a user's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .adjoint import backward_sweep
from .config import ConfigError, RunConfig, build_config, parse_file
from .errors import (
    DegenerateElementError,
    InnerShapeError,
    MeshError,
    MeshFormatError,
    MeshMismatchError,
    MeshResolutionError,
    SolverError,
    StepFailureError,
    ZeroVelocityError,
)
from .fixtures import (
    VASE_PRESETS,
    cylinder_surface,
    rotated,
    rotation_matrix,
    torus_surface,
    torus_triangle,
    vase_family,
    vase_surface,
)
from .geometry import Immersion, require_regular, surface_area
from .mesh import (
    DomainMesh,
    Topology,
    build_grid,
    export_obj,
    load_mesh,
    load_velocity,
    save_mesh,
    save_velocity,
)
from .metric import (
    MetricOperator,
    SparseBlock,
    assemble,
    inner_product,
    kinetic_adjoint_covectors,
    kinetic_surface_gradient,
    norm,
    parameter_mass_matrix,
    sharp,
    solve,
)
from .registration import (
    IterationRecord,
    RegistrationConfig,
    RegistrationResult,
    RegistrationStatus,
    energy,
    l2_matching,
    matching_covector,
    register,
)
from .shooting import GeodesicPath, path_energy, path_length, shoot
from .statistics import (
    MeanResult,
    MeanStatus,
    TriangleReport,
    geodesic_angle,
    karcher_mean,
    triangle_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateElementError",
    "DomainMesh",
    "GeodesicPath",
    "Immersion",
    "InnerShapeError",
    "IterationRecord",
    "MeanResult",
    "MeanStatus",
    "MeshError",
    "MeshFormatError",
    "MeshMismatchError",
    "MeshResolutionError",
    "MetricOperator",
    "RegistrationConfig",
    "RegistrationResult",
    "RegistrationStatus",
    "RunConfig",
    "SolverError",
    "SparseBlock",
    "StepFailureError",
    "Topology",
    "TriangleReport",
    "VASE_PRESETS",
    "ZeroVelocityError",
    "assemble",
    "backward_sweep",
    "build_config",
    "build_grid",
    "cylinder_surface",
    "energy",
    "export_obj",
    "geodesic_angle",
    "inner_product",
    "karcher_mean",
    "kinetic_adjoint_covectors",
    "kinetic_surface_gradient",
    "l2_matching",
    "load_mesh",
    "load_velocity",
    "matching_covector",
    "norm",
    "parameter_mass_matrix",
    "path_energy",
    "path_length",
    "register",
    "require_regular",
    "rotated",
    "rotation_matrix",
    "save_mesh",
    "save_velocity",
    "sharp",
    "shoot",
    "solve",
    "surface_area",
    "torus_surface",
    "torus_triangle",
    "triangle_experiment",
    "vase_family",
    "vase_surface",
    "__version__",
]
