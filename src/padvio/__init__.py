"""Visual-inertial pose and landing-pad landmark estimation.

Aircraft attitude, velocity and position over a window of camera keyframes,
plus the pad marker positions, are estimated jointly by damped Gauss-Newton
on SO(3)^n x R^m over preintegrated IMU factors and pixel reprojection
factors, with marker altitudes pinned to the ground plane by an exact
equality-constrained step that fixes their increment entries and solves for
the rest.

Importing padvio sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 where they are unset, so that its dense solves take the
single-threaded BLAS path: threaded LAPACK changes the bits of a solve wider
than 96 columns, and the solves are too small to gain from threads. BLAS
reads them when numpy is first imported, so a caller who imports numpy
before padvio must set them itself.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .dataset_io import read_dataset, write_dataset
from .graph import (
    PoseState,
    Problem,
    WindowState,
    altitude_constraint,
    assemble,
    boxplus,
    min_landmarks,
    stacked_residual,
)
from .imu import (
    ImuSample,
    PreintegratedDelta,
    WorldParams,
    imu_residual,
    imu_residual_jacobian,
    integrate,
    preintegrate,
)
from .manifold import exp_map, hat, is_rotation, log_map, vee
from .sim import (
    Dataset,
    NoiseSpec,
    Profile,
    TrajectorySpec,
    generate,
    make_problem,
    perturb_initialization,
    triangle_landmarks,
)
from .solver import (
    IterationError,
    RankDeficientError,
    SolveReport,
    SolverConfig,
    build_normal_system,
    constrained_step,
    solve,
)
from .vision import (
    CameraModel,
    DegenerateDepthError,
    PixelMeasurement,
    landmark_in_body,
    photometric_jacobian,
    photometric_residual,
    project,
)

__version__ = "0.1.0"

__all__ = [
    "CameraModel",
    "Dataset",
    "DegenerateDepthError",
    "ImuSample",
    "IterationError",
    "NoiseSpec",
    "PixelMeasurement",
    "PoseState",
    "PreintegratedDelta",
    "Problem",
    "Profile",
    "RankDeficientError",
    "SolveReport",
    "SolverConfig",
    "TrajectorySpec",
    "WindowState",
    "WorldParams",
    "altitude_constraint",
    "assemble",
    "boxplus",
    "build_normal_system",
    "constrained_step",
    "exp_map",
    "generate",
    "hat",
    "imu_residual",
    "imu_residual_jacobian",
    "integrate",
    "is_rotation",
    "landmark_in_body",
    "log_map",
    "make_problem",
    "min_landmarks",
    "perturb_initialization",
    "photometric_jacobian",
    "photometric_residual",
    "preintegrate",
    "project",
    "read_dataset",
    "solve",
    "stacked_residual",
    "triangle_landmarks",
    "vee",
    "write_dataset",
]
