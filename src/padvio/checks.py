"""Finite-difference certification of every analytic Jacobian.

Each analytic block is compared against central differences of the matching
residual taken through the boxplus retraction. The relative error of a block
is max|J_analytic - J_numeric| / max(1, max|J_numeric|).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

import numpy as np

from .graph import PoseState, assemble, boxplus, pose_boxplus, stacked_residual
from .imu import PreintegratedDelta, WorldParams, imu_residual, imu_residual_jacobian
from .manifold import exp_map
from .sim import (
    CameraModel,
    NoiseSpec,
    Profile,
    TrajectorySpec,
    default_initial_pose,
    generate,
    make_problem,
)
from .vision import PixelMeasurement, photometric_jacobian, photometric_residual

FD_STEP = 1e-6
THRESHOLD = 1e-5

# window sizes cycled through for the stacked-Jacobian certification
STACKED_SHAPES: Tuple[Tuple[int, int], ...] = ((2, 1), (3, 1), (3, 3), (7, 3))


def central_difference(f: Callable[[np.ndarray], np.ndarray], dim: int, h: float = FD_STEP) -> np.ndarray:
    """Jacobian of f at the zero increment by central differences, one column per axis."""
    cols = []
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        cols.append((f(e) - f(-e)) / (2.0 * h))
    return np.column_stack(cols)


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(1.0, float(np.abs(numeric).max()))
    return float(np.abs(analytic - numeric).max()) / scale


def _random_rotation(rng: np.random.Generator, max_angle: float) -> np.ndarray:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return exp_map(axis * rng.uniform(0.0, max_angle))


def _random_pose(rng: np.random.Generator, max_angle: float = 0.8) -> PoseState:
    return PoseState(
        R=_random_rotation(rng, max_angle),
        v=rng.normal(0.0, 1.0, 3),
        p=rng.normal(0.0, 2.0, 3),
    )


@dataclass
class CertificationReport:
    trials: int
    seed: int
    imu_block_errors: Dict[str, float] = field(default_factory=dict)
    vision_block_errors: Dict[str, float] = field(default_factory=dict)
    vision_velocity_block_max_abs: float = 0.0
    stacked_errors: Dict[str, float] = field(default_factory=dict)
    threshold: float = THRESHOLD

    @property
    def max_error(self) -> float:
        values = (
            list(self.imu_block_errors.values())
            + list(self.vision_block_errors.values())
            + list(self.stacked_errors.values())
        )
        return max(values)

    @property
    def passed(self) -> bool:
        return self.max_error < self.threshold

    def lines(self) -> List[str]:
        out = [f"jacobian certification: {self.trials} trials per check, seed {self.seed}"]
        for name, err in self.imu_block_errors.items():
            out.append(f"  imu      {name:<18} max rel err {err:.3e}")
        for name, err in self.vision_block_errors.items():
            out.append(f"  vision   {name:<18} max rel err {err:.3e}")
        zero = "yes" if self.vision_velocity_block_max_abs == 0.0 else "NO"
        out.append(f"  vision   velocity block identically zero: {zero}")
        for name, err in self.stacked_errors.items():
            out.append(f"  stacked  {name:<18} max rel err {err:.3e}")
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"  {verdict} (max {self.max_error:.3e}, threshold {self.threshold:g})")
        return out


_IMU_ROWS = {"r_rot": slice(0, 3), "r_vel": slice(3, 6), "r_pos": slice(6, 9)}
_POSE_COLS = {
    "dR_i": slice(0, 3), "dv_i": slice(3, 6), "dp_i": slice(6, 9),
    "dR_j": slice(9, 12), "dv_j": slice(12, 15), "dp_j": slice(15, 18),
}
_VISION_COLS = {"dR": slice(0, 3), "dv": slice(3, 6), "dp": slice(6, 9), "dp_l": slice(9, 12)}


def certify_imu(rng: np.random.Generator, trials: int) -> Dict[str, float]:
    errors = {f"{r}/{c}": 0.0 for r in _IMU_ROWS for c in _POSE_COLS}
    world = WorldParams()
    for _ in range(trials):
        delta = PreintegratedDelta(
            dR=_random_rotation(rng, 0.6),
            dv=rng.normal(0.0, 1.0, 3),
            dp=rng.normal(0.0, 1.0, 3),
            dt_total=rng.uniform(0.1, 1.0),
            sample_count=1,
        )
        pose_i = _random_pose(rng)
        # keep the relative-rotation residual well inside the log map's domain
        pose_j = PoseState(
            R=pose_i.R @ delta.dR @ _random_rotation(rng, 0.3),
            v=rng.normal(0.0, 1.0, 3),
            p=rng.normal(0.0, 2.0, 3),
        )

        def residual_at(d: np.ndarray) -> np.ndarray:
            return imu_residual(
                delta, pose_boxplus(pose_i, d[:9]), pose_boxplus(pose_j, d[9:]), world
            )

        numeric = central_difference(residual_at, 18)
        _, analytic = imu_residual_jacobian(delta, pose_i, pose_j, world)
        for rname, rows in _IMU_ROWS.items():
            for cname, cols in _POSE_COLS.items():
                err = _relative_error(analytic[rows, cols], numeric[rows, cols])
                key = f"{rname}/{cname}"
                errors[key] = max(errors[key], err)
    return errors


def certify_vision(rng: np.random.Generator, trials: int) -> Tuple[Dict[str, float], float]:
    errors = {name: 0.0 for name in _VISION_COLS}
    velocity_max_abs = 0.0
    for _ in range(trials):
        cam = CameraModel(rng.uniform(100.0, 800.0), rng.normal(0.0, 5.0, 2))
        pose = _random_pose(rng)
        # choose the camera-frame point directly so the depth stays safe
        q = np.array([rng.normal(0.0, 1.0), rng.normal(0.0, 1.0), rng.uniform(1.0, 5.0)])
        landmark = pose.p + pose.R @ q
        meas = PixelMeasurement(1, 1, rng.normal(0.0, 50.0, 2))

        def residual_at(d: np.ndarray) -> np.ndarray:
            return photometric_residual(cam, pose_boxplus(pose, d[:9]), landmark + d[9:12], meas)

        numeric = central_difference(residual_at, 12)
        _, analytic = photometric_jacobian(cam, pose, landmark, meas)
        velocity_max_abs = max(velocity_max_abs, float(np.abs(analytic[:, 3:6]).max()))
        for name, cols in _VISION_COLS.items():
            errors[name] = max(errors[name], _relative_error(analytic[:, cols], numeric[:, cols]))
    return errors, velocity_max_abs


def _random_problem(rng: np.random.Generator, n: int, N: int):
    spec = TrajectorySpec(
        duration=0.4 * (n - 1),
        initial_pose=default_initial_pose(),
        angular_profile=Profile("constant", {"value": rng.normal(0.0, 0.1, 3)}),
        accel_profile=Profile(
            "constant", {"value": np.array([0.0, 0.0, -9.81]) + rng.normal(0.0, 0.3, 3)}
        ),
    )
    landmarks = np.column_stack([rng.uniform(-0.8, 0.8, (N, 2)), np.zeros(N)])
    noise = NoiseSpec(imu_noise_variance=1e-4, pixel_noise_variance=1.0, seed=int(rng.integers(2**32)))
    dataset = generate(spec, landmarks, CameraModel(500.0), WorldParams(), noise)
    problem = make_problem(dataset, dataset.ground_truth.copy())
    # evaluate away from the truth so the comparison point is generic
    offset = rng.normal(0.0, 0.02, problem.window.dim)
    return replace(problem, window=boxplus(problem.window, offset))


def certify_stacked(rng: np.random.Generator, trials: int) -> Dict[str, float]:
    errors = {f"n={n},N={N}": 0.0 for n, N in STACKED_SHAPES}
    for trial in range(trials):
        n, N = STACKED_SHAPES[trial % len(STACKED_SHAPES)]
        problem = _random_problem(rng, n, N)

        def residual_at(d: np.ndarray) -> np.ndarray:
            return stacked_residual(replace(problem, window=boxplus(problem.window, d)))

        numeric = central_difference(residual_at, problem.window.dim)
        analytic = assemble(problem)[1].toarray()
        key = f"n={n},N={N}"
        errors[key] = max(errors[key], _relative_error(analytic, numeric))
    return errors


def run_certification(seed: int = 0, trials: int = 100) -> CertificationReport:
    """Run all three certifications with independent seeded streams."""
    if trials < 1:
        raise ValueError(f"invalid trials {trials}: must be an integer >= 1")
    report = CertificationReport(trials=trials, seed=seed)
    report.imu_block_errors = certify_imu(np.random.default_rng(seed), trials)
    vision_errors, vel_abs = certify_vision(np.random.default_rng(seed + 1), trials)
    report.vision_block_errors = vision_errors
    report.vision_velocity_block_max_abs = vel_abs
    report.stacked_errors = certify_stacked(np.random.default_rng(seed + 2), trials)
    return report
