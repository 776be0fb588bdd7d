"""Synthetic flight generator: ground truth, IMU samples, pixel detections.

Ground truth is produced by forward-integrating the *discrete* motion model
per IMU step,

    p <- p + v dt + g dt^2 / 2 + R a dt^2 / 2
    v <- v + g dt + R a dt
    R <- R Exp(w dt)

which is the same recursion the preintegrator sums. With zero noise the
preintegrated deltas therefore reproduce the relative keyframe states exactly
(no discretization residue), making the end-to-end residual oracle exact.

The world frame has z pointing down: gravity defaults to (0, 0, +9.81), and
an aircraft at 4 m altitude sits at p_z = -4. The camera looks along body +z,
i.e. straight at the ground under level flight.

Motion profiles are declarative (a profile name plus parameters) so a whole
scenario fits in a config file. Known profile names:

* "constant": params {"value": [x, y, z]}
* "sinusoid": params {"base": [...], "amplitude": [...], "frequency": [...],
  "phase": [...]}, elementwise base + amplitude*sin(2*pi*frequency*t + phase)
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .graph import PoseState, Problem, WindowState
from .imu import ImuSample, PreintegratedDelta, WorldParams, preintegrate
from .manifold import exp_map
from .vision import DEPTH_EPSILON, CameraModel, PixelMeasurement, landmark_in_body, project

logger = logging.getLogger(__name__)


@dataclass
class Profile:
    """A named parametric time function producing a 3-vector."""

    name: str
    params: Dict[str, object] = field(default_factory=dict)


def _as3(value, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.size == 1:
        arr = np.full(3, arr[0])
    if arr.shape != (3,):
        raise ValueError(f"profile parameter {what} must be a scalar or 3-vector")
    return arr


def evaluate_profile(profile: Profile, t: float) -> np.ndarray:
    if profile.name == "constant":
        return _as3(profile.params.get("value", np.zeros(3)), "value")
    if profile.name == "sinusoid":
        base = _as3(profile.params.get("base", np.zeros(3)), "base")
        amp = _as3(profile.params.get("amplitude", np.zeros(3)), "amplitude")
        freq = _as3(profile.params.get("frequency", np.zeros(3)), "frequency")
        phase = _as3(profile.params.get("phase", np.zeros(3)), "phase")
        return base + amp * np.sin(2.0 * np.pi * freq * t + phase)
    raise ValueError(f"unknown profile name: {profile.name!r}")


def default_initial_pose() -> PoseState:
    """Level attitude, at rest, 4 m above the pad (z down)."""
    return PoseState(R=np.eye(3), v=np.zeros(3), p=np.array([0.0, 0.0, -4.0]))


def triangle_landmarks(side: float = 1.0) -> np.ndarray:
    """Three pad markers forming an equilateral triangle centered on the origin, on z = 0."""
    r = side / math.sqrt(3.0)
    return np.array(
        [
            [r, 0.0, 0.0],
            [-r / 2.0, side / 2.0, 0.0],
            [-r / 2.0, -side / 2.0, 0.0],
        ]
    )


@dataclass
class TrajectorySpec:
    duration: float
    imu_dt: float = 0.02
    camera_dt: float = 0.4
    initial_pose: PoseState = field(default_factory=default_initial_pose)
    angular_profile: Profile = field(default_factory=lambda: Profile("constant"))
    accel_profile: Profile = field(default_factory=lambda: Profile("constant"))


@dataclass
class NoiseSpec:
    imu_noise_variance: float = 1e-4   # per axis, per sample, gyro and accel alike
    pixel_noise_variance: float = 1.0  # squared image units, per coordinate
    seed: int = 0


@dataclass
class Dataset:
    ground_truth: WindowState
    imu_samples: List[ImuSample]
    pixel_measurements: List[PixelMeasurement]
    cam: CameraModel
    world: WorldParams
    imu_dt: float
    camera_dt: float


def _steps_per_frame(spec: TrajectorySpec) -> int:
    ratio = spec.camera_dt / spec.imu_dt
    k = round(ratio)
    if k < 1 or abs(ratio - k) > 1e-9:
        raise ValueError(
            f"camera_dt {spec.camera_dt} must be an integer multiple of imu_dt {spec.imu_dt}"
        )
    return int(k)


def generate(
    spec: TrajectorySpec,
    landmarks: np.ndarray,
    cam: CameraModel,
    world: WorldParams,
    noise: NoiseSpec,
) -> Dataset:
    """Simulate one flight and package it as a dataset.

    The same seed always yields a bit-identical dataset. Landmarks whose
    ground-truth depth is non-positive at a keyframe are reported and dropped
    from the measurement list, never fatal.
    """
    landmarks = np.atleast_2d(np.asarray(landmarks, dtype=float))
    if np.any(landmarks[:, 2] != 0.0):
        raise ValueError("all landmarks must lie on the ground plane z = 0")
    if noise.imu_noise_variance < 0 or noise.pixel_noise_variance < 0:
        raise ValueError("noise variances must be >= 0")
    k = _steps_per_frame(spec)
    num_frames = int(math.floor(spec.duration / spec.camera_dt + 1e-9)) + 1
    if num_frames < 2:
        raise ValueError("duration must cover at least one camera interval")
    num_steps = (num_frames - 1) * k

    rng = np.random.default_rng(noise.seed)
    gyro_noise = math.sqrt(noise.imu_noise_variance) * rng.standard_normal((num_steps, 3))
    accel_noise = math.sqrt(noise.imu_noise_variance) * rng.standard_normal((num_steps, 3))

    g = np.asarray(world.gravity, dtype=float)
    dt = spec.imu_dt
    omegas = np.array([evaluate_profile(spec.angular_profile, step * dt) for step in range(num_steps)])
    accels = np.array([evaluate_profile(spec.accel_profile, step * dt) for step in range(num_steps)])
    step_rotations = exp_map(omegas * dt)
    measured_omegas = omegas + gyro_noise
    measured_accels = accels + accel_noise
    samples = [ImuSample(measured_omegas[step], measured_accels[step], dt) for step in range(num_steps)]

    pose = spec.initial_pose.copy()
    keyframes = [pose.copy()]
    for step in range(num_steps):
        world_accel = pose.R @ accels[step]
        p = pose.p + pose.v * dt + 0.5 * g * dt * dt + 0.5 * world_accel * dt * dt
        v = pose.v + g * dt + world_accel * dt
        R = pose.R @ step_rotations[step]
        pose = PoseState(R, v, p)
        if (step + 1) % k == 0:
            keyframes.append(pose.copy())

    truth = WindowState(keyframes, landmarks.copy())
    # every landmark from every keyframe: poses (n, 1) against landmarks (N,)
    observers = PoseState(
        *(np.array([getattr(pose, f) for pose in keyframes])[:, None] for f in ("R", "v", "p"))
    )
    q = landmark_in_body(observers, landmarks)
    visible = q[..., 2] > DEPTH_EPSILON
    for frame, lm in np.argwhere(~visible):
        logger.warning(
            "landmark %d behind camera at keyframe %d (depth %.3e), measurement dropped",
            lm + 1, frame + 1, q[frame, lm, 2],
        )
    exact_uv = project(cam, q[visible])
    frames, ids = np.nonzero(visible)
    pixel_noise = math.sqrt(noise.pixel_noise_variance) * rng.standard_normal((len(frames), 2))
    measurements = [
        PixelMeasurement(int(frame) + 1, int(lm) + 1, exact_uv[i] + pixel_noise[i])
        for i, (frame, lm) in enumerate(zip(frames, ids))
    ]
    return Dataset(truth, samples, measurements, cam, world, spec.imu_dt, spec.camera_dt)


def perturb_initialization(dataset: Dataset, mode: str) -> WindowState:
    """Initial window for the optimizer.

    "truth" returns the ground truth unchanged. "cold" is the fixed
    cold-start: keyframe 1 is the dataset's prior keyframe (it is never
    updated), every later pose is set to attitude I, velocity 0, position
    (0,0,-4); each landmark is placed where its earliest measured pixel ray
    (cast from the cold pose) meets the ground plane, so altitudes start at
    exactly 0.
    """
    truth = dataset.ground_truth
    if mode == "truth":
        return truth.copy()
    if mode != "cold":
        raise ValueError(f"unknown initialization preset: {mode!r}")

    n = truth.n
    cold_p = np.array([0.0, 0.0, -4.0])
    poses = [truth.poses[0].copy()]
    poses += [PoseState(np.eye(3), np.zeros(3), cold_p.copy()) for _ in range(n - 1)]
    cam = dataset.cam
    landmarks = np.zeros_like(truth.landmarks)
    for lm in range(1, truth.num_landmarks + 1):
        obs = [m for m in dataset.pixel_measurements if m.landmark_id == lm]
        if not obs:
            logger.warning("landmark %d never measured; cold start leaves it at the origin", lm)
            continue
        first = min(obs, key=lambda m: m.frame_index)
        direction = np.array(
            [
                (first.uv[0] - cam.principal_point[0]) / cam.focal,
                (first.uv[1] - cam.principal_point[1]) / cam.focal,
                1.0,
            ]
        )
        # cold pose attitude is I, so the body-frame ray is the world-frame ray
        scale = -cold_p[2] / direction[2]
        landmarks[lm - 1] = [
            cold_p[0] + scale * direction[0],
            cold_p[1] + scale * direction[1],
            0.0,
        ]
    return WindowState(poses, landmarks)


def intervals(dataset: Dataset) -> List[List[ImuSample]]:
    """Split the flat sample list into the n-1 keyframe intervals."""
    n = dataset.ground_truth.n
    per = len(dataset.imu_samples) // (n - 1)
    if per * (n - 1) != len(dataset.imu_samples):
        raise ValueError("IMU sample count is not a multiple of the keyframe interval count")
    return [dataset.imu_samples[i * per : (i + 1) * per] for i in range(n - 1)]


def make_problem(
    dataset: Dataset, window: WindowState, photometric_weight: float = 1000.0
) -> Problem:
    """Bundle a dataset and an initial window into an optimization problem."""
    deltas: List[PreintegratedDelta] = [preintegrate(chunk) for chunk in intervals(dataset)]
    return Problem(
        window=window,
        deltas=deltas,
        measurements=list(dataset.pixel_measurements),
        cam=dataset.cam,
        world=dataset.world,
        photometric_weight=photometric_weight,
    )
