"""Synthetic flight generator: ground truth, IMU samples, pixel detections.

Ground truth is every k-th state of one `imu.propagate` call (its docstring
states the discrete motion model) with the true rates and world gravity.
The preintegrator steps the same function with zero gravity, so zero-noise
deltas reproduce the relative keyframe states exactly (no discretization
residue), making the end-to-end residual oracle exact.

The world frame has z pointing down: gravity defaults to (0, 0, +9.81), and
an aircraft at 4 m altitude sits at p_z = -4. The camera looks along body +z,
i.e. straight at the ground under level flight.

A `Dataset` holds stacked records: the S IMU samples are one `ImuSample`
with omega and accel (S,3) and dt (S,), the K pixel detections one
`PixelMeasurement` with (K,) frame and landmark ids and (K,2) uv values,
and the ground-truth keyframes one `PoseState` stack. `make_problem`
reshapes the samples to (n-1, S/(n-1), ...) and preintegrates every
keyframe interval in one call.

`stack_datasets` builds a batch of B same-shaped datasets: one `Dataset`
whose ground truth, IMU samples (omega and accel (B,S,3), dt (B,S)) and
pixel uv (B,K,2) carry a leading batch axis, with one shared detection
pattern, camera, world and timing. `make_problem` broadcasts over that
axis: it preintegrates all B·(n-1) intervals in one call and gives a
batched `Problem` (see `graph`). It is the one place a batch is built.

Motion profiles are declarative (a profile name plus parameters) so a whole
scenario fits in a config file. Known profile names:

* "constant": params {"value": [x, y, z]}
* "sinusoid": params {"base": [...], "amplitude": [...], "frequency": [...],
  "phase": [...]}, elementwise base + amplitude*sin(2*pi*frequency*t + phase)
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, Mapping

import numpy as np

from . import inputs
from .graph import PoseState, Problem, WindowState
from .imu import ImuSample, WorldParams, preintegrate, propagate
from .manifold import is_rotation
from .vision import DEPTH_EPSILON, CameraModel, PixelMeasurement, landmark_in_body, project

logger = logging.getLogger(__name__)


@dataclass
class Profile:
    """A named parametric time function producing a 3-vector."""

    name: str
    params: Dict[str, object] = field(default_factory=dict)


def _as3(value, what: str) -> np.ndarray:
    arr = inputs.finite_array(value)
    if arr is not None and arr.size == 1:
        arr = np.full(3, arr.flat[0])
    if arr is None or arr.shape != (3,):
        raise ValueError(f"profile parameter {what} must be a finite scalar or 3-vector")
    return arr


# the parameters each profile reads, in order; any other is a misspelling
_PROFILE_PARAMS = {"constant": ("value",), "sinusoid": ("base", "amplitude", "frequency", "phase")}


def evaluate_profile(profile: Profile, t) -> np.ndarray:
    """The profile at time t (s): a 3-vector, or (..., 3) for an array of times.
    An unknown name, params that are not a mapping, or a parameter the
    profile does not read, raises ValueError."""
    known = _PROFILE_PARAMS.get(profile.name) if isinstance(profile.name, str) else None
    if known is None:
        raise ValueError(f"unknown profile name: {profile.name!r}")
    if not isinstance(profile.params, Mapping):
        raise ValueError(f"{profile.name} profile params must be a mapping, got {profile.params!r}")
    unknown = sorted(set(profile.params) - set(known))
    if unknown:
        raise ValueError(f"unknown {profile.name} profile parameter {unknown[0]!r} (known: {', '.join(known)})")
    t = np.asarray(t, dtype=float)[..., None]
    params = [_as3(profile.params.get(name, 0.0), name) for name in known]
    if profile.name == "constant":
        return np.broadcast_to(params[0], t.shape[:-1] + (3,)).copy()
    base, amp, freq, phase = params
    return base + amp * np.sin(2.0 * np.pi * freq * t + phase)


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
    """One simulated flight, or a batch of them from `stack_datasets` with a
    leading batch axis on the ground truth, the IMU samples and the uv."""

    ground_truth: WindowState
    imu_samples: ImuSample  # omega and accel (..., S,3), dt (..., S)
    pixel_measurements: PixelMeasurement  # (K,) ids, (..., K,2) uv
    cam: CameraModel
    world: WorldParams
    imu_dt: float
    camera_dt: float


def steps_per_frame(camera_dt: float, imu_dt: float) -> int:
    """IMU samples per camera interval; camera_dt must be an integer multiple of imu_dt."""
    ratio = camera_dt / imu_dt
    k = round(ratio)
    if k < 1 or abs(ratio - k) > 1e-9:
        raise ValueError(f"camera_dt {camera_dt} must be an integer multiple of imu_dt {imu_dt}")
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
    from the measurement list, never fatal. Each input is checked by its
    rule in `inputs`, and the initial attitude must be a rotation; a
    failure raises ValueError naming the field.
    """
    landmarks = inputs.ground_landmarks(landmarks, "landmarks")
    R0 = np.asarray(spec.initial_pose.R, dtype=float)
    if not is_rotation(R0):
        raise ValueError("initial_pose.R must be a rotation matrix")
    v0 = inputs.vector(spec.initial_pose.v, "initial_pose.v", 3)
    p0 = inputs.vector(spec.initial_pose.p, "initial_pose.p", 3)
    g = inputs.vector(world.gravity, "world.gravity", 3)
    inputs.vector(cam.principal_point, "cam.principal_point", 2)
    positive = {"cam.focal": cam.focal, "duration": spec.duration, "imu_dt": spec.imu_dt, "camera_dt": spec.camera_dt}
    for name, value in positive.items():
        inputs.real(value, name, positive=True)
    for name in ("imu_noise_variance", "pixel_noise_variance"):
        inputs.real(getattr(noise, name), f"noise.{name}")
    inputs.integer(noise.seed, "noise.seed")
    k = steps_per_frame(spec.camera_dt, spec.imu_dt)
    num_frames = int(math.floor(spec.duration / spec.camera_dt + 1e-9)) + 1
    if num_frames < 2:
        raise ValueError("duration must cover at least one camera interval")
    num_steps = (num_frames - 1) * k

    rng = np.random.default_rng(noise.seed)
    gyro_noise = math.sqrt(noise.imu_noise_variance) * rng.standard_normal((num_steps, 3))
    accel_noise = math.sqrt(noise.imu_noise_variance) * rng.standard_normal((num_steps, 3))

    dt = spec.imu_dt
    times = np.arange(num_steps) * dt
    omegas = evaluate_profile(spec.angular_profile, times)
    accels = evaluate_profile(spec.accel_profile, times)
    samples = ImuSample(omegas + gyro_noise, accels + accel_noise, np.full(num_steps, dt))

    R, v, p = propagate(R0, v0, p0, omegas, accels, samples.dt, g)
    keyframes = PoseState(R[::k].copy(), v[::k].copy(), p[::k].copy())

    truth = WindowState(keyframes, landmarks.copy())
    # every landmark from every keyframe: poses (n, 1) against landmarks (N,)
    q = landmark_in_body(keyframes[np.arange(num_frames)[:, None]], landmarks)
    visible = q[..., 2] > DEPTH_EPSILON
    for frame, lm in np.argwhere(~visible):
        logger.warning(
            "landmark %d behind camera at keyframe %d (depth %.3e), measurement dropped",
            lm + 1, frame + 1, q[frame, lm, 2],
        )
    exact_uv = project(cam, q[visible])
    frames, ids = np.nonzero(visible)
    pixel_noise = math.sqrt(noise.pixel_noise_variance) * rng.standard_normal((len(frames), 2))
    measurements = PixelMeasurement(frames + 1, ids + 1, exact_uv + pixel_noise)
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

    cold_p = np.array([0.0, 0.0, -4.0])
    poses = truth.poses.copy()
    poses.R[1:], poses.v[1:], poses.p[1:] = np.eye(3), 0.0, cold_p
    cam = dataset.cam
    meas = dataset.pixel_measurements
    # each landmark's earliest detection: the first of its group, by frame
    by_landmark = np.lexsort((meas.frame_index, meas.landmark_id))
    ids, first = np.unique(meas.landmark_id[by_landmark], return_index=True)
    for lm in sorted(set(range(1, truth.num_landmarks + 1)) - set(ids.tolist())):
        logger.warning("landmark %d never measured; cold start leaves it at the origin", lm)
    # the cold attitude is I, so the body-frame pixel ray (x, y, 1) is the
    # world-frame ray; from the cold position it meets z = 0 at scale -p_z
    ray = (meas.uv[by_landmark[first]] - cam.principal_point) / cam.focal
    landmarks = np.zeros_like(truth.landmarks)
    landmarks[ids - 1, :2] = cold_p[:2] - cold_p[2] * ray
    return WindowState(poses, landmarks)


# what every dataset of a batch shares, as the values that must be equal
_SHARED = {
    "n": lambda d: (d.ground_truth.n,),
    "N": lambda d: (d.ground_truth.num_landmarks,),
    "IMU sample count": lambda d: (len(d.imu_samples.dt),),
    "measurement pattern": lambda d: (d.pixel_measurements.frame_index, d.pixel_measurements.landmark_id),
    "camera": lambda d: (d.cam.focal, d.cam.principal_point),
    "world": lambda d: (d.world.gravity,),
    "timing": lambda d: (d.imu_dt, d.camera_dt),
}


def stack_datasets(datasets) -> Dataset:
    """One dataset whose ground truth, IMU samples and pixel uv carry a leading
    batch axis, one index per given dataset in order. The datasets must share
    n, N, the IMU sample count, the detection pattern, the camera, the world
    and the timing; the first that does not raises ValueError naming the field."""
    datasets = list(datasets)
    if not datasets:
        raise ValueError("stack_datasets needs at least one dataset")
    first = datasets[0]
    for index, dataset in enumerate(datasets[1:], 1):
        for name, shared in _SHARED.items():
            if not all(map(np.array_equal, shared(dataset), shared(first))):
                raise ValueError(f"dataset {index} differs from dataset 0 in {name}")

    def stack(name):
        return np.stack([operator.attrgetter(name)(dataset) for dataset in datasets])

    poses = PoseState(*map(stack, ("ground_truth.poses.R", "ground_truth.poses.v", "ground_truth.poses.p")))
    samples = ImuSample(*map(stack, ("imu_samples.omega", "imu_samples.accel", "imu_samples.dt")))
    meas = first.pixel_measurements
    measurements = PixelMeasurement(meas.frame_index, meas.landmark_id, stack("pixel_measurements.uv"))
    truth = WindowState(poses, stack("ground_truth.landmarks"))
    return Dataset(truth, samples, measurements, first.cam, first.world, first.imu_dt, first.camera_dt)


def make_problem(
    dataset: Dataset, window: WindowState, photometric_weight: float = 1000.0
) -> Problem:
    """Bundle a dataset and an initial window into an optimization problem.

    The S samples are reshaped to (..., n-1, S/(n-1), ...) and all keyframe
    intervals are preintegrated in one call. A stacked dataset (see
    `stack_datasets`) gives a problem with its batch axis on the deltas and uv."""
    n = dataset.ground_truth.n
    samples = dataset.imu_samples
    *lead, count = np.shape(samples.dt)
    per = count // (n - 1)
    if per < 1 or per * (n - 1) != count:
        raise ValueError("IMU sample count is not a positive multiple of the keyframe interval count")
    intervals = (*lead, n - 1, per)
    by_interval = ImuSample(
        samples.omega.reshape(intervals + (3,)),
        samples.accel.reshape(intervals + (3,)),
        samples.dt.reshape(intervals),
    )
    return Problem(
        window=window,
        deltas=preintegrate(by_interval),
        measurements=dataset.pixel_measurements,
        cam=dataset.cam,
        world=dataset.world,
        photometric_weight=photometric_weight,
    )
