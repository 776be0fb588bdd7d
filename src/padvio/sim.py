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

`generate` also simulates a batch of B same-shaped flights in one pass,
given one spec, landmark array and noise spec per flight: one `Dataset`
whose ground truth (R (B,n,3,3), v and p (B,n,3), landmarks (B,N,3)), IMU
samples (omega and accel (B,S,3), dt (B,S)) and pixel uv (B,K,2) carry a
leading flight axis, with one shared (K,) detection pattern, camera, world
and timing. One `propagate` call steps every flight. `make_problem`
broadcasts over that axis: it preintegrates all B·(n-1) intervals in one
call and gives a batched `Problem` (see `graph`). It is the one place a
batch is built; a single flight is the batch code with no flight axis.

A batch's inputs are checked once per batch: each rule of `inputs` runs
once over the stacked fields (one `is_rotation` on the (B, 3, 3) initial
attitudes, one finiteness and ground-plane check on the (B, N, 3)
landmarks), and the profiles of one name are evaluated in one broadcast of
their stacked parameters. Only when a flight fails, or an input is not a
float64 array, a float or an int seed, does a loop check flight by flight,
so the first bad flight and field are named as before. Per flight, what
is left is its generator and its draws.

Motion profiles are declarative (a profile name plus parameters) so a whole
scenario fits in a config file. Known profile names:

* "constant": params {"value": [x, y, z]}
* "sinusoid": params {"base": [...], "amplitude": [...], "frequency": [...],
  "phase": [...]}, elementwise base + amplitude*sin(2*pi*frequency*t + phase)
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence

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


def _profile_values(name: str, params, t: np.ndarray) -> np.ndarray:
    """The named profile at the times t (..., 1), from its parameters in
    `_PROFILE_PARAMS` order, each broadcasting against t."""
    if name == "constant":
        return np.broadcast_to(params[0], np.broadcast_shapes(np.shape(params[0]), t.shape)).copy()
    base, amp, freq, phase = params
    return base + amp * np.sin(2.0 * np.pi * freq * t + phase)


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
    params = [_as3(profile.params.get(name, 0.0), name) for name in known]
    return _profile_values(profile.name, params, np.asarray(t, dtype=float)[..., None])


_FLOAT64 = np.dtype(np.float64)


def _is_float64(value, shape: tuple) -> bool:
    """Whether value is a float64 ndarray of that shape, which a batch stacks
    without converting: anything else takes the per-flight rules."""
    return type(value) is np.ndarray and value.dtype == _FLOAT64 and value.shape == shape


def _stacked_params(profiles: Sequence[Profile]):
    """(P, B, 3): the P parameters of B profiles of one name, in
    `_PROFILE_PARAMS` order, if every profile has that name, a dict of
    params it reads, and each parameter a float or a float64 3-vector, all
    finite; else None."""
    name = profiles[0].name
    known = _PROFILE_PARAMS.get(name) if type(name) is str else None
    if known is None:
        return None
    params = np.empty((len(known), len(profiles), 3))
    for b, profile in enumerate(profiles):
        if type(profile.name) is not str or profile.name != name or type(profile.params) is not dict:
            return None
        if not profile.params.keys() <= set(known):
            return None
        for i, key in enumerate(known):
            value = profile.params.get(key, 0.0)
            if not (type(value) is float or _is_float64(value, (3,))):
                return None
            params[i, b] = value
    return params if np.isfinite(params).all() else None


def _evaluate_profiles(profiles: Sequence[Profile], t: np.ndarray) -> np.ndarray:
    """(B, S, 3): each of B profiles at the S times t, bit for bit what
    `evaluate_profile` gives it. Profiles that `_stacked_params` reads are
    evaluated in one broadcast of their stacked parameters against t; any
    other batch profile by profile, so the first bad one raises its error."""
    params = _stacked_params(profiles)
    if params is None:
        return np.array([evaluate_profile(profile, t) for profile in profiles])
    return _profile_values(profiles[0].name, params[:, :, None, :], t[:, None])


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
    """One simulated flight, or a batch of them from `generate` with a
    leading flight axis on the ground truth, the IMU samples and the uv."""

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


def _checked_flight(spec: TrajectorySpec, landmarks, noise: NoiseSpec, name: str):
    """One flight's inputs, each checked by its rule in `inputs` under its
    field name after `name`: (landmarks (N, 3), R0, v0, p0, IMU steps per
    keyframe interval, keyframe count n)."""
    landmarks = inputs.ground_landmarks(landmarks, name + "landmarks")
    R0 = np.asarray(spec.initial_pose.R, dtype=float)
    if not is_rotation(R0):
        raise ValueError(f"{name}initial_pose.R must be a rotation matrix")
    v0 = inputs.vector(spec.initial_pose.v, name + "initial_pose.v", 3)
    p0 = inputs.vector(spec.initial_pose.p, name + "initial_pose.p", 3)
    for field_name in ("duration", "imu_dt", "camera_dt"):
        inputs.real(getattr(spec, field_name), name + field_name, positive=True)
    for field_name in ("imu_noise_variance", "pixel_noise_variance"):
        inputs.real(getattr(noise, field_name), f"{name}noise.{field_name}")
    inputs.integer(noise.seed, name + "noise.seed")
    k = steps_per_frame(spec.camera_dt, spec.imu_dt)
    num_frames = int(math.floor(spec.duration / spec.camera_dt + 1e-9)) + 1
    if num_frames < 2:
        raise ValueError(f"{name}duration must cover at least one camera interval")
    return landmarks, R0, v0, p0, k, num_frames


def _checked_batch(flights):
    """Every flight's inputs checked in one pass, by the rules of
    `_checked_flight`: (landmarks (B, N, 3), R0 (B, 3, 3), v0 and p0 (B, 3),
    and the IMU steps per keyframe interval and keyframe count n the flights
    share). Each array rule runs once on the stacked arrays. None when a
    flight fails a rule or differs from flight 0 in N, timing or n, or when
    an input is not what the pass reads (float64 arrays, float times and
    variances, int seeds); the per-flight loop then names the first bad
    flight and field."""
    specs, landmark_sets, noises = zip(*flights)
    poses = [spec.initial_pose for spec in specs]
    first = landmark_sets[0]
    if not (type(first) is np.ndarray and first.ndim == 2 and len(first) >= 1 and first.shape[1] == 3):
        return None
    fields = [
        (landmark_sets, first.shape),
        ([pose.R for pose in poses], (3, 3)),
        ([pose.v for pose in poses] + [pose.p for pose in poses], (3,)),
    ]
    if not all(_is_float64(array, shape) for arrays, shape in fields for array in arrays):
        return None
    times = [x for spec in specs for x in (spec.duration, spec.imu_dt, spec.camera_dt)]
    variances = [x for noise in noises for x in (noise.imu_noise_variance, noise.pixel_noise_variance)]
    seeds = [noise.seed for noise in noises]
    # a NaN fails both comparisons, an infinity the upper one
    if not (
        set(map(type, times + variances)) == {float} and set(map(type, seeds)) == {int}
        and all(0.0 < x <= sys.float_info.max for x in times)
        and all(0.0 <= x <= sys.float_info.max for x in variances)
        and min(seeds) >= 0 and len({(spec.imu_dt, spec.camera_dt) for spec in specs}) == 1
    ):
        return None
    landmarks, R0, v0_p0 = (np.array(arrays) for arrays, _ in fields)
    if not (
        np.isfinite(landmarks).all() and not landmarks[..., 2].any()
        and is_rotation(R0).all() and np.isfinite(v0_p0).all()
    ):
        return None
    # every flight passed every rule before it and has flight 0's timing, so
    # the per-flight loop would raise this for flight 0 too
    k = steps_per_frame(specs[0].camera_dt, specs[0].imu_dt)
    frame_counts = {math.floor(spec.duration / spec.camera_dt + 1e-9) + 1 for spec in specs}
    if len(frame_counts) != 1 or min(frame_counts) < 2:
        return None
    return landmarks, R0, v0_p0[: len(specs)], v0_p0[len(specs) :], k, frame_counts.pop()


def _checked_flights(flights, names):
    """The flights' inputs, checked, as `_checked_batch` gives them. A batch
    that pass does not take is checked flight by flight (`_checked_flight`),
    then flight by flight against flight 0 in the fields they share, so
    the first flight and field that fail raise ValueError."""
    checked = _checked_batch(flights)
    if checked is not None:
        return checked
    checked = [_checked_flight(*flight, name) for flight, name in zip(flights, names)]
    landmark_sets, R0, v0, p0, ks, frame_counts = zip(*checked)
    shared = {
        "n": frame_counts,
        "N": [len(lm) for lm in landmark_sets],
        "IMU sample count": [(n - 1) * k for n, k in zip(frame_counts, ks)],
        "timing": [(spec.imu_dt, spec.camera_dt) for spec, _, _ in flights],
    }
    for b in range(1, len(flights)):
        for field_name, values in shared.items():
            if values[b] != values[0]:
                raise ValueError(f"flight {b} differs from flight 0 in {field_name}")
    return (*map(np.array, (landmark_sets, R0, v0, p0)), ks[0], frame_counts[0])


def generate(
    spec: TrajectorySpec | Sequence[TrajectorySpec],
    landmarks,
    cam: CameraModel,
    world: WorldParams,
    noise: NoiseSpec | Sequence[NoiseSpec],
) -> Dataset:
    """Simulate one flight, or a batch of same-shaped flights, as one dataset.

    One flight takes a `TrajectorySpec`, an (N, 3) landmark array and a
    `NoiseSpec`. A batch of B flights takes equal-length sequences of the
    three, one entry per flight, and gives a dataset with a leading flight
    axis on the ground truth, the IMU samples and the pixel uv; the camera
    and the world are shared. The flights must agree on the keyframe count
    n, the marker count N, the IMU sample count, the timing (imu_dt and
    camera_dt) and which markers each keyframe sees (the measurement
    pattern); the first flight that does not raises ValueError naming it
    and the field. One `propagate` call steps all flights, and each
    flight draws its gyro, accel, then pixel noise from its own seed, so
    flight b of a batch is bit-identical to simulating it alone.

    The same seed always yields a bit-identical dataset. Landmarks whose
    ground-truth depth is non-positive at a keyframe are reported and dropped
    from the measurement list, never fatal. Each input is checked by its
    rule in `inputs`, and the initial attitude must be a rotation, once
    over the batch's stacked fields; a failure raises ValueError naming the
    first bad flight ("flight b " in a batch) and field, in the order a
    flight-by-flight check finds them.
    """
    single = isinstance(spec, TrajectorySpec)
    if single:
        flights, names = [(spec, landmarks, noise)], [""]
    else:
        counts = tuple(map(len, (spec, landmarks, noise)))
        if not 0 < counts[0] == counts[1] == counts[2]:
            raise ValueError(
                "generate takes one or more flights, one entry each in spec, landmarks and noise, "
                "got %d, %d and %d" % counts
            )
        flights, names = list(zip(spec, landmarks, noise)), [f"flight {b} " for b in range(counts[0])]
    g = inputs.vector(world.gravity, "world.gravity", 3)
    inputs.vector(cam.principal_point, "cam.principal_point", 2)
    inputs.real(cam.focal, "cam.focal", positive=True)
    landmarks, R0, v0, p0, k, num_frames = _checked_flights(flights, names)
    specs, _, noises = zip(*flights)

    def flight_axis(array: np.ndarray) -> np.ndarray:
        # a batch's stacked array, or one flight's without its flight axis
        return array[0] if single else array

    num_steps = (num_frames - 1) * k
    # each flight's own stream draws its gyro, then its accel, then its pixel noise
    rngs = [np.random.default_rng(n.seed) for n in noises]
    imu_scales = np.array([math.sqrt(n.imu_noise_variance) for n in noises])[:, None, None]
    gyro_noise = flight_axis(imu_scales * np.array([rng.standard_normal((num_steps, 3)) for rng in rngs]))
    accel_noise = flight_axis(imu_scales * np.array([rng.standard_normal((num_steps, 3)) for rng in rngs]))

    dt = specs[0].imu_dt
    times = np.arange(num_steps) * dt
    omegas = flight_axis(_evaluate_profiles([s.angular_profile for s in specs], times))
    accels = flight_axis(_evaluate_profiles([s.accel_profile for s in specs], times))
    samples = ImuSample(omegas + gyro_noise, accels + accel_noise, np.full(np.shape(omegas)[:-1], dt))

    R, v, p = propagate(flight_axis(R0), flight_axis(v0), flight_axis(p0), omegas, accels, samples.dt, g)
    keyframes = PoseState(R[..., ::k, :, :].copy(), v[..., ::k, :].copy(), p[..., ::k, :].copy())

    landmarks = flight_axis(landmarks)
    truth = WindowState(keyframes, landmarks)
    # every landmark from every keyframe: poses (..., n, 1) against landmarks (..., 1, N)
    q = landmark_in_body(keyframes[np.arange(num_frames)[:, None]], landmarks[..., None, :, :])
    visible = q[..., 2] > DEPTH_EPSILON
    for *flight, frame, lm in np.argwhere(~visible):
        logger.warning(
            "%slandmark %d behind camera at keyframe %d (depth %.3e), measurement dropped",
            names[flight[0] if flight else 0], lm + 1, frame + 1, q[(*flight, frame, lm, 2)],
        )
    pattern = visible if single else visible[0]
    for b in range(1, len(flights)):
        if not np.array_equal(visible[b], pattern):
            raise ValueError(f"flight {b} differs from flight 0 in measurement pattern")
    exact_uv = project(cam, q[..., pattern, :])
    frames, ids = np.nonzero(pattern)
    pixel_scales = np.array([math.sqrt(n.pixel_noise_variance) for n in noises])[:, None, None]
    pixel_noise = flight_axis(pixel_scales * np.array([rng.standard_normal((len(frames), 2)) for rng in rngs]))
    measurements = PixelMeasurement(frames + 1, ids + 1, exact_uv + pixel_noise)
    return Dataset(truth, samples, measurements, cam, world, specs[0].imu_dt, specs[0].camera_dt)


INIT_PRESETS = ("cold", "truth")  # the modes of `perturb_initialization`


def perturb_initialization(dataset: Dataset, mode: str) -> WindowState:
    """Initial window for the optimizer.

    "truth" returns the ground truth unchanged. "cold" is the fixed
    cold-start: keyframe 1 is the dataset's prior keyframe (it is never
    updated), every later pose is set to attitude I, velocity 0, position
    (0,0,-4); each landmark is placed where its earliest measured pixel ray
    (cast from the cold pose) meets the ground plane, so altitudes start at
    exactly 0. A batch of flights gives each flight its own cold start.
    """
    if mode not in INIT_PRESETS:
        raise ValueError(f"unknown initialization preset: {mode!r}")
    truth = dataset.ground_truth
    if mode == "truth":
        return truth.copy()

    cold_p = np.array([0.0, 0.0, -4.0])
    poses = truth.poses.copy()
    poses[1:] = PoseState(np.eye(3), np.zeros(3), cold_p)
    cam = dataset.cam
    meas = dataset.pixel_measurements
    # each landmark's earliest detection: the first of its group, by frame
    by_landmark = np.lexsort((meas.frame_index, meas.landmark_id))
    ids, first = np.unique(meas.landmark_id[by_landmark], return_index=True)
    for lm in sorted(set(range(1, truth.num_landmarks + 1)) - set(ids.tolist())):
        logger.warning("landmark %d never measured; cold start leaves it at the origin", lm)
    # the cold attitude is I, so the body-frame pixel ray (x, y, 1) is the
    # world-frame ray; from the cold position it meets z = 0 at scale -p_z
    ray = (meas.uv[..., by_landmark[first], :] - cam.principal_point) / cam.focal
    landmarks = np.zeros_like(truth.landmarks)
    landmarks[..., ids - 1, :2] = cold_p[:2] - cold_p[2] * ray
    return WindowState(poses, landmarks)


def make_problem(
    dataset: Dataset, window: WindowState, photometric_weight: float = Problem.photometric_weight
) -> Problem:
    """Bundle a dataset and an initial window into an optimization problem.

    The S samples are reshaped to (..., n-1, S/(n-1), ...) and all keyframe
    intervals are preintegrated in one call. A batch of flights (see
    `generate`) gives a problem with its flight axis on the deltas and uv."""
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
