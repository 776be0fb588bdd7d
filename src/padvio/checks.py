"""Finite-difference certification of every analytic Jacobian.

Each analytic block is compared against central differences of the matching
residual taken through the boxplus retraction. The relative error of a block
is max|J_analytic - J_numeric| / max(1, max|J_numeric|). Every check
reduces its whole block grid at once (`_block_errors`): |analytic - numeric|
and |numeric| are reshaped to (T, row blocks, rows, column blocks, columns),
and their maxima divided; these operations are exact, so each entry holds
the bits of its own block's error. The stacked check's grid is one block,
its whole Jacobian.

A check evaluates its residual once: the 2·dim increments ±h·e_k are stacked
into one (2·dim, dim) array, and the residual, the factor functions and the
retractions broadcast over its leading axis. The numeric Jacobian reads only
residuals, so it stays independent of the analytic one.

`certify_imu` and `certify_vision` draw each input field for all trials in
one generator call, in the order their docstrings state; a rotation is drawn
as its rotation vector, all axes and then all angles (`_random_rotations`).
The rotations and the products of the drawn values are formed once per
check, on the stacks, so each check makes one residual and one Jacobian call
for all trials, the camera's fields included. `certify_stacked` draws each
trial's flight inputs at `_FLIGHT_SHAPE`, the most keyframes and markers of
any certified shape, then its window offset at its own shape, t mod 4. All
trials' flights are simulated in one batched `sim.generate` call and
preintegrated once (`make_problem`): one propagation and one preintegration
of all their intervals. Their inputs are float64 arrays, floats and int
seeds, so `generate` checks them in one pass over the batch and evaluates
their profiles in one broadcast. Simulation and preintegration step in
order, so the first n keyframes, the first n - 1 deltas and the detections
of the first N markers of a flight are a window of n keyframes over N
markers; each shape's trials are cut to their shape this way
(`_shape_problem`) into one batched `Problem`, which one `boxplus` moves to
the stacked offsets. The check reads only the preintegrated deltas, so a
flight takes one IMU sample per keyframe interval. Each shape then makes
one residual call and one `assemble` call for all its trials. A shape that got no trial (fewer trials than shapes)
has no entry in the report and prints as not run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import inputs
from .graph import PoseState, Problem, WindowState, assemble, boxplus, pose_boxplus, stacked_residual
from .imu import PreintegratedDelta, WorldParams, imu_residual, imu_residual_jacobian
from .manifold import exp_map
from .sim import (
    CameraModel,
    Dataset,
    NoiseSpec,
    Profile,
    TrajectorySpec,
    default_initial_pose,
    generate,
    make_problem,
)
from .vision import POSE_ENTRIES, PixelMeasurement, photometric_jacobian, photometric_residual

FD_STEP = 1e-6
THRESHOLD = 1e-5

# window sizes cycled through for the stacked-Jacobian certification
STACKED_SHAPES: Tuple[Tuple[int, int], ...] = ((2, 1), (3, 1), (3, 3), (7, 3))


def central_difference(f: Callable[[np.ndarray], np.ndarray], dim: int, h: float = FD_STEP) -> np.ndarray:
    """(..., rows, dim) Jacobians of f at the zero increment by central differences.

    f is called once, on the (2·dim, dim) stack of h·e_k followed by -h·e_k,
    and gives (2·dim, ..., rows) residuals: any axes after the first run over
    the points it evaluates at. Column k is (f(h·e_k) - f(-h·e_k)) / 2h."""
    E = h * np.eye(dim)
    values = f(np.concatenate([E, -E]))
    return np.moveaxis((values[:dim] - values[dim:]) / (2.0 * h), 0, -1)


def _block_errors(analytic: np.ndarray, numeric: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Each rows x cols block's largest relative error over the leading axes
    of (..., R, C) Jacobians, as an (R / rows, C / cols) grid, from one
    reduction of the whole: max, abs, subtract and divide are exact, so
    every entry holds the bits of that block's error computed on its own."""
    *lead, R, C = numeric.shape
    blocks = (*lead, R // rows, rows, C // cols, cols)
    scale = np.maximum(1.0, np.abs(numeric).reshape(blocks).max(axis=(-3, -1)))
    errors = np.abs(analytic - numeric).reshape(blocks).max(axis=(-3, -1)) / scale
    return errors.reshape(-1, R // rows, C // cols).max(axis=0)


def _random_rotations(rng: np.random.Generator, count: int, max_angle: float) -> np.ndarray:
    """(count, 3) rotation vectors: random axes, then angles below max_angle."""
    axes = rng.standard_normal((count, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    return axes * rng.uniform(0.0, max_angle, count)[:, None]


def _random_poses(rng: np.random.Generator, count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """count poses' draws: their attitudes as rotation vectors, then v, then p."""
    return _random_rotations(rng, count, 0.8), rng.normal(0.0, 1.0, (count, 3)), rng.normal(0.0, 2.0, (count, 3))


def _shape_name(n: int, N: int) -> str:
    return f"n={n},N={N}"


@dataclass(frozen=True)
class CertificationReport:
    """Every check's largest relative error. `stacked_errors` holds only the
    window shapes that ran, in `STACKED_SHAPES` order; `max_error` and
    `passed` read the checks that ran."""

    trials: int
    seed: int
    imu_block_errors: Dict[str, float] = field(default_factory=dict)
    vision_block_errors: Dict[str, float] = field(default_factory=dict)
    vision_velocity_block_max_abs: float = 0.0
    stacked_errors: Dict[str, float] = field(default_factory=dict)
    threshold: float = THRESHOLD

    @property
    def max_error(self) -> float:
        """The largest error, NaN if any error is NaN (Python's max would skip it)."""
        values = (
            list(self.imu_block_errors.values())
            + list(self.vision_block_errors.values())
            + list(self.stacked_errors.values())
        )
        return float(np.max(values))

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
        for name in (_shape_name(n, N) for n, N in STACKED_SHAPES):
            err = self.stacked_errors.get(name)
            out.append(f"  stacked  {name:<18} " + ("not run" if err is None else f"max rel err {err:.3e}"))
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"  {verdict} (max {self.max_error:.3e}, threshold {self.threshold:g})")
        return out


# each block's rows or columns by name, in order: the checks read the names
# in their grid order (`_block_errors`), the trial-by-trial reference the slices
_IMU_ROWS = {"r_rot": slice(0, 3), "r_vel": slice(3, 6), "r_pos": slice(6, 9)}
_POSE_COLS = {
    "dR_i": slice(0, 3), "dv_i": slice(3, 6), "dp_i": slice(6, 9),
    "dR_j": slice(9, 12), "dv_j": slice(12, 15), "dp_j": slice(15, 18),
}
_VISION_COLS = {"dR": slice(0, 3), "dv": slice(3, 6), "dp": slice(6, 9), "dp_l": slice(9, 12)}
# the increment entries [dR, dv, dp, dp_l] of the pixel Jacobian's nine columns
_VISION_ENTRIES = np.concatenate([POSE_ENTRIES, 9 + np.arange(3)])


def certify_imu(rng: np.random.Generator, trials: int) -> Dict[str, float]:
    """The IMU factor's block errors over `trials` draws. Each field is drawn
    for all trials in one call, in this order: the delta's rotation vector,
    dv, dp and dt, pose i (`_random_poses`), the rotation vector X of
    R_j = R_i dR X, then v_j and p_j."""
    dR = _random_rotations(rng, trials, 0.6)
    dv, dp = rng.normal(0.0, 1.0, (trials, 3)), rng.normal(0.0, 1.0, (trials, 3))
    dt = rng.uniform(0.1, 1.0, trials)
    R_i, v_i, p_i = _random_poses(rng, trials)
    # a small X keeps the relative-rotation residual well inside the log map's domain
    X = _random_rotations(rng, trials, 0.3)
    v_j, p_j = rng.normal(0.0, 1.0, (trials, 3)), rng.normal(0.0, 2.0, (trials, 3))
    dR, R_i, X = exp_map(np.stack([dR, R_i, X]))
    R_j = R_i @ dR @ X
    delta = PreintegratedDelta(dR, dv, dp, dt)
    pose_i, pose_j = PoseState(R_i, v_i, p_i), PoseState(R_j, v_j, p_j)
    world = WorldParams()

    def residual_at(d: np.ndarray) -> np.ndarray:
        d = d[..., None, :]
        return imu_residual(delta, pose_boxplus(pose_i, d[..., :9]), pose_boxplus(pose_j, d[..., 9:]), world)

    numeric = central_difference(residual_at, 18)
    _, analytic = imu_residual_jacobian(delta, pose_i, pose_j, world)
    names = [f"{rname}/{cname}" for rname in _IMU_ROWS for cname in _POSE_COLS]
    return dict(zip(names, map(float, _block_errors(analytic, numeric, 3, 3).ravel())))


def certify_vision(rng: np.random.Generator, trials: int) -> Tuple[Dict[str, float], float]:
    """The pixel factor's block errors over `trials` draws, and the largest
    numeric entry of its velocity block. Each field is drawn for all trials in
    one call, in this order: focal, principal point, the pose
    (`_random_poses`), the camera-frame point's x and y, its depth, then the
    measured uv."""
    focal, principal_point = rng.uniform(100.0, 800.0, trials), rng.normal(0.0, 5.0, (trials, 2))
    phi, v, p = _random_poses(rng, trials)
    # choose the camera-frame point directly so the depth stays safe
    q = np.column_stack([rng.normal(0.0, 1.0, (trials, 2)), rng.uniform(1.0, 5.0, trials)])
    uv = rng.normal(0.0, 50.0, (trials, 2))
    R = exp_map(phi)
    landmark = p + (R @ q[..., None])[..., 0]
    cam, pose, meas = CameraModel(focal, principal_point), PoseState(R, v, p), PixelMeasurement(1, 1, uv)

    def residual_at(d: np.ndarray) -> np.ndarray:
        d = d[..., None, :]
        return photometric_residual(cam, pose_boxplus(pose, d[..., :9]), landmark + d[..., 9:], meas)

    numeric = central_difference(residual_at, 12)
    # the nine analytic columns at their increment entries: velocity has none,
    # so its analytic block is zero and its numeric block must be too
    analytic = np.zeros_like(numeric)
    analytic[..., _VISION_ENTRIES] = photometric_jacobian(cam, pose, landmark, meas)[1]
    errors = dict(zip(_VISION_COLS, map(float, _block_errors(analytic, numeric, 2, 3)[0])))
    return errors, float(np.abs(numeric[..., _VISION_COLS["dv"]]).max())


# a stacked flight's keyframe interval and IMU step: the check reads only the
# preintegrated deltas, so one IMU sample per interval certifies the same blocks
_KEYFRAME_DT = 0.4

# the keyframe and marker counts every trial's flight is simulated at: each
# certified shape's window is a prefix of such a flight
_FLIGHT_SHAPE: Tuple[int, int] = tuple(map(max, zip(*STACKED_SHAPES)))


def _random_flight(rng: np.random.Generator, n: int, N: int) -> Tuple[TrajectorySpec, np.ndarray, NoiseSpec]:
    """The inputs of a flight of n keyframes over N markers, its rates drawn
    near hover: its spec, landmarks and noise spec (see `_simulate`).
    `certify_stacked` draws every trial's flight at `_FLIGHT_SHAPE`."""
    spec = TrajectorySpec(
        duration=_KEYFRAME_DT * (n - 1),
        imu_dt=_KEYFRAME_DT,
        camera_dt=_KEYFRAME_DT,
        initial_pose=default_initial_pose(),
        angular_profile=Profile("constant", {"value": rng.normal(0.0, 0.1, 3)}),
        accel_profile=Profile(
            "constant", {"value": np.array([0.0, 0.0, -9.81]) + rng.normal(0.0, 0.3, 3)}
        ),
    )
    landmarks = np.column_stack([rng.uniform(-0.8, 0.8, (N, 2)), np.zeros(N)])
    noise = NoiseSpec(imu_noise_variance=1e-4, pixel_noise_variance=1.0, seed=int(rng.integers(2**32)))
    return spec, landmarks, noise


def _simulate(spec, landmarks, noise) -> Dataset:
    """The flight, or batch of flights, that `_random_flight` inputs describe.
    `certify_stacked` simulates all its trials' flights in one call."""
    return generate(spec, landmarks, CameraModel(500.0), WorldParams(), noise)


def _shape_problem(flights: Problem, rows: slice, n: int, N: int) -> Problem:
    """The flights `rows` of a batched problem as windows of n keyframes over
    N markers, at their truth: each flight's first n keyframes, first n - 1
    deltas and the detections of its first N markers. Simulation and
    preintegration step in order, so each is a window of that shape: at
    zero noise, bit for bit the one its flight cut to n keyframes over its
    first N markers gives."""
    poses, deltas, meas = flights.window.poses, flights.deltas, flights.measurements
    keyframes, intervals = (rows, slice(n)), (rows, slice(n - 1))
    seen = np.flatnonzero((meas.frame_index <= n) & (meas.landmark_id <= N))
    return Problem(
        window=WindowState(
            PoseState(poses.R[keyframes], poses.v[keyframes], poses.p[keyframes]),
            flights.window.landmarks[rows, :N],
        ),
        deltas=PreintegratedDelta(
            deltas.dR[intervals], deltas.dv[intervals], deltas.dp[intervals], deltas.dt_total[intervals]
        ),
        measurements=PixelMeasurement(meas.frame_index[seen], meas.landmark_id[seen], meas.uv[rows][:, seen]),
        cam=flights.cam,
        world=flights.world,
    )


def certify_stacked(rng: np.random.Generator, trials: int) -> Dict[str, float]:
    """The stacked Jacobian's error per window shape over `trials` draws.
    Trial t draws its flight's inputs at `_FLIGHT_SHAPE`, then its window
    offset at its shape, `STACKED_SHAPES[t % 4]`."""
    drawn, offsets = [], []
    for trial in range(trials):
        n, N = STACKED_SHAPES[trial % len(STACKED_SHAPES)]
        drawn.append(_random_flight(rng, *_FLIGHT_SHAPE))
        # each trial is evaluated off its truth by a window offset, so the
        # comparison point is generic
        offsets.append(rng.normal(0.0, 0.02, 9 * (n - 1) + 3 * N))
    dataset = _simulate(*zip(*drawn))
    flights = make_problem(dataset, dataset.ground_truth)
    errors = {}
    for k, shape in enumerate(STACKED_SHAPES[:trials]):
        rows = slice(k, trials, len(STACKED_SHAPES))
        batch = _shape_problem(flights, rows, *shape)
        batch = batch.with_window(boxplus(batch.window, np.array(offsets[rows])))
        # the increments' axis goes before the trials' axis of the batch
        numeric = central_difference(
            lambda d: stacked_residual(batch.with_window(boxplus(batch.window, d[..., None, :]))), batch.window.dim
        )
        jacobian = assemble(batch)[1].toarray()
        # the whole Jacobian is one block
        errors[_shape_name(*shape)] = float(_block_errors(jacobian, numeric, *jacobian.shape[-2:])[0, 0])
    return errors


def run_certification(seed: int = 0, trials: int = 100) -> CertificationReport:
    """Run all three certifications, each on its own child of
    `SeedSequence(seed)`: no two checks share a stream, at one seed or
    across seeds."""
    inputs.integer(seed, "seed")
    inputs.integer(trials, "trials", 1)
    imu_seed, vision_seed, stacked_seed = np.random.SeedSequence(seed).spawn(3)
    imu_errors = certify_imu(np.random.default_rng(imu_seed), trials)
    vision_errors, vel_abs = certify_vision(np.random.default_rng(vision_seed), trials)
    return CertificationReport(
        trials=trials,
        seed=seed,
        imu_block_errors=imu_errors,
        vision_block_errors=vision_errors,
        vision_velocity_block_max_abs=vel_abs,
        stacked_errors=certify_stacked(np.random.default_rng(stacked_seed), trials),
    )
