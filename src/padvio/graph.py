"""Optimization window, boxplus retraction, and stacked residual/Jacobian assembly.

State ordering conventions (fixed so outputs are bit-reproducible):

* increment vector: [dR, dv, dp] (3 each) for poses 2..n, then [dp_l] per
  landmark; pose 1 is the prior and has no columns,
* residual vector: the n-1 IMU residuals (9 rows each) in keyframe order,
  then photometric residuals (2 rows each) sorted by frame then landmark,
* weights: 1 on IMU rows, photometric_weight (default 1000) on pixel rows.

With every landmark visible in every frame the stacked system therefore has
(n-1)*9 + n*N*2 rows and (n-1)*9 + N*3 columns.

The data is held as stacked records: the window's poses are one `PoseState`
with R (n,3,3), v and p (n,3), the problem's deltas one `PreintegratedDelta`
with dR (n-1,3,3), dv and dp (n-1,3) and dt_total (n-1,), and its K
detections one `PixelMeasurement` with (K,) frame and landmark index arrays
and (K,2) uv values. A `Problem` checks that its window is finite, checks
the delta count and the measurement indices against it and sorts the
measurements by (frame, landmark) when it is built. `stacked_residual` and `assemble` then only index these
records to give each factor its inputs and make one call per factor type:
`stacked_residual` calls the residual-only functions, and `assemble` the
Jacobian calls, each of which returns the residuals with their Jacobians
from one evaluation: (n-1,9) IMU residuals with (n-1,9,18) Jacobians and
(K,2) pixel residuals with (K,2,9) Jacobians, whose columns leave out the
observing pose's velocity (`vision.POSE_ENTRIES`). A degenerate depth is
raised by the pixel factor, naming the first such measurement in sorted
order. `assemble` returns the blocks with their column indices as a
`BlockJacobian`; the dense (rows x dim) Jacobian is built only by its
`toarray()`, for finite-difference certification and tests.
`pose_boxplus` broadcasts too, so `boxplus` retracts poses 2..n in one call,
written straight into the new window's arrays.

A built `Problem` cannot change except by moving to another window:
`Problem`, `WindowState` and `PoseState` are frozen dataclasses, so no field
of a problem, its window or the window's poses can be assigned or deleted,
and its deltas, measurements, camera and world are frozen records of
read-only arrays. The window's arrays stay writeable, since only their
values change from one iterate to the next. So what assembly needs besides
the window's values is built once per problem, on first use, and kept for
it and every `with_window` copy (`Problem.shared`): the gather indices, the
factor columns and the weight diagonal, which follow from the problem's
shapes and sorted measurements (`Problem.layout`, a `FactorLayout`), and
the IMU factors' dt, g dt and g dt^2 / 2, which follow from the deltas and
gravity (`Problem.imu_terms`, an `imu.GravityTerms`). A Gauss-Newton loop
builds each once, and a problem that is never evaluated builds none.

A window may carry leading batch axes before its keyframe and landmark
axes: poses R (..., n, 3, 3), v and p (..., n, 3), landmarks (..., N, 3).
`boxplus` takes (..., dim) increments and returns the window with their
leading axes, and `stacked_residual` then gives (..., rows) residuals, so
a finite-difference check retracts and evaluates all its perturbed windows
in one call each. `Problem.with_window` gives the problem at such a window
without re-checking or re-sorting the measurements; it and the constructor
reject a window whose batch axes do not broadcast against those of the
deltas and the uv (below), naming their shapes.

A `Problem` may also carry leading batch axes on its measured values: the
deltas dR (..., n-1, 3, 3), dv and dp (..., n-1, 3), dt_total (..., n-1)
and the pixel uv (..., K, 2), one index per problem of a batch. A batch
shares one (K,) frame_index / landmark_id pattern, one camera, one world
and one photometric weight; `sim.make_problem` builds it from a batch of
flights simulated by one `sim.generate` call. `stacked_residual` and
`assemble` then evaluate the whole batch in one call per factor type:
residuals (..., rows), a `BlockJacobian` whose blocks carry the batch
axes, and one (rows,) weight diagonal shared by the batch. `solve` takes
one problem, and rejects batch axes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple, Tuple

import numpy as np

from . import inputs
from .imu import (
    GravityTerms,
    PreintegratedDelta,
    WorldParams,
    gravity_terms,
    imu_residual,
    imu_residual_jacobian,
)
from .manifold import exp_map
from .vision import POSE_ENTRIES, CameraModel, PixelMeasurement, photometric_jacobian, photometric_residual


@dataclass(frozen=True)
class PoseState:
    """Keyframe states: attitude (body to world), velocity and position in world frame.

    One keyframe has R (3,3), v and p (3,); a stack of n has R (n,3,3), v and
    p (n,3), with any leading batch axes before the keyframe axis. `len()`
    and `poses[k]` read the keyframe axis, the last before each field's
    entries: `poses[k]` picks keyframe k of every batch entry, and an index
    array or slice picks a sub-stack. Factor functions take stacks with any
    leading axes. The record is frozen: its fields cannot be assigned, but
    its arrays can be written, as `poses[k] = pose` does."""

    R: np.ndarray
    v: np.ndarray
    p: np.ndarray

    def __len__(self) -> int:
        if self.R.ndim < 3:
            raise TypeError("len() of a PoseState needs a stack of poses, R (..., n, 3, 3)")
        return self.R.shape[-3]

    def __getitem__(self, index) -> "PoseState":
        return PoseState(self.R[..., index, :, :], self.v[..., index, :], self.p[..., index, :])

    def __setitem__(self, index, value: "PoseState") -> None:
        self.R[..., index, :, :] = value.R
        self.v[..., index, :] = value.v
        self.p[..., index, :] = value.p

    def copy(self) -> "PoseState":
        return PoseState(self.R.copy(), self.v.copy(), self.p.copy())


@dataclass(frozen=True)
class WindowState:
    """n keyframe poses, stacked, plus N landmark positions; pose 1 is the fixed prior.

    Both may carry the same leading batch axes, one window per index. The
    record is frozen, like its poses: `boxplus` gives a new window."""

    poses: PoseState  # R (..., n, 3, 3), v and p (..., n, 3)
    landmarks: np.ndarray  # (..., N, 3) world positions

    def __post_init__(self):
        landmarks = np.asarray(self.landmarks, dtype=float)
        object.__setattr__(self, "landmarks", landmarks if landmarks.ndim >= 2 else landmarks.reshape(1, -1))
        if len(self.poses) < 2:
            raise ValueError("WindowState needs at least 2 poses")
        if self.landmarks.shape[-2] < 1 or self.landmarks.shape[-1] != 3:
            raise ValueError("WindowState needs at least one (3,) landmark")

    @property
    def n(self) -> int:
        return len(self.poses)

    @property
    def num_landmarks(self) -> int:
        return self.landmarks.shape[-2]

    @property
    def dim(self) -> int:
        """Length of the boxplus increment: 9 per updatable pose plus 3 per landmark."""
        return 9 * (self.n - 1) + 3 * self.num_landmarks

    def copy(self) -> "WindowState":
        return WindowState(self.poses.copy(), self.landmarks.copy())


@dataclass(frozen=True)
class Problem:
    """A window plus its measurements: the n-1 keyframe-interval deltas as one
    stacked delta and the K pixel detections as one stacked record.

    Construction rejects a window that is not finite, a delta count or
    shape, a uv shape or a measurement index that does not fit the window,
    a delta dt_total that is not finite and > 0, and batch axes of the
    window, the deltas and the uv that do not broadcast, and sorts the
    measurements by (frame, landmark). The window, deltas and uv may carry
    leading batch axes (see the module docstring); the checks read their
    last axes.

    A built problem is immutable. It is a frozen dataclass, as are its
    window and the window's poses: assigning or deleting any of their
    fields raises `dataclasses.FrozenInstanceError`, an AttributeError.
    Its deltas, measurements, camera and world are frozen records whose
    arrays it makes read-only in place: the arrays it was given, and for
    the measurements their sorted copies. So a caller's own reference to
    one cannot write into it either (the base of a view stays as it was),
    and what `shared` builds from them stays valid. `with_window` gives the
    problem at another window, and `dataclasses.replace` builds another
    problem."""

    window: WindowState
    deltas: PreintegratedDelta
    measurements: PixelMeasurement
    cam: CameraModel
    world: WorldParams
    photometric_weight: float = 1000.0
    # what `shared` built, kept by every `with_window` copy
    _shared: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inputs.real(self.photometric_weight, "photometric_weight", positive=True)
        for name in ("poses.R", "poses.v", "poses.p", "landmarks"):
            if not np.isfinite(operator.attrgetter(name)(self.window)).all():
                raise ValueError(f"window {name} must be finite")
        n, N = self.window.n, self.window.num_landmarks
        deltas = np.shape(self.deltas.dt_total)[-1:]
        if deltas != (n - 1,):
            raise ValueError(f"problem has {deltas[0] if deltas else 1} deltas, expected {n - 1}")
        dt = np.asarray(self.deltas.dt_total, dtype=float)
        bad = ~((dt > 0.0) & np.isfinite(dt))
        if bad.any():
            raise ValueError(f"deltas dt_total must be finite and > 0, got {float(dt[bad].flat[0])!r}")
        for name, last in (("dR", (n - 1, 3, 3)), ("dv", (n - 1, 3)), ("dp", (n - 1, 3))):
            shape = np.shape(getattr(self.deltas, name))
            if shape[-len(last) :] != last:
                raise ValueError(f"deltas {name} has shape {shape}, expected (..., {', '.join(map(str, last))})")
        frames, ids = self.measurements.frame_index, self.measurements.landmark_id
        uv = np.shape(self.measurements.uv)
        if uv[-2:] != (len(frames), 2):
            raise ValueError(f"measurement uv has shape {uv}, expected (..., {len(frames)}, 2)")
        outside = (frames < 1) | (frames > n) | (ids < 1) | (ids > N)
        if np.any(outside):
            first = np.flatnonzero(outside)[0]
            raise ValueError(
                f"measurement (frame {frames[first]}, landmark {ids[first]}) "
                f"out of range for n={n}, N={N}"
            )
        _batch_shape(self.window, self.deltas, self.measurements.uv)
        object.__setattr__(self, "measurements", self.measurements[np.lexsort((ids, frames))])
        for record in (self.deltas, self.measurements, self.cam, self.world):
            for value in vars(record).values():
                if isinstance(value, np.ndarray):
                    value.setflags(write=False)
        object.__setattr__(self, "_shared", {})

    @property
    def batch_shape(self) -> tuple:
        """The problem's leading batch axes: those of its window, deltas and
        uv, broadcast together; () for one problem."""
        return _batch_shape(self.window, self.deltas, self.measurements.uv)

    def with_window(self, window: WindowState) -> "Problem":
        """This problem at another window of the same n and N, which may carry
        leading batch axes that broadcast against the deltas' and the uv's.
        The measurements were checked and sorted when the problem was built,
        so they are shared, not checked again."""
        if (window.n, window.num_landmarks) != (self.window.n, self.window.num_landmarks):
            raise ValueError(
                f"window has n={window.n}, N={window.num_landmarks}; "
                f"problem has n={self.window.n}, N={self.window.num_landmarks}"
            )
        _batch_shape(window, self.deltas, self.measurements.uv)
        problem = object.__new__(Problem)  # a shallow copy, without copy.copy's protocol lookups
        problem.__dict__.update(self.__dict__)
        problem._move(window)
        return problem

    def _move(self, window: WindowState) -> None:
        """Put this problem at window, unchecked: `with_window` moves its new
        copy here, and `solve` its working copy to each iterate."""
        object.__setattr__(self, "window", window)

    def shared(self, build: Callable[["Problem"], object]):
        """build(self), run on this problem's first call with that `build` and
        then kept for it and every `with_window` copy of it. Only for what
        follows from the problem's data and the window's shapes, not the
        window's values."""
        if build not in self._shared:
            self._shared[build] = build(self)
        return self._shared[build]

    @property
    def layout(self) -> "FactorLayout":
        """The problem's `FactorLayout`, built on first use (see `shared`)."""
        return self.shared(factor_layout)

    @property
    def imu_terms(self) -> GravityTerms:
        """The deltas' `imu.gravity_terms` under the world's gravity,
        read-only, built on first use (see `shared`)."""
        return self.shared(_imu_terms)


def _batch_shape(window: WindowState, deltas: PreintegratedDelta, uv) -> tuple:
    """The batch axes of a problem with this window, deltas and uv, or
    ValueError naming their shapes when they do not broadcast."""
    # views of each array's batch axes and at most one keyframe, landmark, delta or detection:
    # broadcasting them is cheaper than np.broadcast_shapes, which makes an array per shape
    leads = (
        window.poses.R[..., :1, 0, 0],
        window.landmarks[..., :1, 0],
        np.asarray(deltas.dt_total)[..., :1],
        uv[..., :1, 0],
    )
    try:
        return np.broadcast(*leads).shape[:-1]
    except ValueError:
        raise ValueError(
            "window batch axes {} (poses) and {} (landmarks) do not broadcast against "
            "the deltas' {} and the uv's {}".format(*(lead.shape[:-1] for lead in leads))
        ) from None


def _imu_terms(problem: Problem) -> GravityTerms:
    terms = gravity_terms(problem.deltas, problem.world)
    for array in terms:
        array.flags.writeable = False
    return terms


def pose_boxplus(pose: PoseState, delta: np.ndarray, out: PoseState | None = None) -> PoseState:
    """Retract (..., 9) increments [dR, dv, dp] onto poses with matching
    leading axes. The position increment is expressed in the body frame of
    the pre-update attitude. Given `out`, a `PoseState` of the broadcast
    shape, the poses are written into its arrays."""
    delta = np.asarray(delta, dtype=float)
    R, v, p = (None, None, None) if out is None else (out.R, out.v, out.p)  # None: numpy allocates
    return PoseState(
        R=np.matmul(pose.R, exp_map(delta[..., 0:3]), out=R),
        v=np.add(pose.v, delta[..., 3:6], out=v),
        p=np.add(pose.p, (pose.R @ delta[..., 6:9, None])[..., 0], out=p),
    )


def boxplus(window: WindowState, delta: np.ndarray) -> WindowState:
    """Retract (..., dim) increments onto the window, giving a window with
    their leading axes (one per increment). Pose 1 is copied unchanged."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape[-1:] != (window.dim,):
        raise ValueError(f"boxplus: increment shape {delta.shape} has the wrong length, want {window.dim}")
    n, lead = window.n, delta.shape[:-1]
    R, v, p = window.poses.R, window.poses.v, window.poses.p
    # np.broadcast_shapes costs microseconds, and a window without batch axes takes the increments'
    batch = np.broadcast_shapes(v.shape[:-2], lead) if v.ndim > 2 else lead
    poses = PoseState(np.empty(batch + (n, 3, 3)), np.empty(batch + (n, 3)), np.empty(batch + (n, 3)))
    poses.R[..., 0, :, :], poses.v[..., 0, :], poses.p[..., 0, :] = R[..., 0, :, :], v[..., 0, :], p[..., 0, :]
    pose_boxplus(
        PoseState(R[..., 1:, :, :], v[..., 1:, :], p[..., 1:, :]),
        delta[..., : 9 * (n - 1)].reshape(lead + (n - 1, 9)),
        out=PoseState(poses.R[..., 1:, :, :], poses.v[..., 1:, :], poses.p[..., 1:, :]),
    )
    landmarks = window.landmarks + delta[..., 9 * (n - 1) :].reshape(lead + (-1, 3))
    return WindowState(poses, landmarks)


def _span(starts: np.ndarray, width: int) -> np.ndarray:
    """(len(starts), width) indices start, start + 1, ..., start + width - 1."""
    return starts[:, None] + np.arange(width)


class FactorLayout(NamedTuple):
    """What assembling a problem needs besides the window's values. Every
    array is read-only, since each assembly of the problem returns the same
    ones."""

    keyframe_index: np.ndarray  # (K,) the 0-based observing keyframe of each measurement
    landmark_index: np.ndarray  # (K,) the 0-based observed landmark of each measurement
    columns: Tuple[np.ndarray, np.ndarray]  # IMU (n-1, 18) and pixel (K, 9), see `BlockJacobian`
    weights: np.ndarray  # (rows,) the weight diagonal


def factor_layout(problem: Problem) -> FactorLayout:
    """The layout of a problem's factors; `Problem.layout` keeps it."""
    n, meas = problem.window.n, problem.measurements
    keyframes, landmarks = meas.frame_index - 1, meas.landmark_id - 1
    # IMU factor k joins poses k+1 and k+2: 18 adjacent columns from 9k; pixel
    # factor m joins its observing pose and its landmark
    imu_cols = _span(9 * np.arange(n - 1), 18)
    pixel_cols = np.concatenate([9 * keyframes[:, None] + POSE_ENTRIES, _span(9 * n + 3 * landmarks, 3)], axis=1)
    weights = np.concatenate([np.ones(9 * (n - 1)), np.full(2 * len(meas), float(problem.photometric_weight))])
    layout = FactorLayout(keyframes, landmarks, (imu_cols, pixel_cols), weights)
    for array in (keyframes, landmarks, imu_cols, pixel_cols, weights):
        array.flags.writeable = False
    return layout


class _FactorInputs(NamedTuple):
    """Every factor's inputs, stacked along a leading axis per factor type."""

    deltas: PreintegratedDelta  # n-1 deltas
    imu_terms: GravityTerms  # the deltas' `Problem.imu_terms`
    pose_i: PoseState  # poses 1..n-1
    pose_j: PoseState  # poses 2..n
    meas: PixelMeasurement  # K measurements sorted by (frame, landmark)
    seen_from: PoseState  # the observing pose of each measurement
    landmarks: np.ndarray  # (K, 3) the observed landmark of each measurement


def _gather(problem: Problem) -> _FactorInputs:
    """Index the inputs of every factor out of the problem's stacked records,
    keeping the window's leading batch axes."""
    R, v, p = problem.window.poses.R, problem.window.poses.v, problem.window.poses.p
    layout = problem.layout
    keyframes = layout.keyframe_index
    return _FactorInputs(
        deltas=problem.deltas,
        imu_terms=problem.imu_terms,
        pose_i=PoseState(R[..., :-1, :, :], v[..., :-1, :], p[..., :-1, :]),
        pose_j=PoseState(R[..., 1:, :, :], v[..., 1:, :], p[..., 1:, :]),
        meas=problem.measurements,
        seen_from=PoseState(R.take(keyframes, axis=-3), v.take(keyframes, axis=-2), p.take(keyframes, axis=-2)),
        landmarks=problem.window.landmarks.take(layout.landmark_index, axis=-2),
    )


def stacked_residual(problem: Problem) -> np.ndarray:
    """Residual vector only (no Jacobian); used by finite-difference checks.

    A problem with leading batch axes gives (..., rows) residuals."""
    f = _gather(problem)
    imu = imu_residual(f.deltas, f.pose_i, f.pose_j, problem.world, f.imu_terms)
    pixel = photometric_residual(problem.cam, f.seen_from, f.landmarks, f.meas)
    lead = imu.shape[:-2]
    return np.concatenate([imu.reshape(lead + (-1,)), pixel.reshape(lead + (-1,))], axis=-1)


@dataclass(frozen=True)
class BlockJacobian:
    """The stacked Jacobian held as its factor blocks.

    `factors` holds one (blocks, cols) pair per factor type in row order:
    the (n-1, 9, 18) IMU blocks, then the (K, 2, 9) pixel blocks. Each
    factor's rows follow the previous factor's; cols (K, width) gives the
    column of every block column in a space of 9n + 3N columns that puts the
    prior pose first (pose k at 9(k-1), landmark i at 9n + 3(i-1)), so the
    first PRIOR columns are dropped from the dense (rows, dim) matrix. A
    pixel block has no velocity columns, so its rows of the dense matrix are
    zero there.

    The blocks of a batched problem carry its leading axes, (..., n-1, 9, 18)
    and (..., K, 2, 9), and share one cols pattern. `shape` is the dense
    shape, (..., rows, dim), and `size` and `nbytes` count the whole batch.
    """

    factors: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    shape: Tuple[int, int]

    PRIOR: ClassVar[int] = 9

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return sum(blocks.nbytes for blocks, _ in self.factors)

    def toarray(self) -> np.ndarray:
        """The dense (..., rows, dim) Jacobian in boxplus column order."""
        *batch, rows, dim = self.shape
        dense = np.zeros((*batch, rows, self.PRIOR + dim))
        start = 0
        for blocks, cols in self.factors:
            count, height, _ = blocks.shape[-3:]
            block_rows = np.arange(start, start + count * height).reshape(count, height)
            dense[..., block_rows[:, :, None], cols[:, None, :]] = blocks
            start += count * height
        return dense[..., self.PRIOR :]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.toarray(), dtype=dtype)


def assemble(problem: Problem):
    """Stacked residual, block Jacobian (see `BlockJacobian`) and weight diagonal.

    A problem with leading batch axes gives (..., rows) residuals and blocks
    with those axes; the (rows,) weights are shared by the batch. The
    weights and the column indices are the problem's `layout`, read-only."""
    f = _gather(problem)
    imu_r, imu_J = imu_residual_jacobian(f.deltas, f.pose_i, f.pose_j, problem.world, f.imu_terms)
    pixel_r, pixel_J = photometric_jacobian(problem.cam, f.seen_from, f.landmarks, f.meas)
    lead = imu_r.shape[:-2]
    residual = np.concatenate([imu_r.reshape(lead + (-1,)), pixel_r.reshape(lead + (-1,))], axis=-1)
    layout = problem.layout
    factors = tuple(zip((imu_J, pixel_J), layout.columns))
    return residual, BlockJacobian(factors, residual.shape + (problem.window.dim,)), layout.weights


def altitude_constraint(problem: Problem):
    """The landmark altitudes as fixed increment entries.

    Returns (fixed, c): fixed[i] = 9(n-1) + 3i + 2 indexes landmark i's z
    increment, c_i is its current altitude, so a step with delta[fixed] = -c
    lands every landmark on z = 0. A batched problem gives c (..., N).
    `fixed` follows from the window's shape, so it is built once per problem
    (see `Problem.shared`) and is read-only.
    """
    return problem.shared(_altitude_entries), problem.window.landmarks[..., 2].copy()


def _altitude_entries(problem: Problem) -> np.ndarray:
    window = problem.window
    fixed = 9 * (window.n - 1) + 3 * np.arange(window.num_landmarks) + 2
    fixed.flags.writeable = False
    return fixed


def min_landmarks(n: int) -> int:
    """Smallest landmark count N with N (2n - 3) > 9.

    This is the paper's row count, which treats all n keyframes as unknowns,
    the prior included: 9(n-1) + 2nN rows against 9n + 3N columns, with
    strictly more rows than columns. `assemble` gives pose 1 no columns (see
    the module docstring), so its system has N (2n - 3) more rows than
    columns whatever N is; at n = 6, N = 1 that surplus is exactly the
    prior's 9 degrees of freedom and the paper's count is square."""
    if 2 * n - 3 <= 0:
        raise ValueError(f"window length {n} is too short (need 2n - 3 > 0)")
    return 9 // (2 * n - 3) + 1
