import operator
import re
from dataclasses import replace

import numpy as np
import pytest

from padvio import graph
from padvio.checks import central_difference
from padvio.cli import ExperimentConfig, dataset_from_config
from padvio.graph import (
    PoseState,
    Problem,
    WindowState,
    altitude_constraint,
    assemble,
    boxplus,
    min_landmarks,
    stacked_residual,
)
from padvio.imu import PreintegratedDelta, WorldParams, imu_residual, imu_residual_jacobian
from padvio.manifold import exp_map
from padvio.sim import (
    CameraModel,
    NoiseSpec,
    Profile,
    TrajectorySpec,
    generate,
    make_problem,
    perturb_initialization,
)
from padvio.vision import (
    DegenerateDepthError,
    PixelMeasurement,
    photometric_jacobian,
    photometric_residual,
)


def _poses(n, p=None):
    """n keyframes at attitude I and at rest, at positions p (n, 3) or the origin."""
    p = np.zeros((n, 3)) if p is None else np.array(p, dtype=float)
    return PoseState(np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 3)), p)


def _deltas(count):
    """count deltas of 1 s with no motion."""
    return PreintegratedDelta(
        np.tile(np.eye(3), (count, 1, 1)), np.zeros((count, 3)), np.zeros((count, 3)), np.ones(count)
    )


def _measurements(pairs, uv=None):
    """Detections of the (frame, landmark) pairs at uv (K, 2), or at pixel 0."""
    frames, ids = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    uv = np.zeros((len(frames), 2)) if uv is None else np.array(uv, dtype=float)
    return PixelMeasurement(frames, ids, uv)


def _window(n=2, N=1):
    landmarks = np.column_stack([np.arange(N, dtype=float), np.zeros(N), np.ones(N)])
    return WindowState(_poses(n), landmarks)


def _reference_flight(seed=0, n=7, N=3, imu_var=1e-4, pixel_var=1e-5):
    """The spec, landmarks and noise spec of a reference-like flight."""
    spec = TrajectorySpec(
        duration=0.4 * (n - 1),
        angular_profile=Profile("constant", {"value": [0.05, -0.04, 0.12]}),
        accel_profile=Profile("constant", {"value": [0.25, 0.15, -9.51]}),
    )
    landmarks = np.column_stack(
        [np.linspace(-0.5, 0.5, N), np.linspace(0.3, -0.3, N) ** 2, np.zeros(N)]
    )
    return spec, landmarks, NoiseSpec(imu_var, pixel_var, seed)


def _simulate(spec, landmarks, noise):
    """The flight, or batch of flights, simulated with the reference camera and world."""
    return generate(spec, landmarks, CameraModel(1.0), WorldParams(), noise)


def _reference_batch(seeds, **fields):
    """One batched dataset of the reference-like flights with the given noise seeds."""
    return _simulate(*zip(*(_reference_flight(seed, **fields) for seed in seeds)))


def _reference_problem(seed=0, **fields):
    dataset = _simulate(*_reference_flight(seed, **fields))
    return dataset, make_problem(dataset, dataset.ground_truth.copy())


def test_boxplus_zero_delta_is_identity():
    window = _window(3, 2)
    out = boxplus(window, np.zeros(window.dim))
    for a, b in zip(out.poses, window.poses):
        np.testing.assert_array_equal(a.R, b.R)
        np.testing.assert_array_equal(a.v, b.v)
        np.testing.assert_array_equal(a.p, b.p)
    np.testing.assert_array_equal(out.landmarks, window.landmarks)


def test_boxplus_position_increment_identity_attitude():
    window = _window(2, 1)
    delta = np.zeros(window.dim)
    delta[6:9] = [1.0, 0.0, 0.0]
    out = boxplus(window, delta)
    np.testing.assert_array_equal(out.poses[1].p, [1.0, 0.0, 0.0])


def test_boxplus_position_increment_rotated_attitude():
    window = _window(2, 1)
    R = exp_map([0.0, 0.0, np.pi / 2.0])
    window.poses.R[1] = R
    delta = np.zeros(window.dim)
    delta[6:9] = [1.0, 0.0, 0.0]
    out = boxplus(window, delta)
    np.testing.assert_allclose(out.poses[1].p, R @ [1.0, 0.0, 0.0], atol=1e-15)


def test_boxplus_never_touches_prior_pose():
    window = _window(3, 1)
    delta = np.ones(window.dim)
    out = boxplus(window, delta)
    np.testing.assert_array_equal(out.poses[0].R, window.poses[0].R)
    np.testing.assert_array_equal(out.poses[0].p, window.poses[0].p)


def test_boxplus_landmark_update_is_additive():
    window = _window(2, 2)
    delta = np.zeros(window.dim)
    delta[9:] = [1.0, 2.0, 3.0, -1.0, 0.0, 0.5]
    out = boxplus(window, delta)
    np.testing.assert_array_equal(out.landmarks, window.landmarks + delta[9:].reshape(2, 3))


def test_boxplus_rejects_wrong_length():
    window = _window(2, 1)
    with pytest.raises(ValueError, match="length"):
        boxplus(window, np.zeros(window.dim + 1))


def test_boxplus_injective_for_small_increments():
    rng = np.random.default_rng(7)
    window = _window(3, 2)
    for _ in range(20):
        d1 = rng.uniform(-0.05, 0.05, window.dim)
        d2 = rng.uniform(-0.05, 0.05, window.dim)
        a, b = boxplus(window, d1), boxplus(window, d2)
        same = all(
            np.array_equal(pa.R, pb.R) and np.array_equal(pa.v, pb.v) and np.array_equal(pa.p, pb.p)
            for pa, pb in zip(a.poses, b.poses)
        ) and np.array_equal(a.landmarks, b.landmarks)
        assert same == np.array_equal(d1, d2)


def test_window_rejects_too_few_poses():
    with pytest.raises(ValueError, match="poses"):
        WindowState(_poses(1), np.zeros((1, 3)))


def test_assemble_row_and_column_counts():
    dataset, problem = _reference_problem(n=7, N=3)
    assert len(problem.measurements) == 21  # every landmark visible in every frame
    residual, jacobian, weights = assemble(problem)
    assert residual.shape == (96,)  # 6*9 IMU rows + 7*3*2 photometric rows
    assert jacobian.shape == (96, 63)  # 6*9 pose columns + 3*3 landmark columns
    assert weights.shape == (96,)


def _cost(problem):
    r, _, w = assemble(problem)
    return float(r @ (w * r))


def test_weights_diagonal_values():
    _, problem = _reference_problem(n=7, N=3)
    _, _, w = assemble(problem)
    np.testing.assert_array_equal(w[:54], np.ones(54))
    np.testing.assert_array_equal(w[54:], np.full(42, 1000.0))


def test_residual_small_at_noise_free_truth():
    _, problem = _reference_problem(imu_var=0.0, pixel_var=0.0)
    assert np.linalg.norm(stacked_residual(problem)) < 1e-9


def test_cost_zero_residual():
    _, problem = _reference_problem(imu_var=0.0, pixel_var=0.0)
    assert _cost(problem) < 1e-20


def test_cost_single_photometric_residual():
    # imu residual exactly zero; one pixel residual of (1, 0) weighted by 1000
    window = WindowState(_poses(2), np.array([[0.0, 0.0, 1.0]]))
    problem = Problem(
        window=window,
        deltas=_deltas(1),
        measurements=_measurements([(1, 1)], [[-1.0, 0.0]]),
        cam=CameraModel(1.0),
        world=WorldParams(np.zeros(3)),
    )
    assert _cost(problem) == 1000.0


def test_residual_ordering_sorts_measurements():
    window = WindowState(_poses(2), np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 1.0]]))
    kwargs = dict(
        window=window,
        deltas=_deltas(1),
        cam=CameraModel(1.0),
        world=WorldParams(np.zeros(3)),
    )
    meas = _measurements([(2, 2), (1, 2), (1, 1)], [[9.0, 9.0], [7.0, 7.0], [5.0, 5.0]])
    shuffled = Problem(measurements=meas, **kwargs)
    np.testing.assert_array_equal(shuffled.measurements.uv, [[5.0, 5.0], [7.0, 7.0], [9.0, 9.0]])
    sorted_problem = Problem(measurements=meas[[2, 1, 0]], **kwargs)
    np.testing.assert_array_equal(stacked_residual(shuffled), stacked_residual(sorted_problem))


def test_assemble_rejects_bad_measurement_indices():
    _, problem = _reference_problem(n=2, N=1)
    meas = problem.measurements
    with_frame_5 = PixelMeasurement(
        np.append(meas.frame_index, 5), np.append(meas.landmark_id, 1), np.vstack([meas.uv, np.zeros(2)])
    )
    with pytest.raises(ValueError, match="out of range"):
        replace(problem, measurements=with_frame_5)


@pytest.mark.parametrize("weight", [-1000.0, 0.0, np.nan, np.inf, True, "1000"])
def test_problem_rejects_bad_photometric_weight(weight):
    # -1000 used to run 50 iterations to a negative cost and a 58 m keyframe error
    dataset, _ = _reference_problem(n=2, N=1)
    with pytest.raises(ValueError, match="^photometric_weight must be finite and > 0"):
        make_problem(dataset, dataset.ground_truth.copy(), weight)


@pytest.mark.parametrize(
    "name, index, value",
    [
        ("landmarks", (0, 0), np.nan),
        ("poses.v", (2, 1), np.inf),
        ("poses.R", (1, 0, 0), np.nan),
        ("poses.p", (3, 2), -np.inf),
    ],
)
def test_problem_rejects_non_finite_window(name, index, value):
    # a cold start with one NaN landmark coordinate used to run 50 iterations to a NaN cost
    dataset, _ = _reference_problem()
    window = perturb_initialization(dataset, "cold")
    operator.attrgetter(name)(window)[index] = value
    with pytest.raises(ValueError, match=f"^window {re.escape(name)} must be finite"):
        make_problem(dataset, window)


def test_problem_rejects_wrong_delta_count():
    with pytest.raises(ValueError, match="problem has 5 deltas, expected 6"):
        Problem(_window(7, 1), _deltas(5), _measurements([]), CameraModel(1.0), WorldParams())


@pytest.mark.parametrize("name, value", [("dR", np.eye(3)), ("dv", np.zeros(3)), ("dp", np.zeros((4, 3)))])
def test_problem_rejects_delta_fields_of_another_count(name, value):
    # a dR of 1 delta for a 7-keyframe window used to pass, then fail to broadcast at the first residual
    deltas = replace(_deltas(6), **{name: value})
    tail = "3, 3" if name == "dR" else "3"
    with pytest.raises(ValueError, match=re.escape(f"deltas {name} has shape {value.shape}, expected (..., 6, {tail})")):
        Problem(_window(7, 1), deltas, _measurements([]), CameraModel(1.0), WorldParams())


@pytest.mark.parametrize("value", [0.0, np.nan])
def test_problem_rejects_a_delta_time_that_is_not_positive(value):
    # a zero or NaN dt_total used to build, and then fail the first iteration
    # as if the iterate were at fault
    deltas = _deltas(6)
    deltas.dt_total[3] = value
    with pytest.raises(ValueError, match=re.escape(f"deltas dt_total must be finite and > 0, got {value!r}")):
        Problem(_window(7, 1), deltas, _measurements([]), CameraModel(1.0), WorldParams())


def test_problem_rejects_uv_that_does_not_fit_the_detections():
    meas = PixelMeasurement(np.array([1, 2]), np.array([1, 1]), np.zeros((3, 2)))
    with pytest.raises(ValueError, match=re.escape("measurement uv has shape (3, 2), expected (..., 2, 2)")):
        Problem(_window(2, 1), _deltas(1), meas, CameraModel(1.0), WorldParams())


def _hovering_flight(n=3, N=2, imu_dt=0.02, camera_dt=0.4, p=(0.0, 0.0, -4.0), v=(0.0, 0.0, 0.0)):
    """The inputs of a flight of n keyframes at rest apart from its initial
    velocity v, over N markers, starting at position p."""
    spec = TrajectorySpec(
        duration=camera_dt * (n - 1),
        imu_dt=imu_dt,
        camera_dt=camera_dt,
        initial_pose=PoseState(np.eye(3), np.array(v), np.array(p)),
        accel_profile=Profile("constant", {"value": [0.0, 0.0, -9.81]}),
    )
    landmarks = np.column_stack([np.linspace(-0.5, 0.5, N), np.zeros(N), np.zeros(N)])
    return spec, landmarks, NoiseSpec(0.0, 0.0, 0)


@pytest.mark.parametrize(
    "other, name",
    [
        (_hovering_flight(n=4), "n"),
        (_hovering_flight(N=3), "N"),
        # below the ground, so every marker is behind the camera
        (_hovering_flight(p=(0.0, 0.0, 1.0)), "measurement pattern"),
        # falls through the ground between keyframes 2 and 3
        (_hovering_flight(p=(0.0, 0.0, -0.5), v=(0.0, 0.0, 1.0)), "measurement pattern"),
        (_hovering_flight(n=2), "n"),
        (_hovering_flight(N=1), "N"),
        # same n and camera_dt, twice the IMU samples per keyframe interval
        (_hovering_flight(imu_dt=0.01), "IMU sample count"),
        # same n and IMU sample count, another timing
        (_hovering_flight(imu_dt=0.04, camera_dt=0.8), "timing"),
        (_hovering_flight(imu_dt=0.03, camera_dt=0.6), "timing"),
    ],
)
def test_stack_problems_rejects_problems_of_another_shape(other, name):
    # a batched problem is built from a batch of flights, so they must share its shape
    flights = [_hovering_flight(), _hovering_flight(), other]
    with pytest.raises(ValueError, match=f"^flight 2 differs from flight 0 in {name}$"):
        _simulate(*zip(*flights))


def test_stack_problems_rejects_an_empty_list():
    with pytest.raises(ValueError, match="^generate takes one or more flights, .* got 0, 0 and 0$"):
        _simulate([], [], [])


def test_stacked_problem_carries_a_batch_axis_on_every_measured_value():
    datasets = [_reference_problem(seed, n=4, N=2)[0] for seed in range(3)]
    stacked = _reference_batch(range(3), n=4, N=2)
    S = len(datasets[0].imu_samples.dt)
    assert stacked.ground_truth.poses.R.shape == (3, 4, 3, 3) and stacked.ground_truth.landmarks.shape == (3, 2, 3)
    assert stacked.imu_samples.omega.shape == stacked.imu_samples.accel.shape == (3, S, 3)
    assert stacked.imu_samples.dt.shape == (3, S)
    batch = make_problem(stacked, stacked.ground_truth)
    problems = [make_problem(dataset, dataset.ground_truth) for dataset in datasets]
    assert (batch.window.n, batch.window.num_landmarks) == (4, 2)
    assert batch.window.poses.R.shape == (3, 4, 3, 3) and batch.window.landmarks.shape == (3, 2, 3)
    assert batch.deltas.dR.shape == (3, 3, 3, 3) and batch.deltas.dt_total.shape == (3, 3)
    K = len(problems[0].measurements)
    assert len(batch.measurements) == K and batch.measurements.uv.shape == (3, K, 2)
    # detection k of every problem at once
    np.testing.assert_array_equal(batch.measurements[1].uv, [p.measurements.uv[1] for p in problems])
    residual, jacobian, weights = assemble(batch)
    rows, dim = 9 * 3 + 2 * K, batch.window.dim
    assert residual.shape == (3, rows) and jacobian.shape == (3, rows, dim) and weights.shape == (rows,)
    # size and nbytes count the whole batch, so a fill share stays <= 1
    assert jacobian.size == jacobian.toarray().size == 3 * rows * dim
    assert jacobian.nbytes == 3 * assemble(problems[0])[1].nbytes
    assert 0 < np.count_nonzero(jacobian) <= jacobian.size


def test_jacobian_sparsity_pattern():
    _, problem = _reference_problem(n=4, N=2)
    jacobian = assemble(problem)[1].toarray()
    n = problem.window.n
    # IMU factor k joins poses k and k+1 only
    for k in range(n - 1):
        rows = slice(9 * k, 9 * k + 9)
        active = np.zeros(problem.window.dim, dtype=bool)
        if k >= 1:
            active[9 * (k - 1) : 9 * k] = True
        active[9 * k : 9 * k + 9] = True
        np.testing.assert_array_equal(jacobian[rows][:, ~active], 0.0)
    # photometric rows join one pose and one landmark only
    base = 9 * (n - 1)
    ordered = sorted(problem.measurements, key=lambda m: (m.frame_index, m.landmark_id))
    for idx, m in enumerate(ordered):
        rows = slice(base + 2 * idx, base + 2 * idx + 2)
        active = np.zeros(problem.window.dim, dtype=bool)
        if m.frame_index >= 2:
            active[9 * (m.frame_index - 2) : 9 * (m.frame_index - 1)] = True
        off = 9 * (n - 1) + 3 * (m.landmark_id - 1)
        active[off : off + 3] = True
        np.testing.assert_array_equal(jacobian[rows][:, ~active], 0.0)


@pytest.mark.parametrize("n,N", [(2, 1), (3, 3), (7, 3)])
def test_stacked_jacobian_matches_finite_differences(n, N):
    _, problem = _reference_problem(seed=n * 10 + N, n=n, N=N)

    def residual_at(d):
        return stacked_residual(replace(problem, window=boxplus(problem.window, d)))

    numeric = central_difference(residual_at, problem.window.dim)
    analytic = assemble(problem)[1]
    err = np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max())
    assert err < 1e-5


def test_altitude_constraint_row_pattern():
    window = _window(2, 1)
    problem = Problem(window, _deltas(1), _measurements([]), CameraModel(1.0), WorldParams())
    fixed, c = altitude_constraint(problem)
    np.testing.assert_array_equal(fixed, [11])  # z entry of the only landmark: 9(n-1) + 2
    np.testing.assert_array_equal(c, [1.0])  # window landmark sits at z = 1


def test_altitude_constraint_zero_for_grounded_landmarks():
    window = _window(3, 2)
    window.landmarks[:, 2] = 0.0
    problem = Problem(window, _deltas(2), _measurements([]), CameraModel(1.0), WorldParams())
    _, c = altitude_constraint(problem)
    np.testing.assert_array_equal(c, np.zeros(2))


def test_altitude_constraint_reads_each_problem_of_a_batch():
    stacked = _reference_batch(range(3), n=4, N=3)
    window = stacked.ground_truth.copy()
    window.landmarks[..., 2] = 0.1 * np.arange(1.0, 4.0)[:, None] * np.arange(1.0, 4.0)
    fixed, c = altitude_constraint(make_problem(stacked, window))
    np.testing.assert_array_equal(fixed, 9 * 3 + 3 * np.arange(3) + 2)
    np.testing.assert_array_equal(c, window.landmarks[..., 2])


def test_layout_is_built_on_first_use_and_shared_by_window_copies(monkeypatch):
    calls = []

    def counting(problem):
        calls.append(problem)
        return build(problem)

    build = graph.factor_layout
    monkeypatch.setattr(graph, "factor_layout", counting)
    _, problem = _reference_problem(n=4, N=2)
    rng = np.random.default_rng(3)
    offsets = rng.normal(0.0, 0.01, (2, problem.window.dim))
    first, second = (problem.with_window(boxplus(problem.window, offset)) for offset in offsets)
    assert calls == []  # a problem that is never evaluated builds nothing
    (_, J_first, w_first), (_, J_second, w_second) = assemble(first), assemble(second)
    assert len(calls) == 1 and w_first is w_second
    for (_, cols_first), (_, cols_second) in zip(J_first.factors, J_second.factors):
        assert cols_first is cols_second and not cols_first.flags.writeable
    # a problem rebuilt with other measurements gets its own layout
    assert replace(problem, measurements=problem.measurements[1:]).layout is not problem.layout
    assert len(calls) == 2


def _default_problem():
    config = ExperimentConfig()
    dataset = dataset_from_config(config)
    return make_problem(dataset, perturb_initialization(dataset, config.init))


def _cost(problem):
    residual, _, weights = assemble(problem)
    return float(residual @ (weights * residual))


@pytest.mark.parametrize("kept", ["all 21, landmark ids reversed", "11 of 21"])
def test_problem_rejects_measurements_assigned_after_first_use(kept):
    # the layout built at the first assemble was kept: 21 detections with
    # their ids reversed gave its stale cost 1057.40 instead of 1952.49, and
    # 11 of them numpy's broadcast error, which names no cause
    problem = _default_problem()
    assemble(problem)
    meas = problem.measurements
    if kept == "11 of 21":
        other = meas[::2]
    else:
        other = PixelMeasurement(meas.frame_index, meas.landmark_id[::-1].copy(), meas.uv)
    with pytest.raises(AttributeError, match=r"^Problem\.measurements cannot be assigned after construction"):
        problem.measurements = other
    assert problem.measurements is meas
    rebuilt = replace(problem, measurements=other)
    assert rebuilt.layout is not problem.layout
    np.testing.assert_array_equal(assemble(rebuilt)[0], stacked_residual(rebuilt))
    if kept != "11 of 21":
        assert round(_cost(rebuilt), 2) == 1952.49


@pytest.mark.parametrize("name", ["deltas", "measurements", "cam", "world", "photometric_weight", "_shared"])
def test_only_the_window_is_assigned_after_construction(name):
    problem = _default_problem()
    before = _cost(problem)
    with pytest.raises(AttributeError, match=rf"^Problem\.{name} cannot be assigned"):
        setattr(problem, name, getattr(problem, name))
    # the window stays assignable: solve moves its working copy from iterate to iterate
    moved = problem.with_window(problem.window)
    moved.window = boxplus(problem.window, np.full(problem.window.dim, 1e-3))
    assert _cost(moved) != before and _cost(problem) == before
    assert replace(problem, photometric_weight=1.0).photometric_weight == 1.0


def test_min_landmarks_values():
    assert min_landmarks(2) == 10
    assert min_landmarks(7) == 1
    assert min_landmarks(4) == 2


def test_min_landmarks_matches_brute_force():
    for n in range(2, 21):
        smallest = next(N for N in range(1, 100) if N * (2 * n - 3) > 9)
        assert min_landmarks(n) == smallest


def test_min_landmarks_rejects_short_window():
    with pytest.raises(ValueError):
        min_landmarks(1)


def _assemble_per_factor(problem):
    """Reference assembly: one factor call per factor, written into the dense system."""
    window = problem.window
    n = window.n
    measurements = sorted(problem.measurements, key=lambda m: (m.frame_index, m.landmark_id))
    rows = 9 * (n - 1) + 2 * len(measurements)
    residual = np.zeros(rows)
    jacobian = np.zeros((rows, window.dim))
    deltas = problem.deltas
    for k in range(n - 1):
        delta = PreintegratedDelta(deltas.dR[k], deltas.dv[k], deltas.dp[k], deltas.dt_total[k])
        pose_i, pose_j = window.poses[k], window.poses[k + 1]
        row = 9 * k
        residual[row : row + 9] = imu_residual(delta, pose_i, pose_j, problem.world)
        _, J = imu_residual_jacobian(delta, pose_i, pose_j, problem.world)
        if k >= 1:
            jacobian[row : row + 9, 9 * (k - 1) : 9 * k] = J[:, 0:9]
        jacobian[row : row + 9, 9 * k : 9 * k + 9] = J[:, 9:18]
    base = 9 * (n - 1)
    for idx, m in enumerate(measurements):
        pose = window.poses[m.frame_index - 1]
        landmark = window.landmarks[m.landmark_id - 1]
        row = base + 2 * idx
        residual[row : row + 2] = photometric_residual(problem.cam, pose, landmark, m)
        _, J = photometric_jacobian(problem.cam, pose, landmark, m)
        # columns [dR, dp, dp_l]: the pose's velocity entries stay zero
        if m.frame_index >= 2:
            col = 9 * (m.frame_index - 2)
            jacobian[row : row + 2, col : col + 3] = J[:, 0:3]
            jacobian[row : row + 2, col + 6 : col + 9] = J[:, 3:6]
        col_l = base + 3 * (m.landmark_id - 1)
        jacobian[row : row + 2, col_l : col_l + 3] = J[:, 6:9]
    weights = np.concatenate(
        [np.ones(base), np.full(2 * len(measurements), float(problem.photometric_weight))]
    )
    return residual, jacobian, weights


def _level_circle_problem(n, N, seed):
    # a level circle 4 m above a ring of N markers: stays above the pad for any n
    spec = TrajectorySpec(
        duration=0.4 * (n - 1),
        initial_pose=PoseState(np.eye(3), np.array([0.0, -0.025, 0.0]), np.array([0.0, 0.0, -4.0])),
        angular_profile=Profile("constant", {"value": [0.0, 0.0, 0.05]}),
        accel_profile=Profile("constant", {"value": [0.00125, 0.0, -9.81]}),
    )
    angles = 2.0 * np.pi * np.arange(N) / N
    landmarks = np.column_stack([0.5 + 1.2 * np.cos(angles), 1.2 * np.sin(angles), np.zeros(N)])
    dataset = generate(spec, landmarks, CameraModel(1.0), WorldParams(), NoiseSpec(1e-4, 1e-5, seed))
    return make_problem(dataset, dataset.ground_truth.copy())


def _oracle_case(name):
    rng = np.random.default_rng(5)
    if name == "n7_N3":
        _, problem = _reference_problem(seed=3, n=7, N=3)
    elif name == "n60_N10":
        problem = _level_circle_problem(60, 10, seed=1)
    else:  # shuffled, with detections dropped and frame-1 rows kept
        _, problem = _reference_problem(seed=4, n=5, N=3)
        meas = problem.measurements
        kept = meas[np.arange(len(meas)) % 4 != 1]
        assert np.any(kept.frame_index == 1)
        problem = replace(problem, measurements=kept[rng.permutation(len(kept))])
    # evaluate away from the truth so every block is generic
    offset = rng.normal(0.0, 0.02, problem.window.dim)
    return replace(problem, window=boxplus(problem.window, offset))


@pytest.mark.parametrize("case", ["n7_N3", "n60_N10", "shuffled_dropped"])
def test_batched_assembly_matches_per_factor_oracle(case):
    problem = _oracle_case(case)
    r, J, w = assemble(problem)
    n, K = problem.window.n, len(problem.measurements)
    (imu_blocks, _), (pixel_blocks, _) = J.factors
    assert imu_blocks.shape == (n - 1, 9, 18) and pixel_blocks.shape == (K, 2, 9)
    J = J.toarray()
    r_ref, J_ref, w_ref = _assemble_per_factor(problem)
    assert J.shape == J_ref.shape
    velocity = (9 * np.arange(n - 1)[:, None] + np.arange(3, 6)).ravel()
    np.testing.assert_array_equal(J[9 * (n - 1) :, velocity], 0.0)
    assert np.abs(r - r_ref).max() <= 1e-12 * max(1.0, np.abs(r_ref).max())
    assert np.abs(J - J_ref).max() <= 1e-12 * max(1.0, np.abs(J_ref).max())
    np.testing.assert_array_equal(J != 0.0, J_ref != 0.0)
    np.testing.assert_array_equal(w, w_ref)
    stacked = stacked_residual(problem)
    assert np.abs(stacked - r_ref).max() <= 1e-12 * max(1.0, np.abs(r_ref).max())
    # the cost cannot depend on which path computed the residual
    np.testing.assert_array_equal(r, stacked)


def test_degenerate_depth_names_first_bad_measurement_in_sorted_order():
    # pose 2 sits on the plane z = 1 of landmarks 2 and 3, so both project at depth 0 from it
    poses = _poses(2, [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    window = WindowState(poses, np.array([[0.0, 0.0, 2.0], [0.5, 0.0, 1.0], [0.0, 0.5, 1.0]]))
    pairs = [(2, 3), (1, 1), (2, 1), (1, 3), (2, 2), (1, 2)]
    problem = Problem(
        window=window,
        deltas=_deltas(1),
        measurements=_measurements(pairs),
        cam=CameraModel(1.0),
        world=WorldParams(np.zeros(3)),
    )
    for evaluate in (assemble, stacked_residual):
        with pytest.raises(DegenerateDepthError) as info:
            evaluate(problem)
        assert (info.value.frame_index, info.value.landmark_id) == (2, 2)
        assert info.value.depth == 0.0
