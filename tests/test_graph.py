import numpy as np
import pytest

from padvio.checks import central_difference
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
)
from padvio.vision import (
    DegenerateDepthError,
    PixelMeasurement,
    photometric_jacobian,
    photometric_residual,
)


def _window(n=2, N=1):
    poses = [PoseState(np.eye(3), np.zeros(3), np.zeros(3)) for _ in range(n)]
    landmarks = np.column_stack([np.arange(N, dtype=float), np.zeros(N), np.ones(N)])
    return WindowState(poses, landmarks)


def _reference_problem(seed=0, n=7, N=3, imu_var=1e-4, pixel_var=1e-5):
    spec = TrajectorySpec(
        duration=0.4 * (n - 1),
        angular_profile=Profile("constant", {"value": [0.05, -0.04, 0.12]}),
        accel_profile=Profile("constant", {"value": [0.25, 0.15, -9.51]}),
    )
    landmarks = np.column_stack(
        [np.linspace(-0.5, 0.5, N), np.linspace(0.3, -0.3, N) ** 2, np.zeros(N)]
    )
    dataset = generate(
        spec, landmarks, CameraModel(1.0), WorldParams(), NoiseSpec(imu_var, pixel_var, seed)
    )
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
    window.poses[1] = PoseState(R, np.zeros(3), np.zeros(3))
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
        WindowState([PoseState(np.eye(3), np.zeros(3), np.zeros(3))], np.zeros((1, 3)))


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
    poses = [PoseState(np.eye(3), np.zeros(3), np.zeros(3)) for _ in range(2)]
    window = WindowState(poses, np.array([[0.0, 0.0, 1.0]]))
    problem = Problem(
        window=window,
        deltas=[PreintegratedDelta(dt_total=1.0)],
        measurements=[PixelMeasurement(1, 1, np.array([-1.0, 0.0]))],
        cam=CameraModel(1.0),
        world=WorldParams(np.zeros(3)),
    )
    assert _cost(problem) == 1000.0


def test_residual_ordering_sorts_measurements():
    poses = [PoseState(np.eye(3), np.zeros(3), np.zeros(3)) for _ in range(2)]
    window = WindowState(poses, np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 1.0]]))
    kwargs = dict(
        window=window,
        deltas=[PreintegratedDelta(dt_total=1.0)],
        cam=CameraModel(1.0),
        world=WorldParams(np.zeros(3)),
    )
    meas = [
        PixelMeasurement(2, 2, np.array([9.0, 9.0])),
        PixelMeasurement(1, 2, np.array([7.0, 7.0])),
        PixelMeasurement(1, 1, np.array([5.0, 5.0])),
    ]
    shuffled = Problem(measurements=meas, **kwargs)
    sorted_problem = Problem(measurements=sorted(meas, key=lambda m: (m.frame_index, m.landmark_id)), **kwargs)
    np.testing.assert_array_equal(stacked_residual(shuffled), stacked_residual(sorted_problem))


def test_assemble_rejects_bad_measurement_indices():
    _, problem = _reference_problem(n=2, N=1)
    problem.measurements.append(PixelMeasurement(5, 1, np.zeros(2)))
    with pytest.raises(ValueError, match="out of range"):
        assemble(problem)


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
    from dataclasses import replace

    _, problem = _reference_problem(seed=n * 10 + N, n=n, N=N)

    def residual_at(d):
        return stacked_residual(replace(problem, window=boxplus(problem.window, d)))

    numeric = central_difference(residual_at, problem.window.dim)
    analytic = assemble(problem)[1]
    err = np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max())
    assert err < 1e-5


def test_altitude_constraint_row_pattern():
    window = _window(2, 1)
    problem = Problem(window, [PreintegratedDelta(dt_total=1.0)], [], CameraModel(1.0), WorldParams())
    fixed, c = altitude_constraint(problem)
    np.testing.assert_array_equal(fixed, [11])  # z entry of the only landmark: 9(n-1) + 2
    np.testing.assert_array_equal(c, [1.0])  # window landmark sits at z = 1


def test_altitude_constraint_zero_for_grounded_landmarks():
    window = _window(3, 2)
    window.landmarks[:, 2] = 0.0
    problem = Problem(window, [PreintegratedDelta(dt_total=1.0)] * 2, [], CameraModel(1.0), WorldParams())
    _, c = altitude_constraint(problem)
    np.testing.assert_array_equal(c, np.zeros(2))


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
    for k, delta in enumerate(problem.deltas):
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
        if m.frame_index >= 2:
            col = 9 * (m.frame_index - 2)
            jacobian[row : row + 2, col : col + 9] = J[:, 0:9]
        col_l = base + 3 * (m.landmark_id - 1)
        jacobian[row : row + 2, col_l : col_l + 3] = J[:, 9:12]
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
    from dataclasses import replace

    rng = np.random.default_rng(5)
    if name == "n7_N3":
        _, problem = _reference_problem(seed=3, n=7, N=3)
    elif name == "n60_N10":
        problem = _level_circle_problem(60, 10, seed=1)
    else:  # shuffled, with detections dropped and frame-1 rows kept
        _, problem = _reference_problem(seed=4, n=5, N=3)
        kept = [m for i, m in enumerate(problem.measurements) if i % 4 != 1]
        assert any(m.frame_index == 1 for m in kept)
        order = rng.permutation(len(kept))
        problem = replace(problem, measurements=[kept[i] for i in order])
    # evaluate away from the truth so every block is generic
    offset = rng.normal(0.0, 0.02, problem.window.dim)
    return replace(problem, window=boxplus(problem.window, offset))


@pytest.mark.parametrize("case", ["n7_N3", "n60_N10", "shuffled_dropped"])
def test_batched_assembly_matches_per_factor_oracle(case):
    problem = _oracle_case(case)
    r, J, w = assemble(problem)
    J = J.toarray()
    r_ref, J_ref, w_ref = _assemble_per_factor(problem)
    assert J.shape == J_ref.shape
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
    poses = [
        PoseState(np.eye(3), np.zeros(3), np.zeros(3)),
        PoseState(np.eye(3), np.zeros(3), np.array([0.0, 0.0, 1.0])),
    ]
    window = WindowState(poses, np.array([[0.0, 0.0, 2.0], [0.5, 0.0, 1.0], [0.0, 0.5, 1.0]]))
    pairs = [(2, 3), (1, 1), (2, 1), (1, 3), (2, 2), (1, 2)]
    problem = Problem(
        window=window,
        deltas=[PreintegratedDelta(dt_total=1.0)],
        measurements=[PixelMeasurement(f, l, np.zeros(2)) for f, l in pairs],
        cam=CameraModel(1.0),
        world=WorldParams(np.zeros(3)),
    )
    for evaluate in (assemble, stacked_residual):
        with pytest.raises(DegenerateDepthError) as info:
            evaluate(problem)
        assert (info.value.frame_index, info.value.landmark_id) == (2, 2)
        assert info.value.depth == 0.0
