import dataclasses
import logging
from pathlib import Path

import numpy as np
import pytest

from padvio import checks, cli, sim
from padvio.graph import PoseState
from padvio.imu import ImuSample, WorldParams, preintegrate
from padvio.manifold import exp_map
from padvio.sim import (
    CameraModel,
    NoiseSpec,
    Profile,
    TrajectorySpec,
    evaluate_profile,
    generate,
    make_problem,
    perturb_initialization,
    steps_per_frame,
    triangle_landmarks,
)
from padvio.vision import DEPTH_EPSILON, landmark_in_body, project

DATA = Path(__file__).parent / "data"
PAD = triangle_landmarks(1.0)
CAM = CameraModel(1.0)


def _reference_spec(n=7):
    return TrajectorySpec(
        duration=0.4 * (n - 1),
        angular_profile=Profile("constant", {"value": [0.05, -0.04, 0.12]}),
        accel_profile=Profile("constant", {"value": [0.25, 0.15, -9.51]}),
    )


def test_profile_constant_and_sinusoid():
    np.testing.assert_array_equal(
        evaluate_profile(Profile("constant", {"value": [1, 2, 3]}), 7.0), [1.0, 2.0, 3.0]
    )
    p = Profile("sinusoid", {"base": 1.0, "amplitude": 2.0, "frequency": 0.25})
    np.testing.assert_allclose(evaluate_profile(p, 1.0), np.full(3, 3.0), atol=1e-12)
    with pytest.raises(ValueError, match="unknown profile"):
        evaluate_profile(Profile("spline"), 0.0)


@pytest.mark.parametrize(
    "profile, misspelled",
    [
        (Profile("constant", {"valeu": [0.25, 0.15, -9.51]}), "valeu"),
        (Profile("sinusoid", {"base": 1.0, "amplitdue": 2.0, "frequency": 0.25}), "amplitdue"),
        (Profile("constant", {"value": [0.0, 0.0, -9.81], "phase": 1.0}), "phase"),
    ],
)
def test_profile_rejects_unknown_parameter(profile, misspelled):
    # an unread parameter used to leave its value at the default zero
    with pytest.raises(ValueError, match=f"unknown {profile.name} profile parameter '{misspelled}'"):
        evaluate_profile(profile, 0.0)


@pytest.mark.parametrize(
    "profile, message",
    [
        (Profile([1]), r"unknown profile name: \[1\]"),
        (Profile("constant", ["value"]), r"constant profile params must be a mapping, got \['value'\]"),
    ],
)
def test_profile_rejects_non_string_name_or_non_mapping_params(profile, message):
    # a list name used to raise a bare TypeError: unhashable type: 'list'
    with pytest.raises(ValueError, match=message):
        evaluate_profile(profile, 0.0)


@pytest.mark.parametrize("value", [[np.nan, 0.0, 0.0], np.inf, [0.0, 1.0]])
def test_profile_rejects_non_finite_or_misshapen_parameter(value):
    # a NaN rate used to simulate NaN states and report every marker behind the camera
    with pytest.raises(ValueError, match="profile parameter amplitude must be a finite scalar or 3-vector"):
        evaluate_profile(Profile("sinusoid", {"amplitude": value}), 0.0)


@pytest.mark.parametrize(
    "profile",
    [
        Profile("constant", {"value": [0.05, -0.04, 0.12]}),
        Profile(
            "sinusoid",
            {"base": [0.1, 0.0, -9.81], "amplitude": [0.5, 0.2, 0.3],
             "frequency": [0.7, 1.3, 0.25], "phase": [0.0, 1.0, -2.0]},
        ),
    ],
)
def test_profile_over_times_matches_per_time_calls(profile):
    times = np.arange(2400) * 0.001
    values = evaluate_profile(profile, times)
    assert values.shape == (2400, 3)
    np.testing.assert_array_equal(values, [evaluate_profile(profile, t) for t in times])
    np.testing.assert_array_equal(evaluate_profile(profile, times.reshape(40, 60)), values.reshape(40, 60, 3))


def test_triangle_landmarks_side_length():
    for i in range(3):
        d = np.linalg.norm(PAD[i] - PAD[(i + 1) % 3])
        assert abs(d - 1.0) < 1e-12
    np.testing.assert_allclose(PAD.mean(axis=0), np.zeros(3), atol=1e-12)


def test_hover_is_stationary():
    # constant thrust exactly cancels gravity; zero rates keep attitude level
    spec = TrajectorySpec(
        duration=2.0,
        angular_profile=Profile("constant", {"value": [0.0, 0.0, 0.0]}),
        accel_profile=Profile("constant", {"value": [0.0, 0.0, -9.81]}),
    )
    dataset = generate(spec, PAD, CAM, WorldParams(), NoiseSpec(0.0, 0.0, 0))
    for pose in dataset.ground_truth.poses:
        np.testing.assert_allclose(pose.p, [0.0, 0.0, -4.0], atol=1e-12)
        np.testing.assert_allclose(pose.v, np.zeros(3), atol=1e-12)
        np.testing.assert_array_equal(pose.R, np.eye(3))
    samples = dataset.imu_samples
    np.testing.assert_array_equal(samples.omega, np.broadcast_to(samples.omega[0], samples.omega.shape))
    np.testing.assert_array_equal(samples.accel, np.broadcast_to(samples.accel[0], samples.accel.shape))


def _simulate_one_step_at_a_time(spec, world):
    # the per-step recursion generate replaced, kept as its oracle
    k = steps_per_frame(spec.camera_dt, spec.imu_dt)
    num_steps = round(spec.duration / spec.camera_dt) * k
    g, dt = world.gravity, spec.imu_dt
    times = np.arange(num_steps) * dt
    accels = evaluate_profile(spec.accel_profile, times)
    step_rotations = exp_map(evaluate_profile(spec.angular_profile, times) * dt)
    R, v, p = spec.initial_pose.R, spec.initial_pose.v, spec.initial_pose.p
    keyframes = [(R, v, p)]
    for step in range(num_steps):
        world_accel = R @ accels[step]
        p = p + v * dt + 0.5 * g * dt * dt + 0.5 * world_accel * dt * dt
        v = v + g * dt + world_accel * dt
        R = R @ step_rotations[step]
        if (step + 1) % k == 0:
            keyframes.append((R, v, p))
    return [np.array(field) for field in zip(*keyframes)]


def _sinusoid_spec():
    spec = _reference_spec()
    spec.angular_profile = Profile(
        "sinusoid",
        {"base": [0.05, -0.04, 0.12], "amplitude": [0.3, 0.2, 0.4],
         "frequency": [0.7, 1.3, 0.25], "phase": [0.0, 1.0, -2.0]},
    )
    spec.accel_profile = Profile(
        "sinusoid",
        {"base": [0.25, 0.15, -9.51], "amplitude": [0.5, 0.2, 0.3],
         "frequency": [0.4, 0.9, 1.1], "phase": [0.5, 0.0, 1.5]},
    )
    return spec


def _rotated_moving_spec():
    spec = _reference_spec()
    spec.initial_pose = PoseState(
        exp_map(np.array([0.3, -0.2, 0.5])), np.array([0.4, -0.3, 0.2]), np.array([0.1, 0.2, -5.0])
    )
    return spec


def _high_rate_spec():
    spec = _reference_spec()
    spec.imu_dt = 0.001
    return spec


def _one_step_per_frame_spec():
    spec = _reference_spec()
    spec.imu_dt = spec.camera_dt
    return spec


@pytest.mark.parametrize(
    "make_spec",
    [_reference_spec, _sinusoid_spec, _rotated_moving_spec, _high_rate_spec,
     _one_step_per_frame_spec, lambda: _reference_spec(n=2)],
    ids=["reference", "sinusoid", "rotated_moving", "imu_dt_0.001", "k_1", "n_2"],
)
def test_keyframes_match_per_step_recursion(make_spec):
    # the attitude loop and in-order sums give the recursion's bits
    spec = make_spec()
    world = WorldParams()
    poses = generate(spec, PAD, CAM, world, NoiseSpec(seed=0)).ground_truth.poses
    expected = _simulate_one_step_at_a_time(spec, world)
    assert len(poses) == len(expected[0])
    for got, want in zip((poses.R, poses.v, poses.p), expected):
        np.testing.assert_array_equal(got, want)
        assert got.flags.c_contiguous  # dataset_io writes each field as one table


def test_zero_noise_preintegration_reproduces_relative_states():
    dataset = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(0.0, 0.0, 1))
    g = dataset.world.gravity
    poses, samples = dataset.ground_truth.poses, dataset.imu_samples
    for k in range(dataset.ground_truth.n - 1):
        chunk = slice(20 * k, 20 * (k + 1))
        delta = preintegrate(ImuSample(samples.omega[chunk], samples.accel[chunk], samples.dt[chunk]))
        pose_i, pose_j = poses[k], poses[k + 1]
        dt = delta.dt_total
        np.testing.assert_allclose(pose_i.R @ delta.dR, pose_j.R, atol=1e-12)
        np.testing.assert_allclose(pose_i.v + g * dt + pose_i.R @ delta.dv, pose_j.v, atol=1e-12)
        np.testing.assert_allclose(
            pose_i.p + pose_i.v * dt + 0.5 * g * dt * dt + pose_i.R @ delta.dp,
            pose_j.p,
            atol=1e-12,
        )


def test_reference_scenario_counts():
    dataset = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=0))
    assert dataset.ground_truth.n == 7
    samples = dataset.imu_samples
    assert samples.omega.shape == samples.accel.shape == (120, 3)  # 6 intervals of 20 samples
    np.testing.assert_array_equal(samples.dt, np.full(120, 0.02))
    assert len(dataset.pixel_measurements) == 21  # 42 scalar pixel values
    assert make_problem(dataset, dataset.ground_truth).deltas.dt_total.shape == (6,)


@pytest.mark.parametrize("count", [0, 7])
def test_make_problem_rejects_uneven_sample_count(count):
    dataset = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=0))
    samples = dataset.imu_samples
    dataset.imu_samples = ImuSample(samples.omega[:count], samples.accel[:count], samples.dt[:count])
    with pytest.raises(ValueError, match="positive multiple"):
        make_problem(dataset, dataset.ground_truth)


def test_minimal_window_counts():
    dataset = generate(_reference_spec(n=2), PAD, CAM, WorldParams(), NoiseSpec(seed=0))
    assert dataset.ground_truth.n == 2
    assert len(dataset.imu_samples.dt) == 20
    assert make_problem(dataset, dataset.ground_truth).deltas.dt_total.shape == (1,)


def test_generate_is_reproducible():
    a = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=9))
    b = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=9))
    np.testing.assert_array_equal(a.imu_samples.omega, b.imu_samples.omega)
    np.testing.assert_array_equal(a.imu_samples.accel, b.imu_samples.accel)
    np.testing.assert_array_equal(a.pixel_measurements.uv, b.pixel_measurements.uv)
    c = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=10))
    assert not np.array_equal(a.pixel_measurements.uv, c.pixel_measurements.uv)


def test_generate_rejects_offplane_landmarks():
    bad = PAD.copy()
    bad[0, 2] = 0.3
    with pytest.raises(ValueError, match="ground plane"):
        generate(_reference_spec(), bad, CAM, WorldParams(), NoiseSpec())


def test_generate_rejects_uneven_sampling():
    spec = _reference_spec()
    spec.camera_dt = 0.45
    with pytest.raises(ValueError, match="multiple"):
        generate(spec, PAD, CAM, WorldParams(), NoiseSpec())


def test_generate_rejects_non_rotation_initial_attitude():
    # 2 I would simulate, then fail to read back as a dataset
    spec = _reference_spec()
    spec.initial_pose = PoseState(2.0 * np.eye(3), np.zeros(3), np.array([0.0, 0.0, -4.0]))
    with pytest.raises(ValueError, match="initial_pose.R"):
        generate(spec, PAD, CAM, WorldParams(), NoiseSpec())


@pytest.mark.parametrize(
    "R",
    [np.stack([np.eye(3), np.eye(3)]), "abc", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, True]]],
    ids=["stack", "string", "listed bool"],
)
def test_generate_holds_the_initial_attitude_to_its_input_rule(R):
    # a stack, a string and a listed True: numpy alone would raise its own
    # errors, naming no field, or read the last as the identity
    spec = _reference_spec()
    spec.initial_pose = PoseState(R, np.zeros(3), np.array([0.0, 0.0, -4.0]))
    with pytest.raises(ValueError, match=r"^initial_pose\.R must be a rotation matrix$"):
        generate(spec, PAD, CAM, WorldParams(), NoiseSpec())
    hover = _hover()
    with pytest.raises(ValueError, match=r"^flight 1 initial_pose\.R must be a rotation matrix$"):
        _generate_batch([hover, _with(hover, "initial_pose.R", R)])


@pytest.mark.parametrize("field", ["v", "p"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_generate_rejects_non_finite_initial_state(field, bad):
    spec = _reference_spec()
    values = {"v": np.zeros(3), "p": np.array([0.0, 0.0, -4.0])}
    values[field][1] = bad
    spec.initial_pose = PoseState(np.eye(3), values["v"], values["p"])
    with pytest.raises(ValueError, match=f"initial_pose.{field}"):
        generate(spec, PAD, CAM, WorldParams(), NoiseSpec())


@pytest.mark.parametrize("gravity", [[0.0, 0.0, np.nan], [0.0, np.inf, 9.81], [0.0, 9.81]])
def test_generate_rejects_bad_gravity(gravity):
    # NaN gravity used to simulate NaN positions and blame the depth
    with pytest.raises(ValueError, match="world.gravity"):
        generate(_reference_spec(), PAD, CAM, WorldParams(np.array(gravity)), NoiseSpec())


@pytest.mark.parametrize("field", ["duration", "imu_dt", "camera_dt"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.4, True, "0.4"])
def test_generate_rejects_bad_times(field, bad):
    spec = _reference_spec()
    setattr(spec, field, bad)
    with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
        generate(spec, PAD, CAM, WorldParams(), NoiseSpec())


@pytest.mark.parametrize("field", ["imu_noise_variance", "pixel_noise_variance"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-4])
def test_generate_rejects_bad_noise_variance(field, bad):
    # a NaN imu_noise_variance used to make every IMU sample NaN
    noise = NoiseSpec()
    setattr(noise, field, bad)
    with pytest.raises(ValueError, match=f"^noise.{field} must be finite and >= 0"):
        generate(_reference_spec(), PAD, CAM, WorldParams(), noise)


@pytest.mark.parametrize("focal", [np.nan, np.inf, 0.0, -1.0, True, "1"])
def test_generate_rejects_bad_focal(focal):
    with pytest.raises(ValueError, match="^cam.focal must be finite and > 0"):
        generate(_reference_spec(), PAD, CameraModel(focal), WorldParams(), NoiseSpec())


@pytest.mark.parametrize("seed", [-1, 2.5, True, "0"])
def test_generate_rejects_bad_seed(seed):
    # numpy took True as seed 1 and raised unnamed errors on the others
    with pytest.raises(ValueError, match="^noise.seed must be an integer >= 0"):
        generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=seed))


@pytest.mark.parametrize("principal_point", [[np.nan, 0.0], [0.0, -np.inf], [0.0, 0.0, 0.0]])
def test_generate_rejects_bad_principal_point(principal_point):
    cam = CameraModel(1.0, np.array(principal_point))
    with pytest.raises(ValueError, match="^cam.principal_point"):
        generate(_reference_spec(), PAD, cam, WorldParams(), NoiseSpec())


@pytest.mark.parametrize("coordinate", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_generate_rejects_non_finite_landmarks(coordinate, bad):
    landmarks = PAD.copy()
    landmarks[1, coordinate] = bad
    with pytest.raises(ValueError, match="^landmarks must be an \\(N, 3\\) array of finite numbers"):
        generate(_reference_spec(), landmarks, CAM, WorldParams(), NoiseSpec())


def test_behind_camera_measurements_dropped(caplog):
    # aircraft starts below the ground plane, so markers sit behind the camera
    spec = _reference_spec(n=2)
    spec.initial_pose = PoseState(np.eye(3), np.zeros(3), np.array([0.0, 0.0, 1.0]))
    spec.angular_profile = Profile("constant", {"value": [0.0, 0.0, 0.0]})
    spec.accel_profile = Profile("constant", {"value": [0.0, 0.0, -9.81]})
    with caplog.at_level(logging.WARNING):
        dataset = generate(spec, PAD, CAM, WorldParams(), NoiseSpec(0.0, 0.0, 0))
    assert len(dataset.pixel_measurements) == 0
    assert dataset.pixel_measurements.uv.shape == (0, 2)
    assert any("behind camera" in rec.message for rec in caplog.records)


def test_visibility_matches_per_observation_loop(caplog):
    # the aircraft falls through the pad part way, so later keyframes lose markers
    spec = TrajectorySpec(
        duration=4.0,
        initial_pose=PoseState(np.eye(3), np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -2.0])),
        angular_profile=Profile("constant", {"value": [0.05, -0.1, 0.2]}),
    )
    cam = CameraModel(300.0, np.array([1.0, 2.0]))
    with caplog.at_level(logging.WARNING):
        dataset = generate(spec, PAD, cam, WorldParams(), NoiseSpec(0.0, 0.0, 0))
    # reference: one landmark_in_body and one project call per (keyframe, landmark)
    expected = []
    for frame, pose in enumerate(dataset.ground_truth.poses, start=1):
        for lm, landmark in enumerate(PAD, start=1):
            q = landmark_in_body(pose, landmark)
            if q[2] > DEPTH_EPSILON:
                expected.append((frame, lm, project(cam, q)))
    dropped = dataset.ground_truth.n * len(PAD) - len(expected)
    assert dropped > 0 and len(expected) > 0
    got = dataset.pixel_measurements
    assert list(zip(got.frame_index.tolist(), got.landmark_id.tolist())) == [e[:2] for e in expected]
    np.testing.assert_array_equal(got.uv, [e[2] for e in expected])
    assert sum("behind camera" in rec.message for rec in caplog.records) == dropped


def test_perturb_truth_returns_copy():
    dataset = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=2))
    window = perturb_initialization(dataset, "truth")
    np.testing.assert_array_equal(window.landmarks, dataset.ground_truth.landmarks)
    window.landmarks[0, 0] += 1.0
    assert window.landmarks[0, 0] != dataset.ground_truth.landmarks[0, 0]


def test_perturb_cold_sets_reference_values():
    dataset = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=2))
    window = perturb_initialization(dataset, "cold")
    for pose in window.poses:
        np.testing.assert_array_equal(pose.R, np.eye(3))
        np.testing.assert_array_equal(pose.v, np.zeros(3))
        np.testing.assert_array_equal(pose.p, [0.0, 0.0, -4.0])
    # landmark altitudes start exactly on the constraint
    assert np.all(window.landmarks[:, 2] == 0.0)


def test_perturb_cold_keeps_dataset_prior_keyframe():
    spec = _reference_spec()
    spec.initial_pose = PoseState(np.eye(3), np.array([0.3, -0.2, 0.1]), np.array([0.4, -0.1, -5.0]))
    dataset = generate(spec, PAD, CAM, WorldParams(), NoiseSpec(seed=2))
    window = perturb_initialization(dataset, "cold")
    prior = dataset.ground_truth.poses[0]
    np.testing.assert_array_equal(window.poses[0].R, prior.R)
    np.testing.assert_array_equal(window.poses[0].v, prior.v)
    np.testing.assert_array_equal(window.poses[0].p, prior.p)
    assert not np.shares_memory(window.poses.p, dataset.ground_truth.poses.p)  # a copy
    for pose in window.poses[1:]:
        np.testing.assert_array_equal(pose.R, np.eye(3))
        np.testing.assert_array_equal(pose.v, np.zeros(3))
        np.testing.assert_array_equal(pose.p, [0.0, 0.0, -4.0])


def test_perturb_cold_triangulates_landmarks_from_first_frame():
    # with no pixel noise the first frame's true pose equals the cold pose,
    # so the ray/ground intersection recovers the landmarks exactly
    dataset = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(0.0, 0.0, 3))
    window = perturb_initialization(dataset, "cold")
    np.testing.assert_allclose(window.landmarks, PAD, atol=1e-9)


def test_perturb_rejects_unknown_preset():
    dataset = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=2))
    with pytest.raises(ValueError, match="preset"):
        perturb_initialization(dataset, "warm")


def _assert_flight_of_batch(batch, b, alone):
    """Flight b of a batched dataset holds every bit of the flight simulated alone."""
    truth, samples, meas = batch.ground_truth, batch.imu_samples, batch.pixel_measurements
    pairs = [
        (truth.poses.R[b], alone.ground_truth.poses.R),
        (truth.poses.v[b], alone.ground_truth.poses.v),
        (truth.poses.p[b], alone.ground_truth.poses.p),
        (truth.landmarks[b], alone.ground_truth.landmarks),
        (samples.omega[b], alone.imu_samples.omega),
        (samples.accel[b], alone.imu_samples.accel),
        (samples.dt[b], alone.imu_samples.dt),
        (meas.frame_index, alone.pixel_measurements.frame_index),
        (meas.landmark_id, alone.pixel_measurements.landmark_id),
        (meas.uv[b], alone.pixel_measurements.uv),
        (batch.cam.focal, alone.cam.focal),
        (batch.cam.principal_point, alone.cam.principal_point),
        (batch.world.gravity, alone.world.gravity),
        (batch.imu_dt, alone.imu_dt),
        (batch.camera_dt, alone.camera_dt),
    ]
    for got, want in pairs:
        np.testing.assert_array_equal(got, want, strict=True)


def _config_flights(config):
    """The CLI's generate inputs for the config at seeds 0-2."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "generate", lambda *inputs: inputs)
        return [cli.dataset_from_config(dataclasses.replace(config, seed=seed)) for seed in range(3)]


def _assert_batch_matches_each_flight_alone(drawn):
    spec, landmarks, cam, world, noise = zip(*drawn)
    batch = generate(spec, landmarks, cam[0], world[0], noise)
    assert batch.ground_truth.poses.R.shape[0] == batch.imu_samples.dt.shape[0] == len(drawn)
    for b, inputs in enumerate(drawn):
        _assert_flight_of_batch(batch, b, generate(*inputs))


def _random_flights(n, N, imu_dt=None):
    """Three `checks._random_flight` draws, their IMU step set to imu_dt unless it is None."""
    rng = np.random.default_rng(100 * n + N)
    drawn = [checks._random_flight(rng, n, N) for _ in range(3)]
    if imu_dt is not None:
        for spec, _, _ in drawn:
            spec.imu_dt = imu_dt
    return [(spec, landmarks, CameraModel(500.0), WorldParams(), noise) for spec, landmarks, noise in drawn]


def _sinusoid_flights_at_1khz():
    # 2,400 IMU steps: a flight alone steps its attitude through ndarray.dot, a batch through np.matmul
    drawn = _config_flights(cli.load_config(str(DATA / "sinusoid_moving.json"), imu_dt=0.001))
    spec = drawn[0][0]
    assert round(spec.duration / spec.imu_dt) == 2400
    return drawn


@pytest.mark.parametrize(
    "flights",
    # each stacked shape's flights at 50 Hz and as `checks._random_flight`
    # draws them, one IMU sample per keyframe interval
    [pytest.param(lambda n=n, N=N: _random_flights(n, N, 0.02), id=f"{n}-{N}") for n, N in checks.STACKED_SHAPES]
    + [pytest.param(lambda n=n, N=N: _random_flights(n, N), id=f"{n}-{N}-one-sample") for n, N in checks.STACKED_SHAPES]
    + [pytest.param(_sinusoid_flights_at_1khz, id="sinusoid-1kHz")],
)
def test_batched_generate_matches_each_flight_alone(flights):
    _assert_batch_matches_each_flight_alone(flights())


def test_batched_generate_matches_reference_config_flights():
    _assert_batch_matches_each_flight_alone(_config_flights(cli.ExperimentConfig()))


def _hover(duration=0.8, seed=0, p=(0.0, 0.0, -4.0), v=(0.0, 0.0, 0.0)):
    spec = TrajectorySpec(
        duration=duration,
        initial_pose=PoseState(np.eye(3), np.array(v), np.array(p)),
        accel_profile=Profile("constant", {"value": [0.0, 0.0, -9.81]}),
    )
    return spec, PAD, NoiseSpec(1e-4, 1e-5, seed)


def _generate_batch(flights):
    spec, landmarks, noise = zip(*flights)
    return generate(spec, landmarks, CAM, WorldParams(), noise)


def test_batched_generate_keeps_flights_of_one_shape():
    # a duration that ends between two camera frames gives the same n
    batch = _generate_batch([_hover(), _hover(duration=0.9, seed=1)])
    assert batch.ground_truth.poses.R.shape == (2, 3, 3, 3)


def test_batched_generate_names_the_first_flight_that_differs():
    # flight 2 differs in N, but flight 1 comes first
    flights = [_hover(), _hover(duration=1.2), (*_hover()[:1], PAD[:2], _hover()[2])]
    with pytest.raises(ValueError, match="^flight 1 differs from flight 0 in n$"):
        _generate_batch(flights)
    # flight 1 falls through the pad between keyframes 2 and 3
    flights = [_hover(), _hover(p=(0.0, 0.0, -0.5), v=(0.0, 0.0, 1.0)), _hover(p=(0.0, 0.0, 1.0))]
    with pytest.raises(ValueError, match="^flight 1 differs from flight 0 in measurement pattern$"):
        _generate_batch(flights)


@pytest.mark.parametrize(
    "flight, message",
    [
        ((_hover()[0], PAD + [0.0, 0.0, 1.0], NoiseSpec()), "flight 1 landmarks must all lie on the ground plane"),
        ((_hover(duration=0.0)[0], PAD, NoiseSpec()), "flight 1 duration must be finite and > 0"),
        ((_hover()[0], PAD, NoiseSpec(seed=-1)), "flight 1 noise.seed must be an integer >= 0"),
        ((_hover()[0], PAD, NoiseSpec(pixel_noise_variance=np.nan)), "flight 1 noise.pixel_noise_variance must"),
    ],
)
def test_batched_generate_names_the_flight_of_a_bad_input(flight, message):
    with pytest.raises(ValueError, match="^" + message):
        _generate_batch([_hover(), flight])


def test_batched_generate_takes_one_entry_per_flight():
    spec, landmarks, noise = _hover()
    with pytest.raises(ValueError, match="^generate takes one or more flights, .* got 2, 1 and 2$"):
        generate([spec, spec], [landmarks], CAM, WorldParams(), [noise, noise])


def test_batched_generate_warns_of_each_flights_dropped_measurements(caplog):
    below = _hover(p=(0.0, 0.0, 1.0))
    with caplog.at_level(logging.WARNING):
        batch = _generate_batch([below, below])
    assert batch.pixel_measurements.uv.shape == (2, 0, 2)
    for b in range(2):
        assert sum(rec.message.startswith(f"flight {b} landmark") for rec in caplog.records) == 3 * len(PAD)


def test_perturb_cold_on_a_batch_is_each_flights_cold_start():
    rng = np.random.default_rng(4)
    drawn = [checks._random_flight(rng, 3, 3) for _ in range(3)]
    window = perturb_initialization(checks._simulate(*zip(*drawn)), "cold")
    for b, inputs in enumerate(drawn):
        alone = perturb_initialization(checks._simulate(*inputs), "cold")
        for got, want in zip(
            (window.poses.R[b], window.poses.v[b], window.poses.p[b], window.landmarks[b]),
            (alone.poses.R, alone.poses.v, alone.poses.p, alone.landmarks),
        ):
            np.testing.assert_array_equal(got, want, strict=True)


def _with(flight, field, value):
    """flight with one field set: "landmarks", "initial_pose.<R|v|p>", "noise.<field>" or a spec field."""
    spec, landmarks, noise = flight
    if field == "landmarks":
        return spec, value, noise
    if field.startswith("noise."):
        return spec, landmarks, dataclasses.replace(noise, **{field[len("noise."):]: value})
    if field.startswith("initial_pose."):
        pose = dataclasses.replace(spec.initial_pose, **{field[len("initial_pose."):]: value})
        return dataclasses.replace(spec, initial_pose=pose), landmarks, noise
    return dataclasses.replace(spec, **{field: value}), landmarks, noise


@pytest.mark.parametrize(
    "field, bad, message",
    # each rule of `sim._checked_flight`, in the order it checks them
    [
        ("landmarks", PAD + [0.0, 0.0, 1.0], "flight 0 landmarks must all lie on the ground plane z = 0"),
        ("landmarks", np.vstack([PAD[:2], [np.nan, 0.0, 0.0]]), "flight 0 landmarks must be an (N, 3) array"),
        ("initial_pose.R", 2.0 * np.eye(3), "flight 0 initial_pose.R must be a rotation matrix"),
        ("initial_pose.v", np.array([0.0, np.nan, 0.0]), "flight 0 initial_pose.v must be a finite 3-vector"),
        ("initial_pose.p", np.array([0.0, 0.0, -np.inf]), "flight 0 initial_pose.p must be a finite 3-vector"),
        ("duration", 0.0, "flight 0 duration must be finite and > 0"),
        ("imu_dt", float("nan"), "flight 0 imu_dt must be finite and > 0"),
        ("camera_dt", -0.4, "flight 0 camera_dt must be finite and > 0"),
        ("noise.imu_noise_variance", float("inf"), "flight 0 noise.imu_noise_variance must be finite and >= 0"),
        ("noise.pixel_noise_variance", -1.0, "flight 0 noise.pixel_noise_variance must be finite and >= 0"),
        ("noise.seed", -1, "flight 0 noise.seed must be an integer >= 0"),
        ("camera_dt", 0.45, "camera_dt 0.45 must be an integer multiple of imu_dt 0.02"),
        ("duration", 0.2, "flight 0 duration must cover at least one camera interval"),
    ],
)
def test_batch_names_the_first_flight_and_field_that_fail(field, bad, message):
    bad_flight = _with(_hover(), field, bad)
    with pytest.raises(ValueError) as alone:
        sim._checked_flight(*bad_flight, "flight 0 ")
    assert str(alone.value).startswith(message)
    batches = [
        # flight 1's landmarks, the first field checked, fail too; the
        # per-flight loop checks all of flight 0 first
        [bad_flight, _with(_hover(seed=1), "landmarks", PAD + [0.0, 0.0, 1.0])],
        # the array pass must find flight 0's value when flight 1 is good,
        # and when flight 1 fails the same rule
        [bad_flight, _hover(seed=1)],
        [bad_flight, _with(_hover(seed=1), field, bad)],
    ]
    for flights in batches:
        with pytest.raises(ValueError) as info:
            _generate_batch(flights)
        assert str(info.value) == str(alone.value)


@pytest.mark.parametrize(
    "profile",
    [
        Profile("sinusoid", {"amplitude": np.array([np.nan, 0.0, 0.0])}),
        Profile("constant", {"value": float("inf")}),
        Profile("constant", {"valeu": np.zeros(3)}),
        Profile("spline", {"value": np.zeros(3)}),
    ],
)
def test_batch_raises_the_error_of_a_bad_profile(profile):
    # flight 1's rates fail, whether flight 0's have their name or the other
    with pytest.raises(ValueError) as alone:
        evaluate_profile(profile, 0.0)
    spec, landmarks, noise = _hover(seed=1)
    for name in ("constant", "sinusoid"):
        flight_0 = _with(_hover(), "angular_profile", Profile(name))
        flights = [flight_0, (dataclasses.replace(spec, angular_profile=profile), landmarks, noise)]
        with pytest.raises(ValueError) as info:
            _generate_batch(flights)
        assert str(info.value) == str(alone.value)


def _exact_flights():
    """Three flights of float64 arrays, float times and variances and int
    seeds, which the array pass and the profile broadcast read; every value
    is exact in float32, and R, p, the duration and the pixel noise
    variance are integral."""
    landmarks = np.array([[0.5, 0.0, 0.0], [-0.25, 0.5, 0.0], [-0.25, -0.5, 0.0]])
    flights = []
    for b in range(3):
        sinusoid = {
            "base": np.array([0.0625 * b, 0.0, -0.125]),
            "amplitude": np.array([0.125, 0.25, 0.0625]),
            "frequency": np.array([0.75, 1.25, 0.25]),
            "phase": np.array([0.0, 1.0, -2.0]),
        }
        spec = TrajectorySpec(
            duration=2.0,
            imu_dt=0.1,
            initial_pose=PoseState(np.eye(3), np.array([0.25 * b, 0.0, 0.0]), np.array([0.0, 1.0, -4.0])),
            angular_profile=Profile("sinusoid", sinusoid),
            accel_profile=Profile("constant", {"value": np.array([0.25, -0.125, -9.75])}),
        )
        flights.append((spec, landmarks.copy(), NoiseSpec(1e-4, 1.0, 20 + b)))
    return flights


def _converted(flight, convert):
    """flight with every array, its profile parameters' too, passed through convert."""
    spec, landmarks, noise = flight
    pose = spec.initial_pose
    profiles = {
        name: Profile(profile.name, {key: convert(value) for key, value in profile.params.items()})
        for name, profile in (("angular_profile", spec.angular_profile), ("accel_profile", spec.accel_profile))
    }
    spec = dataclasses.replace(spec, initial_pose=PoseState(*map(convert, (pose.R, pose.v, pose.p))), **profiles)
    return spec, convert(landmarks), noise


def _with_ints(flight):
    """flight with R, p, the duration and the pixel noise variance as Python ints."""
    spec, landmarks, noise = flight
    pose = PoseState([[1, 0, 0], [0, 1, 0], [0, 0, 1]], spec.initial_pose.v, [0, 1, -4])
    spec = dataclasses.replace(spec, duration=2, initial_pose=pose)
    return spec, landmarks, dataclasses.replace(noise, pixel_noise_variance=1)


def _with_constant_rates(flights):
    """flights with flight 1's angular profile constant, the others' sinusoids."""
    spec, landmarks, noise = flights[1]
    rates = Profile("constant", {"value": np.array([0.125, 0.0, -0.25])})
    return [flights[0], (dataclasses.replace(spec, angular_profile=rates), landmarks, noise), flights[2]]


def _count_calls(monkeypatch, name):
    """The list of argument tuples of each call of `sim.<name>` from here on."""
    original, calls = getattr(sim, name), []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sim, name, counted)
    return calls


@pytest.mark.parametrize(
    "variant, checked, evaluated",
    [
        pytest.param(lambda flights: [_converted(f, np.ndarray.tolist) for f in flights], 3, 6, id="lists"),
        pytest.param(lambda flights: [_with_ints(f) for f in flights], 3, 0, id="ints"),
        pytest.param(lambda flights: [_converted(f, lambda a: a.astype(np.float32)) for f in flights], 3, 6, id="float32"),
        pytest.param(_with_constant_rates, 0, 3, id="mixed-profiles"),
    ],
)
def test_batch_off_the_array_pass_keeps_every_bit(variant, checked, evaluated, monkeypatch):
    # the float64 batch takes the array pass and one broadcast per profile kind;
    # a variant takes the per-flight rules (`_checked_flight` per flight) or
    # evaluates each profile (`evaluate_profile` per flight and kind)
    flights = _exact_flights()
    checked_calls = _count_calls(monkeypatch, "_checked_flight")
    evaluated_calls = _count_calls(monkeypatch, "evaluate_profile")
    reference = _generate_batch(flights)
    assert (len(checked_calls), len(evaluated_calls)) == (0, 0)
    flights = variant(flights)
    batch = _generate_batch(flights)
    assert (len(checked_calls), len(evaluated_calls)) == (checked, evaluated)
    for b, (spec, landmarks, noise) in enumerate(flights):
        alone = generate(spec, landmarks, CAM, WorldParams(), noise)
        _assert_flight_of_batch(batch, b, alone)
        if variant is not _with_constant_rates:  # which changes flight 1's rates
            _assert_flight_of_batch(reference, b, alone)
