import importlib.util
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from padvio import checks, imu, sim
from padvio.checks import central_difference, run_certification
from padvio.graph import (
    PoseState,
    Problem,
    WindowState,
    assemble,
    boxplus,
    pose_boxplus,
    stacked_residual,
)
from padvio.imu import PreintegratedDelta, WorldParams
from padvio.sim import make_problem
from padvio.vision import CameraModel, DegenerateDepthError, PixelMeasurement

# the trial-by-trial, per-column reference that writes the golden table
SCRIPT = Path(__file__).parent / "data" / "make_certification_table.py"
_spec = importlib.util.spec_from_file_location("make_certification_table", SCRIPT)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def _boxplus_single(window, delta):
    """Reference retraction of one increment vector, pose by pose."""
    n = window.n
    poses = window.poses.copy()
    for k in range(1, n):
        moved = pose_boxplus(window.poses[k], delta[9 * (k - 1) : 9 * k])
        poses.R[k], poses.v[k], poses.p[k] = moved.R, moved.v, moved.p
    return WindowState(poses, window.landmarks + delta[9 * (n - 1) :].reshape(-1, 3))


def _assert_windows_equal(a, b):
    for name in ("R", "v", "p"):
        np.testing.assert_array_equal(getattr(a.poses, name), getattr(b.poses, name))
    np.testing.assert_array_equal(a.landmarks, b.landmarks)


def test_batched_central_difference_matches_per_column_oracle_on_certify_closures(monkeypatch):
    dims = []

    def both(f, dim, h=checks.FD_STEP):
        batched = central_difference(f, dim, h)
        np.testing.assert_array_equal(batched, reference.central_difference_per_column(f, dim, h))
        dims.append(dim)
        return batched

    monkeypatch.setattr(checks, "central_difference", both)
    run_certification(seed=3, trials=len(checks.STACKED_SHAPES))
    # one call for all imu trials (18 columns), one for all vision trials (12),
    # then one stacked window of each shape
    stacked_dims = [9 * (n - 1) + 3 * N for n, N in checks.STACKED_SHAPES]
    assert dims == [18, 12] + stacked_dims


def test_each_per_factor_check_makes_one_jacobian_call_for_all_trials(monkeypatch):
    calls = []

    def counted(name):
        original = getattr(checks, name)

        def call(*args):
            calls.append(name)
            return original(*args)

        return call

    for name in ("imu_residual_jacobian", "photometric_jacobian"):
        monkeypatch.setattr(checks, name, counted(name))
    checks.certify_imu(np.random.default_rng(0), 7)
    checks.certify_vision(np.random.default_rng(1), 7)
    assert calls == ["imu_residual_jacobian", "photometric_jacobian"]


@pytest.mark.parametrize("trials", [0, 2.5, True])
def test_run_certification_rejects_non_integer_trials(trials):
    # a count must be an int: range() raises TypeError on 2.5, and True would run one trial
    with pytest.raises(ValueError, match="trials"):
        run_certification(0, trials=trials)


@pytest.mark.parametrize("seed", [2.5, True, -1])
def test_run_certification_rejects_bad_seed(seed):
    # numpy raised a bare TypeError on 2.5 and an unnamed ValueError on -1, and True ran seed 1
    with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
        run_certification(seed, trials=1)


def test_certification_matches_golden_table():
    # the script writes the table from its reference, not from run_certification
    golden = json.loads(reference.GOLDEN.read_text())
    report = run_certification(seed=golden["seed"], trials=golden["trials"])
    for table in ("imu_block_errors", "vision_block_errors", "stacked_errors"):
        expected, got = golden[table], getattr(report, table)
        assert list(got) == list(expected)
        for name, err in expected.items():
            assert abs(got[name] - err) <= 1e-12, f"{table} {name}: {got[name]!r} against {err!r}"
            assert got[name] == err, f"{table} {name}: {got[name]!r} is not bit-identical to {err!r}"
    assert report.vision_velocity_block_max_abs == golden["vision_velocity_block_max_abs"]


@pytest.mark.parametrize("n,N", [(2, 1), (7, 3)])
def test_batched_boxplus_and_residual_match_row_by_row(n, N):
    rng = np.random.default_rng(n + N)
    problem = reference.random_problem(rng, n, N)
    window = problem.window
    D = rng.normal(0.0, 0.05, (5, window.dim))
    batch = boxplus(window, D)
    assert (batch.n, batch.num_landmarks) == (n, N)
    assert batch.poses.R.shape == (5, n, 3, 3) and batch.landmarks.shape == (5, N, 3)
    residuals = stacked_residual(problem.with_window(batch))
    assert residuals.shape == (5, 9 * (n - 1) + 2 * len(problem.measurements))
    for b, d in enumerate(D):
        row = boxplus(window, d)
        poses = PoseState(batch.poses.R[b], batch.poses.v[b], batch.poses.p[b])
        _assert_windows_equal(WindowState(poses, batch.landmarks[b]), row)
        np.testing.assert_array_equal(residuals[b], stacked_residual(problem.with_window(row)))


def test_unbatched_boxplus_matches_pose_by_pose_retraction():
    rng = np.random.default_rng(11)
    window = reference.random_problem(rng, 7, 3).window
    for _ in range(5):
        delta = rng.normal(0.0, 0.1, window.dim)
        out = boxplus(window, delta)
        assert out.poses.R.shape == (7, 3, 3) and out.landmarks.shape == (3, 3)
        _assert_windows_equal(out, _boxplus_single(window, delta))


def test_batched_stacked_residual_names_degenerate_depth_of_its_row():
    # pose 2 sits 0.5 below landmarks 2 and 3 (z = 1), except in row 2, where it
    # sits on their plane, and row 3, where it sits on landmark 1's plane (z = 2)
    B = 4
    p = np.zeros((B, 2, 3))
    p[:, 1, 2] = [0.5, 0.5, 1.0, 2.0]
    poses = PoseState(np.tile(np.eye(3), (B, 2, 1, 1)), np.zeros((B, 2, 3)), p)
    landmarks = np.tile([[0.0, 0.0, 2.0], [0.5, 0.0, 1.0], [0.0, 0.5, 1.0]], (B, 1, 1))
    pairs = np.array([(2, 3), (1, 1), (2, 1), (1, 3), (2, 2), (1, 2)])
    problem = Problem(
        window=WindowState(PoseState(poses.R[0], poses.v[0], p[0]), landmarks[0]),
        deltas=PreintegratedDelta(np.eye(3)[None], np.zeros((1, 3)), np.zeros((1, 3)), np.ones(1)),
        measurements=PixelMeasurement(pairs[:, 0], pairs[:, 1], np.zeros((6, 2))),
        cam=CameraModel(1.0),
        world=WorldParams(np.zeros(3)),
    )
    with pytest.raises(DegenerateDepthError) as info:
        stacked_residual(problem.with_window(WindowState(poses, landmarks)))
    assert (info.value.frame_index, info.value.landmark_id) == (2, 2)
    assert info.value.depth == 0.0


def test_with_window_keeps_measurements_and_checks_shape():
    rng = np.random.default_rng(2)
    problem = reference.random_problem(rng, 3, 3)
    moved = boxplus(problem.window, rng.normal(0.0, 0.01, problem.window.dim))
    swapped = problem.with_window(moved)
    assert swapped.window is moved and swapped.measurements is problem.measurements
    np.testing.assert_array_equal(
        stacked_residual(swapped), stacked_residual(replace(problem, window=moved))
    )
    assert problem.window is not moved  # the original is left as it was
    small = reference.random_problem(rng, 2, 3).window
    with pytest.raises(ValueError, match="n=2"):
        problem.with_window(small)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("trials", [1, 4, 7])
def test_certify_stacked_matches_trial_by_trial_reference(seed, trials):
    got = checks.certify_stacked(np.random.default_rng(seed), trials)
    assert got == reference.certify_stacked(np.random.default_rng(seed), trials)


@pytest.mark.parametrize("check", ["certify_imu", "certify_vision"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("trials", [1, 4, 7])
def test_per_factor_checks_match_trial_by_trial_reference(check, seed, trials):
    # the batched draws and the stacked evaluation against each trial on its own
    got = getattr(checks, check)(np.random.default_rng(seed), trials)
    assert got == getattr(reference, check)(np.random.default_rng(seed), trials)


def test_no_two_checks_share_a_stream_across_seeds(monkeypatch):
    # seed s's vision check drew from seed s + 1's IMU stream, and its
    # stacked check from seed s + 2's
    first_draws = []

    def recorder(result):
        def check(rng, trials):
            first_draws.append(tuple(rng.random(4)))
            return result

        return check

    monkeypatch.setattr(checks, "certify_imu", recorder({}))
    monkeypatch.setattr(checks, "certify_vision", recorder(({}, 0.0)))
    monkeypatch.setattr(checks, "certify_stacked", recorder({}))
    for seed in range(3):
        run_certification(seed, trials=1)
    assert len(first_draws) == 9 and len(set(first_draws)) == 9


def _record_calls(monkeypatch, module, name):
    """The list that records the arguments and result of each call of
    `module.name`, under every padvio module name that refers to it."""
    original, calls = getattr(module, name), []

    def recorded(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    for key, mod in list(sys.modules.items()):
        if key == "padvio" or key.startswith("padvio."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, recorded)
    return calls


@pytest.mark.parametrize("n,N", checks.STACKED_SHAPES)
def test_stacked_flights_take_one_imu_sample_per_keyframe_interval(n, N, monkeypatch):
    # the check reads only the preintegrated deltas, which need no 50 Hz
    # flight; every shape is cut from flights of `_FLIGHT_SHAPE`
    simulated = _record_calls(monkeypatch, checks, "_simulate")
    certified = _record_calls(monkeypatch, checks, "assemble")
    shapes = len(checks.STACKED_SHAPES)
    checks.certify_stacked(np.random.default_rng(n + N), shapes)
    [((specs, _, _), flights)] = simulated
    assert all(spec.imu_dt == spec.camera_dt for spec in specs)
    assert flights.imu_samples.dt.shape == (shapes, checks._FLIGHT_SHAPE[0] - 1)
    ((batch,), _) = certified[checks.STACKED_SHAPES.index((n, N))]
    assert (batch.window.n, batch.window.num_landmarks, len(batch.measurements)) == (n, N, n * N)
    assert batch.deltas.dt_total.shape == (1, n - 1) and (batch.deltas.dt_total == checks._KEYFRAME_DT).all()


@pytest.mark.parametrize("trials", [1, 4, 10])
def test_certification_simulates_and_preintegrates_one_batch(trials, monkeypatch):
    # one `generate` and one preintegration hold every trial's flight; each
    # shape used to simulate and preintegrate its own batch
    generated = _record_calls(monkeypatch, sim, "generate")
    preintegrated = _record_calls(monkeypatch, imu, "preintegrate")
    integrated = _record_calls(monkeypatch, imu, "integrate")
    run_certification(seed=5, trials=trials)
    assert len(generated) == len(preintegrated) == len(integrated) == 1
    [((specs, landmarks, _, _, noises), _)] = generated
    assert len(specs) == len(landmarks) == len(noises) == trials
    [((samples,), _)] = preintegrated
    assert samples.dt.shape == (trials, checks._FLIGHT_SHAPE[0] - 1, 1)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_each_shape_is_cut_from_its_flights_bit_for_bit(seed):
    # at zero noise, each shape's problem cut from the batch is the problem of
    # each of its flights simulated alone: the same spec cut to n keyframes,
    # over the first N markers
    rng = np.random.default_rng(seed)
    shapes = len(checks.STACKED_SHAPES)
    drawn = [checks._random_flight(rng, *checks._FLIGHT_SHAPE) for _ in range(2 * shapes + 1)]
    for _, _, noise in drawn:
        noise.imu_noise_variance = noise.pixel_noise_variance = 0.0
    dataset = checks._simulate(*zip(*drawn))
    flights = make_problem(dataset, dataset.ground_truth)
    for k, (n, N) in enumerate(checks.STACKED_SHAPES):
        rows = slice(k, len(drawn), shapes)
        cut = checks._shape_problem(flights, rows, n, N)
        _same_bits(cut.measurements.frame_index, np.repeat(np.arange(1, n + 1), N))
        for b, (spec, landmarks, noise) in enumerate(drawn[rows]):
            alone = checks._simulate(replace(spec, duration=checks._KEYFRAME_DT * (n - 1)), landmarks[:N], noise)
            problem = make_problem(alone, alone.ground_truth)
            for name in ("R", "v", "p"):
                _same_bits(getattr(cut.window.poses, name)[b], getattr(problem.window.poses, name))
            _same_bits(cut.window.landmarks[b], problem.window.landmarks)
            for name in ("dR", "dv", "dp", "dt_total"):
                _same_bits(getattr(cut.deltas, name)[b], getattr(problem.deltas, name))
            _same_bits(cut.measurements.uv[b], problem.measurements.uv)
            _same_bits(cut.measurements.frame_index, problem.measurements.frame_index)
            _same_bits(cut.measurements.landmark_id, problem.measurements.landmark_id)


# each stacked shape's flights at 50 Hz, so preintegration reduces 20 samples
# per interval over the batch, and as `_random_flight` draws them, one sample
# per interval
_FLIGHT_RATES = [pytest.param(n, N, 0.02, id=f"{n}-{N}") for n, N in checks.STACKED_SHAPES] + [
    pytest.param(n, N, None, id=f"{n}-{N}-one-sample") for n, N in checks.STACKED_SHAPES
]


def _random_flights_at(rng, n, N, imu_dt):
    """Three `_random_flight` draws, their IMU step set to imu_dt unless it is None."""
    drawn = [checks._random_flight(rng, n, N) for _ in range(3)]
    if imu_dt is not None:
        for spec, _, _ in drawn:
            spec.imu_dt = imu_dt
    return drawn


@pytest.mark.parametrize("n,N,imu_dt", _FLIGHT_RATES)
def test_batched_problem_matches_each_problem_bit_for_bit(n, N, imu_dt):
    rng = np.random.default_rng(10 * n + N)
    drawn = _random_flights_at(rng, n, N, imu_dt)
    offsets = rng.normal(0.0, 0.02, (3, 9 * (n - 1) + 3 * N))
    stacked = checks._simulate(*zip(*drawn))
    assert stacked.imu_samples.dt.shape == (3, (n - 1) * (1 if imu_dt is None else 20))
    flights = [checks._simulate(*inputs) for inputs in drawn]
    batch = make_problem(stacked, boxplus(stacked.ground_truth, offsets))
    problems = [make_problem(flight, boxplus(flight.ground_truth, offset)) for flight, offset in zip(flights, offsets)]
    residual, jacobian, weights = assemble(batch)
    batched = stacked_residual(batch)
    dim = batch.window.dim
    numeric = central_difference(
        lambda d: stacked_residual(batch.with_window(boxplus(batch.window, d[..., None, :]))), dim
    )
    dense = jacobian.toarray()
    # the reference: one problem at a time
    for b, problem in enumerate(problems):
        for name in ("dR", "dv", "dp", "dt_total"):
            np.testing.assert_array_equal(getattr(batch.deltas, name)[b], getattr(problem.deltas, name))
        poses = batch.window.poses
        window = WindowState(PoseState(poses.R[b], poses.v[b], poses.p[b]), batch.window.landmarks[b])
        _assert_windows_equal(window, problem.window)
        np.testing.assert_array_equal(batch.measurements.uv[b], problem.measurements.uv)
        r, J, w = assemble(problem)
        np.testing.assert_array_equal(residual[b], r)
        np.testing.assert_array_equal(batched[b], stacked_residual(problem))
        np.testing.assert_array_equal(dense[b], J.toarray())
        np.testing.assert_array_equal(weights, w)
        one = central_difference(lambda d: stacked_residual(problem.with_window(boxplus(problem.window, d))), dim)
        np.testing.assert_array_equal(numeric[b], one)


@pytest.mark.parametrize("trials", [1, 2, 3])
def test_stacked_shapes_without_a_trial_read_not_run(trials):
    # they used to read max rel err 0.000e+00, as if certified
    report = run_certification(seed=2, trials=trials)
    names = [f"n={n},N={N}" for n, N in checks.STACKED_SHAPES]
    assert list(report.stacked_errors) == names[:trials]
    stacked = [line.split() for line in report.lines() if line.lstrip().startswith("stacked")]
    assert [fields[1] for fields in stacked] == names
    assert [" ".join(fields[2:]) == "not run" for fields in stacked] == [k >= trials for k in range(4)]
    ran = {**report.imu_block_errors, **report.vision_block_errors, **report.stacked_errors}
    assert report.max_error == max(ran.values()) and report.passed


@pytest.mark.parametrize("table", ["imu_block_errors", "vision_block_errors", "stacked_errors"])
def test_a_nan_error_fails_the_certification(table):
    # Python's max skipped a NaN anywhere but first, so the report passed
    report = checks.CertificationReport(
        trials=4,
        seed=0,
        imu_block_errors={"r_rot/dR_i": 1e-9, "r_rot/dv_i": 2e-9},
        vision_block_errors={"dR": 1e-9, "dv": 0.0},
        stacked_errors={"n=2,N=1": 1e-9, "n=3,N=1": 3e-9},
    )
    errors = getattr(report, table)
    errors[list(errors)[1]] = math.nan
    assert math.isnan(report.max_error) and not report.passed
    assert report.lines()[-1] == "  FAIL (max nan, threshold 1e-05)"


def test_max_error_reads_only_the_checks_that_ran():
    report = checks.CertificationReport(trials=1, seed=0, imu_block_errors={"r_rot/dR_i": 2e-5})
    assert report.max_error == 2e-5 and not report.passed
    assert report.lines()[-1] == "  FAIL (max 2.000e-05, threshold 1e-05)"
    assert sum(line.endswith("not run") for line in report.lines()) == len(checks.STACKED_SHAPES)


@pytest.mark.parametrize(
    "check, jacobian, nan_at, nan_block",
    [
        # trial 2, row 4 (r_vel), column 10 (dR_j)
        ("certify_imu", "imu_residual_jacobian", (2, 4, 10), "r_vel/dR_j"),
        # trial 1, row 0, the pixel Jacobian's column 7: landmark column 1 (dp_l)
        ("certify_vision", "photometric_jacobian", (1, 0, 7), "dp_l"),
    ],
)
def test_block_tables_hold_each_blocks_relative_error_bit_for_bit(check, jacobian, nan_at, nan_block, monkeypatch):
    # the table comes from one reduction of the block grid; the reference takes
    # the relative error of each block on its own, and a NaN must stay in its block
    original = getattr(checks, jacobian)

    def with_nan(*args):
        result = original(*args)
        result[1][nan_at] = np.nan
        return result

    monkeypatch.setattr(checks, jacobian, with_nan)
    jacobians = _record_calls(monkeypatch, checks, jacobian)
    numerics = _record_calls(monkeypatch, checks, "central_difference")
    report = run_certification(seed=4, trials=5)
    [(_, (_, analytic))] = jacobians
    numeric = numerics[0 if check == "certify_imu" else 1][1]
    if check == "certify_imu":
        got = report.imu_block_errors
        blocks = {f"{r}/{c}": (rows, cols) for r, rows in checks._IMU_ROWS.items() for c, cols in checks._POSE_COLS.items()}
    else:
        got = report.vision_block_errors
        analytic, pixel = np.zeros_like(numeric), analytic
        analytic[..., checks._VISION_ENTRIES] = pixel
        blocks = {name: (slice(None), cols) for name, cols in checks._VISION_COLS.items()}
    want = {name: reference.relative_error(analytic[..., r, c], numeric[..., r, c]) for name, (r, c) in blocks.items()}
    assert list(got) == list(want)
    assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
    assert [name for name, err in got.items() if math.isnan(err)] == [nan_block]
    assert math.isnan(report.max_error) and not report.passed


def test_certification_flights_take_the_array_pass(monkeypatch):
    # the ten flights of a `certify` operation are checked in one pass over
    # their stacked inputs and their profiles evaluated in one broadcast
    def per_flight(*args):
        raise AssertionError("a certification flight took the per-flight path")

    monkeypatch.setattr(sim, "_checked_flight", per_flight)
    monkeypatch.setattr(sim, "evaluate_profile", per_flight)
    assert run_certification(seed=11, trials=10).passed
