import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from padvio import checks, cli, sim
from padvio.dataset_io import dumps, read_dataset, write_dataset
from padvio.graph import PoseState, WindowState
from padvio.imu import ImuSample, WorldParams
from padvio.sim import CameraModel, Dataset, NoiseSpec, TrajectorySpec
from padvio.solver import SolverConfig, solve
from padvio.vision import PixelMeasurement


def _write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return str(path)


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_simulate_default_config_counts(tmp_path, capsys):
    assert cli.main(["simulate", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "7 keyframes, 120 imu samples, 42 measurements" in out
    dataset = read_dataset(tmp_path / "dataset.txt")
    assert dataset.ground_truth.n == 7
    assert len(dataset.imu_samples.dt) == 120
    assert 2 * len(dataset.pixel_measurements) == 42


def test_simulate_minimal_window(tmp_path):
    cfg = _write_config(tmp_path, window_length=2)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    dataset = read_dataset(tmp_path / "dataset.txt")
    assert dataset.ground_truth.n == 2
    assert len(dataset.imu_samples.dt) == 20


def test_simulate_same_seed_byte_identical(tmp_path):
    for sub in ("a", "b"):
        assert cli.main(["simulate", "--seed", "11", "--out", str(tmp_path / sub)]) == 0
    a = (tmp_path / "a" / "dataset.txt").read_bytes()
    b = (tmp_path / "b" / "dataset.txt").read_bytes()
    assert a == b
    assert cli.main(["simulate", "--seed", "11", "--out", str(tmp_path / "a")]) == 0
    assert (tmp_path / "a" / "dataset.txt").read_bytes() == a  # a rerun into the same directory
    assert cli.main(["simulate", "--seed", "12", "--out", str(tmp_path / "c")]) == 0
    assert a != (tmp_path / "c" / "dataset.txt").read_bytes()


def test_simulate_warns_below_landmark_minimum(tmp_path, capsys):
    cfg = _write_config(tmp_path, window_length=2, landmarks=[[0.5, 0.0, 0.0]])
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "below the necessary minimum" in capsys.readouterr().err


def test_unknown_config_field_exits_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, window_size=7)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "window_size" in capsys.readouterr().err


def test_invalid_config_value_exits_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, damping=-0.5)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "damping" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("seed", {"seed": "abc"}),
        ("seed", {"seed": -1}),
        ("iterations", {"iterations": True}),
        ("constrain_altitude", {"constrain_altitude": "no"}),
        ("angular_profile", {"angular_profile": {"name": "sinusoid", "amplitude": "x"}}),
        ("accel_profile", {"accel_profile": {"name": "constant", "value": [1.0, 2.0]}}),
        ("accel_profile", {"accel_profile": {"name": "spiral"}}),
        ("accel_profile", {"accel_profile": {"name": "constant", "value": None}}),
        ("damping", {"damping": True}),
        ("landmarks", {"landmarks": [["a", 0.0, 0.0]]}),
        ("imu_dt", {"imu_dt": 0.03}),
        ("imu_dt", {"imu_dt": 0.5}),
        ("initial_position", {"initial_position": [math.nan, 0.0, -4.0]}),
        ("initial_velocity", {"initial_velocity": [0.0, math.inf, 0.0]}),
        ("gravity", {"gravity": [0.0, 0.0, math.inf]}),
        ("principal_point", {"principal_point": [-math.inf, 0.0]}),
        ("landmarks", {"landmarks": [[0.5, 0.0, 0.0], [math.inf, 0.0, 0.0]]}),
        ("damping", {"damping": math.nan}),
        ("imu_noise_variance", {"imu_noise_variance": math.nan}),
        ("pixel_noise_variance", {"pixel_noise_variance": math.inf}),
        ("convergence_tol", {"convergence_tol": math.nan}),
        ("focal", {"focal": math.inf}),
        ("photometric_weight", {"photometric_weight": math.inf}),
        ("init", {"init": "warm"}),
        ("angular_profile", {"angular_profile": ["constant", [0.05, -0.04, 0.12]]}),
    ],
)
def test_config_value_rejected_exits_1(tmp_path, capsys, field, overrides):
    cfg = _write_config(tmp_path, **overrides)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"invalid config field {field}" in capsys.readouterr().err
    assert not (tmp_path / "dataset.txt").exists()


def _generate(focal=1.0, gravity=(0.0, 0.0, 9.81), landmarks=None, noise=None, **spec):
    """The reference flight through sim.generate, with the given inputs replaced."""
    landmarks = sim.triangle_landmarks(1.0) if landmarks is None else landmarks
    spec = TrajectorySpec(duration=2.4, **spec)
    return sim.generate(spec, landmarks, CameraModel(focal), WorldParams(gravity), noise or NoiseSpec())


def _reference_problem(photometric_weight=1000.0):
    dataset = cli.dataset_from_config(cli.ExperimentConfig())
    return sim.make_problem(dataset, dataset.ground_truth.copy(), photometric_weight)


# each config field the library also takes: the config value holding a bad
# entry v, the library call given that value, the library's name for it, and
# the bad entries that apply (-1 is a valid gravity entry; the landmark entry
# is an altitude, where -1 is off the ground plane)
_BAD = (True, "1", math.nan, -1)
_SHARED_FIELDS = [
    ("focal", lambda v: v, lambda v: _generate(focal=v), "cam.focal", _BAD),
    ("imu_dt", lambda v: v, lambda v: _generate(imu_dt=v), "imu_dt", _BAD),
    ("gravity", lambda v: [0.0, 0.0, v], lambda g: _generate(gravity=g), "world.gravity", _BAD[:3]),
    ("imu_noise_variance", lambda v: v, lambda v: _generate(noise=NoiseSpec(imu_noise_variance=v)),
     "noise.imu_noise_variance", _BAD),
    ("pixel_noise_variance", lambda v: v, lambda v: _generate(noise=NoiseSpec(pixel_noise_variance=v)),
     "noise.pixel_noise_variance", _BAD),
    ("seed", lambda v: v, lambda v: _generate(noise=NoiseSpec(seed=v)), "noise.seed", _BAD),
    ("seed", lambda v: v, lambda v: checks.run_certification(seed=v, trials=1), "seed", _BAD),
    ("damping", lambda v: v, lambda v: solve(_reference_problem(), SolverConfig(damping=v)), "damping", _BAD),
    ("iterations", lambda v: v, lambda v: solve(_reference_problem(), SolverConfig(max_iterations=v)),
     "max_iterations", _BAD),
    ("photometric_weight", lambda v: v, _reference_problem, "photometric_weight", _BAD),
    ("landmarks", lambda v: [[0.5, 0.0, v]], lambda pad: _generate(landmarks=pad), "landmarks", _BAD),
]


@pytest.mark.parametrize(
    "field, value, call, name",
    [
        pytest.param(field, wrap(v), call, name, id=f"{name}-{v!r}")
        for field, wrap, call, name, bad in _SHARED_FIELDS
        for v in bad
    ],
)
def test_config_check_and_library_reject_the_same_values(tmp_path, capsys, field, value, call, name):
    # one rule per input: the CLI names the config field, the library its own name
    cfg = _write_config(tmp_path, **{field: value})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"invalid config field {field}: " in capsys.readouterr().err
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must "):
        call(value)


def test_misspelled_profile_parameter_exits_1(tmp_path, capsys):
    # read as the default zero, "valeu" used to simulate free fall and exit 0
    cfg = _write_config(tmp_path, accel_profile={"name": "constant", "valeu": [0.25, 0.15, -9.51]})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "invalid config field accel_profile" in err and "'valeu'" in err
    assert not (tmp_path / "dataset.txt").exists()


def test_profile_name_not_a_string_exits_1(tmp_path, capsys):
    # a list name used to reach the config check as a bare TypeError: unhashable type: 'list'
    cfg = _write_config(tmp_path, angular_profile={"name": ["constant"]})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "invalid config field angular_profile: unknown profile name: ['constant']" in err
    assert "unhashable" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read config file"),
        ("{ not json", "config file is not valid JSON"),
        ("[1, 2]", "config file must hold a JSON object"),
    ],
)
def test_unreadable_config_file_exits_1(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "dataset.txt").exists()


def test_negative_seed_flag_exits_1(tmp_path, capsys):
    assert cli.main(["simulate", "--seed", "-1", "--out", str(tmp_path)]) == 1
    assert "invalid config field seed" in capsys.readouterr().err


def test_check_jacobians_negative_seed_exits_1(capsys):
    assert cli.main(["check-jacobians", "--seed", "-1", "--trials", "1"]) == 1
    assert "config error: invalid config field seed" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_check_jacobians_without_trials_exits_1(capsys, trials):
    assert cli.main(["check-jacobians", "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert "config error: invalid trials" in captured.err
    assert "PASS" not in captured.out


def test_estimate_rejects_boolean_iterations(tmp_path, capsys):
    assert cli.main(["simulate", "--out", str(tmp_path)]) == 0
    cfg = _write_config(tmp_path, iterations=True)
    assert cli.main(["estimate", str(tmp_path / "dataset.txt"), "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "invalid config field iterations" in capsys.readouterr().err


def test_check_jacobians_lets_certification_errors_through(monkeypatch, capsys):
    # a ValueError inside the certification used to be reported as "invalid trials",
    # and then left the CLI with exit 1, the config-error code
    def log_map_failure(rng, trials):
        raise ValueError("log_map: rotation angle 3.141592 rad is within 1e-06 of pi")

    monkeypatch.setattr(checks, "certify_stacked", log_map_failure)
    assert cli.main(["check-jacobians", "--trials", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "ValueError: log_map: " in err
    assert "config error" not in err


def test_estimate_dataset_with_bad_record_id_exits_1(tmp_path, capsys):
    assert cli.main(["simulate", "--out", str(tmp_path)]) == 0
    path = tmp_path / "dataset.txt"
    text = path.read_text()
    first_pixel = text.index("\np 1 ") + 1
    path.write_text(text[:first_pixel] + "p 8" + text[first_pixel + 3 :])  # frame 8 of 7
    assert cli.main(["estimate", str(path), "--out", str(tmp_path)]) == 1
    assert "bad dataset file" in capsys.readouterr().err


def test_estimate_dataset_with_nan_pixel_exits_1(tmp_path, capsys):
    assert cli.main(["simulate", "--out", str(tmp_path)]) == 0
    path = tmp_path / "dataset.txt"
    text = path.read_text()
    start = text.index("\np 1 1 ") + len("\np 1 1 ")
    end = text.index(" ", start)
    path.write_text(text[:start] + "nan" + text[end:])  # pixel u of frame 1, landmark 1
    assert cli.main(["estimate", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "bad dataset file" in err and "non-finite" in err


def test_missing_dataset_exits_1(tmp_path, capsys):
    assert cli.main(["estimate", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]) == 1
    assert "dataset" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, digest",
    [
        (None, "493240c54171ca99834513d9ed3c5b5ceb6c41f2b312c86544d3ac25e54a9234"),
        ("high_rate_imu.json", "c9cdb672d7bbf82cfe9ba7832e7a88ec94e1bc157d491e54385db97d78594484"),
        ("level_circle_n12.json", "e276c1695a14ac09b3a941a57916fda9c23b33b5139abf7f2e8c9eb770a337e3"),
        ("sinusoid_moving.json", "0d2a2e2ce0dbd0ebaa872a8fd3e7130be781fb1f58332eb03a1fb911cd356e20"),
    ],
)
def test_simulated_dataset_matches_golden_digest(config, digest):
    # the seed-0 dataset bytes are pinned: a faster simulator must keep every bit
    path = None if config is None else str(Path(__file__).parent / "data" / config)
    dataset = cli.dataset_from_config(cli.load_config(path))
    assert hashlib.sha256(dumps(dataset).encode("ascii")).hexdigest() == digest


def test_level_circle_config_keeps_every_measurement(tmp_path, capsys):
    # the many-marker configuration the CI run estimates twice and compares
    cfg = str(Path(__file__).parent / "data" / "level_circle_n12.json")
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "12 keyframes" in capsys.readouterr().out
    dataset = read_dataset(tmp_path / "dataset.txt")
    assert dataset.ground_truth.num_landmarks == 10
    assert len(dataset.pixel_measurements) == 12 * 10
    assert all(pose.p[2] < 0.0 for pose in dataset.ground_truth.poses)


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("flag", [[], ["--no-constraint"]])
def test_console_estimate_pins_one_blas_thread_by_default(tmp_path, flag):
    # 16 keyframes and 13 markers: the reduction's tail is 8 keyframes plus the
    # free landmark entries, 72 + 2 * 13 = 98 columns and 72 + 3 * 13 = 111
    # with --no-constraint, past the 96 columns where threaded LAPACK changes bits
    cfg = str(Path(__file__).parent / "data" / "level_circle_n16_ring13.json")
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    src = str(Path(__file__).parents[1] / "src")
    # importing padvio here has set the variables in this process, so drop them
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREADS}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    reports = {}
    for name, threads in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name
        command = [sys.executable, "-m", "padvio.cli", "estimate", str(tmp_path / "dataset.txt"), "--config", cfg]
        subprocess.run(command + flag + ["--out", str(out)], env={**env, **threads}, check=True, capture_output=True)
        reports[name] = [(out / f).read_bytes() for f in ("convergence.csv", "pose_errors.csv", "landmark_errors.csv")]
    assert reports["unset"] == reports["one"]


def test_high_rate_imu_config_simulates_every_sample(tmp_path, capsys):
    # the 1 kHz IMU configuration the CI run estimates twice and compares
    cfg = str(Path(__file__).parent / "data" / "high_rate_imu.json")
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "7 keyframes, 2400 imu samples, 42 measurements" in capsys.readouterr().out
    dataset = read_dataset(tmp_path / "dataset.txt")
    assert dataset.imu_dt == 0.001
    assert len(dataset.imu_samples.dt) == 2400
    assert len(dataset.pixel_measurements) == 7 * 3


def test_estimate_writes_reports(tmp_path):
    out = str(tmp_path)
    assert cli.main(["simulate", "--out", out]) == 0
    assert cli.main(["estimate", str(tmp_path / "dataset.txt"), "--out", out]) == 0
    header, rows = _read_csv(tmp_path / "convergence.csv")
    assert header == ["iteration", "cost", "step_norm"]
    assert len(rows) == 50
    assert float(rows[-1][1]) <= 0.01 * float(rows[0][1])

    header, rows = _read_csv(tmp_path / "pose_errors.csv")
    assert header == ["frame", "dx", "dy", "dz", "rot_angle_error_rad"]
    assert len(rows) == 7
    assert rows[0] == ["1", "0.0", "0.0", "0.0", "0.0"]  # fixed prior

    header, rows = _read_csv(tmp_path / "landmark_errors.csv")
    assert header == ["id", "dx", "dy", "dz"]
    assert [r[3] for r in rows] == ["0.0", "0.0", "0.0"]  # constrained altitudes

    header, rows = _read_csv(tmp_path / "summary.csv")
    assert header[:5] == ["keyframes", "landmarks", "imu_samples", "measurements", "iterations"]
    assert rows[0][:5] == ["7", "3", "120", "42", "50"]
    assert float(rows[0][7]) > 0.0  # wall clock


def test_estimate_reads_records_in_any_id_order(tmp_path):
    # the format allows l, k and p records in any order; ids place them
    assert cli.main(["simulate", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "dataset.txt").read_text().splitlines()
    for key in ("l", "k", "p"):
        rows = [k for k, line in enumerate(lines) if line.split()[0] == key]
        section = slice(rows[0], rows[-1] + 1)
        lines[section] = lines[section][::-1]
    reversed_path = tmp_path / "reversed.txt"
    reversed_path.write_text("\n".join(lines) + "\n")
    assert reversed_path.read_bytes() != (tmp_path / "dataset.txt").read_bytes()
    assert cli.main(["estimate", str(tmp_path / "dataset.txt"), "--out", str(tmp_path / "in_order")]) == 0
    assert cli.main(["estimate", str(reversed_path), "--out", str(tmp_path / "reversed")]) == 0
    for name in ("convergence.csv", "pose_errors.csv", "landmark_errors.csv"):
        assert (tmp_path / "reversed" / name).read_bytes() == (tmp_path / "in_order" / name).read_bytes()


def test_estimate_truth_init_noise_free_has_zero_errors(tmp_path):
    cfg = _write_config(tmp_path, imu_noise_variance=0.0, pixel_noise_variance=0.0, init="truth")
    out = str(tmp_path)
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    assert cli.main(["estimate", str(tmp_path / "dataset.txt"), "--config", cfg, "--out", out]) == 0
    _, rows = _read_csv(tmp_path / "pose_errors.csv")
    for row in rows:
        assert all(abs(float(x)) < 1e-9 for x in row[1:])
    _, rows = _read_csv(tmp_path / "landmark_errors.csv")
    for row in rows:
        assert all(abs(float(x)) < 1e-9 for x in row[1:])


def test_estimate_no_constraint_frees_altitudes(tmp_path):
    out = str(tmp_path)
    assert cli.main(["simulate", "--out", out]) == 0
    assert cli.main(
        ["estimate", str(tmp_path / "dataset.txt"), "--out", out, "--no-constraint"]
    ) == 0
    _, rows = _read_csv(tmp_path / "landmark_errors.csv")
    assert any(r[3] != "0.0" for r in rows)


def test_estimate_flag_overrides(tmp_path):
    out = str(tmp_path)
    assert cli.main(["simulate", "--out", out]) == 0
    assert cli.main(
        ["estimate", str(tmp_path / "dataset.txt"), "--out", out, "--iterations", "7", "--damping", "0.2"]
    ) == 0
    _, rows = _read_csv(tmp_path / "convergence.csv")
    assert len(rows) == 7


def test_estimate_rerun_replaces_longer_reports(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["simulate", "--out", str(data)]) == 0
    dataset = str(data / "dataset.txt")
    reused, fresh = str(tmp_path / "reused"), str(tmp_path / "fresh")
    assert cli.main(["estimate", dataset, "--out", reused]) == 0
    assert cli.main(["estimate", dataset, "--out", reused, "--iterations", "3"]) == 0
    assert cli.main(["estimate", dataset, "--out", fresh, "--iterations", "3"]) == 0
    _, rows = _read_csv(tmp_path / "reused" / "convergence.csv")
    assert len(rows) == 3
    for name in ("convergence.csv", "pose_errors.csv", "landmark_errors.csv"):
        assert (tmp_path / "reused" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def _degenerate_dataset(tmp_path):
    # camera center on the ground plane: the only landmark projects at depth 0
    poses = PoseState(np.tile(np.eye(3), (2, 1, 1)), np.zeros((2, 3)), np.zeros((2, 3)))
    dataset = Dataset(
        ground_truth=WindowState(poses, np.array([[1.0, 0.0, 0.0]])),
        imu_samples=ImuSample(np.zeros((20, 3)), np.zeros((20, 3)), np.full(20, 0.02)),
        pixel_measurements=PixelMeasurement(np.array([1]), np.array([1]), np.zeros((1, 2))),
        cam=CameraModel(1.0),
        world=WorldParams(np.zeros(3)),
        imu_dt=0.02,
        camera_dt=0.4,
    )
    path = tmp_path / "degenerate.txt"
    write_dataset(dataset, path)
    return str(path)


def test_estimate_solver_failure_exits_2_with_partial_file(tmp_path, capsys):
    path = _degenerate_dataset(tmp_path)
    cfg = _write_config(tmp_path, init="truth")
    assert cli.main(["estimate", path, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "iteration 1" in err and "landmark 1" in err
    header, rows = _read_csv(tmp_path / "convergence.csv")
    assert header == ["iteration", "cost", "step_norm"]
    assert rows == []  # aborted before the first cost was recorded


def test_estimate_solver_failure_removes_earlier_reports(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--out", str(tmp_path)]) == 0
    assert cli.main(["estimate", str(tmp_path / "dataset.txt"), "--out", str(out)]) == 0
    cfg = _write_config(tmp_path, init="truth")
    assert cli.main(["estimate", _degenerate_dataset(tmp_path), "--config", cfg, "--out", str(out)]) == 2
    header, rows = _read_csv(out / "convergence.csv")
    assert header == ["iteration", "cost", "step_norm"]
    assert rows == []
    for name in ("pose_errors.csv", "landmark_errors.csv", "summary.csv"):
        assert not (out / name).exists()


def test_estimate_unmeasured_marker_without_damping_exits_2(tmp_path, capsys, caplog):
    # with marker 3 never seen and no damping, the first step's system is rank deficient
    out = tmp_path / "out"
    assert cli.main(["simulate", "--out", str(tmp_path)]) == 0
    assert cli.main(["estimate", str(tmp_path / "dataset.txt"), "--out", str(out)]) == 0
    lines = (tmp_path / "dataset.txt").read_text().splitlines()
    kept = [line for line in lines if not (line.startswith("p ") and line.split()[2] == "3")]
    pixels = next(k for k, line in enumerate(kept) if line.startswith("pixels "))
    kept[pixels] = f"pixels {sum(line.startswith('p ') for line in kept)}"
    path = tmp_path / "unmeasured.txt"
    path.write_text("\n".join(kept) + "\n")
    assert cli.main(["estimate", str(path), "--out", str(out), "--damping", "0"]) == 2
    assert "landmark 3 never measured" in caplog.text
    assert "solver failed: iteration 1" in capsys.readouterr().err
    header, rows = _read_csv(out / "convergence.csv")
    assert header == ["iteration", "cost", "step_norm"]
    assert len(rows) == 1 and rows[0][0] == "1" and float(rows[0][1]) > 0.0 and rows[0][2] == ""
    for name in ("pose_errors.csv", "landmark_errors.csv", "summary.csv"):
        assert not (out / name).exists()


def test_check_jacobians_passes(capsys):
    assert cli.main(["check-jacobians", "--trials", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "velocity block identically zero: yes" in out
    assert "PASS" in out


def test_check_jacobians_corrupt_hook_fails(capsys, monkeypatch):
    original = checks.imu_residual_jacobian

    def wrong_jacobian(*args):
        r, J = original(*args)
        J[0, 0] += 1e-3
        return r, J

    monkeypatch.setattr(checks, "imu_residual_jacobian", wrong_jacobian)
    assert cli.main(["check-jacobians", "--trials", "3"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_check_jacobians_fails_on_a_nan_block_error(capsys, monkeypatch):
    # a NaN error used to be skipped by max(): the vision dp line read nan, the verdict PASS and the exit code 0
    original = checks.photometric_jacobian

    def nan_jacobian(*args):
        r, J = original(*args)
        J[..., 0, 4] = np.nan
        return r, J

    monkeypatch.setattr(checks, "photometric_jacobian", nan_jacobian)
    assert cli.main(["check-jacobians", "--trials", "3"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert any(line.split()[:2] == ["vision", "dp"] and line.endswith("max rel err nan") for line in lines)
    assert lines[-1] == "  FAIL (max nan, threshold 1e-05)"
