import json
from pathlib import Path

import numpy as np
import pytest

from padvio import checks, cli
from padvio.dataset_io import read_dataset, write_dataset
from padvio.graph import PoseState, WindowState
from padvio.imu import ImuSample, WorldParams
from padvio.sim import CameraModel, Dataset
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
    assert len(dataset.imu_samples) == 120
    assert 2 * len(dataset.pixel_measurements) == 42


def test_simulate_minimal_window(tmp_path):
    cfg = _write_config(tmp_path, window_length=2)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    dataset = read_dataset(tmp_path / "dataset.txt")
    assert dataset.ground_truth.n == 2
    assert len(dataset.imu_samples) == 20


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
    ],
)
def test_config_value_rejected_exits_1(tmp_path, capsys, field, overrides):
    cfg = _write_config(tmp_path, **overrides)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"invalid config field {field}" in capsys.readouterr().err
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


def test_level_circle_config_keeps_every_measurement(tmp_path, capsys):
    # the many-marker configuration the CI run estimates twice and compares
    cfg = str(Path(__file__).parent / "data" / "level_circle_n12.json")
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "12 keyframes" in capsys.readouterr().out
    dataset = read_dataset(tmp_path / "dataset.txt")
    assert dataset.ground_truth.num_landmarks == 10
    assert len(dataset.pixel_measurements) == 12 * 10
    assert all(pose.p[2] < 0.0 for pose in dataset.ground_truth.poses)


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
    poses = [PoseState(np.eye(3), np.zeros(3), np.zeros(3)) for _ in range(2)]
    dataset = Dataset(
        ground_truth=WindowState(poses, np.array([[1.0, 0.0, 0.0]])),
        imu_samples=[ImuSample(np.zeros(3), np.zeros(3), 0.02) for _ in range(20)],
        pixel_measurements=[PixelMeasurement(1, 1, np.zeros(2))],
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
