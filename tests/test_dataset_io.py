import numpy as np
import pytest

from padvio.dataset_io import DatasetFormatError, dumps, loads, read_dataset, write_dataset, write_text
from padvio.imu import WorldParams
from padvio.sim import CameraModel, NoiseSpec, Profile, TrajectorySpec, generate, triangle_landmarks


def _dataset(seed=0):
    spec = TrajectorySpec(
        duration=1.2,
        angular_profile=Profile("constant", {"value": [0.03, -0.02, 0.08]}),
        accel_profile=Profile("constant", {"value": [0.2, 0.1, -9.6]}),
    )
    return generate(
        spec, triangle_landmarks(), CameraModel(1.0), WorldParams(), NoiseSpec(seed=seed)
    )


def test_round_trip_is_exact():
    original = _dataset()
    restored = loads(dumps(original))
    assert restored.imu_dt == original.imu_dt
    assert restored.camera_dt == original.camera_dt
    assert restored.cam.focal == original.cam.focal
    np.testing.assert_array_equal(restored.world.gravity, original.world.gravity)
    np.testing.assert_array_equal(restored.ground_truth.landmarks, original.ground_truth.landmarks)
    for a, b in zip(restored.ground_truth.poses, original.ground_truth.poses):
        np.testing.assert_array_equal(a.R, b.R)
        np.testing.assert_array_equal(a.v, b.v)
        np.testing.assert_array_equal(a.p, b.p)
    for a, b in zip(restored.imu_samples, original.imu_samples):
        np.testing.assert_array_equal(a.omega, b.omega)
        np.testing.assert_array_equal(a.accel, b.accel)
        assert a.dt == b.dt
    for a, b in zip(restored.pixel_measurements, original.pixel_measurements):
        assert (a.frame_index, a.landmark_id) == (b.frame_index, b.landmark_id)
        np.testing.assert_array_equal(a.uv, b.uv)


def test_file_round_trip(tmp_path):
    original = _dataset()
    path = tmp_path / "dataset.txt"
    write_dataset(original, path)
    restored = read_dataset(path)
    assert len(restored.imu_samples) == len(original.imu_samples)
    assert dumps(restored) == dumps(original)


def test_write_text_replaces_instead_of_truncating(tmp_path):
    path = tmp_path / "report.csv"
    path.write_bytes(b"old contents\n")
    with open(path, "rb") as held:
        write_text(path, "new\n")
        # the open handle still sees the old inode: the file was replaced, not rewritten
        assert held.read() == b"old contents\n"
    assert path.read_bytes() == b"new\n"


def test_write_text_replaces_symlink_with_regular_file(tmp_path):
    target = tmp_path / "target.txt"
    target.write_bytes(b"target\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_text(link, "new\n")
    assert not link.is_symlink() and link.read_bytes() == b"new\n"
    assert target.read_bytes() == b"target\n"


def test_same_seed_serializes_byte_identical():
    assert dumps(_dataset(seed=4)) == dumps(_dataset(seed=4))
    assert dumps(_dataset(seed=4)) != dumps(_dataset(seed=5))


def test_rejects_unknown_version():
    text = dumps(_dataset()).replace("padvio-dataset v1", "padvio-dataset v9", 1)
    with pytest.raises(DatasetFormatError, match="version"):
        loads(text)


def test_rejects_wrong_magic():
    with pytest.raises(DatasetFormatError):
        loads("padvio-report v1\n")


def test_rejects_truncated_file():
    text = dumps(_dataset())
    truncated = "\n".join(text.splitlines()[:10])
    with pytest.raises(DatasetFormatError):
        loads(truncated)


def _edit_line(text, prefix, edit):
    """Apply `edit` to the fields of the first line that starts with `prefix`."""
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[k] = " ".join(edit(lines[k].split()))
    return "\n".join(lines) + "\n"


def _swap_lines(text, first, second):
    lines = text.splitlines()
    i, j = lines.index(first), lines.index(second)
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def _drop_one_sample(text):
    # 59 samples cannot split into the 3 keyframe intervals of a 4-frame dataset
    text = _edit_line(text, "imu ", lambda f: ["imu", str(int(f[1]) - 1)])
    return _edit_line(text, "i ", lambda f: [])


def _set(index, value):
    return lambda fields: fields[:index] + [value] + fields[index + 1 :]


MALFORMED = {
    "focal-not-a-number": (lambda t: _edit_line(t, "camera focal", _set(2, "one")), "malformed"),
    "nan-pixel-u": (lambda t: _edit_line(t, "p ", _set(3, "nan")), "p record has a non-finite value"),
    "inf-landmark": (lambda t: _edit_line(t, "l 1 ", _set(2, "inf")), "l record has a non-finite value"),
    "nan-imu-value": (lambda t: _edit_line(t, "i ", _set(4, "nan")), "i record has a non-finite value"),
    "zero-focal": (lambda t: _edit_line(t, "camera focal", _set(2, "0.0")), "camera focal must be positive"),
    "negative-camera-dt": (
        lambda t: _edit_line(t, "timing camera_dt", _set(2, "-0.4")),
        "timing camera_dt must be positive",
    ),
    "negative-sample-dt": (lambda t: _edit_line(t, "i ", _set(7, "-0.02")), "imu sample dt must be positive"),
    "swapped-camera-lines": (
        lambda t: _swap_lines(t, "camera focal 1.0", "camera principal_point 0.0 0.0"),
        "expected camera focal",
    ),
    "swapped-timing-lines": (
        lambda t: _swap_lines(t, "timing imu_dt 0.02", "timing camera_dt 0.4"),
        "expected timing imu_dt",
    ),
    "extra-landmark-field": (lambda t: _edit_line(t, "l 1 ", lambda f: f + ["0.0"]), "4 values, expected 3"),
    "keyframe-not-a-rotation": (
        lambda t: _edit_line(t, "k 2 ", _set(2, "2.0")),
        "keyframe 2 attitude is not a rotation",
    ),
    "imu-count-not-a-multiple": (_drop_one_sample, "not a multiple of the 3 keyframe intervals"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_rejects_malformed_numbers(case):
    corrupt, message = MALFORMED[case]
    text = dumps(_dataset())
    corrupted = corrupt(text)
    assert corrupted != text
    with pytest.raises(DatasetFormatError, match=message):
        loads(corrupted)


def _replace_record(text, old_prefix, new_prefix):
    assert ("\n" + old_prefix) in text
    return text.replace("\n" + old_prefix, "\n" + new_prefix, 1)


def test_rejects_landmark_id_zero():
    # id 0 would otherwise wrap to the last landmark and leave landmark 1 at the origin
    text = _replace_record(dumps(_dataset()), "l 1 ", "l 0 ")
    with pytest.raises(DatasetFormatError, match="landmark id 0"):
        loads(text)


def test_rejects_landmark_id_above_count():
    text = _replace_record(dumps(_dataset()), "l 3 ", "l 4 ")
    with pytest.raises(DatasetFormatError, match="landmark id 4"):
        loads(text)


def test_rejects_repeated_keyframe_index():
    text = _replace_record(dumps(_dataset()), "k 2 ", "k 1 ")
    with pytest.raises(DatasetFormatError, match="repeated keyframe id 1"):
        loads(text)


def test_rejects_repeated_landmark_id():
    text = _replace_record(dumps(_dataset()), "l 2 ", "l 3 ")
    with pytest.raises(DatasetFormatError, match="repeated landmark id 3"):
        loads(text)


@pytest.mark.parametrize("record, what", [("p 5 1 ", "pixel keyframe id 5"), ("p 1 0 ", "pixel landmark id 0")])
def test_rejects_pixel_record_out_of_range(record, what):
    dataset = _dataset()
    assert dataset.ground_truth.n == 4
    text = _replace_record(dumps(dataset), "p 1 1 ", record)
    with pytest.raises(DatasetFormatError, match=what):
        loads(text)
