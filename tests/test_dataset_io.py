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


def test_rejects_malformed_numbers():
    text = dumps(_dataset()).replace("camera focal 1.0", "camera focal one", 1)
    with pytest.raises(DatasetFormatError, match="malformed"):
        loads(text)


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
