import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from padvio import cli, dataset_io
from padvio.dataset_io import DatasetFormatError, dumps, loads, read_dataset, write_dataset, write_text
from padvio.imu import ImuSample, WorldParams
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


@pytest.mark.parametrize("flights", [3, 1])
def test_write_dataset_rejects_a_batch(flights, tmp_path):
    spec = TrajectorySpec(duration=1.2)
    batch = generate(
        [spec] * flights,
        [triangle_landmarks()] * flights,
        CameraModel(1.0),
        WorldParams(),
        [NoiseSpec(seed=seed) for seed in range(flights)],
    )
    message = rf"^write_dataset takes one flight, not a batch of shape \({flights},\)$"
    with pytest.raises(ValueError, match=message):
        dumps(batch)
    with pytest.raises(ValueError, match=message):
        write_dataset(batch, tmp_path / "dataset.txt")
    assert not (tmp_path / "dataset.txt").exists()


def test_round_trip_is_exact():
    original = _dataset()
    restored = loads(dumps(original))
    assert restored.imu_dt == original.imu_dt
    assert restored.camera_dt == original.camera_dt
    assert restored.cam.focal == original.cam.focal
    np.testing.assert_array_equal(restored.world.gravity, original.world.gravity)
    np.testing.assert_array_equal(restored.ground_truth.landmarks, original.ground_truth.landmarks)
    for field in ("R", "v", "p"):
        np.testing.assert_array_equal(
            getattr(restored.ground_truth.poses, field), getattr(original.ground_truth.poses, field)
        )
    for field in ("omega", "accel", "dt"):
        np.testing.assert_array_equal(getattr(restored.imu_samples, field), getattr(original.imu_samples, field))
    for field in ("frame_index", "landmark_id", "uv"):
        np.testing.assert_array_equal(
            getattr(restored.pixel_measurements, field), getattr(original.pixel_measurements, field)
        )


def test_file_round_trip(tmp_path):
    original = _dataset()
    path = tmp_path / "dataset.txt"
    write_dataset(original, path)
    restored = read_dataset(path)
    assert len(restored.imu_samples.dt) == len(original.imu_samples.dt)
    assert dumps(restored) == dumps(original)


def _random_floats(rng, count):
    """Finite floats of every exponent: random bit patterns, subnormals among
    them, plus the edge values that repr and the reader must keep."""
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    subnormals = rng.integers(1, 2**52, size=count // 8, dtype=np.uint64).view(np.float64)
    bits = rng.integers(0, 2**64, size=2 * count, dtype=np.uint64).view(np.float64)
    return rng.permutation(np.concatenate([edges, subnormals, bits[np.isfinite(bits)]])[:count])


def test_file_round_trip_keeps_the_bits_of_every_float(tmp_path):
    count = 3000  # samples, a multiple of the 3 keyframe intervals
    omega, accel, dt = np.split(_random_floats(np.random.default_rng(7), 7 * count), [3 * count, 6 * count])
    dt = np.abs(dt)
    dt[dt == 0.0] = 5e-324  # the reader rejects a dt that is not > 0
    samples = ImuSample(omega.reshape(count, 3), accel.reshape(count, 3), dt)
    original = replace(_dataset(), imu_samples=samples)
    path = tmp_path / "dataset.txt"
    write_dataset(original, path)
    restored = read_dataset(path)
    for field in ("omega", "accel", "dt"):
        assert getattr(restored.imu_samples, field).tobytes() == getattr(samples, field).tobytes()
    assert path.read_text(encoding="ascii") == dumps(original)


def _per_value_lines(key, ids, values):
    """A table's lines formatted one value at a time: each id as `%d`, each value as its repr."""
    columns = [np.asarray(column, dtype=float).reshape(len(column), -1) for column in values]
    return "".join(
        " ".join([key] + ["%d" % column[i] for column in ids] + [repr(x) for c in columns for x in c[i].tolist()])
        + "\n"
        for i in range(len(columns[0]))
    )


_BLOCK = dataset_io.BLOCK
_VARYING = np.random.default_rng(3).normal(size=(2 * _BLOCK, 2))


@pytest.mark.parametrize(
    "key,ids,values",
    [
        # constant in the first block, not in the second
        ("i", [], [_VARYING, np.r_[np.full(_BLOCK + 1, 0.001), 0.002, np.full(_BLOCK - 2, 0.001)]]),
        # a block of 0.0 with one -0.0, then a block of -0.0 alone
        ("i", [], [np.r_[np.zeros(_BLOCK - 1), -0.0, np.full(_BLOCK, -0.0)], np.zeros((2 * _BLOCK, 3))]),
        # the last block holds one row, so every column of it is constant
        ("l", [np.arange(1, _BLOCK + 2)], [_VARYING[: _BLOCK + 1], np.zeros(_BLOCK + 1)]),
        ("i", [], [_VARYING[:1], np.full(1, 0.5)]),
        # a constant id column still prints as an integer
        ("p", [np.full(_BLOCK + 1, 3), np.arange(_BLOCK + 1)], [_VARYING[: _BLOCK + 1]]),
    ],
    ids=["constant-in-one-block", "signed-zeros", "one-row-block", "one-row-table", "constant-id"],
)
def test_records_keep_the_bytes_of_per_value_repr(key, ids, values):
    # a column constant within a block goes into that block's template once
    assert "".join(dataset_io._records(key, ids, values)) == _per_value_lines(key, ids, values)


def test_dataset_io_peak_memory_stays_near_the_file_size(tmp_path):
    # 11,600 samples, a 1.5 MB file; holding every line or every field as a
    # Python object costs 4x the file to write and 7.8x to read
    config = replace(cli.load_config(str(Path(__file__).parent / "data" / "level_circle_n30.json")), imu_dt=0.001)
    dataset = cli.dataset_from_config(config)
    assert len(dataset.imu_samples.dt) == 11600
    path = tmp_path / "dataset.txt"
    peaks = []
    for run in (lambda: write_dataset(dataset, path), lambda: read_dataset(path)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert peaks[0] < size
    assert peaks[1] < 3.5 * size


def test_read_dataset_names_the_offset_of_a_non_ascii_byte(tmp_path):
    path = tmp_path / "dataset.txt"
    write_dataset(_dataset(), path)
    data = path.read_bytes()
    offset = data.rindex(b"\np ") + 1  # past the text layer's first 8 KiB chunk
    assert offset > 8192
    path.write_bytes(data[:offset] + b"\xb5" + data[offset + 1 :])
    line = data.count(b"\n", 0, offset) + 1
    with pytest.raises(DatasetFormatError, match=rf"^non-ASCII byte 0xb5 at byte offset {offset} \(line {line}\)$"):
        read_dataset(path)


def test_write_text_replaces_instead_of_truncating(tmp_path):
    path = tmp_path / "report.csv"
    path.write_bytes(b"old contents\n")
    with open(path, "rb") as held:
        write_text(path, "new\n")
        # the open handle still sees the old inode: the file was replaced, not rewritten
        assert held.read() == b"old contents\n"
    assert path.read_bytes() == b"new\n"


def test_a_failed_write_leaves_no_file_that_reads(tmp_path, monkeypatch):
    path = tmp_path / "dataset.txt"
    write_dataset(_dataset(), path)

    def no_text():
        raise RuntimeError("no text")
        yield

    # the first chunk is made before the old file is removed
    with pytest.raises(RuntimeError, match="no text"):
        write_text(path, no_text())
    assert path.read_text(encoding="ascii") == dumps(_dataset())

    records = dataset_io._records

    def fail_at_pixels(key, ids, values):
        if key == "p":
            raise RuntimeError("disk full")
        yield from records(key, ids, values)

    monkeypatch.setattr(dataset_io, "_records", fail_at_pixels)
    with pytest.raises(RuntimeError, match="disk full"):
        write_dataset(_dataset(seed=1), path)
    assert path.read_text(encoding="ascii").endswith("\npixels 12\n")
    with pytest.raises(DatasetFormatError, match="unexpected end of file, expected 'p' record"):
        read_dataset(path)


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
    # a short pixel count would load the first records and drop the rest
    "pixel-count-below-records": (
        lambda t: _edit_line(t, "pixels ", lambda f: ["pixels", str(int(f[1]) - 1)]),
        "extra record after the pixel section: 'p ",
    ),
    "short-principal-point": (
        lambda t: _edit_line(t, "camera principal_point", lambda f: f[:3]),
        "camera principal_point record has 1 values, expected 2",
    ),
    "two-landmark-counts": (
        lambda t: _edit_line(t, "landmarks ", lambda f: f + ["4"]),
        "landmarks record has 2 values, expected 1",
    ),
    "one-keyframe": (lambda t: _edit_line(t, "keyframes ", _set(1, "1")), "keyframes count 1 is below 2"),
    # float() and int() read underscores, which the writer never writes
    "underscore-in-focal": (
        lambda t: _edit_line(t, "camera focal", _set(2, "1_0.0")),
        "malformed camera focal record: '1_0.0'",
    ),
    "underscore-in-count": (lambda t: _edit_line(t, "landmarks ", _set(1, "0_3")), "malformed landmarks record: '0_3'"),
    "underscore-in-imu-value": (lambda t: _edit_line(t, "i ", _set(4, "1_0.0")), "malformed i record: 'i .* 1_0.0 "),
    "underscore-in-landmark-id": (lambda t: _edit_line(t, "l 1 ", _set(1, "0_1")), "malformed l record: 'l 0_1 "),
    # an id or a count is an integer: numpy's deprecated fallback would read 3.0 as 3
    "fraction-in-count": (lambda t: _edit_line(t, "landmarks ", _set(1, "3.0")), "malformed landmarks record: '3.0'"),
    "fraction-in-landmark-id": (lambda t: _edit_line(t, "l 1 ", _set(1, "1.5")), "malformed l record: 'l 1.5 "),
    "fraction-in-pixel-frame": (lambda t: _edit_line(t, "p ", _set(1, "1.0")), "malformed p record: 'p 1.0 "),
    # a non-finite value is shown as the file has it
    "overflowing-landmark": (
        lambda t: _edit_line(t, "l 1 ", _set(2, "1e500")),
        "l record has a non-finite value: 1e500 ",
    ),
    "nan-focal": (lambda t: _edit_line(t, "camera focal", _set(2, "NaN")), "camera focal record has a non-finite value: NaN$"),
    "appended-garbage-record": (
        lambda t: t + "garbage record 1 2 3\n",
        "extra record after the pixel section: 'garbage record 1 2 3'",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_rejects_malformed_numbers(case):
    corrupt, message = MALFORMED[case]
    text = dumps(_dataset())
    corrupted = corrupt(text)
    assert corrupted != text
    with pytest.raises(DatasetFormatError, match=message):
        loads(corrupted)


def test_an_integer_read_via_a_float_is_malformed(monkeypatch):
    # numpy 1.23 to its removal read "3.0" in an integer field as 3 with only a
    # DeprecationWarning; stand in for that fallback on a numpy without it
    loadtxt = np.loadtxt

    def loadtxt_with_fallback(lines, dtype, **kwargs):
        if np.dtype(dtype) == np.intp:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return np.array([3])
        return loadtxt(lines, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt_with_fallback)
    text = _edit_line(dumps(_dataset()), "landmarks ", _set(1, "3.0"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # as outside __main__
        with pytest.raises(DatasetFormatError, match="^malformed landmarks record: '3.0'$"):
            loads(text)


def test_names_the_first_keyframe_that_is_not_a_rotation():
    text = dumps(_dataset())
    for frame in (4, 3):
        text = _edit_line(text, f"k {frame} ", _set(3, "0.5"))
    with pytest.raises(DatasetFormatError, match="keyframe 3 attitude is not a rotation"):
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
