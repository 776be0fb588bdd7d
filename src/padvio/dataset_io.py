"""Dataset file format: a single self-describing decimal-text file.

Layout (one record per line, space separated, floats written with shortest
round-trip precision so files are byte-reproducible):

    padvio-dataset v1
    world gravity <gx> <gy> <gz>
    camera focal <f>
    camera principal_point <cx> <cy>
    timing imu_dt <dt>
    timing camera_dt <dt>
    landmarks <N>
    l <id> <x> <y> <z>                      ... N lines, ids 1..N once each
    keyframes <n>
    k <index> <r11..r33 row-major> <vx vy vz> <px py pz>   ... n lines, 1..n once each
    imu <count>
    i <wx wy wz> <ax ay az> <dt>            ... count lines
    pixels <count>
    p <frame> <landmark> <u> <v>            ... count lines, ids in 1..n and 1..N

Every file padvio writes, this one and the CLI reports, goes through
`write_text`, which replaces the file instead of rewriting it in place.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List

import numpy as np

from .graph import PoseState, WindowState
from .imu import ImuSample, WorldParams
from .manifold import is_rotation
from .sim import Dataset
from .vision import CameraModel, PixelMeasurement

MAGIC = "padvio-dataset"
VERSION = "v1"


def fmt(x: float) -> str:
    """Shortest decimal text that reads back as the same float."""
    return repr(float(x))


def _fmt_vec(v) -> str:
    return " ".join(map(repr, np.asarray(v, dtype=float).reshape(-1).tolist()))


def dumps(dataset: Dataset) -> str:
    truth = dataset.ground_truth
    lines = [f"{MAGIC} {VERSION}"]
    lines.append(f"world gravity {_fmt_vec(dataset.world.gravity)}")
    lines.append(f"camera focal {fmt(dataset.cam.focal)}")
    lines.append(f"camera principal_point {_fmt_vec(dataset.cam.principal_point)}")
    lines.append(f"timing imu_dt {fmt(dataset.imu_dt)}")
    lines.append(f"timing camera_dt {fmt(dataset.camera_dt)}")
    lines.append(f"landmarks {truth.num_landmarks}")
    for i, lm in enumerate(truth.landmarks, start=1):
        lines.append(f"l {i} {_fmt_vec(lm)}")
    lines.append(f"keyframes {truth.n}")
    for i, pose in enumerate(truth.poses, start=1):
        lines.append(f"k {i} {_fmt_vec(pose.R)} {_fmt_vec(pose.v)} {_fmt_vec(pose.p)}")
    lines.append(f"imu {len(dataset.imu_samples)}")
    for s in dataset.imu_samples:
        lines.append(f"i {_fmt_vec(s.omega)} {_fmt_vec(s.accel)} {fmt(s.dt)}")
    lines.append(f"pixels {len(dataset.pixel_measurements)}")
    for m in dataset.pixel_measurements:
        lines.append(f"p {m.frame_index} {m.landmark_id} {_fmt_vec(m.uv)}")
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    """Replace the file (or symlink) at `path` with a new ASCII file.

    Truncating a non-empty file in place makes ext4 (auto_da_alloc) flush
    its data on close, tens of ms per write; unlinking first avoids that.
    No fsync: padvio does not promise durable output.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_text(text, encoding="ascii", newline="\n")


def write_dataset(dataset: Dataset, path) -> None:
    write_text(path, dumps(dataset))


class DatasetFormatError(ValueError):
    pass


class _Reader:
    def __init__(self, text: str):
        self.lines = [ln for ln in text.splitlines() if ln.strip()]
        self.pos = 0

    def next(self, expect: str) -> List[str]:
        if self.pos >= len(self.lines):
            raise DatasetFormatError(f"unexpected end of file, expected {expect!r} record")
        fields = self.lines[self.pos].split()
        self.pos += 1
        if fields[0] != expect:
            raise DatasetFormatError(f"expected {expect!r} record, found {fields[0]!r}")
        return fields[1:]


def _record_index(text: str, count: int, what: str, seen: set | None = None) -> int:
    """0-based index of a 1-based record id; rejects ids outside 1..count and,
    when `seen` is given, ids already read."""
    record_id = int(text)
    if not 1 <= record_id <= count:
        raise DatasetFormatError(f"{what} id {record_id} outside 1..{count}")
    if seen is not None:
        if record_id in seen:
            raise DatasetFormatError(f"repeated {what} id {record_id}")
        seen.add(record_id)
    return record_id - 1


def _numbers(fields: List[str], count: int, what: str) -> np.ndarray:
    """Exactly `count` finite numbers."""
    if len(fields) != count:
        raise DatasetFormatError(f"{what} record has {len(fields)} values, expected {count}")
    values = [float(x) for x in fields]
    if not all(map(math.isfinite, values)):
        raise DatasetFormatError(f"{what} record has a non-finite value: {' '.join(fields)}")
    return np.array(values)


def _keyed(reader: _Reader, record: str, key: str, count: int) -> np.ndarray:
    """The values of a `<record> <key> ...` line, which must carry that key."""
    fields = reader.next(record)
    if fields[:1] != [key]:
        raise DatasetFormatError(f"expected {record} {key}, found {' '.join([record] + fields[:1])!r}")
    return _numbers(fields[1:], count, f"{record} {key}")


def _positive(value: float, what: str) -> float:
    if not value > 0.0:
        raise DatasetFormatError(f"{what} must be positive, got {value!r}")
    return float(value)


def _count(reader: _Reader, record: str, least: int) -> int:
    fields = reader.next(record)
    if len(fields) != 1:
        raise DatasetFormatError(f"{record} record has {len(fields)} values, expected 1")
    count = int(fields[0])
    if count < least:
        raise DatasetFormatError(f"{record} count {count} is below {least}")
    return count


def loads(text: str) -> Dataset:
    try:
        return _parse(text)
    except DatasetFormatError:
        raise
    except (ValueError, IndexError) as err:
        raise DatasetFormatError(f"malformed dataset record: {err}") from None


def _parse(text: str) -> Dataset:
    reader = _Reader(text)
    header = reader.next(MAGIC)
    if header != [VERSION]:
        raise DatasetFormatError(f"unsupported dataset version: {' '.join(header)!r}")

    world = WorldParams(_keyed(reader, "world", "gravity", 3))
    focal = _positive(_keyed(reader, "camera", "focal", 1)[0], "camera focal")
    cam = CameraModel(focal, _keyed(reader, "camera", "principal_point", 2))
    imu_dt = _positive(_keyed(reader, "timing", "imu_dt", 1)[0], "timing imu_dt")
    camera_dt = _positive(_keyed(reader, "timing", "camera_dt", 1)[0], "timing camera_dt")

    num_landmarks = _count(reader, "landmarks", 1)
    landmarks = np.zeros((num_landmarks, 3))
    seen: set = set()
    for _ in range(num_landmarks):
        fields = reader.next("l")
        index = _record_index(fields[0], num_landmarks, "landmark", seen)
        landmarks[index] = _numbers(fields[1:], 3, "l")

    num_frames = _count(reader, "keyframes", 2)
    poses: List[PoseState] = [None] * num_frames  # type: ignore[list-item]
    seen = set()
    for _ in range(num_frames):
        fields = reader.next("k")
        index = _record_index(fields[0], num_frames, "keyframe", seen)
        values = _numbers(fields[1:], 15, "k")
        R = values[0:9].reshape(3, 3)
        if not is_rotation(R):
            raise DatasetFormatError(f"keyframe {index + 1} attitude is not a rotation matrix")
        poses[index] = PoseState(R=R, v=values[9:12], p=values[12:15])

    num_samples = _count(reader, "imu", num_frames - 1)
    if num_samples % (num_frames - 1):
        raise DatasetFormatError(
            f"imu count {num_samples} is not a multiple of the {num_frames - 1} keyframe intervals"
        )
    samples = []
    for _ in range(num_samples):
        values = _numbers(reader.next("i"), 7, "i")
        samples.append(ImuSample(values[0:3], values[3:6], _positive(values[6], "imu sample dt")))

    num_pixels = _count(reader, "pixels", 0)
    measurements = []
    for _ in range(num_pixels):
        fields = reader.next("p")
        frame = _record_index(fields[0], num_frames, "pixel keyframe") + 1
        landmark = _record_index(fields[1], num_landmarks, "pixel landmark") + 1
        measurements.append(PixelMeasurement(frame, landmark, _numbers(fields[2:], 2, "p")))

    return Dataset(
        ground_truth=WindowState(poses, landmarks),
        imu_samples=samples,
        pixel_measurements=measurements,
        cam=cam,
        world=world,
        imu_dt=imu_dt,
        camera_dt=camera_dt,
    )


def read_dataset(path) -> Dataset:
    return loads(Path(path).read_text(encoding="ascii"))
