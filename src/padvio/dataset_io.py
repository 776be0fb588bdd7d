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

from pathlib import Path
from typing import List

import numpy as np

from .graph import PoseState, WindowState
from .imu import ImuSample, WorldParams
from .sim import Dataset
from .vision import CameraModel, PixelMeasurement

MAGIC = "padvio-dataset"
VERSION = "v1"


def fmt(x: float) -> str:
    """Shortest decimal text that reads back as the same float."""
    return repr(float(x))


def _fmt_vec(v) -> str:
    return " ".join(fmt(x) for x in np.asarray(v, dtype=float).reshape(-1))


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

    fields = reader.next("world")
    if fields[0] != "gravity":
        raise DatasetFormatError("world record must carry gravity")
    world = WorldParams(np.array([float(x) for x in fields[1:4]]))
    focal = float(reader.next("camera")[1])
    pp = np.array([float(x) for x in reader.next("camera")[1:3]])
    cam = CameraModel(focal, pp)
    imu_dt = float(reader.next("timing")[1])
    camera_dt = float(reader.next("timing")[1])

    num_landmarks = int(reader.next("landmarks")[0])
    landmarks = np.zeros((num_landmarks, 3))
    seen: set = set()
    for _ in range(num_landmarks):
        fields = reader.next("l")
        landmarks[_record_index(fields[0], num_landmarks, "landmark", seen)] = [float(x) for x in fields[1:4]]

    num_frames = int(reader.next("keyframes")[0])
    poses: List[PoseState] = [None] * num_frames  # type: ignore[list-item]
    seen = set()
    for _ in range(num_frames):
        fields = reader.next("k")
        values = [float(x) for x in fields[1:16]]
        poses[_record_index(fields[0], num_frames, "keyframe", seen)] = PoseState(
            R=np.array(values[0:9]).reshape(3, 3),
            v=np.array(values[9:12]),
            p=np.array(values[12:15]),
        )

    num_samples = int(reader.next("imu")[0])
    samples = []
    for _ in range(num_samples):
        values = [float(x) for x in reader.next("i")]
        samples.append(ImuSample(np.array(values[0:3]), np.array(values[3:6]), values[6]))

    num_pixels = int(reader.next("pixels")[0])
    measurements = []
    for _ in range(num_pixels):
        fields = reader.next("p")
        frame = _record_index(fields[0], num_frames, "pixel keyframe") + 1
        landmark = _record_index(fields[1], num_landmarks, "pixel landmark") + 1
        measurements.append(
            PixelMeasurement(frame, landmark, np.array([float(fields[2]), float(fields[3])]))
        )

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
