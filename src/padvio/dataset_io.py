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

The pixel section ends the file; a record after it is an error.

Each section is read and written as one table: the reader makes one
`np.array` of the section's split lines, checks their keys and value
counts, and converts the table to numbers in one call (str to float as
Python's `float`). Record ids place the rows, so `l`, `k` and `p` lines may
come in any order. The dataset holds the sections as stacked records (see
`sim.Dataset`).

Every file padvio writes, this one and the CLI reports, goes through
`write_text`, which replaces the file instead of rewriting it in place.
"""

from __future__ import annotations

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


def _records(key: str, values: np.ndarray, *ids) -> List[str]:
    """One line `key <ids> <values>` per row of the (count, width) values,
    ids taken from the (count,) integer columns `ids`."""
    rows = np.asarray(values, dtype=float).tolist()
    return [
        " ".join([key, *map(str, head), *map(repr, row)])
        for *head, row in zip(*(np.asarray(column).tolist() for column in ids), rows)
    ]


def dumps(dataset: Dataset) -> str:
    """The file text of one flight; a batch of flights (see `sim.generate`)
    raises ValueError naming its shape."""
    truth = dataset.ground_truth
    poses, samples, meas = truth.poses, dataset.imu_samples, dataset.pixel_measurements
    batch = np.broadcast_shapes(
        poses.R.shape[:-3], truth.landmarks.shape[:-2], np.shape(samples.dt)[:-1], np.shape(meas.uv)[:-2]
    )
    if batch:
        raise ValueError(f"write_dataset takes one flight, not a batch of shape {batch}")
    lines = [f"{MAGIC} {VERSION}"]
    lines.append(f"world gravity {_fmt_vec(dataset.world.gravity)}")
    lines.append(f"camera focal {fmt(dataset.cam.focal)}")
    lines.append(f"camera principal_point {_fmt_vec(dataset.cam.principal_point)}")
    lines.append(f"timing imu_dt {fmt(dataset.imu_dt)}")
    lines.append(f"timing camera_dt {fmt(dataset.camera_dt)}")
    lines.append(f"landmarks {truth.num_landmarks}")
    lines += _records("l", truth.landmarks, np.arange(1, truth.num_landmarks + 1))
    lines.append(f"keyframes {truth.n}")
    keyframes = np.column_stack([poses.R.reshape(truth.n, 9), poses.v, poses.p])
    lines += _records("k", keyframes, np.arange(1, truth.n + 1))
    lines.append(f"imu {len(samples.dt)}")
    lines += _records("i", np.column_stack([samples.omega, samples.accel, samples.dt]))
    lines.append(f"pixels {len(meas)}")
    lines += _records("p", meas.uv, meas.frame_index, meas.landmark_id)
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

    def section(self, expect: str, count: int, ids: int, width: int) -> np.ndarray:
        """The next `count` lines, each an `expect` record of `ids` ids and
        `width` values, as a (count, ids + width) table of their fields."""
        rows = [line.split() for line in self.lines[self.pos : self.pos + count]]
        table = np.array(rows, dtype=object) if rows else np.empty((0, 1 + ids + width), dtype=object)
        if table.shape != (count, 1 + ids + width) or np.any(table[:, 0] != expect):
            for _ in range(count):  # name the first bad line
                fields = self.next(expect)
                if len(fields) != ids + width:
                    raise DatasetFormatError(f"{expect} record has {len(fields[ids:])} values, expected {width}")
        self.pos += count
        return table[:, 1:]


def _indices(column: np.ndarray, count: int, what: str, unique: bool = False) -> np.ndarray:
    """0-based indices of a column of 1-based record ids; rejects ids outside
    1..count and, if `unique`, an id given twice."""
    ids = column.astype(np.intp)
    outside = (ids < 1) | (ids > count)
    if np.any(outside):
        raise DatasetFormatError(f"{what} id {ids[outside][0]} outside 1..{count}")
    if unique:
        first = np.zeros(len(ids), dtype=bool)
        first[np.unique(ids, return_index=True)[1]] = True
        if not first.all():
            raise DatasetFormatError(f"repeated {what} id {ids[~first][0]}")
    return ids - 1


def _finite(table: np.ndarray, what: str) -> np.ndarray:
    """A (count, width) table of number fields as floats, all finite."""
    values = table.astype(float)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        fields = table[~finite][0]
        raise DatasetFormatError(f"{what} record has a non-finite value: {' '.join(fields)}")
    return values


def _keyed(reader: _Reader, record: str, key: str, count: int) -> np.ndarray:
    """The values of a `<record> <key> ...` line, which must carry that key."""
    fields = reader.next(record)
    if fields[:1] != [key]:
        raise DatasetFormatError(f"expected {record} {key}, found {' '.join([record] + fields[:1])!r}")
    if len(fields) != count + 1:
        raise DatasetFormatError(f"{record} {key} record has {len(fields) - 1} values, expected {count}")
    return _finite(np.array([fields[1:]], dtype=object), f"{record} {key}")[0]


def _positive(values: np.ndarray, what: str) -> np.ndarray:
    """The values, which must all be > 0."""
    bad = ~(values > 0.0)
    if np.any(bad):
        raise DatasetFormatError(f"{what} must be positive, got {values[bad][0]!r}")
    return values


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
    except (ValueError, IndexError, OverflowError) as err:
        raise DatasetFormatError(f"malformed dataset record: {err}") from None


def _parse(text: str) -> Dataset:
    reader = _Reader(text)
    header = reader.next(MAGIC)
    if header != [VERSION]:
        raise DatasetFormatError(f"unsupported dataset version: {' '.join(header)!r}")

    world = WorldParams(_keyed(reader, "world", "gravity", 3))
    focal = float(_positive(_keyed(reader, "camera", "focal", 1), "camera focal")[0])
    cam = CameraModel(focal, _keyed(reader, "camera", "principal_point", 2))
    imu_dt = float(_positive(_keyed(reader, "timing", "imu_dt", 1), "timing imu_dt")[0])
    camera_dt = float(_positive(_keyed(reader, "timing", "camera_dt", 1), "timing camera_dt")[0])

    num_landmarks = _count(reader, "landmarks", 1)
    table = reader.section("l", num_landmarks, 1, 3)
    landmarks = np.empty((num_landmarks, 3))
    landmarks[_indices(table[:, 0], num_landmarks, "landmark", unique=True)] = _finite(table[:, 1:], "l")

    num_frames = _count(reader, "keyframes", 2)
    table = reader.section("k", num_frames, 1, 15)
    keyframes = np.empty((num_frames, 15))
    keyframes[_indices(table[:, 0], num_frames, "keyframe", unique=True)] = _finite(table[:, 1:], "k")
    R, v, p = np.split(keyframes, [9, 12], axis=1)
    # contiguous fields, as `sim.generate` makes them
    poses = PoseState(R.reshape(num_frames, 3, 3).copy(), v.copy(), p.copy())
    bad = ~is_rotation(poses.R)
    if bad.any():
        raise DatasetFormatError(f"keyframe {bad.argmax() + 1} attitude is not a rotation matrix")

    num_samples = _count(reader, "imu", num_frames - 1)
    if num_samples % (num_frames - 1):
        raise DatasetFormatError(
            f"imu count {num_samples} is not a multiple of the {num_frames - 1} keyframe intervals"
        )
    omega, accel, dt = np.split(_finite(reader.section("i", num_samples, 0, 7), "i"), [3, 6], axis=1)
    samples = ImuSample(omega.copy(), accel.copy(), dt[:, 0].copy())
    _positive(samples.dt, "imu sample dt")

    num_pixels = _count(reader, "pixels", 0)
    table = reader.section("p", num_pixels, 2, 2)
    measurements = PixelMeasurement(
        _indices(table[:, 0], num_frames, "pixel keyframe") + 1,
        _indices(table[:, 1], num_landmarks, "pixel landmark") + 1,
        _finite(table[:, 2:], "p"),
    )
    if reader.pos < len(reader.lines):
        raise DatasetFormatError(f"extra record after the pixel section: {reader.lines[reader.pos].strip()!r}")

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
