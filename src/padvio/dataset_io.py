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

The pixel section ends the file; a record after it is an error. Lines end
at `\n`, `\r\n` or `\r`, blank lines are skipped, and whitespace separates
the fields. The file is ASCII: another byte is an error naming its offset.

Numbers. Every number field, in the keyed records, the counts and the
tables alike, is read by one parser, `np.loadtxt`'s C reader. A value reads
as Python's `float` reads it, bit for bit, but without `_` digit
separators; `nan`, `inf` and `1e500` read and are then rejected, the error
showing the record's text. An id or a count is a decimal integer with an
optional sign; `3.0` is an error, also on a numpy that would read it as 3
with a warning. padvio writes each value as its `repr`, the shortest text
that reads back as the same float, and each id and count as a plain decimal
integer.

Streaming. `write_dataset` writes the file as it formats it: the header,
then each table in blocks of `BLOCK` rows, one `%` template per block over
Python floats. A value column whose entries in a block share one bit
pattern, such as the `dt` of every simulated `i` table, goes into that
block's template once as its `repr` text, so the bytes are those of
formatting each value. `dumps` joins the same chunks, so the file and the
text cannot differ. A write that fails part way leaves the chunks made so
far, a file that does not read: each count comes before its rows.
`read_dataset` iterates the file's non-blank lines and reads each table
section with one `np.loadtxt` call into records of a key, the integer ids
and the float values. Only when that call fails, or a key or the row count
is wrong, does a loop over the section's lines name the first bad one.
`loads` runs the same parser over the lines of a string. Record ids place
the rows, so `l`, `k` and `p` lines may come in any order. The dataset
holds the sections as stacked records (see `sim.Dataset`).

Every file padvio writes, this one and the CLI reports, goes through
`write_text`, which replaces the file instead of rewriting it in place.
"""

from __future__ import annotations

import io
import re
import warnings
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from .graph import PoseState, WindowState
from .imu import ImuSample, WorldParams
from .manifold import is_rotation
from .sim import Dataset
from .vision import CameraModel, PixelMeasurement

MAGIC = "padvio-dataset"
VERSION = "v1"
BLOCK = 256  # table rows formatted per `%` template


def fmt(x: float) -> str:
    """Shortest decimal text that reads back as the same float."""
    return repr(float(x))


def _fmt_vec(v) -> str:
    return " ".join(map(repr, np.asarray(v, dtype=float).reshape(-1).tolist()))


def _records(key: str, ids: Sequence[np.ndarray], values: Sequence[np.ndarray]) -> Iterator[str]:
    """The lines `key <ids> <values>` of a table, one chunk per BLOCK rows.

    `ids` are (count,) integer columns and `values` (count,) or (count, k)
    float columns. A block is one float array, so its ids are floats (exact
    below 2**53) that `%d` prints as integers; `%r` prints a value's `repr`.
    A value column whose entries in the block share one bit pattern (the
    `dt` of an `i` table) goes into the template once as its `repr` text;
    bits, not `==`, so that `0.0` and `-0.0` keep their own text.
    """
    columns = [*ids, *values]
    for start in range(0, len(columns[0]), BLOCK):
        block = np.column_stack([column[start : start + BLOCK] for column in columns]).astype(float, copy=False)
        bits = block.view(np.int64)
        constant = (bits == bits[0]).all(axis=0)
        constant[: len(ids)] = False
        fields = [key] + ["%d"] * len(ids)
        fields += [repr(x) if same else "%r" for x, same in zip(block[0, len(ids) :].tolist(), constant[len(ids) :])]
        if constant.any():
            block = block[:, ~constant]
        yield ((" ".join(fields) + "\n") * len(block)) % tuple(block.ravel().tolist())


def _chunks(dataset: Dataset) -> Iterator[str]:
    """The file text of one flight, in the order written; a batch of flights
    (see `sim.generate`) raises ValueError naming its shape before any text."""
    truth = dataset.ground_truth
    poses, samples, meas = truth.poses, dataset.imu_samples, dataset.pixel_measurements
    batch = np.broadcast_shapes(
        poses.R.shape[:-3], truth.landmarks.shape[:-2], np.shape(samples.dt)[:-1], np.shape(meas.uv)[:-2]
    )
    if batch:
        raise ValueError(f"write_dataset takes one flight, not a batch of shape {batch}")
    header = [
        f"{MAGIC} {VERSION}",
        f"world gravity {_fmt_vec(dataset.world.gravity)}",
        f"camera focal {fmt(dataset.cam.focal)}",
        f"camera principal_point {_fmt_vec(dataset.cam.principal_point)}",
        f"timing imu_dt {fmt(dataset.imu_dt)}",
        f"timing camera_dt {fmt(dataset.camera_dt)}",
        f"landmarks {truth.num_landmarks}",
    ]
    return chain(
        ["\n".join(header) + "\n"],
        _records("l", [np.arange(1, truth.num_landmarks + 1)], [truth.landmarks]),
        [f"keyframes {truth.n}\n"],
        _records("k", [np.arange(1, truth.n + 1)], [poses.R.reshape(truth.n, 9), poses.v, poses.p]),
        [f"imu {len(samples.dt)}\n"],
        _records("i", [], [samples.omega, samples.accel, samples.dt]),
        [f"pixels {len(meas)}\n"],
        _records("p", [meas.frame_index, meas.landmark_id], [meas.uv]),
    )


def dumps(dataset: Dataset) -> str:
    """The file text of one flight; a batch of flights (see `sim.generate`)
    raises ValueError naming its shape."""
    return "".join(_chunks(dataset))


def write_text(path, chunks: Iterable[str]) -> None:
    """Replace the file (or symlink) at `path` with a new ASCII file holding
    the chunks of text in order.

    Truncating a non-empty file in place makes ext4 (auto_da_alloc) flush
    its data on close, tens of ms per write; unlinking first avoids that.
    No fsync: padvio does not promise durable output. The first chunk is
    made before the old file is removed; an error while a later chunk is
    made leaves the chunks before it, which for a dataset is a file that
    does not read, as its counts come before their rows.
    """
    path = Path(path)
    chunks = iter(chunks)
    first = next(chunks, "")
    path.unlink(missing_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as file:
        file.write(first)
        file.writelines(chunks)


def write_dataset(dataset: Dataset, path) -> None:
    write_text(path, _chunks(dataset))


class DatasetFormatError(ValueError):
    pass


def _table(lines: List[str], dtype) -> np.ndarray:
    """The lines as one array of `dtype` rows, each number field read by the
    file's number grammar."""
    if not lines:  # loadtxt warns on empty input
        return np.empty(0, dtype)
    with warnings.catch_warnings():
        # numpy 1.23 deprecated, and later removed, reading "1.5" in an integer
        # field as 1 with only this warning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
        except DeprecationWarning as err:
            raise ValueError(str(err)) from None


def _numbers(what: str, fields: List[str], dtype=float) -> np.ndarray:
    """The number fields of one keyed or count record, read as the tables are."""
    text = " ".join(fields)
    try:
        return _table([text], dtype)
    except ValueError:
        raise DatasetFormatError(f"malformed {what} record: {text!r}") from None


def _fields(line: Optional[str], expect: str) -> List[str]:
    """The fields after the key of a line that must be an `expect` record;
    None stands for the end of the file."""
    if line is None:
        raise DatasetFormatError(f"unexpected end of file, expected {expect!r} record")
    fields = line.split()
    if fields[0] != expect:
        raise DatasetFormatError(f"expected {expect!r} record, found {fields[0]!r}")
    return fields[1:]


def _name_first_bad_line(lines: List[str], expect: str, ids: int, width: int, dtype) -> NoReturn:
    """Raise the error naming the first of a section's lines that is not an
    `expect` record of `ids` ids and `width` values, or the end of the file
    after the last line."""
    for line in chain(lines, [None]):
        fields = _fields(line, expect)
        if len(fields) != ids + width:
            raise DatasetFormatError(f"{expect} record has {len(fields) - ids} values, expected {width}")
        try:
            parsed = _table([line], dtype)["key"][0] == expect
        except ValueError:
            parsed = False
        if not parsed:
            raise DatasetFormatError(f"malformed {expect} record: {line.strip()!r}")


class _Reader:
    """The non-blank lines of a dataset, read one record or one table at a time."""

    def __init__(self, lines: Iterable[str]):
        self.lines = filter(str.strip, lines)

    def next(self, expect: str) -> List[str]:
        return _fields(next(self.lines, None), expect)

    def section(self, expect: str, count: int, ids: int, width: int) -> Tuple[np.ndarray, List[str]]:
        """The next `count` lines, each an `expect` record of `ids` ids and
        `width` values, as (count,) records with an "ids" (ids,) int field
        and a "values" (width,) float field, and the lines themselves."""
        dtype = np.dtype([("key", f"U{len(expect) + 1}"), ("ids", np.intp, (ids,)), ("values", float, (width,))])
        lines = list(islice(self.lines, count))
        try:
            table = _table(lines, dtype)
        except ValueError:
            table = None
        if table is None or len(table) != count or np.any(table["key"] != expect):
            _name_first_bad_line(lines, expect, ids, width, dtype)
        return table, lines


def _indices(ids: np.ndarray, count: int, what: str, unique: bool = False) -> np.ndarray:
    """0-based indices of a column of 1-based record ids; rejects ids outside
    1..count and, if `unique`, an id given twice."""
    outside = (ids < 1) | (ids > count)
    if np.any(outside):
        raise DatasetFormatError(f"{what} id {ids[outside][0]} outside 1..{count}")
    if unique:
        first = np.zeros(len(ids), dtype=bool)
        first[np.unique(ids, return_index=True)[1]] = True
        if not first.all():
            raise DatasetFormatError(f"repeated {what} id {ids[~first][0]}")
    return ids - 1


def _finite(values: np.ndarray, what: str, lines: Sequence[str], skip: int) -> np.ndarray:
    """The (count, width) values read from `lines`, which must all be
    finite; the error shows the first bad line's fields after its first
    `skip` as the file has them."""
    # max and min carry a nan or an infinity through, with no mask as large as the table
    if np.isfinite(values.max(initial=0.0)) and np.isfinite(values.min(initial=0.0)):
        return values
    fields = lines[np.isfinite(values).all(axis=1).argmin()].split()[skip:]
    raise DatasetFormatError(f"{what} record has a non-finite value: {' '.join(fields)}")


def _keyed(reader: _Reader, record: str, key: str, count: int) -> np.ndarray:
    """The values of a `<record> <key> ...` line, which must carry that key."""
    fields = reader.next(record)
    if fields[:1] != [key]:
        raise DatasetFormatError(f"expected {record} {key}, found {' '.join([record] + fields[:1])!r}")
    if len(fields) != count + 1:
        raise DatasetFormatError(f"{record} {key} record has {len(fields) - 1} values, expected {count}")
    what = f"{record} {key}"
    return _finite(_numbers(what, fields[1:])[None], what, [" ".join(fields)], 1)[0]


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
    count = int(_numbers(record, fields, np.intp)[0])
    if count < least:
        raise DatasetFormatError(f"{record} count {count} is below {least}")
    return count


def loads(text: str) -> Dataset:
    return _load(io.StringIO(text, newline=None))


def read_dataset(path) -> Dataset:
    with open(path, encoding="ascii") as file:
        try:
            return _load(file)
        except UnicodeDecodeError:
            # the text layer decodes in chunks, so find the byte in the file itself
            file.buffer.seek(0)
            data = file.buffer.read()
    offset = re.search(rb"[\x80-\xff]", data).start()
    line = data.count(b"\n", 0, offset) + 1
    raise DatasetFormatError(f"non-ASCII byte 0x{data[offset]:02x} at byte offset {offset} (line {line})")


def _load(lines: Iterable[str]) -> Dataset:
    try:
        return _parse(_Reader(lines))
    except (DatasetFormatError, UnicodeDecodeError):  # read_dataset names the byte
        raise
    except (ValueError, IndexError, OverflowError) as err:
        raise DatasetFormatError(f"malformed dataset record: {err}") from None


def _parse(reader: _Reader) -> Dataset:
    header = reader.next(MAGIC)
    if header != [VERSION]:
        raise DatasetFormatError(f"unsupported dataset version: {' '.join(header)!r}")

    world = WorldParams(_keyed(reader, "world", "gravity", 3))
    focal = float(_positive(_keyed(reader, "camera", "focal", 1), "camera focal")[0])
    cam = CameraModel(focal, _keyed(reader, "camera", "principal_point", 2))
    imu_dt = float(_positive(_keyed(reader, "timing", "imu_dt", 1), "timing imu_dt")[0])
    camera_dt = float(_positive(_keyed(reader, "timing", "camera_dt", 1), "timing camera_dt")[0])

    num_landmarks = _count(reader, "landmarks", 1)
    table, lines = reader.section("l", num_landmarks, 1, 3)
    landmarks = np.empty((num_landmarks, 3))
    landmarks[_indices(table["ids"][:, 0], num_landmarks, "landmark", unique=True)] = _finite(
        table["values"], "l", lines, 2
    )

    num_frames = _count(reader, "keyframes", 2)
    table, lines = reader.section("k", num_frames, 1, 15)
    keyframes = np.empty((num_frames, 15))
    keyframes[_indices(table["ids"][:, 0], num_frames, "keyframe", unique=True)] = _finite(
        table["values"], "k", lines, 2
    )
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
    table, lines = reader.section("i", num_samples, 0, 7)
    values = _finite(table["values"], "i", lines, 1)
    del lines  # the largest section's text: free it before copying the columns out
    omega, accel, dt = np.split(values, [3, 6], axis=1)
    samples = ImuSample(omega.copy(), accel.copy(), dt[:, 0].copy())
    _positive(samples.dt, "imu sample dt")

    num_pixels = _count(reader, "pixels", 0)
    table, lines = reader.section("p", num_pixels, 2, 2)
    measurements = PixelMeasurement(
        _indices(table["ids"][:, 0], num_frames, "pixel keyframe") + 1,
        _indices(table["ids"][:, 1], num_landmarks, "pixel landmark") + 1,
        _finite(table["values"], "p", lines, 3).copy(),
    )
    extra = next(reader.lines, None)
    if extra is not None:
        raise DatasetFormatError(f"extra record after the pixel section: {extra.strip()!r}")

    return Dataset(
        ground_truth=WindowState(poses, landmarks),
        imu_samples=samples,
        pixel_measurements=measurements,
        cam=cam,
        world=world,
        imu_dt=imu_dt,
        camera_dt=camera_dt,
    )
