"""File formats, run configuration, and manifests.

CSV schemas (all comma-separated, header row required, floats written with
repr so values round-trip bit-exactly):

* dataset.csv  pixel_id, parcel_id, region_id, step, doy, ndvi,
               sig_vv_db, sig_vh_db, coh_vv, coh_vh
               (ndvi empty = absent; derived radar features are computed on
               load, never stored, and a row whose derived features are not
               finite in float32, the model's dtype, is refused)
* labels.csv   parcel_id, event_doy (empty event_doy = labeled unmown)
* masks.csv    mask_id, region_id, bit_0..bit_{T-1}
* events.csv   parcel_id, event_doy, score (empty pair = no events found)

dataset.csv is parsed one row at a time by the `csv` module, through the
same row reader as every other CSV file, each cell converted by
`int()`/`float()` and checked as it is read; the parse names the row and
column of every error, and hashes the bytes it reads for the splice and the
manifest.  A dataset derived from one that was read with its ids, radar
block and grid kept is written from the file it was read from: the NDVI
cells whose values changed are written anew and every other byte is copied
(see `write_dataset`).

dataset.npz, written beside every dataset.csv, is a cache of its parse keyed
by the sha256 of the dataset.csv bytes: the id columns, the grid, NDVI and
the four raw radar columns as the parse gives them, that digest, and a
digest of its own arrays.  `read_dataset` builds the dataset from the copy,
with every check of the `Dataset` constructor, when the digest it records is
that of dataset.csv as read and its own digest checks; otherwise, whatever
is wrong with the copy, it parses dataset.csv, which stays the file of
record.  The copy's digest guards against damage, not forgery: a copy
written with other arrays and their digests passes every check the
constructor makes.

Model files are a magic line, a one-line JSON header (architecture, stats,
grid, parameter names/shapes/offsets) and raw little-endian float32 blobs.
All writes go through a temp-file-then-rename so readers never observe a
partial file.
"""

from __future__ import annotations

import array
import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from .cloudsim import MaskPool, SynthConfig
from .core import SAR_CHANNELS, CloudMask, Dataset, ParcelLabel, TemporalGrid, finite_in_float32
from .detect import Event, EventSet, Mda1Params, Mda2Params
from .features import db_to_linear, derive_channels
from .preprocess import DensityCriteria, OutlierParams
from .sfmodel import NormStats, SfArchitecture, SfModel, SfNet, TrainConfig

VERSION = "0.1.0"
MANIFEST_TOOL = "gapfuse"

MODEL_MAGIC = b"GAPFUSE-MODEL-V1\n"

DATASET_HEADER = (
    "pixel_id", "parcel_id", "region_id", "step", "doy",
    "ndvi", "sig_vv_db", "sig_vh_db", "coh_vv", "coh_vh",
)
LABELS_HEADER = ("parcel_id", "event_doy")
EVENTS_HEADER = ("parcel_id", "event_doy", "score")

DATASET_FILE = "dataset.csv"
COPY_FILE = "dataset.npz"
LABELS_FILE = "labels.csv"


class FileFormatError(ValueError):
    """Schema violation carrying file/row/column context."""

    def __init__(self, path, message: str, row: int | None = None, column: str | None = None):
        where = str(path)
        if row is not None:
            where += f", row {row}"
        if column is not None:
            where += f", column {column!r}"
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.row = row
        self.column = column


def _parse_json(text: str | bytes, source, bare_text: bool = False) -> Any:
    """One JSON document from `text` (bytes are read as UTF-8).  Text that is
    not JSON, bytes that are not UTF-8 and nesting too deep for the decoder
    raise a FileFormatError naming `source`; with `bare_text`, text that is
    not JSON is returned as it is."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text)
    except json.JSONDecodeError as e:
        if bare_text:
            return text
        raise FileFormatError(source, f"not valid JSON: {e}") from None
    except UnicodeDecodeError as e:
        raise FileFormatError(source, f"not UTF-8 text: {e}") from None
    except RecursionError:
        raise FileFormatError(source, "JSON nested too deeply to read") from None


@contextlib.contextmanager
def _atomic_file(path):
    """Open a sibling temp file for binary writing and rename it onto
    `path` once the block completes, so the target is never observed
    half-written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path, data: bytes) -> None:
    with _atomic_file(path) as fh:
        fh.write(data)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _cell(raw: str) -> str:
    """A cell as an error message quotes it: its repr, cut to 40 characters
    and followed by its length when it is longer."""
    return repr(raw) if len(raw) <= 40 else f"{raw[:40]!r}... ({len(raw)} characters)"


def _parse_int(path, row: int, column: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise FileFormatError(path, f"not an integer: {_cell(raw)}", row, column) from None


def _parse_int64(path, row: int, column: str, raw: str, what: str) -> int:
    """An integer cell in the int64 range, so that array arithmetic on it
    stays exact; `what` names the value in the error."""
    value = _parse_int(path, row, column, raw)
    if not -2 ** 63 <= value < 2 ** 63:
        raise FileFormatError(path, f"{what} outside the int64 range", row, column)
    return value


def _parse_doy(path, row: int, raw: str) -> int:
    """An `event_doy` cell, which grid arithmetic takes."""
    return _parse_int64(path, row, "event_doy", raw, "day of year")


def _parse_float(path, row: int, column: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise FileFormatError(path, f"not a number: {_cell(raw)}", row, column) from None
    if not math.isfinite(v):
        raise FileFormatError(path, f"non-finite value: {_cell(raw)}", row, column)
    return v


# CSV text is read as UTF-8 with each byte that is not UTF-8 kept as a lone
# surrogate, so that `_non_utf8` finds the row that holds it
_CSV_TEXT = dict(encoding="utf-8", errors="surrogateescape", newline="")


def _non_utf8(row: list[str]) -> str | None:
    """The error message for `row`, read as `_CSV_TEXT`, when it holds a
    byte that is not UTF-8; None when every byte is."""
    text = "".join(row)
    if text.isascii():
        return None
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as e:
        return f"not UTF-8 text: byte {ord(e.object[e.start]) - 0xdc00:#04x}"
    return None


def _csv_rows(path, reader):
    """(row number, fields) for each row of a `csv.reader` of `_CSV_TEXT`; a
    tokenizer error (such as a field past the module's size limit) or a
    byte that is not UTF-8 is a `FileFormatError` at its row."""
    for rownum in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as e:
            raise FileFormatError(path, f"unreadable CSV: {e}", rownum) from e
        bad = _non_utf8(row)
        if bad is not None:
            raise FileFormatError(path, bad, rownum)
        yield rownum, row


@contextlib.contextmanager
def _csv_file(path):
    """The `_csv_rows` of the CSV file `path`."""
    with open(path, **_CSV_TEXT) as fh:
        yield _csv_rows(path, csv.reader(fh))


def _check_header(path, got: list[str] | None, want: tuple[str, ...]) -> None:
    if got is None:
        raise FileFormatError(path, "empty file, expected a header row")
    if tuple(got) != want:
        raise FileFormatError(path, f"bad header {got!r}, expected {list(want)!r}", row=1)


# dataset.csv's radar columns and the channels they hold
_RAW_TO_CHANNEL = {
    "sig_vv_db": "sigma0_vv_db",
    "sig_vh_db": "sigma0_vh_db",
    "coh_vv": "coh_vv",
    "coh_vh": "coh_vh",
}
# pixels formatted per chunk: bounds the memory of the per-cell strings
_WRITE_CHUNK_PIXELS = 512
# bytes of whole lines copied per block by the splice: bounds the memory that
# the raw text takes at once, whatever the file's size
_READ_CHUNK_BYTES = 1 << 20
_HEADER_LINE = (",".join(DATASET_HEADER) + "\n").encode()


def _dataset_rows(chunk: tuple[list[tuple[int, int, int]], np.ndarray, np.ndarray],
                  step_cells: list[str]) -> str:
    """The dataset.csv rows of a chunk of pixels, given as their (pixel,
    parcel, region) ids, (n, T) NDVI and (n, T, 4) measured radar, formatted
    a column at a time."""
    ids, ndvi, radar = chunk
    keys = [f"{p},{q},{r},{s}" for p, q, r in ids for s in step_cells]
    ndvi = ndvi.ravel()
    ndvi_cells = list(map(repr, ndvi.tolist()))
    for i in np.flatnonzero(np.isnan(ndvi)).tolist():
        ndvi_cells[i] = ""
    vv, vh, coh_vv, coh_vh = (list(map(repr, radar[:, :, c].ravel().tolist())) for c in range(radar.shape[2]))
    # joining each row's cells and separators takes half the time of
    # formatting the row
    comma = itertools.repeat(",")
    return "".join(map("".join, zip(keys, ndvi_cells, comma, vv, comma, vh, comma, coh_vv, comma, coh_vh,
                                    itertools.repeat("\n"))))


@dataclass(frozen=True, eq=False)
class _Source:
    """A dataset.csv read from its copy, or parsed with its rows in
    `write_dataset` order: the file, the `sha256_file` digest of its bytes
    as read (the whole file, header included), and the grid and arrays
    read, which are the read dataset's own, so that a dataset derived from
    it is known by sharing them (see `write_dataset`).  The digest is also
    the one a run's manifest records for the file, and `copy_digest`, that
    of the dataset.npz read in its place (None when the file was parsed)."""

    path: Path
    digest: str
    grid: TemporalGrid
    ids: tuple[np.ndarray, np.ndarray, np.ndarray]
    ndvi: np.ndarray
    sar: np.ndarray
    copy_digest: str | None = None


class _SourceChanged(Exception):
    """The source file no longer holds the text that was read from it."""


def _splice_rows(src, out, ndvi: np.ndarray, changed: np.ndarray, digest: str) -> str:
    """Copy the binary dataset.csv `src` to `out` a block of about
    `_READ_CHUNK_BYTES` of whole lines at a time, with the NDVI cell of each
    row `changed` marks written from that row's `ndvi` value (by repr, empty
    for NaN) and a newline after a last line that lacks one; returns the
    `sha256_file` digest of the bytes written.  The header line is copied as
    it is, line end included.  A line of another field count, a row count or
    a whole-file digest other than the file that was read raises
    `_SourceChanged`."""
    header = src.readline(_READ_CHUNK_BYTES)
    out.write(header)
    width = len(DATASET_HEADER) - 1  # commas per line
    at_ndvi = DATASET_HEADER.index("ndvi")
    h, written = hashlib.sha256(header), hashlib.sha256(header)
    row = 0
    for block in _line_blocks(src):
        if not block:
            raise _SourceChanged
        h.update(block)
        text = np.frombuffer(block, np.uint8)
        ends = np.flatnonzero(text == ord("\n"))
        if not block.endswith(b"\n"):
            ends = np.append(ends, len(block))
        commas = np.flatnonzero(text == ord(","))
        m = ends.shape[0]
        if (row + m > ndvi.shape[0] or commas.shape[0] != width * m
                or (np.searchsorted(commas, ends) != width * np.arange(1, m + 1)).any()):
            raise _SourceChanged
        at = np.flatnonzero(changed[row:row + m])
        starts, stops = commas[at_ndvi - 1::width][at] + 1, commas[at_ndvi::width][at]
        cells = [repr(v).encode() if v == v else b"" for v in ndvi[row + at].tolist()]
        view, parts, pos = memoryview(block), [], 0
        for lo, hi, cell in zip(starts.tolist(), stops.tolist(), cells):
            parts += (view[pos:lo], cell)
            pos = hi
        parts.append(view[pos:])
        if not block.endswith(b"\n"):
            parts.append(b"\n")
        data = b"".join(parts)
        written.update(data)
        out.write(data)
        row += m
    if row != ndvi.shape[0] or _digest_text(h) != digest:
        raise _SourceChanged
    return _digest_text(written)


def _splice_dataset(dataset: Dataset, csv_path: Path) -> str | None:
    """Write `csv_path` from the file `dataset` was derived from (see
    `write_dataset`) and return the digest of what was written; None, with
    nothing written, when that cannot be."""
    src = dataset.source
    ids = (dataset.pixel_ids, dataset.pixel_parcel_ids, dataset.pixel_region_ids)
    if (src is None or dataset.grid != src.grid or dataset.sar is not src.sar
            or any(a is not b for a, b in zip(ids, src.ids))):
        return None
    new = dataset.ndvi.ravel()
    # by bits, so 0.0 -> -0.0 is a change; a NaN read is an empty cell, which
    # any NaN rewrites as it is
    changed = new.view(np.uint64) != src.ndvi.ravel().view(np.uint64)
    try:
        fh = open(src.path, "rb")
    except OSError:
        return None
    try:
        with fh, _atomic_file(csv_path) as out:
            return _splice_rows(fh, out, new, changed, src.digest)
    except _SourceChanged:
        return None


# the raw radar columns as indices into SAR_CHANNELS
_RAW_CHANNELS = [SAR_CHANNELS.index(c) for c in _RAW_TO_CHANNEL.values()]


def _format_dataset(dataset: Dataset, csv_path: Path) -> str:
    """Write every cell of `dataset` to `csv_path`, a chunk of pixels at a
    time, and return the digest of what was written."""
    order = np.argsort(dataset.pixel_ids, kind="stable")
    step_cells = [f"{t},{int(d)}," for t, d in enumerate(dataset.grid.doys)]
    h = hashlib.sha256(_HEADER_LINE)
    with _atomic_file(csv_path) as fh:
        fh.write(_HEADER_LINE)
        for lo in range(0, order.shape[0], _WRITE_CHUNK_PIXELS):
            rows = order[lo:lo + _WRITE_CHUNK_PIXELS]
            ids = zip(*(col[rows].tolist() for col in
                        (dataset.pixel_ids, dataset.pixel_parcel_ids, dataset.pixel_region_ids)))
            data = _dataset_rows((list(ids), dataset.ndvi[rows], dataset.sar[rows][:, :, _RAW_CHANNELS]),
                                 step_cells).encode()
            h.update(data)
            fh.write(data)
    return _digest_text(h)


# a digest as `sha256_file` writes it
_DIGEST_DTYPE = np.dtype("U71")
# dataset.npz's members, in the order its digest takes them, and their dtypes
_COPY_DTYPES = {
    **dict.fromkeys(("pixel_id", "parcel_id", "region_id", "grid"), np.dtype(np.int64)),
    **dict.fromkeys(("ndvi", *_RAW_TO_CHANNEL), np.dtype(np.float64)),
    "csv_sha256": _DIGEST_DTYPE,
}
# the member that holds the digest of the others
_COPY_DIGEST = "digest"


def _copy_digest(arrays: Mapping[str, np.ndarray]) -> str:
    """The digest of a copy's members: each one's name, dtype, shape and
    bytes, in `_COPY_DTYPES` order."""
    h = hashlib.sha256()
    for name in _COPY_DTYPES:
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(a)
    return _digest_text(h)


def _write_copy(dataset: Dataset, copy_path: Path, csv_digest: str) -> str | None:
    """Write `dataset` to the copy `copy_path` as the dataset.csv of digest
    `csv_digest` parses (see the module docstring) and return the digest of
    the file; None, with any old copy removed, for ids outside int64, which
    the copy cannot hold.  The members carry no time stamp, so the same
    dataset gives the same bytes."""
    ids = (dataset.pixel_ids, dataset.pixel_parcel_ids, dataset.pixel_region_ids)
    if any(col.dtype != np.int64 for col in ids):
        copy_path.unlink(missing_ok=True)
        return None
    order = np.argsort(dataset.pixel_ids, kind="stable")
    grid = dataset.grid
    arrays = dict(zip(("pixel_id", "parcel_id", "region_id"), (col[order] for col in ids)))
    # a one-step grid is read back with the default step
    arrays["grid"] = np.array([grid.start_doy, grid.step_days if grid.length > 1 else 6, grid.length])
    arrays["ndvi"] = dataset.ndvi[order]
    arrays["ndvi"][np.isnan(arrays["ndvi"])] = np.nan  # an empty cell reads as this NaN
    for name, c in zip(_RAW_TO_CHANNEL, _RAW_CHANNELS):
        arrays[name] = np.ascontiguousarray(dataset.sar[order, :, c])
    arrays["csv_sha256"] = np.array(csv_digest, dtype=_DIGEST_DTYPE)
    arrays[_COPY_DIGEST] = np.array(_copy_digest(arrays), dtype=_DIGEST_DTYPE)
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, a in arrays.items():
            with zf.open(zipfile.ZipInfo(name + ".npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, a, allow_pickle=False)
    data = buf.getbuffer()
    with _atomic_file(copy_path) as fh:
        fh.write(data)
    return _digest_text(hashlib.sha256(data))


def write_dataset(dataset: Dataset, path) -> dict[str, str]:
    """Write `dataset.csv`, its copy `dataset.npz` and `labels.csv` under
    the directory `path`, and return the `sha256_file` digests of the first
    two, hashed as they were written, by file name.

    Rows ordered by (pixel_id, step); only the four measured radar columns
    are stored, the derived features being recomputed on read.  The rows are
    formatted and written a chunk of pixels at a time.

    A dataset that still shares the ids, radar block and grid that
    `read_dataset` read from a file (its `source`) is instead written from
    that file: the NDVI cells whose bits differ from the value read are
    written as above and every other byte is copied, so a cell the rows
    leave unchanged keeps its text (an empty cell stays empty whatever the
    bits of the NaN written over it).  When that file cannot be
    opened or no longer holds what was read, every cell is formatted.

    The copy is written after dataset.csv, so a write that fails between
    the two leaves a copy whose digest is not the new file's, which no read
    uses.  Ids outside int64 get no copy."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    csv_digest = _splice_dataset(dataset, path / DATASET_FILE) or _format_dataset(dataset, path / DATASET_FILE)
    digests = {DATASET_FILE: csv_digest}
    copy_digest = _write_copy(dataset, path / COPY_FILE, csv_digest)
    if copy_digest is not None:
        digests[COPY_FILE] = copy_digest
    write_table_csv(path / LABELS_FILE, LABELS_HEADER, _label_rows(dataset.labels))
    return digests


def _label_rows(labels: Mapping[int, ParcelLabel]):
    """labels.csv rows by (parcel, doy); a parcel labeled unmown gets one
    row with an empty doy."""
    for pid in sorted(labels):
        doys = labels[pid].event_doys
        if not doys:
            yield pid, ""
        for d in doys:
            yield pid, d


def _infer_grid(path, steps: list[int], doys: list[int]) -> TemporalGrid:
    """The grid of the distinct `steps` (ascending, all >= 0) and the doy
    each maps to."""
    if steps[-1] != len(steps) - 1:
        # the first five absent steps, found from the gaps between present
        # ones: the largest step may be far too large to enumerate up to
        missing: list[int] = []
        prev = -1
        for s in steps:
            missing.extend(range(prev + 1, min(s, prev + 6 - len(missing))))
            if len(missing) == 5:
                break
            prev = s
        raise FileFormatError(path, f"steps are not contiguous from 0; missing {missing}")
    if len(doys) == 1:
        return TemporalGrid(start_doy=doys[0], step_days=6, length=1)
    diffs = {doys[i + 1] - doys[i] for i in range(len(doys) - 1)}
    if len(diffs) != 1 or min(diffs) <= 0:
        raise FileFormatError(path, f"day-of-year stamps are not evenly spaced: {sorted(diffs)}")
    return TemporalGrid(start_doy=doys[0], step_days=diffs.pop(), length=len(doys))


def _line_blocks(fh):
    """The blocks of about `_READ_CHUNK_BYTES` of whole lines of the binary
    file `fh`, from its position to its end.  A line longer than a block
    gives an empty block, the last one."""
    offset = fh.tell()
    while True:
        fh.seek(offset)
        block = fh.read(_READ_CHUNK_BYTES)
        if not block:
            return
        # a short read ends at the end of the file, whose last line may lack
        # its newline
        size = len(block) if len(block) < _READ_CHUNK_BYTES else block.rfind(b"\n") + 1
        yield block[:size]
        if not size:
            return
        offset += size


class _HashedReader(io.RawIOBase):
    """The binary file `fh` read through, each byte read also hashed into
    `sha256`."""

    def __init__(self, fh):
        self.fh = fh
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self.fh.readinto(buf)
        self.sha256.update(memoryview(buf)[:n])
        return n


# the radar channels that derive from the backscatter columns alone; the
# others are the coherences and their mean, which lie in [0, 1] when the
# coherences do
_BACKSCATTER_CHANNELS = ("sigma0_vv_db", "sigma0_vh_db", "sigma0_ratio", "sigma0_cross_ratio_db", "rvi")


def _radar_channels(csv_path, radar: array.array) -> dict[str, np.ndarray]:
    """The radar channels `derive_channels` derives from the rows whose four
    raw radar cells `radar` holds in turn.  The first row whose backscatter
    channels are not all finite in float32, the model's dtype, is refused
    and blamed on the backscatter value further from 0 dB.  derive_channels
    refuses a non-finite value, a VH power that underflows to 0 and a
    coherence outside [0, 1]: a row it would refuse for its backscatter is
    unfit as it is, and such a row's channels are derived from 0 instead (a
    coherence outside [0, 1] fails a check of its own)."""
    raw = np.frombuffer(radar, np.float64).reshape(-1, len(_RAW_TO_CHANNEL))
    vv, vh, coh_vv, coh_vh = raw.T
    with np.errstate(all="ignore"):
        refused = ~(np.isfinite(vv) & np.isfinite(vh)) | (db_to_linear(vh) == 0.0)
        outside = ~((coh_vv >= 0.0) & (coh_vv <= 1.0) & (coh_vh >= 0.0) & (coh_vh <= 1.0))
        sar = derive_channels(np.where(refused, 0.0, vv), np.where(refused, 0.0, vh),
                              np.where(outside, 0.0, coh_vv), np.where(outside, 0.0, coh_vh))
    unfit = refused | ~np.logical_and.reduce([finite_in_float32(sar[c]) for c in _BACKSCATTER_CHANNELS])
    if unfit.any():
        i = int(np.argmax(unfit))
        raise FileFormatError(csv_path, f"radar channels derived from sig_vv_db {vv[i]} and sig_vh_db {vh[i]} are "
                              "not finite in float32", i + 2, "sig_vv_db" if abs(vv[i]) >= abs(vh[i]) else "sig_vh_db")
    return sar


def _id_column(values) -> np.ndarray:
    """Integer ids as an int64 array, or as an object array when one lies
    outside int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _parse_dataset(csv_path: Path) -> Dataset:
    """The dataset that dataset.csv `csv_path` holds, without labels, with
    its `_Source` when its rows come in `write_dataset` order (see
    `read_dataset`)."""
    width = len(DATASET_HEADER)
    pids, steps, ndvi, radar = [], [], array.array("d"), array.array("d")
    step_doys: dict[int, int] = {}
    pixel_meta: dict[int, tuple[int, int]] = {}
    seen: set[tuple[int, int]] = set()
    with open(csv_path, "rb", buffering=0) as fh:
        raw = _HashedReader(fh)
        rows = _csv_rows(csv_path, csv.reader(io.TextIOWrapper(io.BufferedReader(raw), **_CSV_TEXT)))
        _, header = next(rows, (1, None))
        _check_header(csv_path, header, DATASET_HEADER)
        try:
            for rownum, row in rows:
                if len(row) != width:
                    raise FileFormatError(csv_path, f"expected {width} fields, got {len(row)}", rownum)
                pid, parcel, region, step, doy = [_parse_int(csv_path, rownum, name, cell)
                                                  for name, cell in zip(DATASET_HEADER[:5], row)]
                if step < 0:
                    raise FileFormatError(csv_path, "negative step", rownum, "step")
                if step_doys.setdefault(step, doy) != doy:
                    raise FileFormatError(csv_path, f"step {step} maps to both doy {step_doys[step]} and {doy}",
                                          rownum, "doy")
                value = math.nan
                if row[5]:
                    value = _parse_float(csv_path, rownum, "ndvi", row[5])
                    if abs(value) > 1.0:
                        raise FileFormatError(csv_path, f"ndvi {value} outside [-1, 1]", rownum, "ndvi")
                cells = [_parse_float(csv_path, rownum, name, cell) for name, cell in zip(_RAW_TO_CHANNEL, row[6:])]
                for name, coherence in zip(("coh_vv", "coh_vh"), cells[2:]):
                    if not 0.0 <= coherence <= 1.0:
                        raise FileFormatError(csv_path, f"coherence {coherence} outside [0, 1]", rownum, name)
                pids.append(pid)
                steps.append(step)
                ndvi.append(value)
                radar.extend(cells)
                if pixel_meta.setdefault(pid, (parcel, region)) != (parcel, region):
                    raise FileFormatError(csv_path, f"pixel {pid} changes parcel/region mid-file", rownum, "parcel_id")
                if (pid, step) in seen:
                    raise FileFormatError(csv_path, f"duplicate (pixel {pid}, step {step})", rownum, "step")
                seen.add((pid, step))
        except FileFormatError:
            # a row refused for its derived channels comes first when it is
            # an earlier row, or this one past its cell checks: a row's
            # derived check comes after those and before its pixel's and
            # duplicate's, so its radar cells are kept right after them
            _radar_channels(csv_path, radar)
            raise
        digest = _digest_text(raw.sha256)
    channels = _radar_channels(csv_path, radar)
    if not pids:
        raise FileFormatError(csv_path, "no data rows")
    present = sorted(step_doys)
    grid = _infer_grid(csv_path, present, [step_doys[s] for s in present])

    pixel_ids, pixel = np.unique(_id_column(pids), return_inverse=True)
    # pixels in id order up to the first that misses a step (each step is in
    # range(grid.length) and none repeats, so a full pixel has one row per step)
    short = np.flatnonzero(np.bincount(pixel, minlength=pixel_ids.shape[0]) != grid.length)
    if short.size:
        raise FileFormatError(csv_path, f"pixel {pixel_ids[short[0]]} does not cover every step of the grid")
    parcels, regions = zip(*(pixel_meta[p] for p in pixel_ids.tolist()))
    ids = (pixel_ids, _id_column(parcels), _id_column(regions))
    order = np.lexsort((np.array(steps), pixel))
    ndvi = np.frombuffer(ndvi, np.float64)[order].reshape(pixel_ids.shape[0], grid.length)
    sar = np.stack([channels[c] for c in SAR_CHANNELS], axis=1)[order].reshape(*ndvi.shape, len(SAR_CHANNELS))
    source = None
    if np.array_equal(order, np.arange(order.shape[0])):
        source = _Source(csv_path.resolve(), digest, grid, ids, ndvi, sar)
    # the checks above are the constructor's radar checks, so the rows are
    # not checked again (as in `Dataset.select`)
    out = Dataset.__new__(Dataset)
    out._setup(grid, *ids, ndvi, sar, None, source, check_radar=False)
    return out


def _read_copy(copy_path: Path, csv_path: Path) -> Dataset | None:
    """The dataset, without labels, that the copy `copy_path` holds, with
    its `_Source`, when the copy is whole and records the digest of
    dataset.csv `csv_path` as it is now; None when it is not, whatever is
    wrong with it (see the module docstring)."""
    try:
        data = copy_path.read_bytes()
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in (*_COPY_DTYPES, _COPY_DIGEST)}
    except Exception:  # noqa: BLE001 - a copy that cannot be read, however damaged, is no copy
        return None
    # a digest held otherwise than as a 0-d string does not print as one
    digest = str(arrays.pop(_COPY_DIGEST))
    if (any(arrays[name].dtype != dtype for name, dtype in _COPY_DTYPES.items())
            or digest != _copy_digest(arrays) or arrays["grid"].shape != (3,)):
        return None
    csv_digest = sha256_file(csv_path)
    if str(arrays["csv_sha256"]) != csv_digest:
        return None
    ids = tuple(arrays[c] for c in ("pixel_id", "parcel_id", "region_id"))
    n = ids[0].shape[0] if ids[0].ndim == 1 else 0
    try:
        grid = TemporalGrid(*arrays["grid"].tolist())
        blocks = [arrays[c] for c in ("ndvi", *_RAW_TO_CHANNEL)]
        # as the parse reads them: at least a row, ascending pixel ids
        if (n == 0 or any(col.shape != (n,) for col in ids) or (ids[0][1:] <= ids[0][:-1]).any()
                or any(b.shape != (n, grid.length) for b in blocks)):
            return None
        with np.errstate(all="ignore"):
            sar = derive_channels(*blocks[1:])
        ndvi, sar = np.ascontiguousarray(blocks[0]), np.stack([sar[c] for c in SAR_CHANNELS], axis=2)
        source = _Source(csv_path.resolve(), csv_digest, grid, ids, ndvi, sar, _digest_text(hashlib.sha256(data)))
        # the constructor's checks, on the arrays the source holds
        out = Dataset.__new__(Dataset)
        out._setup(grid, *ids, ndvi, sar, None, source, check_radar=True)
    except ValueError:
        return None
    return out


def read_dataset(path) -> Dataset:
    """Read a dataset directory written by `write_dataset`.

    The pixels come in ascending id order.  When dataset.npz records the
    digest of dataset.csv as it is and its own digest checks, the dataset is
    built from that copy and dataset.csv is only hashed; otherwise
    dataset.csv is parsed (see the module docstring).  The dataset's
    `source` records the file, the digest of its bytes and that of the copy
    read (see `_Source`), so that neither a write from it nor a run's
    manifest reads either file again to hash it.

    A parse checks the cells of each row in column order as it reads them
    and stops at the first that fails, naming its row and column.  Whether a
    row's derived radar channels fit in float32 is checked on all the rows
    read so far, when another check fails and at the end, so the error is
    still the first in file and column order.  A parse reads each byte of
    dataset.csv once, after the hash that a copy which loads but records
    another digest takes; it records the source when the rows already come
    in `write_dataset` order."""
    path = Path(path)
    csv_path = path / DATASET_FILE
    if not csv_path.exists():
        raise FileFormatError(csv_path, "file not found")
    dataset = _read_copy(path / COPY_FILE, csv_path) or _parse_dataset(csv_path)
    labels = read_labels(path / LABELS_FILE) if (path / LABELS_FILE).exists() else {}
    return dataset.select(labels=labels)


def read_labels(path) -> dict[int, ParcelLabel]:
    path = Path(path)
    doys: dict[int, list[int]] = {}
    with _csv_file(path) as rows:
        _, header = next(rows, (1, None))
        _check_header(path, header, LABELS_HEADER)
        for rownum, row in rows:
            if len(row) != 2:
                raise FileFormatError(path, f"expected 2 fields, got {len(row)}", rownum)
            pid = _parse_int(path, rownum, "parcel_id", row[0])
            bucket = doys.setdefault(pid, [])
            if row[1] != "":
                bucket.append(_parse_doy(path, rownum, row[1]))
    return {pid: ParcelLabel(pid, tuple(v)) for pid, v in doys.items()}


def write_mask_pools(pools: Mapping[int, MaskPool], path) -> None:
    """All pools in one CSV; T taken from the masks (must agree)."""
    all_masks = [m for r in sorted(pools) for m in pools[r].masks]
    if not all_masks:
        raise ValueError("no masks to write")
    t = all_masks[0].bits.shape[0]
    write_table_csv(path, ["mask_id", "region_id"] + [f"bit_{i}" for i in range(t)],
                    ([m.mask_id, m.region_id, *m.bits.astype(int).tolist()]
                     for m in sorted(all_masks, key=lambda m: m.mask_id)))


def read_mask_pools(path) -> dict[int, MaskPool]:
    path = Path(path)
    with _csv_file(path) as rows:
        _, header = next(rows, (1, None))
        if header is None or len(header) < 3 or header[:2] != ["mask_id", "region_id"]:
            raise FileFormatError(path, f"bad header {header!r}", row=1)
        t = len(header) - 2
        if header[2:] != [f"bit_{i}" for i in range(t)]:
            raise FileFormatError(path, "bit columns must be bit_0..bit_{T-1} in order", row=1)
        by_region: dict[int, list[CloudMask]] = {}
        seen: set[int] = set()
        for rownum, row in rows:
            if len(row) != t + 2:
                raise FileFormatError(path, f"expected {t + 2} fields, got {len(row)}", rownum)
            mid = _parse_int64(path, rownum, "mask_id", row[0], "mask id")
            region = _parse_int64(path, rownum, "region_id", row[1], "region id")
            if mid in seen:
                raise FileFormatError(path, f"duplicate mask_id {mid}", rownum, "mask_id")
            seen.add(mid)
            bits = np.empty(t, dtype=bool)
            for i, raw in enumerate(row[2:]):
                if raw not in ("0", "1"):
                    raise FileFormatError(path, f"bit must be 0 or 1, got {_cell(raw)}", rownum, f"bit_{i}")
                bits[i] = raw == "1"
            by_region.setdefault(region, []).append(CloudMask(mid, region, bits))
    if not by_region:
        raise FileFormatError(path, "no mask rows")
    return {r: MaskPool(r, tuple(ms)) for r, ms in sorted(by_region.items())}


def write_events(events: Iterable[EventSet], path) -> None:
    """One row per event; parcels with none get a single empty row so the
    evaluated-but-unmown population survives the round trip."""
    write_table_csv(path, EVENTS_HEADER, _event_rows(events))


def _event_rows(events: Iterable[EventSet]):
    for es in sorted(events, key=lambda e: e.parcel_id):
        if not es.events:
            yield es.parcel_id, "", ""
        for ev in es.events:
            yield es.parcel_id, ev.doy, float(ev.score)


def read_events(path) -> dict[int, EventSet]:
    path = Path(path)
    collected: dict[int, list[Event]] = {}
    with _csv_file(path) as rows:
        _, header = next(rows, (1, None))
        _check_header(path, header, EVENTS_HEADER)
        for rownum, row in rows:
            if len(row) != 3:
                raise FileFormatError(path, f"expected 3 fields, got {len(row)}", rownum)
            pid = _parse_int(path, rownum, "parcel_id", row[0])
            bucket = collected.setdefault(pid, [])
            if (row[1] == "") != (row[2] == ""):
                raise FileFormatError(path, "event_doy and score must be both empty or both set", rownum)
            if row[1] != "":
                doy = _parse_doy(path, rownum, row[1])
                score = _parse_float(path, rownum, "score", row[2])
                bucket.append(Event(doy=doy, score=score))
    return {pid: EventSet(pid, tuple(evs)) for pid, evs in collected.items()}


def save_model(model: SfModel, path) -> None:
    """Self-describing binary: magic, one-line JSON header, float32 blobs."""
    params = [(name, p) for name, p, _ in model.net.params()]
    entries = []
    offset = 0
    blobs = []
    for name, p in params:
        blob = np.ascontiguousarray(p, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(p.shape), "offset": offset, "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    header = {
        "format_version": 1,
        "dtype": "<f4",
        **jsonable({"arch": model.arch, "stats": model.stats, "grid": model.grid}),
        "params": entries,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"
    atomic_write_bytes(path, MODEL_MAGIC + head + b"".join(blobs))


def load_model(path) -> SfModel:
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != MODEL_MAGIC:
            raise FileFormatError(path, f"bad magic {magic!r}")
        header = _parse_json(fh.readline(), path)
        body = fh.read()
    if not isinstance(header, dict):
        raise FileFormatError(path, "the header is not a JSON object")
    for key, want in (("format_version", 1), ("dtype", "<f4")):
        if header.get(key) != want:
            raise FileFormatError(path, f"unsupported {key} {header.get(key)!r}")
    try:
        # each entry read with the config's type rules: a size is an integer
        arch = SfArchitecture(**{f.name: _coerce(header["arch"][f.name], str(f.type), f"arch.{f.name}")
                                 for f in fields(SfArchitecture)})
        s = header["stats"]
        stats = NormStats(
            channels=tuple(s["channels"]),
            mean=np.asarray(s["mean"], dtype=np.float64),
            sd=np.asarray(s["sd"], dtype=np.float64),
        )
        g = header["grid"]
        grid = TemporalGrid(**{k: _coerce(g[k], "int", f"grid.{k}") for k in ("start_doy", "step_days", "length")})
        # a pool's forward allocates T + pool - 1 steps; past 2T - 1 a window sees no more
        if arch.pool > 2 * grid.length - 1:
            raise ValueError(f"a pool of {arch.pool} steps does not fit the grid's {grid.length} steps")
        # check the sizes against the file before anything is allocated:
        # the header alone may describe a network too large to build
        for entry in header["params"]:
            lo, hi = entry["offset"], entry["offset"] + entry["nbytes"]
            if entry["nbytes"] != 4 * math.prod(entry["shape"]):
                raise ValueError(f"parameter {entry['name']} of shape {entry['shape']} "
                                 f"cannot take {entry['nbytes']} bytes")
            if lo < 0 or hi > len(body):
                raise ValueError(f"parameter {entry['name']} extends past end of file")
        if 4 * arch.n_params != len(body):
            raise ValueError(f"the architecture has {arch.n_params} parameters ({4 * arch.n_params} bytes), "
                             f"the file holds {len(body)} bytes of them")
        net = SfNet(arch, np.random.default_rng(0))
        state: dict[str, np.ndarray] = {}
        for entry in header["params"]:
            lo, hi = entry["offset"], entry["offset"] + entry["nbytes"]
            arr = np.frombuffer(body[lo:hi], dtype="<f4").reshape(entry["shape"])
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"parameter {entry['name']} holds a non-finite value")
            state[entry["name"]] = arr.astype(np.float32)
        net.set_state(state)
        return SfModel(arch=arch, stats=stats, grid=grid, net=net)
    except KeyError as e:
        raise FileFormatError(path, f"the header lacks the entry {e}") from None
    except (TypeError, ValueError) as e:
        raise FileFormatError(path, f"malformed header entry: {e}") from None


@dataclass(frozen=True)
class PipelineParams:
    """Cross-command tunables that belong to no single algorithm."""

    fill_method: str = "sf"
    algorithm: str = "mda1"
    tolerance_days: int = 12
    cloud_filter_threshold: float = 0.15
    decode_threshold: float = 0.5
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tolerance_days < 0:
            raise ValueError("tolerance_days must be >= 0")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")


_SECTIONS: dict[str, type] = {
    "outlier": OutlierParams,
    "density": DensityCriteria,
    "train": TrainConfig,
    "synth": SynthConfig,
    "mda1": Mda1Params,
    "mda2": Mda2Params,
    "pipeline": PipelineParams,
}


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the pipeline, grouped by stage.

    Unknown sections or keys are rejected; values can be overridden by
    GAPFUSE_<SECTION>_<FIELD> environment variables (JSON-parsed when
    possible, e.g. GAPFUSE_TRAIN_MAX_EPOCHS=5)."""

    outlier: OutlierParams = OutlierParams()
    density: DensityCriteria = DensityCriteria()
    train: TrainConfig = TrainConfig()
    synth: SynthConfig = SynthConfig()
    mda1: Mda1Params = Mda1Params()
    mda2: Mda2Params = Mda2Params()
    pipeline: PipelineParams = PipelineParams()

    def to_dict(self) -> dict[str, Any]:
        return jsonable(self)

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "RunConfig":
        unknown = set(d) - set(_SECTIONS)
        if unknown:
            raise ValueError(f"unknown config sections {sorted(unknown)}")
        kwargs = {}
        for name, cls in _SECTIONS.items():
            if name in d:
                kwargs[name] = _section_from_dict(cls, d[name], name)
        return RunConfig(**kwargs)

    def replace_section(self, name: str, **updates) -> "RunConfig":
        section = dataclasses.replace(getattr(self, name), **updates)
        return dataclasses.replace(self, **{name: section})


def jsonable(v: Any) -> Any:
    """`v` as plain JSON values: a dataclass as an object of its fields by
    name, a tuple or list as a list, a mapping as an object with `str` keys,
    a numpy array or scalar as its `tolist()`; anything else as it is."""
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return {f.name: jsonable(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, (tuple, list)):
        return [jsonable(x) for x in v]
    if isinstance(v, Mapping):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    return v


def _coerce(value: Any, typestr: str, where: str) -> Any:
    t = typestr.replace(" ", "")
    if t == "TemporalGrid":
        if not isinstance(value, Mapping):
            raise ValueError(f"{where}: expected an object with start_doy/step_days/length")
        unknown = set(value) - {"start_doy", "step_days", "length"}
        if unknown:
            raise ValueError(f"{where}: unknown grid keys {sorted(unknown)}")
        return TemporalGrid(**{k: _coerce(v, "int", f"{where}.{k}") for k, v in value.items()})
    if t.startswith("Mapping[int") or t.startswith("dict[int"):
        if not isinstance(value, Mapping):
            raise ValueError(f"{where}: expected an object")
        return {int(k): float(v) for k, v in value.items()}
    if t.startswith("tuple["):
        if isinstance(value, (str, Mapping)) or not isinstance(value, Iterable):
            raise ValueError(f"{where}: expected a list")
        value = list(value)
        kinds = t[len("tuple["):-1].split(",")
        if kinds[-1] == "...":
            kinds = kinds[:1] * len(value)
        elif len(value) != len(kinds):
            raise ValueError(f"{where}: expected a list of {len(kinds)} values, got {len(value)}")
        return tuple(_coerce(x, kind, where) for kind, x in zip(kinds, value))
    if t == "bool":
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ValueError(f"{where}: expected a boolean, got {value!r}")
    if t == "int":
        if isinstance(value, bool) or (isinstance(value, float) and (math.isinf(value) or value != int(value))):
            raise ValueError(f"{where}: expected an integer, got {value!r}")
        return int(value)
    if t == "float":
        if isinstance(value, bool):
            raise ValueError(f"{where}: expected a number, got {value!r}")
        return float(value)
    if t == "str":
        return str(value)
    raise ValueError(f"{where}: unsupported config field type {typestr!r}")


def _section_from_dict(cls: type, d: Mapping[str, Any], section: str) -> Any:
    if not isinstance(d, Mapping):
        raise ValueError(f"config section {section!r} must be an object")
    by_name = {f.name: f for f in fields(cls)}
    unknown = set(d) - set(by_name)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in config section {section!r}")
    kwargs = {}
    for k, v in d.items():
        where = f"{section}.{k}"
        try:
            kwargs[k] = _coerce(v, str(by_name[k].type), where)
        except (TypeError, ValueError, OverflowError) as e:
            if str(e).startswith((f"{where}:", f"{where}.")):  # named already, down to a nested key
                raise
            raise ValueError(f"{where}: cannot take {v!r}: {e}") from None
    try:
        return cls(**kwargs)
    except ValueError as e:  # the section's own check of its values together
        given = ", ".join(f"{section}.{k}={v!r}" for k, v in d.items())
        raise ValueError(f"config section {section!r}: {e} ({given})") from None


ENV_PREFIX = "GAPFUSE_"


def _env_overrides(env: Mapping[str, str]) -> dict[str, dict[str, Any]]:
    out: dict[str, dict[str, Any]] = {}
    for key, raw in env.items():
        if not key.startswith(ENV_PREFIX):
            continue
        rest = key[len(ENV_PREFIX):].lower()
        section, _, fieldname = rest.partition("_")
        if section not in _SECTIONS or not fieldname:
            raise ValueError(f"unrecognized override variable {key}")
        value = _parse_json(raw, key, bare_text=True)
        out.setdefault(section, {})[fieldname] = value
    return out


def load_config(path=None, env: Mapping[str, str] | None = None) -> RunConfig:
    """Defaults, then the JSON config file, then environment overrides."""
    merged: dict[str, dict[str, Any]] = {}
    if path is not None:
        data = read_json(path)
        if not isinstance(data, dict):
            raise FileFormatError(path, "config must be a JSON object")
        for sec, vals in data.items():
            if not isinstance(vals, Mapping):
                raise ValueError(f"config section {sec!r} must be an object")
            merged.setdefault(sec, {}).update(vals)
    if env is None:
        env = os.environ
    for sec, vals in _env_overrides(env).items():
        merged.setdefault(sec, {}).update(vals)
    return RunConfig.from_dict(merged)


def _digest_text(h) -> str:
    """A finished sha256 `h` as `sha256_file` writes it."""
    return "sha256:" + h.hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return _digest_text(h)


def hash_tree(path, known: Mapping[str, str | None] | None = None) -> dict[str, str]:
    """Relative-path -> digest for a file or every file under a directory;
    a file under the directory whose relative path `known` maps to a digest
    takes that digest unread."""
    path = Path(path)
    known = known or {}
    if path.is_file():
        return {path.name: sha256_file(path)}
    out = {}
    for p in sorted(path.rglob("*")):
        if p.is_file():
            rel = str(p.relative_to(path))
            out[rel] = known.get(rel) or sha256_file(p)
    return out


def write_json(path, obj: Any) -> None:
    """`jsonable(obj)` as canonical JSON: sorted keys, 2-space indent,
    trailing newline."""
    atomic_write_text(path, json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n")


def read_json(path) -> Any:
    return _parse_json(Path(path).read_bytes(), path)


def write_table_csv(path, header: Iterable[str], rows: Iterable[Iterable[Any]]) -> None:
    """Write a CSV table, the header row then `rows`, with floats written by
    repr so that they read back bit-exactly.  Every CSV file but dataset.csv
    is written here: labels, masks, events and the CLI's report tables."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    atomic_write_text(path, buf.getvalue())


def write_manifest(
    path,
    command: str,
    argv: list[str],
    config: RunConfig,
    inputs: Mapping[str, str],
    outputs: Mapping[str, str],
) -> None:
    """Everything needed to replay a run and check its outputs."""
    manifest = {
        "tool": MANIFEST_TOOL,
        "version": VERSION,
        "command": command,
        "argv": list(argv),
        "config": config.to_dict(),
        "seed": config.pipeline.seed,
        "inputs": dict(sorted(inputs.items())),
        "outputs": dict(sorted(outputs.items())),
    }
    write_json(path, manifest)


def read_manifest(path) -> dict[str, Any]:
    data = read_json(path)
    if not isinstance(data, dict):
        raise FileFormatError(path, "manifest must be a JSON object")
    for key in ("tool", "version", "command", "config"):
        if key not in data:
            raise FileFormatError(path, f"manifest missing key {key!r}")
    if data["tool"] != MANIFEST_TOOL:
        raise FileFormatError(path, f"manifest written by {data['tool']!r}, not {MANIFEST_TOOL!r}")
    if not isinstance(data["config"], dict):
        raise FileFormatError(path, "manifest config must be a JSON object")
    return data
