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

dataset.csv is read a bounded chunk of about 1 MB of whole lines at a time
by numpy's C parser.  A chunk that parser could read otherwise than
Python's `int()`/`float()` (a byte other than digits, signs, `.`, `e`,
commas and newlines, a blank line, a failed parse, a non-finite value) is
left, with the rest of the file, to the `csv` module and per-column
`int()`/`float()`, which alone reject cells and name the row and column of
an error.

Model files are a magic line, a one-line JSON header (architecture, stats,
grid, parameter names/shapes/offsets) and raw little-endian float32 blobs.
All writes go through a temp-file-then-rename so readers never observe a
partial file.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import operator
import os
import tempfile
import warnings
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
def _atomic_file(path, mode: str = "wb", **kwargs):
    """Open a sibling temp file for writing and rename it onto `path` once
    the block completes, so the target is never observed half-written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
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


def _parse_doy(path, row: int, raw: str) -> int:
    """An `event_doy` cell: an integer in the int64 range, so that grid
    arithmetic on it stays finite."""
    doy = _parse_int(path, row, "event_doy", raw)
    if not -2 ** 63 <= doy < 2 ** 63:
        raise FileFormatError(path, "day of year outside the int64 range", row, "event_doy")
    return doy


def _parse_float(path, row: int, column: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise FileFormatError(path, f"not a number: {_cell(raw)}", row, column) from None
    if not np.isfinite(v):
        raise FileFormatError(path, f"non-finite value: {_cell(raw)}", row, column)
    return v


# CSV text is read as UTF-8 with each byte that is not UTF-8 kept as a lone
# surrogate, so that `_non_utf8` finds the row that holds it
_CSV_TEXT = dict(encoding="utf-8", errors="surrogateescape", newline="")


def _non_utf8(rows: list[list[str]]) -> tuple[int, str] | None:
    """(index, error message) of the first of `rows`, read as `_CSV_TEXT`,
    that holds a byte that is not UTF-8; None when every byte is."""
    if "".join(itertools.chain.from_iterable(rows)).isascii():
        return None
    for k, row in enumerate(rows):
        try:
            "".join(row).encode("utf-8")
        except UnicodeEncodeError as e:
            return k, f"not UTF-8 text: byte {ord(e.object[e.start]) - 0xdc00:#04x}"
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
        bad = _non_utf8([row])
        if bad is not None:
            raise FileFormatError(path, bad[1], rownum)
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
_INT_COLUMNS = DATASET_HEADER[:5]
# pixels formatted, and rows tokenized, per chunk: bounds the memory of the
# per-cell strings.  A chunk of row lists this small is mostly freed before
# the garbage collector promotes it, which keeps full collections rare (5 in
# a 20,000-pixel read, against 11 with 2,048-row chunks)
_WRITE_CHUNK_PIXELS = 512
_READ_CHUNK_ROWS = 1024
# bytes of whole lines read per chunk by numpy's C parser: bounds the memory
# that the raw text and its parse take at once, whatever the file's size
_READ_CHUNK_BYTES = 1 << 20
_HEADER_LINE = (",".join(DATASET_HEADER) + "\n").encode()
# the only bytes a chunk may hold for the C parser to read it (see `_parse_chunk`)
_CHUNK_BYTES = b"0123456789+-.eE,\n"
_CHUNK_DTYPE = np.dtype([(name, np.int64) for name in _INT_COLUMNS]
                        + [(name, np.float64) for name in DATASET_HEADER[5:]])


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
    radar = [list(map(repr, radar[:, :, c].ravel().tolist())) for c in range(radar.shape[2])]
    return "".join(map("{}{},{},{},{},{}\n".format, keys, ndvi_cells, *radar))


def write_dataset(dataset: Dataset, path) -> None:
    """Write `dataset.csv` and `labels.csv` under the directory `path`.

    Rows ordered by (pixel_id, step); only the four measured radar columns
    are stored, the derived features being recomputed on read.  The rows are
    formatted and written a chunk of pixels at a time."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    order = np.argsort(dataset.pixel_ids, kind="stable")
    raw = [SAR_CHANNELS.index(c) for c in _RAW_TO_CHANNEL.values()]
    step_cells = [f"{t},{int(d)}," for t, d in enumerate(dataset.grid.doys)]
    with _atomic_file(path / DATASET_FILE, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(DATASET_HEADER) + "\n")
        for lo in range(0, order.shape[0], _WRITE_CHUNK_PIXELS):
            rows = order[lo:lo + _WRITE_CHUNK_PIXELS]
            ids = zip(*(col[rows].tolist() for col in
                        (dataset.pixel_ids, dataset.pixel_parcel_ids, dataset.pixel_region_ids)))
            fh.write(_dataset_rows((list(ids), dataset.ndvi[rows], dataset.sar[rows][:, :, raw]), step_cells))
    write_table_csv(path / LABELS_FILE, LABELS_HEADER, _label_rows(dataset.labels))


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


def _convert_cells(convert, cells: tuple[str, ...], placeholder) -> tuple[list, np.ndarray]:
    """`convert` (int or float) of every cell, and the mask of the cells it
    rejects (`placeholder` stands in for their value)."""
    bad = np.zeros(len(cells), dtype=bool)
    try:
        return list(map(convert, cells)), bad
    except ValueError:
        pass
    values = []
    for i, raw in enumerate(cells):
        try:
            values.append(convert(raw))
        except ValueError:
            values.append(placeholder)
            bad[i] = True
    return values, bad


def _convert_column(name: str, cells: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """One dataset.csv column of a chunk as an array, and the mask of the
    cells its parser (`_parse_int` for the id columns, `_parse_float` for the
    others) rejects.  Ints past int64 give an object array; an empty NDVI
    cell is NaN and passes."""
    if name in _INT_COLUMNS:
        values, bad = _convert_cells(int, cells, 0)
        try:
            return np.array(values, dtype=np.int64), bad
        except OverflowError:
            return np.array(values, dtype=object), bad
    empty = np.zeros(len(cells), dtype=bool)
    if name == "ndvi":
        empty = np.fromiter(map(operator.not_, cells), bool, len(cells))
        cells = [raw or "nan" for raw in cells]
    values, bad = _convert_cells(float, cells, np.nan)
    arr = np.array(values, dtype=np.float64)
    return arr, bad | (~np.isfinite(arr) & ~empty)


def _parse_chunk(chunk: bytes) -> np.ndarray | None:
    """The rows of `chunk`, whole dataset.csv lines, parsed by numpy's C
    parser into `_CHUNK_DTYPE`, an empty NDVI cell giving NaN; or None when
    the chunk is left to the csv path because the C parser could read it
    otherwise than `_convert_column` does:
    * a byte outside `_CHUNK_BYTES` (a literal nan or inf, a quote, `\\r`, a
      pad, a `#`, an underscore, non-ASCII text);
    * a line the parser skips (a blank line) or a failed parse (a wrong field
      count, a bad or out-of-range number; warnings count as failures, since
      numpy before 2.0 reads `1.0` into an int column with a warning);
    * a non-finite value other than an empty NDVI cell (`1e999` is inf)."""
    if chunk.translate(None, _CHUNK_BYTES):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(io.BytesIO(chunk.replace(b",,", b",nan,")), dtype=_CHUNK_DTYPE,
                              delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    if rows.shape[0] != chunk.count(b"\n") + (not chunk.endswith(b"\n")):
        return None
    if np.isinf(rows["ndvi"]).any() or not all(np.isfinite(rows[c]).all() for c in _RAW_TO_CHANNEL):
        return None
    return rows


def _parse_chunks(fh) -> tuple[list[np.ndarray], int | None]:
    """The data rows that numpy's C parser reads from the start of the binary
    dataset.csv `fh`, as `_parse_chunk` arrays of about `_READ_CHUNK_BYTES`
    of lines each, and the byte offset at which the csv path takes over:
    None when the parser reads the whole file, 0 when the first line is not
    exactly the header."""
    chunks: list[np.ndarray] = []
    if fh.readline(len(_HEADER_LINE)) != _HEADER_LINE:
        return chunks, 0
    offset = len(_HEADER_LINE)
    while True:
        fh.seek(offset)
        block = fh.read(_READ_CHUNK_BYTES)
        if not block:
            return chunks, None
        # a short read ends at the end of the file, whose last line may lack
        # its newline; a line longer than a block goes to the csv path
        size = len(block) if len(block) < _READ_CHUNK_BYTES else block.rfind(b"\n") + 1
        rows = _parse_chunk(block[:size]) if size else None
        if rows is None:
            return chunks, offset
        chunks.append(rows)
        offset += size


def _read_dataset_columns(csv_path, fh):
    """Read the data rows of the binary dataset.csv `fh` into columns.

    Numpy's C parser reads whole chunks while it can (`_parse_chunks`).  From
    the first chunk it leaves, or from the header when that is not exactly
    the expected line, to the end of the file, the `csv` module tokenizes
    `_READ_CHUNK_ROWS` rows at a time and each column of those rows is
    converted in one pass; only this path rejects cells and names errors.

    Returns (columns, invalid, last, stop):
    * columns: name -> array over the rows read (see `_convert_column`);
    * invalid: name -> mask of the cells the column's parser rejects;
    * last: (index of its first row, its raw columns) of the last csv chunk;
    * stop: the error of the row that ended the reading early, a wrong field
      count or a tokenizer error, or None.
    Reading stops after a csv chunk with an invalid cell, since no later row
    can hold the first error."""
    width = len(DATASET_HEADER)
    chunks, offset = _parse_chunks(fh)
    n = sum(rows.shape[0] for rows in chunks)
    parts = {name: [rows[name] for rows in chunks] for name in DATASET_HEADER}
    invalid = {name: [np.zeros(n, dtype=bool)] for name in DATASET_HEADER}
    reader = iter(())
    if offset is not None:
        fh.seek(offset)
        reader = csv.reader(io.TextIOWrapper(fh, **_CSV_TEXT))
    if offset == 0:
        _, header = next(_csv_rows(csv_path, reader), (1, None))
        _check_header(csv_path, header, DATASET_HEADER)
    last: tuple[int, list[tuple[str, ...]]] = (0, [])
    stop = None
    while stop is None:
        rows: list[list[str]] = []
        try:
            rows.extend(itertools.islice(reader, _READ_CHUNK_ROWS))
        except csv.Error as e:
            stop = FileFormatError(csv_path, f"unreadable CSV: {e}", n + len(rows) + 2)
        wrong = np.flatnonzero(np.fromiter(map(len, rows), np.intp, len(rows)) != width)
        if wrong.size:
            k = int(wrong[0])
            stop = FileFormatError(csv_path, f"expected {width} fields, got {len(rows[k])}", n + k + 2)
            del rows[k:]
        bad = _non_utf8(rows)
        if bad is not None:
            stop = FileFormatError(csv_path, bad[1], n + bad[0] + 2)
            del rows[bad[0]:]
        if not rows:
            break
        cells = list(zip(*rows))
        last = (n, cells)
        for name, col in zip(DATASET_HEADER, cells):
            arr, bad = _convert_column(name, col)
            parts[name].append(arr)
            invalid[name].append(bad)
        n += len(rows)
        if any(masks[-1].any() for masks in invalid.values()):
            break
    columns = {name: np.concatenate(p) if p else np.zeros(0, np.int64) for name, p in parts.items()}
    masks = {name: np.concatenate(p) for name, p in invalid.items()}
    return columns, masks, last, stop


def _float32_unfit(vv: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """Rows whose radar channels, as `derive_channels` derives them from
    these backscatter values in dB, are not all finite in float32, the
    model's dtype.  derive_channels refuses a non-finite value and a VH power
    that underflows to 0; either gives a non-finite channel, so those rows
    are unfit as they are and are derived from 0 dB instead."""
    with np.errstate(all="ignore"):
        refused = ~(np.isfinite(vv) & np.isfinite(vh)) | (db_to_linear(vh) == 0.0)
        zero = np.zeros_like(vv)  # the coherences are checked on their own
        sar = derive_channels(np.where(refused, 0.0, vv), np.where(refused, 0.0, vh), zero, zero)
    return refused | ~np.logical_and.reduce([finite_in_float32(c) for c in sar.values()])


def read_dataset(path) -> Dataset:
    """Read a dataset directory written by `write_dataset`.

    The pixels come in ascending id order.  Every check runs on whole
    columns.  Only when one fails is the offending
    row looked up: the first in file order, and within it the first failing
    check in column order, so the error names the row and column that a
    row-by-row reader stopping at the first bad cell would name."""
    path = Path(path)
    csv_path = path / DATASET_FILE
    if not csv_path.exists():
        raise FileFormatError(csv_path, "file not found")
    with open(csv_path, "rb") as fh:
        cols, invalid, last, stop = _read_dataset_columns(csv_path, fh)
    pid, parcel, region, step, doy, ndvi = (cols[c] for c in DATASET_HEADER[:6])
    pixel_ids, first_of_pixel, pixel = np.unique(pid, return_index=True, return_inverse=True)
    steps, first_of_step, step_index = np.unique(step, return_index=True, return_inverse=True)
    # rows by (pixel, step); lexsort is stable, so a repeated pair is flagged
    # at its later rows in file order
    order = np.lexsort((step_index, pixel))
    repeat = np.zeros(pid.shape[0], dtype=bool)
    sorted_pixel, sorted_step = pixel[order], step_index[order]
    repeat[order[1:][(sorted_pixel[1:] == sorted_pixel[:-1]) & (sorted_step[1:] == sorted_step[:-1])]] = True
    first_doy = doy[first_of_step][step_index]

    # (mask of failing rows, column, message) in the order a row's cells are
    # checked; a None message marks cells the column's parser rejects
    checks = [(invalid[c], c, None) for c in _INT_COLUMNS]
    checks += [
        (step < 0, "step", lambda i: "negative step"),
        (doy != first_doy, "doy", lambda i: f"step {step[i]} maps to both doy {first_doy[i]} and {doy[i]}"),
        (invalid["ndvi"], "ndvi", None),
        (np.abs(ndvi) > 1.0, "ndvi", lambda i: f"ndvi {ndvi[i]} outside [-1, 1]"),
    ]
    checks += [(invalid[c], c, None) for c in _RAW_TO_CHANNEL]
    checks += [((cols[c] < 0.0) | (cols[c] > 1.0), c, lambda i, c=c: f"coherence {cols[c][i]} outside [0, 1]")
               for c in ("coh_vv", "coh_vh")]
    # a derived radar channel the model's float32 cannot hold, blamed on the
    # backscatter value further from 0 dB
    vv, vh = cols["sig_vv_db"], cols["sig_vh_db"]
    unfit, vv_blamed = _float32_unfit(vv, vh), np.abs(vv) >= np.abs(vh)
    checks += [(unfit & blamed, c, lambda i: f"radar channels derived from sig_vv_db {vv[i]} and sig_vh_db {vh[i]} "
                "are not finite in float32") for c, blamed in (("sig_vv_db", vv_blamed), ("sig_vh_db", ~vv_blamed))]
    checks += [
        ((parcel != parcel[first_of_pixel][pixel]) | (region != region[first_of_pixel][pixel]), "parcel_id",
         lambda i: f"pixel {pid[i]} changes parcel/region mid-file"),
        (repeat, "step", lambda i: f"duplicate (pixel {pid[i]}, step {step[i]})"),
    ]
    failing = np.logical_or.reduce([mask for mask, _, _ in checks])
    if failing.any():
        i = int(np.argmax(failing))
        for mask, column, message in checks:
            if mask[i]:
                if message is None:
                    parse = _parse_int if column in _INT_COLUMNS else _parse_float
                    parse(csv_path, i + 2, column, last[1][DATASET_HEADER.index(column)][i - last[0]])
                raise FileFormatError(csv_path, message(i), i + 2, column)
    if stop is not None:
        raise stop
    if pid.shape[0] == 0:
        raise FileFormatError(csv_path, "no data rows")
    grid = _infer_grid(csv_path, steps.tolist(), doy[first_of_step].tolist())

    # pixels in id order up to the first that misses a step (each step is in
    # range(grid.length) and none repeats, so a full pixel has one row per step)
    short = np.flatnonzero(np.bincount(pixel, minlength=pixel_ids.shape[0]) != grid.length)
    n_full = int(short[0]) if short.size else pixel_ids.shape[0]
    rows = order[:n_full * grid.length]

    def block(column: np.ndarray) -> np.ndarray:
        return column[rows].reshape(n_full, grid.length)

    sar = derive_channels(*(block(cols[c]) for c in _RAW_TO_CHANNEL))
    checked = Dataset(
        grid, pixel_ids[:n_full], parcel[first_of_pixel][:n_full], region[first_of_pixel][:n_full],
        block(ndvi), np.stack([sar[c] for c in SAR_CHANNELS], axis=2))
    if n_full < pixel_ids.shape[0]:
        raise FileFormatError(csv_path, f"pixel {pixel_ids[n_full]} does not cover every step of the grid")
    labels = read_labels(path / LABELS_FILE) if (path / LABELS_FILE).exists() else {}
    return checked.select(labels=labels)


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
            mid = _parse_int(path, rownum, "mask_id", row[0])
            region = _parse_int(path, rownum, "region_id", row[1])
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


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def hash_tree(path) -> dict[str, str]:
    """Relative-path -> digest for a file or every file under a directory."""
    path = Path(path)
    if path.is_file():
        return {path.name: sha256_file(path)}
    out = {}
    for p in sorted(path.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(path))] = sha256_file(p)
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
