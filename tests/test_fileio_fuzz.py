"""Differential fuzzing of the dataset reader.

`read_dataset` parses dataset.csv a row at a time, but checks the derived
radar channels on the rows read so far only when another check fails and
at the end.  Here it is compared against `reference_read`, a row-by-row
reader that stops at the first bad cell, on small dataset files with a few
cells or rows mutated: both must accept a file with bitwise equal arrays,
or both must reject it with the same error, row and column.  The same file
also goes through `preprocess`, whose splice copies it in blocks shrunk to
a few lines each.

The reference declares one rule beyond the cells' own parse and range
checks: a row whose derived radar channels (`derive_channels`) are not all
finite in float32, the dtype the model reads them in, is refused and blamed
on whichever of sig_vv_db and sig_vh_db lies further from 0 dB."""

import contextlib
import csv
import io
import itertools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gapfuse import (
    Dataset,
    FileFormatError,
    ParcelLabel,
    PixelSeries,
    TemporalGrid,
    derive_channels,
    read_dataset,
    write_dataset,
)
from gapfuse import fileio
from gapfuse.cli import main
from tests.test_core import dataset_of

HEADER = fileio.DATASET_HEADER


def _quote(raw):
    """A rejected cell as the error quotes it: in full up to 40 characters,
    else its first 40 and its length."""
    if len(raw) > 40:
        return f"{raw[:40]!r}... ({len(raw)} characters)"
    return repr(raw)


def _int(path, row, column, raw):
    try:
        return int(raw)
    except ValueError:
        raise FileFormatError(path, f"not an integer: {_quote(raw)}", row, column) from None


def _float(path, row, column, raw):
    try:
        v = float(raw)
    except ValueError:
        raise FileFormatError(path, f"not a number: {_quote(raw)}", row, column) from None
    if not np.isfinite(v):
        raise FileFormatError(path, f"non-finite value: {_quote(raw)}", row, column)
    return v


def reference_read(path):
    """(grid, [(pixel_id, parcel_id, region_id, ndvi, sar)]) of a dataset
    directory, read one row at a time, raising at the first bad cell."""
    csv_path = Path(path) / "dataset.csv"
    rows_by_pixel, meta, step_doys = {}, {}, {}
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise FileFormatError(csv_path, "empty file, expected a header row")
        if tuple(header) != HEADER:
            raise FileFormatError(csv_path, f"bad header {header!r}, expected {list(HEADER)!r}", row=1)
        rownum = 1
        while True:
            rownum += 1
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as e:
                raise FileFormatError(csv_path, f"unreadable CSV: {e}", rownum) from None
            if len(row) != len(HEADER):
                raise FileFormatError(csv_path, f"expected {len(HEADER)} fields, got {len(row)}", rownum)
            pid, parcel, region, step, doy = (_int(csv_path, rownum, HEADER[k], row[k]) for k in range(5))
            if step < 0:
                raise FileFormatError(csv_path, "negative step", rownum, "step")
            if step_doys.setdefault(step, doy) != doy:
                raise FileFormatError(
                    csv_path, f"step {step} maps to both doy {step_doys[step]} and {doy}", rownum, "doy")
            ndvi = np.nan
            if row[5] != "":
                ndvi = _float(csv_path, rownum, "ndvi", row[5])
                if not -1.0 <= ndvi <= 1.0:
                    raise FileFormatError(csv_path, f"ndvi {ndvi} outside [-1, 1]", rownum, "ndvi")
            radar = [_float(csv_path, rownum, HEADER[k], row[k]) for k in range(6, 10)]
            for col, v in (("coh_vv", radar[2]), ("coh_vh", radar[3])):
                if not 0.0 <= v <= 1.0:
                    raise FileFormatError(csv_path, f"coherence {v} outside [0, 1]", rownum, col)
            with np.errstate(all="ignore"):
                try:
                    fits = all(np.isfinite(np.float32(v)) for v in derive_channels(*radar).values())
                except ValueError:  # a linear power that underflows to 0
                    fits = False
            if not fits:
                vv, vh = radar[:2]
                raise FileFormatError(
                    csv_path, f"radar channels derived from sig_vv_db {vv} and sig_vh_db {vh} are not finite in "
                    "float32", rownum, "sig_vv_db" if abs(vv) >= abs(vh) else "sig_vh_db")
            if meta.setdefault(pid, (parcel, region)) != (parcel, region):
                raise FileFormatError(
                    csv_path, f"pixel {pid} changes parcel/region mid-file", rownum, "parcel_id")
            per_pixel = rows_by_pixel.setdefault(pid, {})
            if step in per_pixel:
                raise FileFormatError(csv_path, f"duplicate (pixel {pid}, step {step})", rownum, "step")
            per_pixel[step] = [ndvi] + radar
    if not rows_by_pixel:
        raise FileFormatError(csv_path, "no data rows")
    steps = sorted(step_doys)
    if steps != list(range(len(steps))):
        present = set(steps)
        missing = list(itertools.islice((s for s in range(steps[-1]) if s not in present), 5))
        raise FileFormatError(csv_path, f"steps are not contiguous from 0; missing {missing}")
    doys = [step_doys[s] for s in steps]
    diffs = {b - a for a, b in zip(doys, doys[1:])}
    if len(doys) == 1:
        grid = TemporalGrid(start_doy=doys[0], step_days=6, length=1)
    elif len(diffs) != 1 or min(diffs) <= 0:
        raise FileFormatError(csv_path, f"day-of-year stamps are not evenly spaced: {sorted(diffs)}")
    else:
        grid = TemporalGrid(start_doy=doys[0], step_days=diffs.pop(), length=len(doys))
    pixels = []
    for pid in sorted(rows_by_pixel):
        per_pixel = rows_by_pixel[pid]
        if sorted(per_pixel) != list(range(grid.length)):
            raise FileFormatError(csv_path, f"pixel {pid} does not cover every step of the grid")
        cols = np.asarray([per_pixel[s] for s in range(grid.length)], dtype=np.float64)
        sar = derive_channels(cols[:, 1], cols[:, 2], cols[:, 3], cols[:, 4])
        px = PixelSeries(pid, *meta[pid], cols[:, 0], sar)
        pixels.append((pid, *meta[pid], px.ndvi, px.sar))
    return grid, pixels


def _valid_dataset() -> Dataset:
    grid = TemporalGrid(start_doy=100, step_days=6, length=4)
    rng = np.random.default_rng(5)
    pixels = []
    for pid, parcel, region in ((5, 1, 0), (2, 1, 0), (9, 4, 1)):
        ndvi = rng.uniform(0.1, 0.9, grid.length)
        ndvi[rng.random(grid.length) < 0.3] = np.nan
        sar = derive_channels(rng.normal(-12, 2, grid.length), rng.normal(-18, 2, grid.length),
                              rng.uniform(0, 1, grid.length), rng.uniform(0, 1, grid.length))
        pixels.append(PixelSeries(pid, parcel, region, ndvi, sar))
    return dataset_of(grid, pixels, {1: ParcelLabel(1, (112,)), 4: ParcelLabel(4, ())})


def _valid_lines() -> list[str]:
    with tempfile.TemporaryDirectory() as d:
        write_dataset(_valid_dataset(), d)
        return (Path(d) / "dataset.csv").read_text().splitlines()


VALID_LINES = _valid_lines()
N_ROWS = len(VALID_LINES) - 1

CELL_VALUES = ["abc", "", " ", "nan", "NaN", "inf", "-inf", "1e999", "1.5", "-1.5", "-0.5", "0.5", "-0.0",
               "1.0000000000000002", "-1e-300", "2", "0", "1", "-1", "1_0", "1__0", "0x10", "+3", "3.0", "1e5",
               "1000000000000", "99999999999999999999", "٣", '"1,5"', '"0.5"', '""', "400", "-400", "-4000",
               "1e39"]
# NDVI text of 31, 32 and 40 bytes: the 40-byte ones read 1e31 and 0.5 when
# cut at 32 bytes, so a reader that cuts long cells short shows here
NDVI_31, NDVI_32, NDVI_40 = "1" + "0" * 26 + "e-27", "1" + "0" * 27 + "e-28", "1" + "0" * 35 + "e-36"
NDVI_40_OUT_OF_RANGE = "0.5" + "0" * 35 + "e9"
# what the sweep sets each cell to: the fuzz values and the float texts each
# column must read as `float()` does
SWEEP_VALUES = CELL_VALUES + [".", "e5", "+", "-", "1e", "1e+", "--1", "1.", ".5", "+.5", "-.5", "1E-1", "1e-400",
                              "-0", NDVI_31, NDVI_32, NDVI_40, NDVI_40_OUT_OF_RANGE]


@st.composite
def mutation(draw):
    """One edit of the file's data lines: (kind, arguments)."""
    kind = draw(st.sampled_from(["cell"] * 6 + ["pad", "tab", "quote", "underscore", "step", "extra",
                                                 "trailing_comma", "drop_field", "crlf", "comment",
                                                 "duplicate", "delete", "blank", "swap"]))
    row = draw(st.integers(0, N_ROWS - 1))
    if kind == "cell":
        return kind, row, draw(st.integers(0, 9)), draw(st.sampled_from(CELL_VALUES))
    if kind in ("pad", "tab", "quote", "underscore"):
        return kind, row, draw(st.integers(0, 9)), None
    if kind == "step":
        return kind, row, 3, str(draw(st.sampled_from([0, 1, 2, 3, 4, 5, 7, -1, 10 ** 12])))
    if kind in ("duplicate", "swap"):
        return kind, row, draw(st.integers(0, N_ROWS - 1)), None
    return kind, row, None, None


def _apply(lines: list[str], edit) -> list[str]:
    kind, row, arg, value = edit
    data = lines[1:]
    row %= max(len(data), 1)
    if not data:
        return lines
    cells = data[row].split(",")
    if kind in ("cell", "step") and arg < len(cells):
        cells[arg] = value
    elif kind == "pad" and arg < len(cells):
        cells[arg] = f" {cells[arg]} "
    elif kind == "tab" and arg < len(cells):
        cells[arg] = f"\t{cells[arg]}"
    elif kind == "quote" and arg < len(cells):
        cells[arg] = f'"{cells[arg]}"'
    elif kind == "underscore" and arg < len(cells) and len(cells[arg]) > 1:
        cells[arg] = cells[arg][0] + "_" + cells[arg][1:]
    elif kind == "extra":
        cells.append("0")
    elif kind == "trailing_comma":
        cells.append("")
    elif kind == "drop_field":
        cells.pop()
    data[row] = ",".join(cells)
    if kind == "crlf":
        data[row] += "\r"
    elif kind == "duplicate":
        data.insert(arg % (len(data) + 1), data[row])
    elif kind == "delete":
        del data[row]
    elif kind == "blank":
        data.insert(row, "")
    elif kind == "comment":
        data.insert(row, "# a comment")
    elif kind == "swap":
        other = arg % len(data)
        data[row], data[other] = data[other], data[row]
    return lines[:1] + data


def _outcome(read, path):
    try:
        return read(path), None
    except ValueError as e:
        return None, e


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edits=st.lists(mutation(), min_size=1, max_size=3), chunk=st.sampled_from([1, 2, 5, 1024]))
# one file per check of a row, in the order a row's cells are checked
@example(edits=[("drop_field", 4, None, None)], chunk=1024)
@example(edits=[("cell", 4, 0, "1.5")], chunk=2)
@example(edits=[("step", 4, 3, "-1")], chunk=1024)
@example(edits=[("cell", 6, 4, "101")], chunk=5)
@example(edits=[("cell", 6, 5, "abc")], chunk=5)
@example(edits=[("cell", 6, 5, "nan")], chunk=1)
@example(edits=[("cell", 6, 5, "-1.5")], chunk=1024)
@example(edits=[("cell", 7, 7, "inf")], chunk=2)
@example(edits=[("cell", 7, 8, "1.5")], chunk=1024)
@example(edits=[("cell", 7, 9, "-1e-300")], chunk=5)
@example(edits=[("cell", 7, 6, "400")], chunk=2)
@example(edits=[("cell", 4, 7, "-400")], chunk=1024)
@example(edits=[("cell", 8, 7, "-4000")], chunk=5)
@example(edits=[("cell", 3, 6, "1e39")], chunk=1)
@example(edits=[("cell", 9, 1, "7")], chunk=2)
@example(edits=[("cell", 9, 2, "7")], chunk=1024)
@example(edits=[("duplicate", 9, 2, None)], chunk=5)
@example(edits=[("step", 2, 3, "1000000000000")], chunk=1024)
@example(edits=[("delete", 2, None, None)], chunk=1)
@example(edits=[("cell", 2, 6, "1_0"), ("pad", 3, 8, None), ("quote", 4, 0, None)], chunk=2)
# a row refused for its derived channels is the error, whatever a later row
# holds, and a row's derived channels are checked before its pixel is
@example(edits=[("cell", 3, 6, "400"), ("cell", 7, 0, "abc")], chunk=1024)
@example(edits=[("cell", 3, 6, "400"), ("drop_field", 7, None, None)], chunk=2)
@example(edits=[("duplicate", 3, 9, None), ("cell", 9, 6, "400")], chunk=5)
# line ends, comments, empty and padded cells, and an overflow to inf
@example(edits=[("crlf", 3, None, None)], chunk=2)
@example(edits=[("comment", 8, None, None)], chunk=1)
@example(edits=[("trailing_comma", 10, None, None)], chunk=5)
@example(edits=[("tab", 6, 0, None)], chunk=1024)
@example(edits=[("cell", 0, 5, "1e999")], chunk=1)
@example(edits=[("cell", 11, 6, "1e999")], chunk=1024)
@example(edits=[("cell", 5, 7, "1e999")], chunk=2)
@example(edits=[("cell", 8, 8, "1e999")], chunk=5)
@example(edits=[("cell", 3, 9, "1e999")], chunk=1)
# NDVI text: cells of 31, 32 and 40 bytes, empty cells first and last in a
# splice block (about 2 lines each at chunk 2), and text that `float()`
# refuses or reads as inf
@example(edits=[("cell", 5, 5, NDVI_31)], chunk=1024)
@example(edits=[("cell", 5, 5, NDVI_32)], chunk=2)
@example(edits=[("cell", 5, 5, NDVI_40)], chunk=1024)
@example(edits=[("cell", 2, 5, "")], chunk=2)
@example(edits=[("cell", 9, 5, "")], chunk=2)
@example(edits=[("cell", 0, 5, ""), ("cell", 11, 5, "")], chunk=1024)
@example(edits=[("cell", 6, 5, "1e999")], chunk=1024)
@example(edits=[("cell", 6, 5, ".")], chunk=1024)
@example(edits=[("cell", 6, 5, "e5")], chunk=2)
@example(edits=[("cell", 6, 5, "+")], chunk=5)
def test_reader_matches_row_by_row_reference(edits, chunk):
    lines = VALID_LINES
    for edit in edits:
        lines = _apply(lines, edit)
    with tempfile.TemporaryDirectory() as d:
        src = Path(d) / "in"
        src.mkdir()
        (src / "dataset.csv").write_text("\n".join(lines) + "\n")
        want, want_err = _outcome(reference_read, src)
        got, got_err = _outcome(read_dataset, src)
        # about `chunk` lines per block of preprocess's splice (a line is
        # 88-109 bytes)
        with mock.patch.object(fileio, "_READ_CHUNK_BYTES", 128 * chunk):
            with contextlib.redirect_stderr(io.StringIO()):
                rc = main(["preprocess", "--in", str(src), "--out", str(Path(d) / "out")])
    _assert_same_outcome(got, got_err, want, want_err)
    assert rc == (2 if want_err is not None else 0)


# pixels 2 and 5 of the valid file
SWEEP_LINES = VALID_LINES[:9]


@pytest.mark.parametrize("column", HEADER[5:])
def test_every_single_cell_mutation_matches_the_reference(tmp_path, column):
    """Each NDVI or radar cell of a 2-pixel file set to each of
    `SWEEP_VALUES`, one file at a time: a deterministic sweep of the single
    mutations a random draw may miss."""
    at = HEADER.index(column)
    for row, value in itertools.product(range(len(SWEEP_LINES) - 1), SWEEP_VALUES):
        lines = _apply(SWEEP_LINES, ("cell", row, at, value))
        (tmp_path / "dataset.csv").write_text("\n".join(lines) + "\n")
        want, want_err = _outcome(reference_read, tmp_path)
        got, got_err = _outcome(read_dataset, tmp_path)
        try:
            _assert_same_outcome(got, got_err, want, want_err)
        except AssertionError as e:
            raise AssertionError(f"row {row}, {column} = {value!r}: {e}") from None


def _assert_same_outcome(got, got_err, want, want_err) -> None:
    """`read_dataset`'s outcome is `reference_read`'s: the same error, row
    and column, or the same data."""
    if want_err is not None:
        assert got_err is not None, f"accepted a file the reference rejects: {want_err}"
        assert type(got_err) is type(want_err)
        assert str(got_err) == str(want_err)
        if isinstance(want_err, FileFormatError):
            assert (got_err.row, got_err.column) == (want_err.row, want_err.column)
        return
    assert got_err is None, f"rejected a file the reference accepts: {got_err}"
    _assert_same(got, want)


def _assert_same(got: Dataset, want) -> None:
    grid, pixels = want
    assert got.grid == grid
    assert len(got.pixels) == len(pixels)
    for px, (pid, parcel, region, ndvi, sar) in zip(got.pixels, pixels):
        assert (px.pixel_id, px.parcel_id, px.region_id) == (pid, parcel, region)
        assert px.ndvi.tobytes() == ndvi.tobytes()
        for name in sar:
            assert px.sar[name].tobytes() == sar[name].tobytes(), name


@pytest.mark.parametrize("column", range(5))
def test_float_text_in_an_id_column_is_not_an_integer(tmp_path, column):
    """`1.0` in an id column is no integer, although it reads as one
    number; the reader names the cell."""
    lines = list(VALID_LINES)
    cells = lines[3].split(",")
    cells[column] = "1.0"
    lines[3] = ",".join(cells)
    (tmp_path / "dataset.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as e:
        read_dataset(tmp_path)
    assert str(e.value).endswith("not an integer: '1.0'")
    assert (e.value.row, e.value.column) == (4, HEADER[column])
