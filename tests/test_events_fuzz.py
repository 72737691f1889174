"""Fuzzing of the label and event readers.

`read_labels` and `read_events` read small files with a few cells, rows,
field counts or header names mutated.  A read either succeeds or raises a
`FileFormatError` that names the file and the row.  What a read returns
goes on: every label to `labels_to_binary`, which maps its days onto the
grid, and the file to `gapfuse eval` in events mode, which must then exit 0
(or 2, with the file named, when the read failed) and never 3."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gapfuse import FileFormatError, TemporalGrid, read_events, read_labels
from gapfuse.cli import main
from gapfuse.detect import labels_to_binary

GRID = TemporalGrid()
LABEL_LINES = ["parcel_id,event_doy", "0,130", "0,190", "1,", "2,160", "3,"]
EVENT_LINES = ["parcel_id,event_doy,score", "0,131,0.9", "1,,", "2,150,0.7", "2,211,0.25", "3,,"]

CELL_VALUES = ["abc", "", " ", "1.5", "-1", "0", "130", " 160 ", "1_0", "+3", "0x10", "٣", "nan", "inf",
               "1e5", "1e999", str(2 ** 63 - 1), str(2 ** 63), str(-2 ** 63), str(-2 ** 63 - 1), "9" * 401,
               "9" * 5000, '"1,5"', '""', "x" * 200_000, "event_doy"]

HUGE_DOY = "9" * 401


@st.composite
def mutation(draw):
    """One edit of a file: (kind, row, field, value).  Rows count from 0 at
    the header; data edits pick rows from 1."""
    kind = draw(st.sampled_from(["cell"] * 6 + ["extra", "drop_field", "duplicate", "delete", "blank", "swap",
                                                 "crlf", "quote", "header_cell", "header_extra", "header_drop",
                                                 "no_header", "empty"]))
    row = 0 if kind.startswith("header") else draw(st.integers(1, 5))
    return kind, row, draw(st.integers(0, 2)), draw(st.sampled_from(CELL_VALUES))


def _apply(lines: list[str], edit) -> list[str]:
    kind, row, field, value = edit
    lines = list(lines)
    if kind == "empty":
        return []
    if kind == "no_header":
        return lines[1:]
    if not lines:
        return lines
    row %= len(lines)
    cells = lines[row].split(",")
    if kind in ("cell", "header_cell"):
        cells[field % len(cells)] = value
    elif kind in ("extra", "header_extra"):
        cells.append(value)
    elif kind in ("drop_field", "header_drop"):
        cells.pop()
    elif kind == "quote":
        cells[field % len(cells)] = f'"{cells[field % len(cells)]}"'
    lines[row] = ",".join(cells)
    if kind == "crlf":
        lines[row] += "\r"
    elif kind == "duplicate":
        lines.insert(row, lines[row])
    elif kind == "delete":
        del lines[row]
    elif kind == "blank":
        lines.insert(row, "")
    elif kind == "swap":
        other = 1 + field % max(len(lines) - 1, 1)
        if other < len(lines):
            lines[row], lines[other] = lines[other], lines[row]
    return lines


def _read(read, path: Path, lines: list[str]):
    """`read(path)`, or None when it raises a FileFormatError, which must
    name the file and (unless the file is empty) the row."""
    try:
        return read(path)
    except FileFormatError as e:
        assert e.path == str(path)
        assert e.row is not None or not lines, str(e)
        return None


def _eval(d: Path, pred: Path, truth: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["eval", "--pred", str(pred), "--truth", str(truth), "--out", str(d / "score")])
    return rc, err.getvalue()


def _check_cli(rc: int, err: str, read_ok: bool, path: Path, lines: list[str]) -> None:
    if read_ok:
        assert rc == 0, err
    else:
        assert rc == 2, err
        assert str(path) in err, err
        assert re.search(r", row \d+", err) or not lines, err


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(edits=st.lists(mutation(), min_size=1, max_size=3))
@example(edits=[("cell", 2, 1, HUGE_DOY)])
@example(edits=[("cell", 4, 1, str(2 ** 63))])
@example(edits=[("cell", 1, 1, str(-2 ** 63 - 1))])
@example(edits=[("header_extra", 0, 0, "event_doy")])
@example(edits=[("header_cell", 0, 1, "x" * 200_000)])
@example(edits=[("empty", 0, 0, "")])
def test_labels_read_or_refuse_with_row(edits):
    lines = LABEL_LINES
    for edit in edits:
        lines = _apply(lines, edit)
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        truth, pred = d / "labels.csv", d / "events.csv"
        truth.write_text("".join(line + "\n" for line in lines))
        pred.write_text("\n".join(EVENT_LINES) + "\n")
        labels = _read(read_labels, truth, lines)
        for label in (labels or {}).values():
            try:
                labels_to_binary(label, GRID)
            except ValueError as e:
                assert "collapse onto step" in str(e)
        rc, err = _eval(d, pred, truth)
    _check_cli(rc, err, labels is not None, truth, lines)


@FUZZ
@given(edits=st.lists(mutation(), min_size=1, max_size=3))
@example(edits=[("cell", 1, 1, HUGE_DOY)])
@example(edits=[("cell", 3, 1, str(2 ** 63))])
@example(edits=[("cell", 4, 2, "1e999")])
@example(edits=[("drop_field", 2, 0, "")])
@example(edits=[("empty", 0, 0, "")])
def test_events_read_or_refuse_with_row(edits):
    lines = EVENT_LINES
    for edit in edits:
        lines = _apply(lines, edit)
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        pred, truth = d / "events.csv", d / "labels.csv"
        pred.write_text("".join(line + "\n" for line in lines))
        truth.write_text("\n".join(LABEL_LINES) + "\n")
        events = _read(read_events, pred, lines)
        rc, err = _eval(d, pred, truth)
    _check_cli(rc, err, events is not None, pred, lines)

