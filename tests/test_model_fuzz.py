"""Fuzzing of the model-file and mask-pool readers.

A small model file goes to `load_model` with its magic line, a header key,
type or value (of the architecture, the stats, the grid or a `params`
entry), or its body mutated: truncated, extended, or a NaN or infinity
planted in a parameter.  A mask-pool file goes to `read_mask_pools` with a
few cells, rows or header names mutated.  A read either succeeds or raises
a `FileFormatError` that names the file (and, for a mask file with a line
after its header, the row).  The same file then goes to the CLI, the model to
`gapfuse gapfill --method sf --model` and the masks to `gapfuse train
--masks`, which must exit 0, or 2 naming the file when the read failed,
and never 3."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gapfuse import FileFormatError, TemporalGrid, load_model, read_mask_pools
from gapfuse.cli import main
from gapfuse.fileio import save_model
from gapfuse.sfmodel import NormStats, SfArchitecture, SfModel, SfNet

FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

ARCH = SfArchitecture(channels=("ndvi", "sigma0_vv_db", "coh_vv"), conv_filters=(2, 3), branch_dense=(3, 2),
                      lstm_hidden=2)


def _model_bytes() -> bytes:
    stats = NormStats(channels=ARCH.sar_channels, mean=np.array([-12.0, 0.5]), sd=np.array([2.0, 0.2]))
    model = SfModel(ARCH, stats, TemporalGrid(), SfNet(ARCH, np.random.default_rng(0)))
    with tempfile.TemporaryDirectory() as d:
        save_model(model, Path(d) / "m.gfm")
        return (Path(d) / "m.gfm").read_bytes()


MAGIC, HEADER, BODY = _model_bytes().split(b"\n", 2)
FIELDS = json.loads(HEADER)
N_PARAMS = len(FIELDS["params"])

VALUES = [None, True, False, "", "abc", "regression", "detection", "<f8", 0, 1, -1, 2, 3, 4, 29, 1.5, 3.0,
          -0.5, 1e300, float("nan"), float("inf"), 2 ** 63, 10 ** 40, [], [2], [2, 3], [3, 2], [2, 3, 4],
          [-1, 4], [0], ["a"], [[1]], ["ndvi"], ["ndvi", "coh_vv"], ["sigma0_vv_db", "coh_vv"], {}, {"a": 1}]


def _paths():
    """Every (key, ...) path into the header that a mutation may target."""
    for key, value in FIELDS.items():
        yield (key,)
        if isinstance(value, dict):
            yield from ((key, k) for k in value)
    for k in range(N_PARAMS):
        yield ("params", k)
        yield from (("params", k, name) for name in FIELDS["params"][k])


PATHS = sorted(_paths(), key=str)


@st.composite
def model_mutation(draw):
    """One edit of a model file: (kind, path or position, value)."""
    kind = draw(st.sampled_from(["set"] * 6 + ["delete"] * 2 + ["magic", "header_text", "truncate", "extend",
                                                                 "plant", "drop_entry", "swap_entries"]))
    if kind in ("set", "delete"):
        return kind, draw(st.sampled_from(PATHS)), draw(st.sampled_from(VALUES))
    if kind == "magic":
        return kind, None, draw(st.sampled_from([b"", b"GAPFUSE-MODEL-V2", b"GAPFUSE-MODEL-V1 ", b"{}"]))
    if kind == "header_text":
        return kind, None, draw(st.sampled_from([b"", b"[]", b"{", b"\xff{}", b"[" * 100_000, b"NaN"]))
    if kind == "plant":
        return kind, draw(st.integers(0, len(BODY) // 4 - 1)), draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return kind, draw(st.integers(0, max(len(BODY), N_PARAMS))), None


def _holds(node, key) -> bool:
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


def _container(fields: dict, path: tuple):
    """The object or list that holds the last key of `path`, or None where an
    earlier edit took that key away."""
    node = fields
    for key in path[:-1]:
        if not _holds(node, key):
            return None
        node = node[key]
    return node if _holds(node, path[-1]) else None


def _apply_model(edits) -> bytes:
    magic, body = MAGIC, BODY
    fields = json.loads(HEADER)
    text = None
    for kind, where, value in edits:
        if kind in ("set", "delete"):
            node = _container(fields, where)
            if node is not None and kind == "set":
                node[where[-1]] = value
            elif node is not None:
                del node[where[-1]]
        elif kind == "magic":
            magic = value
        elif kind == "header_text":
            text = value
        elif kind == "truncate":
            body = body[:where % (len(body) + 1)]
        elif kind == "extend":
            body = body + b"\0" * (1 + where % 8)
        elif kind == "plant":
            at = 4 * (where % max(len(body) // 4, 1))
            body = body[:at] + np.float32(value).tobytes() + body[at + 4:]
        elif isinstance(fields.get("params"), list) and fields["params"]:
            entries = fields["params"]
            k = where % len(entries)
            if kind == "drop_entry":
                del entries[k]
            else:
                entries[0], entries[k] = entries[k], entries[0]
    if text is None:
        text = json.dumps(fields).encode()
    return magic + b"\n" + text + b"\n" + body


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _read(read, path: Path):
    """`read(path)`, or None when it raises a FileFormatError, which must name
    the file."""
    try:
        return read(path)
    except FileFormatError as e:
        assert e.path == str(path), str(e)
        return None


def _check_cli(rc: int, err: str, read_ok: bool, path: Path) -> None:
    assert rc in (0, 2), err
    if not read_ok:
        assert rc == 2, err
        assert str(path) in err, err


@pytest.fixture(scope="module")
def tiny_scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("model_fuzz")
    assert main(["synth", "--out", str(root / "ds"), "--seed", "3", "--parcels", "2", "--pixels-per-parcel", "2",
                 "--regions", "1"]) == 0
    return root / "ds"


@FUZZ
@given(edits=st.lists(model_mutation(), min_size=1, max_size=3))
@example(edits=[("set", ("arch", "pool"), 1.5)])
@example(edits=[("set", ("arch", "pool"), 10 ** 40)])
@example(edits=[("set", ("arch", "kernel"), float("inf"))])
@example(edits=[("set", ("stats", "channels"), ["sigma0_vv_db", "sigma0_vh_db"])])
@example(edits=[("set", ("format_version",), 2)])
@example(edits=[("set", ("params", 0, "shape"), [-1, 4])])
@example(edits=[("plant", 3, np.nan)])
def test_model_loads_or_refuses_naming_the_file(tiny_scene, edits):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.gfm"
        path.write_bytes(_apply_model(edits))
        model = _read(load_model, path)
        rc, err = _run(["gapfill", "--in", str(tiny_scene), "--out", str(Path(d) / "out"),
                        "--method", "sf", "--model", str(path)])
    _check_cli(rc, err, model is not None, path)


@pytest.mark.parametrize("where, value, message", [
    (("arch", "pool"), 1.5, "arch.pool: expected an integer, got 1.5"),
    (("arch", "conv_filters"), [2], "arch.conv_filters: expected a list of 2 values, got 1"),
    # a pool's forward allocates its width: this one would take 16 GB
    (("arch", "pool"), 10 ** 9, "a pool of 1000000000 steps does not fit the grid's 29 steps"),
    (("stats", "channels"), ["sigma0_vv_db", "sigma0_vh_db"], "stats channels must match the architecture's"),
    (("format_version",), 2, "unsupported format_version 2"),
    # past 2T - 1 steps a window sees nothing more
    (("arch", "pool"), 58, "a pool of 58 steps does not fit the grid's 29 steps"),
    (("arch", "kernel"), float("inf"), "arch.kernel: expected an integer, got inf"),
    (("arch", "conv_filters"), [float("inf"), 2], "arch.conv_filters: expected an integer, got inf"),
    (("grid", "length"), 29.5, "grid.length: expected an integer, got 29.5"),
])
def test_reader_refuses_naming_the_file(tmp_path, where, value, message):
    path = tmp_path / "m.gfm"
    path.write_bytes(_apply_model([("set", where, value)]))
    with pytest.raises(FileFormatError, match=re.escape(message)) as e:
        load_model(path)
    assert e.value.path == str(path)


def test_widest_useful_pool_loads(tmp_path):
    path = tmp_path / "m.gfm"
    path.write_bytes(_apply_model([("set", ("arch", "pool"), 2 * TemporalGrid().length - 1)]))
    assert load_model(path).arch.pool == 57


T = TemporalGrid().length
MASK_LINES = [",".join(["mask_id", "region_id"] + [f"bit_{i}" for i in range(T)])] + [
    ",".join([str(k), str(k // 2)] + [str(int(b)) for b in np.random.default_rng(k).random(T) < 0.4])
    for k in range(4)]
CELL_VALUES = ["0", "1", "2", "-1", "", " 1", "1.0", "abc", "True", "٣", "9" * 5000, str(2 ** 63), "bit_0",
               "region_id", '"1"']


@st.composite
def mask_mutation(draw):
    """One edit of a mask file: (kind, row, field, value); the header is row 0."""
    kind = draw(st.sampled_from(["cell"] * 6 + ["extra", "drop_field", "duplicate", "delete", "blank", "swap",
                                                 "header_cell", "header_extra", "header_drop", "no_header",
                                                 "empty"]))
    row = 0 if kind.startswith("header") else draw(st.integers(1, len(MASK_LINES) - 1))
    return kind, row, draw(st.integers(0, T + 1)), draw(st.sampled_from(CELL_VALUES))


def _apply_masks(lines: list[str], edit) -> list[str]:
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
    lines[row] = ",".join(cells)
    if kind == "duplicate":
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


@FUZZ
@given(edits=st.lists(mask_mutation(), min_size=1, max_size=3))
@example(edits=[("cell", 2, 0, "9" * 5000)])
@example(edits=[("header_drop", 0, 0, "")])
def test_masks_read_or_refuse_naming_the_row(tiny_scene, edits):
    lines = MASK_LINES
    for e in edits:
        lines = _apply_masks(lines, e)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "masks.csv"
        path.write_text("".join(line + "\n" for line in lines))
        try:
            pools = read_mask_pools(path)
        except FileFormatError as e:
            assert e.path == str(path), str(e)
            assert e.row is not None or len(lines) <= 1, str(e)
            pools = None
        if pools is not None:
            assert all(m.region_id == r and m.bits.size == len(lines[0].split(",")) - 2
                       for r, pool in pools.items() for m in pool.masks)
        rc, err = _run(["train", "--in", str(tiny_scene), "--masks", str(path), "--out", str(Path(d) / "m.gfm"),
                        "--epochs", "1"])
    _check_cli(rc, err, pools is not None, path)
    if pools is None and len(lines) > 1:
        assert re.search(r", row \d+", err), err


def test_unmutated_files_run(tiny_scene, tmp_path):
    """The fuzzed runs start from files that load and run."""
    model = tmp_path / "m.gfm"
    model.write_bytes(_apply_model([]))
    assert _run(["gapfill", "--in", str(tiny_scene), "--out", str(tmp_path / "o"), "--method", "sf",
                 "--model", str(model)])[0] == 0
    masks = tmp_path / "masks.csv"
    masks.write_text("".join(line + "\n" for line in MASK_LINES))
    assert sorted(read_mask_pools(masks)) == [0, 1]
    assert _run(["train", "--in", str(tiny_scene), "--masks", str(masks), "--out", str(tmp_path / "m2.gfm"),
                 "--epochs", "1"])[0] == 0
