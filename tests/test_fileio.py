"""Persistence: CSV round trips with exact float fidelity, the binary model
container, layered configuration, and run manifests."""

import contextlib
import dataclasses
import io
import json
import os
import zipfile
from pathlib import Path

import numpy as np
import pytest

from gapfuse import (
    SAR_CHANNELS,
    Dataset,
    Event,
    EventSet,
    FileFormatError,
    ParcelLabel,
    PixelSeries,
    RunConfig,
    SynthConfig,
    TemporalGrid,
    TrainConfig,
    load_config,
    load_model,
    predict_batch,
    read_dataset,
    read_events,
    read_manifest,
    read_mask_pools,
    save_model,
    synth_dataset,
    write_dataset,
    write_events,
    write_manifest,
    write_mask_pools,
)
from gapfuse import fileio
from gapfuse.fileio import (
    DATASET_HEADER,
    atomic_write_text,
    read_json,
    read_labels,
    sha256_file,
    write_json,
)
from gapfuse.cli import main
from gapfuse.sfmodel import NormStats, SfArchitecture, SfModel, SfNet
from tests.test_core import dataset_of


@pytest.fixture(scope="module")
def synth():
    return synth_dataset(
        SynthConfig(n_parcels=12, pixels_per_parcel=3, n_regions=2, seed=19, cirrus_rate=0.05)
    )


@pytest.fixture(scope="module")
def tiny_model(synth):
    from gapfuse import assemble_training_set, train
    from tests.test_sfmodel import TINY_ARCH

    training = assemble_training_set(synth.dataset, dict(synth.pools), np.random.default_rng(2))
    model, _ = train(training, TrainConfig(max_epochs=1, batch_size=64, seed=0), TINY_ARCH)
    return model


class TestDatasetRoundTrip:
    def test_write_read_write_byte_identical(self, synth, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        write_dataset(synth.dataset, d1)
        again = read_dataset(d1)
        write_dataset(again, d2)
        assert (d1 / "dataset.csv").read_bytes() == (d2 / "dataset.csv").read_bytes()
        assert (d1 / "labels.csv").read_bytes() == (d2 / "labels.csv").read_bytes()

    def test_values_survive_exactly(self, synth, tmp_path):
        write_dataset(synth.dataset, tmp_path / "ds")
        again = read_dataset(tmp_path / "ds")
        assert again.grid == synth.dataset.grid
        for a, b in zip(synth.dataset.pixels, again.pixels):
            assert a.pixel_id == b.pixel_id and a.parcel_id == b.parcel_id
            assert np.array_equal(a.ndvi, b.ndvi, equal_nan=True)
            for c in a.sar:
                assert np.array_equal(a.sar[c], b.sar[c])
        assert synth.dataset.labels == again.labels

    def test_missing_ndvi_is_empty_field(self, synth, tmp_path):
        write_dataset(synth.dataset, tmp_path / "ds")
        text = (tmp_path / "ds" / "dataset.csv").read_text()
        px = synth.dataset.pixels[0]
        step = int(np.flatnonzero(np.isnan(px.ndvi))[0])
        row = text.splitlines()[1 + step]
        assert row.split(",")[5] == ""
        assert "nan" not in text.lower()

    def test_unmown_parcels_keep_a_label_row(self, synth, tmp_path):
        write_dataset(synth.dataset, tmp_path / "ds")
        labels = read_labels(tmp_path / "ds" / "labels.csv")
        assert set(labels) == set(synth.dataset.labels)

    def test_coherence_out_of_range_diagnosed(self, synth, tmp_path):
        write_dataset(synth.dataset, tmp_path / "ds")
        p = tmp_path / "ds" / "dataset.csv"
        lines = p.read_text().splitlines()
        parts = lines[3].split(",")
        parts[8] = "1.3"
        lines[3] = ",".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as err:
            read_dataset(tmp_path / "ds")
        msg = str(err.value)
        # physical file line (1-based, header included) plus the column name
        assert "row 4" in msg and "coh_vv" in msg

    def test_duplicate_step_rejected(self, synth, tmp_path):
        write_dataset(synth.dataset, tmp_path / "ds")
        p = tmp_path / "ds" / "dataset.csv"
        lines = p.read_text().splitlines()
        lines.append(lines[1])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            read_dataset(tmp_path / "ds")

    def test_inconsistent_parcel_rejected(self, synth, tmp_path):
        write_dataset(synth.dataset, tmp_path / "ds")
        p = tmp_path / "ds" / "dataset.csv"
        lines = p.read_text().splitlines()
        parts = lines[2].split(",")
        parts[1] = str(int(parts[1]) + 1)  # pixel hops parcels mid-series
        lines[2] = ",".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            read_dataset(tmp_path / "ds")

    def test_header_mismatch_rejected(self, synth, tmp_path):
        write_dataset(synth.dataset, tmp_path / "ds")
        p = tmp_path / "ds" / "dataset.csv"
        lines = p.read_text().splitlines()
        lines[0] = lines[0].replace("ndvi", "NDVI")
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            read_dataset(tmp_path / "ds")


def _two_pixel_dataset():
    def sar(vv, vh, cvv, cvh):
        out = {c: np.zeros(2) for c in SAR_CHANNELS}
        out.update(sigma0_vv_db=np.array(vv), sigma0_vh_db=np.array(vh),
                   coh_vv=np.array(cvv), coh_vh=np.array(cvh))
        return out

    grid = TemporalGrid(start_doy=100, step_days=6, length=2)
    return dataset_of(grid, (
        PixelSeries(7, 3, 1, np.array([np.nan, -0.0]), sar([-12.5, -1e16], [-18.25, -1e-05], [0.1, 1e-05], [0.0, 1.0])),
        PixelSeries(2, 4, 0, np.array([0.1, 1e-05]), sar([-0.0, -7.0], [-20.0, 3.0], [0.5, 0.25], [1e-05, 0.1])),
    ), {3: ParcelLabel(3, (112, 106)), 4: ParcelLabel(4, ())})


def _write_rows(directory, rows):
    directory.mkdir(parents=True, exist_ok=True)
    text = ",".join(DATASET_HEADER) + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)
    (directory / "dataset.csv").write_text(text)


class TestDatasetFormat:
    def test_golden_bytes(self, tmp_path):
        """The exact text of both files: empty NDVI, -0.0, 1e-05, 0.1 and -1e16
        written by repr, rows by (pixel_id, step), labels by (parcel, doy)."""
        write_dataset(_two_pixel_dataset(), tmp_path)
        assert (tmp_path / "dataset.csv").read_text() == (
            "pixel_id,parcel_id,region_id,step,doy,ndvi,sig_vv_db,sig_vh_db,coh_vv,coh_vh\n"
            "2,4,0,0,100,0.1,-0.0,-20.0,0.5,1e-05\n"
            "2,4,0,1,106,1e-05,-7.0,3.0,0.25,0.1\n"
            "7,3,1,0,100,,-12.5,-18.25,0.1,0.0\n"
            "7,3,1,1,106,-0.0,-1e+16,-1e-05,1e-05,1.0\n"
        )
        assert (tmp_path / "labels.csv").read_text() == "parcel_id,event_doy\n3,106\n3,112\n4,\n"
        # -1e16 dB is a linear power of 0; +1e16 dB would be refused, its
        # VV/VH ratio being infinite
        again = read_dataset(tmp_path)
        assert [px.pixel_id for px in again.pixels] == [2, 7]
        assert again.pixels[1].ndvi.tobytes() == np.array([np.nan, -0.0]).tobytes()

    def test_model_header_golden_bytes(self, tmp_path):
        """The exact JSON header line of a tiny model file: sorted keys, no
        spaces, the architecture, stats and grid by field name, then one
        entry per parameter blob."""
        arch = SfArchitecture(channels=("ndvi", "coh_vv"), conv_filters=(2, 2), branch_dense=(2, 2), lstm_hidden=2)
        grid = TemporalGrid(start_doy=100, step_days=6, length=4)
        stats = NormStats(("coh_vv",), np.array([0.1]), np.array([1e-05]))
        save_model(SfModel(arch, stats, grid, SfNet(arch, np.random.default_rng(0))), tmp_path / "m.gfm")
        params = []
        offset = 0
        for name, shape in [
            ("ndvi.conv1.w", [3, 2, 2]), ("ndvi.conv1.b", [2]), ("ndvi.conv2.w", [3, 2, 2]), ("ndvi.conv2.b", [2]),
            ("ndvi.dense1.w", [2, 2]), ("ndvi.dense1.b", [2]), ("ndvi.dense2.w", [2, 2]), ("ndvi.dense2.b", [2]),
            ("coh_vv.conv1.w", [3, 1, 2]), ("coh_vv.conv1.b", [2]), ("coh_vv.conv2.w", [3, 2, 2]),
            ("coh_vv.conv2.b", [2]), ("coh_vv.dense1.w", [2, 2]), ("coh_vv.dense1.b", [2]),
            ("coh_vv.dense2.w", [2, 2]), ("coh_vv.dense2.b", [2]),
            ("enc.fwd.w", [6, 8]), ("enc.fwd.b", [8]), ("enc.bwd.w", [6, 8]), ("enc.bwd.b", [8]),
            ("dec.fwd.w", [6, 8]), ("dec.fwd.b", [8]), ("dec.bwd.w", [6, 8]), ("dec.bwd.b", [8]),
            ("head.w", [4, 1]), ("head.b", [1]),
        ]:
            nbytes = 4 * int(np.prod(shape))
            params.append(f'{{"name":"{name}","nbytes":{nbytes},"offset":{offset},"shape":{shape}}}'.replace(" ", ""))
            offset += nbytes
        assert (tmp_path / "m.gfm").read_bytes().split(b"\n")[1].decode() == (
            '{"arch":{"branch_dense":[2,2],"channels":["ndvi","coh_vv"],"conv_filters":[2,2],'
            '"head":"regression","kernel":3,"lstm_hidden":2,"pool":3},"dtype":"<f4","format_version":1,'
            '"grid":{"length":4,"start_doy":100,"step_days":6},'
            f'"params":[{",".join(params)}],'
            '"stats":{"channels":["coh_vv"],"mean":[0.1],"sd":[1e-05]}}'
        )

    def test_hidden_experiment_metrics_golden_bytes(self, tmp_path):
        """The exact metrics.json and report.csv of a small `experiment hidden`
        run: the report's fields by name under sorted keys, 2-space indent."""
        (tmp_path / "config.json").write_text(json.dumps({"pipeline": {"tolerance_days": 3, "algorithm": "mda2"}}))
        assert main(["synth", "--out", str(tmp_path / "s"), "--parcels", "4", "--pixels-per-parcel", "2",
                     "--regions", "1", "--seed", "3"]) == 0
        assert main(["experiment", "hidden", "--config", str(tmp_path / "config.json"), "--in", str(tmp_path / "s"),
                     "--out", str(tmp_path / "x"), "--fill", "quadratic", "--seed", "1"]) == 0
        record = ('    {{\n      "detected_doys": [{}],\n      "event_doy": {},\n      "gap_length": {},\n'
                  '      "gap_start_step": {},\n      "parcel_id": {}\n    }}')
        third = "0.3333333333333333"
        assert (tmp_path / "x" / "metrics.json").read_text() == (
            '{\n  "experiment": "hidden",\n  "f1": 0.5,\n  "fill_method": "quadratic",\n  "n_parcels": 3,\n'
            f'  "precision": 1.0,\n  "recall": {third},\n  "records": [\n'
            + ",\n".join([record.format("\n        178\n      ", 177, 5, 12, 0), record.format("", 168, 5, 11, 2),
                          record.format("", 171, 6, 11, 3)])
            + f'\n  ],\n  "seed": 1,\n  "tolerance_recall": [\n    0.0,\n    {third},\n    {third},\n    {third}\n'
            '  ]\n}\n'
        )
        assert (tmp_path / "x" / "report.csv").read_text() == (
            f"tolerance_days,recall\n0,0.0\n1,{third}\n2,{third}\n3,{third}\n")

    def test_far_off_step_reports_missing_steps(self, tmp_path):
        """A step of 10**12 is diagnosed from the steps present, without
        enumerating every step up to it."""
        _write_rows(tmp_path, [(0, 0, 0, 0, 100, 0.5, -12.0, -18.0, 0.4, 0.3),
                               (0, 0, 0, 10 ** 12, 106, 0.5, -12.0, -18.0, 0.4, 0.3)])
        with pytest.raises(FileFormatError, match=r"steps are not contiguous from 0; missing \[1, 2, 3, 4, 5\]"):
            read_dataset(tmp_path)

    def test_tokenizer_error_names_its_row(self, tmp_path):
        """A field past the csv module's size limit is a format error at its
        row, after the rows before it have been checked."""
        row = [0, 0, 0, 0, 100, 0.5, -12.0, -18.0, 0.4, 0.3]
        _write_rows(tmp_path, [row, row[:3] + [1, 106] + row[5:6] + ["1" * 200_000] + row[7:]])
        with pytest.raises(FileFormatError, match="unreadable CSV") as err:
            read_dataset(tmp_path)
        assert err.value.row == 3
        _write_rows(tmp_path, [row[:5] + ["x"] + row[6:], row[:6] + ["1" * 200_000] + row[7:]])
        with pytest.raises(FileFormatError, match="not a number") as err:
            read_dataset(tmp_path)
        assert (err.value.row, err.value.column) == (2, "ndvi")

    def test_ids_beyond_int64_are_kept(self, tmp_path):
        big = 2 ** 70
        _write_rows(tmp_path, [(1, 2, 3, 0, 100, 0.5, -12.0, -18.0, 0.4, 0.3),
                               (1, 2, 3, 1, 106, 0.5, -12.0, -18.0, 0.4, 0.3),
                               (big, -big, 3, 0, 100, 0.5, -12.0, -18.0, 0.4, 0.3),
                               (big, -big, 3, 1, 106, "", -12.0, -18.0, 0.4, 0.3)])
        ds = read_dataset(tmp_path)
        assert [(px.pixel_id, px.parcel_id) for px in ds.pixels] == [(1, 2), (big, -big)]
        write_dataset(ds, tmp_path / "again")
        assert (tmp_path / "again" / "dataset.csv").read_bytes() == (tmp_path / "dataset.csv").read_bytes()


# rows whose cells read as numbers but repr would write otherwise:
# `+100` in doy, `0.50` and `0.0` in ndvi, `-12.50` in a radar column
_LOOSE_ROWS = (
    "2,4,0,0,+100,0.50,-12.50,-18.0,0.5,0.25\n"
    "2,4,0,1,106,0.0,-7.0,3.0,0.25,0.1\n"
    "7,3,1,0,100,,-12.5,-18.25,0.1,0.0\n"
    "7,3,1,1,106,0.20,-1.0,-1e-05,1e-05,1.0\n"
)
_HEADER_TEXT = ",".join(DATASET_HEADER) + "\n"


def _read_text(directory, rows: str, newline: str = "\n"):
    """The dataset read from a dataset.csv of `rows` under `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "dataset.csv").write_bytes((_HEADER_TEXT + rows).replace("\n", newline).encode())
    return read_dataset(directory)


def _formatted(dataset, directory) -> bytes:
    """The dataset.csv that every cell formatted gives for `dataset`'s values."""
    write_dataset(Dataset(dataset.grid, dataset.pixel_ids, dataset.pixel_parcel_ids, dataset.pixel_region_ids,
                          dataset.ndvi, dataset.sar, dataset.labels), directory)
    return (directory / "dataset.csv").read_bytes()


class TestSplicedWrite:
    """A dataset derived from a read one, with its ids, radar block and grid
    kept, is written from the file it was read from: changed NDVI cells
    anew, every other byte copied."""

    def test_unchanged_cells_keep_their_text(self, tmp_path):
        ds = _read_text(tmp_path / "in", _LOOSE_ROWS)
        assert ds.source is not None
        write_dataset(ds, tmp_path / "same")
        assert (tmp_path / "same" / "dataset.csv").read_text() == _HEADER_TEXT + _LOOSE_ROWS
        # any NaN equals any NaN
        write_dataset(ds.select(ndvi=np.where(np.isnan(ds.ndvi), np.copysign(np.nan, -1.0), ds.ndvi)),
                      tmp_path / "nan")
        assert (tmp_path / "nan" / "dataset.csv").read_text() == _HEADER_TEXT + _LOOSE_ROWS

    def test_changed_cells_are_written_by_repr_or_empty(self, tmp_path):
        ds = _read_text(tmp_path / "in", _LOOSE_ROWS)
        ndvi = ds.ndvi.copy()
        ndvi[0, 1] = -0.0  # 0.0 -> -0.0 differs by its bits
        ndvi[1, 0] = 0.1 + 0.2
        ndvi[1, 1] = np.nan
        write_dataset(ds.select(ndvi=ndvi), tmp_path / "out")
        assert (tmp_path / "out" / "dataset.csv").read_text() == _HEADER_TEXT + (
            "2,4,0,0,+100,0.50,-12.50,-18.0,0.5,0.25\n"
            "2,4,0,1,106,-0.0,-7.0,3.0,0.25,0.1\n"
            "7,3,1,0,100,0.30000000000000004,-12.5,-18.25,0.1,0.0\n"
            "7,3,1,1,106,,-1.0,-1e-05,1e-05,1.0\n"
        )
        again = read_dataset(tmp_path / "out")
        assert again.ndvi.tobytes() == ndvi.tobytes() and again.sar.tobytes() == ds.sar.tobytes()

    def test_last_line_without_newline_gets_one(self, tmp_path):
        ds = _read_text(tmp_path / "in", _LOOSE_ROWS[:-1])
        assert ds.source is not None
        ndvi = ds.ndvi.copy()
        ndvi[1, 1] = 0.25
        write_dataset(ds.select(ndvi=ndvi), tmp_path / "out")
        assert (tmp_path / "out" / "dataset.csv").read_text() == (
            _HEADER_TEXT + _LOOSE_ROWS[:-len("0.20,-1.0,-1e-05,1e-05,1.0\n")] + "0.25,-1.0,-1e-05,1e-05,1.0\n")

    def test_a_canonical_file_gives_the_formatters_bytes(self, synth, tmp_path):
        write_dataset(synth.dataset, tmp_path / "in")
        ds = read_dataset(tmp_path / "in")
        ndvi = np.where(np.isnan(ds.ndvi), 0.5, ds.ndvi)
        ndvi[::2, ::3] = np.nan
        derived = ds.select(ndvi=ndvi)
        write_dataset(derived, tmp_path / "out")
        assert (tmp_path / "out" / "dataset.csv").read_bytes() == _formatted(derived, tmp_path / "ref")

    # each way the source is lost: the output is the formatter's, which
    # writes `0.5` where the source holds `0.50`
    def test_source_rewritten_after_the_read(self, tmp_path):
        ds = _read_text(tmp_path / "in", _LOOSE_ROWS)
        # same field counts, other text: only the digest tells
        (tmp_path / "in" / "dataset.csv").write_text(_HEADER_TEXT + _LOOSE_ROWS.replace("-12.50", "-12.75"))
        write_dataset(ds, tmp_path / "out")
        assert (tmp_path / "out" / "dataset.csv").read_bytes() == _formatted(ds, tmp_path / "ref")
        assert b"0.50" not in (tmp_path / "out" / "dataset.csv").read_bytes()

    def test_source_header_rewritten_after_the_read(self, tmp_path):
        ds = _read_text(tmp_path / "in", _LOOSE_ROWS)
        # the same rows under a header of the same length
        (tmp_path / "in" / "dataset.csv").write_text(_HEADER_TEXT.upper() + _LOOSE_ROWS)
        write_dataset(ds, tmp_path / "out")
        assert (tmp_path / "out" / "dataset.csv").read_bytes() == _formatted(ds, tmp_path / "ref")

    def test_source_deleted_after_the_read(self, tmp_path):
        ds = _read_text(tmp_path / "in", _LOOSE_ROWS)
        (tmp_path / "in" / "dataset.csv").unlink()
        write_dataset(ds, tmp_path / "out")
        assert (tmp_path / "out" / "dataset.csv").read_bytes() == _formatted(ds, tmp_path / "ref")

    @pytest.mark.parametrize("rows", [
        "".join(_LOOSE_ROWS.splitlines(keepends=True)[i] for i in (2, 3, 0, 1)),  # pixel 7 first
        "".join(_LOOSE_ROWS.splitlines(keepends=True)[i] for i in (1, 0, 2, 3)),  # step 1 first
    ], ids=["pixel-order", "step-order"])
    def test_no_source_without_rows_in_order(self, tmp_path, rows):
        ds = _read_text(tmp_path / "in", rows)
        assert ds.source is None
        write_dataset(ds, tmp_path / "out")
        assert (tmp_path / "out" / "dataset.csv").read_bytes() == _formatted(ds, tmp_path / "ref")

    def test_crlf_file_is_spliced(self, tmp_path):
        """A file of CRLF line ends keeps them, header included, and the text
        of its unchanged cells."""
        ds = _read_text(tmp_path / "in", _LOOSE_ROWS, "\r\n")
        assert ds.source is not None
        ndvi = ds.ndvi.copy()
        ndvi[1, 1] = 0.25
        write_dataset(ds.select(ndvi=ndvi), tmp_path / "out")
        want = _HEADER_TEXT + _LOOSE_ROWS.replace("7,3,1,1,106,0.20,", "7,3,1,1,106,0.25,")
        assert (tmp_path / "out" / "dataset.csv").read_bytes() == want.replace("\n", "\r\n").encode()

    def test_row_subset_is_formatted(self, tmp_path):
        ds = _read_text(tmp_path / "in", _LOOSE_ROWS)
        sub = ds.select([0])
        assert sub.source is None
        write_dataset(sub, tmp_path / "out")
        assert (tmp_path / "out" / "dataset.csv").read_text() == _HEADER_TEXT + (
            "2,4,0,0,100,0.5,-12.5,-18.0,0.5,0.25\n2,4,0,1,106,0.0,-7.0,3.0,0.25,0.1\n")

    @pytest.mark.parametrize("field, value", [
        ("sar", lambda ds: ds.sar.copy()),
        ("grid", lambda ds: TemporalGrid(start_doy=100, step_days=7, length=2)),
        ("ids", lambda ds: (ds.pixel_ids.copy(), ds.pixel_parcel_ids, ds.pixel_region_ids)),
    ])
    def test_a_source_of_other_arrays_is_not_used(self, tmp_path, field, value):
        ds = _read_text(tmp_path / "in", _LOOSE_ROWS)
        other = ds.select()
        object.__setattr__(other, "source", dataclasses.replace(ds.source, **{field: value(ds)}))
        write_dataset(other, tmp_path / "out")
        assert (tmp_path / "out" / "dataset.csv").read_bytes() == _formatted(ds, tmp_path / "ref")

    def test_failure_partway_keeps_the_old_file(self, synth, tmp_path, monkeypatch):
        """Written in place, block by block: a failed write leaves the old
        dataset.csv whole, no temp file, and no formatted fallback."""
        write_dataset(synth.dataset, tmp_path)
        before = (tmp_path / "dataset.csv").read_bytes()
        ds = read_dataset(tmp_path)
        derived = ds.select(ndvi=np.where(np.isnan(ds.ndvi), 0.5, ds.ndvi))
        atomic_file, writes = fileio._atomic_file, []

        class FailingFile:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                writes.append(len(data))
                if len(writes) == 3:
                    raise OSError("disk full")
                return self.fh.write(data)

        @contextlib.contextmanager
        def failing_file(path):
            with atomic_file(path) as fh:
                yield FailingFile(fh)

        def no_formatting(*args):
            raise AssertionError("formatted after a failed splice")

        monkeypatch.setattr(fileio, "_READ_CHUNK_BYTES", 4096)
        monkeypatch.setattr(fileio, "_atomic_file", failing_file)
        monkeypatch.setattr(fileio, "_dataset_rows", no_formatting)
        with pytest.raises(OSError, match="disk full"):
            write_dataset(derived, tmp_path)
        assert (tmp_path / "dataset.csv").read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["dataset.csv", "dataset.npz", "labels.csv"]
        monkeypatch.undo()
        _assert_read_through_copy(tmp_path)


def _parsed(directory) -> Dataset:
    """The dataset read from `directory` with its copy set aside, so parsed
    from dataset.csv."""
    copy = directory / fileio.COPY_FILE
    aside = copy.with_name("aside.npz")
    copy.rename(aside)
    try:
        return read_dataset(directory)
    finally:
        aside.rename(copy)


def _assert_bit_identical(got: Dataset, want: Dataset) -> None:
    for a, b in zip((got.pixel_ids, got.pixel_parcel_ids, got.pixel_region_ids),
                    (want.pixel_ids, want.pixel_parcel_ids, want.pixel_region_ids)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.grid == want.grid
    assert got.ndvi.tobytes() == want.ndvi.tobytes()
    assert got.sar.tobytes() == want.sar.tobytes()
    assert got.labels == want.labels
    assert got.source.digest == want.source.digest == sha256_file(got.source.path)


def _assert_read_through_copy(directory) -> Dataset:
    """`directory` reads through its copy, bit for bit as dataset.csv parses."""
    got = read_dataset(directory)
    assert got.source.copy_digest == sha256_file(directory / fileio.COPY_FILE)
    want = _parsed(directory)
    assert want.source.copy_digest is None
    _assert_bit_identical(got, want)
    return got


def _copy_members(directory) -> dict[str, np.ndarray]:
    with np.load(directory / fileio.COPY_FILE) as npz:
        return {name: npz[name] for name in npz.files}


def _write_members(directory, members: dict, redigest: bool) -> None:
    """Replace `directory`'s copy by one of `members`, with their digest
    recomputed (as a forger would) when `redigest`."""
    if redigest:
        members = dict(members, digest=np.array(fileio._copy_digest(members)))
    with open(directory / fileio.COPY_FILE, "wb") as fh:
        np.savez(fh, **members)


def _swap(members, name, value):
    return dict(members, **{name: value})


def _without(members, name):
    return {k: v for k, v in members.items() if k != name}


# (edit of a copy's members, whether the digest is recomputed): each gives a
# copy that no read may use
_BAD_COPIES = {
    "stale_csv_digest": (lambda m: _swap(m, "csv_sha256", np.array("sha256:" + "0" * 64)), True),
    "ndvi_changed": (lambda m: _swap(m, "ndvi", np.where(np.isnan(m["ndvi"]), 0.5, m["ndvi"])), False),
    "radar_byte_flipped": (lambda m: _swap(m, "coh_vv", (m["coh_vv"].view(np.uint8) ^ 1).view(np.float64)), False),
    "ndvi_float32": (lambda m: _swap(m, "ndvi", m["ndvi"].astype(np.float32)), True),
    "ids_int32": (lambda m: _swap(m, "pixel_id", m["pixel_id"].astype(np.int32)), True),
    "ndvi_short": (lambda m: _swap(m, "ndvi", m["ndvi"][:, :-1].copy()), True),
    "radar_one_row": (lambda m: _swap(m, "sig_vv_db", m["sig_vv_db"][:1].copy()), True),
    "ids_reversed": (lambda m: _swap(m, "pixel_id", m["pixel_id"][::-1].copy()), True),
    "no_pixels": (lambda m: {k: v[:0] if v.ndim else v for k, v in m.items()} | {"grid": m["grid"]}, True),
    "grid_scalar": (lambda m: _swap(m, "grid", m["grid"][:1].copy()), True),
    "grid_invalid": (lambda m: _swap(m, "grid", np.array([0, 6, m["grid"][2]])), True),
    "coherence_out_of_range": (lambda m: _swap(m, "coh_vh", m["coh_vh"] + 2.0), True),
    "object_ids": (lambda m: _swap(m, "parcel_id", m["parcel_id"].astype(object)), False),
    "missing_member": (lambda m: _without(m, "region_id"), False),
    "missing_digest": (lambda m: _without(m, "digest"), False),
    "digest_as_bytes": (lambda m: _swap(m, "digest", np.array(str(m["digest"]).encode())), False),
}


class TestBinaryCopy:
    """dataset.npz, written beside every dataset.csv, is read in its place
    when it records that file's digest and its own digest checks; it then
    gives the parse's dataset bit for bit.  Any other copy is set aside."""

    @pytest.fixture(scope="class")
    def written(self, tiny_model, tmp_path_factory):
        """Every dataset directory the CLI writes, on a small synth scene."""
        root = tmp_path_factory.mktemp("copies")
        save_model(tiny_model, root / "m.gfm")
        scene, model = str(root / "scene"), str(root / "m.gfm")
        runs = {
            "synth": ["synth", "--out", scene, "--parcels", "12", "--pixels-per-parcel", "3", "--regions", "2",
                      "--seed", "7"],
            "pre": ["preprocess", "--in", scene, "--out", str(root / "pre")],
            "dropped": ["preprocess", "--in", scene, "--out", str(root / "dropped"), "--drop-noncompliant"],
            **{m: ["gapfill", "--in", scene, "--out", str(root / m), "--method", m]
               for m in ("akima", "linear", "quadratic")},
            "sf": ["gapfill", "--in", scene, "--out", str(root / "sf"), "--method", "sf", "--model", model,
                   "--cloud-filter"],
            "clear": ["cloudfilter", "--in", scene, "--out", str(root / "clear"), "--model", model],
        }
        for argv in runs.values():
            assert main(argv) == 0, argv
        return {name: Path(argv[argv.index("--out") + 1]) for name, argv in runs.items()}

    @pytest.mark.parametrize("name", ["synth", "pre", "dropped", "akima", "linear", "quadratic", "sf", "clear"])
    def test_cli_outputs_read_as_they_parse(self, written, name):
        directory = written[name]
        got = _assert_read_through_copy(directory)
        manifest = read_manifest(directory / "manifest.json")
        assert manifest["outputs"]["dataset.npz"] == got.source.copy_digest

    @pytest.mark.parametrize("ndvi", [[0.25], [-0.0], [np.nan], [np.uint64(0x7FF8_DEAD_0000_0001).view(np.float64)],
                                      [np.copysign(np.nan, -1.0)]], ids=["value", "-0.0", "nan", "nan-payload",
                                                                         "-nan"])
    def test_one_step_grid_and_ndvi_bits(self, tmp_path, ndvi):
        """A one-step grid reads back with the default step; -0.0 keeps its
        sign; an empty cell reads as the canonical NaN, whatever NaN was
        written."""
        base = _two_pixel_dataset()
        grid = TemporalGrid(start_doy=40, step_days=11, length=1)
        ds = Dataset(grid, base.pixel_ids, base.pixel_parcel_ids, base.pixel_region_ids,
                     np.array([ndvi, [0.5]]), base.sar[:, :1], base.labels)
        write_dataset(ds, tmp_path)
        got = _assert_read_through_copy(tmp_path)
        assert got.grid == TemporalGrid(start_doy=40, step_days=6, length=1)
        want = np.array([0.5, ndvi[0] if not np.isnan(ndvi[0]) else np.nan])  # pixel 2 first
        assert got.ndvi.ravel().tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk_bytes", [128, 300, 1 << 20])
    def test_without_its_copy_a_written_file_is_parsed_and_spliced(self, synth, tmp_path, monkeypatch, chunk_bytes):
        """With its copy gone, a file as `write_dataset` writes it parses to
        the arrays its copy held, and a dataset derived from the parse is
        spliced from it, in one block or in many, to the formatter's bytes."""
        write_dataset(synth.dataset, tmp_path / "in")
        want = read_dataset(tmp_path / "in")
        (tmp_path / "in" / "dataset.npz").unlink()
        got = read_dataset(tmp_path / "in")
        assert got.source.copy_digest is None
        _assert_bit_identical(got, want)
        ndvi = np.where(np.isnan(got.ndvi), 0.5, got.ndvi)
        ndvi[1::2, ::3] = np.nan
        derived = got.select(ndvi=ndvi)
        formatted = _formatted(derived, tmp_path / "ref")

        def no_formatting(*args):
            raise AssertionError("formatted instead of spliced")

        monkeypatch.setattr(fileio, "_READ_CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(fileio, "_dataset_rows", no_formatting)
        write_dataset(derived, tmp_path / "out")
        assert (tmp_path / "out" / "dataset.csv").read_bytes() == formatted

    def test_golden_dataset_reads_through_copy(self, tmp_path):
        write_dataset(_two_pixel_dataset(), tmp_path)
        _assert_read_through_copy(tmp_path)

    def test_same_dataset_same_bytes(self, synth, tmp_path):
        write_dataset(synth.dataset, tmp_path / "a")
        write_dataset(read_dataset(tmp_path / "a"), tmp_path / "b")
        assert (tmp_path / "a" / "dataset.npz").read_bytes() == (tmp_path / "b" / "dataset.npz").read_bytes()

    def test_write_returns_the_digests_written(self, synth, tmp_path):
        digests = write_dataset(synth.dataset, tmp_path)
        assert digests == {name: sha256_file(tmp_path / name) for name in ("dataset.csv", "dataset.npz")}
        digests = write_dataset(read_dataset(tmp_path).select(ndvi=np.nan_to_num(synth.dataset.ndvi)), tmp_path)
        assert digests == {name: sha256_file(tmp_path / name) for name in ("dataset.csv", "dataset.npz")}

    def test_csv_edited_after_the_write_is_parsed(self, synth, tmp_path):
        write_dataset(synth.dataset, tmp_path)
        p = tmp_path / "dataset.csv"
        lines = p.read_text().splitlines()
        parts = lines[1].split(",")
        parts[5] = "0.125"
        lines[1] = ",".join(parts)
        p.write_text("\n".join(lines) + "\n")
        got = read_dataset(tmp_path)
        assert got.source.copy_digest is None and got.source.digest == sha256_file(p)
        row = int(np.flatnonzero(got.pixel_ids == int(parts[0]))[0])
        assert got.ndvi[row, int(parts[3])] == 0.125

    def test_ids_beyond_int64_get_no_copy(self, synth, tmp_path):
        _write_rows(tmp_path / "big", [(2 ** 70, 2, 3, 0, 100, 0.5, -12.0, -18.0, 0.4, 0.3)])
        big = read_dataset(tmp_path / "big")
        assert write_dataset(big, tmp_path / "again") == {
            "dataset.csv": sha256_file(tmp_path / "again" / "dataset.csv")}
        assert sorted(os.listdir(tmp_path / "again")) == ["dataset.csv", "labels.csv"]
        # a copy left by an earlier write goes
        write_dataset(synth.dataset, tmp_path / "old")
        write_dataset(big, tmp_path / "old")
        assert sorted(os.listdir(tmp_path / "old")) == ["dataset.csv", "labels.csv"]

    @pytest.mark.parametrize("case", sorted(_BAD_COPIES))
    def test_bad_copy_is_parsed(self, synth, tmp_path, case):
        """A copy that does not hold what dataset.csv parses to, or that no
        longer loads, is set aside: the read parses dataset.csv and the CLI
        runs on it."""
        write_dataset(synth.dataset, tmp_path / "d")
        edit, redigest = _BAD_COPIES[case]
        _write_members(tmp_path / "d", edit(_copy_members(tmp_path / "d")), redigest)
        self._assert_parsed(tmp_path)

    @pytest.mark.parametrize("cut", [0, 1, 100, 0.5, -1])
    def test_truncated_copy_is_parsed(self, synth, tmp_path, cut):
        write_dataset(synth.dataset, tmp_path / "d")
        copy = tmp_path / "d" / "dataset.npz"
        data = copy.read_bytes()
        copy.write_bytes(data[:int(cut * len(data)) if isinstance(cut, float) else cut % len(data)])
        self._assert_parsed(tmp_path)

    @pytest.mark.parametrize("content", [b"", b"not a copy", b"\x93NUMPY", b"PK\x05\x06" + bytes(18)])
    def test_foreign_copy_is_parsed(self, synth, tmp_path, content):
        write_dataset(synth.dataset, tmp_path / "d")
        (tmp_path / "d" / "dataset.npz").write_bytes(content)
        self._assert_parsed(tmp_path)

    def test_copy_of_another_csv_is_parsed(self, synth, tmp_path):
        """A copy written beside an older dataset.csv records that file's
        digest, not the new one's."""
        d = tmp_path / "d"
        write_dataset(synth.dataset, d)
        old = (d / "dataset.npz").read_bytes()
        write_dataset(synth.dataset.select(ndvi=np.nan_to_num(synth.dataset.ndvi)), d)
        (d / "dataset.npz").write_bytes(old)
        self._assert_parsed(tmp_path)

    @staticmethod
    def _assert_parsed(tmp_path) -> None:
        d = tmp_path / "d"
        got = read_dataset(d)
        assert got.source.copy_digest is None
        _assert_bit_identical(got, _parsed(d))
        assert main(["preprocess", "--in", str(d), "--out", str(tmp_path / "out")]) == 0
        inputs = read_manifest(tmp_path / "out" / "manifest.json")["inputs"]
        assert inputs[f"{d}/dataset.npz"] == sha256_file(d / "dataset.npz")

    def test_every_single_byte_mutation_reads_as_the_csv_parses(self, tmp_path):
        """Each byte of a small copy flipped, and the copy cut at each
        length, one file at a time: every read gives the parse's dataset,
        through the copy only where the change left its arrays whole."""
        grid = TemporalGrid(start_doy=100, step_days=6, length=2)
        base = _two_pixel_dataset()
        write_dataset(Dataset(grid, base.pixel_ids, base.pixel_parcel_ids, base.pixel_region_ids, base.ndvi,
                              base.sar, base.labels), tmp_path)
        want = _parsed(tmp_path)
        copy = tmp_path / "dataset.npz"
        data = copy.read_bytes()
        used = []
        mutations = [data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:] for at in range(len(data))]
        mutations += [data[:size] for size in range(len(data))]
        for k, mutated in enumerate(mutations):
            copy.write_bytes(mutated)
            got = read_dataset(tmp_path)
            try:
                _assert_bit_identical(got, want)
            except AssertionError as e:
                raise AssertionError(f"mutation {k} of {len(mutations)}: {e}") from None
            used.append(got.source.copy_digest is not None)
        assert not any(used[len(data):]), "a truncated copy was used"
        # a copy whose array bytes changed is never used: the flips that
        # leave it usable lie in zip fields that no read checks
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            sizes = [info.file_size for info in zf.infolist()]
        starts = [at for at in range(len(data)) if data.startswith(b"\x93NUMPY", at)]
        assert len(starts) == len(sizes) == 11
        assert not any(used[at] for lo, size in zip(starts, sizes) for at in range(lo, lo + size))
        assert 0 < sum(used) < len(data) // 4


class TestMaskPools:
    def test_round_trip(self, synth, tmp_path):
        p = tmp_path / "masks.csv"
        write_mask_pools(dict(synth.pools), p)
        again = read_mask_pools(p)
        assert set(again) == set(synth.pools)
        for rid, pool in synth.pools.items():
            got = again[rid]
            assert len(got.masks) == len(pool.masks)
            for a, b in zip(pool.masks, got.masks):
                assert a.mask_id == b.mask_id
                assert np.array_equal(a.bits, b.bits)

    def test_bad_bit_rejected(self, synth, tmp_path):
        p = tmp_path / "masks.csv"
        write_mask_pools(dict(synth.pools), p)
        lines = p.read_text().splitlines()
        parts = lines[1].split(",")
        parts[2] = "2"
        lines[1] = ",".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            read_mask_pools(p)

    @pytest.mark.parametrize("value", [2 ** 63, -2 ** 63 - 1, 10 ** 400])
    @pytest.mark.parametrize("column", ["mask_id", "region_id"])
    def test_id_outside_int64_names_its_row_and_column(self, synth, tmp_path, column, value):
        """An id past int64 is refused at its row and column, and the CLI
        exits 2; the ids at the ends of the range are kept."""
        p = tmp_path / "masks.csv"
        write_mask_pools(dict(synth.pools), p)
        lines = p.read_text().splitlines()
        at = ["mask_id", "region_id"].index(column)
        parts = lines[2].split(",")
        parts[at] = str(value)
        edited = lines[:2] + [",".join(parts)] + lines[3:]
        p.write_text("\n".join(edited) + "\n")
        with pytest.raises(FileFormatError, match="id outside the int64 range") as err:
            read_mask_pools(p)
        assert (err.value.row, err.value.column) == (3, column)
        write_dataset(synth.dataset, tmp_path / "ds")
        assert main(["train", "--in", str(tmp_path / "ds"), "--masks", str(p), "--out", str(tmp_path / "m.gfm"),
                     "--epochs", "1"]) == 2
        parts[at] = str(2 ** 63 - 1 if value > 0 else -2 ** 63)
        p.write_text("\n".join(lines[:2] + [",".join(parts)] + lines[3:]) + "\n")
        pools = read_mask_pools(p)
        ids = [m.mask_id if column == "mask_id" else m.region_id for pool in pools.values() for m in pool.masks]
        assert int(parts[at]) in ids

    def test_duplicate_mask_id_rejected(self, synth, tmp_path):
        p = tmp_path / "masks.csv"
        write_mask_pools(dict(synth.pools), p)
        lines = p.read_text().splitlines()
        lines.append(lines[1])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            read_mask_pools(p)


class TestEvents:
    def test_round_trip(self, tmp_path):
        events = [
            EventSet(3, (Event(160, 0.5), Event(200, 0.25))),
            EventSet(4, ()),
            EventSet(7, (Event(153, 1.0),)),
        ]
        p = tmp_path / "events.csv"
        write_events(events, p)
        again = read_events(p)
        assert set(again) == {3, 4, 7}
        assert again[3].events == events[0].events
        assert again[4].events == ()
        assert again[7].events == events[2].events

    def test_eventless_parcel_still_listed(self, tmp_path):
        p = tmp_path / "events.csv"
        write_events([EventSet(9, ())], p)
        text = p.read_text().splitlines()
        assert text[1] == "9,,"

    def test_half_empty_pair_rejected(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text("parcel_id,event_doy,score\n9,160,\n")
        with pytest.raises(FileFormatError):
            read_events(p)

    @pytest.mark.parametrize("reader, header, tail, doys", [
        (read_labels, "parcel_id,event_doy", "", "event_doys"),
        (read_events, "parcel_id,event_doy,score", ",0.5", "doys"),
    ], ids=["labels", "events"])
    def test_event_doy_must_lie_in_the_int64_range(self, tmp_path, reader, header, tail, doys):
        p = tmp_path / "events.csv"
        for doy in (2 ** 63 - 1, -2 ** 63):
            p.write_text(f"{header}\n9,{doy}{tail}\n")
            assert getattr(reader(p)[9], doys) == (doy,)
        for doy in (2 ** 63, -2 ** 63 - 1, int("9" * 401)):
            p.write_text(f"{header}\n9,160{tail}\n9,{doy}{tail}\n")
            with pytest.raises(FileFormatError, match="row 3, column 'event_doy'.*outside the int64 range") as e:
                reader(p)
            assert e.value.path == str(p)


@pytest.mark.parametrize("name, lines, reader, row", [
    ("labels.csv", [b"parcel_id,event_doy", b"0,130", b"1,1\xff0"], read_labels, 3),
    ("events.csv", [b"parcel_id,event_doy,score", b"0,1\xff0,0.5"], read_events, 2),
    ("masks.csv", [b"mask_id,region_id,bit_0", b"0,0,1", b"1,0,\xff"], read_mask_pools, 3),
    ("dataset.csv", [b",".join(s.encode() for s in DATASET_HEADER), b"0,0,0,0,100,0.5,-12.0,-18.0,0.4,0.3",
                     b"0,0,0,1,106,0.5,-12.0,-18.0,0.4,0.3", b"1,0,0,0,100,0.\xff5,-12.0,-18.0,0.4,0.3"],
     lambda p: read_dataset(p.parent), 4),
    ("dataset.csv", [b"pixel_id,\xff"], lambda p: read_dataset(p.parent), 1),
], ids=["labels", "events", "masks", "dataset", "dataset_header"])
def test_non_utf8_byte_names_file_and_row(tmp_path, name, lines, reader, row):
    """Every CSV reader decodes UTF-8 whatever the locale, and a byte that is
    not UTF-8 is a format error at the row that holds it."""
    p = tmp_path / name
    p.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(FileFormatError, match="not UTF-8 text: byte 0xff") as e:
        reader(p)
    assert (e.value.path, e.value.row) == (str(p), row)


def test_long_cell_is_cut_in_the_error(tmp_path):
    """A 100,000-digit cell is quoted by its first 40 characters and its
    length, not in full."""
    p = tmp_path / "labels.csv"
    p.write_text("parcel_id,event_doy\n" + "9" * 100_000 + ",\n")
    with pytest.raises(FileFormatError) as e:
        read_labels(p)
    assert str(e.value) == f"{p}, row 2, column 'parcel_id': not an integer: '{'9' * 40}'... (100000 characters)"


class TestModelContainer:
    def test_save_load_save_bit_identical(self, tiny_model, tmp_path):
        p1 = tmp_path / "m1.gfm"
        p2 = tmp_path / "m2.gfm"
        save_model(tiny_model, p1)
        again = load_model(p1)
        save_model(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_predicts_identically(self, tiny_model, tmp_path):
        p = tmp_path / "m.gfm"
        save_model(tiny_model, p)
        again = load_model(p)
        rng = np.random.default_rng(0)
        ndvi = rng.uniform(0.1, 0.9, (3, tiny_model.grid.length))
        ndvi[:, ::5] = np.nan
        sar = rng.normal(0, 1, (3, tiny_model.grid.length, 8))
        assert np.array_equal(
            predict_batch(tiny_model, ndvi, sar), predict_batch(again, ndvi, sar)
        )

    def test_metadata_restored(self, tiny_model, tmp_path):
        p = tmp_path / "m.gfm"
        save_model(tiny_model, p)
        again = load_model(p)
        assert again.arch == tiny_model.arch
        assert again.grid == tiny_model.grid
        assert tuple(again.stats.channels) == tuple(tiny_model.stats.channels)
        assert np.array_equal(again.stats.mean, tiny_model.stats.mean)
        assert np.array_equal(again.stats.sd, tiny_model.stats.sd)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "m.gfm"
        p.write_bytes(b"NOT-A-MODEL-FILE\n" + b"\x00" * 64)
        with pytest.raises(FileFormatError):
            load_model(p)

    def test_truncated_blob_rejected(self, tiny_model, tmp_path):
        p = tmp_path / "m.gfm"
        save_model(tiny_model, p)
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(FileFormatError):
            load_model(p)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["arch"].update(lstm_hidden=100_000), "the architecture has"),
        (lambda h: h["arch"].update(conv_filters=[8, 17]), "the architecture has"),
        (lambda h: h["params"][0].update(nbytes=h["params"][0]["nbytes"] + 4), "cannot take"),
        (lambda h: h["params"][-1].update(offset=h["params"][-1]["offset"] + 4), "extends past end of file"),
    ])
    def test_sizes_checked_before_the_net_is_built(self, tiny_model, tmp_path, monkeypatch, edit, message):
        p = tmp_path / "m.gfm"
        save_model(tiny_model, p)
        magic, header, body = p.read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        edit(fields)
        p.write_bytes(magic + b"\n" + json.dumps(fields).encode() + b"\n" + body)
        monkeypatch.setattr(fileio, "SfNet", None)
        with pytest.raises(FileFormatError, match=message):
            load_model(p)

    @pytest.mark.parametrize("key, value", [
        ("arch", None), ("stats", None), ("grid", None), ("params", None), ("grid", "29"), ("params", 7),
    ])
    def test_missing_or_ill_typed_header_entry_rejected(self, tiny_model, tmp_path, key, value):
        p = tmp_path / "m.gfm"
        save_model(tiny_model, p)
        magic, header, body = p.read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        if value is None:
            del fields[key]
        else:
            fields[key] = value
        p.write_bytes(magic + b"\n" + json.dumps(fields).encode() + b"\n" + body)
        with pytest.raises(FileFormatError):
            load_model(p)


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig()
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"model": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"train": {"momentum": 0.9}})

    def test_replace_section(self):
        cfg = RunConfig()
        cfg2 = cfg.replace_section("train", max_epochs=5)
        assert cfg2.train.max_epochs == 5
        assert cfg.train.max_epochs != 5
        assert cfg2.synth == cfg.synth

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"train": {"max_epochs": 7}}))
        cfg = load_config(p)
        assert cfg.train.max_epochs == 7
        assert cfg.train.batch_size == TrainConfig().batch_size

    def test_env_overrides_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"train": {"max_epochs": 7}}))
        cfg = load_config(p, env={"GAPFUSE_TRAIN_MAX_EPOCHS": "9"})
        assert cfg.train.max_epochs == 9

    def test_env_type_coercion(self):
        cfg = load_config(
            env={
                "GAPFUSE_OUTLIER_ALPHA": "0.2",
                "GAPFUSE_PIPELINE_FILL_METHOD": "akima",
                "GAPFUSE_SYNTH_N_PARCELS": "5",
            }
        )
        assert cfg.outlier.alpha == 0.2
        assert cfg.pipeline.fill_method == "akima"
        assert cfg.synth.n_parcels == 5

    def test_unknown_env_var_rejected(self):
        with pytest.raises(ValueError):
            load_config(env={"GAPFUSE_TRAIN_MOMENTUM": "0.9"})

    def test_unrelated_env_ignored(self):
        cfg = load_config(env={"PATH": "/usr/bin", "GAPFUSEX_TRAIN_SEED": "3"})
        assert cfg == RunConfig()

    def test_bad_env_value_rejected(self):
        with pytest.raises(ValueError):
            load_config(env={"GAPFUSE_TRAIN_MAX_EPOCHS": "many"})

    def test_validation_still_applies(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"outlier": {"alpha": -1.0}}))
        with pytest.raises(ValueError):
            load_config(p)


class TestManifest:
    def test_round_trip(self, tmp_path):
        src = tmp_path / "input.csv"
        src.write_text("a,b\n1,2\n")
        out = tmp_path / "out.json"
        write_json(out, {"x": 1})
        m = tmp_path / "run.manifest.json"
        write_manifest(
            m,
            command="gapfill",
            argv=["--in", str(src)],
            config=RunConfig(),
            inputs={str(src): sha256_file(src)},
            outputs={str(out): sha256_file(out)},
        )
        got = read_manifest(m)
        assert got["command"] == "gapfill"
        assert got["tool"] == "gapfuse"
        assert got["argv"] == ["--in", str(src)]
        assert RunConfig.from_dict(got["config"]) == RunConfig()
        assert got["inputs"][str(src)].startswith("sha256:")

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        write_json(p, {"tool": "gapfuse", "command": "x"})
        with pytest.raises(FileFormatError):
            read_manifest(p)

    def test_wrong_tool_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        write_manifest(
            p, command="x", argv=[], config=RunConfig(), inputs={}, outputs={}
        )
        obj = read_json(p)
        obj["tool"] = "other"
        write_json(p, obj)
        with pytest.raises(FileFormatError):
            read_manifest(p)


class TestAtomicWrites:
    def test_failure_leaves_no_temp_files(self, tmp_path):
        """Rename onto a non-empty directory fails; the temp file must go."""
        target = tmp_path / "occupied"
        (target / "sub").mkdir(parents=True)
        with pytest.raises(OSError):
            atomic_write_text(target, "hello")
        assert target.is_dir()
        assert os.listdir(tmp_path) == ["occupied"]

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "er" / "f.txt"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"

    def test_no_stray_temp_files(self, tmp_path):
        atomic_write_text(tmp_path / "f.txt", "hello")
        assert os.listdir(tmp_path) == ["f.txt"]

    def test_failed_dataset_write_keeps_the_old_file(self, synth, tmp_path, monkeypatch):
        """The rows are streamed into the temp file; a failure part-way
        leaves the previous dataset.csv whole and no temp file behind."""
        write_dataset(synth.dataset, tmp_path)
        before = (tmp_path / "dataset.csv").read_bytes()
        rows = fileio._dataset_rows
        calls = []

        def fail_on_second_chunk(pixels, step_cells):
            calls.append(len(pixels))
            if len(calls) == 2:
                raise OSError("disk full")
            return rows(pixels, step_cells)

        monkeypatch.setattr(fileio, "_WRITE_CHUNK_PIXELS", 1)
        monkeypatch.setattr(fileio, "_dataset_rows", fail_on_second_chunk)
        with pytest.raises(OSError, match="disk full"):
            write_dataset(synth.dataset, tmp_path)
        assert (tmp_path / "dataset.csv").read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["dataset.csv", "dataset.npz", "labels.csv"]
        monkeypatch.undo()
        _assert_read_through_copy(tmp_path)

    def test_overwrite_in_place(self, tmp_path):
        p = tmp_path / "f.txt"
        atomic_write_text(p, "one")
        atomic_write_text(p, "two")
        assert p.read_text() == "two"


class TestHashing:
    def test_known_digest(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"abc")
        assert sha256_file(p) == (
            "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_json_write_is_canonical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, {"b": 1, "a": 2})
        write_json(p2, {"a": 2, "b": 1})
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().endswith("\n")
