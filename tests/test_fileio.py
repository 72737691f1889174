"""Persistence: CSV round trips with exact float fidelity, the binary model
container, layered configuration, and run manifests."""

import json
import os

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
    return Dataset(grid=grid, pixels=(
        PixelSeries(7, 3, 1, np.array([np.nan, -0.0]), sar([-12.5, 1e16], [-18.25, -1e-05], [0.1, 1e-05], [0.0, 1.0])),
        PixelSeries(2, 4, 0, np.array([0.1, 1e-05]), sar([-0.0, -7.0], [-20.0, 3.0], [0.5, 0.25], [1e-05, 0.1])),
    ), labels={3: ParcelLabel(3, (112, 106)), 4: ParcelLabel(4, ())})


def _write_rows(directory, rows):
    directory.mkdir(parents=True, exist_ok=True)
    text = ",".join(DATASET_HEADER) + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)
    (directory / "dataset.csv").write_text(text)


class TestDatasetFormat:
    def test_golden_bytes(self, tmp_path):
        """The exact text of both files: empty NDVI, -0.0, 1e-05, 0.1 and 1e16
        written by repr, rows by (pixel_id, step), labels by (parcel, doy)."""
        write_dataset(_two_pixel_dataset(), tmp_path)
        assert (tmp_path / "dataset.csv").read_text() == (
            "pixel_id,parcel_id,region_id,step,doy,ndvi,sig_vv_db,sig_vh_db,coh_vv,coh_vh\n"
            "2,4,0,0,100,0.1,-0.0,-20.0,0.5,1e-05\n"
            "2,4,0,1,106,1e-05,-7.0,3.0,0.25,0.1\n"
            "7,3,1,0,100,,-12.5,-18.25,0.1,0.0\n"
            "7,3,1,1,106,-0.0,1e+16,-1e-05,1e-05,1.0\n"
        )
        assert (tmp_path / "labels.csv").read_text() == "parcel_id,event_doy\n3,106\n3,112\n4,\n"
        with np.errstate(over="ignore"):  # 1e16 dB has no finite linear power
            again = read_dataset(tmp_path)
        assert [px.pixel_id for px in again.pixels] == [2, 7]
        assert again.pixels[1].ndvi.tobytes() == np.array([np.nan, -0.0]).tobytes()

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
        assert sorted(os.listdir(tmp_path)) == ["dataset.csv", "labels.csv"]

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
