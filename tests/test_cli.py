"""Command-line pipeline: exit codes, manifests, end-to-end runs on a small
synthetic scene, and manifest-driven replay."""

import json

import numpy as np
import pytest

from gapfuse import (
    CloudMask,
    Dataset,
    MaskPool,
    ParcelLabel,
    PixelSeries,
    SynthConfig,
    TemporalGrid,
    read_dataset,
    read_events,
    read_manifest,
    read_mask_pools,
    synth_dataset,
    write_dataset,
    write_events,
    write_mask_pools,
)
from gapfuse import fileio
from gapfuse.cli import main
from gapfuse.fileio import read_json


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One shared pipeline workspace: synth -> mask -> train -> gapfill."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds"
    assert main([
        "synth", "--out", str(ds),
        "--parcels", "24", "--pixels-per-parcel", "3", "--regions", "2", "--seed", "23",
    ]) == 0
    model = root / "model.gfm"
    assert main([
        "train", "--in", str(ds), "--masks", str(ds / "masks.csv"),
        "--out", str(model), "--epochs", "2", "--seed", "1",
    ]) == 0
    filled = root / "filled"
    assert main([
        "gapfill", "--in", str(ds), "--out", str(filled),
        "--method", "sf", "--model", str(model),
    ]) == 0
    return {"root": root, "ds": ds, "model": model, "filled": filled}


class TestExitCodes:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["transmogrify"])
        assert e.value.code == 2

    def test_missing_input_exits_two(self, tmp_path, capsys):
        rc = main(["preprocess", "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "gapfuse: error:" in capsys.readouterr().err

    def test_corrupt_data_exits_two(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        for name in ("dataset.csv", "labels.csv"):
            (bad / name).write_bytes((ws["ds"] / name).read_bytes())
        p = bad / "dataset.csv"
        lines = p.read_text().splitlines()
        parts = lines[2].split(",")
        parts[8] = "1.7"
        lines[2] = ",".join(parts)
        p.write_text("\n".join(lines) + "\n")
        rc = main(["preprocess", "--in", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "coh_vv" in err and "row 3" in err

    @pytest.mark.parametrize("cell, message", [
        ("1000000000000", "steps are not contiguous from 0; missing [1, 2, 3, 4, 5]"),
        ("1" * 200_000, "unreadable CSV"),
    ])
    def test_malformed_dataset_exits_two(self, tmp_path, capsys, cell, message):
        """A far-off step must not exhaust memory, and a field past the csv
        module's size limit is bad input, not a crash."""
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "dataset.csv").write_text(
            "pixel_id,parcel_id,region_id,step,doy,ndvi,sig_vv_db,sig_vh_db,coh_vv,coh_vh\n"
            "0,0,0,0,100,0.5,-12.0,-18.0,0.4,0.3\n"
            f"0,0,0,{cell},106,0.5,-12.0,-18.0,0.4,0.3\n")
        rc = main(["preprocess", "--in", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bad_file", ["labels", "events", "masks", "dataset_header"])
    def test_oversized_csv_field_exits_two(self, ws, events, tmp_path, capsys, bad_file):
        """A field past the csv module's size limit in labels.csv, events.csv,
        masks.csv or the header of dataset.csv is bad input at its row, not
        a crash."""
        big = "1" * 200_000
        bad = tmp_path / f"{bad_file}.csv"
        out = str(tmp_path / "o")
        row = "row 1" if bad_file == "dataset_header" else "row 2"
        if bad_file == "dataset_header":
            (tmp_path / "ds").mkdir()
            (tmp_path / "ds" / "dataset.csv").write_text(f"pixel_id,{big}\n")
            argv = ["preprocess", "--in", str(tmp_path / "ds"), "--out", out]
        elif bad_file == "labels":
            bad.write_text(f"parcel_id,event_doy\n{big},\n")
            argv = ["eval", "--pred", str(events), "--truth", str(bad), "--out", out]
        elif bad_file == "events":
            bad.write_text(f"parcel_id,event_doy,score\n{big},,\n")
            argv = ["eval", "--pred", str(bad), "--truth", str(ws["ds"] / "labels.csv"), "--out", out]
        else:
            header = (ws["ds"] / "masks.csv").read_text().splitlines()[0]
            bad.write_text(f"{header}\n{big}\n")
            argv = ["train", "--in", str(ws["ds"]), "--masks", str(bad), "--out", out, "--epochs", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unreadable CSV" in err and row in err

    def test_model_header_larger_than_its_file_exits_two(self, ws, tmp_path, capsys, monkeypatch):
        """The sizes are checked before the network is built: building it
        from this header would need hundreds of GiB."""
        magic, header, body = ws["model"].read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        fields["arch"]["lstm_hidden"] = 100_000
        model = tmp_path / "big.gfm"
        model.write_bytes(magic + b"\n" + json.dumps(fields).encode() + b"\n" + body)
        monkeypatch.setattr(fileio, "SfNet", None)
        rc = main(["gapfill", "--in", str(ws["ds"]), "--out", str(tmp_path / "o"),
                   "--method", "sf", "--model", str(model)])
        assert rc == 2
        assert "the architecture has" in capsys.readouterr().err

    @staticmethod
    def _doctored_model(ws, tmp_path, stats=None, nan_param=None):
        """A copy of the workspace model with a stats entry replaced or one
        parameter's first value set to NaN."""
        magic, header, body = ws["model"].read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        for key, value in (stats or {}).items():
            fields["stats"][key] = value
        if nan_param is not None:
            entry = next(e for e in fields["params"] if e["name"] == nan_param)
            body = bytearray(body)
            body[entry["offset"]:entry["offset"] + 4] = np.float32(np.nan).tobytes()
        model = tmp_path / "doctored.gfm"
        model.write_bytes(magic + b"\n" + json.dumps(fields).encode() + b"\n" + bytes(body))
        return model

    def test_model_with_nan_sd_exits_two(self, ws, tmp_path, capsys):
        """A NaN standard deviation used to pass the `sd <= 0` check: the fill
        then skipped every pixel and exited 0."""
        n = len(fileio.load_model(ws["model"]).stats.channels)
        model = self._doctored_model(ws, tmp_path, stats={"sd": [float("nan")] * n})
        rc = main(["gapfill", "--in", str(ws["ds"]), "--out", str(tmp_path / "o"),
                   "--method", "sf", "--model", str(model)])
        assert rc == 2
        assert "standard deviation must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_model_with_infinite_mean_exits_two(self, ws, tmp_path, capsys):
        n = len(fileio.load_model(ws["model"]).stats.channels)
        model = self._doctored_model(ws, tmp_path, stats={"mean": [float("inf")] + [0.0] * (n - 1)})
        rc = main(["detect", "--in", str(ws["ds"]), "--out", str(tmp_path / "ev.csv"),
                   "--fill", "sf", "--model", str(model)])
        assert rc == 2
        assert "channel means must be finite" in capsys.readouterr().err
        assert not (tmp_path / "ev.csv").exists()

    def test_model_with_nan_parameter_exits_two_naming_it(self, ws, tmp_path, capsys):
        model = self._doctored_model(ws, tmp_path, nan_param="enc.fwd.w")
        rc = main(["gapfill", "--in", str(ws["ds"]), "--out", str(tmp_path / "o"),
                   "--method", "sf", "--model", str(model)])
        assert rc == 2
        assert "parameter enc.fwd.w holds a non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("seed", None), ("learning_rate", [1])])
    def test_ill_typed_config_value_exits_two(self, tmp_path, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {key: value}}))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"train.{key}: cannot take" in capsys.readouterr().err

    def test_ill_typed_env_override_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GAPFUSE_TRAIN_SEED", "null")
        assert main(["synth", "--out", str(tmp_path / "o")]) == 2
        assert "train.seed: cannot take None" in capsys.readouterr().err

    @pytest.mark.parametrize("doctor, message", [
        (lambda m: {**m, "config": {**m["config"], "train": {**m["config"]["train"], "seed": None}}},
         "train.seed: cannot take None"),
        (lambda m: {**m, "config": [m["config"]]}, "manifest config must be a JSON object"),
        (lambda m: [m], "manifest must be a JSON object"),
        (lambda m: 5, "manifest must be a JSON object"),
    ], ids=["ill_typed_value", "config_list", "list", "number"])
    def test_doctored_manifest_replay_exits_two(self, ws, tmp_path, capsys, doctor, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doctor(read_json(ws["ds"] / "manifest.json"))))
        rc = main(["experiment", "hidden", "--in", str(ws["ds"]), "--out", str(tmp_path / "o"),
                   "--from-manifest", str(manifest)])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["env", "config", "manifest"])
    @pytest.mark.parametrize("key, raw, message", [
        ("seed", "NaN", "train.seed: cannot take nan: cannot convert float NaN to integer"),
        ("seed", "abc", "train.seed: cannot take 'abc': invalid literal for int()"),
        ("learning_rate", "fast", "train.learning_rate: cannot take 'fast': could not convert"),
        ("seed", "1.5", "train.seed: expected an integer, got 1.5"),
    ])
    def test_unconvertible_config_value_exits_two_naming_the_key(
            self, ws, tmp_path, capsys, monkeypatch, source, key, raw, message):
        """The key is named once, wherever the value comes from."""
        value = json.loads(raw) if raw in ("NaN", "1.5") else raw
        argv = ["synth", "--out", str(tmp_path / "o")]
        if source == "env":
            monkeypatch.setenv(f"GAPFUSE_TRAIN_{key.upper()}", raw)
        elif source == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"train": {key: value}}))
            argv += ["--config", str(config)]
        else:
            m = read_json(ws["ds"] / "manifest.json")
            m["config"]["train"][key] = value
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps(m))
            argv = ["experiment", "hidden", "--in", str(ws["ds"]), "--out", str(tmp_path / "o"),
                    "--from-manifest", str(manifest)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count(f"train.{key}") == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert "gapfuse" in capsys.readouterr().out

    def test_failed_run_removes_partial_outputs(self, ws, tmp_path, capsys):
        out = tmp_path / "events.csv"
        rc = main([
            "detect", "--in", str(ws["ds"]), "--out", str(out),
            "--algo", "dnn", "--fill", "linear",  # dnn without --dnn-model
        ])
        assert rc == 2
        assert not out.exists()
        assert not out.with_name(out.stem + ".manifest.json").exists()


class TestSynth:
    def test_outputs_and_manifest(self, ws):
        ds = ws["ds"]
        for name in ("dataset.csv", "labels.csv", "masks.csv", "cirrus.json", "manifest.json"):
            assert (ds / name).exists(), name
        m = read_manifest(ds / "manifest.json")
        assert m["command"] == "synth"
        assert m["config"]["synth"]["n_parcels"] == 24
        assert set(m["outputs"]) >= {"dataset.csv", "labels.csv", "masks.csv"}

    def test_deterministic_given_seed(self, ws, tmp_path):
        again = tmp_path / "ds2"
        assert main([
            "synth", "--out", str(again),
            "--parcels", "24", "--pixels-per-parcel", "3", "--regions", "2", "--seed", "23",
        ]) == 0
        assert (again / "dataset.csv").read_bytes() == (ws["ds"] / "dataset.csv").read_bytes()
        assert (again / "labels.csv").read_bytes() == (ws["ds"] / "labels.csv").read_bytes()

    def test_env_overrides_reach_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAPFUSE_SYNTH_N_PARCELS", "5")
        out = tmp_path / "ds_env"
        assert main(["synth", "--out", str(out), "--pixels-per-parcel", "2", "--seed", "3"]) == 0
        m = read_manifest(out / "manifest.json")
        assert m["config"]["synth"]["n_parcels"] == 5
        assert len(read_dataset(out).parcel_ids) == 5


class TestPreprocess:
    def test_cleans_and_reports(self, ws, tmp_path):
        out = tmp_path / "clean"
        assert main(["preprocess", "--in", str(ws["ds"]), "--out", str(out)]) == 0
        report = read_json(out / "preprocess_report.json")
        assert report["n_pixels_in"] > 0
        assert report["n_pixels_out"] == report["n_pixels_in"]  # keeps noncompliant by default
        assert report["n_outlier_points_removed"] >= 0
        cleaned = read_dataset(out)
        assert len(cleaned.pixels) == len(read_dataset(ws["ds"]).pixels)

    def test_drop_noncompliant_filters(self, ws, tmp_path):
        out = tmp_path / "strict"
        assert main([
            "preprocess", "--in", str(ws["ds"]), "--out", str(out), "--drop-noncompliant",
        ]) == 0
        report = read_json(out / "preprocess_report.json")
        cleaned = read_dataset(out)
        assert len(cleaned.pixels) == report["n_pixels_out"] == report["n_density_compliant"]


class TestTrain:
    def test_model_and_report(self, ws):
        model = ws["model"]
        assert model.exists()
        report = read_json(model.with_name(model.stem + ".report.json"))
        assert len(report["train_losses"]) >= 1
        assert report["n_train"] > 0
        m = read_manifest(model.with_name(model.stem + ".manifest.json"))
        assert m["command"] == "train"
        assert m["config"]["train"]["max_epochs"] == 2

    @pytest.mark.parametrize("misfit, message", [
        ("short", "region 0's masks have 10 steps, the dataset's grid has 29"),
        ("region", "no cloud-mask pool for region 1"),
    ])
    def test_masks_that_do_not_fit_the_dataset_exit_two(self, ws, tmp_path, capsys, misfit, message):
        pools = read_mask_pools(ws["ds"] / "masks.csv")
        if misfit == "short":
            pools = {r: MaskPool(r, tuple(CloudMask(m.mask_id, r, m.bits[:10]) for m in pool.masks))
                     for r, pool in pools.items()}
        else:
            del pools[1]
        masks = tmp_path / "masks.csv"
        write_mask_pools(pools, masks)
        rc = main(["train", "--in", str(ws["ds"]), "--masks", str(masks), "--out", str(tmp_path / "m.gfm")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_detection_head(self, ws, tmp_path):
        out = tmp_path / "det.gfm"
        rc = main([
            "train", "--in", str(ws["ds"]), "--out", str(out),
            "--head", "detection", "--fill", "linear", "--epochs", "2", "--seed", "1",
        ])
        assert rc == 0
        report = read_json(out.with_name(out.stem + ".report.json"))
        assert report["pos_weight"] > 1.0
        assert report["mask_coverage_mean"] is None
        regression = read_json(ws["model"].with_name(ws["model"].stem + ".report.json"))
        assert regression["pos_weight"] is None
        assert set(report) == set(regression)

    def test_no_positive_loss_weight_exits_two(self, ws, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"w_alpha": 0, "w_beta": 0, "w_interp": 0}}))
        out = tmp_path / "m.gfm"
        rc = main(["train", "--in", str(ws["ds"]), "--masks", str(ws["ds"] / "masks.csv"),
                   "--out", str(out), "--epochs", "1", "--config", str(config)])
        assert rc == 2
        assert "no training step has a positive loss weight" in capsys.readouterr().err
        assert not out.exists()


class TestGapfill:
    def test_filled_dataset_complete(self, ws):
        got = read_dataset(ws["filled"])
        for px in got.pixels:
            assert not np.isnan(px.ndvi).any()
        report = read_json(ws["filled"] / "gapfill_report.json")
        assert report["method"] == "sf"
        assert report["n_filled_steps"] > 0

    def test_observed_values_survive(self, ws):
        before = {px.pixel_id: px for px in read_dataset(ws["ds"]).pixels}
        for px in read_dataset(ws["filled"]).pixels:
            ref = before[px.pixel_id]
            present = ~np.isnan(ref.ndvi)
            assert np.array_equal(px.ndvi[present], ref.ndvi[present])

    def test_interp_method(self, ws, tmp_path):
        out = tmp_path / "lin"
        assert main(["gapfill", "--in", str(ws["ds"]), "--out", str(out), "--method", "linear"]) == 0
        report = read_json(out / "gapfill_report.json")
        assert report["method"] == "linear"

    def test_sf_requires_model(self, ws, tmp_path, capsys):
        rc = main(["gapfill", "--in", str(ws["ds"]), "--out", str(tmp_path / "x"), "--method", "sf"])
        assert rc == 2

    def test_quadratic_fill_stays_in_ndvi_range(self, tmp_path):
        """The quadratic spline overshoots 1 on this scene; the fill is
        clamped instead of failing the command."""
        scene = tmp_path / "scene"
        assert main(["synth", "--out", str(scene), "--parcels", "60", "--pixels-per-parcel", "4",
                     "--seed", "101"]) == 0
        out = tmp_path / "quad"
        assert main(["gapfill", "--in", str(scene), "--out", str(out), "--method", "quadratic"]) == 0
        for px in read_dataset(out).pixels:
            assert np.nanmax(np.abs(px.ndvi)) <= 1.0

    def test_cloud_filter_needs_sf(self, ws, tmp_path, capsys):
        assert main(["gapfill", "--in", str(ws["ds"]), "--out", str(tmp_path / "lin"),
                     "--method", "linear", "--cloud-filter"]) == 2
        assert main(["detect", "--in", str(ws["ds"]), "--out", str(tmp_path / "ev.csv"),
                     "--fill", "akima", "--cloud-filter"]) == 2
        assert "cloud filter needs the sf fill" in capsys.readouterr().err

    def test_sf_cloud_filter_replaces_what_cloudfilter_removes(self, ws, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pipeline": {"cloud_filter_threshold": 0.05}}))
        filled, cleaned = tmp_path / "filled", tmp_path / "cleaned"
        model = str(ws["model"])
        assert main(["gapfill", "--in", str(ws["ds"]), "--out", str(filled), "--method", "sf",
                     "--model", model, "--cloud-filter", "--config", str(config)]) == 0
        assert main(["cloudfilter", "--in", str(ws["ds"]), "--out", str(cleaned),
                     "--model", model, "--config", str(config)]) == 0

        def ndvi(path):
            return np.stack([px.ndvi for px in sorted(read_dataset(path).pixels, key=lambda p: p.pixel_id)])

        observed = ndvi(ws["ds"])
        present = ~np.isnan(observed)
        removed = present & np.isnan(ndvi(cleaned))
        replaced = present & (ndvi(filled) != observed)
        assert removed.any()
        assert np.array_equal(replaced, removed)

    def test_model_refuses_another_grid(self, ws, tmp_path):
        scene = synth_dataset(SynthConfig(n_parcels=4, pixels_per_parcel=2, n_regions=1, seed=3,
                                          grid=TemporalGrid(length=40)))
        long = tmp_path / "long"
        write_dataset(scene.dataset, long)
        model = str(ws["model"])
        assert main(["gapfill", "--in", str(long), "--out", str(tmp_path / "f"), "--method", "sf",
                     "--model", model]) == 2
        assert main(["cloudfilter", "--in", str(long), "--out", str(tmp_path / "c"), "--model", model]) == 2

    def test_detector_refuses_another_grid(self, ws, tmp_path, capsys):
        scene = synth_dataset(SynthConfig(n_parcels=4, pixels_per_parcel=2, n_regions=1, seed=3,
                                          grid=TemporalGrid(length=40)))
        long = tmp_path / "long"
        write_dataset(scene.dataset, long)
        detector = tmp_path / "det.gfm"
        assert main(["train", "--in", str(ws["ds"]), "--out", str(detector), "--head", "detection",
                     "--fill", "linear", "--epochs", "1", "--seed", "1"]) == 0
        assert main(["detect", "--in", str(long), "--out", str(tmp_path / "ev.csv"), "--algo", "dnn",
                     "--fill", "linear", "--dnn-model", str(detector)]) == 2
        assert "grid length 29" in capsys.readouterr().err
        assert not (tmp_path / "ev.csv").exists()


@pytest.fixture(scope="module")
def events(ws):
    """Events detected on the already-filled dataset (no further filling)."""
    out = ws["root"] / "events.csv"
    assert main([
        "detect", "--in", str(ws["filled"]), "--out", str(out),
        "--algo", "mda1", "--fill", "none",
    ]) == 0
    return out


class TestDetectAndEval:
    def test_events_cover_all_parcels(self, ws, events):
        got = read_events(events)
        assert set(got) == set(read_dataset(ws["ds"]).parcel_ids)

    def test_eval_against_labels(self, ws, events, tmp_path):
        out = tmp_path / "eval"
        assert main([
            "eval", "--pred", str(events), "--truth", str(ws["ds"] / "labels.csv"),
            "--out", str(out),
        ]) == 0
        report = read_json(out / "report.json")
        overall = report["overall"]
        assert set(overall) >= {"tp", "fp", "fn", "recall", "precision", "f1"}
        assert 0.0 <= overall["f1"] <= 1.0
        assert (out / "report.csv").exists()

    def test_self_eval_is_perfect(self, ws, events, tmp_path):
        out = tmp_path / "self"
        assert main([
            "eval", "--pred", str(events), "--truth", str(events), "--out", str(out),
        ]) == 0
        overall = read_json(out / "report.json")["overall"]
        assert overall["f1"] == 1.0 and overall["fp"] == 0 and overall["fn"] == 0

    def test_eval_with_coverage_bins(self, ws, events, tmp_path):
        out = tmp_path / "binned"
        assert main([
            "eval", "--pred", str(events), "--truth", str(ws["ds"] / "labels.csv"),
            "--out", str(out), "--in", str(ws["ds"]),
        ]) == 0
        report = read_json(out / "report.json")
        assert len(report["bins"]["rows"]) == 4

    def test_eval_of_header_only_events(self, tmp_path):
        empty = tmp_path / "events.csv"
        write_events([], empty)
        out = tmp_path / "score"
        assert main(["eval", "--pred", str(empty), "--truth", str(empty), "--out", str(out)]) == 0
        overall = read_json(out / "report.json")["overall"]
        assert (overall["tp"], overall["fp"], overall["fn"]) == (0, 0, 0)

    def test_detect_runs_mda1_on_a_series_too_sparse_to_fill(self, tmp_path):
        """mda1 accepts gaps, so a parcel with fewer observations than Akima
        needs is detected unfilled; mda2 still needs a full series."""
        from tests.test_core import make_sar

        grid = TemporalGrid()
        ndvi = np.full(grid.length, np.nan)
        ndvi[[3, 10, 20]] = [0.7, 0.4, 0.6]
        px = PixelSeries(0, 0, 0, ndvi, make_sar(grid.length))
        sparse = tmp_path / "sparse"
        write_dataset(Dataset(grid=grid, pixels=(px,), labels={0: ParcelLabel(0, ())}), sparse)
        events = tmp_path / "events.csv"
        assert main(["detect", "--in", str(sparse), "--out", str(events), "--raw",
                     "--fill", "akima", "--algo", "mda1"]) == 0
        assert read_events(events)[0].doys == (grid.doy(10),)
        assert main(["detect", "--in", str(sparse), "--out", str(events), "--raw",
                     "--fill", "akima", "--algo", "mda2"]) == 2

    def test_series_eval(self, ws, tmp_path):
        out = tmp_path / "series"
        assert main([
            "eval", "--pred", str(ws["filled"]), "--truth", str(ws["ds"]),
            "--out", str(out),
        ]) == 0
        report = read_json(out / "report.json")
        assert report["mae"] == 0.0  # observed steps agree bitwise; gaps in truth excluded

    def test_series_eval_masked_selector(self, ws, tmp_path):
        truth = ws["root"] / "truth_full"
        if not truth.exists():
            assert main([
                "gapfill", "--in", str(ws["ds"]), "--out", str(truth), "--method", "linear",
            ]) == 0
        out = tmp_path / "series_masked"
        assert main([
            "eval", "--pred", str(ws["filled"]), "--truth", str(truth),
            "--out", str(out), "--selector", "masked", "--input", str(ws["ds"]),
        ]) == 0
        report = read_json(out / "report.json")
        assert report["n_selected"] > 0
        assert report["mae"] > 0.0


class TestExperimentAndReplay:
    def test_hidden_experiment_and_manifest_replay(self, ws, tmp_path):
        out1 = tmp_path / "exp1"
        assert main([
            "experiment", "hidden", "--in", str(ws["ds"]), "--out", str(out1),
            "--fill", "linear", "--seed", "5",
        ]) == 0
        metrics = read_json(out1 / "metrics.json")
        assert metrics["fill_method"] == "linear"
        assert len(metrics["tolerance_recall"]) == 13

        out2 = tmp_path / "exp2"
        assert main([
            "experiment", "hidden", "--in", str(ws["ds"]), "--out", str(out2),
            "--from-manifest", str(out1 / "manifest.json"),
        ]) == 0
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_ablation_tiny(self, ws, tmp_path):
        out = tmp_path / "abl"
        assert main([
            "experiment", "ablation", "--in", str(ws["ds"]), "--out", str(out),
            "--masks", str(ws["ds"] / "masks.csv"), "--seed", "0",
            "--subsets", "ndvi+coherence,coherence",
        ]) == 0
        metrics = read_json(out / "metrics.json")
        assert len(metrics["rows"]) == 2

    def test_manifest_records_reproducibility_fields(self, ws, tmp_path):
        out = tmp_path / "exp3"
        assert main([
            "experiment", "hidden", "--in", str(ws["ds"]), "--out", str(out),
            "--fill", "linear", "--seed", "5",
        ]) == 0
        m = read_manifest(out / "manifest.json")
        assert m["seed"] == 5
        assert m["argv"][0] == "experiment"
        assert any(k.endswith("dataset.csv") for k in m["inputs"])
        assert set(m["outputs"]) >= {"metrics.json", "report.csv"}
