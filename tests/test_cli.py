"""Command-line pipeline: exit codes, manifests, end-to-end runs on a small
synthetic scene, and manifest-driven replay."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gapfuse import (
    CloudMask,
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

SRC = Path(__file__).resolve().parents[1] / "src"


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

    @pytest.mark.parametrize("bad_file", ["labels", "dataset"])
    def test_non_utf8_csv_exits_two_naming_file_and_row(self, ws, events, tmp_path, capsys, bad_file):
        """A byte that is not UTF-8 is bad input named by its file and row."""
        ds = tmp_path / "ds"
        ds.mkdir()
        for name in ("dataset.csv", "labels.csv"):
            (ds / name).write_bytes((ws["ds"] / name).read_bytes())
        bad = ds / f"{bad_file}.csv"
        lines = bad.read_bytes().split(b"\n")
        lines[3] = lines[3][:3] + b"\xff" + lines[3][3:]
        bad.write_bytes(b"\n".join(lines))
        if bad_file == "labels":
            argv = ["eval", "--pred", str(events), "--truth", str(bad), "--out", str(tmp_path / "o")]
        else:
            argv = ["preprocess", "--in", str(ds), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"{bad}, row 4: not UTF-8 text: byte 0xff" in capsys.readouterr().err

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

    @staticmethod
    def _scene_with_radar_cell(ws, tmp_path, value):
        """A copy of the workspace scene whose row 6 holds `value` in sig_vv_db."""
        ds = tmp_path / "scene"
        ds.mkdir()
        for f in ws["ds"].iterdir():
            (ds / f.name).write_bytes(f.read_bytes())
        lines = (ds / "dataset.csv").read_text().splitlines()
        cells = lines[5].split(",")
        cells[fileio.DATASET_HEADER.index("sig_vv_db")] = value
        lines[5] = ",".join(cells)
        (ds / "dataset.csv").write_text("\n".join(lines) + "\n")
        return ds

    @pytest.mark.parametrize("command", ["gapfill", "train"])
    def test_radar_value_beyond_float32_exits_two(self, ws, tmp_path, capsys, command):
        """400 dB is finite in float64, but the VV/VH ratio it gives (about
        1e41) is not in the model's float32: the sf fill used to leave the
        pixel unfilled and exit 0, and training used to exit 0 with the cell
        dominating the z-score statistics."""
        ds = self._scene_with_radar_cell(ws, tmp_path, "400")
        out = tmp_path / "out"
        argv = {"gapfill": ["gapfill", "--in", str(ds), "--out", str(out), "--method", "sf",
                            "--model", str(ws["model"])],
                "train": ["train", "--in", str(ds), "--masks", str(ds / "masks.csv"), "--out", str(out),
                          "--epochs", "1", "--seed", "1"]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "row 6, column 'sig_vv_db'" in err
        assert "radar channels derived from sig_vv_db 400.0 and sig_vh_db" in err
        assert "not finite in float32" in err
        assert not out.exists()

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
        ("train.seed", "NaN", "train.seed: cannot take nan: cannot convert float NaN to integer"),
        ("train.seed", "abc", "train.seed: cannot take 'abc': invalid literal for int()"),
        ("train.learning_rate", "fast", "train.learning_rate: cannot take 'fast': could not convert"),
        ("train.seed", "1.5", "train.seed: expected an integer, got 1.5"),
        ("synth.drop_depth", "[0.3]", "synth.drop_depth: expected a list of 2 values, got 1"),
        ("synth.drop_depth", "[0.3, 0.4, 0.5]", "synth.drop_depth: expected a list of 2 values, got 3"),
        ("density.summer_window", "[150]", "density.summer_window: expected a list of 2 values, got 1"),
        ("synth.drop_depth", '{"0.3": 1, "0.4": 2}', "synth.drop_depth: expected a list"),
        ("density.summer_window", "[150.5, 200]", "density.summer_window: expected an integer, got 150.5"),
        ("synth.grid", '{"start_doy": 100.9, "step_days": 6, "length": 29}',
         "synth.grid.start_doy: expected an integer, got 100.9"),
        # values the section's own checks refuse
        ("train.w_alpha", "-1", "config section 'train': loss weights must be >= 0 ("),
        ("mda2.residual_threshold", "0", "config section 'mda2': thresholds must be positive ("),
    ])
    def test_unconvertible_config_value_exits_two_naming_the_key(
            self, ws, tmp_path, capsys, monkeypatch, source, key, raw, message):
        """The key is named once, wherever the value comes from; a value the
        section refuses is named with the other keys its source set there."""
        section, name = key.split(".")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        argv = ["synth", "--out", str(tmp_path / "o")]
        if source == "env":
            monkeypatch.setenv(f"GAPFUSE_{section.upper()}_{name.upper()}", raw)
        elif source == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({section: {name: value}}))
            argv += ["--config", str(config)]
        else:
            m = read_json(ws["ds"] / "manifest.json")
            m["config"][section][name] = value
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps(m))
            argv = ["experiment", "hidden", "--in", str(ws["ds"]), "--out", str(tmp_path / "o"),
                    "--from-manifest", str(manifest)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count(key) == 1

    @pytest.mark.parametrize("source", ["model_header", "config", "manifest", "env"])
    def test_deeply_nested_json_exits_two_naming_the_source(self, ws, tmp_path, capsys, monkeypatch, source):
        """JSON nested past the decoder's recursion limit is bad input in
        every JSON reader, not a RecursionError."""
        deep = "[" * 100_000 + "]" * 100_000
        out = str(tmp_path / "o")
        if source == "model_header":
            magic, _, body = ws["model"].read_bytes().split(b"\n", 2)
            named = tmp_path / "deep.gfm"
            named.write_bytes(magic + b"\n" + deep.encode() + b"\n" + body)
            argv = ["gapfill", "--in", str(ws["ds"]), "--out", out, "--method", "sf", "--model", str(named)]
        elif source == "env":
            named = "GAPFUSE_TRAIN_SEED"
            monkeypatch.setenv(named, deep)
            argv = ["synth", "--out", out]
        else:
            named = tmp_path / f"{source}.json"
            named.write_text(deep)
            argv = (["synth", "--out", out, "--config", str(named)] if source == "config" else
                    ["experiment", "hidden", "--in", str(ws["ds"]), "--out", out, "--from-manifest", str(named)])
        assert main(argv) == 2
        assert f"gapfuse: error: {named}: JSON nested too deeply" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv, blocker", [
        (["preprocess"], "preprocess_report.json"),
        (["gapfill", "--method", "linear"], "manifest.json"),
    ], ids=["preprocess", "gapfill"])
    def test_failed_run_keeps_the_files_it_replaced(self, ws, tmp_path, capsys, argv, blocker):
        """A directory where the command writes a file fails it after the
        dataset is written.  Run in place, the dataset files it replaced stay
        as it wrote them; run into a new directory, the files it created go."""
        d, new = tmp_path / "d", tmp_path / "new"
        d.mkdir()
        dataset_files = ["dataset.csv", "dataset.npz", "labels.csv"]
        for name in dataset_files:
            (d / name).write_bytes((ws["ds"] / name).read_bytes())
        for out in (d, new):
            (out / blocker / "x").mkdir(parents=True)
        assert main([argv[0], "--in", str(d), "--out", str(d), *argv[1:]]) == 2
        assert main([argv[0], "--in", str(ws["ds"]), "--out", str(new), *argv[1:]]) == 2
        assert sorted(os.listdir(d)) == sorted(dataset_files + [blocker])
        assert os.listdir(new) == [blocker]
        (new / blocker / "x").rmdir()
        (new / blocker).rmdir()
        assert main([argv[0], "--in", str(ws["ds"]), "--out", str(new), *argv[1:]]) == 0
        for name in dataset_files:
            assert (d / name).read_bytes() == (new / name).read_bytes(), name

    @pytest.mark.parametrize("argv", [
        ["eval", "--pred", "{events}", "--truth", "{ds}/masks.csv"],  # masks are no truth
        ["experiment", "ablation", "--in", "{ds}"],  # ablation without --masks
    ], ids=["eval", "experiment"])
    def test_refused_run_leaves_no_out_directory(self, ws, tmp_path, capsys, argv):
        events = tmp_path / "events.csv"
        events.write_text("parcel_id,event_doy,score\n1,,\n")
        out = tmp_path / "out"
        argv = [a.format(events=events, ds=ws["ds"]) for a in argv]
        assert main([*argv, "--out", str(out)]) == 2
        assert "gapfuse: error:" in capsys.readouterr().err
        assert not out.exists()


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

    def test_in_place(self, ws, tmp_path, monkeypatch):
        """--out the --in directory: the file read is replaced by the one
        written from it, as the formatter would write it."""
        d = tmp_path / "d"
        d.mkdir()
        for name in ("dataset.csv", "labels.csv"):
            (d / name).write_bytes((ws["ds"] / name).read_bytes())
        assert main(["preprocess", "--in", str(d), "--out", str(d)]) == 0
        monkeypatch.setattr(fileio, "_splice_dataset", lambda dataset, csv_path: False)
        assert main(["preprocess", "--in", str(ws["ds"]), "--out", str(tmp_path / "ref")]) == 0
        for name in ("dataset.csv", "dataset.npz", "labels.csv", "preprocess_report.json"):
            assert (d / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name
        assert sorted(os.listdir(d)) == ["dataset.csv", "dataset.npz", "labels.csv", "manifest.json",
                                         "preprocess_report.json"]


class TestInputDigests:
    """A dataset directory a command reads is recorded by the digest of each
    of its files as read; dataset.csv's comes from the read itself."""

    def _copy(self, ws, d, newline=b"\n"):
        d.mkdir()
        (d / "dataset.csv").write_bytes((ws["ds"] / "dataset.csv").read_bytes().replace(b"\n", newline))
        (d / "labels.csv").write_bytes((ws["ds"] / "labels.csv").read_bytes())
        return {f"{d}/{name}": fileio.sha256_file(d / name) for name in ("dataset.csv", "labels.csv")}

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_manifest_records_the_files_digests(self, ws, tmp_path, newline):
        want = self._copy(ws, tmp_path / "d", newline)
        assert read_dataset(tmp_path / "d").source.digest == want[f"{tmp_path / 'd'}/dataset.csv"]
        assert main(["preprocess", "--in", str(tmp_path / "d"), "--out", str(tmp_path / "out")]) == 0
        assert read_manifest(tmp_path / "out" / "manifest.json")["inputs"] == want

    def test_in_place_records_the_file_it_read(self, ws, tmp_path):
        d = tmp_path / "d"
        want = self._copy(ws, d)
        assert main(["preprocess", "--in", str(d), "--out", str(d), "--drop-noncompliant"]) == 0
        m = read_manifest(d / "manifest.json")
        assert m["inputs"] == want
        assert m["outputs"]["dataset.csv"] == fileio.sha256_file(d / "dataset.csv") != want[f"{d}/dataset.csv"]

    @pytest.mark.parametrize("kind, message", [("missing", "input not found"),
                                               ("file", "dataset directory not found")])
    def test_input_that_is_no_directory_exits_two(self, ws, tmp_path, capsys, kind, message):
        inp = tmp_path / "in"
        if kind == "file":
            inp.write_bytes((ws["ds"] / "dataset.csv").read_bytes())
        rc = main(["preprocess", "--in", str(inp), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"gapfuse: error: {message}: {inp}\n"
        assert not (tmp_path / "out" / "manifest.json").exists()


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

    def test_model_is_the_same_at_any_blas_thread_count(self, ws, tmp_path):
        """OpenBLAS rounds a matmul differently at one and at two threads;
        the network pins it to one, so the environment's thread count does
        not reach the model file."""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        models = []
        for threads in ("1", "2"):
            models.append(tmp_path / f"blas{threads}.gfm")
            subprocess.run([sys.executable, "-m", "gapfuse", "train", "--in", str(ws["ds"]),
                            "--masks", str(ws["ds"] / "masks.csv"), "--out", str(models[-1]),
                            "--epochs", "2", "--seed", "1"],
                           env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True)
        assert models[0].read_bytes() == models[1].read_bytes()

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

    def test_event_doy_too_large_for_a_float_exits_two(self, tmp_path, capsys):
        """A label's event day is mapped to a grid step through float
        arithmetic; one past the int64 range is bad input at its row."""
        ds = tmp_path / "ds"
        assert main(["synth", "--out", str(ds), "--parcels", "6", "--pixels-per-parcel", "2",
                     "--regions", "2", "--seed", "3"]) == 0
        labels = ds / "labels.csv"
        lines = labels.read_text().splitlines()
        lines[2] = lines[2].split(",")[0] + "," + "9" * 401
        labels.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--in", str(ds), "--out", str(tmp_path / "det.gfm"),
                   "--head", "detection", "--fill", "linear", "--epochs", "1"])
        assert rc == 2
        assert "labels.csv, row 3, column 'event_doy': day of year outside the int64 range" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, flag, value, key", [
        ("gapfill", "--method", "linear", "fill_method"),
        ("cloudfilter", "--threshold", 0.3, "cloud_filter_threshold"),
    ])
    def test_manifest_records_the_flag_that_ran(self, ws, tmp_path, command, flag, value, key):
        """The manifest's config holds what the run used, not the default
        its flag overrode."""
        out = tmp_path / "o"
        assert main([command, "--in", str(ws["ds"]), "--out", str(out), "--model", str(ws["model"]),
                     flag, str(value)]) == 0
        assert read_manifest(out / "manifest.json")["config"]["pipeline"][key] == value
        report = read_json(out / f"{command}_report.json")
        assert report["method" if command == "gapfill" else "threshold"] == value

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


@pytest.mark.parametrize("argv", [
    ["preprocess"],
    ["preprocess", "--drop-noncompliant"],
    ["gapfill", "--method", "akima"],
    ["gapfill", "--method", "linear"],
    ["gapfill", "--method", "quadratic"],
    ["gapfill", "--method", "sf", "--model", "MODEL", "--cloud-filter"],
    ["cloudfilter", "--model", "MODEL"],
])
def test_rule_commands_write_the_formatters_bytes(ws, tmp_path, monkeypatch, argv):
    """A command that writes the dataset it read, changed, writes the bytes
    that formatting every cell of its values gives."""
    command, *rest = [str(ws["model"]) if a == "MODEL" else a for a in argv]
    assert main([command, "--in", str(ws["ds"]), "--out", str(tmp_path / "spliced"), *rest]) == 0
    monkeypatch.setattr(fileio, "_splice_dataset", lambda dataset, csv_path: False)
    assert main([command, "--in", str(ws["ds"]), "--out", str(tmp_path / "formatted"), *rest]) == 0
    for name in ("dataset.csv", "labels.csv"):
        assert (tmp_path / "spliced" / name).read_bytes() == (tmp_path / "formatted" / name).read_bytes(), name


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
        from tests.test_core import dataset_of, make_sar

        grid = TemporalGrid()
        ndvi = np.full(grid.length, np.nan)
        ndvi[[3, 10, 20]] = [0.7, 0.4, 0.6]
        px = PixelSeries(0, 0, 0, ndvi, make_sar(grid.length))
        sparse = tmp_path / "sparse"
        write_dataset(dataset_of(grid, (px,), {0: ParcelLabel(0, ())}), sparse)
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

    def test_replay_with_flags_records_what_it_ran(self, ws, tmp_path):
        """Flags given to a replay override the replayed configuration and are
        recorded in its manifest, so a replay of that manifest reproduces its
        metric files byte for byte."""
        runs = [tmp_path / f"x{k}" for k in range(3)]
        common = ["experiment", "hidden", "--in", str(ws["ds"])]
        assert main(common + ["--out", str(runs[0]), "--fill", "linear", "--seed", "5"]) == 0
        assert main(common + ["--out", str(runs[1]), "--fill", "akima", "--seed", "6",
                              "--from-manifest", str(runs[0] / "manifest.json")]) == 0
        assert main(common + ["--out", str(runs[2]), "--from-manifest", str(runs[1] / "manifest.json")]) == 0
        metrics = read_json(runs[1] / "metrics.json")
        assert (metrics["fill_method"], metrics["seed"]) == ("akima", 6)
        for name in ("metrics.json", "report.csv"):
            assert (runs[1] / name).read_bytes() == (runs[2] / name).read_bytes()

    @pytest.mark.parametrize("source", ["config", "env", "manifest"])
    def test_hidden_experiment_refuses_the_dnn_detector(self, ws, tmp_path, capsys, monkeypatch, source):
        """The hidden-event experiment runs the configured detector, and
        refuses `dnn` wherever the configuration came from, rather than
        running mda1 under a manifest that records dnn."""
        out = tmp_path / "out"
        argv = ["experiment", "hidden", "--in", str(ws["ds"]), "--out", str(out), "--fill", "linear"]
        if source == "config":
            (tmp_path / "config.json").write_text(json.dumps({"pipeline": {"algorithm": "dnn"}}))
            argv += ["--config", str(tmp_path / "config.json")]
        elif source == "env":
            monkeypatch.setenv("GAPFUSE_PIPELINE_ALGORITHM", "dnn")
        else:
            manifest = read_json(ws["ds"] / "manifest.json")
            manifest["config"]["pipeline"]["algorithm"] = "dnn"
            (tmp_path / "manifest.json").write_text(json.dumps(manifest))
            argv += ["--from-manifest", str(tmp_path / "manifest.json")]
        assert main(argv) == 2
        assert "the hidden-event experiment detects with mda1 or mda2, not 'dnn'" in capsys.readouterr().err
        assert not out.exists()

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
