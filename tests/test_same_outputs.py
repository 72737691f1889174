"""The comparison of `tools/same_outputs.py`: two runs' files are equal up to
the path of the directory each ran in, and the digests of the files that
held that path; any other difference is reported."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from gapfuse.cli import main
from gapfuse.fileio import read_json

_spec = importlib.util.spec_from_file_location(
    "same_outputs", Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def _run(run: Path) -> None:
    """A small chain of commands under `run`: eval's manifest records the
    digest of preprocess's, which records that of synth's, and every
    manifest holds `run`'s path; and a refusal's message, as
    `commands.json` records it."""
    scene = str(run / "scene")
    assert main(["synth", "--out", scene, "--parcels", "6", "--pixels-per-parcel", "2", "--regions", "2",
                 "--seed", "3"]) == 0
    assert main(["preprocess", "--in", scene, "--out", str(run / "pre")]) == 0
    assert main(["detect", "--in", scene, "--out", str(run / "events.csv"), "--fill", "linear"]) == 0
    assert main(["eval", "--pred", str(run / "events.csv"), "--truth", f"{scene}/labels.csv", "--out",
                 str(run / "eval"), "--in", str(run / "pre")]) == 0
    refusal = {"argv": ["preprocess", "--in", f"{run}/bad", "--out", f"{run}/bad-out"], "exit": 2,
               "stderr": f"gapfuse: error: {run}/bad/dataset.csv, row 2, column 'ndvi': not a number: 'abc'\n"}
    (run / "commands.json").write_text(json.dumps({"refusals/bad": refusal}, indent=2))


@pytest.fixture
def runs(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    _run(base)
    _run(head)
    return base, head


def _edit(path: Path, old: bytes, new: bytes) -> None:
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))


def test_runs_in_two_directories_are_equal(runs):
    base, head = runs
    # the manifests' bytes differ: each holds its run's path and records the
    # raw digests of manifests that hold it
    assert (base / "eval" / "manifest.json").read_bytes() != (head / "eval" / "manifest.json").read_bytes()
    n, differences = same_outputs.compare(base, head)
    assert differences == []
    assert n == len([p for p in head.rglob("*") if p.is_file()])


def test_one_byte_of_a_dataset_differs(runs):
    base, head = runs
    data = bytearray((head / "pre" / "dataset.csv").read_bytes())
    data[-3] ^= 1
    (head / "pre" / "dataset.csv").write_bytes(bytes(data))
    assert same_outputs.compare(base, head)[1] == ["differs: pre/dataset.csv"]


def test_a_path_in_a_manifest_differs(runs):
    """A path in a manifest other than the run's own directory is not
    normalised."""
    base, head = runs
    _edit(head / "eval" / "manifest.json", b"/pre/dataset.csv", b"/pre2/dataset.csv")
    assert same_outputs.compare(base, head)[1] == ["differs: eval/manifest.json"]


def test_a_manifest_that_records_a_changed_manifest_differs(runs):
    """A manifest that another records changes that one's normalised
    digest too."""
    base, head = runs
    _edit(head / "pre" / "manifest.json", b'"preprocess"', b'"preprocesS"')
    assert same_outputs.compare(base, head)[1] == ["differs: eval/manifest.json", "differs: pre/manifest.json"]


def test_a_refusal_message_differs(runs):
    base, head = runs
    _edit(head / "commands.json", b"row 2", b"row 3")
    assert same_outputs.compare(base, head)[1] == ["differs: commands.json"]


def test_a_file_on_one_side_only(runs):
    base, head = runs
    (head / "pre" / "extra.txt").write_text("x")
    (head / "pre" / "preprocess_report.json").unlink()
    assert same_outputs.compare(base, head)[1] == ["only in base: pre/preprocess_report.json",
                                                   "only in head: pre/extra.txt"]


def test_a_directory_on_one_side_only(runs):
    """Directories are compared as well as files: an empty directory on both
    sides is no difference, and one on one side only is."""
    base, head = runs
    for run in runs:
        (run / "refusals" / "kept-out").mkdir(parents=True)
    assert same_outputs.compare(base, head)[1] == []
    (base / "eval" / "empty").mkdir()
    (head / "refusals" / "bad-out").mkdir()
    assert same_outputs.compare(base, head)[1] == ["only in base: eval/empty/", "only in head: refusals/bad-out/"]


def test_declared_patterns_match_paths():
    differences = ["differs: seed101/pre/dataset.npz", "only in head: seed101/new.csv", "differs: commands.json"]
    assert same_outputs.undeclared(differences, ["*/dataset.npz", "seed101/new.csv"]) == ["differs: commands.json"]
    assert same_outputs.undeclared(differences, []) == differences


def test_scene_without_its_copy_is_parsed_and_spliced(tmp_path):
    """The runs on a copy of a scene without dataset.npz exit 0; the CRLF
    copy's line ends survive `preprocess` and `gapfill`, which splice it, and
    `eval --in` records the digest of the bytes it parsed."""
    scene = tmp_path / "scene"
    assert main(["synth", "--out", str(scene), "--parcels", "6", "--pixels-per-parcel", "2", "--regions", "2",
                 "--seed", "3"]) == 0
    assert main(["detect", "--in", str(scene), "--out", str(tmp_path / "akima_mda2.csv"), "--fill", "akima",
                 "--algo", "mda2"]) == 0
    run = tmp_path / "run"
    log = same_outputs.run_parsed(same_outputs.REPO / "src", scene, run)
    assert sorted(log) == sorted(f"parsed/{ends}/{name}" for ends in ("lf", "crlf") for name, _ in
                                 same_outputs._PARSED)
    assert {name: r["exit"] for name, r in log.items()} == dict.fromkeys(log, 0)
    parsed = run / "parsed"
    assert not (parsed / "crlf" / "dataset.npz").exists()
    for out in ("crlf-pre", "crlf-linear"):
        lines = (parsed / out / "dataset.csv").read_bytes().split(b"\n")
        assert lines[-1] == b"" and all(line.endswith(b"\r") for line in lines[:-1]), out
    digest = "sha256:" + hashlib.sha256((parsed / "crlf" / "dataset.csv").read_bytes()).hexdigest()
    assert read_json(parsed / "crlf-eval" / "manifest.json")["inputs"][f"{parsed}/crlf/dataset.csv"] == digest
