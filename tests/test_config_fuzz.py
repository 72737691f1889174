"""Fuzzing of the configuration readers.

The default configuration goes to `gapfuse` with a few section names, key
names, value types or tuple lengths mutated: in a `--config` file and in
`GAPFUSE_<SECTION>_<KEY>` variables for `gapfuse synth`, and in the config
of a `--from-manifest` manifest for `gapfuse experiment hidden`.  The flags
keep every scene tiny.  A run must exit 0, or 2 for a configuration it
refuses, and never 3.  Outside its config, a replayed manifest is swept
with every single mutation of its top-level keys."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gapfuse import RunConfig
from gapfuse.cli import main

DEFAULTS = RunConfig().to_dict()
# a replay of the defaults would need a trained model for the sf fill
DEFAULTS["pipeline"]["fill_method"] = "linear"
SECTIONS = sorted(DEFAULTS)
TINY = ["--parcels", "2", "--pixels-per-parcel", "1", "--regions", "1"]

VALUES = [None, True, False, "abc", "", "[0.3", 0, 1, -1, 2, 0.5, -0.5, 1.5, float("nan"), float("inf"),
          [], [0.3], [0.3, 0.4], [0.3, 0.4, 0.5], [150, 200], [200, 150], [150.5, 200], ["a", "b"],
          {}, {"0.3": 1, "0.4": 2}, {"0": 0.5, "1": 0.5}, {"start_doy": 100}, {"length": 1}, {"step_days": 0}]


@st.composite
def edit(draw):
    """One edit of a configuration: (kind, section, key, value)."""
    kind = draw(st.sampled_from(["value"] * 4 + ["tuple_length", "section_name", "key_name", "section_type"]))
    section = draw(st.sampled_from(SECTIONS))
    key = draw(st.sampled_from(sorted(DEFAULTS[section])))
    return kind, section, key, draw(st.sampled_from(VALUES))


def _apply(config: dict, e) -> dict:
    kind, section, key, value = e
    config = json.loads(json.dumps(config))
    if section not in config:
        return config
    if kind == "section_name":
        config[section + "x"] = config.pop(section)
    elif kind == "section_type":
        config[section] = value
    elif not isinstance(config[section], dict) or key not in config[section]:
        return config
    elif kind == "key_name":
        config[section][key.upper()] = config[section].pop(key)
    elif kind == "tuple_length":
        old = config[section][key]
        config[section][key] = old[:-1] if isinstance(old, list) and old else [old, old]
    else:
        config[section][key] = value
    return config


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _check(argv):
    rc, err = _run(argv)
    assert rc in (0, 2), err
    assert rc == 0 or err.startswith("gapfuse: error: "), err


WRONG_LENGTH = ("tuple_length", "synth", "drop_depth", None)
FUZZ = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.lists(edit(), min_size=1, max_size=3))
@example([WRONG_LENGTH])
def test_config_file(edits):
    config = DEFAULTS
    for e in edits:
        config = _apply(config, e)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "config.json"
        path.write_text(json.dumps(config))
        _check(["synth", "--config", str(path), "--out", str(Path(d) / "out"), *TINY])


@FUZZ
@given(st.lists(edit(), min_size=1, max_size=3))
@example([WRONG_LENGTH])
def test_env_variables(edits):
    """Each edit becomes a variable; a value is given as its JSON text, and a
    string as it is (which the reader takes as bare text when it is not
    JSON)."""
    env = {}
    for kind, section, key, value in edits:
        if kind == "tuple_length":
            old = DEFAULTS[section][key]
            value = old[:-1] if isinstance(old, list) else [old, old]
        name = {"section_name": section + "x", "key_name": section + "_" + key + "x"}.get(kind, f"{section}_{key}")
        env[f"GAPFUSE_{name.upper()}"] = value if isinstance(value, str) else json.dumps(value)
    with tempfile.TemporaryDirectory() as d, mock.patch.dict(os.environ, env):
        _check(["synth", "--out", str(Path(d) / "out"), *TINY])


@pytest.fixture(scope="module")
def tiny_scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("config_fuzz")
    assert main(["synth", "--out", str(root / "ds"), "--seed", "3", *TINY]) == 0
    return root / "ds"


@FUZZ
@given(edits=st.lists(edit(), min_size=1, max_size=3))
@example(edits=[WRONG_LENGTH])
def test_replayed_manifest(tiny_scene, edits):
    config = DEFAULTS
    for e in edits:
        config = _apply(config, e)
    manifest = json.loads((tiny_scene / "manifest.json").read_text())
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "manifest.json"
        path.write_text(json.dumps({**manifest, "config": config}))
        _check(["experiment", "hidden", "--in", str(tiny_scene), "--out", str(Path(d) / "out"),
                "--from-manifest", str(path)])


MANIFEST_VALUES = [None, 0, 1.5, "", "x", [], [1], {}, {"a": 1}, True]
DELETED = "<deleted>"


def test_every_single_mutation_of_a_replayed_manifest(tiny_scene, tmp_path):
    """Each top-level key of an `experiment hidden` manifest deleted, or set
    to each of MANIFEST_VALUES (88 manifests): every replay exits 0, or 2
    with the CLI's error line."""
    first = tmp_path / "first"
    assert _run(["experiment", "hidden", "--in", str(tiny_scene), "--out", str(first), "--fill", "linear"])[0] == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert len(manifest) == 8
    mutations = [(key, value) for key in manifest for value in [DELETED, *MANIFEST_VALUES]]
    failures = []
    for k, (key, value) in enumerate(mutations):
        doctored = {name: v for name, v in manifest.items() if name != key}
        if value is not DELETED:
            doctored[key] = value
        path = tmp_path / f"m{k}.json"
        path.write_text(json.dumps(doctored))
        rc, err = _run(["experiment", "hidden", "--in", str(tiny_scene), "--out", str(tmp_path / f"o{k}"),
                        "--from-manifest", str(path)])
        if rc not in (0, 2) or (rc == 2 and not err.startswith("gapfuse: error: ")):
            failures.append((key, value, rc, err))
    assert failures == []


def test_unmutated_configuration_runs():
    """The fuzzed runs start from configurations that succeed."""
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "config.json").write_text(json.dumps(DEFAULTS))
        assert _run(["synth", "--config", str(Path(d) / "config.json"), "--out", str(Path(d) / "ds"), *TINY])[0] == 0
        manifest = Path(d) / "ds" / "manifest.json"
        assert _run(["experiment", "hidden", "--in", str(Path(d) / "ds"), "--out", str(Path(d) / "x"),
                     "--from-manifest", str(manifest)])[0] == 0
