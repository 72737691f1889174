"""Check that every output of a fixed CLI matrix is byte-identical to a base
revision's.

    python tools/same_outputs.py --base <rev> [--declared FILE] [--work DIR]

The base revision is checked out with `git worktree add` (local, no
network) under the work directory, and removed again at the end.  The
matrix then runs twice, once with the base tree's `src` and once with this
tree's `src` on `PYTHONPATH`, each command as `python -m gapfuse`:

* on scene B (500 parcels x 8 pixels, 3 regions) at seeds 101 and 103:
  `synth`; `preprocess`, with and without `--drop-noncompliant`; `gapfill`
  akima, linear, quadratic, and sf with `--cloud-filter`; `train --epochs 1`
  for both heads; `cloudfilter`; `detect` akima/mda2, sf/mda1 and
  akima/dnn; `eval` on events, and with `--in`; the hidden-event
  `experiment` and one `experiment --from-manifest` replay of it;
* a fixed list of refusals on seed 101's scene, each of which must exit 2;
* `preprocess`, `gapfill --method linear` and `eval --in` on a copy of seed
  101's dataset.csv and labels.csv with no dataset.npz, once with LF and
  once with CRLF line ends, so that every read of it parses dataset.csv and
  the datasets derived from it are spliced from the parsed file.
The exit code and standard error of every command go to `commands.json`.

Every file the two runs leave is then compared, and so is the set of
directories they leave, so that an empty directory on one side only is
reported too.  One rule normalises the files:
the run's own directory, as an absolute path, is replaced by `<run>`, and a
file that held that path is known by the digest of its normalised bytes,
which replaces its raw digest wherever another such file records it (a
manifest records the digests of the manifests it read).  Nothing else is
normalised.

Exit status: 0 when every file is equal; 1 when a difference is matched by
no pattern of `--declared`, a file of `fnmatch` patterns over the reported
paths, one a line (blank lines and `#` comments are skipped); 2 when the
base cannot be checked out.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = (101, 103)
# scene B of perfbench/workloads.py
SCENE_B = {"parcels": 500, "pixels_per_parcel": 8, "regions": 3, "mask_pool_coverage": 0.49}


def _matrix(run: Path, seed: int) -> list[tuple[str, list[str]]]:
    """(name, gapfuse argv) of each command run at `seed`, in order."""
    d = run / f"seed{seed}"
    scene, model, dnn = str(d / "scene"), str(d / "model.gfm"), str(d / "dnn.gfm")
    return [
        ("synth", ["synth", "--config", str(d / "config.json"), "--out", scene, "--parcels", str(SCENE_B["parcels"]),
                   "--pixels-per-parcel", str(SCENE_B["pixels_per_parcel"]), "--regions", str(SCENE_B["regions"]),
                   "--seed", str(seed)]),
        ("preprocess", ["preprocess", "--in", scene, "--out", str(d / "pre")]),
        ("preprocess_drop", ["preprocess", "--in", scene, "--out", str(d / "dropped"), "--drop-noncompliant"]),
        *((f"gapfill_{m}", ["gapfill", "--in", scene, "--out", str(d / m), "--method", m])
          for m in ("akima", "linear", "quadratic")),
        ("train_regression", ["train", "--in", scene, "--masks", str(d / "scene" / "masks.csv"), "--out", model,
                              "--epochs", "1"]),
        ("train_detection", ["train", "--in", scene, "--out", dnn, "--head", "detection", "--fill", "akima",
                             "--epochs", "1"]),
        ("gapfill_sf", ["gapfill", "--in", scene, "--out", str(d / "sf"), "--method", "sf", "--model", model,
                        "--cloud-filter"]),
        ("cloudfilter", ["cloudfilter", "--in", scene, "--model", model, "--out", str(d / "clear")]),
        ("detect_akima_mda2", ["detect", "--in", scene, "--out", str(d / "akima_mda2.csv"), "--fill", "akima",
                               "--algo", "mda2"]),
        ("detect_sf_mda1", ["detect", "--in", scene, "--out", str(d / "sf_mda1.csv"), "--fill", "sf", "--model",
                            model, "--algo", "mda1"]),
        ("detect_akima_dnn", ["detect", "--in", scene, "--out", str(d / "akima_dnn.csv"), "--fill", "akima",
                              "--algo", "dnn", "--dnn-model", dnn]),
        ("eval_events", ["eval", "--pred", str(d / "akima_mda2.csv"), "--truth", str(d / "scene" / "labels.csv"),
                         "--out", str(d / "eval")]),
        ("eval_binned", ["eval", "--pred", str(d / "akima_mda2.csv"), "--truth", str(d / "scene" / "labels.csv"),
                         "--out", str(d / "eval_binned"), "--in", str(d / "pre")]),
        ("experiment_hidden", ["experiment", "hidden", "--in", scene, "--out", str(d / "hidden"), "--fill",
                               "akima"]),
        ("experiment_replay", ["experiment", "hidden", "--in", scene, "--out", str(d / "replay"),
                               "--from-manifest", str(d / "hidden" / "manifest.json")]),
    ]


def _edit_cell(column: int, value: str | None, row: int = 1):
    """An edit of dataset.csv's data row `row` (1 is the first): its cell
    `column` set to `value`, or its last cell dropped when `value` is None."""
    def edit(text: str) -> str:
        lines = text.split("\n")
        cells = lines[row].split(",")
        if value is None:
            cells.pop()
        else:
            cells[column] = value
        lines[row] = ",".join(cells)
        return "\n".join(lines)
    return edit


# (name, edit of the seed-101 scene's dataset.csv or None, argv given the
# edited copy and the scene): each must exit 2.  An edited copy keeps the
# scene's dataset.npz beside it, which no longer records its digest.
_REFUSALS = [
    ("ndvi_not_a_number", _edit_cell(5, "abc"), lambda d, s: ["preprocess", "--in", d, "--out", f"{d}-out"]),
    ("coherence_1.5", _edit_cell(8, "1.5"), lambda d, s: ["preprocess", "--in", d, "--out", f"{d}-out"]),
    ("short_row", _edit_cell(0, None, row=3), lambda d, s: ["gapfill", "--in", d, "--out", f"{d}-out",
                                                            "--method", "linear"]),
    ("backscatter_1e300", _edit_cell(6, "1e300"), lambda d, s: ["preprocess", "--in", d, "--out", f"{d}-out"]),
    ("no_header", lambda text: "", lambda d, s: ["preprocess", "--in", d, "--out", f"{d}-out"]),
    ("missing_input", None, lambda d, s: ["preprocess", "--in", f"{d}-absent", "--out", f"{d}-out"]),
    ("sf_without_model", None, lambda d, s: ["gapfill", "--in", s, "--out", f"{d}-out", "--method", "sf"]),
    ("train_without_masks", None, lambda d, s: ["train", "--in", s, "--out", f"{d}-out.gfm"]),
    ("dnn_without_model", None, lambda d, s: ["detect", "--in", s, "--out", f"{d}-out.csv", "--algo", "dnn",
                                              "--fill", "linear"]),
    ("model_not_a_model", None, lambda d, s: ["gapfill", "--in", s, "--out", f"{d}-out", "--method", "sf",
                                              "--model", f"{s}/labels.csv"]),
    ("truth_of_unknown_header", None, lambda d, s: ["eval", "--pred", f"{os.path.dirname(s)}/akima_mda2.csv",
                                                    "--truth", f"{s}/masks.csv", "--out", f"{d}-out"]),
]


# (name, argv given a copy of the seed-101 scene without its dataset.npz and
# the scene): each must exit 0
_PARSED = [
    ("preprocess", lambda d, s: ["preprocess", "--in", d, "--out", f"{d}-pre"]),
    ("gapfill_linear", lambda d, s: ["gapfill", "--in", d, "--out", f"{d}-linear", "--method", "linear"]),
    ("eval_binned", lambda d, s: ["eval", "--pred", f"{os.path.dirname(s)}/akima_mda2.csv", "--truth",
                                  f"{s}/labels.csv", "--out", f"{d}-eval", "--in", d]),
]


def _gapfuse(src: Path, argv: list[str]) -> dict:
    """Run `python -m gapfuse argv` on the tree whose source is `src`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GAPFUSE_")}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, "-m", "gapfuse", *argv], env=env, capture_output=True, text=True)
    return {"argv": argv, "exit": done.returncode, "stderr": done.stderr}


def run_matrix(src: Path, run: Path) -> None:
    """Run the matrix, the refusals and the runs on a scene without its copy
    with the gapfuse of `src`, writing under the new directory `run`."""
    run.mkdir(parents=True)
    log = {}
    for seed in SEEDS:
        d = run / f"seed{seed}"
        d.mkdir()
        (d / "config.json").write_text(json.dumps({"synth": {"mask_pool_coverage": SCENE_B["mask_pool_coverage"]}}))
        for name, argv in _matrix(run, seed):
            log[f"seed{seed}/{name}"] = result = _gapfuse(src, argv)
            print(f"{src.parent.name}: seed {seed} {name}: exit {result['exit']}", file=sys.stderr)
    scene = run / f"seed{SEEDS[0]}" / "scene"
    for name, edit, argv in _REFUSALS:
        d = run / "refusals" / name
        if edit is not None:
            # a tree that wrote no copy, or whose synth failed, gets what it wrote
            d.mkdir(parents=True)
            for f in ("dataset.csv", "dataset.npz", "labels.csv"):
                if (scene / f).exists():
                    shutil.copyfile(scene / f, d / f)
            if (d / "dataset.csv").exists():
                (d / "dataset.csv").write_text(edit((d / "dataset.csv").read_text()))
        log[f"refusals/{name}"] = result = _gapfuse(src, argv(str(d), str(scene)))
        if result["exit"] != 2:
            print(f"{src.parent.name}: refusal {name} exited {result['exit']}, not 2", file=sys.stderr)
    log |= run_parsed(src, scene, run)
    (run / "commands.json").write_text(json.dumps(log, indent=2, sort_keys=True) + "\n")


def run_parsed(src: Path, scene: Path, run: Path) -> dict[str, dict]:
    """Run `_PARSED` with the gapfuse of `src` on copies of the scene
    directory `scene` under `run`/parsed, one with LF and one with CRLF line
    ends, and return each command's record by name."""
    log = {}
    for ends, newline in (("lf", b"\n"), ("crlf", b"\r\n")):
        d = run / "parsed" / ends
        d.mkdir(parents=True)
        for f in ("dataset.csv", "labels.csv"):
            if (scene / f).exists():
                (d / f).write_bytes((scene / f).read_bytes().replace(b"\n", newline))
        for name, argv in _PARSED:
            log[f"parsed/{ends}/{name}"] = result = _gapfuse(src, argv(str(d), str(scene)))
            if result["exit"] != 0:
                print(f"{src.parent.name}: {ends} {name} exited {result['exit']}, not 0", file=sys.stderr)
    return log


def _digest(data: bytes) -> bytes:
    return b"sha256:" + hashlib.sha256(data).hexdigest().encode()


def fingerprints(run: Path) -> dict[str, bytes]:
    """Each file under `run` by its relative path: the normalised bytes of a
    file that held the run's path, the sha256 of any other's bytes (see the
    module docstring)."""
    marks = sorted({str(run).encode(), str(run.resolve()).encode()}, key=len, reverse=True)
    out, holders, raw_digests = {}, {}, {}
    for p in sorted(q for q in run.rglob("*") if q.is_file()):
        rel, data = p.relative_to(run).as_posix(), p.read_bytes()
        text = data
        for mark in marks:
            text = text.replace(mark, b"<run>")
        if text == data:
            out[rel] = _digest(data)
        else:
            holders[rel], raw_digests[rel] = text, _digest(data)
    # a holder's digest depends on the holders it records: settle them in
    # as many rounds as the longest chain of records
    known: dict[bytes, bytes] = {}
    for _ in range(len(holders) + 1):
        texts = {}
        for rel, text in holders.items():
            for raw, norm in known.items():
                text = text.replace(raw, norm)
            texts[rel] = text
        settled = {raw_digests[rel]: b"normalised-" + _digest(text) for rel, text in texts.items()}
        if settled == known:
            break
        known = settled
    return out | texts


def _directories(run: Path) -> set[str]:
    """Each directory under `run` by its relative path, with a trailing `/`."""
    return {p.relative_to(run).as_posix() + "/" for p in run.rglob("*") if p.is_dir()}


def compare(base: Path, head: Path) -> tuple[int, list[str]]:
    """The number of files under `base` and `head` together, and the
    differences between the two runs, one line each: `differs: <path>`,
    `only in base: <path>` or `only in head: <path>`, where the path of a
    directory ends in `/`."""
    a, b = fingerprints(base), fingerprints(head)
    da, db = _directories(base), _directories(head)
    lines = [f"only in base: {rel}" for rel in sorted((a.keys() - b.keys()) | (da - db))]
    lines += [f"only in head: {rel}" for rel in sorted((b.keys() - a.keys()) | (db - da))]
    lines += [f"differs: {rel}" for rel in sorted(a.keys() & b.keys()) if a[rel] != b[rel]]
    return len(a.keys() | b.keys()), lines


def undeclared(differences: list[str], patterns: list[str]) -> list[str]:
    """The `differences` whose path no pattern matches."""
    return [line for line in differences
            if not any(fnmatch.fnmatchcase(line.split(": ", 1)[1], pat) for pat in patterns)]


def _patterns(path: str | None) -> list[str]:
    if path is None:
        return []
    lines = (line.strip() for line in Path(path).read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--declared", help="fnmatch patterns of the paths allowed to differ")
    parser.add_argument("--work", help="an empty directory for the checkout and the runs (default: a temp dir)")
    args = parser.parse_args(argv)
    patterns = _patterns(args.declared)
    work = Path(args.work or tempfile.mkdtemp(prefix="same_outputs-")).resolve()
    work.mkdir(parents=True, exist_ok=True)
    tree = work / "base-tree"
    added = subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach", str(tree), args.base],
                           capture_output=True, text=True)
    if added.returncode != 0:
        print(f"same_outputs: cannot check out {args.base}: {added.stderr.strip()}", file=sys.stderr)
        return 2
    try:
        run_matrix(tree / "src", work / "base")
        run_matrix(REPO / "src", work / "head")
    finally:
        subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force", str(tree)], capture_output=True)
    n, differences = compare(work / "base", work / "head")
    left = undeclared(differences, patterns)
    for line in differences:
        print(line if line in left else f"{line} (declared)")
    print(f"{n} files compared, {len(differences)} differ, {len(left)} not declared; runs kept in {work}")
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main())
