"""The three benchmark workloads: set-up, timed steps, output checks.

Every workload is generated from the seed it is given and runs in this
process.  `train` calls the library in memory on scene A; `sf_pipeline` and
`rule_pipeline` call `gapfuse.cli.main` on a scene written to disk.  A pass
is the workload's `steps` in order; `step` runs one of them and returns its
op, and a step may use what earlier steps left in the context.  Each op
(CLI command, training epoch, set-up step, output check) is recorded in the
`Ledger`, which gives the attempted and failed counts.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Scene A, the ROADMAP's acceptance scene: 500 parcels x 40 pixels.
SCENE_A = dict(n_parcels=500, pixels_per_parcel=40, n_regions=3, mask_pool_coverage=0.49)
# Scene B keeps scene A's 500 parcels and regions but 8 pixels per parcel:
# one pass of a CLI pipeline re-reads the dataset CSV up to four times, and
# on scene A (a 64 MB CSV) the runs would not fit the benchmark's time budget.
SCENE_B = dict(SCENE_A, pixels_per_parcel=8)
# Scene C, for sf_pipeline: 200 of those parcels.  Its detect step runs the
# network once per parcel, so a pass on scene B takes about 11 s and only one
# or two fit in a run; on scene C several do, and the run's median is steadier.
SCENE_C = dict(SCENE_B, n_parcels=200)
TRAIN_EPOCHS = 2
# The one rule_pipeline failure known at the time the benchmark was written:
# Akima overshoots [-1, 1] on a few pixels and PixelSeries rejects the fill.
KNOWN_AKIMA_FAILURE = "ndvi values must lie in [-1, 1]"


@dataclass
class Op:
    name: str
    ok: bool
    wall_s: float
    items: int = 0
    note: str = ""


@dataclass
class Ledger:
    """Ops by name.  An op that runs more than once (a set-up step, a command
    of every timed pass) is one op, failed when any of its runs failed, so
    `attempted` and `failed` depend on the seed and the code, not on how many
    passes fit in the run."""

    ops: dict[str, Op] = field(default_factory=dict)

    def add(self, op: Op) -> Op:
        seen = self.ops.get(op.name)
        if seen is None or (seen.ok and not op.ok):
            self.ops[op.name] = op
        return op

    def check(self, name: str, ok: bool, note: str = "") -> None:
        self.add(Op(f"check:{name}", bool(ok), 0.0, note=note))

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops.values())

    def checks_ok(self) -> bool:
        return all(op.ok for op in self.ops.values() if op.name.startswith("check:"))


def cli(ledger: Ledger, name: str, argv: list[str], items: int = 0,
        expected_error: str | None = None) -> Op:
    """Run one gapfuse command in process and record it as an op.

    A command that exits nonzero is a failed op.  When its message contains
    `expected_error` the failure is the known defect and is only counted;
    any other failure also fails a `<name>_exit_0` check."""
    from gapfuse.cli import main

    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    wall = time.perf_counter() - t0
    message = err.getvalue().strip()
    if message:
        print(message, file=sys.stderr)
    note = "" if rc == 0 else f"exit {rc}: {message}"
    known = rc != 0 and expected_error is not None and expected_error in message
    op = ledger.add(Op(name, rc == 0, wall, items, note))
    if rc != 0 and not known:
        ledger.check(f"{name}_exit_0", False, note)
    return op


# -- independent readers for the output checks -------------------------------

def read_ndvi(path: Path) -> np.ndarray:
    """(pixels, steps) NDVI from a dataset.csv, NaN where the cell is empty."""
    cells: dict[tuple[int, int], float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            cells[(int(row[0]), int(row[3]))] = float(row[5]) if row[5] else math.nan
    pixels = sorted({p for p, _ in cells})
    steps = 1 + max(s for _, s in cells)
    out = np.full((len(pixels), steps), np.nan)
    index = {p: i for i, p in enumerate(pixels)}
    for (p, s), v in cells.items():
        out[index[p], s] = v
    return out


def label_events(path: Path) -> tuple[set[int], int]:
    """(labeled parcels, number of labeled events) from labels.csv."""
    parcels: set[int] = set()
    n = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            parcels.add(int(row[0]))
            n += row[1] != ""
    return parcels, n


def parse_events(path: Path) -> dict[int, list[int]]:
    """Parse events.csv; raises ValueError on a malformed row."""
    out: dict[int, list[int]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["parcel_id", "event_doy", "score"]:
            raise ValueError("bad events header")
        for row in reader:
            if len(row) != 3 or (row[1] == "") != (row[2] == ""):
                raise ValueError(f"bad events row {row!r}")
            events = out.setdefault(int(row[0]), [])
            if row[1]:
                float(row[2])
                events.append(int(row[1]))
    return out


def manifest_mismatches(manifest: Path) -> list[str]:
    """Files whose digest differs from the one the manifest records."""
    data = json.loads(manifest.read_text())
    bad = []
    for key, digest in list(data["inputs"].items()) + list(data["outputs"].items()):
        p = Path(key) if Path(key).is_absolute() else manifest.parent / key
        h = hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
        if digest != f"sha256:{h}":
            bad.append(key)
    return bad


def overall(report: Path) -> dict:
    return json.loads(report.read_text())["overall"]


# -- workloads ----------------------------------------------------------------

class Train:
    """Library API in memory: assemble the 80 % split, train a fixed number of
    epochs, then compare fills on the 20 % split."""

    scene = SCENE_A
    steps = rate_ops = ("assemble", "train", "gapfill_eval")
    # what each step leaves in the context for the next
    produces = {"assemble": "training", "train": "model", "gapfill_eval": "fills"}

    def __init__(self, work: Path, seed: int, ledger: Ledger):
        self.work, self.seed, self.ledger = work, seed, ledger

    def setup(self, k: int):
        from gapfuse import SynthConfig, split_parcels, subset_dataset, synth_dataset

        t0 = time.perf_counter()
        scene = synth_dataset(SynthConfig(seed=self.seed, **self.scene))
        train_p, eval_p = split_parcels(scene.dataset, 0.2, self.seed)
        ctx = {
            "pools": dict(scene.pools),
            "train": subset_dataset(scene.dataset, train_p),
            "eval": subset_dataset(scene.dataset, eval_p),
        }
        self.ledger.add(Op("synth", True, time.perf_counter() - t0, scene.dataset.n_pixels))
        return ctx

    def step(self, ctx, name: str) -> Op:
        from gapfuse import TrainConfig, assemble_training_set, gapfill_eval, train

        # free what the step replaces before it runs, so that peak memory does
        # not depend on when the collector last ran
        ctx.pop(self.produces[name], None)
        gc.collect()
        t0 = time.perf_counter()
        if name == "assemble":
            ctx["training"] = assemble_training_set(
                ctx["train"], ctx["pools"], np.random.default_rng(np.random.SeedSequence((self.seed, 1))))
            return self.ledger.add(Op("assemble", True, time.perf_counter() - t0, ctx["train"].n_pixels))
        if name == "train":
            # patience equal to the epoch count: early stopping cannot end the run sooner
            config = TrainConfig(seed=self.seed, max_epochs=TRAIN_EPOCHS, early_stop_patience=TRAIN_EPOCHS)
            ctx["model"], report = train(ctx["training"], config)
            wall = time.perf_counter() - t0
            epochs = len(report.train_losses)
            for e in range(epochs):
                losses = (report.train_losses[e], report.val_losses[e])
                self.ledger.add(Op(f"epoch{e}", all(math.isfinite(x) for x in losses), wall / epochs,
                                   report.n_train, f"losses {losses}"))
            ctx["report"] = report
            return Op("train", epochs == TRAIN_EPOCHS, wall, report.n_train * epochs, f"{epochs} epochs")
        held_out = assemble_training_set(
            ctx["eval"], ctx["pools"], np.random.default_rng(np.random.SeedSequence((self.seed, 2))))
        ctx["fills"] = gapfill_eval(held_out, ctx["model"], ("sf", "akima", "linear"))
        return self.ledger.add(Op("gapfill_eval", True, time.perf_counter() - t0, ctx["eval"].n_pixels))

    def check(self, ctx) -> None:
        report, fills = ctx["report"], ctx["fills"]
        self.ledger.check("epochs_run", len(report.train_losses) == TRAIN_EPOCHS,
                          f"{len(report.train_losses)} of {TRAIN_EPOCHS}")
        finite = all(math.isfinite(x) for x in report.train_losses + report.val_losses)
        self.ledger.check("losses_finite", finite, f"{report.train_losses} {report.val_losses}")
        mae = fills.mean_mae
        self.ledger.check("sf_beats_interpolation", mae["sf"] < mae["akima"] and mae["sf"] < mae["linear"],
                          json.dumps(mae))

    def report(self, ctx, ops: dict[str, list[Op]]) -> dict:
        return {
            "train_samples_per_s": ("samples/s", [op.items / op.wall_s for op in ops["train"]]),
            "assemble_px_per_s": ("px/s", [op.items / op.wall_s for op in ops["assemble"]]),
            "fill_mae": ("ndvi", [ctx["fills"].mean_mae["sf"]]),
        }


class _Pipeline:
    scene = SCENE_B

    def __init__(self, work: Path, seed: int, ledger: Ledger):
        self.work, self.seed, self.ledger = work, seed, ledger
        self.n_pixels = self.scene["n_parcels"] * self.scene["pixels_per_parcel"]
        self.n_parcels = self.scene["n_parcels"]

    def synth(self, d: Path) -> None:
        d.mkdir(parents=True, exist_ok=True)
        (d / "config.json").write_text(json.dumps(
            {"synth": {"mask_pool_coverage": self.scene["mask_pool_coverage"]}}))
        cli(self.ledger, "synth", [
            "synth", "--config", str(d / "config.json"), "--out", str(d / "scene"),
            "--parcels", str(self.scene["n_parcels"]),
            "--pixels-per-parcel", str(self.scene["pixels_per_parcel"]),
            "--regions", str(self.scene["n_regions"]), "--seed", str(self.seed),
        ], self.n_pixels)

    def check_events(self, d: Path, events: Path, score: Path) -> None:
        parcels, n_events = label_events(d / "scene" / "labels.csv")
        try:
            parsed = parse_events(events)
            self.ledger.check("events_parse", set(parsed) == parcels,
                              f"{len(parsed)} parcels in events, {len(parcels)} labeled")
        except (ValueError, OSError) as e:
            self.ledger.check("events_parse", False, str(e))
        o = overall(score / "report.json")
        self.ledger.check("tp_plus_fn_equals_label_events", o["tp"] + o["fn"] == n_events,
                          f"tp {o['tp']} + fn {o['fn']} vs {n_events} events")


class SfPipeline(_Pipeline):
    """CLI with the fusion model: gapfill sf with the cloud filter, detect sf
    with mda1, and eval against labels.csv."""

    scene = SCENE_C
    steps = rate_ops = ("gapfill", "detect", "eval")

    def setup(self, k: int):
        d = self.work / f"sf{k}"
        self.synth(d)
        cli(self.ledger, "train", [
            "train", "--in", str(d / "scene"), "--masks", str(d / "scene" / "masks.csv"),
            "--out", str(d / "model.npz"), "--epochs", "1", "--seed", str(self.seed),
        ])
        return {"dir": d}

    def step(self, ctx, name: str) -> Op:
        d = ctx["dir"]
        scene, model = str(d / "scene"), str(d / "model.npz")
        if name == "gapfill":
            return cli(self.ledger, "gapfill", [
                "gapfill", "--in", scene, "--out", str(d / "filled"), "--method", "sf",
                "--model", model, "--cloud-filter"], self.n_pixels)
        if name == "detect":
            return cli(self.ledger, "detect", [
                "detect", "--in", scene, "--out", str(d / "events.csv"), "--fill", "sf", "--model", model,
                "--cloud-filter", "--algo", "mda1"], self.n_pixels)
        return cli(self.ledger, "eval", [
            "eval", "--pred", str(d / "events.csv"), "--truth", str(d / "scene" / "labels.csv"),
            "--out", str(d / "score")])

    def check(self, ctx) -> None:
        d = ctx["dir"]
        observed = read_ndvi(d / "scene" / "dataset.csv")
        filled = read_ndvi(d / "filled" / "dataset.csv")
        self.ledger.check("filled_no_nan", filled.shape == observed.shape and not np.isnan(filled).any(),
                          f"{int(np.isnan(filled).sum())} NaN cells")
        threshold = json.loads((d / "filled" / "manifest.json").read_text())[
            "config"]["pipeline"]["cloud_filter_threshold"]
        present = ~np.isnan(observed)
        replaced = present & (filled != observed)
        # a replaced observation must be one the cloud filter flags: the
        # prediction that replaced it sits at least `threshold` above it
        unflagged = replaced & ~(filled - observed >= threshold)
        self.ledger.check("observed_kept_unless_flagged", not unflagged.any(),
                          f"{int(replaced.sum())} replaced, {int(unflagged.sum())} without a flag")
        bad = []
        for m in (d / "filled" / "manifest.json", d / "events.manifest.json", d / "score" / "manifest.json"):
            bad += manifest_mismatches(m)
        self.ledger.check("manifest_digests_match", not bad, ", ".join(bad[:3]))
        self.check_events(d, d / "events.csv", d / "score")

    def report(self, ctx, ops: dict[str, list[Op]]) -> dict:
        f1 = overall(ctx["dir"] / "score" / "report.json")["f1"]
        return {
            "gapfill_px_per_s": ("px/s", [self.n_pixels / op.wall_s for op in ops["gapfill"]]),
            "detect_parcels_per_s": ("parcels/s", [self.n_parcels / op.wall_s for op in ops["detect"]]),
            "detect_f1": ("f1", [f1]),
        }


class RulePipeline(_Pipeline):
    """CLI without the network: preprocess, gapfill akima, detect akima with
    mda2, and eval with coverage bins."""

    # gapfill is left out: it fails on some seeds (the known Akima defect),
    # which would make the rate jump between seeds; it is counted in
    # `failed` and reported as gapfill_px_per_s when it completes
    steps = ("preprocess", "gapfill", "detect", "eval")
    rate_ops = ("preprocess", "detect", "eval")

    def setup(self, k: int):
        d = self.work / f"rule{k}"
        self.synth(d)
        return {"dir": d}

    def step(self, ctx, name: str) -> Op:
        d = ctx["dir"]
        pre = str(d / "pre")
        if name == "preprocess":
            return cli(self.ledger, "preprocess", [
                "preprocess", "--in", str(d / "scene"), "--out", pre], self.n_pixels)
        if name == "gapfill":
            return cli(self.ledger, "gapfill", [
                "gapfill", "--in", pre, "--out", str(d / "filled"), "--method", "akima"],
                self.n_pixels, expected_error=KNOWN_AKIMA_FAILURE)
        if name == "detect":
            return cli(self.ledger, "detect", [
                "detect", "--in", pre, "--out", str(d / "events.csv"), "--fill", "akima", "--algo", "mda2"],
                self.n_pixels)
        return cli(self.ledger, "eval", [
            "eval", "--pred", str(d / "events.csv"), "--truth", str(d / "scene" / "labels.csv"),
            "--out", str(d / "score"), "--in", str(d / "scene")], self.n_pixels)

    def check(self, ctx) -> None:
        from gapfuse import read_dataset, write_dataset

        d = ctx["dir"]
        first = read_dataset(d / "pre")
        write_dataset(first, d / "roundtrip")
        second = read_dataset(d / "roundtrip")
        same_files = all((d / "pre" / f).read_bytes() == (d / "roundtrip" / f).read_bytes()
                         for f in ("dataset.csv", "labels.csv"))
        same_arrays = len(first.pixels) == len(second.pixels) and all(
            a.ndvi.tobytes() == b.ndvi.tobytes()
            and all(a.sar[c].tobytes() == b.sar[c].tobytes() for c in a.sar)
            for a, b in zip(first.pixels, second.pixels))
        self.ledger.check("dataset_round_trip_bit_identical", same_files and same_arrays,
                          f"files equal {same_files}, arrays equal {same_arrays}")
        self.check_events(d, d / "events.csv", d / "score")

    def report(self, ctx, ops: dict[str, list[Op]]) -> dict:
        f1 = overall(ctx["dir"] / "score" / "report.json")["f1"]
        return {
            "preprocess_px_per_s": ("px/s", [self.n_pixels / op.wall_s for op in ops["preprocess"]]),
            # absent, not zero, while the command fails
            "gapfill_px_per_s": ("px/s", [self.n_pixels / op.wall_s for op in ops["gapfill"] if op.ok]),
            "detect_parcels_per_s": ("parcels/s", [self.n_parcels / op.wall_s for op in ops["detect"]]),
            "detect_f1": ("f1", [f1]),
            "eval_parcels_per_s": ("parcels/s", [self.n_parcels / op.wall_s for op in ops["eval"]]),
        }


WORKLOADS = {"train": Train, "sf_pipeline": SfPipeline, "rule_pipeline": RulePipeline}
