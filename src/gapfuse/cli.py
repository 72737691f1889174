"""Command-line pipeline.

Subcommands: synth, preprocess, mask, train, gapfill, cloudfilter, detect,
eval, experiment {hidden|ablation|generalization}.  Every run records a
manifest (resolved config, seed, input and output digests) next to its
outputs; experiment runs can be replayed bit-for-bit from that manifest.

Exit codes: 0 success, 2 validation failure (bad arguments, malformed
files), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .cloudsim import synth_dataset, synth_mask_pool
from .core import Dataset, ParcelLabel
from .detect import (
    ALGORITHMS,
    detect_parcels,
    labels_to_binary,
    parcel_block,
    train_dnn_detector,
)
from .evalx import (
    MatchResult,
    ablation_experiment,
    binned_report,
    generalization_experiment,
    hidden_event_experiment,
    mae,
    match_events,
    prf,
    r_squared,
)
from .fileio import (
    VERSION,
    EVENTS_HEADER,
    LABELS_HEADER,
    FileFormatError,
    RunConfig,
    hash_tree,
    load_config,
    load_model,
    read_dataset,
    read_events,
    read_labels,
    read_manifest,
    save_model,
    sha256_file,
    write_dataset,
    write_events,
    write_json,
    write_manifest,
    write_mask_pools,
    read_mask_pools,
    write_table_csv,
)
from .preprocess import density_mask, remove_outliers
from .sfmodel import FILL_METHODS, assemble_training_set, fill_batch, train


class _Run:
    """Tracks inputs/outputs of one command for the manifest, and removes
    partial outputs when the command fails."""

    def __init__(self, command: str, argv: list[str], config: RunConfig):
        self.command = command
        self.argv = list(argv)
        self.config = config
        self.inputs: dict[str, str] = {}
        self._written: list[Path] = []

    def record_input(self, path) -> None:
        p = Path(path)
        if p.is_dir():
            for rel, digest in hash_tree(p).items():
                self.inputs[f"{p}/{rel}"] = digest
        elif p.is_file():
            self.inputs[str(p)] = sha256_file(p)
        else:
            raise FileNotFoundError(f"input not found: {p}")

    def wrote(self, *paths) -> None:
        self._written.extend(Path(p) for p in paths)

    def finish(self, manifest_path) -> None:
        # keys relative to the manifest keep the record valid if the output
        # directory is moved; inputs live elsewhere and stay absolute
        base = Path(manifest_path).resolve().parent
        outputs = {}
        for p in self._written:
            rp = Path(p).resolve()
            try:
                key = str(rp.relative_to(base))
            except ValueError:
                key = str(rp)
            outputs[key] = sha256_file(p)
        write_manifest(manifest_path, self.command, self.argv, self.config, self.inputs, outputs)

    def cleanup(self) -> None:
        for p in self._written:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


def _write_dataset(run: _Run, dataset: Dataset, out: Path) -> None:
    write_dataset(dataset, out)
    run.wrote(out / "dataset.csv", out / "labels.csv")


def _sibling_manifest(out_file: Path) -> Path:
    return out_file.with_name(out_file.stem + ".manifest.json")


def _override(config: RunConfig, section: str, **maybe) -> RunConfig:
    updates = {k: v for k, v in maybe.items() if v is not None}
    return config.replace_section(section, **updates) if updates else config


def _load_dataset(path) -> Dataset:
    p = Path(path)
    if not p.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {p}")
    return read_dataset(p)


def _cmd_synth(args, config: RunConfig, run: _Run) -> None:
    out = Path(args.out)
    result = synth_dataset(config.synth)
    _write_dataset(run, result.dataset, out)
    write_mask_pools(result.pools, out / "masks.csv")
    run.wrote(out / "masks.csv")
    cirrus = {str(pid): [[int(s), float(d)] for s, d in hits] for pid, hits in result.cirrus.items()}
    write_json(out / "cirrus.json", cirrus)
    run.wrote(out / "cirrus.json")
    run.finish(out / "manifest.json")


def _cmd_preprocess(args, config: RunConfig, run: _Run) -> None:
    run.record_input(args.inp)
    ds = _load_dataset(args.inp)
    out = Path(args.out)
    ndvi = ds.ndvi
    cleaned = remove_outliers(ndvi, ds.grid, config.outlier)
    ok = density_mask(cleaned, ds.grid, config.density)
    if args.drop_noncompliant:
        if not ok.any():
            raise ValueError("no pixels left after density filtering")
        kept = ds.select(ok, cleaned[ok])
    else:
        kept = ds.select(ndvi=cleaned)
    _write_dataset(run, kept, out)
    report = {
        "n_pixels_in": ds.n_pixels,
        "n_pixels_out": kept.n_pixels,
        "n_outlier_points_removed": int(np.sum(~np.isnan(ndvi)) - np.sum(~np.isnan(cleaned))),
        "n_density_compliant": int(ok.sum()),
    }
    write_json(out / "preprocess_report.json", report)
    run.wrote(out / "preprocess_report.json")
    run.finish(out / "manifest.json")


def _cmd_mask(args, config: RunConfig, run: _Run) -> None:
    run.record_input(args.inp)
    ds = _load_dataset(args.inp)
    out = Path(args.out)
    regions = np.unique(ds.pixel_region_ids).tolist()
    rng = np.random.default_rng(np.random.SeedSequence((config.pipeline.seed, 11)))
    pools = {
        r: synth_mask_pool(r, ds.grid, args.pool_size, args.coverage, rng)
        for r in regions
    }
    write_mask_pools(pools, out)
    run.wrote(out)
    run.finish(_sibling_manifest(out))


def _cmd_train(args, config: RunConfig, run: _Run) -> None:
    run.record_input(args.inp)
    ds = _load_dataset(args.inp)
    out = Path(args.out)
    if args.head == "regression":
        if args.masks is None:
            raise ValueError("training the gap-filler needs --masks")
        run.record_input(args.masks)
        pools = read_mask_pools(args.masks)
        rng = np.random.default_rng(np.random.SeedSequence((config.train.seed, 13)))
        training = assemble_training_set(ds, pools, rng, config.outlier, config.density)
        model, report = train(training, config.train)
    else:
        series, labels = _filled_parcel_series(args, config, ds, run)
        model, report = train_dnn_detector(series, labels, ds.grid, config.train)
    save_model(model, out)
    run.wrote(out)
    report_path = out.with_name(out.stem + ".report.json")
    write_json(report_path, dataclasses.asdict(report))
    run.wrote(report_path)
    run.finish(_sibling_manifest(out))


def _fill_model(args, method: str, run: _Run):
    """The --model an sf fill needs, recorded as an input; None for other fills."""
    if method != "sf":
        return None
    if args.model is None:
        raise ValueError("sf fill needs --model")
    run.record_input(args.model)
    return load_model(args.model)


def _filled_parcel_series(args, config: RunConfig, ds: Dataset, run: _Run):
    """(parcel aggregate series filled by --fill, binary event labels)."""
    parcels = list(ds.parcel_ids)
    fill = args.fill or config.pipeline.fill_method
    if fill == "none":
        raise ValueError("detector training needs a continuous series; pick a fill method")
    ndvi, sar = parcel_block(ds, parcels, config.outlier)
    filled, _ = fill_batch(ndvi, ds.grid, fill, _fill_model(args, fill, run), sar)
    labels = np.stack([
        labels_to_binary(ds.labels.get(pid, ParcelLabel(pid)), ds.grid) for pid in parcels
    ])
    return filled, labels


def _cmd_gapfill(args, config: RunConfig, run: _Run) -> None:
    run.record_input(args.inp)
    ds = _load_dataset(args.inp)
    out = Path(args.out)
    method = args.method or config.pipeline.fill_method
    if method == "none":
        raise ValueError("gapfill needs a fill method, not 'none'")
    model = _fill_model(args, method, run)
    ndvi = ds.ndvi
    cf = config.pipeline.cloud_filter_threshold if args.cloud_filter else None
    filled, _ = fill_batch(ndvi, ds.grid, method, model, ds.sar, cf)
    _write_dataset(run, ds.select(ndvi=filled), out)
    report = {
        "method": method,
        "n_pixels": ds.n_pixels,
        "n_skipped_pixels": int(np.isnan(filled).any(axis=1).sum()),
        "n_filled_steps": int(np.sum(np.isnan(ndvi) & ~np.isnan(filled))),
    }
    write_json(out / "gapfill_report.json", report)
    run.wrote(out / "gapfill_report.json")
    run.finish(out / "manifest.json")


def _cmd_cloudfilter(args, config: RunConfig, run: _Run) -> None:
    run.record_input(args.inp)
    run.record_input(args.model)
    ds = _load_dataset(args.inp)
    out = Path(args.out)
    model = load_model(args.model)
    thr = args.threshold if args.threshold is not None else config.pipeline.cloud_filter_threshold
    ndvi = ds.ndvi
    _, flagged = fill_batch(ndvi, ds.grid, "sf", model, ds.sar, thr)
    _write_dataset(run, ds.select(ndvi=np.where(flagged, np.nan, ndvi)), out)
    report = {
        "threshold": thr,
        "n_present_steps": int(np.sum(~np.isnan(ndvi))),
        "n_flagged_steps": int(flagged.sum()),
    }
    write_json(out / "cloudfilter_report.json", report)
    run.wrote(out / "cloudfilter_report.json")
    run.finish(out / "manifest.json")


def _cmd_detect(args, config: RunConfig, run: _Run) -> None:
    run.record_input(args.inp)
    ds = _load_dataset(args.inp)
    out = Path(args.out)
    algo = args.algo or config.pipeline.algorithm
    fill = args.fill or config.pipeline.fill_method
    model = _fill_model(args, fill, run)
    dnn_model = None
    if algo == "dnn":
        if args.dnn_model is None:
            raise ValueError("dnn detection needs --dnn-model")
        run.record_input(args.dnn_model)
        dnn_model = load_model(args.dnn_model)
    outlier = None if args.raw else config.outlier
    cf = config.pipeline.cloud_filter_threshold if args.cloud_filter else None
    results = detect_parcels(
        ds, ds.parcel_ids, algo, fill,
        model=model,
        dnn_model=dnn_model,
        mda1_params=config.mda1,
        mda2_params=config.mda2,
        decode_threshold=config.pipeline.decode_threshold,
        outlier=outlier,
        cloud_filter_threshold=cf,
    )
    write_events(results, out)
    run.wrote(out)
    run.finish(_sibling_manifest(out))


def _read_truth_events(path) -> dict[int, tuple[int, ...]]:
    """Accept either a labels file or an events file as ground truth."""
    import csv as _csv

    with open(path, newline="") as fh:
        header = next(_csv.reader(fh), None)
    if header is not None and tuple(header) == EVENTS_HEADER:
        return {pid: es.doys for pid, es in read_events(path).items()}
    if header is not None and tuple(header) == LABELS_HEADER:
        return {pid: lab.event_doys for pid, lab in read_labels(path).items()}
    raise FileFormatError(path, f"unrecognized truth header {header!r}", row=1)


def _parcel_cloud_coverage(ds: Dataset) -> dict[int, float]:
    """Each parcel's mean over its pixels of the fraction of absent NDVI
    steps, averaged a block of equal-sized parcels at a time."""
    per_pixel = 1.0 - np.count_nonzero(~np.isnan(ds.ndvi), axis=1) / ds.grid.length
    coverage = np.empty(len(ds.parcel_ids))
    for at, rows in ds.parcel_blocks():
        coverage[at] = per_pixel[rows].mean(axis=1)
    return dict(zip(ds.parcel_ids, coverage.tolist()))


def _cmd_eval(args, config: RunConfig, run: _Run) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if Path(args.pred).is_dir():
        _eval_series(args, config, run, out)
    else:
        _eval_events(args, config, run, out)
    run.finish(out / "manifest.json")


def _eval_events(args, config: RunConfig, run: _Run, out: Path) -> None:
    run.record_input(args.pred)
    run.record_input(args.truth)
    tol = args.tolerance if args.tolerance is not None else config.pipeline.tolerance_days
    preds = {pid: es.doys for pid, es in read_events(args.pred).items()}
    truths = _read_truth_events(args.truth)
    parcels = sorted(set(preds) | set(truths))
    per_parcel = {}
    results = {}
    for pid in parcels:
        m = match_events(preds.get(pid, ()), truths.get(pid, ()), tol)
        results[pid] = m
        recall, precision, f1 = prf(m)
        per_parcel[str(pid)] = {
            "tp": m.true_positive, "fp": m.false_positive, "fn": m.false_negative,
            "recall": recall, "precision": precision, "f1": f1,
        }
    total = sum(results.values(), MatchResult(0, 0, 0))
    recall, precision, f1 = prf(total)
    report = {
        "mode": "events",
        "tolerance_days": tol,
        "n_parcels": len(parcels),
        "overall": {
            "tp": total.true_positive, "fp": total.false_positive, "fn": total.false_negative,
            "recall": recall, "precision": precision, "f1": f1,
        },
        "per_parcel": per_parcel,
    }
    rows = [["parcel", pid, r["tp"], r["fp"], r["fn"], r["f1"]] for pid, r in sorted(
        per_parcel.items(), key=lambda kv: int(kv[0]))]
    if args.inp is not None:
        run.record_input(args.inp)
        ds = _load_dataset(args.inp)
        coverages = _parcel_cloud_coverage(ds)
        missing = [p for p in parcels if p not in coverages]
        if missing:
            raise ValueError(f"parcels absent from the coverage dataset: {missing[:5]}")
        binned = binned_report(results, coverages)
        report["bins"] = {
            "mu": binned.bins.mu,
            "sigma": binned.bins.sigma,
            "rows": [dataclasses.asdict(r) for r in binned.rows],
        }
        rows += [["bin", r.bin_index, r.true_positive, r.false_positive, r.false_negative, r.f1]
                 for r in binned.rows]
    write_json(out / "report.json", report)
    write_table_csv(out / "report.csv", ("kind", "key", "tp", "fp", "fn", "f1"), rows)
    run.wrote(out / "report.json", out / "report.csv")


def _eval_series(args, config: RunConfig, run: _Run, out: Path) -> None:
    run.record_input(args.pred)
    run.record_input(args.truth)
    pred_ds = _load_dataset(args.pred)
    truth_ds = _load_dataset(args.truth)
    # datasets read from files hold their pixels in ascending id order
    ids, pred, truth = pred_ds.pixel_ids, pred_ds.ndvi, truth_ds.ndvi
    if not np.array_equal(ids, truth_ds.pixel_ids):
        raise ValueError("prediction and truth datasets cover different pixels")
    if args.selector == "masked":
        if args.input is None:
            raise ValueError("--selector masked needs --input (the gappy dataset that was filled)")
        run.record_input(args.input)
        input_ds = _load_dataset(args.input)
        if not np.array_equal(input_ds.pixel_ids, ids):
            raise ValueError("--input dataset covers different pixels")
        select = np.isnan(input_ds.ndvi) & ~np.isnan(truth) & ~np.isnan(pred)
    else:
        select = ~np.isnan(truth) & ~np.isnan(pred)
    report = {
        "mode": "series",
        "selector": args.selector,
        "n_pixels": ids.shape[0],
        "n_selected": int(select.sum()),
        "mae": mae(np.nan_to_num(pred), np.nan_to_num(truth), select),
        "r_squared": r_squared(np.nan_to_num(pred), np.nan_to_num(truth), select),
    }
    write_json(out / "report.json", report)
    write_table_csv(
        out / "report.csv",
        ("selector", "n_selected", "mae", "r_squared"),
        [[args.selector, report["n_selected"], report["mae"], report["r_squared"]]],
    )
    run.wrote(out / "report.json", out / "report.csv")


def _parse_subsets(text: str) -> tuple[tuple[str, ...], ...]:
    subsets = []
    for part in text.split(","):
        groups = tuple(g.strip() for g in part.split("+") if g.strip())
        if not groups:
            raise ValueError(f"empty feature subset in {text!r}")
        subsets.append(groups)
    return tuple(subsets)


DEFAULT_ABLATION_SUBSETS = "ndvi+sigma0+coherence,ndvi+sigma0,ndvi+coherence,sigma0+coherence,sigma0,coherence"


def _cmd_experiment(args, config: RunConfig, run: _Run) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run.record_input(args.inp)
    ds = _load_dataset(args.inp)
    if args.kind == "hidden":
        fill = args.fill or config.pipeline.fill_method
        rep = hidden_event_experiment(
            ds, fill, _fill_model(args, fill, run),
            detector=config.pipeline.algorithm if config.pipeline.algorithm in ("mda1", "mda2") else "mda1",
            seed=config.pipeline.seed,
            tolerance_max=config.pipeline.tolerance_days,
            mda1_params=config.mda1,
            mda2_params=config.mda2,
        )
        metrics = {
            "experiment": "hidden",
            "fill_method": rep.fill_method,
            "seed": rep.seed,
            "n_parcels": rep.n_parcels,
            "recall": rep.recall,
            "precision": rep.precision,
            "f1": rep.f1,
            "tolerance_recall": list(rep.tolerance_recall),
            "records": [
                {
                    "parcel_id": r.parcel_id,
                    "event_doy": r.event_doy,
                    "gap_start_step": r.gap_start_step,
                    "gap_length": r.gap_length,
                    "detected_doys": list(r.detected_doys),
                }
                for r in rep.records
            ],
        }
        rows = [[t, rec] for t, rec in enumerate(rep.tolerance_recall)]
        header = ("tolerance_days", "recall")
    elif args.kind == "ablation":
        if args.masks is None:
            raise ValueError("the ablation experiment needs --masks")
        run.record_input(args.masks)
        pools = read_mask_pools(args.masks)
        subsets = _parse_subsets(args.subsets or DEFAULT_ABLATION_SUBSETS)
        rep = ablation_experiment(
            ds, pools, subsets, config.train,
            test_fraction=config.pipeline.test_fraction,
            outlier=config.outlier, density=config.density,
        )
        metrics = {
            "experiment": "ablation",
            "seed": rep.seed,
            "n_eval_pixels": rep.n_eval_pixels,
            "rows": [
                {"groups": list(r.groups), "channels": list(r.channels),
                 "mean_mae": r.mean_mae, "r2": r.r2}
                for r in rep.rows
            ],
        }
        rows = [["+".join(r.groups), r.mean_mae, r.r2] for r in rep.rows]
        header = ("subset", "mean_mae", "r2")
    else:
        if args.masks is None:
            raise ValueError("the generalization experiment needs --masks")
        run.record_input(args.masks)
        pools = read_mask_pools(args.masks)
        regions = np.unique(ds.pixel_region_ids).tolist()
        if args.eval_regions:
            eval_regions = tuple(int(r) for r in args.eval_regions.split(","))
        else:
            eval_regions = (regions[-1],)
        if args.train_subsets:
            subsets = tuple(
                tuple(int(r) for r in part.split(",")) for part in args.train_subsets.split(";")
            )
        else:
            rest = [r for r in regions if r not in eval_regions]
            subsets = tuple(tuple(rest[: k + 1]) for k in range(len(rest)))
        rep = generalization_experiment(
            ds, pools, subsets, eval_regions, config.train,
            outlier=config.outlier, density=config.density,
        )
        metrics = {
            "experiment": "generalization",
            "seed": rep.seed,
            "eval_regions": list(rep.eval_regions),
            "rows": [
                {"train_regions": list(r.train_regions), "n_regions": r.n_regions,
                 "n_train_pixels": r.n_train_pixels, "mean_mae": r.mean_mae}
                for r in rep.rows
            ],
        }
        rows = [["+".join(str(x) for x in r.train_regions), r.n_regions, r.n_train_pixels, r.mean_mae]
                for r in rep.rows]
        header = ("train_regions", "n_regions", "n_train_pixels", "mean_mae")
    write_json(out / "metrics.json", metrics)
    write_table_csv(out / "report.csv", header, rows)
    run.wrote(out / "metrics.json", out / "report.csv")
    run.finish(out / "manifest.json")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gapfuse", description=__doc__)
    p.add_argument("--version", action="version", version=f"gapfuse {VERSION}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")

    sp = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    common(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--parcels", type=int)
    sp.add_argument("--pixels-per-parcel", type=int)
    sp.add_argument("--regions", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--cirrus-rate", type=float)

    sp = sub.add_parser("preprocess", help="outlier-clean every pixel")
    common(sp)
    sp.add_argument("--in", dest="inp", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--drop-noncompliant", action="store_true",
                    help="drop pixels that fail the observation-density criteria")

    sp = sub.add_parser("mask", help="generate cloud-mask pools for a dataset's regions")
    common(sp)
    sp.add_argument("--in", dest="inp", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--coverage", type=float, default=0.45)
    sp.add_argument("--pool-size", type=int, default=64)
    sp.add_argument("--seed", type=int)

    sp = sub.add_parser("train", help="fit the gap-filling network (or the event detector)")
    common(sp)
    sp.add_argument("--in", dest="inp", required=True)
    sp.add_argument("--masks", help="mask pool file (regression head)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--head", choices=("regression", "detection"), default="regression")
    sp.add_argument("--fill", choices=FILL_METHODS, help="fill for detector training series")
    sp.add_argument("--model", help="gap-filling model for --fill sf")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--epochs", type=int)

    sp = sub.add_parser("gapfill", help="fill NDVI gaps in a dataset")
    common(sp)
    sp.add_argument("--in", dest="inp", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--method", choices=("linear", "akima", "quadratic", "sf"))
    sp.add_argument("--model")
    sp.add_argument("--cloud-filter", action="store_true",
                    help="also replace observations flagged as residual cloud (sf only)")

    sp = sub.add_parser("cloudfilter", help="remove observations that sit far below the fused prediction")
    common(sp)
    sp.add_argument("--in", dest="inp", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--threshold", type=float)

    sp = sub.add_parser("detect", help="detect mowing events per parcel")
    common(sp)
    sp.add_argument("--in", dest="inp", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--algo", choices=ALGORITHMS)
    sp.add_argument("--fill", choices=FILL_METHODS)
    sp.add_argument("--model")
    sp.add_argument("--dnn-model")
    sp.add_argument("--raw", action="store_true", help="skip outlier removal")
    sp.add_argument("--cloud-filter", action="store_true")

    sp = sub.add_parser("eval", help="score events against truth, or filled series against truth")
    common(sp)
    sp.add_argument("--pred", required=True, help="events.csv or a filled dataset directory")
    sp.add_argument("--truth", required=True, help="labels/events file or a dataset directory")
    sp.add_argument("--out", required=True)
    sp.add_argument("--tolerance", type=int)
    sp.add_argument("--in", dest="inp", help="dataset for coverage binning (events mode)")
    sp.add_argument("--input", help="pre-fill gappy dataset (series mode, --selector masked)")
    sp.add_argument("--selector", choices=("all", "masked"), default="all")

    sp = sub.add_parser("experiment", help="run one of the evaluation protocols")
    common(sp)
    sp.add_argument("kind", choices=("hidden", "ablation", "generalization"))
    sp.add_argument("--in", dest="inp", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--masks")
    sp.add_argument("--model")
    sp.add_argument("--fill", choices=FILL_METHODS)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--subsets", help="ablation: comma-separated group unions, e.g. 'ndvi+sigma0,sigma0'")
    sp.add_argument("--eval-regions", help="generalization: comma-separated held-out region ids")
    sp.add_argument("--train-subsets", help="generalization: semicolon-separated region lists")
    sp.add_argument("--from-manifest", help="replay the configuration of a previous run")

    return p


_HANDLERS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "mask": _cmd_mask,
    "train": _cmd_train,
    "gapfill": _cmd_gapfill,
    "cloudfilter": _cmd_cloudfilter,
    "detect": _cmd_detect,
    "eval": _cmd_eval,
    "experiment": _cmd_experiment,
}


def _resolve_config(args) -> RunConfig:
    if getattr(args, "from_manifest", None):
        manifest = read_manifest(args.from_manifest)
        return RunConfig.from_dict(manifest["config"])
    config = load_config(getattr(args, "config", None))
    cmd = args.command
    if cmd == "synth":
        config = _override(
            config, "synth",
            n_parcels=args.parcels,
            pixels_per_parcel=args.pixels_per_parcel,
            n_regions=args.regions,
            seed=args.seed,
            cirrus_rate=args.cirrus_rate,
        )
    elif cmd == "train":
        config = _override(config, "train", seed=args.seed, max_epochs=args.epochs)
    elif cmd in ("mask", "experiment"):
        config = _override(config, "pipeline", seed=getattr(args, "seed", None))
    if getattr(args, "fill", None):
        config = _override(config, "pipeline", fill_method=args.fill)
    if getattr(args, "algo", None):
        config = _override(config, "pipeline", algorithm=args.algo)
    if getattr(args, "tolerance", None) is not None:
        config = _override(config, "pipeline", tolerance_days=args.tolerance)
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    run = None
    try:
        config = _resolve_config(args)
        run = _Run(args.command, raw_argv, config)
        _HANDLERS[args.command](args, config, run)
        return 0
    except (ValueError, OSError) as e:
        if run is not None:
            run.cleanup()
        print(f"gapfuse: error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports and exits
        if run is not None:
            run.cleanup()
        print(f"gapfuse: runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
