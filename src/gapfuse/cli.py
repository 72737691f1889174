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
    _csv_file,
    VERSION,
    EVENTS_HEADER,
    LABELS_HEADER,
    FileFormatError,
    RunConfig,
    hash_tree,
    jsonable,
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

    def read_dataset(self, path) -> Dataset:
        """Record the dataset directory `path` as an input and read it."""
        self.record_input(path)
        if not Path(path).is_dir():
            raise FileNotFoundError(f"dataset directory not found: {path}")
        return read_dataset(path)

    def write_json(self, path, obj) -> None:
        """Write `obj` as JSON (see `fileio.write_json`) and record it as an output."""
        write_json(path, obj)
        self.wrote(path)

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


def _cmd_synth(args, config: RunConfig, run: _Run) -> None:
    out = Path(args.out)
    result = synth_dataset(config.synth)
    _write_dataset(run, result.dataset, out)
    write_mask_pools(result.pools, out / "masks.csv")
    run.wrote(out / "masks.csv")
    run.write_json(out / "cirrus.json", result.cirrus)
    run.finish(out / "manifest.json")


def _cmd_preprocess(args, config: RunConfig, run: _Run) -> None:
    ds = run.read_dataset(args.inp)
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
    run.write_json(out / "preprocess_report.json", report)
    run.finish(out / "manifest.json")


def _cmd_mask(args, config: RunConfig, run: _Run) -> None:
    ds = run.read_dataset(args.inp)
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
    ds = run.read_dataset(args.inp)
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
    run.write_json(out.with_name(out.stem + ".report.json"), report)
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
    fill = config.pipeline.fill_method
    if fill == "none":
        raise ValueError("detector training needs a continuous series; pick a fill method")
    ndvi, sar = parcel_block(ds, parcels, config.outlier)
    filled, _ = fill_batch(ndvi, ds.grid, fill, _fill_model(args, fill, run), sar)
    labels = np.stack([
        labels_to_binary(ds.labels.get(pid, ParcelLabel(pid)), ds.grid) for pid in parcels
    ])
    return filled, labels


def _cmd_gapfill(args, config: RunConfig, run: _Run) -> None:
    ds = run.read_dataset(args.inp)
    out = Path(args.out)
    method = config.pipeline.fill_method
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
    run.write_json(out / "gapfill_report.json", report)
    run.finish(out / "manifest.json")


def _cmd_cloudfilter(args, config: RunConfig, run: _Run) -> None:
    ds = run.read_dataset(args.inp)
    run.record_input(args.model)
    out = Path(args.out)
    model = load_model(args.model)
    thr = config.pipeline.cloud_filter_threshold
    ndvi = ds.ndvi
    _, flagged = fill_batch(ndvi, ds.grid, "sf", model, ds.sar, thr)
    _write_dataset(run, ds.select(ndvi=np.where(flagged, np.nan, ndvi)), out)
    report = {
        "threshold": thr,
        "n_present_steps": int(np.sum(~np.isnan(ndvi))),
        "n_flagged_steps": int(flagged.sum()),
    }
    run.write_json(out / "cloudfilter_report.json", report)
    run.finish(out / "manifest.json")


def _cmd_detect(args, config: RunConfig, run: _Run) -> None:
    ds = run.read_dataset(args.inp)
    out = Path(args.out)
    algo, fill = config.pipeline.algorithm, config.pipeline.fill_method
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
    with _csv_file(path) as rows:
        _, header = next(rows, (1, None))
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


def _scores(m: MatchResult) -> dict:
    recall, precision, f1 = prf(m)
    return {"tp": m.true_positive, "fp": m.false_positive, "fn": m.false_negative,
            "recall": recall, "precision": precision, "f1": f1}


def _eval_events(args, config: RunConfig, run: _Run, out: Path) -> None:
    run.record_input(args.pred)
    run.record_input(args.truth)
    tol = config.pipeline.tolerance_days
    preds = {pid: es.doys for pid, es in read_events(args.pred).items()}
    truths = _read_truth_events(args.truth)
    parcels = sorted(set(preds) | set(truths))
    results = {pid: match_events(preds.get(pid, ()), truths.get(pid, ()), tol) for pid in parcels}
    per_parcel = {str(pid): _scores(m) for pid, m in results.items()}
    report = {
        "mode": "events",
        "tolerance_days": tol,
        "n_parcels": len(parcels),
        "overall": _scores(sum(results.values(), MatchResult(0, 0, 0))),
        "per_parcel": per_parcel,
    }
    rows = [["parcel", pid, r["tp"], r["fp"], r["fn"], r["f1"]] for pid, r in per_parcel.items()]
    if args.inp is not None:
        coverages = _parcel_cloud_coverage(run.read_dataset(args.inp))
        missing = [p for p in parcels if p not in coverages]
        if missing:
            raise ValueError(f"parcels absent from the coverage dataset: {missing[:5]}")
        binned = binned_report(results, coverages)
        report["bins"] = {**jsonable(binned.bins), "rows": binned.rows}
        rows += [["bin", r.bin_index, r.true_positive, r.false_positive, r.false_negative, r.f1]
                 for r in binned.rows]
    run.write_json(out / "report.json", report)
    write_table_csv(out / "report.csv", ("kind", "key", "tp", "fp", "fn", "f1"), rows)
    run.wrote(out / "report.csv")


def _eval_series(args, config: RunConfig, run: _Run, out: Path) -> None:
    pred_ds = run.read_dataset(args.pred)
    truth_ds = run.read_dataset(args.truth)
    # datasets read from files hold their pixels in ascending id order
    ids, pred, truth = pred_ds.pixel_ids, pred_ds.ndvi, truth_ds.ndvi
    if not np.array_equal(ids, truth_ds.pixel_ids):
        raise ValueError("prediction and truth datasets cover different pixels")
    if args.selector == "masked":
        if args.input is None:
            raise ValueError("--selector masked needs --input (the gappy dataset that was filled)")
        input_ds = run.read_dataset(args.input)
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
    run.write_json(out / "report.json", report)
    header = ("selector", "n_selected", "mae", "r_squared")
    write_table_csv(out / "report.csv", header, [[report[k] for k in header]])
    run.wrote(out / "report.csv")


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
    ds = run.read_dataset(args.inp)
    if args.kind != "hidden":
        if args.masks is None:
            raise ValueError(f"the {args.kind} experiment needs --masks")
        run.record_input(args.masks)
        pools = read_mask_pools(args.masks)
    if args.kind == "hidden":
        fill = config.pipeline.fill_method
        rep = hidden_event_experiment(
            ds, fill, _fill_model(args, fill, run),
            detector=config.pipeline.algorithm if config.pipeline.algorithm in ("mda1", "mda2") else "mda1",
            seed=config.pipeline.seed,
            tolerance_max=config.pipeline.tolerance_days,
            mda1_params=config.mda1,
            mda2_params=config.mda2,
        )
        rows = [[t, rec] for t, rec in enumerate(rep.tolerance_recall)]
        header = ("tolerance_days", "recall")
    elif args.kind == "ablation":
        subsets = _parse_subsets(args.subsets or DEFAULT_ABLATION_SUBSETS)
        rep = ablation_experiment(
            ds, pools, subsets, config.train,
            test_fraction=config.pipeline.test_fraction,
            outlier=config.outlier, density=config.density,
        )
        rows = [["+".join(r.groups), r.mean_mae, r.r2] for r in rep.rows]
        header = ("subset", "mean_mae", "r2")
    else:
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
        rows = [["+".join(str(x) for x in r.train_regions), r.n_regions, r.n_train_pixels, r.mean_mae]
                for r in rep.rows]
        header = ("train_regions", "n_regions", "n_train_pixels", "mean_mae")
    run.write_json(out / "metrics.json", {"experiment": args.kind, **jsonable(rep)})
    write_table_csv(out / "report.csv", header, rows)
    run.wrote(out / "report.csv")
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


# command -> {flag destination: (config section, key)}: the flags that
# override the configuration
_OVERRIDES = {
    "synth": {"parcels": ("synth", "n_parcels"), "pixels_per_parcel": ("synth", "pixels_per_parcel"),
              "regions": ("synth", "n_regions"), "seed": ("synth", "seed"),
              "cirrus_rate": ("synth", "cirrus_rate")},
    "mask": {"seed": ("pipeline", "seed")},
    "train": {"seed": ("train", "seed"), "epochs": ("train", "max_epochs"), "fill": ("pipeline", "fill_method")},
    "gapfill": {"method": ("pipeline", "fill_method")},
    "cloudfilter": {"threshold": ("pipeline", "cloud_filter_threshold")},
    "detect": {"algo": ("pipeline", "algorithm"), "fill": ("pipeline", "fill_method")},
    "eval": {"tolerance": ("pipeline", "tolerance_days")},
    "experiment": {"seed": ("pipeline", "seed"), "fill": ("pipeline", "fill_method")},
}


def _resolve_config(args) -> RunConfig:
    """The replayed manifest's configuration, or else the one `load_config`
    gives, with the command's flags (`_OVERRIDES`) applied on top."""
    if getattr(args, "from_manifest", None):
        config = RunConfig.from_dict(read_manifest(args.from_manifest)["config"])
    else:
        config = load_config(args.config)
    for dest, (section, key) in _OVERRIDES.get(args.command, {}).items():
        value = getattr(args, dest)
        if value is not None:
            config = config.replace_section(section, **{key: value})
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
