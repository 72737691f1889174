"""Gap-filling metrics, tolerance-windowed event matching, coverage-binned
reports, and the three experiment protocols (hidden events, input-feature
ablation, cross-region generalization)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloudsim import MaskPool
from .core import Dataset
from .detect import EventSet, Mda1Params, Mda2Params, mda1, mda2, parcel_block
from .interp import MIN_KNOTS_AKIMA
from .preprocess import DensityCriteria, OutlierParams
from .sfmodel import (
    SfArchitecture,
    SfModel,
    TrainConfig,
    TrainingSet,
    assemble_training_set,
    fill_batch,
    sar_group_channels,
    train,
)


def mae(pred: np.ndarray, truth: np.ndarray, select: np.ndarray | None = None) -> float:
    """Mean absolute error over the selected steps (all when select=None)."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must share one shape")
    if select is None:
        select = np.ones(pred.shape, dtype=bool)
    select = np.asarray(select, dtype=bool)
    if not np.any(select):
        raise ValueError("empty selection")
    return float(np.mean(np.abs(pred[select] - truth[select])))


def r_squared(pred: np.ndarray, truth: np.ndarray, select: np.ndarray | None = None) -> float:
    """Coefficient of determination pooled over the selected values."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must share one shape")
    if select is None:
        select = np.ones(pred.shape, dtype=bool)
    select = np.asarray(select, dtype=bool)
    y = truth[select]
    yhat = pred[select]
    if y.size < 2:
        raise ValueError("need at least two selected values")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("zero variance in the selected truth values")
    ss_res = float(np.sum((y - yhat) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class MatchResult:
    true_positive: int
    false_positive: int
    false_negative: int
    matched_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.true_positive != len(self.matched_pairs):
            raise ValueError("TP count must equal the number of matched pairs")

    def __add__(self, other: "MatchResult") -> "MatchResult":
        return MatchResult(
            self.true_positive + other.true_positive,
            self.false_positive + other.false_positive,
            self.false_negative + other.false_negative,
            self.matched_pairs + other.matched_pairs,
        )


def _event_doys(events) -> list[int]:
    if isinstance(events, EventSet):
        return list(events.doys)
    return [int(e) for e in events]


def match_events(predicted, truth, tolerance_days: int = 12) -> MatchResult:
    """Maximum-cardinality one-to-one matching within the day tolerance.

    Sorted greedy: walking the truths in ascending order and giving each the
    earliest unmatched prediction inside its window is optimal for interval
    structures like this one (verified against brute force in the tests).
    """
    if tolerance_days < 0:
        raise ValueError("tolerance must be >= 0")
    preds = sorted(_event_doys(predicted))
    truths = sorted(_event_doys(truth))
    pairs: list[tuple[int, int]] = []
    i = 0
    for t in truths:
        while i < len(preds) and preds[i] < t - tolerance_days:
            i += 1
        if i < len(preds) and preds[i] <= t + tolerance_days:
            pairs.append((preds[i], t))
            i += 1
    tp = len(pairs)
    return MatchResult(tp, len(preds) - tp, len(truths) - tp, tuple(pairs))


def prf(match: MatchResult) -> tuple[float, float, float]:
    """(recall, precision, f1); empty sides count as perfect by convention."""
    tp, fp, fn = match.true_positive, match.false_positive, match.false_negative
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return recall, precision, f1


@dataclass(frozen=True)
class CoverageBins:
    """Four bins around the coverage sample's mean and standard deviation."""

    mu: float
    sigma: float

    @staticmethod
    def from_sample(coverages: np.ndarray) -> "CoverageBins":
        c = np.asarray(coverages, dtype=np.float64)
        if c.size == 0:
            raise ValueError("empty coverage sample")
        return CoverageBins(mu=float(c.mean()), sigma=max(float(c.std()), 1e-9))

    @property
    def edges(self) -> tuple[float, float, float]:
        return (self.mu - self.sigma, self.mu, self.mu + self.sigma)

    def bin_index(self, coverage: float) -> int:
        lo, mid, hi = self.edges
        if coverage < lo:
            return 0
        if coverage < mid:
            return 1
        if coverage < hi:
            return 2
        return 3


@dataclass(frozen=True)
class BinRow:
    bin_index: int
    n_parcels: int
    true_positive: int
    false_positive: int
    false_negative: int
    recall: float
    precision: float
    f1: float


@dataclass(frozen=True)
class BinnedReport:
    bins: CoverageBins
    rows: tuple[BinRow, ...]


def binned_report(
    results: dict[int, MatchResult], coverages: dict[int, float]
) -> BinnedReport:
    """Aggregate per-parcel match results into the four coverage bins."""
    if not results:
        raise ValueError("no results to bin")
    missing = set(results) - set(coverages)
    if missing:
        raise ValueError(f"missing coverages for parcels {sorted(missing)[:5]}")
    bins = CoverageBins.from_sample(np.asarray([coverages[p] for p in results]))
    rows = []
    for b in range(4):
        members = [p for p in results if bins.bin_index(coverages[p]) == b]
        agg = MatchResult(0, 0, 0)
        for p in members:
            agg = agg + results[p]
        recall, precision, f1 = prf(agg)
        rows.append(
            BinRow(
                bin_index=b,
                n_parcels=len(members),
                true_positive=agg.true_positive,
                false_positive=agg.false_positive,
                false_negative=agg.false_negative,
                recall=recall,
                precision=precision,
                f1=f1,
            )
        )
    return BinnedReport(bins=bins, rows=tuple(rows))


def subset_dataset(dataset: Dataset, parcel_ids) -> Dataset:
    """A dataset restricted to the given parcels (labels carried along)."""
    wanted = set(int(p) for p in parcel_ids)
    unknown = wanted - set(dataset.parcel_ids)
    if unknown:
        raise ValueError(f"unknown parcels {sorted(unknown)[:5]}")
    return dataset.select(np.isin(dataset.pixel_parcel_ids, list(wanted)))


def split_parcels(
    dataset: Dataset, test_fraction: float, seed: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic (train_parcels, test_parcels) split."""
    parcels = np.asarray(dataset.parcel_ids)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(parcels)
    n_test = max(int(round(test_fraction * parcels.size)), 1)
    return tuple(sorted(perm[n_test:].tolist())), tuple(sorted(perm[:n_test].tolist()))


GAPFILL_METHODS = ("sf", "akima", "linear", "quadratic")


@dataclass(frozen=True)
class GapfillReport:
    """Masked-step accuracy of each fill method on a common pixel set."""

    methods: tuple[str, ...]
    mean_mae: dict[str, float]
    r2: dict[str, float]
    per_pixel_mae: dict[str, tuple[float, ...]]
    n_pixels: int
    mask_coverage_mean: float


def gapfill_eval(
    training: TrainingSet,
    model: SfModel | None,
    methods: tuple[str, ...] = GAPFILL_METHODS,
) -> GapfillReport:
    """Compare fill methods at the hidden steps of an assembled set.

    A pixel enters the comparison only when every requested method can run
    on it (enough visible observations) and it has at least one hidden
    step; the truth at hidden steps is the original observation."""
    unknown = set(methods) - set(GAPFILL_METHODS)
    if unknown:
        raise ValueError(f"unknown methods {sorted(unknown)}")
    grid = training.grid
    hidden = training.weight_class == 2
    visible_counts = np.sum(~np.isnan(training.ndvi_in), axis=1)
    eligible = (hidden.any(axis=1)) & (visible_counts >= MIN_KNOTS_AKIMA)
    idx = np.flatnonzero(eligible)
    if idx.size == 0:
        raise ValueError("no pixels with hidden steps to evaluate")

    fills = {m: fill_batch(training.ndvi_in[idx], grid, m, model, training.sar[idx])[0] for m in methods}

    truth = training.target[idx]
    sel = hidden[idx]
    per_pixel: dict[str, tuple[float, ...]] = {}
    mean_mae: dict[str, float] = {}
    r2: dict[str, float] = {}
    for m in methods:
        errs = np.abs(fills[m] - truth)
        pp = np.asarray([float(np.mean(errs[k][sel[k]])) for k in range(idx.size)])
        per_pixel[m] = tuple(pp.tolist())
        mean_mae[m] = float(pp.mean())
        r2[m] = r_squared(fills[m], truth, sel)
    return GapfillReport(
        methods=tuple(methods),
        mean_mae=mean_mae,
        r2=r2,
        per_pixel_mae=per_pixel,
        n_pixels=int(idx.size),
        mask_coverage_mean=float(np.mean(training.mask_coverages[idx])),
    )


@dataclass(frozen=True)
class HiddenEventRecord:
    parcel_id: int
    event_doy: int
    gap_start_step: int
    gap_length: int
    detected_doys: tuple[int, ...]


@dataclass(frozen=True)
class HiddenEventReport:
    fill_method: str
    tolerance_recall: tuple[float, ...]  # recall at tolerances 0..max
    recall: float
    precision: float
    f1: float
    n_parcels: int
    seed: int
    records: tuple[HiddenEventRecord, ...] = field(repr=False)


def hidden_event_experiment(
    dataset: Dataset,
    fill_method: str,
    model: SfModel | None = None,
    detector: str = "mda1",
    seed: int = 0,
    tolerance_max: int = 12,
    gap_lengths: tuple[int, ...] = (3, 4, 5, 6, 7),
    mda1_params: Mda1Params = Mda1Params(),
    mda2_params: Mda2Params = Mda2Params(),
) -> HiddenEventReport:
    """Hide each single-mow event under a multi-step gap, fill, detect.

    The gap starts at the last grid step before the event and spans a
    seeded uniform choice of `gap_lengths` consecutive steps; detection
    runs on the parcel aggregate and is scored at tolerances 0..max."""
    if detector not in ("mda1", "mda2"):
        raise ValueError(f"the hidden-event experiment detects with mda1 or mda2, not {detector!r}")
    if detector == "mda2" and fill_method == "none":
        raise ValueError("the envelope detector needs a continuous series; pick a fill")
    grid = dataset.grid

    def run_detector(series: np.ndarray) -> EventSet:
        if detector == "mda1":
            return mda1(series, grid, mda1_params)
        return mda2(series, grid, mda2_params)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    eligible = [p for p in sorted(dataset.labels) if len(dataset.labels[p].event_doys) == 1]
    hidden: list[tuple[int, int, int, int]] = []
    for pid in eligible:
        e = dataset.labels[pid].event_doys[0]
        before = np.flatnonzero(grid.doys < e)
        if before.size == 0:
            continue
        g0 = int(before[-1])
        length = int(rng.choice(np.asarray(gap_lengths)))
        hidden.append((pid, e, g0, min(length, grid.length - g0)))
    if not hidden:
        raise ValueError("no eligible single-event parcels")
    ndvi, sar = parcel_block(dataset, [h[0] for h in hidden])
    for row, (_, _, g0, length) in zip(ndvi, hidden):
        row[g0:g0 + length] = np.nan
    filled, _ = fill_batch(ndvi, grid, fill_method, model, sar)
    records = [HiddenEventRecord(*h, run_detector(row).doys) for h, row in zip(hidden, filled)]

    def aggregate(tol: int) -> MatchResult:
        agg = MatchResult(0, 0, 0)
        for rec in records:
            agg = agg + match_events(rec.detected_doys, [rec.event_doy], tol)
        return agg

    curve = []
    for tol in range(tolerance_max + 1):
        recall, _, _ = prf(aggregate(tol))
        curve.append(recall)
    recall, precision, f1 = prf(aggregate(tolerance_max))
    return HiddenEventReport(
        fill_method=fill_method,
        tolerance_recall=tuple(curve),
        recall=recall,
        precision=precision,
        f1=f1,
        n_parcels=len(records),
        seed=seed,
        records=tuple(records),
    )


@dataclass(frozen=True)
class AblationRow:
    groups: tuple[str, ...]
    channels: tuple[str, ...]
    mean_mae: float
    r2: float


@dataclass(frozen=True)
class AblationReport:
    rows: tuple[AblationRow, ...]
    n_eval_pixels: int
    seed: int


def ablation_experiment(
    dataset: Dataset,
    pools: dict[int, MaskPool],
    subsets: tuple[tuple[str, ...], ...],
    config: TrainConfig = TrainConfig(),
    test_fraction: float = 0.2,
    outlier: OutlierParams = OutlierParams(),
    density: DensityCriteria = DensityCriteria(),
) -> AblationReport:
    """Train one model per feature subset under identical seeds and compare
    masked-step MAE/R2 on a common held-out parcel split."""
    if not subsets:
        raise ValueError("need at least one feature subset")
    train_parcels, test_parcels = split_parcels(dataset, test_fraction, config.seed)
    train_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    training = assemble_training_set(
        subset_dataset(dataset, train_parcels), pools, train_rng, outlier, density
    )
    eval_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 2)))
    evaluation = assemble_training_set(
        subset_dataset(dataset, test_parcels), pools, eval_rng, outlier, density
    )
    rows = []
    n_eval = 0
    for groups in subsets:
        channels = sar_group_channels(groups)
        if not channels:
            raise ValueError("empty feature subset")
        arch = SfArchitecture(channels=channels)
        model, _ = train(training, config, arch)
        report = gapfill_eval(evaluation, model, methods=("sf",))
        n_eval = report.n_pixels
        rows.append(
            AblationRow(
                groups=tuple(groups),
                channels=channels,
                mean_mae=report.mean_mae["sf"],
                r2=report.r2["sf"],
            )
        )
    return AblationReport(rows=tuple(rows), n_eval_pixels=n_eval, seed=config.seed)


@dataclass(frozen=True)
class GeneralizationRow:
    train_regions: tuple[int, ...]
    n_regions: int
    n_train_pixels: int
    mean_mae: float


@dataclass(frozen=True)
class GeneralizationReport:
    eval_regions: tuple[int, ...]
    rows: tuple[GeneralizationRow, ...]
    seed: int


def generalization_experiment(
    dataset: Dataset,
    pools: dict[int, MaskPool],
    train_region_subsets: tuple[tuple[int, ...], ...],
    eval_regions: tuple[int, ...],
    config: TrainConfig = TrainConfig(),
    outlier: OutlierParams = OutlierParams(),
    density: DensityCriteria = DensityCriteria(),
) -> GeneralizationReport:
    """Train on region subsets, evaluate masked-step MAE on fixed held-out
    regions that never appear in any training subset."""
    regions = np.unique(dataset.pixel_region_ids).tolist()
    if len(regions) < 2:
        raise ValueError("need at least two regions")
    eval_set = set(eval_regions)
    for subset in train_region_subsets:
        if not subset:
            raise ValueError("empty region subset")
        if set(subset) & eval_set:
            raise ValueError("training subsets must not touch the evaluation regions")
        if not set(subset) <= set(regions):
            raise ValueError("unknown region in subset")
    parcel_regions = list(zip(dataset.parcel_ids, dataset.parcel_region_ids))
    eval_parcels = [p for p, r in parcel_regions if r in eval_set]
    eval_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 3)))
    evaluation = assemble_training_set(
        subset_dataset(dataset, eval_parcels), pools, eval_rng, outlier, density
    )
    rows = []
    for subset in train_region_subsets:
        sub_parcels = [p for p, r in parcel_regions if r in set(subset)]
        train_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 4)))
        training = assemble_training_set(
            subset_dataset(dataset, sub_parcels), pools, train_rng, outlier, density
        )
        model, _ = train(training, config)
        report = gapfill_eval(evaluation, model, methods=("sf",))
        rows.append(
            GeneralizationRow(
                train_regions=tuple(sorted(subset)),
                n_regions=len(set(subset)),
                n_train_pixels=training.n,
                mean_mae=report.mean_mae["sf"],
            )
        )
    return GeneralizationReport(eval_regions=tuple(sorted(eval_set)), rows=tuple(rows), seed=config.seed)
