"""Mowing-event detectors and parcel-level decision assembly.

Three detectors: a consecutive-drop threshold rule, a peak-envelope
residual rule, and a learned per-step probability model (the fusion
network's NDVI branch with a sigmoid head, trained on binary event series).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import find_peaks

from .core import Dataset, ParcelLabel, TemporalGrid, parcel_aggregates
from .neural import weighted_bce, weighted_bce_grad
from .preprocess import OutlierParams, remove_outliers
from .sfmodel import (
    NormStats,
    SfArchitecture,
    SfModel,
    TrainConfig,
    TrainReport,
    fill_batch,
    fit,
    predict_batch,
    split_rng,
)


@dataclass(frozen=True)
class Mda1Params:
    drop_threshold: float = 0.15

    def __post_init__(self) -> None:
        if self.drop_threshold <= 0:
            raise ValueError("drop_threshold must be positive")


@dataclass(frozen=True)
class Mda2Params:
    residual_threshold: float = 0.15
    peak_min_prominence: float = 0.05

    def __post_init__(self) -> None:
        if self.residual_threshold <= 0 or self.peak_min_prominence <= 0:
            raise ValueError("thresholds must be positive")


@dataclass(frozen=True)
class Event:
    doy: int
    score: float = 1.0


@dataclass(frozen=True)
class EventSet:
    parcel_id: int
    events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(sorted(self.events, key=lambda e: e.doy)))

    @property
    def doys(self) -> tuple[int, ...]:
        return tuple(e.doy for e in self.events)


def mda1(series: np.ndarray, grid: TemporalGrid, params: Mda1Params = Mda1Params()) -> EventSet:
    """Threshold rule on drops between consecutive PRESENT observations.

    An event fires at the lower point of any drop >= drop_threshold; a run
    of back-to-back qualifying drops along one continuous decline collapses
    into a single event dated at its first qualifying step.
    """
    series = np.asarray(series, dtype=np.float64)
    present = np.flatnonzero(~np.isnan(series))
    events: list[Event] = []
    prev_qualifying = -2  # present-sequence position of the last qualifying step
    for k in range(1, present.size):
        drop = series[present[k - 1]] - series[present[k]]
        if drop >= params.drop_threshold:
            if k - 1 == prev_qualifying:
                # continuation of the same decline: keep the first date,
                # growing its score by the additional fall
                old = events[-1]
                events[-1] = Event(old.doy, old.score + float(drop))
            else:
                events.append(Event(int(grid.doy(int(present[k]))), float(drop)))
            prev_qualifying = k
    return EventSet(parcel_id=-1, events=tuple(events))


def envelope_knots(series: np.ndarray, params: Mda2Params) -> np.ndarray:
    """Indices of the ideal-season envelope knots: prominent local maxima,
    always the global maximum, and both series endpoints."""
    series = np.asarray(series, dtype=np.float64)
    peaks, _ = find_peaks(series, prominence=params.peak_min_prominence)
    knots = set(int(p) for p in peaks)
    knots.add(int(np.argmax(series)))
    knots.add(0)
    knots.add(series.size - 1)
    return np.asarray(sorted(knots), dtype=np.int64)


def mda2(series: np.ndarray, grid: TemporalGrid, params: Mda2Params = Mda2Params()) -> EventSet:
    """Peak-envelope residual rule on a fully-present series.

    The ideal-season curve interpolates linearly between envelope knots;
    an event fires at the first step of each excursion where
    envelope - series >= residual_threshold.
    """
    series = np.asarray(series, dtype=np.float64)
    if np.isnan(series).any():
        raise ValueError("series must be fully present; fill gaps first")
    doys = grid.doys.astype(np.float64)
    knots = envelope_knots(series, params)
    env = np.interp(doys, doys[knots], series[knots])
    residual = env - series
    above = residual >= params.residual_threshold
    events: list[Event] = []
    for t in range(series.size):
        if above[t] and (t == 0 or not above[t - 1]):
            run_end = t
            while run_end + 1 < series.size and above[run_end + 1]:
                run_end += 1
            score = float(np.max(residual[t:run_end + 1]))
            events.append(Event(int(grid.doy(t)), score))
    return EventSet(parcel_id=-1, events=tuple(events))


def labels_to_binary(label: ParcelLabel, grid: TemporalGrid) -> np.ndarray:
    """Length-T 0/1 vector with a 1 at the grid step nearest each event."""
    out = np.zeros(grid.length, dtype=np.int8)
    for doy in label.event_doys:
        idx = grid.nearest_index(doy)
        if out[idx]:
            raise ValueError(f"two events of parcel {label.parcel_id} collapse onto step {idx}")
        out[idx] = 1
    return out


def decode_probabilities(
    probs: np.ndarray, grid: TemporalGrid, decode_threshold: float = 0.5
) -> tuple[Event, ...]:
    """Local probability maxima >= threshold; of maxima within two steps of
    each other, only the most probable is kept."""
    probs = np.asarray(probs, dtype=np.float64)
    t = probs.size
    candidates = []
    for i in range(t):
        if probs[i] < decode_threshold:
            continue
        left = probs[i - 1] if i > 0 else -np.inf
        right = probs[i + 1] if i < t - 1 else -np.inf
        if probs[i] >= left and probs[i] >= right:
            candidates.append(i)
    kept: list[int] = []
    for i in sorted(candidates, key=lambda j: (-probs[j], j)):
        if all(abs(i - j) > 2 for j in kept):
            kept.append(i)
    return tuple(Event(int(grid.doy(i)), float(probs[i])) for i in sorted(kept))


def dnn_predict(model: SfModel, series: np.ndarray) -> np.ndarray:
    """Per-step event probabilities for fully-present series (N, T) or (T,)
    on the grid the detector was trained on."""
    series = np.asarray(series, dtype=np.float64)
    single = series.ndim == 1
    rows = series[None, :] if single else series
    if np.isnan(rows).any():
        raise ValueError("detector input must be fully present; fill gaps first")
    sar = np.zeros((rows.shape[0], rows.shape[1], 8))
    probs = predict_batch(model, rows, sar)
    return probs[0] if single else probs


def dnn_detect(
    model: SfModel,
    series: np.ndarray,
    grid: TemporalGrid,
    decode_threshold: float = 0.5,
) -> tuple[EventSet, np.ndarray]:
    """Decode events from the detector's probability series."""
    probs = dnn_predict(model, series)
    return EventSet(parcel_id=-1, events=decode_probabilities(probs, grid, decode_threshold)), probs


def train_dnn_detector(
    series: np.ndarray,
    labels: np.ndarray,
    grid: TemporalGrid,
    config: TrainConfig = TrainConfig(),
) -> tuple[SfModel, TrainReport]:
    """Train the NDVI-only sigmoid-head variant on binary event series.

    Loss is per-step binary cross-entropy with the positive class weighted
    by (#negatives / #positives) of the training split.  The validation
    split holds whole series; `fit` runs the epochs, so early stopping and
    determinism are the regression trainer's.
    """
    series = np.asarray(series, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if series.shape != labels.shape:
        raise ValueError("series and labels must share one shape")
    if np.isnan(series).any():
        raise ValueError("detector training series must be fully present")
    arch = SfArchitecture(channels=("ndvi",), head="detection")
    n = series.shape[0]
    perm = split_rng(config.seed).permutation(n)
    n_val = int(round(config.validation_fraction * n))
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation split left no training samples")

    pos = float(np.sum(labels[train_idx]))
    neg = float(labels[train_idx].size - pos)
    if pos == 0:
        raise ValueError("no positive steps in the training labels")
    pos_weight = neg / pos
    net, report = fit(arch, series[:, :, None].astype(np.float32), np.ones(series.shape, dtype=np.float32),
                      labels, np.where(labels > 0.5, pos_weight, 1.0), weighted_bce, weighted_bce_grad,
                      train_idx, val_idx, config)
    # the NDVI-only network has no radar channels to z-score
    stats = NormStats.from_sar(np.zeros(series.shape + (0,)), arch.sar_channels)
    model = SfModel(arch=arch, stats=stats, grid=grid, net=net)
    return model, replace(report, pos_weight=pos_weight)


ALGORITHMS = ("mda1", "mda2", "dnn")


def parcel_block(
    dataset: Dataset, parcel_ids, outlier: OutlierParams | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(N, T) NDVI and (N, T, 8) radar stacks of parcel aggregates; `outlier`
    (when given) removes downward spikes from the NDVI."""
    ndvi, sar = parcel_aggregates(dataset, parcel_ids)
    if outlier is not None:
        ndvi = remove_outliers(ndvi, dataset.grid, outlier)
    return ndvi, sar


def detect_parcels(
    dataset: Dataset,
    parcel_ids,
    algorithm: str,
    fill_method: str = "none",
    model: SfModel | None = None,
    dnn_model: SfModel | None = None,
    mda1_params: Mda1Params = Mda1Params(),
    mda2_params: Mda2Params = Mda2Params(),
    decode_threshold: float = 0.5,
    outlier: OutlierParams | None = None,
    cloud_filter_threshold: float | None = None,
) -> list[EventSet]:
    """Aggregate parcels, optionally clean/fill their series, run a detector
    on each; one EventSet per parcel, in `parcel_ids` order.

    The parcels are aggregated, filled and (for `dnn`) scored together, as
    one block.  `outlier` (when given) removes downward spikes before
    filling; `cloud_filter_threshold` additionally replaces suspect
    observations with the fusion model's prediction (sf fill only).  A
    series with too few observations for an interpolator stays unfilled.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    parcel_ids = list(parcel_ids)
    grid = dataset.grid
    ndvi, sar = parcel_block(dataset, parcel_ids, outlier)
    filled, _ = fill_batch(ndvi, grid, fill_method, model, sar, cloud_filter_threshold)
    if algorithm == "mda1":
        found = [mda1(row, grid, mda1_params).events for row in filled]
    elif algorithm == "mda2":
        found = [mda2(row, grid, mda2_params).events for row in filled]
    else:
        if dnn_model is None:
            raise ValueError("dnn detection needs a trained detector model")
        found = [decode_probabilities(p, grid, decode_threshold) for p in dnn_predict(dnn_model, filled)]
    return [EventSet(parcel_id=pid, events=events) for pid, events in zip(parcel_ids, found)]


# kept because perfbench/tracer.py wraps this name; it goes with ROADMAP item 7
def detect_parcel(dataset: Dataset, parcel_id: int, *args, **kwargs) -> EventSet:
    """`detect_parcels` for one parcel; the other arguments are its."""
    return detect_parcels(dataset, [parcel_id], *args, **kwargs)[0]


# kept because perfbench/tracer.py wraps this name; it goes with ROADMAP item 7
def parcel_fill_batch(
    dataset: Dataset,
    parcel_ids: list[int],
    model: SfModel,
    outlier: OutlierParams | None = None,
    cloud_filter_threshold: float | None = None,
) -> dict[int, np.ndarray]:
    """Fusion-fill many parcel aggregates in one batched forward pass."""
    ndvi, sar = parcel_block(dataset, parcel_ids, outlier)
    filled, _ = fill_batch(ndvi, dataset.grid, "sf", model, sar, cloud_filter_threshold)
    return dict(zip(parcel_ids, filled))
