"""Core data model: the 6-day temporal grid and the containers built on it.

Everything downstream (interpolation, training, detection, evaluation)
operates on these types.  All time series live on a shared integer grid of
day-of-year stamps; optical values use NaN for absent observations so that
presence is a property of the data, not a side table.  A `Dataset` holds its
pixels as columns (id arrays, an (N, T) NDVI block and an (N, T, 8) radar
block); `PixelSeries` is the one-pixel form, a read-only view of one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

# Channel order is part of the model contract: the NDVI channel is always
# index 0 and the eight radar-derived channels follow in this order.
NDVI_CHANNEL = "ndvi"
SAR_CHANNELS: tuple[str, ...] = (
    "sigma0_vv_db",
    "sigma0_vh_db",
    "coh_vv",
    "coh_vh",
    "sigma0_ratio",
    "sigma0_cross_ratio_db",
    "mixed_coherence",
    "rvi",
)
CHANNELS: tuple[str, ...] = (NDVI_CHANNEL,) + SAR_CHANNELS


# float64 values of at least this magnitude round to an infinite float32
_FLOAT32_LIMIT = 2.0 ** 128 - 2.0 ** 103

# the radar channels that must lie in [0, 1], as indices into SAR_CHANNELS
_UNIT_RANGE_ROWS = [SAR_CHANNELS.index(c) for c in ("coh_vv", "coh_vh", "mixed_coherence")]

_NDVI_RANGE_MESSAGE = "ndvi values must lie in [-1, 1]"


def _raise_first(checks: list[tuple[np.ndarray, Callable[[int], str]]]) -> None:
    """Raise the ValueError of the first row that fails any check, naming
    the first check (in list order) that this row fails; a check is the
    (N,) mask of its failing rows and the message of a row."""
    failing = np.logical_or.reduce([mask for mask, _ in checks])
    if failing.any():
        i = int(np.argmax(failing))
        for mask, message in checks:
            if mask[i]:
                raise ValueError(message(i))


def finite_in_float32(a: np.ndarray) -> np.ndarray:
    """Where float64 values stay finite in float32, the model's dtype; one
    pass, since NaN fails both comparisons."""
    return (a < _FLOAT32_LIMIT) & (a > -_FLOAT32_LIMIT)


def _radar_checks(sar: np.ndarray) -> list:
    """Rows of an (N, T, 8) radar block with a NaN or a value that is not
    finite in float32 (the model's dtype), then rows with a coherence
    channel outside [0, 1]; each names the first bad channel, a NaN first."""
    bad = ~finite_in_float32(sar).all(axis=1)
    bounded = sar[:, :, _UNIT_RANGE_ROWS]
    outside = ((bounded < 0.0) | (bounded > 1.0)).any(axis=1)
    unit_range = [SAR_CHANNELS[c] for c in _UNIT_RANGE_ROWS]

    def bad_message(i: int) -> str:
        nan = np.isnan(sar[i]).any(axis=0)
        if nan.any():
            return f"channel {SAR_CHANNELS[int(np.argmax(nan))]} contains NaN"
        return f"channel {SAR_CHANNELS[int(np.argmax(bad[i]))]} holds a value that is not finite in float32"

    return [
        (bad.any(axis=1), bad_message),
        (outside.any(axis=1), lambda i: f"channel {unit_range[int(np.argmax(outside[i]))]} must lie in [0, 1]"),
    ]


def _id_column(values) -> np.ndarray:
    """Integer ids as an int64 array, or as Python ints in an object array
    when one lies outside int64."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iuO":
        raise ValueError(f"ids must be integers, got dtype {arr.dtype}")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TemporalGrid:
    """Evenly spaced day-of-year grid.

    The default covers day 100 through day 268 of a season in 6-day steps
    (29 steps).  Day-of-year values are plain integers; leap years are the
    caller's concern when converting to calendar dates.
    """

    start_doy: int = 100
    step_days: int = 6
    length: int = 29

    def __post_init__(self) -> None:
        if self.step_days <= 0:
            raise ValueError("step_days must be positive")
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.start_doy < 1:
            raise ValueError("start_doy must be >= 1")

    @property
    def doys(self) -> np.ndarray:
        """All grid day-of-year stamps as an int array of shape (length,)."""
        return self.start_doy + self.step_days * np.arange(self.length)

    def doy(self, index: int) -> int:
        """Day-of-year at a grid index; raises IndexError out of range."""
        if not 0 <= index < self.length:
            raise IndexError(f"grid index {index} out of range [0, {self.length})")
        return self.start_doy + self.step_days * index

    def nearest_index(self, doy: float) -> int:
        """Index of the grid step nearest to `doy`.

        Ties between two equally near steps resolve to the earlier one.
        """
        raw = (doy - self.start_doy) / self.step_days
        idx = int(np.floor(raw + 0.5))
        # floor(x+.5) rounds half up, i.e. toward the later step; a tie must
        # go to the earlier step instead, so step back when exactly halfway.
        if (raw - np.floor(raw)) == 0.5 and idx > 0:
            idx -= 1
        return min(max(idx, 0), self.length - 1)


@dataclass(frozen=True)
class PixelSeries:
    """One pixel's season: NDVI plus the radar channels, all on the grid.

    `ndvi` uses NaN at steps with no usable optical observation.  Radar
    channels are gap-free by construction (they come from weather-independent
    acquisitions) and must not contain NaN.  Arrays are copied and frozen, and
    `sar` becomes a read-only mapping, so a series can be shared without
    defensive copying.
    """

    pixel_id: int
    parcel_id: int
    region_id: int
    ndvi: np.ndarray
    sar: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        ndvi = _frozen(np.array(self.ndvi, dtype=np.float64))
        if ndvi.ndim != 1:
            raise ValueError("ndvi must be 1-D")
        # NaN compares false, so absent steps pass
        if (np.abs(ndvi) > 1.0).any():
            raise ValueError(_NDVI_RANGE_MESSAGE)
        object.__setattr__(self, "ndvi", ndvi)
        n = ndvi.shape[0]
        if set(self.sar) != set(SAR_CHANNELS):
            missing = set(SAR_CHANNELS) - set(self.sar)
            extra = set(self.sar) - set(SAR_CHANNELS)
            raise ValueError(f"sar channels mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name in SAR_CHANNELS:
            shape = np.shape(self.sar[name])
            if shape != (n,):
                raise ValueError(f"channel {name} length {shape} != ndvi length {n}")
        # one (8, n) copy holds every channel; the checks run on the block
        block = np.array([self.sar[name] for name in SAR_CHANNELS], dtype=np.float64)
        _raise_first(_radar_checks(block.T[None]))
        object.__setattr__(self, "sar", MappingProxyType(dict(zip(SAR_CHANNELS, _frozen(block)))))

    @classmethod
    def _view(cls, pixel_id: int, parcel_id: int, region_id: int, ndvi: np.ndarray,
              sar: np.ndarray) -> "PixelSeries":
        """A series over checked read-only rows, shared rather than copied:
        `ndvi` (T,) and `sar` (T, 8) in SAR_CHANNELS order."""
        out = object.__new__(cls)
        out.__dict__.update(pixel_id=pixel_id, parcel_id=parcel_id, region_id=region_id, ndvi=ndvi,
                            sar=MappingProxyType(dict(zip(SAR_CHANNELS, sar.T))))
        return out


@dataclass(frozen=True)
class CloudMask:
    """Per-step cloud indicator for one season; True marks a clouded step."""

    mask_id: int
    region_id: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=bool).copy()
        if bits.ndim != 1:
            raise ValueError("bits must be 1-D")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @property
    def coverage(self) -> float:
        """Fraction of steps clouded."""
        return float(np.mean(self.bits))


@dataclass(frozen=True)
class ParcelLabel:
    """Reference mowing dates for one parcel (empty tuple = unmown)."""

    parcel_id: int
    event_doys: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "event_doys", tuple(sorted(int(d) for d in self.event_doys)))


class Dataset:
    """Pixels grouped into parcels, plus optional parcel labels, held as
    columns.

    Row i is pixel `pixel_ids[i]` of parcel `pixel_parcel_ids[i]` in region
    `pixel_region_ids[i]`, with NDVI `ndvi[i]` (T,), NaN at absent steps,
    and radar `sar[i]` (T, 8) in SAR_CHANNELS order.  Every array is
    read-only and rows keep construction order.  The parcel grouping is
    computed once, at construction: `parcel_ids` ascending, with
    `parcel_sizes` and `parcel_region_ids` (the region of a parcel's first
    pixel) in that order, and `parcel_order`, the rows grouped by parcel in
    that order and kept in construction order within a parcel.  `pixels`
    views the rows as PixelSeries.  `select` derives a dataset from
    another.

    `source` is what `fileio.read_dataset` records of the dataset.csv the
    rows were read from, when `fileio.write_dataset` can copy that file's
    text for every cell the rows leave unchanged; None for a dataset built
    in memory.  It holds the file's arrays as read, never a dataset.
    """

    def __init__(self, grid: TemporalGrid, pixel_ids, parcel_ids, region_ids, ndvi, sar,
                 labels: Mapping[int, ParcelLabel] | None = None):
        """A dataset of N pixels given as columns: three (N,) integer id
        arrays, the (N, T) NDVI block and the (N, T, 8) radar block.

        Every row is checked (NDVI range, radar values finite in float32
        and coherences in [0, 1]), then the dataset (unique pixel ids,
        labels of known parcels); the error names the first failing row.
        The blocks are taken over, not copied, when they already are
        C-ordered float64 arrays: they are then made read-only in place,
        and must not be written through another view."""
        ndvi, sar = (np.ascontiguousarray(a, dtype=np.float64) for a in (ndvi, sar))
        n = ndvi.shape[0] if ndvi.ndim == 2 else -1
        if ndvi.shape != (n, grid.length):
            raise ValueError(f"ndvi block shape {ndvi.shape} != (N, {grid.length})")
        if sar.shape != (n, grid.length, len(SAR_CHANNELS)):
            raise ValueError(f"radar block shape {sar.shape} != {(n, grid.length, len(SAR_CHANNELS))}")
        columns = [_id_column(ids) for ids in (pixel_ids, parcel_ids, region_ids)]
        if any(col.shape != (n,) for col in columns):
            raise ValueError(f"id column shapes {[col.shape for col in columns]} != ({n},)")
        self._setup(grid, *columns, ndvi, sar, labels, None, check_radar=True)

    def _setup(self, grid, pixel_ids, parcel_ids, region_ids, ndvi, sar, labels, source, check_radar) -> None:
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "source", source)
        for name, arr in (("pixel_ids", pixel_ids), ("pixel_parcel_ids", parcel_ids),
                          ("pixel_region_ids", region_ids), ("ndvi", ndvi), ("sar", sar)):
            object.__setattr__(self, name, _frozen(arr))
        object.__setattr__(self, "labels", {int(k): v for k, v in dict(labels or {}).items()})
        object.__setattr__(self, "_pixels", None)
        self.__post_init__(check_radar)

    def __post_init__(self, check_radar: bool = True) -> None:
        """Check the rows and the labels, and group the rows by parcel:
        the last step of every constructor."""
        # NaN compares false, so absent steps pass
        ndvi_check = ((np.abs(self.ndvi) > 1.0).any(axis=1), lambda i: _NDVI_RANGE_MESSAGE)
        _raise_first([ndvi_check] + (_radar_checks(self.sar) if check_radar else []))
        _, first = np.unique(self.pixel_ids, return_index=True)
        repeated = np.ones(self.n_pixels, dtype=bool)
        repeated[first] = False
        _raise_first([(repeated, lambda i: f"duplicate pixel_id {self.pixel_ids[i]}")])
        parcels, inverse, sizes = np.unique(self.pixel_parcel_ids, return_inverse=True, return_counts=True)
        order = np.argsort(inverse.reshape(-1), kind="stable")
        starts = np.cumsum(sizes) - sizes
        parcel_ids = tuple(parcels.tolist())
        for name, value in (("parcel_ids", parcel_ids), ("parcel_sizes", _frozen(sizes)),
                            ("parcel_order", _frozen(order)),
                            ("parcel_region_ids", tuple(self.pixel_region_ids[order[starts]].tolist())),
                            ("_starts", _frozen(starts)),
                            ("_position", {p: k for k, p in enumerate(parcel_ids)})):
            object.__setattr__(self, name, value)
        for pid, lab in self.labels.items():
            if lab.parcel_id != pid:
                raise ValueError(f"label keyed {pid} carries parcel_id {lab.parcel_id}")
            if pid not in self._position:
                raise ValueError(f"label for unknown parcel {pid}")

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is read-only; cannot set {name!r}")

    def __repr__(self) -> str:
        return f"Dataset(grid={self.grid!r}, n_pixels={self.n_pixels}, n_parcels={len(self.parcel_ids)})"

    @property
    def n_pixels(self) -> int:
        return self.ndvi.shape[0]

    @property
    def pixels(self) -> tuple[PixelSeries, ...]:
        """The rows as read-only PixelSeries views, built on first use."""
        if self._pixels is None:
            ids = zip(self.pixel_ids.tolist(), self.pixel_parcel_ids.tolist(), self.pixel_region_ids.tolist())
            object.__setattr__(self, "_pixels", tuple(
                PixelSeries._view(*key, self.ndvi[i], self.sar[i]) for i, key in enumerate(ids)))
        return self._pixels

    def _locate(self, parcel_ids) -> tuple[np.ndarray, np.ndarray]:
        """(position in `self.parcel_ids`, start of the rows in
        `parcel_order`) of each given parcel; a KeyError names the first
        unknown parcel."""
        try:
            k = np.array([self._position[p] for p in parcel_ids], dtype=np.intp)
        except KeyError as e:
            raise KeyError(f"unknown parcel {e.args[0]}") from None
        return k, self._starts[k]

    def parcel_blocks(self, parcel_ids=None) -> list[tuple[np.ndarray, np.ndarray]]:
        """The given parcels (every parcel, ascending, when None) grouped by
        size: for each size m, the positions of its parcels among the given
        ones, and the (P_m, m) rows of their pixels, in construction order
        within a parcel.

        numpy reduces a block over its member axis in the order it reduces
        one parcel's own stack of m rows, so a reduction over the blocks is
        bit-identical to one parcel at a time; `np.add.reduceat` over the
        grouped rows is not."""
        k, starts = self._locate(self.parcel_ids if parcel_ids is None else parcel_ids)
        sizes = self.parcel_sizes[k]
        blocks = []
        for m in np.unique(sizes).tolist():
            at = np.flatnonzero(sizes == m)
            blocks.append((at, self.parcel_order[starts[at, None] + np.arange(m)]))
        return blocks

    # kept because perfbench/tracer.py wraps this name; it goes with ROADMAP item 7
    def parcel_pixels(self, parcel_id: int) -> tuple[PixelSeries, ...]:
        (k,), (start,) = self._locate([parcel_id])
        pixels = self.pixels
        return tuple(pixels[i] for i in self.parcel_order[start:start + self.parcel_sizes[k]].tolist())

    def select(self, rows=None, ndvi=None, labels: Mapping[int, ParcelLabel] | None = None) -> "Dataset":
        """The pixels at `rows` (an index array or a row mask; every row
        when None), in that order, with the (len(rows), T) NDVI block `ndvi`
        in place of theirs when given, and `labels`, by default this
        dataset's labels of the parcels that keep a pixel.

        Only what can change is checked: the new NDVI, repeated rows and the
        labels.  The radar rows were checked when this dataset was made and
        are shared when every row is kept, and so are the id columns.  The
        result carries this dataset's `source` when every row is kept, and
        None when not."""
        if rows is None:
            ids = (self.pixel_ids, self.pixel_parcel_ids, self.pixel_region_ids)
            sar = self.sar
            source = self.source
        else:
            rows = np.asarray(rows)
            rows = np.flatnonzero(rows) if rows.dtype == bool else rows.astype(np.intp)
            ids = (self.pixel_ids[rows], self.pixel_parcel_ids[rows], self.pixel_region_ids[rows])
            sar = self.sar[rows]
            source = None
        if ndvi is None:
            ndvi = self.ndvi if rows is None else self.ndvi[rows]
        else:
            ndvi = np.array(ndvi, dtype=np.float64, order="C")
            if ndvi.shape != (ids[0].shape[0], self.grid.length):
                raise ValueError(f"ndvi block shape {ndvi.shape} != {(ids[0].shape[0], self.grid.length)}")
        if labels is None:
            kept = set(ids[1].tolist())
            labels = {p: lab for p, lab in self.labels.items() if p in kept}
        out = Dataset.__new__(Dataset)
        out._setup(self.grid, *ids, ndvi, sar, labels, source, check_radar=False)
        return out


def parcel_aggregates(dataset: Dataset, parcel_ids=None) -> tuple[np.ndarray, np.ndarray]:
    """(P, T) NDVI and (P, T, 8) radar of the aggregates of `parcel_ids`
    (every parcel, ascending, when None), in that order.

    An NDVI step is present in an aggregate when more than half of the
    parcel's pixels observe it; its value is the mean over the observing
    pixels.  Radar channels average over all pixels.

    Each `Dataset.parcel_blocks` block is reduced over its member axis, the
    radar one channel at a time as for a single parcel, so every aggregate
    is bit-identical to the mean over its parcel alone."""
    blocks = dataset.parcel_blocks(parcel_ids)
    p = sum(at.size for at, _ in blocks)
    t = dataset.grid.length
    ndvi = np.full((p, t), np.nan)
    sar = np.empty((p, t, len(SAR_CHANNELS)))
    for at, rows in blocks:
        block = dataset.ndvi[rows]
        present = ~np.isnan(block)
        count = present.sum(axis=1)
        summed = np.where(present, block, 0.0).sum(axis=1)
        mean = np.full((at.size, t), np.nan)
        keep = count > (rows.shape[1] / 2.0)
        mean[keep] = summed[keep] / count[keep]
        ndvi[at] = mean
        for c in range(len(SAR_CHANNELS)):
            sar[at, :, c] = np.ascontiguousarray(dataset.sar[rows, :, c]).mean(axis=1)
    # coherence means stay in [0,1]; ratio channels have no bound to restore
    return np.clip(ndvi, -1.0, 1.0), sar


# kept because perfbench/tracer.py wraps this name; it goes with ROADMAP item 7
def parcel_series(dataset: Dataset, parcel_id: int) -> PixelSeries:
    """One parcel's aggregate (see `parcel_aggregates`) as a series that
    carries the parcel id in both id fields and the region of the parcel's
    first pixel."""
    ndvi, sar = parcel_aggregates(dataset, [parcel_id])
    region = dataset.parcel_region_ids[dataset._locate([parcel_id])[0][0]]
    return PixelSeries(parcel_id, parcel_id, region, ndvi[0], dict(zip(SAR_CHANNELS, sar[0].T)))
