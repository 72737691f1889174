"""Core data model: the 6-day temporal grid and the containers built on it.

Everything downstream (interpolation, training, detection, evaluation)
operates on these types.  All time series live on a shared integer grid of
day-of-year stamps; optical values use NaN for absent observations so that
presence is a property of the data, not a side table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

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


# the radar channels that must lie in [0, 1], as rows of SAR_CHANNELS
_UNIT_RANGE_ROWS = [SAR_CHANNELS.index(c) for c in ("coh_vv", "coh_vh", "mixed_coherence")]


def _checked_ndvi(ndvi: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of a 1-D NDVI series (NaN = absent) whose
    present values lie in [-1, 1]."""
    ndvi = np.asarray(ndvi, dtype=np.float64).copy()
    ndvi.flags.writeable = False
    if ndvi.ndim != 1:
        raise ValueError("ndvi must be 1-D")
    # NaN compares false, so absent steps pass
    if (np.abs(ndvi) > 1.0).any():
        raise ValueError("ndvi values must lie in [-1, 1]")
    return ndvi


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

    @property
    def end_doy(self) -> int:
        return self.start_doy + self.step_days * (self.length - 1)

    def doy(self, index: int) -> int:
        """Day-of-year at a grid index; raises IndexError out of range."""
        if not 0 <= index < self.length:
            raise IndexError(f"grid index {index} out of range [0, {self.length})")
        return self.start_doy + self.step_days * index

    def nearest_index(self, doy: float, max_distance_days: float | None = None) -> int | None:
        """Index of the grid step nearest to `doy`.

        Ties between two equally near steps resolve to the earlier one.
        Returns None when the nearest step is farther than
        `max_distance_days` (when given).
        """
        raw = (doy - self.start_doy) / self.step_days
        idx = int(np.floor(raw + 0.5))
        # floor(x+.5) rounds half up, i.e. toward the later step; a tie must
        # go to the earlier step instead, so step back when exactly halfway.
        if (raw - np.floor(raw)) == 0.5 and idx > 0:
            idx -= 1
        idx = min(max(idx, 0), self.length - 1)
        if max_distance_days is not None and abs(doy - self.doy(idx)) > max_distance_days:
            return None
        return idx


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
        ndvi = _checked_ndvi(self.ndvi)
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
        nan_rows = np.isnan(block).any(axis=1)
        if nan_rows.any():
            raise ValueError(f"channel {SAR_CHANNELS[int(np.argmax(nan_rows))]} contains NaN")
        bounded = block[_UNIT_RANGE_ROWS]
        outside = ((bounded < 0.0) | (bounded > 1.0)).any(axis=1)
        if outside.any():
            name = SAR_CHANNELS[_UNIT_RANGE_ROWS[int(np.argmax(outside))]]
            raise ValueError(f"channel {name} must lie in [0, 1]")
        block.flags.writeable = False
        object.__setattr__(self, "sar", MappingProxyType(dict(zip(SAR_CHANNELS, block))))

    @property
    def length(self) -> int:
        return self.ndvi.shape[0]

    @property
    def present(self) -> np.ndarray:
        """Boolean mask of steps with an NDVI observation."""
        return ~np.isnan(self.ndvi)

    def with_ndvi(self, ndvi: np.ndarray) -> "PixelSeries":
        """The same pixel with another NDVI series.

        Only the new NDVI is checked: the radar channels were checked when
        this series was made, and are read-only, so they are shared."""
        ndvi = _checked_ndvi(ndvi)
        if ndvi.shape != self.ndvi.shape:
            raise ValueError(
                f"channel {SAR_CHANNELS[0]} length {self.ndvi.shape} != ndvi length {ndvi.shape[0]}")
        out = object.__new__(PixelSeries)
        out.__dict__.update(self.__dict__, ndvi=ndvi)
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


@dataclass(frozen=True)
class Dataset:
    """A set of pixels grouped into parcels, plus optional parcel labels."""

    grid: TemporalGrid
    pixels: tuple[PixelSeries, ...]
    labels: Mapping[int, ParcelLabel] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pixels", tuple(self.pixels))
        seen: set[int] = set()
        by_parcel: dict[int, list[int]] = {}
        for i, px in enumerate(self.pixels):
            if px.length != self.grid.length:
                raise ValueError(f"pixel {px.pixel_id} length {px.length} != grid length {self.grid.length}")
            if px.pixel_id in seen:
                raise ValueError(f"duplicate pixel_id {px.pixel_id}")
            seen.add(px.pixel_id)
            by_parcel.setdefault(px.parcel_id, []).append(i)
        labels = {int(k): v for k, v in dict(self.labels).items()}
        for pid, lab in labels.items():
            if lab.parcel_id != pid:
                raise ValueError(f"label keyed {pid} carries parcel_id {lab.parcel_id}")
            if pid not in by_parcel:
                raise ValueError(f"label for unknown parcel {pid}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_by_parcel", {k: tuple(v) for k, v in by_parcel.items()})

    @property
    def parcel_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_parcel))

    def parcel_pixels(self, parcel_id: int) -> tuple[PixelSeries, ...]:
        if parcel_id not in self._by_parcel:
            raise KeyError(f"unknown parcel {parcel_id}")
        return tuple(self.pixels[i] for i in self._by_parcel[parcel_id])

    @property
    def n_pixels(self) -> int:
        return len(self.pixels)


def parcel_series(dataset: Dataset, parcel_id: int) -> PixelSeries:
    """Aggregate a parcel's pixels into one series by per-step averaging.

    An NDVI step is present in the aggregate when more than half of the
    parcel's pixels observe it; its value is the mean over the observing
    pixels.  Radar channels average over all pixels.  The aggregate carries
    the parcel id in both id fields.
    """
    members = dataset.parcel_pixels(parcel_id)
    ndvi_stack = np.stack([p.ndvi for p in members])
    present = ~np.isnan(ndvi_stack)
    count = present.sum(axis=0)
    keep = count > (len(members) / 2.0)
    summed = np.where(present, ndvi_stack, 0.0).sum(axis=0)
    ndvi = np.full(dataset.grid.length, np.nan)
    ndvi[keep] = summed[keep] / count[keep]
    ndvi = np.clip(ndvi, -1.0, 1.0)
    sar = {
        name: np.mean(np.stack([p.sar[name] for p in members]), axis=0)
        for name in SAR_CHANNELS
    }
    # coherence means stay in [0,1]; ratio channels have no bound to restore
    return PixelSeries(parcel_id, parcel_id, members[0].region_id, ndvi, sar)
