"""Residual-cloud outlier removal, density-based sample selection, and
Akima-based training-target construction.

Outlier removal deletes isolated downward spikes: a value far below both of
its nearest present neighbors, where the neighbors themselves stay level or
rise.  Genuine management events (a drop followed by slow regrowth) fail the
rebound condition and survive; senescence declines fail it too.

`remove_outliers` and `build_target` take a NaN-coded (T,) series or an
(N, T) block of them, and `density_mask` screens an (N, T) block; each runs
as array operations over all rows at once.  `passes_density` is the
one-series form of the screen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TemporalGrid
from .interp import fill_akima

# Season-interior window (June 1 - July 31 of a leap year) where the
# density rules are strictest.
SUMMER_WINDOW: tuple[int, int] = (153, 213)


@dataclass(frozen=True)
class OutlierParams:
    """Thresholds of the downward-spike filter.

    alpha: minimum drop from the previous present neighbor.
    beta: minimum rebound to the next present neighbor.
    gamma: floor on neighbor-to-neighbor change; a strongly negative
        straddle means the decline is real (senescence/mowing), not a spike.
    per_day: when true, drop and rebound are compared per day of gap
        instead of as raw differences.
    """

    alpha: float = 0.15
    beta: float = 0.15
    gamma: float = -0.05
    per_day: bool = False

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")


@dataclass(frozen=True)
class DensityCriteria:
    """Per-series observation-density requirements for training eligibility."""

    max_consecutive_summer: int = 1
    max_total_summer: int = 3
    max_consecutive_other: int = 2
    max_overall_coverage: float = 0.35
    summer_window: tuple[int, int] = SUMMER_WINDOW

    def __post_init__(self) -> None:
        if min(self.max_consecutive_summer, self.max_total_summer, self.max_consecutive_other) < 0:
            raise ValueError("count bounds must be >= 0")
        if not 0.0 <= self.max_overall_coverage <= 1.0:
            raise ValueError("max_overall_coverage must lie in [0, 1]")
        if self.summer_window[0] > self.summer_window[1]:
            raise ValueError("summer_window must be ordered")


def remove_outliers(
    ndvi: np.ndarray, grid: TemporalGrid, params: OutlierParams = OutlierParams()
) -> np.ndarray:
    """Return a copy of a (T,) series or (N, T) block with downward-spike
    steps set absent.

    A present step t with nearest present neighbors t- and t+ is removed iff
        S(t-) - S(t) >= alpha  and  S(t+) - S(t) >= beta
        and  S(t+) - S(t-) >= gamma.
    Single pass over the original values: removals never feed back into
    later neighbor lookups.  Values are never altered, only deleted, so the
    surviving set is a subset of the input's present set.
    """
    ndvi = np.asarray(ndvi, dtype=np.float64)
    if ndvi.ndim not in (1, 2) or ndvi.shape[-1] != grid.length:
        raise ValueError(f"series length {ndvi.shape} != grid length {grid.length}")
    block = ndvi.reshape(-1, grid.length)
    out = block.copy()
    present = ~np.isnan(block)
    t = grid.length
    steps = np.arange(t)
    # nearest present step strictly before / after each step; -1 / t when none
    lo = np.full(block.shape, -1)
    lo[:, 1:] = np.maximum.accumulate(np.where(present, steps, -1), axis=1)[:, :-1]
    hi = np.full(block.shape, t)
    hi[:, :-1] = np.minimum.accumulate(np.where(present, steps, t)[:, ::-1], axis=1)[:, ::-1][:, 1:]
    rows, cols = np.nonzero(present & (lo >= 0) & (hi < t))
    lo, hi = lo[rows, cols], hi[rows, cols]
    value = block[rows, cols]
    drop = block[rows, lo] - value
    rise = block[rows, hi] - value
    straddle = block[rows, hi] - block[rows, lo]
    if params.per_day:
        doys = grid.doys.astype(np.float64)
        drop /= doys[cols] - doys[lo]
        rise /= doys[hi] - doys[cols]
        straddle /= doys[hi] - doys[lo]
    spike = (drop >= params.alpha) & (rise >= params.beta) & (straddle >= params.gamma)
    out[rows[spike], cols[spike]] = np.nan
    return out.reshape(ndvi.shape)


def _longest_runs(flags: np.ndarray) -> np.ndarray:
    """Length of the longest run of True in each row of an (N, T) array."""
    steps = np.arange(flags.shape[1])
    # the last False at or before each step; the run ending there is the gap
    last_false = np.maximum.accumulate(np.where(flags, -1, steps), axis=1)
    return (steps - last_false).max(axis=1)


def density_mask(
    block: np.ndarray, grid: TemporalGrid, criteria: DensityCriteria = DensityCriteria()
) -> np.ndarray:
    """(N,) flags: which rows of an (N, T) block are dense enough to serve
    as training samples.

    Four rules: longest absent run inside the summer window, total absences
    inside the window, longest absent run outside it, and overall coverage.
    A run straddling the window boundary contributes its inside portion to
    the summer rules and its outside portion to the off-summer rule, which
    keeps the predicate monotone in presence.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[1] != grid.length:
        raise ValueError(f"block shape {block.shape} does not match grid length {grid.length}")
    absent = np.isnan(block)
    doys = grid.doys
    lo, hi = criteria.summer_window
    summer = (doys >= lo) & (doys <= hi)
    return (
        ((absent & summer).sum(axis=1) <= criteria.max_total_summer)
        & (_longest_runs(absent & summer) <= criteria.max_consecutive_summer)
        & (_longest_runs(absent & ~summer) <= criteria.max_consecutive_other)
        & (absent.sum(axis=1) / grid.length <= criteria.max_overall_coverage)
    )


# kept because perfbench/tracer.py wraps this name; it goes with ROADMAP item 7
def passes_density(
    ndvi: np.ndarray, grid: TemporalGrid, criteria: DensityCriteria = DensityCriteria()
) -> bool:
    """True iff a (T,) series is dense enough to serve as a training sample
    (the rules of `density_mask`)."""
    ndvi = np.asarray(ndvi, dtype=np.float64)
    if ndvi.shape != (grid.length,):
        raise ValueError(f"series length {ndvi.shape} != grid length {grid.length}")
    return bool(density_mask(ndvi[None], grid, criteria)[0])


def build_target(ndvi: np.ndarray, grid: TemporalGrid) -> tuple[np.ndarray, np.ndarray]:
    """Fill a density-compliant (T,) series or (N, T) block into full
    training targets.

    Returns (target, observed): `target` is fully present with gaps filled
    by Akima interpolation; `observed` flags the steps backed by a real
    observation (loss-weight eligible) as opposed to interpolated ones
    (weight 0 downstream).
    """
    ndvi = np.asarray(ndvi, dtype=np.float64)
    observed = ~np.isnan(ndvi)
    target = fill_akima(ndvi, grid)
    return target, observed
