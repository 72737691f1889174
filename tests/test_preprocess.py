"""Downward-spike removal, density screening, and target construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfuse import (
    DensityCriteria,
    OutlierParams,
    TemporalGrid,
    build_target,
    passes_density,
    remove_outliers,
)

GRID = TemporalGrid()


def full_series(value=0.6):
    return np.full(GRID.length, value)


class TestRemoveOutliers:
    def test_isolated_dip_removed(self):
        s = full_series()
        s[10] = 0.2  # drop 0.4, rebound 0.4, straddle 0
        out = remove_outliers(s, GRID)
        assert np.isnan(out[10])
        assert np.sum(np.isnan(out)) == 1

    def test_shallow_dip_kept(self):
        s = full_series()
        s[10] = 0.5  # drop 0.1 < alpha
        out = remove_outliers(s, GRID)
        assert not np.isnan(out).any()

    def test_mowing_like_drop_without_rebound_kept(self):
        # drop then slow regrowth: next neighbor barely above the minimum
        s = full_series()
        s[10] = 0.25
        s[11] = 0.32
        s[12] = 0.40
        out = remove_outliers(s, GRID)
        assert not np.isnan(out[10])

    def test_senescence_decline_kept(self):
        doys = GRID.doys.astype(float)
        s = np.clip(0.9 - 0.004 * (doys - 100), 0.1, 1.0)
        out = remove_outliers(s, GRID)
        assert not np.isnan(out).any()

    def test_straddle_guard_blocks_step_declines(self):
        # a real level shift: big drop, small rebound, strongly negative
        # neighbor-to-neighbor change
        s = full_series(0.8)
        s[10:] = 0.3
        s[10] = 0.25
        out = remove_outliers(s, GRID)
        assert not np.isnan(out).any()

    def test_nearest_present_neighbors_used(self):
        s = np.full(GRID.length, np.nan)
        s[2] = 0.7
        s[10] = 0.3  # neighbors are steps 2 and 15, both far away in time
        s[15] = 0.7
        out = remove_outliers(s, GRID)
        assert np.isnan(out[10])

    def test_single_pass_no_cascade(self):
        # two adjacent dips: each sees the other as a neighbor in the
        # ORIGINAL series, so the pair does not satisfy the rebound rule
        s = full_series()
        s[10] = 0.2
        s[11] = 0.2
        out = remove_outliers(s, GRID)
        assert not np.isnan(out[10]) and not np.isnan(out[11])

    def test_per_day_mode_divides_by_gap_days(self):
        # drop 0.18 over a 12-day gap = 0.015/day: fails per-day alpha 0.02
        s = np.full(GRID.length, np.nan)
        s[0] = 0.7
        s[2] = 0.52
        s[4] = 0.7
        plain = remove_outliers(s, GRID, OutlierParams(alpha=0.15, beta=0.15))
        per_day = remove_outliers(s, GRID, OutlierParams(alpha=0.02, beta=0.02, per_day=True))
        assert np.isnan(plain[2])
        assert not np.isnan(per_day[2])

    def test_endpoints_never_removed(self):
        s = full_series()
        s[0] = 0.0
        s[-1] = 0.0
        out = remove_outliers(s, GRID)
        assert not np.isnan(out[0]) and not np.isnan(out[-1])

    def test_values_never_altered_only_deleted(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(0, 1, GRID.length)
        out = remove_outliers(s, GRID)
        kept = ~np.isnan(out)
        assert np.array_equal(out[kept], s[kept])

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            OutlierParams(alpha=0.0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_property_survivors_subset_of_present(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.uniform(0, 1, GRID.length)
        s[rng.random(GRID.length) < 0.3] = np.nan
        out = remove_outliers(s, GRID)
        present_in = ~np.isnan(s)
        present_out = ~np.isnan(out)
        assert np.all(present_in | ~present_out)


class TestDensity:
    def test_fully_observed_passes(self):
        assert passes_density(full_series(), GRID)

    def test_two_consecutive_summer_gaps_fail(self):
        s = full_series()
        summer_steps = np.flatnonzero((GRID.doys >= 153) & (GRID.doys <= 213))
        s[summer_steps[2]] = np.nan
        s[summer_steps[3]] = np.nan
        assert not passes_density(s, GRID)

    def test_isolated_summer_gaps_within_budget_pass(self):
        s = full_series()
        summer_steps = np.flatnonzero((GRID.doys >= 153) & (GRID.doys <= 213))
        s[summer_steps[0]] = np.nan
        s[summer_steps[3]] = np.nan
        s[summer_steps[6]] = np.nan
        assert passes_density(s, GRID)

    def test_four_total_summer_gaps_fail(self):
        s = full_series()
        summer_steps = np.flatnonzero((GRID.doys >= 153) & (GRID.doys <= 213))
        for k in (0, 2, 4, 6):
            s[summer_steps[k]] = np.nan
        assert not passes_density(s, GRID)

    def test_three_consecutive_offsummer_fail(self):
        s = full_series()
        s[0:3] = np.nan
        assert not passes_density(s, GRID)

    def test_two_consecutive_offsummer_pass(self):
        s = full_series()
        s[0:2] = np.nan
        assert passes_density(s, GRID)

    def test_overall_coverage_bound(self):
        s = full_series()
        # spread absences so no run/summer rule trips: off-summer pairs plus
        # the isolated summer budget -> 11/29 missing pushes coverage over 0.35
        s[[0, 1, 3, 4, 6, 7, 19, 20]] = np.nan
        summer_steps = np.flatnonzero((GRID.doys >= 153) & (GRID.doys <= 213))
        for k in (0, 2, 4):
            s[summer_steps[k]] = np.nan
        assert np.isnan(s).mean() > 0.35
        assert not passes_density(s, GRID)

    def test_straddling_run_counts_portions_separately(self):
        # a 3-step run with 1 step inside the window and 2 outside passes the
        # summer rule (inside portion 1) and the off-summer rule (outside 2)
        s = full_series()
        first_summer = int(np.flatnonzero(GRID.doys >= 153)[0])
        s[first_summer - 2: first_summer + 1] = np.nan
        assert passes_density(s, GRID)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_property_monotone_in_presence(self, seed):
        """Adding one observation can never break a passing series."""
        rng = np.random.default_rng(seed)
        s = full_series()
        s[rng.random(GRID.length) < 0.2] = np.nan
        missing = np.flatnonzero(np.isnan(s))
        if missing.size == 0 or not passes_density(s, GRID):
            return
        s2 = s.copy()
        s2[rng.choice(missing)] = 0.5
        assert passes_density(s2, GRID)


class TestBuildTarget:
    def test_target_filled_and_flags_mark_observations(self):
        s = full_series()
        s[[3, 9, 15]] = np.nan
        target, observed = build_target(s, GRID)
        assert not np.isnan(target).any()
        assert observed.tolist() == (~np.isnan(s)).tolist()
        assert np.array_equal(target[observed], s[observed])

    def test_target_needs_enough_knots(self):
        s = np.full(GRID.length, np.nan)
        s[:4] = 0.5
        with pytest.raises(ValueError):
            build_target(s, GRID)
