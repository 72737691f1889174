"""The (N, T) block forms of outlier removal, the density screen, the three
fillers and training-set assembly, checked byte for byte against per-row
references kept in this file (the per-pixel code the block forms replace)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfuse import (
    DensityCriteria,
    OutlierParams,
    SynthConfig,
    TemporalGrid,
    assemble_training_set,
    bootstrap_mask,
    density_mask,
    fill_akima,
    fill_linear,
    fill_quadratic,
    passes_density,
    remove_outliers,
    synth_dataset,
)
from gapfuse.core import SAR_CHANNELS
from gapfuse.interp import MIN_KNOTS_AKIMA, MIN_KNOTS_LINEAR, MIN_KNOTS_QUADRATIC

GRID = TemporalGrid()
PER_DAY = OutlierParams(alpha=0.02, beta=0.02, per_day=True)


# -- per-row references -------------------------------------------------------

def ref_remove_outliers(ndvi, grid, params):
    present_idx = np.flatnonzero(~np.isnan(ndvi))
    out = ndvi.copy()
    if present_idx.size < 3:
        return out
    doys = grid.doys.astype(np.float64)
    for k in range(1, present_idx.size - 1):
        lo, t, hi = present_idx[k - 1], present_idx[k], present_idx[k + 1]
        drop = ndvi[lo] - ndvi[t]
        rise = ndvi[hi] - ndvi[t]
        straddle = ndvi[hi] - ndvi[lo]
        if params.per_day:
            drop /= doys[t] - doys[lo]
            rise /= doys[hi] - doys[t]
            straddle /= doys[hi] - doys[lo]
        if drop >= params.alpha and rise >= params.beta and straddle >= params.gamma:
            out[t] = np.nan
    return out


def ref_max_run(flags):
    run = best = 0
    for f in flags:
        run = run + 1 if f else 0
        best = max(best, run)
    return best


def ref_passes_density(ndvi, grid, criteria):
    absent = np.isnan(ndvi)
    lo, hi = criteria.summer_window
    summer = (grid.doys >= lo) & (grid.doys <= hi)
    return (
        int(np.sum(absent & summer)) <= criteria.max_total_summer
        and ref_max_run(absent & summer) <= criteria.max_consecutive_summer
        and ref_max_run(absent & ~summer) <= criteria.max_consecutive_other
        and float(np.mean(absent)) <= criteria.max_overall_coverage
    )


def ref_akima(x, y, xq):
    m = np.diff(y) / np.diff(x)
    ext = np.empty(m.size + 4)
    ext[2:-2] = m
    ext[1] = 2.0 * m[0] - m[1]
    ext[0] = 2.0 * ext[1] - m[0]
    ext[-2] = 2.0 * m[-1] - m[-2]
    ext[-1] = 2.0 * ext[-2] - m[-1]
    w1 = np.abs(ext[3:] - ext[2:-1])
    w2 = np.abs(ext[1:-2] - ext[:-3])
    denom = w1 + w2
    left, right = ext[1:-2], ext[2:-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = (w1 * left + w2 * right) / denom
    flat = denom == 0.0
    t[flat] = 0.5 * (left[flat] + right[flat])
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    h = x[idx + 1] - x[idx]
    s = (xq - x[idx]) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    out = h00 * y[idx] + h10 * h * t[idx] + h01 * y[idx + 1] + h11 * h * t[idx + 1]
    out = np.where(xq <= x[0], y[0], out)
    return np.where(xq >= x[-1], y[-1], out)


def ref_quadratic(x, y, xq):
    h = np.diff(x)
    m = np.diff(y) / h
    x0, x1, x2 = x[0], x[1], x[2]
    s0 = (
        y[0] * (2 * x0 - x1 - x2) / ((x0 - x1) * (x0 - x2))
        + y[1] * (x0 - x2) / ((x1 - x0) * (x1 - x2))
        + y[2] * (x0 - x1) / ((x2 - x0) * (x2 - x1))
    )
    s = np.empty(x.size)
    s[0] = s0
    for i in range(m.size):
        s[i + 1] = 2.0 * m[i] - s[i]
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    d = xq - x[idx]
    c = (m[idx] - s[idx]) / h[idx]
    out = y[idx] + s[idx] * d + c * d * d
    out = np.where(xq <= x[0], y[0], out)
    return np.where(xq >= x[-1], y[-1], out)


def ref_linear(x, y, xq):
    return np.interp(xq, x, y)


def ref_fill(ndvi, grid, interpolate):
    present = ~np.isnan(ndvi)
    x = grid.doys.astype(np.float64)
    out = ndvi.copy()
    missing = ~present
    if missing.any():
        out[missing] = np.clip(interpolate(x[present], ndvi[present], x[missing]), -1.0, 1.0)
    return out


FILLS = [
    (fill_linear, ref_linear, MIN_KNOTS_LINEAR),
    (fill_akima, ref_akima, MIN_KNOTS_AKIMA),
    (fill_quadratic, ref_quadratic, MIN_KNOTS_QUADRATIC),
]
FILL_IDS = ["linear", "akima", "quadratic"]


def stacked(fn, block):
    return np.stack([fn(row) for row in block])


# -- blocks -------------------------------------------------------------------

def _row(present_steps, seed):
    rng = np.random.default_rng(seed)
    row = np.full(GRID.length, np.nan)
    row[present_steps] = rng.uniform(0.1, 0.9, len(present_steps))
    return row


def _pinned_rows():
    """Named rows: the minimum knot counts, leading and trailing absent
    runs, an all-present row with spikes, and absent runs straddling each
    end of the summer window (doy 153-213: steps 9-18)."""
    summer = (GRID.doys >= 153) & (GRID.doys <= 213)
    assert np.flatnonzero(summer)[[0, -1]].tolist() == [9, 18]
    spikes = np.full(GRID.length, 0.6)
    spikes[[3, 12, 20]] = 0.2
    rows = {
        "two_knots": _row([4, 17], 1),
        "three_knots": _row([0, 11, 28], 2),
        "five_knots": _row([2, 6, 13, 21, 25], 3),
        "leading_and_trailing_runs": _row(list(range(4, 23)), 4),
        "all_present": spikes,
        "straddles_summer_start": _row([s for s in range(GRID.length) if s not in (7, 8, 9, 10)], 5),
        "straddles_summer_end": _row([s for s in range(GRID.length) if s not in (17, 18, 19, 20)], 6),
        "one_absent_each_side": _row([s for s in range(GRID.length) if s not in (8, 9, 18, 19)], 7),
    }
    return rows


PINNED = _pinned_rows()
PINNED_BLOCK = np.stack(list(PINNED.values()))

cell = st.one_of(
    st.none(),
    st.floats(-1.0, 1.0),
    # repeated levels make drops, rebounds and straddles hit the thresholds exactly
    st.sampled_from([-0.05, 0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 1.0]),
)
blocks = st.lists(st.lists(cell, min_size=GRID.length, max_size=GRID.length), min_size=1, max_size=6).map(
    lambda rows: np.array([[np.nan if v is None else v for v in r] for r in rows], dtype=np.float64))


def assert_bytes_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# -- outlier removal ----------------------------------------------------------

class TestRemoveOutliers:
    @pytest.mark.parametrize("params", [OutlierParams(), PER_DAY], ids=["plain", "per_day"])
    def test_pinned_block_matches_rows(self, params):
        want = stacked(lambda r: ref_remove_outliers(r, GRID, params), PINNED_BLOCK)
        assert_bytes_equal(remove_outliers(PINNED_BLOCK, GRID, params), want)
        # the spikes of the all-present row are found
        assert np.isnan(want[list(PINNED).index("all_present")]).sum() == 3

    @settings(max_examples=200, deadline=None)
    @given(blocks, st.booleans())
    def test_block_matches_rows(self, block, per_day):
        params = PER_DAY if per_day else OutlierParams()
        want = stacked(lambda r: ref_remove_outliers(r, GRID, params), block)
        assert_bytes_equal(remove_outliers(block, GRID, params), want)
        assert_bytes_equal(remove_outliers(block[0], GRID, params), want[0])

    def test_input_untouched_and_shape_checked(self):
        block = PINNED_BLOCK.copy()
        remove_outliers(block, GRID)
        assert block.tobytes() == PINNED_BLOCK.tobytes()
        with pytest.raises(ValueError, match="grid length"):
            remove_outliers(block[:, :-1], GRID)
        with pytest.raises(ValueError, match="grid length"):
            remove_outliers(block[None], GRID)


# -- density screen -----------------------------------------------------------

class TestDensityMask:
    def test_pinned_block_matches_rows(self):
        got = density_mask(PINNED_BLOCK, GRID)
        assert got.dtype == bool and got.shape == (len(PINNED),)
        want = [ref_passes_density(r, GRID, DensityCriteria()) for r in PINNED_BLOCK]
        assert got.tolist() == want
        assert [passes_density(r, GRID) for r in PINNED_BLOCK] == want
        # each straddling run is within both bounds on its own side only
        assert dict(zip(PINNED, want))["one_absent_each_side"]
        assert not dict(zip(PINNED, want))["straddles_summer_start"]
        # coverage equal to the bound passes, one absence more does not
        row = PINNED["one_absent_each_side"]
        at_bound = DensityCriteria(max_overall_coverage=4 / GRID.length)
        assert density_mask(row[None], GRID, at_bound).tolist() == [True]
        row = row.copy()
        row[0] = np.nan
        assert density_mask(row[None], GRID, at_bound).tolist() == [False]

    @settings(max_examples=200, deadline=None)
    @given(blocks, st.integers(0, 4), st.integers(0, 6), st.integers(0, 4),
           # k/T makes the coverage of some rows equal the bound
           st.one_of(st.floats(0.0, 1.0), st.integers(0, GRID.length).map(lambda k: k / GRID.length)))
    def test_block_matches_rows(self, block, consecutive_summer, total_summer, consecutive_other, cover):
        criteria = DensityCriteria(consecutive_summer, total_summer, consecutive_other, cover)
        want = [ref_passes_density(r, GRID, criteria) for r in block]
        assert density_mask(block, GRID, criteria).tolist() == want
        assert [passes_density(r, GRID, criteria) for r in block] == want

    def test_passes_density_returns_a_bool(self):
        assert type(passes_density(PINNED["all_present"], GRID)) is bool

    def test_shapes_checked(self):
        with pytest.raises(ValueError):
            density_mask(PINNED["all_present"], GRID)
        with pytest.raises(ValueError):
            passes_density(PINNED_BLOCK, GRID)


# -- fills --------------------------------------------------------------------

class TestBlockFills:
    @pytest.mark.parametrize("fill, interpolate, minimum", FILLS, ids=FILL_IDS)
    def test_pinned_block_matches_rows(self, fill, interpolate, minimum):
        counts = (~np.isnan(PINNED_BLOCK)).sum(axis=1)
        block = PINNED_BLOCK[counts >= minimum]
        # the row with exactly the minimum number of knots is in the block
        assert (counts[counts >= minimum] == minimum).any()
        want = stacked(lambda r: ref_fill(r, GRID, interpolate), block)
        assert_bytes_equal(fill(block, GRID), want)

    @settings(max_examples=200, deadline=None)
    @given(blocks)
    def test_block_matches_rows(self, block):
        counts = (~np.isnan(block)).sum(axis=1)
        for fill, interpolate, minimum in FILLS:
            enough = block[counts >= minimum]
            if (counts < minimum).any():
                with pytest.raises(ValueError, match=f"needs >= {minimum} knots"):
                    fill(block, GRID)
            if enough.shape[0]:
                want = stacked(lambda r: ref_fill(r, GRID, interpolate), enough)
                assert_bytes_equal(fill(enough, GRID), want)
                assert_bytes_equal(fill(enough[-1], GRID), want[-1])

    @pytest.mark.parametrize("fill, interpolate, minimum", FILLS, ids=FILL_IDS)
    def test_short_row_named(self, fill, interpolate, minimum):
        block = np.stack([PINNED["all_present"], _row(list(range(minimum - 1)), 9)])
        with pytest.raises(ValueError, match=f"got {minimum - 1} in row 1"):
            fill(block, GRID)


# -- assembly -----------------------------------------------------------------

def ref_assemble(dataset, pools, rng, outlier=OutlierParams(), density=DensityCriteria()):
    """The per-pixel assembly: one mask draw per parcel, then one pixel at a time."""
    grid = dataset.grid
    rows = {k: [] for k in ("ndvi_in", "sar", "target", "weight_class", "pixel_ids", "parcel_ids",
                            "region_ids", "mask_coverages")}
    for parcel_id in dataset.parcel_ids:
        members = dataset.parcel_pixels(parcel_id)
        mask = bootstrap_mask(pools[members[0].region_id], rng)
        for px in members:
            cleaned = ref_remove_outliers(px.ndvi, grid, outlier)
            if not ref_passes_density(cleaned, grid, density):
                continue
            observed = ~np.isnan(cleaned)
            ndvi_in = cleaned.copy()
            ndvi_in[mask.bits] = np.nan
            cls = np.zeros(grid.length, dtype=np.int8)
            cls[observed & ~mask.bits] = 1
            cls[observed & mask.bits] = 2
            rows["ndvi_in"].append(ndvi_in)
            rows["sar"].append(np.stack([px.sar[c] for c in SAR_CHANNELS], axis=1))
            rows["target"].append(ref_fill(cleaned, grid, ref_akima))
            rows["weight_class"].append(cls)
            rows["pixel_ids"].append(px.pixel_id)
            rows["parcel_ids"].append(px.parcel_id)
            rows["region_ids"].append(px.region_id)
            rows["mask_coverages"].append(mask.coverage)
    return {k: np.asarray(v) if k.endswith(("_ids", "coverages")) else np.stack(v) for k, v in rows.items()}


def test_assembly_matches_per_pixel_reference():
    scene = synth_dataset(SynthConfig(n_parcels=10, pixels_per_parcel=4, n_regions=2, seed=31))
    ds = scene.dataset
    # every pixel of the third parcel fails the density screen; its mask is
    # still drawn, so the parcels after it keep their masks
    sparse = ds.parcel_ids[2]
    thin = np.full(GRID.length, np.nan)
    thin[::4] = 0.5
    ndvi = ds.ndvi.copy()
    ndvi[ds.pixel_parcel_ids == sparse] = thin
    ds = ds.select(ndvi=ndvi)

    want = ref_assemble(ds, scene.pools, np.random.default_rng(7))
    got = assemble_training_set(ds, scene.pools, np.random.default_rng(7))
    assert sparse not in want["parcel_ids"]
    assert (want["parcel_ids"] > sparse).any()
    for name, arr in want.items():
        assert_bytes_equal(getattr(got, name), arr)
