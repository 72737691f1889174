"""Temporal grid, series containers, and parcel aggregation."""

import numpy as np
import pytest

from gapfuse import (
    CHANNELS,
    SAR_CHANNELS,
    CloudMask,
    Dataset,
    ParcelLabel,
    PixelSeries,
    TemporalGrid,
    parcel_series,
)


def make_sar(length, **overrides):
    base = {
        "sigma0_vv_db": np.full(length, -12.0),
        "sigma0_vh_db": np.full(length, -18.0),
        "coh_vv": np.full(length, 0.4),
        "coh_vh": np.full(length, 0.3),
        "sigma0_ratio": np.full(length, 4.0),
        "sigma0_cross_ratio_db": np.full(length, -6.0),
        "mixed_coherence": np.full(length, 0.35),
        "rvi": np.full(length, 1.6),
    }
    base.update(overrides)
    return base


class TestTemporalGrid:
    def test_default_grid_spans_the_season(self):
        g = TemporalGrid()
        assert g.start_doy == 100 and g.step_days == 6 and g.length == 29
        assert g.end_doy == 268
        assert g.doys[0] == 100 and g.doys[-1] == 268
        assert np.all(np.diff(g.doys) == 6)

    def test_doy_lookup_and_bounds(self):
        g = TemporalGrid()
        assert g.doy(0) == 100
        assert g.doy(28) == 268
        with pytest.raises(IndexError):
            g.doy(29)
        with pytest.raises(IndexError):
            g.doy(-1)

    def test_nearest_index_rounds_to_closest_step(self):
        g = TemporalGrid()
        assert g.nearest_index(100) == 0
        assert g.nearest_index(102) == 0
        assert g.nearest_index(105) == 1
        assert g.nearest_index(268) == 28

    def test_nearest_index_tie_goes_to_earlier_step(self):
        g = TemporalGrid()
        # doy 103 sits exactly between steps 0 (100) and 1 (106)
        assert g.nearest_index(103) == 0
        assert g.nearest_index(109) == 1

    def test_nearest_index_clips_to_grid(self):
        g = TemporalGrid()
        assert g.nearest_index(1) == 0
        assert g.nearest_index(400) == 28

    def test_nearest_index_distance_cutoff(self):
        g = TemporalGrid()
        assert g.nearest_index(1, max_distance_days=12) is None
        assert g.nearest_index(97, max_distance_days=12) == 0

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            TemporalGrid(step_days=0)
        with pytest.raises(ValueError):
            TemporalGrid(length=0)


class TestPixelSeries:
    def test_channel_roster(self):
        assert CHANNELS[0] == "ndvi"
        assert CHANNELS[1:] == SAR_CHANNELS
        assert len(SAR_CHANNELS) == 8

    def test_construction_and_presence(self):
        ndvi = np.array([0.2, np.nan, 0.6, np.nan])
        px = PixelSeries(1, 2, 0, ndvi, make_sar(4))
        assert px.length == 4
        assert px.present.tolist() == [True, False, True, False]
        assert not px.ndvi.flags.writeable

    def test_ndvi_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            PixelSeries(1, 2, 0, np.array([1.5, 0.0]), make_sar(2))

    def test_sar_channel_set_enforced(self):
        sar = make_sar(2)
        del sar["rvi"]
        with pytest.raises(ValueError, match="missing"):
            PixelSeries(1, 2, 0, np.zeros(2), sar)

    def test_sar_nan_rejected(self):
        sar = make_sar(2, coh_vv=np.array([0.4, np.nan]))
        with pytest.raises(ValueError, match="NaN"):
            PixelSeries(1, 2, 0, np.zeros(2), sar)

    def test_coherence_range_enforced(self):
        sar = make_sar(2, coh_vh=np.array([0.3, 1.2]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PixelSeries(1, 2, 0, np.zeros(2), sar)

    def test_with_ndvi_keeps_identity_and_sar(self):
        px = PixelSeries(1, 2, 3, np.zeros(2), make_sar(2))
        px2 = px.with_ndvi(np.array([0.1, np.nan]))
        assert (px2.pixel_id, px2.parcel_id, px2.region_id) == (1, 2, 3)
        assert np.isnan(px2.ndvi[1])
        assert np.array_equal(px2.sar["rvi"], px.sar["rvi"])

    def test_with_ndvi_checks_the_new_ndvi(self):
        px = PixelSeries(1, 2, 3, np.zeros(2), make_sar(2))
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            px.with_ndvi(np.array([0.1, 1.5]))
        with pytest.raises(ValueError, match="length"):
            px.with_ndvi(np.zeros(3))
        assert not px.with_ndvi(np.zeros(2)).ndvi.flags.writeable

    def test_sar_is_read_only(self):
        px = PixelSeries(1, 2, 3, np.zeros(2), make_sar(2))
        with pytest.raises(TypeError):
            px.sar["rvi"] = np.zeros(2)
        with pytest.raises(ValueError):
            px.sar["rvi"][0] = 1.0

    def test_first_bad_channel_is_named(self):
        sar = make_sar(2, coh_vh=np.array([0.3, np.nan]), rvi=np.array([np.nan, 1.0]),
                       mixed_coherence=np.array([0.3, 1.5]))
        with pytest.raises(ValueError, match="channel coh_vh contains NaN"):
            PixelSeries(1, 2, 0, np.zeros(2), sar)
        sar = make_sar(2, coh_vv=np.array([0.4, 0.5]), mixed_coherence=np.array([-0.1, 0.3]))
        with pytest.raises(ValueError, match="channel mixed_coherence must lie"):
            PixelSeries(1, 2, 0, np.zeros(2), sar)
        with pytest.raises(ValueError, match=r"channel rvi length \(3,\) != ndvi length 2"):
            PixelSeries(1, 2, 0, np.zeros(2), make_sar(2, rvi=np.ones(3)))


class TestCloudMaskAndLabels:
    def test_mask_coverage(self):
        m = CloudMask(0, 0, np.array([1, 0, 1, 1], dtype=bool))
        assert m.coverage == 0.75

    def test_label_sorts_events(self):
        lab = ParcelLabel(5, (200, 150))
        assert lab.event_doys == (150, 200)


class TestDataset:
    def grid(self):
        return TemporalGrid(start_doy=100, step_days=6, length=4)

    def test_duplicate_pixel_rejected(self):
        px = PixelSeries(1, 2, 0, np.zeros(4), make_sar(4))
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(self.grid(), (px, px))

    def test_length_mismatch_rejected(self):
        px = PixelSeries(1, 2, 0, np.zeros(3), make_sar(3))
        with pytest.raises(ValueError, match="length"):
            Dataset(self.grid(), (px,))

    def test_label_for_unknown_parcel_rejected(self):
        px = PixelSeries(1, 2, 0, np.zeros(4), make_sar(4))
        with pytest.raises(ValueError, match="unknown parcel"):
            Dataset(self.grid(), (px,), {9: ParcelLabel(9)})

    def test_parcel_index(self):
        pxs = [PixelSeries(i, i % 2, 0, np.zeros(4), make_sar(4)) for i in range(4)]
        ds = Dataset(self.grid(), tuple(pxs))
        assert ds.parcel_ids == (0, 1)
        assert [p.pixel_id for p in ds.parcel_pixels(1)] == [1, 3]
        assert ds.n_pixels == 4
        with pytest.raises(KeyError):
            ds.parcel_pixels(7)


class TestParcelSeries:
    def test_majority_presence_rule(self):
        grid = TemporalGrid(start_doy=100, step_days=6, length=3)
        # step 0: 3/3 present; step 1: 2/3 (majority); step 2: 1/3 (minority)
        n0 = np.array([0.3, 0.6, 0.9])
        n1 = np.array([0.3, 0.6, np.nan])
        n2 = np.array([0.3, np.nan, np.nan])
        pxs = [PixelSeries(i, 7, 0, n, make_sar(3)) for i, n in enumerate((n0, n1, n2))]
        agg = parcel_series(Dataset(grid, tuple(pxs)), 7)
        assert agg.ndvi[0] == pytest.approx(0.3)
        assert agg.ndvi[1] == pytest.approx(0.6)
        assert np.isnan(agg.ndvi[2])
        assert agg.pixel_id == 7 and agg.parcel_id == 7

    def test_sar_plain_mean(self):
        grid = TemporalGrid(start_doy=100, step_days=6, length=2)
        a = PixelSeries(0, 1, 0, np.zeros(2), make_sar(2, coh_vv=np.array([0.2, 0.4])))
        b = PixelSeries(1, 1, 0, np.zeros(2), make_sar(2, coh_vv=np.array([0.6, 0.8])))
        agg = parcel_series(Dataset(grid, (a, b)), 1)
        assert np.allclose(agg.sar["coh_vv"], [0.4, 0.6])

    def test_exact_half_is_not_majority(self):
        grid = TemporalGrid(start_doy=100, step_days=6, length=1)
        a = PixelSeries(0, 1, 0, np.array([0.5]), make_sar(1))
        b = PixelSeries(1, 1, 0, np.array([np.nan]), make_sar(1))
        agg = parcel_series(Dataset(grid, (a, b)), 1)
        assert np.isnan(agg.ndvi[0])
