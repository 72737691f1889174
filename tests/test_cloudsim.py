"""Cloud-mask machinery and the synthetic scene generator."""

import numpy as np
import pytest

from gapfuse import (
    CloudMask,
    Dataset,
    MaskPool,
    SynthConfig,
    TemporalGrid,
    bootstrap_mask,
    derive_channels,
    parcel_series,
    synth_dataset,
    synth_mask_pool,
)

GRID = TemporalGrid()


class TestMaskPool:
    def pool(self):
        rng = np.random.default_rng(3)
        return synth_mask_pool(0, GRID, 40, 0.45, rng)

    def test_pool_mean_coverage_near_target(self):
        pool = self.pool()
        assert 0.35 < np.mean([m.coverage for m in pool.masks]) < 0.55

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            MaskPool(0, ())

    def test_bootstrap_draws_members(self):
        pool = self.pool()
        rng = np.random.default_rng(0)
        ids = {bootstrap_mask(pool, rng).mask_id for _ in range(100)}
        member_ids = {m.mask_id for m in pool.masks}
        assert ids <= member_ids
        assert len(ids) > 10  # actually resamples

    def test_bootstrap_deterministic_for_seeded_rng(self):
        pool = self.pool()
        a = [bootstrap_mask(pool, np.random.default_rng(9)).mask_id for _ in range(5)]
        b = [bootstrap_mask(pool, np.random.default_rng(9)).mask_id for _ in range(5)]
        assert a == b

    def test_masks_have_multi_step_runs(self):
        """Correlated generation produces consecutive clouded runs, not
        independent salt-and-pepper."""
        pool = self.pool()
        run_lengths = []
        for m in pool.masks:
            run = 0
            for b in m.bits:
                run = run + 1 if b else 0
                if run:
                    run_lengths.append(run)
        assert max(run_lengths) >= 3

    def test_mask_hides_steps(self):
        """A mask hides NDVI by NaN assignment at its clouded steps and
        `Dataset.select(ndvi=...)`."""
        ds = Dataset(TemporalGrid(length=4), [0], [0], [0], np.full((1, 4), 0.5), np.full((1, 4, 8), 0.5))
        mask = CloudMask(0, 0, np.array([True, False, True, False]))
        ndvi = ds.ndvi.copy()
        ndvi[:, mask.bits] = np.nan
        out = ds.select(ndvi=ndvi)
        assert np.isnan(out.ndvi[0, 0]) and np.isnan(out.ndvi[0, 2])
        assert out.ndvi[0, 1] == 0.5
        # radar is weather-independent: untouched
        assert out.sar.tobytes() == ds.sar.tobytes()


class TestSynthConfigValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SynthConfig(mow_probabilities={0: 0.5, 1: 0.2, 2: 0.2})

    def test_depth_floor(self):
        with pytest.raises(ValueError):
            SynthConfig(drop_depth=(0.05, 0.3))

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            SynthConfig(n_parcels=0)


@pytest.fixture(scope="module")
def result():
    return synth_dataset(SynthConfig(n_parcels=60, pixels_per_parcel=5, n_regions=3, seed=11))


class TestSynthDataset:
    def test_shape_and_grouping(self, result):
        ds = result.dataset
        assert ds.n_pixels == 300
        assert len(ds.parcel_ids) == 60
        assert {px.region_id for px in ds.pixels} == {0, 1, 2}

    def test_radar_channels_equal_per_pixel_derivation(self, result):
        """The generator derives each parcel's channels as one block; every
        pixel's channels equal a derivation of that pixel alone, bit for bit."""
        for px in result.dataset.pixels[::7]:
            alone = derive_channels(px.sar["sigma0_vv_db"], px.sar["sigma0_vh_db"],
                                    px.sar["coh_vv"], px.sar["coh_vh"])
            for name, arr in alone.items():
                assert arr.tobytes() == px.sar[name].tobytes(), name

    def test_deterministic(self):
        cfg = SynthConfig(n_parcels=5, pixels_per_parcel=3, seed=21)
        a = synth_dataset(cfg)
        b = synth_dataset(cfg)
        for pa, pb in zip(a.dataset.pixels, b.dataset.pixels):
            assert np.array_equal(pa.ndvi, pb.ndvi, equal_nan=True)
            assert np.array_equal(pa.sar["coh_vv"], pb.sar["coh_vv"])

    def test_event_labels_inside_window(self, result):
        window = SynthConfig().event_doy_window
        for lab in result.dataset.labels.values():
            for e in lab.event_doys:
                assert window[0] <= e <= window[1]

    def test_double_events_spaced(self, result):
        for lab in result.dataset.labels.values():
            if len(lab.event_doys) == 2:
                assert lab.event_doys[1] - lab.event_doys[0] >= 20

    def test_event_mix_plausible(self):
        res = synth_dataset(SynthConfig(n_parcels=400, pixels_per_parcel=1, seed=33))
        counts = {0: 0, 1: 0, 2: 0}
        for lab in res.dataset.labels.values():
            counts[len(lab.event_doys)] += 1
        assert counts[1] > 0.6 * 400
        assert 0 < counts[0] < 0.2 * 400
        assert 0 < counts[2] < 0.25 * 400

    def test_observation_gaps_realistic(self, result):
        covs = [float(np.mean(np.isnan(px.ndvi))) for px in result.dataset.pixels]
        assert 0.05 < float(np.mean(covs)) < 0.33

    def test_mow_event_visible_in_ndvi(self, result):
        ds = result.dataset
        hits = 0
        for pid, lab in ds.labels.items():
            if len(lab.event_doys) != 1:
                continue
            agg = parcel_series(ds, pid)
            e = lab.event_doys[0]
            before = ds.grid.nearest_index(e - 6)
            after = ds.grid.nearest_index(e + 6)
            a, b = agg.ndvi[before], agg.ndvi[after]
            if not (np.isnan(a) or np.isnan(b)) and a - b > 0.1:
                hits += 1
        assert hits >= 10

    def test_radar_reacts_to_mowing(self, result):
        """Coherence jumps after a mow even where optical is unavailable."""
        ds = result.dataset
        jumps = []
        for pid, lab in ds.labels.items():
            if len(lab.event_doys) != 1:
                continue
            agg = parcel_series(ds, pid)
            e = lab.event_doys[0]
            i = ds.grid.nearest_index(e)
            if 2 <= i < ds.grid.length - 2:
                pre = float(np.mean(agg.sar["coh_vv"][i - 2:i]))
                post = float(np.max(agg.sar["coh_vv"][i:i + 2]))
                jumps.append(post - pre)
        assert np.mean(jumps) > 0.05

    def test_cirrus_logged_and_optical_only(self):
        cfg = SynthConfig(
            n_parcels=60, pixels_per_parcel=8, seed=17,
            cirrus_rate=0.15, cirrus_depth=(0.2, 0.4),
            mow_probabilities={0: 1.0, 1: 0.0, 2: 0.0},
        )
        res = synth_dataset(cfg)
        n_hits = sum(len(h) for h in res.cirrus.values())
        assert n_hits > 50
        ndvi_dips, coh_dips = [], []
        for pid, hits in res.cirrus.items():
            agg = parcel_series(res.dataset, pid)
            cirrus_steps = {s for s, _ in hits}
            for step, depth in hits:
                lo, hi = step - 1, step + 1
                if lo < 0 or hi >= res.dataset.grid.length:
                    continue
                if lo in cirrus_steps or hi in cirrus_steps:
                    continue
                if np.isnan(agg.ndvi[lo]) or np.isnan(agg.ndvi[hi]) or np.isnan(agg.ndvi[step]):
                    continue
                neigh_ndvi = 0.5 * (agg.ndvi[lo] + agg.ndvi[hi])
                neigh_coh = 0.5 * (agg.sar["coh_vv"][lo] + agg.sar["coh_vv"][hi])
                ndvi_dips.append((neigh_ndvi - agg.ndvi[step]) / depth)
                coh_dips.append(neigh_coh - agg.sar["coh_vv"][step])
        assert len(ndvi_dips) > 15
        # optical dips by roughly the logged depth relative to its neighbors...
        assert 0.6 < float(np.mean(ndvi_dips)) < 1.4
        # ...while coherence shows no systematic deflection at those steps
        assert abs(float(np.mean(coh_dips))) < 0.03

    def test_pools_cover_all_regions(self, result):
        assert set(result.pools) == {0, 1, 2}
        for pool in result.pools.values():
            assert 0.35 < np.mean([m.coverage for m in pool.masks]) < 0.55


def test_radar_noise_block_equals_separate_draws():
    """The generator draws a parcel's four radar noise series as one
    (4, p, T) block; that block is bit-identical to four (p, T) draws made
    one after another from the same stream."""
    from gapfuse.cloudsim import RADAR_NOISE_SD, _ar1

    block = _ar1((4, 7, 29), RADAR_NOISE_SD[:, None, None], 0.5, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    separate = np.stack([_ar1((7, 29), float(sd), 0.5, rng) for sd in RADAR_NOISE_SD])
    np.testing.assert_array_equal(block, separate)
