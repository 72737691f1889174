"""Event detectors: threshold rule, envelope rule, learned detector, and
the parcel-level pipeline assembly."""

import numpy as np
import pytest

from gapfuse import (
    Event,
    EventSet,
    Mda1Params,
    Mda2Params,
    OutlierParams,
    SynthConfig,
    TemporalGrid,
    TrainConfig,
    cloud_filter,
    detect_parcel,
    dnn_detect,
    gapfill_sf,
    mda1,
    mda2,
    parcel_series,
    synth_dataset,
    train_dnn_detector,
)
from gapfuse.detect import (
    decode_probabilities,
    dnn_predict,
    envelope_knots,
    labels_to_binary,
    parcel_fill_batch,
)
from gapfuse.core import ParcelLabel

GRID = TemporalGrid()


def flat(v=0.6):
    return np.full(GRID.length, v)


class TestMda1:
    def test_single_drop_fires_at_lower_point(self):
        s = flat()
        s[10:] = 0.4
        got = mda1(s, GRID)
        assert got.doys == (int(GRID.doy(10)),)

    def test_subthreshold_drop_silent(self):
        s = flat()
        s[10:] = 0.46
        assert mda1(s, GRID).events == ()

    def test_exact_threshold_fires(self):
        s = flat(0.75)
        s[10:] = 0.60  # drop == threshold (inclusive rule)
        assert len(mda1(s, GRID).events) == 1

    def test_continuous_decline_merges(self):
        """Back-to-back qualifying drops collapse into one event dated at
        the first qualifying step, scoring the total fall."""
        s = flat(0.9)
        s[10] = 0.7
        s[11] = 0.5
        s[12:] = 0.3
        got = mda1(s, GRID)
        assert got.doys == (int(GRID.doy(10)),)
        assert got.events[0].score == pytest.approx(0.6)

    def test_separated_drops_stay_distinct(self):
        s = flat(0.9)
        s[5:10] = 0.6
        s[10:14] = 0.85  # regrowth resets the run
        s[14:] = 0.55
        got = mda1(s, GRID)
        assert got.doys == (int(GRID.doy(5)), int(GRID.doy(14)))

    def test_gaps_compare_consecutive_present(self):
        s = flat(0.8)
        s[9:12] = np.nan
        s[12:] = 0.6
        got = mda1(s, GRID)
        assert got.doys == (int(GRID.doy(12)),)

    def test_rise_never_fires(self):
        s = np.linspace(0.2, 0.9, GRID.length)
        assert mda1(s, GRID).events == ()

    def test_params_validated(self):
        with pytest.raises(ValueError):
            Mda1Params(drop_threshold=0.0)


class TestMda2:
    def test_requires_full_series(self):
        s = flat()
        s[3] = np.nan
        with pytest.raises(ValueError):
            mda2(s, GRID)

    def test_self_envelope_is_silent(self):
        """A concave single-season curve IS its own envelope."""
        t = np.linspace(0, 1, GRID.length)
        s = 0.2 + 0.6 * np.sin(np.pi * t)
        assert mda2(s, GRID).events == ()

    def test_valley_dated_at_first_crossing(self):
        t = np.linspace(0, 1, GRID.length)
        s = 0.2 + 0.6 * np.sin(np.pi * t)
        s[12:17] -= np.array([0.18, 0.3, 0.35, 0.3, 0.18])
        got = mda2(s, GRID)
        assert got.doys == (int(GRID.doy(12)),)
        assert got.events[0].score == pytest.approx(0.35, abs=0.05)

    def test_two_separate_excursions(self):
        t = np.linspace(0, 1, GRID.length)
        s = 0.25 + 0.55 * np.sin(np.pi * t)
        s[8:11] -= 0.3
        s[18:21] -= 0.3
        got = mda2(s, GRID)
        assert got.doys == (int(GRID.doy(8)), int(GRID.doy(18)))

    def test_envelope_knots_include_extremes(self):
        t = np.linspace(0, 1, GRID.length)
        s = 0.2 + 0.6 * np.sin(np.pi * t)
        s[10] = 0.1
        knots = envelope_knots(s, Mda2Params())
        assert 0 in knots and GRID.length - 1 in knots
        assert int(np.argmax(s)) in knots

    def test_shallow_residual_silent(self):
        t = np.linspace(0, 1, GRID.length)
        s = 0.2 + 0.6 * np.sin(np.pi * t)
        s[14] -= 0.1
        assert mda2(s, GRID).events == ()

    def test_params_validated(self):
        with pytest.raises(ValueError):
            Mda2Params(residual_threshold=0.0)


class TestEventSet:
    def test_events_sorted_by_doy(self):
        es = EventSet(1, (Event(200), Event(150)))
        assert es.doys == (150, 200)


class TestLabelsToBinary:
    def test_nearest_step(self):
        lab = ParcelLabel(0, (160,))
        vec = labels_to_binary(lab, GRID)
        assert vec.sum() == 1
        assert vec[GRID.nearest_index(160)] == 1

    def test_collision_rejected(self):
        lab = ParcelLabel(0, (160, 161))
        with pytest.raises(ValueError):
            labels_to_binary(lab, GRID)

    def test_empty(self):
        assert labels_to_binary(ParcelLabel(0, ()), GRID).sum() == 0


class TestDecode:
    def test_local_maxima_above_threshold(self):
        p = np.zeros(GRID.length)
        p[5] = 0.9
        p[20] = 0.7
        got = decode_probabilities(p, GRID)
        assert tuple(e.doy for e in got) == (int(GRID.doy(5)), int(GRID.doy(20)))
        assert got[0].score == pytest.approx(0.9)

    def test_below_threshold_ignored(self):
        p = np.zeros(GRID.length)
        p[5] = 0.45
        assert decode_probabilities(p, GRID) == ()

    def test_suppression_keeps_strongest(self):
        p = np.zeros(GRID.length)
        p[10] = 0.8
        p[12] = 0.9  # within +-2 of step 10
        got = decode_probabilities(p, GRID)
        assert tuple(e.doy for e in got) == (int(GRID.doy(12)),)

    def test_just_outside_suppression_window(self):
        p = np.zeros(GRID.length)
        p[10] = 0.8
        p[13] = 0.9
        got = decode_probabilities(p, GRID)
        assert len(got) == 2

    def test_boundary_maximum_allowed(self):
        p = np.zeros(GRID.length)
        p[0] = 0.8
        assert decode_probabilities(p, GRID)[0].doy == int(GRID.doy(0))

    def test_shoulder_of_peak_not_event(self):
        p = np.zeros(GRID.length)
        p[9], p[10], p[11] = 0.6, 0.9, 0.6
        got = decode_probabilities(p, GRID)
        assert len(got) == 1 and got[0].score == pytest.approx(0.9)


def toy_detection_data(n=96, seed=0):
    """Smooth seasonal rows with one sharp dip each; labels mark the dip."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, GRID.length)
    base = 0.25 + 0.55 * np.sin(np.pi * t)
    series = np.empty((n, GRID.length))
    labels = np.zeros((n, GRID.length))
    for i in range(n):
        s = base + rng.normal(0, 0.015, GRID.length)
        k = int(rng.integers(6, 23))
        s[k] -= 0.35
        s[k + 1] -= 0.18
        series[i] = np.clip(s, 0.02, 0.98)
        labels[i, k] = 1.0
    return series, labels


@pytest.fixture(scope="module")
def trained():
    series, labels = toy_detection_data()
    cfg = TrainConfig(max_epochs=16, batch_size=32, seed=2, validation_fraction=0.15)
    return train_dnn_detector(series, labels, GRID, cfg), (series, labels)


class TestDnnDetector:

    def test_pos_weight_is_class_ratio(self, trained):
        (_, report), (series, labels) = trained
        # one positive step per row -> roughly T-1 negatives per positive
        assert report.pos_weight == pytest.approx(GRID.length - 1, rel=0.15)

    def test_learns_separable_dips(self, trained):
        (model, _), (series, labels) = trained
        hits = 0
        for i in range(24):
            got, probs = dnn_detect(model, series[i], GRID)
            truth_step = int(np.argmax(labels[i]))
            assert probs.shape == (GRID.length,)
            if any(abs(e.doy - GRID.doy(truth_step)) <= 6 for e in got.events):
                hits += 1
        assert hits >= 18

    def test_rejects_nan_input(self, trained):
        (model, _), _ = trained
        s = flat()
        s[3] = np.nan
        with pytest.raises(ValueError):
            dnn_predict(model, s)

    def test_refuses_series_off_the_detector_grid(self, trained):
        (model, _), _ = trained
        long = np.full((2, 40), 0.5)
        with pytest.raises(ValueError, match="grid length 29"):
            dnn_predict(model, long)
        with pytest.raises(ValueError, match="grid length 29"):
            dnn_detect(model, long[0], TemporalGrid(length=40))

    @pytest.mark.parametrize("label", [0.0, 1.0], ids=["no_positives", "all_positives"])
    def test_no_positives_rejected(self, label):
        """All-positive labels weight every step by 0 negatives per positive."""
        series, _ = toy_detection_data(n=12, seed=4)
        with pytest.raises(ValueError):
            train_dnn_detector(series, np.full_like(series, label), GRID, TrainConfig(max_epochs=1))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_dnn_detector(np.zeros((4, GRID.length)), np.zeros((4, 5)), GRID)


@pytest.fixture(scope="module")
def synth():
    return synth_dataset(SynthConfig(n_parcels=20, pixels_per_parcel=4, n_regions=2, seed=9))


@pytest.fixture(scope="module")
def sf_model(synth):
    from gapfuse import assemble_training_set, train
    from tests.test_sfmodel import TINY_ARCH

    training = assemble_training_set(synth.dataset, dict(synth.pools), np.random.default_rng(1))
    model, _ = train(training, TrainConfig(max_epochs=2, batch_size=64, seed=1), TINY_ARCH)
    return model


class TestDetectParcel:
    def test_unknown_algorithm(self, synth):
        with pytest.raises(ValueError):
            detect_parcel(synth.dataset, 0, "magic")

    def test_unknown_fill(self, synth):
        with pytest.raises(ValueError):
            detect_parcel(synth.dataset, 0, "mda1", fill_method="spline9")

    def test_sf_fill_needs_model(self, synth):
        with pytest.raises(ValueError):
            detect_parcel(synth.dataset, 0, "mda1", fill_method="sf")

    def test_dnn_needs_detector_model(self, synth):
        with pytest.raises(ValueError):
            detect_parcel(synth.dataset, 0, "dnn", fill_method="linear")

    def test_mda1_on_aggregate(self, synth):
        pid = next(p for p, lab in synth.dataset.labels.items() if len(lab.event_doys) == 1)
        got = detect_parcel(synth.dataset, pid, "mda1", fill_method="linear")
        assert got.parcel_id == pid
        truth = synth.dataset.labels[pid].event_doys[0]
        assert any(abs(d - truth) <= 12 for d in got.doys)

    def test_outlier_cleaning_drops_spike_event(self):
        """An isolated downward spike fires the drop rule unless the
        cleaning pass removes it first."""
        from gapfuse.core import PixelSeries
        from tests.test_core import dataset_of, make_sar

        s = flat(0.7)
        s[12] = 0.35
        px = PixelSeries(0, 0, 0, s, make_sar(GRID.length))
        ds = dataset_of(GRID, (px,), {0: ParcelLabel(0, ())})
        noisy = detect_parcel(ds, 0, "mda1", fill_method="linear")
        cleaned = detect_parcel(ds, 0, "mda1", fill_method="linear", outlier=OutlierParams())
        assert len(noisy.events) == 1
        assert cleaned.events == ()

    @pytest.mark.parametrize("threshold", [None, 0.0])
    def test_sf_fill_batch_matches_single(self, synth, sf_model, threshold):
        pids = list(synth.dataset.parcel_ids)[:6]
        batch = parcel_fill_batch(synth.dataset, pids, sf_model, cloud_filter_threshold=threshold)
        for pid in pids:
            agg = parcel_series(synth.dataset, pid)
            single = gapfill_sf(sf_model, agg, threshold)
            assert np.allclose(batch[pid], single, atol=1e-6)
            kept = ~np.isnan(agg.ndvi)
            if threshold is not None:
                kept = kept & ~cloud_filter(sf_model, agg, threshold)
            assert np.array_equal(batch[pid][kept], agg.ndvi[kept])

    def test_batch_cloud_filter_replaces_low_observations(self, synth, sf_model):
        pids = list(synth.dataset.parcel_ids)[:3]
        strict = parcel_fill_batch(synth.dataset, pids, sf_model, cloud_filter_threshold=-10.0)
        for pid in pids:
            agg = parcel_series(synth.dataset, pid)
            # threshold -10 flags every present step: nothing observed survives
            present = ~np.isnan(agg.ndvi)
            assert not np.array_equal(strict[pid][present], agg.ndvi[present])
