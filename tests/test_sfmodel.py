"""Fusion model: input encoding, masking semantics, training determinism,
gap filling and the anomaly filter."""

import numpy as np
import pytest

from gapfuse import (
    NDVI_SENTINEL,
    SAR_CHANNELS,
    NormStats,
    SfArchitecture,
    SfModel,
    SfNet,
    SynthConfig,
    TemporalGrid,
    TrainConfig,
    TrainingSet,
    assemble_training_set,
    cloud_filter,
    encode_arrays,
    gapfill_sf,
    predict_batch,
    sar_group_channels,
    sar_stack,
    synth_dataset,
    train,
    train_dnn_detector,
)
from gapfuse.neural import grad_check

GRID = TemporalGrid()

TINY_ARCH = SfArchitecture(
    channels=("ndvi", "coh_vv", "sigma0_vh_db"),
    conv_filters=(2, 3),
    branch_dense=(4, 3),
    lstm_hidden=2,
)


def unit_stats(channels):
    n = len(channels)
    return NormStats(channels=tuple(channels), mean=np.zeros(n), sd=np.ones(n))


@pytest.fixture(scope="module")
def synth():
    return synth_dataset(SynthConfig(n_parcels=24, pixels_per_parcel=4, n_regions=2, seed=5))


@pytest.fixture(scope="module")
def training(synth):
    return assemble_training_set(synth.dataset, dict(synth.pools), np.random.default_rng(7))


@pytest.fixture(scope="module")
def tiny_model(training):
    cfg = TrainConfig(max_epochs=3, batch_size=64, seed=1)
    model, report = train(training, cfg, TINY_ARCH)
    return model, report


def detection_data(n=48, seed=3):
    """Noisy seasonal rows with one dip each; labels mark the dip."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, GRID.length)
    series = np.clip(0.25 + 0.55 * np.sin(np.pi * t) + rng.normal(0, 0.02, (n, GRID.length)), 0.02, 0.98)
    dips = rng.integers(6, 23, n)
    series[np.arange(n), dips] -= 0.3
    labels = np.zeros_like(series)
    labels[np.arange(n), dips] = 1.0
    return series, labels


@pytest.fixture(scope="module")
def tiny_detector():
    return train_dnn_detector(*detection_data(), GRID, TrainConfig(max_epochs=3, batch_size=16, seed=1))


def train_head(head, training, config):
    if head == "regression":
        return train(training, config, TINY_ARCH)
    return train_dnn_detector(*detection_data(), GRID, config)


@pytest.fixture(params=["regression", "detection"])
def tiny_head(request):
    """(head, (model, report)) of the tiny training run of each head."""
    return request.param, request.getfixturevalue("tiny_model" if request.param == "regression"
                                                  else "tiny_detector")


# Per-epoch losses of the tiny runs, recorded before both heads shared one
# epoch loop.  The detector's training loss is not pinned: it was then an
# unweighted mean of the batch losses.
PINNED_VAL_LOSSES = {
    "regression": (0.6722210778595403, 0.5292118911472102, 0.39211020958918225),
    "detection": (0.68527456747641, 0.6820348486831187, 0.6759745614901157),
}
PINNED_TRAIN_LOSSES = (0.903788821082637, 0.7646542511770766, 0.6274456189823676)


class TestEncoding:
    def test_sentinel_and_flags(self):
        ndvi = np.array([[0.5, np.nan, 0.7]])
        sar = np.zeros((1, 3, 8))
        x, flags = encode_arrays(ndvi, sar, unit_stats(SAR_CHANNELS), SfArchitecture())
        assert np.array_equal(flags, [[1.0, 0.0, 1.0]])
        assert x[0, 1, 0] == NDVI_SENTINEL
        assert x[0, 0, 0] == np.float32(0.5)

    def test_zscoring(self):
        ndvi = np.full((1, 2), 0.5)
        sar = np.zeros((1, 2, 8))
        sar[0, :, SAR_CHANNELS.index("coh_vv")] = [0.3, 0.7]
        stats = NormStats(channels=("coh_vv",), mean=np.array([0.5]), sd=np.array([0.2]))
        arch = SfArchitecture(channels=("ndvi", "coh_vv"))
        x, _ = encode_arrays(ndvi, sar, stats, arch)
        assert np.allclose(x[0, :, 1], [-1.0, 1.0])

    def test_missing_stats_channel_rejected(self):
        with pytest.raises(ValueError):
            encode_arrays(
                np.zeros((1, 2)), np.zeros((1, 2, 8)),
                unit_stats(("coh_vv",)), SfArchitecture(channels=("ndvi", "rvi")),
            )

    def test_norm_stats_validation(self):
        with pytest.raises(ValueError):
            NormStats(channels=("a",), mean=np.zeros(1), sd=np.zeros(1))
        with pytest.raises(ValueError):
            NormStats(channels=("a", "b"), mean=np.zeros(1), sd=np.ones(1))

    def test_from_sar(self):
        sar = np.arange(12, dtype=float).reshape(2, 3, 2)
        stats = NormStats.from_sar(sar, ("u", "v"))
        assert np.allclose(stats.mean, [5.0, 6.0])
        assert np.allclose(stats.sd, sar.reshape(-1, 2).std(axis=0))


class TestArchitecture:
    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError):
            SfArchitecture(channels=("ndvi", "bogus"))

    def test_duplicate_channel_rejected(self):
        with pytest.raises(ValueError):
            SfArchitecture(channels=("ndvi", "ndvi"))

    def test_head_validated(self):
        with pytest.raises(ValueError):
            SfArchitecture(head="classification")

    def test_param_names_unique(self):
        net = SfNet(SfArchitecture(), np.random.default_rng(0))
        names = [n for n, _, _ in net.params()]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("arch", [
        SfArchitecture(), TINY_ARCH, SfArchitecture(channels=("ndvi",), head="detection"),
        SfArchitecture(channels=("rvi", "coh_vh"), conv_filters=(3, 5), kernel=5, branch_dense=(7, 4),
                       lstm_hidden=6),
    ])
    def test_n_params_counts_the_built_net(self, arch):
        net = SfNet(arch, np.random.default_rng(0))
        assert arch.n_params == sum(p.size for _, p, _ in net.params())

    def test_model_checks_stats_channels(self):
        net = SfNet(TINY_ARCH, np.random.default_rng(0))
        with pytest.raises(ValueError):
            SfModel(arch=TINY_ARCH, stats=unit_stats(("coh_vv",)), grid=GRID, net=net)


class TestMaskingSemantics:
    def test_absent_values_cannot_leak(self):
        """With the presence flag at 0, the stored NDVI value at that step
        must not influence the output at any step."""
        net = SfNet(TINY_ARCH, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, GRID.length, 3)).astype(np.float32)
        flags = (rng.uniform(size=(1, GRID.length)) > 0.4).astype(np.float32)
        y0 = net.forward(x, flags)
        x2 = x.copy()
        x2[0, flags[0] == 0.0, 0] = 999.0
        y1 = net.forward(x2, flags)
        assert np.array_equal(y0, y1)

    def test_present_values_do_leak(self):
        net = SfNet(TINY_ARCH, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, GRID.length, 3)).astype(np.float32)
        flags = np.ones((1, GRID.length), dtype=np.float32)
        y0 = net.forward(x, flags)
        x2 = x.copy()
        x2[0, 5, 0] += 1.0
        assert not np.array_equal(y0, net.forward(x2, flags))

    def test_flags_required_when_ndvi_present(self):
        net = SfNet(TINY_ARCH, np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 4, 3), dtype=np.float32))


class TestNetGradients:
    def test_full_fragment_gradcheck(self):
        net = SfNet(TINY_ARCH, np.random.default_rng(8))
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 8, 3))
        net.flags = (rng.uniform(size=(2, 8)) > 0.3).astype(np.float64)
        report = grad_check(net, 0.5 * x, max_coords_per_tensor=6, rng=rng)
        assert report.passed

    def test_detection_head_gradcheck(self):
        arch = SfArchitecture(
            channels=("ndvi",), conv_filters=(2, 3), branch_dense=(4, 3),
            lstm_hidden=2, head="detection",
        )
        net = SfNet(arch, np.random.default_rng(10))
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 8, 1))
        net.flags = np.ones((2, 8))
        assert grad_check(net, x, max_coords_per_tensor=6, rng=rng).passed


class TestAssembly:
    def test_class_codes(self, training):
        assert set(np.unique(training.weight_class)) <= {0, 1, 2}
        # hidden steps exist and carry NaN inputs with finite targets
        hidden = training.weight_class == 2
        assert hidden.any()
        assert np.all(np.isnan(training.ndvi_in[hidden]))
        assert np.all(np.isfinite(training.target))

    def test_visible_steps_keep_observations(self, training):
        vis = training.weight_class == 1
        assert np.allclose(training.ndvi_in[vis], training.target[vis])

    def test_interpolated_steps_have_no_observation(self, training):
        assert np.all(np.isnan(training.ndvi_in[training.weight_class == 0]))

    def test_row_metadata_aligned(self, training):
        assert (
            training.n
            == training.sar.shape[0]
            == training.pixel_ids.size
            == training.parcel_ids.size
            == training.mask_coverages.size
        )
        assert training.sar.shape[2] == 8

    def test_parcel_shares_one_mask(self, training):
        """The artificial mask is drawn once per parcel: no step may be
        visible (class 1) for one pixel yet hidden (class 2) for a sibling,
        and the recorded coverages agree within the parcel."""
        for pid in np.unique(training.parcel_ids):
            rows = np.flatnonzero(training.parcel_ids == pid)
            cls = training.weight_class[rows]
            visible_anywhere = (cls == 1).any(axis=0)
            hidden_anywhere = (cls == 2).any(axis=0)
            assert not (visible_anywhere & hidden_anywhere).any()
            assert np.unique(training.mask_coverages[rows]).size == 1


class TestTraining:
    @pytest.mark.parametrize("head", ["regression", "detection"])
    def test_deterministic(self, training, head):
        cfg = TrainConfig(max_epochs=2, batch_size=32, seed=3)
        m1, r1 = train_head(head, training, cfg)
        m2, r2 = train_head(head, training, cfg)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses
        s1, s2 = m1.net.get_state(), m2.net.get_state()
        assert all(np.array_equal(s1[k], s2[k]) for k in s1)

    def test_seed_changes_model(self, training):
        m1, _ = train(training, TrainConfig(max_epochs=1, batch_size=64, seed=3), TINY_ARCH)
        m2, _ = train(training, TrainConfig(max_epochs=1, batch_size=64, seed=4), TINY_ARCH)
        s1, s2 = m1.net.get_state(), m2.net.get_state()
        assert any(not np.array_equal(s1[k], s2[k]) for k in s1)

    def test_loss_decreases(self, tiny_model):
        _, report = tiny_model
        assert report.train_losses[-1] < report.train_losses[0]

    def test_report_consistency(self, tiny_head):
        head, (_, report) = tiny_head
        assert len(report.train_losses) == len(report.val_losses) == report.stopped_epoch + 1
        assert 0 <= report.best_epoch <= report.stopped_epoch
        assert report.val_losses[report.best_epoch] == min(report.val_losses)
        assert report.n_val > 0
        if head == "regression":
            assert 0.0 < report.mask_coverage_mean < 1.0
            assert report.pos_weight is None
        else:
            assert report.mask_coverage_mean is None
            assert report.pos_weight > 1.0

    def test_losses_match_the_separate_trainers(self, tiny_head):
        head, (_, report) = tiny_head
        assert report.val_losses == pytest.approx(PINNED_VAL_LOSSES[head], rel=1e-6)
        if head == "regression":
            assert report.train_losses == pytest.approx(PINNED_TRAIN_LOSSES, rel=1e-6)

    def test_params_stay_float32(self, tiny_model):
        model, _ = tiny_model
        assert all(p.dtype == np.float32 for _, p, _ in model.net.params())

    def test_sar_only_architecture_trains(self, training):
        arch = SfArchitecture(
            channels=("coh_vv",), conv_filters=(2, 2), branch_dense=(3, 2), lstm_hidden=2,
        )
        model, _ = train(training, TrainConfig(max_epochs=1, batch_size=64, seed=0), arch)
        assert model.arch.channels == ("coh_vv",)


class TestPrediction:
    def test_regression_output_clamped(self, tiny_model, training):
        model, _ = tiny_model
        pred = predict_batch(model, training.ndvi_in[:8], training.sar[:8])
        assert pred.shape == (8, GRID.length)
        assert np.all(pred >= -1.0) and np.all(pred <= 1.0)

    def test_refuses_series_off_the_model_grid(self, tiny_model):
        """A 29-step model must not score a 40-step block."""
        model, _ = tiny_model
        ndvi = np.full((2, 40), 0.5)
        with pytest.raises(ValueError, match="grid length 29"):
            predict_batch(model, ndvi, np.zeros((2, 40, len(SAR_CHANNELS))))

    def test_gapfill_preserves_observations(self, tiny_model, synth):
        model, _ = tiny_model
        px = synth.dataset.pixels[0]
        filled = gapfill_sf(model, px)
        present = ~np.isnan(px.ndvi)
        assert np.array_equal(filled[present], px.ndvi[present])
        assert np.all(np.isfinite(filled))

    def test_gapfill_with_filter_replaces_flagged(self, tiny_model, synth):
        model, _ = tiny_model
        px = synth.dataset.pixels[0]
        flags = cloud_filter(model, px, threshold=0.0)
        filled = gapfill_sf(model, px, cloud_filter_threshold=0.0)
        pred = predict_batch(model, synth.dataset.ndvi[:1], synth.dataset.sar[:1])[0]
        assert np.allclose(filled[flags], pred[flags])

    def test_gapfill_with_filter_runs_the_net_once(self, tiny_model, synth, monkeypatch):
        model, _ = tiny_model
        calls = []
        forward = SfNet.forward

        def counted(self, *args, **kwargs):
            calls.append(args[0].shape[0])
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(SfNet, "forward", counted)
        gapfill_sf(model, synth.dataset.pixels[0], cloud_filter_threshold=0.0)
        assert calls == [1]

    def test_cloud_filter_only_flags_present(self, tiny_model, synth):
        model, _ = tiny_model
        px = synth.dataset.pixels[1]
        flags = cloud_filter(model, px, threshold=-10.0)
        assert np.array_equal(flags, ~np.isnan(px.ndvi))
        assert not cloud_filter(model, px, threshold=10.0).any()


class TestInferencePath:
    """Every forward outside a training step sees at most one default
    training batch of rows, and chunking leaves predictions unchanged."""

    ROWS = TrainConfig().batch_size

    @pytest.fixture
    def forwarded(self, monkeypatch):
        rows = []
        forward = SfNet.forward

        def spy(self, x, *args, **kwargs):
            rows.append(x.shape[0])
            return forward(self, x, *args, **kwargs)

        monkeypatch.setattr(SfNet, "forward", spy)
        return rows

    def test_predict_batch_chunks_match_one_whole_forward(self, tiny_model, training, forwarded):
        model, _ = tiny_model
        take = np.arange(2 * self.ROWS + 3) % training.n
        ndvi, sar = training.ndvi_in[take], training.sar[take]
        pred = predict_batch(model, ndvi, sar)
        assert forwarded == [self.ROWS, self.ROWS, 3]
        whole = model.net.forward(*encode_arrays(ndvi, sar, model.stats, model.arch))
        assert np.array_equal(pred, whole.astype(np.float64))

    def test_regression_validation_pass(self, training, forwarded):
        take = np.arange(600) % training.n
        tiled = TrainingSet(
            grid=training.grid, ndvi_in=training.ndvi_in[take], sar=training.sar[take],
            target=training.target[take], weight_class=training.weight_class[take],
            pixel_ids=np.arange(600), parcel_ids=np.arange(600) // 100,
            region_ids=training.region_ids[take], mask_coverages=training.mask_coverages[take],
        )
        _, report = train(tiled, TrainConfig(max_epochs=1, validation_fraction=0.5, seed=0), TINY_ARCH)
        assert report.n_val == 300
        assert sum(forwarded) == report.n_train + report.n_val
        assert max(forwarded) <= self.ROWS

    def test_detector_validation_pass(self, forwarded):
        rng = np.random.default_rng(3)
        series = rng.uniform(0.1, 0.9, (600, GRID.length))
        labels = np.zeros_like(series)
        labels[np.arange(600), rng.integers(0, GRID.length, 600)] = 1.0
        train_dnn_detector(series, labels, GRID, TrainConfig(max_epochs=1, validation_fraction=0.5))
        assert sum(forwarded) == 600
        assert max(forwarded) <= self.ROWS


class TestFeatureGroups:
    def test_expansion(self):
        assert sar_group_channels({"ndvi"}) == ("ndvi",)
        assert sar_group_channels({"coherence"}) == ("coh_vv", "coh_vh", "mixed_coherence")
        assert sar_group_channels({"sigma0"}) == (
            "sigma0_vv_db", "sigma0_vh_db", "sigma0_ratio", "sigma0_cross_ratio_db", "rvi",
        )

    def test_union_keeps_canonical_order(self):
        full = sar_group_channels({"ndvi", "sigma0", "coherence"})
        assert full == ("ndvi",) + SAR_CHANNELS

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            sar_group_channels({"optical"})


class TestSarStack:
    def test_channel_order(self, synth):
        px = synth.dataset.pixels[0]
        stack = sar_stack(px)
        assert stack.shape == (GRID.length, 8)
        for k, c in enumerate(SAR_CHANNELS):
            assert np.array_equal(stack[:, k], px.sar[c])
