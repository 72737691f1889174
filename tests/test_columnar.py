"""The columnar Dataset: parcel aggregation over all parcels at once, checked
against one-parcel-at-a-time averaging, and CLI stages that never build a
per-pixel object."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfuse import (
    SAR_CHANNELS,
    Dataset,
    ParcelLabel,
    PixelSeries,
    TemporalGrid,
    parcel_aggregates,
    parcel_series,
    read_dataset,
)
from gapfuse.cli import main


def reference_parcel_series(dataset: Dataset, parcel_id: int) -> tuple[np.ndarray, np.ndarray]:
    """(T,) NDVI and (T, 8) radar of one parcel, averaged over its own
    pixels: the majority rule and the sums of the per-parcel aggregation."""
    members = dataset.parcel_pixels(parcel_id)
    ndvi_stack = np.stack([p.ndvi for p in members])
    present = ~np.isnan(ndvi_stack)
    count = present.sum(axis=0)
    keep = count > (len(members) / 2.0)
    summed = np.where(present, ndvi_stack, 0.0).sum(axis=0)
    ndvi = np.full(dataset.grid.length, np.nan)
    ndvi[keep] = summed[keep] / count[keep]
    sar = [np.mean(np.stack([p.sar[name] for p in members]), axis=0) for name in SAR_CHANNELS]
    return np.clip(ndvi, -1.0, 1.0), np.stack(sar, axis=1)


@st.composite
def scenes(draw):
    """A dataset of parcels of unequal sizes (one-pixel parcels included)
    whose pixels are interleaved in construction order, with values spread
    over many magnitudes so that a change in summation order shows."""
    t = draw(st.integers(1, 7))
    sizes = draw(st.lists(st.integers(1, 11), min_size=1, max_size=6))
    parcel_ids = draw(st.lists(st.integers(-50, 50), min_size=len(sizes), max_size=len(sizes), unique=True))
    parcel_of = np.repeat(parcel_ids, sizes)
    parcel_of = parcel_of[draw(st.permutations(range(parcel_of.size)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = parcel_of.size
    ndvi = rng.uniform(-1.0, 1.0, (n, t)) * 10.0 ** rng.integers(-4, 1, (n, t))
    ndvi[rng.random((n, t)) < 0.05] = -0.0
    present = rng.random((n, t)) < draw(st.sampled_from([0.3, 0.5, 0.8]))
    if draw(st.booleans()):
        # step 0 observed by exactly half the pixels of each even-sized parcel
        for pid, m in zip(parcel_ids, sizes):
            if m % 2 == 0:
                rows = np.flatnonzero(parcel_of == pid)
                present[rows, 0] = np.arange(m) < m // 2
    ndvi[~present] = np.nan
    sar = rng.normal(0.0, 1.0, (n, t, 8)) * 10.0 ** rng.integers(-5, 4, (n, t, 8))
    sar[:, :, [2, 3, 6]] = rng.uniform(0.0, 1.0, (n, t, 3))
    return Dataset.from_arrays(TemporalGrid(length=t), rng.permutation(n) * 7 + 3, parcel_of,
                               parcel_of % 3, ndvi, sar)


class TestParcelAggregates:
    @settings(max_examples=200, deadline=None)
    @given(scenes())
    def test_block_matches_one_parcel_at_a_time(self, ds):
        ndvi, sar = parcel_aggregates(ds)
        assert ndvi.shape == (len(ds.parcel_ids), ds.grid.length)
        for k, pid in enumerate(ds.parcel_ids):
            want_ndvi, want_sar = reference_parcel_series(ds, pid)
            assert ndvi[k].tobytes() == want_ndvi.tobytes()
            assert sar[k].tobytes() == want_sar.tobytes()
            one = parcel_series(ds, pid)
            assert one.ndvi.tobytes() == want_ndvi.tobytes()
            assert (one.pixel_id, one.parcel_id) == (pid, pid)

    @settings(max_examples=50, deadline=None)
    @given(scenes(), st.data())
    def test_parcels_come_in_the_order_asked(self, ds, data):
        asked = data.draw(st.permutations(ds.parcel_ids))
        ndvi, sar = parcel_aggregates(ds, asked)
        every_ndvi, every_sar = parcel_aggregates(ds)
        at = [ds.parcel_ids.index(p) for p in asked]
        assert ndvi.tobytes() == every_ndvi[at].tobytes()
        assert sar.tobytes() == every_sar[at].tobytes()

    def test_unknown_parcel_is_a_key_error(self):
        ds = Dataset.from_arrays(TemporalGrid(length=2), [1], [4], [0], np.zeros((1, 2)),
                                 np.full((1, 2, 8), 0.5))
        with pytest.raises(KeyError, match="unknown parcel 9"):
            parcel_aggregates(ds, [4, 9])


def _grid_dataset(n=4, t=3) -> tuple[TemporalGrid, dict]:
    grid = TemporalGrid(start_doy=100, step_days=6, length=t)
    columns = dict(pixel_ids=np.arange(n) * 10, parcel_ids=np.array([5, 2, 5, 2])[:n],
                   region_ids=np.array([1, 0, 1, 0])[:n], ndvi=np.full((n, t), 0.5),
                   sar=np.full((n, t, 8), 0.5))
    return grid, columns


class TestColumnarDataset:
    def test_rows_keep_construction_order_and_group_by_parcel(self):
        grid, cols = _grid_dataset()
        ds = Dataset.from_arrays(grid, **cols)
        assert ds.pixel_ids.tolist() == [0, 10, 20, 30]
        assert ds.parcel_ids == (2, 5)
        assert ds.parcel_sizes.tolist() == [2, 2]
        assert ds.parcel_order.tolist() == [1, 3, 0, 2]
        assert ds.parcel_region_ids == (0, 1)
        assert [p.pixel_id for p in ds.parcel_pixels(5)] == [0, 20]

    def test_arrays_are_taken_over_read_only(self):
        grid, cols = _grid_dataset()
        cols["sar"] = cols["sar"].astype(np.float32)
        ds = Dataset.from_arrays(grid, **cols)
        assert ds.ndvi is cols["ndvi"] and ds.sar.dtype == np.float64
        for arr in (ds.ndvi, ds.sar, ds.pixel_ids, ds.parcel_order):
            assert not arr.flags.writeable
        with pytest.raises(AttributeError):
            ds.labels = {}

    @pytest.mark.parametrize("edits, message", [
        ([("ndvi", (2, 1), 1.5), ("sar", (3, 0, 0), np.nan)], r"ndvi values must lie in \[-1, 1\]"),
        ([("sar", (1, 0, 7), np.nan), ("ndvi", (3, 1), -1.5)], "channel rvi contains NaN"),
        ([("sar", (1, 0, 7), np.nan), ("sar", (1, 2, 2), np.nan)], "channel coh_vv contains NaN"),
        ([("sar", (1, 2, 6), 1.2), ("sar", (2, 0, 0), np.nan)], r"channel mixed_coherence must lie in \[0, 1\]"),
        ([("pixel_ids", 3, 10)], "duplicate pixel_id 10"),
        # the per-pixel checks run before the dataset's, as when PixelSeries are made first
        ([("pixel_ids", 1, 0), ("ndvi", (3, 0), 2.0)], r"ndvi values must lie in \[-1, 1\]"),
    ])
    def test_the_first_failing_pixel_is_named_as_a_pixel_series_would(self, edits, message):
        grid, cols = _grid_dataset()
        for name, index, value in edits:
            cols[name][index] = value
        with pytest.raises(ValueError, match=message):
            Dataset.from_arrays(grid, **cols)

    def test_row_views_match_the_columns(self):
        grid, cols = _grid_dataset()
        ds = Dataset.from_arrays(grid, **cols)
        px = ds.pixels[2]
        assert (px.pixel_id, px.parcel_id, px.region_id) == (20, 5, 1)
        assert px.sar["coh_vh"].tobytes() == ds.sar[2, :, 3].tobytes()
        with pytest.raises(ValueError):
            px.ndvi[0] = 0.0
        again = Dataset(grid, ds.pixels)
        assert again.ndvi.tobytes() == ds.ndvi.tobytes() and again.sar.tobytes() == ds.sar.tobytes()

    def test_select_subsets_rows_replaces_ndvi_and_drops_orphan_labels(self):
        grid, cols = _grid_dataset()
        ds = Dataset.from_arrays(grid, **cols, labels={2: ParcelLabel(2, (112,)), 5: ParcelLabel(5)})
        sub = ds.select([3, 1], np.array([[0.1, np.nan, 0.2], [0.3, 0.4, np.nan]]))
        assert sub.pixel_ids.tolist() == [30, 10]
        assert sub.ndvi[0, 0] == 0.1 and sub.sar.tobytes() == ds.sar[[3, 1]].tobytes()
        assert set(sub.labels) == {2}
        assert ds.select(np.array([True, False, True, False])).parcel_ids == (5,)
        with pytest.raises(ValueError, match="ndvi values"):
            ds.select(ndvi=np.full((4, 3), -1.5))
        with pytest.raises(ValueError, match="duplicate pixel_id"):
            ds.select([0, 0])


def _count_pixel_series(monkeypatch) -> list[str]:
    """Record every PixelSeries construction: checked, as a row view, or
    through `with_ndvi`."""
    made: list[str] = []
    post_init, view, with_ndvi = PixelSeries.__post_init__, PixelSeries._view, PixelSeries.with_ndvi

    def counted_post_init(self):
        made.append("init")
        post_init(self)

    def counted_view(cls, *args):
        made.append("view")
        return view(*args)

    def counted_with_ndvi(self, ndvi):
        made.append("with_ndvi")
        return with_ndvi(self, ndvi)

    monkeypatch.setattr(PixelSeries, "__post_init__", counted_post_init)
    monkeypatch.setattr(PixelSeries, "_view", classmethod(counted_view))
    monkeypatch.setattr(PixelSeries, "with_ndvi", counted_with_ndvi)
    return made


def test_rule_pipeline_builds_no_pixel_series(tmp_path, monkeypatch):
    scene, pre = tmp_path / "scene", tmp_path / "pre"
    assert main(["synth", "--out", str(scene), "--parcels", "12", "--pixels-per-parcel", "4",
                 "--regions", "2", "--seed", "5"]) == 0
    made = _count_pixel_series(monkeypatch)
    steps = [
        ["preprocess", "--in", str(scene), "--out", str(pre)],
        ["gapfill", "--in", str(pre), "--out", str(tmp_path / "filled"), "--method", "akima"],
        ["detect", "--in", str(pre), "--out", str(tmp_path / "events.csv"), "--fill", "akima", "--algo", "mda2"],
        ["eval", "--pred", str(tmp_path / "events.csv"), "--truth", str(scene / "labels.csv"),
         "--out", str(tmp_path / "score"), "--in", str(scene)],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
        assert made == [], (argv[0], made[:3])
    # the counter does see row views when something asks for them
    assert len(read_dataset(pre).pixels) == 48 and made.count("view") == 48
