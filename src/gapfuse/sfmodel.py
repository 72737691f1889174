"""The radar-optical fusion gap-filling model.

Per-channel convolutional branches (the NDVI branch carries an input mask
that zeroes unobserved steps), a BiLSTM encoder-decoder, and a
time-distributed head: linear clamped to [-1, 1] for regression, sigmoid
for the detection variant.  Training minimizes a per-step weighted MSE with
Adam and parcel-level early stopping.  `fill_batch` is the one fill path
for every method, the interpolators and the model alike, and holds the
cloud-filter rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .cloudsim import MaskPool, bootstrap_mask
from .core import CHANNELS, NDVI_CHANNEL, SAR_CHANNELS, Dataset, PixelSeries, TemporalGrid
from .interp import (
    MIN_KNOTS_AKIMA,
    MIN_KNOTS_LINEAR,
    MIN_KNOTS_QUADRATIC,
    fill_akima,
    fill_linear,
    fill_quadratic,
)
from .neural import (
    AdamState,
    BiLstm,
    Clamp,
    Conv1D,
    Dense,
    Layer,
    MaxPool1D,
    ReLU,
    Sequential,
    Sigmoid,
    one_blas_thread,
    run_independent,
    weighted_mse,
    weighted_mse_grad,
)
from .preprocess import DensityCriteria, OutlierParams, build_target, density_mask, remove_outliers

NDVI_SENTINEL = -10.0

# (filler, minimum observations) per interpolating fill method
INTERPOLATORS = {
    "linear": (fill_linear, MIN_KNOTS_LINEAR),
    "akima": (fill_akima, MIN_KNOTS_AKIMA),
    "quadratic": (fill_quadratic, MIN_KNOTS_QUADRATIC),
}
FILL_METHODS = ("none", *INTERPOLATORS, "sf")


@dataclass(frozen=True)
class SfArchitecture:
    """Structural knobs; defaults match the reference configuration."""

    channels: tuple[str, ...] = CHANNELS
    conv_filters: tuple[int, int] = (8, 16)
    kernel: int = 3
    pool: int = 3
    branch_dense: tuple[int, int] = (32, 16)
    lstm_hidden: int = 16
    head: str = "regression"

    def __post_init__(self) -> None:
        unknown = set(self.channels) - set(CHANNELS)
        if unknown:
            raise ValueError(f"unknown channels {sorted(unknown)}")
        if len(self.channels) != len(set(self.channels)) or not self.channels:
            raise ValueError("channels must be non-empty and unique")
        if self.head not in ("regression", "detection"):
            raise ValueError("head must be 'regression' or 'detection'")

    @property
    def sar_channels(self) -> tuple[str, ...]:
        return tuple(c for c in self.channels if c != NDVI_CHANNEL)

    @property
    def has_ndvi(self) -> bool:
        return NDVI_CHANNEL in self.channels

    @property
    def n_params(self) -> int:
        """The number of parameters of the SfNet built from this
        architecture, counted without building it."""
        f1, f2 = self.conv_filters
        d1, d2 = self.branch_dense
        h = self.lstm_hidden
        c = len(self.channels)
        # the NDVI branch's first convolution also reads the presence flags
        conv1_inputs = c + self.has_ndvi
        branches = conv1_inputs * self.kernel * f1 + c * (f1 + self.kernel * f1 * f2 + f2 + f2 * d1 + d1
                                                          + d1 * d2 + d2)
        # each BiLSTM holds two cells of (H + C, 4H) weights and 4H biases
        lstm = 2 * ((h + d2 * c) * 4 * h + 4 * h) + 2 * ((h + 2 * h) * 4 * h + 4 * h)
        return branches + lstm + 2 * h + 1


@dataclass(frozen=True)
class NormStats:
    """Per-radar-channel z-scoring statistics from the training pixels."""

    channels: tuple[str, ...]
    mean: np.ndarray
    sd: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        sd = np.asarray(self.sd, dtype=np.float64)
        if mean.shape != (len(self.channels),) or sd.shape != mean.shape:
            raise ValueError("stats shapes must match the channel list")
        if not np.all(np.isfinite(mean)):
            raise ValueError("channel means must be finite")
        if not np.all(np.isfinite(sd) & (sd > 0.0)):
            raise ValueError("degenerate channel: standard deviation must be finite and > 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sd", sd)
        object.__setattr__(self, "channels", tuple(self.channels))

    @staticmethod
    def from_sar(sar: np.ndarray, channels: tuple[str, ...]) -> "NormStats":
        """sar: (N, T, C) stack ordered like `channels`; C may be 0."""
        flat = sar.reshape(sar.shape[0] * sar.shape[1], sar.shape[-1]).astype(np.float64)
        return NormStats(channels=channels, mean=flat.mean(axis=0), sd=flat.std(axis=0))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.005
    batch_size: int = 256
    max_epochs: int = 30
    early_stop_patience: int = 3
    w_alpha: float = 0.75
    w_beta: float = 0.25
    w_interp: float = 0.0
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.w_alpha, self.w_beta, self.w_interp) < 0:
            raise ValueError("loss weights must be >= 0")
        if self.early_stop_patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in [0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")


class SfNet(Layer):
    """The fusion network as one differentiable fragment.

    forward consumes (B, T, n_channels) tensors plus per-step NDVI presence
    flags (B, T) and returns (B, T) outputs; the flags enter through
    `self.flags` so the fragment keeps the single-argument Layer interface
    the gradient checker expects.  Inside, every layer runs time-major: the
    input is transposed once, to (n_channels, T, B), the branches write
    straight into one (T, B, n_channels * d2) encoder input, and the head's
    (T, B) output is transposed back once.
    """

    def __init__(self, arch: SfArchitecture, rng: np.random.Generator, dtype=np.float32):
        self.name = "sf"
        self.arch = arch
        f1, f2 = arch.conv_filters
        d1, d2 = arch.branch_dense
        self.branches: list[Sequential] = []
        for ch in arch.channels:
            c_in = 2 if ch == NDVI_CHANNEL else 1
            self.branches.append(
                Sequential(
                    [
                        Conv1D(c_in, f1, arch.kernel, rng, name=f"{ch}.conv1", dtype=dtype),
                        Conv1D(f1, f2, arch.kernel, rng, name=f"{ch}.conv2", dtype=dtype),
                        MaxPool1D(arch.pool, name=f"{ch}.pool"),
                        ReLU(name=f"{ch}.relu"),
                        Dense(f2, d1, rng, name=f"{ch}.dense1", dtype=dtype),
                        Dense(d1, d2, rng, name=f"{ch}.dense2", dtype=dtype),
                    ],
                    name=ch,
                )
            )
        h = arch.lstm_hidden
        self.encoder = BiLstm(d2 * len(arch.channels), h, rng, name="enc", dtype=dtype)
        self.decoder = BiLstm(2 * h, h, rng, name="dec", dtype=dtype)
        self.head = Dense(2 * h, 1, rng, name="head", dtype=dtype)
        self.out_act: Layer = Sigmoid(name="out") if arch.head == "detection" else Clamp(-1.0, 1.0, name="out")
        self.flags: np.ndarray | None = None
        self._flags_used: np.ndarray | None = None

    def forward(self, x: np.ndarray, flags: np.ndarray | None = None) -> np.ndarray:
        if flags is not None:
            self.flags = flags
        arch = self.arch
        if arch.has_ndvi and self.flags is None:
            raise ValueError("NDVI presence flags are required")
        b, t, n = x.shape
        d2 = arch.branch_dense[1]
        xc = np.ascontiguousarray(x.transpose(2, 1, 0))
        z = np.empty((t, b, n * d2), dtype=np.result_type(x, self.head.w))
        self._flags_used = None
        if arch.has_ndvi:
            self._flags_used = np.ascontiguousarray(np.asarray(self.flags, dtype=x.dtype).T)

        def branch(i):
            if arch.channels[i] == NDVI_CHANNEL:
                fl = self._flags_used
                branch_in = np.stack([xc[i] * fl, fl], axis=2)
            else:
                branch_in = xc[i][:, :, None]
            z[:, :, i * d2:(i + 1) * d2] = self.branches[i].forward(branch_in)

        with one_blas_thread():
            run_independent([partial(branch, i) for i in range(n)])
            z = self.encoder.forward(z)
            z = self.decoder.forward(z)
            y = np.ascontiguousarray(self.head.forward(z)[:, :, 0].T)
        return self.out_act.forward(y)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """(B, T) gradient -> (B, T, n_channels) view of the input gradient."""
        arch = self.arch
        n = len(arch.channels)
        d2 = arch.branch_dense[1]
        with one_blas_thread():
            dz = self.out_act.backward(dy)
            dz = self.head.backward(dz.T[:, :, None])
            dz = self.decoder.backward(dz)
            dz = self.encoder.backward(dz)
            t, b, _ = dz.shape
            # one copy gives every branch a contiguous (T, B, d2) block
            dz = np.ascontiguousarray(dz.reshape(t, b, n, d2).transpose(2, 0, 1, 3))
            dx = np.empty((n, t, b), dtype=dy.dtype)

            def branch(i):
                dx[i] = self.branches[i].backward(dz[i])[:, :, 0]
                if arch.channels[i] == NDVI_CHANNEL:
                    dx[i] *= self._flags_used

            run_independent([partial(branch, i) for i in range(n)])
        return dx.transpose(2, 1, 0)

    def children(self):
        return [*self.branches, self.encoder, self.decoder, self.head, self.out_act]


@dataclass(frozen=True)
class SfModel:
    """A trained network plus everything needed to apply it."""

    arch: SfArchitecture
    stats: NormStats
    grid: TemporalGrid
    net: SfNet

    def __post_init__(self) -> None:
        if tuple(self.stats.channels) != self.arch.sar_channels:
            raise ValueError("stats channels must match the architecture's radar channels")


@dataclass(frozen=True)
class TrainReport:
    train_losses: tuple[float, ...]
    val_losses: tuple[float, ...]
    best_epoch: int
    stopped_epoch: int
    n_train: int
    n_val: int
    mask_coverage_mean: float | None = None  # regression head
    pos_weight: float | None = None  # detection head


@dataclass
class TrainingSet:
    """Assembled per-pixel training arrays (NaN marks absent NDVI)."""

    grid: TemporalGrid
    ndvi_in: np.ndarray        # (N, T) inputs after artificial masking
    sar: np.ndarray            # (N, T, 8) full radar stack, SAR_CHANNELS order
    target: np.ndarray         # (N, T) fully present training target
    weight_class: np.ndarray   # (N, T) step class: 0 interpolated, 1 observed, 2 hidden
    pixel_ids: np.ndarray
    parcel_ids: np.ndarray
    region_ids: np.ndarray
    mask_coverages: np.ndarray  # coverage of the mask drawn for each sample's parcel

    @property
    def n(self) -> int:
        return self.ndvi_in.shape[0]


def sar_stack(pixel: PixelSeries) -> np.ndarray:
    """(T, 8) radar stack in canonical channel order."""
    return np.stack([pixel.sar[c] for c in SAR_CHANNELS], axis=1)


def encode_arrays(
    ndvi: np.ndarray,
    sar: np.ndarray,
    stats: NormStats,
    arch: SfArchitecture,
    dtype=np.float32,
) -> tuple[np.ndarray, np.ndarray]:
    """Build the model input tensor and presence flags.

    ndvi: (N, T) with NaN at absent steps; sar: (N, T, 8) in SAR_CHANNELS
    order.  Radar channels are z-scored with `stats`; the NDVI channel
    carries observed values with the sentinel at absent steps plus parallel
    presence flags (the network zeroes sentinel steps via the flags).
    """
    n, t = ndvi.shape
    flags = (~np.isnan(ndvi)).astype(dtype)
    x = np.empty((n, t, len(arch.channels)), dtype=dtype)
    sar_index = {c: k for k, c in enumerate(SAR_CHANNELS)}
    stats_index = {c: k for k, c in enumerate(stats.channels)}
    for i, ch in enumerate(arch.channels):
        if ch == NDVI_CHANNEL:
            x[:, :, i] = np.where(np.isnan(ndvi), NDVI_SENTINEL, ndvi).astype(dtype)
        else:
            if ch not in stats_index:
                raise ValueError(f"no normalization stats for channel {ch}")
            k = stats_index[ch]
            x[:, :, i] = ((sar[:, :, sar_index[ch]] - stats.mean[k]) / stats.sd[k]).astype(dtype)
    return x, flags


def assemble_training_set(
    dataset: Dataset,
    pools: dict[int, MaskPool],
    rng: np.random.Generator,
    outlier: OutlierParams = OutlierParams(),
    density: DensityCriteria = DensityCriteria(),
) -> TrainingSet:
    """Outlier-clean every pixel, keep the density-compliant ones, build
    Akima targets, and hide a bootstrapped per-parcel cloud mask.

    The weight_class array stores each step's CLASS (0 = interpolated
    target, 1 = visible observation, 2 = hidden observation); the trainer
    maps classes to the configured weights, so one assembly can serve
    several weight settings."""
    grid = dataset.grid
    for region in sorted(set(dataset.parcel_region_ids)):
        if region not in pools:
            raise ValueError(f"no cloud-mask pool for region {region}")
        steps = pools[region].masks[0].bits.size
        if steps != grid.length:
            raise ValueError(f"region {region}'s masks have {steps} steps, "
                             f"the dataset's grid has {grid.length}")
    # one draw per parcel in sorted order, whether or not a pixel is kept;
    # samples follow `parcel_order`
    masks = [bootstrap_mask(pools[region], rng) for region in dataset.parcel_region_ids]
    order = dataset.parcel_order
    cleaned = remove_outliers(dataset.ndvi[order], grid, outlier)
    keep = np.flatnonzero(density_mask(cleaned, grid, density))
    if keep.size == 0:
        raise ValueError("no density-compliant pixels to train on")
    rows = order[keep]
    cleaned = cleaned[keep]
    hide = np.repeat(np.array([m.bits for m in masks]), dataset.parcel_sizes, axis=0)[keep]
    target, observed = build_target(cleaned, grid)
    ndvi_in = cleaned.copy()
    ndvi_in[hide] = np.nan
    cls = np.zeros(cleaned.shape, dtype=np.int8)
    cls[observed & ~hide] = 1
    cls[observed & hide] = 2
    return TrainingSet(
        grid=grid,
        ndvi_in=ndvi_in,
        sar=dataset.sar[rows],
        target=target,
        weight_class=cls,
        pixel_ids=dataset.pixel_ids[rows],
        parcel_ids=dataset.pixel_parcel_ids[rows],
        region_ids=dataset.pixel_region_ids[rows],
        mask_coverages=np.repeat([m.coverage for m in masks], dataset.parcel_sizes)[keep],
    )


def _class_weights(cls: np.ndarray, config: TrainConfig) -> np.ndarray:
    w = np.empty_like(cls, dtype=np.float64)
    w[cls == 0] = config.w_interp
    w[cls == 1] = config.w_beta
    w[cls == 2] = config.w_alpha
    return w


def train(
    training: TrainingSet,
    config: TrainConfig = TrainConfig(),
    arch: SfArchitecture = SfArchitecture(),
) -> tuple[SfModel, TrainReport]:
    """Fit the network on an assembled training set.

    Deterministic for a fixed (training, config, arch): parameter init,
    validation split and batch order all derive from config.seed.  The
    validation split holds whole parcels, at least one when
    validation_fraction > 0; `fit` runs the epochs.
    """
    parcels = np.unique(training.parcel_ids)
    n_val_parcels = int(round(config.validation_fraction * parcels.size))
    if config.validation_fraction > 0 and parcels.size >= 2:
        n_val_parcels = max(n_val_parcels, 1)
    val_parcels = split_rng(config.seed).permutation(parcels)[:n_val_parcels]
    is_val = np.isin(training.parcel_ids, val_parcels)
    train_idx = np.flatnonzero(~is_val)
    val_idx = np.flatnonzero(is_val)
    if train_idx.size == 0:
        raise ValueError("validation split left no training samples")

    cols = [SAR_CHANNELS.index(c) for c in arch.sar_channels]
    stats = NormStats.from_sar(training.sar[train_idx][:, :, cols], arch.sar_channels)
    x, flags = encode_arrays(training.ndvi_in, training.sar, stats, arch)
    net, report = fit(arch, x, flags, training.target.astype(np.float32),
                      _class_weights(training.weight_class, config), weighted_mse, weighted_mse_grad,
                      train_idx, val_idx, config)
    model = SfModel(arch=arch, stats=stats, grid=training.grid, net=net)
    return model, replace(report, mask_coverage_mean=float(np.mean(training.mask_coverages)))


def split_rng(seed: int) -> np.random.Generator:
    """The validation-split stream of `seed`: the second of the three streams
    `fit` spawns from it (model init, split, batch order)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))


def fit(
    arch: SfArchitecture,
    x: np.ndarray,
    flags: np.ndarray,
    target: np.ndarray,
    weights: np.ndarray,
    loss,
    loss_grad,
    train_idx: np.ndarray,
    val_idx: np.ndarray,
    config: TrainConfig,
) -> tuple[SfNet, TrainReport]:
    """Train a new SfNet of `arch` with Adam and early stopping: the one
    epoch loop of both heads.

    Rows `train_idx` of the (N, T, C) inputs `x` and (N, T) `flags` are
    shuffled into batches; a batch whose (N, T) `weights` are all zero is
    skipped.  `loss(pred, target, weights)` is a weight-normalised mean and
    `loss_grad` also returns its gradient, which sees the weights in the
    target's dtype.  An epoch's training loss is the weight-normalised mean
    of its batch losses.  Early stopping watches the loss on `val_idx` (on
    `train_idx` when `val_idx` is empty), NaN when its weights sum to 0, and
    the best epoch's parameters are restored at the end.
    """
    if not np.sum(weights[train_idx]) > 0:
        raise ValueError("no training step has a positive loss weight")
    init_ss, _, shuffle_ss = np.random.SeedSequence(config.seed).spawn(3)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    net = SfNet(arch, np.random.default_rng(init_ss))
    adam = AdamState(learning_rate=config.learning_rate)
    monitor = val_idx if val_idx.size else train_idx
    monitor_w = weights[monitor]

    train_losses: list[float] = []
    val_losses: list[float] = []
    best_val = np.inf
    best_epoch = -1
    best_state: dict[str, np.ndarray] | None = None
    bad = 0
    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(train_idx)
        run_num = 0.0
        run_den = 0.0
        for lo in range(0, order.size, config.batch_size):
            sel = order[lo:lo + config.batch_size]
            w = weights[sel]
            if not np.any(w > 0):
                continue
            pred = net.forward(x[sel], flags[sel])
            batch_loss, dpred = loss_grad(pred, target[sel], w.astype(target.dtype))
            net.zero_grads()
            net.backward(dpred)
            adam.step(net.params())
            bw = float(np.sum(w))
            run_num += batch_loss * bw
            run_den += bw
        train_losses.append(run_num / max(run_den, 1e-12))
        if np.sum(monitor_w) == 0.0:
            vloss = float("nan")
        else:
            vloss = loss(infer(net, x[monitor], flags[monitor]), target[monitor], monitor_w)
        val_losses.append(vloss)
        if vloss < best_val:
            best_val = vloss
            best_epoch = epoch
            best_state = net.get_state()
            bad = 0
        else:
            bad += 1
        if bad >= config.early_stop_patience:
            break
    if best_state is not None:
        net.set_state(best_state)
    return net, TrainReport(
        train_losses=tuple(train_losses),
        val_losses=tuple(val_losses),
        best_epoch=best_epoch,
        stopped_epoch=epoch,
        n_train=int(train_idx.size),
        n_val=int(val_idx.size),
    )


def infer(net: SfNet, x: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """(N, T) float64 output of `net` for (N, T, C) inputs and (N, T) flags,
    forwarded a default training batch of rows at a time: each forward keeps
    its backward caches, so inference holds no more than a training step."""
    out = np.empty(x.shape[:2], dtype=np.float64)
    rows = TrainConfig().batch_size
    for lo in range(0, x.shape[0], rows):
        out[lo:lo + rows] = net.forward(x[lo:lo + rows], flags[lo:lo + rows])
    return out


def predict_batch(model: SfModel, ndvi: np.ndarray, sar: np.ndarray) -> np.ndarray:
    """Model output for (N, T) NaN-coded NDVI plus (N, T, 8) radar stacks;
    T must be the length of the grid the model was trained on."""
    ndvi = np.asarray(ndvi)
    if ndvi.ndim != 2 or ndvi.shape[1] != model.grid.length:
        raise ValueError(f"series shape {ndvi.shape} does not match the model's grid length "
                         f"{model.grid.length}")
    return infer(model.net, *encode_arrays(ndvi, sar, model.stats, model.arch))


def fill_batch(
    ndvi: np.ndarray,
    grid: TemporalGrid,
    method: str,
    model: SfModel | None = None,
    sar: np.ndarray | None = None,
    cloud_filter_threshold: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fill an (N, T) NaN-coded NDVI block; returns (filled, cloud-flagged).

    `none` leaves the block as it is.  An interpolator fills each row that
    has at least its minimum number of observations and leaves the other
    rows unfilled.  `sf` fills absent steps with the model's prediction
    from the block and its (N, T, 8) radar stack `sar`; with a
    `cloud_filter_threshold` it also flags the present steps whose
    prediction sits at least that far above the observation (suspected
    residual cloud) and replaces them.  Other observations are kept
    verbatim."""
    ndvi = np.asarray(ndvi, dtype=np.float64)
    if ndvi.ndim != 2 or ndvi.shape[1] != grid.length:
        raise ValueError(f"series shape {ndvi.shape} does not match grid length {grid.length}")
    present = ~np.isnan(ndvi)
    flagged = np.zeros(ndvi.shape, dtype=bool)
    if method != "sf":
        if cloud_filter_threshold is not None:
            raise ValueError("the cloud filter needs the sf fill")
        filled = ndvi.copy()
        if method in INTERPOLATORS:
            fill, min_knots = INTERPOLATORS[method]
            rows = present.sum(axis=1) >= min_knots
            if rows.any():
                filled[rows] = fill(ndvi[rows], grid)
        elif method != "none":
            raise ValueError(f"unknown fill method {method!r}")
        return filled, flagged
    if model is None:
        raise ValueError("sf fill needs a trained model")
    if model.grid != grid:
        raise ValueError(f"the model was trained on {model.grid}, not on the data's {grid}")
    pred = predict_batch(model, ndvi, sar)
    if cloud_filter_threshold is not None:
        flagged[present] = pred[present] - ndvi[present] >= cloud_filter_threshold
    return np.where(present & ~flagged, ndvi, pred), flagged


# kept because perfbench/tracer.py wraps this name; it goes with ROADMAP item 1
def gapfill_sf(
    model: SfModel, pixel: PixelSeries, cloud_filter_threshold: float | None = None
) -> np.ndarray:
    """Fill the absent steps with model predictions; observed values are
    kept verbatim unless cloud filtering replaces flagged ones."""
    filled, _ = fill_batch(pixel.ndvi[None, :], model.grid, "sf", model, sar_stack(pixel)[None, :, :],
                           cloud_filter_threshold)
    return filled[0]


# kept because perfbench/tracer.py wraps this name; it goes with ROADMAP item 1
def cloud_filter(model: SfModel, pixel: PixelSeries, threshold: float = 0.15) -> np.ndarray:
    """Flag present steps whose observation sits anomalously LOW versus the
    fused prediction (suspected residual cloud)."""
    _, flagged = fill_batch(pixel.ndvi[None, :], model.grid, "sf", model, sar_stack(pixel)[None, :, :],
                            threshold)
    return flagged[0]


def sar_group_channels(groups: set[str] | tuple[str, ...]) -> tuple[str, ...]:
    """Expand feature-group names into architecture channel tuples.

    Groups: 'ndvi', 'sigma0' (backscatter-derived channels), 'coherence'.
    Channel order follows the canonical CHANNELS ordering.
    """
    mapping = {
        "ndvi": {NDVI_CHANNEL},
        "sigma0": {"sigma0_vv_db", "sigma0_vh_db", "sigma0_ratio", "sigma0_cross_ratio_db", "rvi"},
        "coherence": {"coh_vv", "coh_vh", "mixed_coherence"},
    }
    unknown = set(groups) - set(mapping)
    if unknown:
        raise ValueError(f"unknown feature groups {sorted(unknown)}")
    wanted: set[str] = set()
    for g in groups:
        wanted |= mapping[g]
    return tuple(c for c in CHANNELS if c in wanted)
