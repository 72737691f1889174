"""Artificial cloud masking and a synthetic grassland scene generator.

The generator produces parcels of pixels with a smooth seasonal NDVI curve,
optional mowing events (sharp drop, exponential regrowth), radar channels
that genuinely co-vary with biomass and react to events, parcel-level
residual-cloud ("cirrus") dips that the radar does NOT react to, and
per-region pools of cloud masks for artificial gap injection.  Everything is
a pure function of the configuration, including its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import features
from .core import SAR_CHANNELS, CloudMask, Dataset, ParcelLabel, TemporalGrid


@dataclass(frozen=True)
class MaskPool:
    """A region's collection of cloud masks to bootstrap from."""

    region_id: int
    masks: tuple[CloudMask, ...]

    def __post_init__(self) -> None:
        masks = tuple(self.masks)
        if not masks:
            raise ValueError("mask pool must be non-empty")
        n = masks[0].bits.size
        if any(m.bits.size != n for m in masks):
            raise ValueError("all masks in a pool must share one grid length")
        object.__setattr__(self, "masks", masks)


def bootstrap_mask(pool: MaskPool, rng: np.random.Generator) -> CloudMask:
    """Draw one mask uniformly from the pool."""
    return pool.masks[int(rng.integers(len(pool.masks)))]


def seasonal_cloud_weights(doys: np.ndarray, amplitude: float = 0.8) -> np.ndarray:
    """Relative cloud likelihood over the season: heavy in spring and
    autumn, light in mid-summer."""
    phase = 2.0 * np.pi * (np.asarray(doys, dtype=np.float64) - 15.0) / 365.0
    return 1.0 + amplitude * np.cos(phase)


def _correlated_mask_bits(
    weights: np.ndarray, target_coverage: float, correlation: float, rng: np.random.Generator
) -> np.ndarray:
    """Threshold an AR(1) latent series so that step t is clouded with
    probability proportional to weights[t] and the expected coverage equals
    target_coverage; positive correlation yields multi-step cloudy runs."""
    t = weights.size
    p = target_coverage * t * weights / np.sum(weights)
    p = np.clip(p, 0.0, 0.97)
    z = np.empty(t)
    z[0] = rng.standard_normal()
    for i in range(1, t):
        z[i] = correlation * z[i - 1] + np.sqrt(1.0 - correlation**2) * rng.standard_normal()
    # Phi(z) is uniform marginally, so P(cloudy_t) = p_t exactly
    from scipy.stats import norm

    return norm.cdf(z) < p


def synth_mask_pool(
    region_id: int,
    grid: TemporalGrid,
    n_masks: int,
    coverage: float,
    rng: np.random.Generator,
    weight_amplitude: float = 0.8,
) -> MaskPool:
    """Generate a pool of seasonal cloud masks with mean coverage `coverage`:
    each mask's own coverage is drawn with a standard deviation of 0.12, and
    its cloudy steps follow an AR(1) series of lag-1 correlation 0.45."""
    if n_masks <= 0:
        raise ValueError("n_masks must be positive")
    weights = seasonal_cloud_weights(grid.doys, weight_amplitude)
    masks = []
    for i in range(n_masks):
        c = float(np.clip(rng.normal(coverage, 0.12), 0.08, 0.80))
        bits = _correlated_mask_bits(weights, c, 0.45, rng)
        masks.append(CloudMask(mask_id=region_id * 100000 + i, region_id=region_id, bits=bits))
    return MaskPool(region_id=region_id, masks=tuple(masks))


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic scene generator."""

    n_parcels: int = 100
    pixels_per_parcel: int = 20
    n_regions: int = 3
    mow_probabilities: Mapping[int, float] = field(
        default_factory=lambda: {0: 0.07, 1: 0.81, 2: 0.12}
    )
    event_doy_window: tuple[int, int] = (153, 197)
    drop_depth: tuple[float, float] = (0.25, 0.45)
    half_recovery_days: float = 10.0
    noise_sd: float = 0.02
    pixel_offset_sd: float = 0.015
    cirrus_rate: float = 0.0
    cirrus_depth: tuple[float, float] = (0.15, 0.40)
    real_coverage: float = 0.18
    mask_pool_coverage: float = 0.45
    mask_pool_size: int = 64
    seed: int = 0
    grid: TemporalGrid = TemporalGrid()

    def __post_init__(self) -> None:
        probs = dict(self.mow_probabilities)
        if any(k not in (0, 1, 2) for k in probs):
            raise ValueError("mow event counts must be 0, 1 or 2")
        if any(v < 0 for v in probs.values()) or abs(sum(probs.values()) - 1.0) > 1e-9:
            raise ValueError("mow_probabilities must be a distribution over {0,1,2}")
        object.__setattr__(self, "mow_probabilities", probs)
        if self.drop_depth[0] < 0.1 or self.drop_depth[0] > self.drop_depth[1]:
            raise ValueError("drop depth must be an ordered range with minimum >= 0.1")
        for name in ("cirrus_rate",):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.n_parcels <= 0 or self.pixels_per_parcel <= 0 or self.n_regions <= 0:
            raise ValueError("counts must be positive")
        if self.half_recovery_days <= 0:
            raise ValueError("half_recovery_days must be positive")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        if self.pixel_offset_sd < 0:
            raise ValueError("pixel_offset_sd must be >= 0")


@dataclass(frozen=True)
class SynthResult:
    """Generator output: the labeled dataset, per-region mask pools, and the
    injected cirrus dips (parcel -> ((step, depth), ...)) for verification."""

    dataset: Dataset
    pools: Mapping[int, MaskPool]
    cirrus: Mapping[int, tuple[tuple[int, float], ...]]

    @property
    def labels(self) -> Mapping[int, ParcelLabel]:
        return self.dataset.labels


def _double_logistic(doys: np.ndarray, v_min, v_peak, d_green, k1, d_sen, k2) -> np.ndarray:
    rise = 1.0 / (1.0 + np.exp(-k1 * (doys - d_green)))
    fall = 1.0 / (1.0 + np.exp(k2 * (doys - d_sen)))
    return v_min + (v_peak - v_min) * rise * fall


def _ar1(shape: tuple[int, ...], sd, rho: float, rng: np.random.Generator) -> np.ndarray:
    """AR(1) series along the last axis, with stationary standard deviation
    `sd` (a scalar, or an array that broadcasts over the leading axes).  The
    innovations are one draw of `shape`, so a block of series is bit-identical
    to drawing its series one after another."""
    eps = rng.standard_normal(shape)
    z = np.empty(shape)
    z[..., 0] = eps[..., 0]
    s = np.sqrt(1.0 - rho**2)
    for t in range(1, shape[-1]):
        z[..., t] = rho * z[..., t - 1] + s * eps[..., t]
    return sd * z


# stationary standard deviations of the radar noise: coh_vv, coh_vh, vv_db, vh_db
RADAR_NOISE_SD = np.array([0.040, 0.045, 0.35, 0.40])


def _draw_events(rng: np.random.Generator, cfg: SynthConfig) -> tuple[int, ...]:
    counts = sorted(cfg.mow_probabilities)
    probs = [cfg.mow_probabilities[c] for c in counts]
    n = int(rng.choice(counts, p=probs))
    lo, hi = cfg.event_doy_window
    if n == 0:
        return ()
    if n == 1:
        return (int(rng.integers(lo, hi + 1)),)
    # two events: keep them >= 20 days apart so both stay identifiable
    e1 = int(rng.integers(lo, hi - 20 + 1))
    e2 = int(rng.integers(e1 + 20, hi + 1))
    return (e1, e2)


def synth_dataset(cfg: SynthConfig) -> SynthResult:
    """Generate the full synthetic scene described by `cfg`.

    Deterministic: identical configs (including seed) produce bit-identical
    results.  Seeding is partitioned per parcel so parcels are independent.
    """
    grid = cfg.grid
    doys = grid.doys.astype(np.float64)
    ss = np.random.SeedSequence(cfg.seed)
    children = ss.spawn(1 + cfg.n_regions + cfg.n_parcels)
    region_rng = np.random.default_rng(children[0])

    regions = []
    for _ in range(cfg.n_regions):
        regions.append(
            {
                "d_green": 120.0 + region_rng.uniform(-8, 8),
                "k1": region_rng.uniform(0.085, 0.115),
                "d_sen": 245.0 + region_rng.uniform(-10, 10),
                "k2": region_rng.uniform(0.055, 0.085),
                "v_min": region_rng.uniform(0.16, 0.20),
                "v_peak": region_rng.uniform(0.80, 0.88),
                "vv0": region_rng.uniform(-13.5, -12.5),
                "vh0": region_rng.uniform(-21.5, -20.5),
                "cloud_amp": 0.8 * region_rng.uniform(0.9, 1.1),
            }
        )
    pools = {
        r: synth_mask_pool(
            r,
            grid,
            cfg.mask_pool_size,
            cfg.mask_pool_coverage,
            np.random.default_rng(children[1 + r]),
            weight_amplitude=regions[r]["cloud_amp"],
        )
        for r in range(cfg.n_regions)
    }

    ndvi_blocks: list[np.ndarray] = []
    sar_blocks: list[np.ndarray] = []
    labels: dict[int, ParcelLabel] = {}
    cirrus_log: dict[int, tuple[tuple[int, float], ...]] = {}
    for parcel_id in range(cfg.n_parcels):
        region_id = parcel_id % cfg.n_regions
        reg = regions[region_id]
        rng = np.random.default_rng(children[1 + cfg.n_regions + parcel_id])

        d_green = reg["d_green"] + rng.uniform(-4, 4)
        v_min = reg["v_min"] + rng.uniform(-0.02, 0.02)
        v_peak = min(reg["v_peak"] + rng.uniform(-0.03, 0.03), 0.92)
        k1 = reg["k1"] * rng.uniform(0.9, 1.1)
        k2 = reg["k2"] * rng.uniform(0.9, 1.1)
        d_sen = reg["d_sen"] + rng.uniform(-5, 5)
        curve = _double_logistic(doys, v_min, v_peak, d_green, k1, d_sen, k2)

        event_doys = _draw_events(rng, cfg)
        deficit = np.zeros(grid.length)
        coh_jump = np.zeros(grid.length)
        bsc_dip = np.zeros(grid.length)
        for e in event_doys:
            depth = rng.uniform(*cfg.drop_depth)
            after = doys >= e
            dt = doys[after] - e
            deficit[after] += depth * np.power(0.5, dt / cfg.half_recovery_days)
            coh_jump[after] += rng.uniform(0.10, 0.30) * np.power(0.5, dt / 8.0)
            bsc_dip[after] += rng.uniform(1.0, 3.0) * np.power(0.5, dt / 10.0)

        ndvi_true = np.clip(curve - deficit, 0.02, 0.98)

        # parcel-level real observation gaps (scene-scale clouds)
        c_real = float(np.clip(rng.normal(cfg.real_coverage, 0.06), 0.02, 0.33))
        weights = seasonal_cloud_weights(doys, reg["cloud_amp"])
        real_mask = _correlated_mask_bits(weights, c_real, 0.35, rng)

        # undetected residual clouds: shared by the whole parcel, optical only
        cirrus_dip = np.zeros(grid.length)
        hits: list[tuple[int, float]] = []
        if cfg.cirrus_rate > 0:
            candidates = np.flatnonzero(~real_mask)
            sel = candidates[rng.random(candidates.size) < cfg.cirrus_rate]
            for s in sel:
                depth = float(rng.uniform(*cfg.cirrus_depth))
                cirrus_dip[s] = depth
                hits.append((int(s), depth))
        cirrus_log[parcel_id] = tuple(hits)

        p = cfg.pixels_per_parcel
        offsets = rng.normal(0.0, cfg.pixel_offset_sd, size=(p, 1))
        noise = rng.normal(0.0, cfg.noise_sd, size=(p, grid.length)) if cfg.noise_sd > 0 else 0.0
        observed = np.clip(ndvi_true[None, :] - cirrus_dip[None, :] + offsets + noise, 0.02, 0.98)
        extra_missing = rng.random((p, grid.length)) < 0.03
        absent = real_mask[None, :] | extra_missing
        observed = np.where(absent, np.nan, observed)

        # radar reacts to biomass and to mowing, never to cirrus
        veg = np.clip((ndvi_true - v_min) / max(v_peak - v_min, 1e-6), 0.0, 1.0)
        coh_base = 0.25 + 0.45 * (1.0 - veg) + coh_jump
        noise = _ar1((4, p, grid.length), RADAR_NOISE_SD[:, None, None], 0.5, rng)
        coh_vv = np.clip(coh_base[None, :] + noise[0], 0.02, 0.98)
        coh_vh = np.clip(0.92 * coh_base[None, :] + noise[1], 0.02, 0.98)
        vv_db = reg["vv0"] + 0.8 * veg[None, :] - 0.5 * bsc_dip[None, :] + noise[2]
        vh_db = reg["vh0"] + 2.5 * veg[None, :] - bsc_dip[None, :] + noise[3]

        sar = features.derive_channels(vv_db, vh_db, coh_vv, coh_vh)
        ndvi_blocks.append(observed)
        sar_blocks.append(np.stack([sar[c] for c in SAR_CHANNELS], axis=2))
        labels[parcel_id] = ParcelLabel(parcel_id, event_doys)

    # pixels are numbered in parcel order, each parcel holding one block of them
    parcel_of = np.repeat(np.arange(cfg.n_parcels), cfg.pixels_per_parcel)
    dataset = Dataset(grid, np.arange(parcel_of.size), parcel_of, parcel_of % cfg.n_regions,
                      np.concatenate(ndvi_blocks), np.concatenate(sar_blocks), labels)
    return SynthResult(dataset=dataset, pools=pools, cirrus=cirrus_log)
