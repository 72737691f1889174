"""Composite radar features: `derive_channels` expands the four raw radar
series into the model's eight radar channels.

Ratio and RVI are computed in the linear-power domain; the cross-ratio is a
difference of decibel values (a log-ratio).  All functions accept scalars or
arrays and validate their domains.
"""

from __future__ import annotations

import numpy as np

from .core import SAR_CHANNELS


def db_to_linear(sigma_db):
    sigma_db = np.asarray(sigma_db, dtype=np.float64)
    return np.power(10.0, sigma_db / 10.0)


def sigma0_ratio(vv_lin, vh_lin):
    """VV/VH backscatter ratio in the linear domain."""
    vv_lin = np.asarray(vv_lin, dtype=np.float64)
    vh_lin = np.asarray(vh_lin, dtype=np.float64)
    if np.any(vh_lin == 0.0):
        raise ValueError("ratio denominator vh_lin must be nonzero")
    return vv_lin / vh_lin


def sigma0_cross_ratio(vh_db, vv_db):
    """VH minus VV in decibels (log-ratio of the linear powers)."""
    vh_db = np.asarray(vh_db, dtype=np.float64)
    vv_db = np.asarray(vv_db, dtype=np.float64)
    if not (np.all(np.isfinite(vh_db)) and np.all(np.isfinite(vv_db))):
        raise ValueError("cross-ratio inputs must be finite")
    return vh_db - vv_db


def mixed_coherence(coh_vv, coh_vh):
    """Geometric mean of the two coherences; symmetric, stays in [0, 1]."""
    coh_vv = np.asarray(coh_vv, dtype=np.float64)
    coh_vh = np.asarray(coh_vh, dtype=np.float64)
    for arr in (coh_vv, coh_vh):
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("coherence must lie in [0, 1]")
    return np.sqrt(coh_vv * coh_vh)


def rvi(vh_lin, vv_lin):
    """Radar vegetation index 4*vh/(vh+vv), linear domain, in [0, 4]."""
    vh_lin = np.asarray(vh_lin, dtype=np.float64)
    vv_lin = np.asarray(vv_lin, dtype=np.float64)
    if np.any(vh_lin < 0.0) or np.any(vv_lin < 0.0):
        raise ValueError("rvi inputs must be nonnegative")
    denom = vh_lin + vv_lin
    if np.any(denom == 0.0):
        raise ValueError("rvi denominator vh+vv must be positive")
    return 4.0 * vh_lin / denom


def derive_channels(sig_vv_db, sig_vh_db, coh_vv, coh_vh) -> dict[str, np.ndarray]:
    """Expand the four raw radar series into the full eight-channel set.

    The derived features are always computed from the raw ones (never stored)
    so every consumer sees the same formulas.
    """
    sig_vv_db = np.asarray(sig_vv_db, dtype=np.float64)
    sig_vh_db = np.asarray(sig_vh_db, dtype=np.float64)
    vv_lin = db_to_linear(sig_vv_db)
    vh_lin = db_to_linear(sig_vh_db)
    out = {
        "sigma0_vv_db": sig_vv_db,
        "sigma0_vh_db": sig_vh_db,
        "coh_vv": np.asarray(coh_vv, dtype=np.float64),
        "coh_vh": np.asarray(coh_vh, dtype=np.float64),
        "sigma0_ratio": sigma0_ratio(vv_lin, vh_lin),
        "sigma0_cross_ratio_db": sigma0_cross_ratio(sig_vh_db, sig_vv_db),
        "mixed_coherence": mixed_coherence(coh_vv, coh_vh),
        "rvi": rvi(vh_lin, vv_lin),
    }
    assert set(out) == set(SAR_CHANNELS)
    return out
