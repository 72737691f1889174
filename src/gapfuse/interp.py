"""Baseline temporal gap-fillers: linear, Akima, and quadratic-spline.

All fillers interpolate over day-of-year (not step index), are exact at the
observed knots, and clamp to the nearest knot value beyond the first/last
observation (splines extrapolate wildly and the index is bounded).  The
`fill_*` functions also clamp filled steps to NDVI's range [-1, 1], which
Akima and quadratic pieces can overshoot between knots; the
`*_interpolate` functions return the raw interpolant.
"""

from __future__ import annotations

import numpy as np

from .core import TemporalGrid

MIN_KNOTS_LINEAR = 2
MIN_KNOTS_QUADRATIC = 3
MIN_KNOTS_AKIMA = 5


def knots_from_series(ndvi: np.ndarray, grid: TemporalGrid) -> tuple[np.ndarray, np.ndarray]:
    """Extract (doy, value) knot arrays from the present steps of a series."""
    ndvi = np.asarray(ndvi, dtype=np.float64)
    if ndvi.shape != (grid.length,):
        raise ValueError(f"series length {ndvi.shape} != grid length {grid.length}")
    present = ~np.isnan(ndvi)
    x = grid.doys.astype(np.float64)[present]
    return x, ndvi[present]


def _check_knots(x: np.ndarray, y: np.ndarray, minimum: int, method: str) -> None:
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("knot arrays must be 1-D and equal length")
    if x.size < minimum:
        raise ValueError(f"{method} interpolation needs >= {minimum} knots, got {x.size}")
    if np.any(np.diff(x) <= 0):
        raise ValueError("knot abscissae must be strictly increasing")


def linear_interpolate(x: np.ndarray, y: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Piecewise-linear values at xq; constant beyond the knot span."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_knots(x, y, MIN_KNOTS_LINEAR, "linear")
    return np.interp(np.asarray(xq, dtype=np.float64), x, y)


def _akima_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot derivatives by Akima's weighting of the four surrounding
    segment slopes, with his two-point extrapolation supplying the ghost
    slopes at each end."""
    m = np.diff(y) / np.diff(x)
    # ghost slopes: two extrapolated values on each side
    ext = np.empty(m.size + 4)
    ext[2:-2] = m
    ext[1] = 2.0 * m[0] - m[1]
    ext[0] = 2.0 * ext[1] - m[0]
    ext[-2] = 2.0 * m[-1] - m[-2]
    ext[-1] = 2.0 * ext[-2] - m[-1]
    w1 = np.abs(ext[3:] - ext[2:-1])    # |m_{i+1} - m_i|
    w2 = np.abs(ext[1:-2] - ext[:-3])   # |m_{i-1} - m_{i-2}|
    denom = w1 + w2
    left = ext[1:-2]                     # m_{i-1}
    right = ext[2:-1]                    # m_i
    with np.errstate(invalid="ignore", divide="ignore"):
        t = (w1 * left + w2 * right) / denom
    flat = denom == 0.0
    t[flat] = 0.5 * (left[flat] + right[flat])
    return t


def _hermite_eval(x: np.ndarray, y: np.ndarray, t: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Cubic Hermite evaluation given knot values y and knot derivatives t;
    queries outside the span clamp to the boundary knot values."""
    xq = np.asarray(xq, dtype=np.float64)
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    h = x[idx + 1] - x[idx]
    s = (xq - x[idx]) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    out = h00 * y[idx] + h10 * h * t[idx] + h01 * y[idx + 1] + h11 * h * t[idx + 1]
    out = np.where(xq <= x[0], y[0], out)
    out = np.where(xq >= x[-1], y[-1], out)
    return out


def akima_interpolate(x: np.ndarray, y: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Akima piecewise-cubic values at xq; clamped beyond the knot span."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_knots(x, y, MIN_KNOTS_AKIMA, "akima")
    t = _akima_slopes(x, y)
    return _hermite_eval(x, y, t, xq)


def quadratic_interpolate(x: np.ndarray, y: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """C1 quadratic-spline values at xq; clamped beyond the knot span.

    The first-knot slope comes from the parabola through the first three
    knots, so exact quadratic samples are reproduced exactly; subsequent
    slopes follow from the C1 condition s_{i+1} = 2*m_i - s_i.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_knots(x, y, MIN_KNOTS_QUADRATIC, "quadratic")
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
    xq = np.asarray(xq, dtype=np.float64)
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    d = xq - x[idx]
    c = (m[idx] - s[idx]) / h[idx]
    out = y[idx] + s[idx] * d + c * d * d
    out = np.where(xq <= x[0], y[0], out)
    out = np.where(xq >= x[-1], y[-1], out)
    return out


def _fill(ndvi: np.ndarray, grid: TemporalGrid, interpolate, minimum: int, method: str) -> np.ndarray:
    ndvi = np.asarray(ndvi, dtype=np.float64)
    x, y = knots_from_series(ndvi, grid)
    _check_knots(x, y, minimum, method)
    out = ndvi.copy()
    missing = np.isnan(ndvi)
    if missing.any():
        out[missing] = np.clip(interpolate(x, y, grid.doys.astype(np.float64)[missing]), -1.0, 1.0)
    return out


def fill_linear(ndvi: np.ndarray, grid: TemporalGrid) -> np.ndarray:
    """Fill absent steps by linear interpolation; needs >= 2 observations."""
    return _fill(ndvi, grid, linear_interpolate, MIN_KNOTS_LINEAR, "linear")


def fill_akima(ndvi: np.ndarray, grid: TemporalGrid) -> np.ndarray:
    """Fill absent steps by Akima interpolation; needs >= 5 observations."""
    return _fill(ndvi, grid, akima_interpolate, MIN_KNOTS_AKIMA, "akima")


def fill_quadratic(ndvi: np.ndarray, grid: TemporalGrid) -> np.ndarray:
    """Fill absent steps by the quadratic spline; needs >= 3 observations."""
    return _fill(ndvi, grid, quadratic_interpolate, MIN_KNOTS_QUADRATIC, "quadratic")
