"""Baseline temporal gap-fillers: linear, Akima, and quadratic-spline.

All fillers interpolate over day-of-year (not step index), are exact at the
observed knots, and clamp to the nearest knot value beyond the first/last
observation (splines extrapolate wildly and the index is bounded).  The
`fill_*` functions take a NaN-coded (T,) series or (N, T) block and fill
every row at once; they also clamp filled steps to NDVI's range [-1, 1],
which Akima and quadratic pieces can overshoot between knots.  The 1-D
`*_interpolate` functions return the raw interpolant of one knot set and
serve as the reference implementations checked against scipy.  The Akima
method is that of Akima (1970), J. ACM 17(4).
"""

from __future__ import annotations

import numpy as np

from .core import TemporalGrid

MIN_KNOTS_LINEAR = 2
MIN_KNOTS_QUADRATIC = 3
MIN_KNOTS_AKIMA = 5


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


# The evaluators below work on packed knots: x and y are (N, K) arrays whose
# row r holds its n[r] knots in its first n[r] columns (later columns are
# padding and never reach a result).  A query is a row, the index of the
# knot starting its segment (clipped to [0, n[r] - 2]) and its abscissa.

def _clamp_to_span(out, x, y, n, rows, xq):
    """Queries outside a row's knot span take its boundary knot value."""
    last = n[rows] - 1
    out = np.where(xq <= x[rows, 0], y[rows, 0], out)
    return np.where(xq >= x[rows, last], y[rows, last], out)


def _linear_eval(x, y, n, rows, idx, xq):
    # np.interp's arithmetic, so a fill equals linear_interpolate bit for bit
    x0, y0 = x[rows, idx], y[rows, idx]
    slope = (y[rows, idx + 1] - y0) / (x[rows, idx + 1] - x0)
    return _clamp_to_span(slope * (xq - x0) + y0, x, y, n, rows, xq)


def _akima_slopes(x: np.ndarray, y: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Knot derivatives by Akima's weighting of the four surrounding
    segment slopes, with his two-point extrapolation supplying the ghost
    slopes at each end of each row."""
    r = np.arange(x.shape[0])
    with np.errstate(invalid="ignore", divide="ignore"):
        m = np.diff(y, axis=1) / np.diff(x, axis=1)
        # ghost slopes: two extrapolated values on each side
        ext = np.empty((x.shape[0], x.shape[1] + 3))
        ext[:, 2:-2] = m
        ext[:, 1] = 2.0 * m[:, 0] - m[:, 1]
        ext[:, 0] = 2.0 * ext[:, 1] - m[:, 0]
        ext[r, n + 1] = 2.0 * m[r, n - 2] - m[r, n - 3]
        ext[r, n + 2] = 2.0 * ext[r, n + 1] - m[r, n - 2]
        w1 = np.abs(ext[:, 3:] - ext[:, 2:-1])    # |m_{i+1} - m_i|
        w2 = np.abs(ext[:, 1:-2] - ext[:, :-3])   # |m_{i-1} - m_{i-2}|
        denom = w1 + w2
        left = ext[:, 1:-2]                       # m_{i-1}
        right = ext[:, 2:-1]                      # m_i
        t = (w1 * left + w2 * right) / denom
    flat = denom == 0.0
    t[flat] = 0.5 * (left[flat] + right[flat])
    return t


def _akima_eval(x, y, n, rows, idx, xq):
    """Cubic Hermite evaluation with Akima's knot derivatives."""
    t = _akima_slopes(x, y, n)
    x0 = x[rows, idx]
    h = x[rows, idx + 1] - x0
    s = (xq - x0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    out = (h00 * y[rows, idx] + h10 * h * t[rows, idx]
           + h01 * y[rows, idx + 1] + h11 * h * t[rows, idx + 1])
    return _clamp_to_span(out, x, y, n, rows, xq)


def _quadratic_eval(x, y, n, rows, idx, xq):
    """C1 quadratic spline: the first-knot slope comes from the parabola
    through the first three knots, so exact quadratic samples are
    reproduced exactly; later slopes follow s_{i+1} = 2*m_i - s_i."""
    with np.errstate(invalid="ignore", divide="ignore"):
        h = np.diff(x, axis=1)
        m = np.diff(y, axis=1) / h
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    s = np.empty(x.shape)
    s[:, 0] = (
        y[:, 0] * (2 * x0 - x1 - x2) / ((x0 - x1) * (x0 - x2))
        + y[:, 1] * (x0 - x2) / ((x1 - x0) * (x1 - x2))
        + y[:, 2] * (x0 - x1) / ((x2 - x0) * (x2 - x1))
    )
    for i in range(m.shape[1]):
        s[:, i + 1] = 2.0 * m[:, i] - s[:, i]
    d = xq - x[rows, idx]
    c = (m[rows, idx] - s[rows, idx]) / h[rows, idx]
    out = y[rows, idx] + s[rows, idx] * d + c * d * d
    return _clamp_to_span(out, x, y, n, rows, xq)


def _interpolate(evaluate, x, y, xq, minimum: int, method: str) -> np.ndarray:
    """One knot set's values at xq through a packed-knot evaluator."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_knots(x, y, minimum, method)
    xq = np.asarray(xq, dtype=np.float64)
    q = xq.ravel()
    idx = np.clip(np.searchsorted(x, q, side="right") - 1, 0, x.size - 2)
    out = evaluate(x[None], y[None], np.array([x.size]), np.zeros(q.size, dtype=np.intp), idx, q)
    return out.reshape(xq.shape)


def akima_interpolate(x: np.ndarray, y: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Akima piecewise-cubic values at xq; clamped beyond the knot span."""
    return _interpolate(_akima_eval, x, y, xq, MIN_KNOTS_AKIMA, "akima")


def quadratic_interpolate(x: np.ndarray, y: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """C1 quadratic-spline values at xq; clamped beyond the knot span."""
    return _interpolate(_quadratic_eval, x, y, xq, MIN_KNOTS_QUADRATIC, "quadratic")


def _fill(ndvi: np.ndarray, grid: TemporalGrid, evaluate, minimum: int, method: str) -> np.ndarray:
    """Fill the absent steps of a (T,) series or of every row of an (N, T)
    block: the knots of each row are packed to the left and every absent
    cell is evaluated in one gather."""
    ndvi = np.asarray(ndvi, dtype=np.float64)
    if ndvi.ndim not in (1, 2) or ndvi.shape[-1] != grid.length:
        raise ValueError(f"series length {ndvi.shape} != grid length {grid.length}")
    block = ndvi.reshape(-1, grid.length)
    present = ~np.isnan(block)
    n = present.sum(axis=1)
    short = np.flatnonzero(n < minimum)
    if short.size:
        k = short[0]
        where = f" in row {k}" if ndvi.ndim == 2 else ""
        raise ValueError(f"{method} interpolation needs >= {minimum} knots, got {n[k]}{where}")
    # a stable sort on absence puts each row's present steps first, in order
    order = np.argsort(~present, axis=1, kind="stable")
    doys = grid.doys.astype(np.float64)
    x = doys[order]
    y = np.take_along_axis(block, order, axis=1)
    rows, cols = np.nonzero(~present)
    # the segment of an absent step starts at the last knot before it
    idx = np.clip(np.cumsum(present, axis=1)[rows, cols] - 1, 0, n[rows] - 2)
    out = block.copy()
    out[rows, cols] = np.clip(evaluate(x, y, n, rows, idx, doys[cols]), -1.0, 1.0)
    return out.reshape(ndvi.shape)


def fill_linear(ndvi: np.ndarray, grid: TemporalGrid) -> np.ndarray:
    """Fill absent steps by linear interpolation; needs >= 2 observations
    (in every row of a block)."""
    return _fill(ndvi, grid, _linear_eval, MIN_KNOTS_LINEAR, "linear")


def fill_akima(ndvi: np.ndarray, grid: TemporalGrid) -> np.ndarray:
    """Fill absent steps by Akima interpolation; needs >= 5 observations
    (in every row of a block)."""
    return _fill(ndvi, grid, _akima_eval, MIN_KNOTS_AKIMA, "akima")


def fill_quadratic(ndvi: np.ndarray, grid: TemporalGrid) -> np.ndarray:
    """Fill absent steps by the quadratic spline; needs >= 3 observations
    (in every row of a block)."""
    return _fill(ndvi, grid, _quadratic_eval, MIN_KNOTS_QUADRATIC, "quadratic")
