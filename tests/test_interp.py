"""Interpolator correctness: reference-implementation oracles, knot
exactness, polynomial reproduction, clamping, and the fill contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import Akima1DInterpolator

from gapfuse import TemporalGrid, fill_akima, fill_linear, fill_quadratic
from gapfuse.interp import (
    MIN_KNOTS_AKIMA,
    MIN_KNOTS_LINEAR,
    MIN_KNOTS_QUADRATIC,
    akima_interpolate,
    linear_interpolate,
    quadratic_interpolate,
)


def random_knots(rng, n):
    x = np.sort(rng.uniform(0, 100, n))
    while np.any(np.diff(x) < 1e-3):
        x = np.sort(rng.uniform(0, 100, n))
    y = rng.uniform(-1, 1, n)
    return x, y


def quadratic_spline_reference(x, y, xq):
    """Independent route: solve the full C1 piecewise-quadratic system with
    numpy.polyfit supplying the first-knot slope, then evaluate segments.

    Unknowns per segment i: (a_i, b_i, c_i) with y(x)=a_i+b_i*(x-x_i)+c_i*(x-x_i)^2.
    """
    n = x.size - 1
    h = np.diff(x)
    a_cols = 3 * n
    rows = []
    rhs = []

    def row(entries, r):
        v = np.zeros(a_cols)
        for j, val in entries:
            v[j] = val
        rows.append(v)
        rhs.append(r)

    for i in range(n):
        row([(3 * i, 1.0)], y[i])                                   # left value
        row([(3 * i, 1.0), (3 * i + 1, h[i]), (3 * i + 2, h[i] ** 2)], y[i + 1])  # right value
    for i in range(n - 1):
        row([(3 * i + 1, 1.0), (3 * i + 2, 2 * h[i]), (3 * (i + 1) + 1, -1.0)], 0.0)  # C1
    poly = np.polyfit(x[:3], y[:3], 2)
    s0 = float(np.polyval(np.polyder(poly), x[0]))
    row([(1, 1.0)], s0)
    coef = np.linalg.solve(np.asarray(rows), np.asarray(rhs))
    out = np.empty(np.asarray(xq, dtype=float).shape)
    xq = np.asarray(xq, dtype=float)
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, n - 1)
    d = xq - x[idx]
    out = coef[3 * idx] + coef[3 * idx + 1] * d + coef[3 * idx + 2] * d * d
    out = np.where(xq <= x[0], y[0], out)
    out = np.where(xq >= x[-1], y[-1], out)
    return out


class TestAkimaOracle:
    def test_matches_reference_on_50_random_knot_sets(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(5, 15))
            x, y = random_knots(rng, n)
            xq = np.linspace(x[0], x[-1], 197)
            ours = akima_interpolate(x, y, xq)
            ref = Akima1DInterpolator(x, y)(xq)
            worst = max(worst, float(np.max(np.abs(ours - ref))))
        assert worst < 1e-9, f"max abs deviation {worst:.3e}"

    def test_flat_slope_tie_convention(self):
        # all segment slopes equal -> every weight denominator is zero and
        # the documented fallback t=(m_left+m_right)/2 must keep the line
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = 2.0 * x + 1.0
        xq = np.array([0.5, 1.7, 3.3])
        assert np.allclose(akima_interpolate(x, y, xq), 2.0 * xq + 1.0)


class TestQuadraticOracle:
    def test_matches_reference_on_50_random_knot_sets(self):
        rng = np.random.default_rng(43)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(3, 12))
            x, y = random_knots(rng, n)
            xq = np.linspace(x[0], x[-1], 173)
            ours = quadratic_interpolate(x, y, xq)
            ref = quadratic_spline_reference(x, y, xq)
            worst = max(worst, float(np.max(np.abs(ours - ref))))
        assert worst < 1e-9, f"max abs deviation {worst:.3e}"


class TestKnotExactness:
    def test_all_methods_exact_at_knots(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y = random_knots(rng, 8)
            assert np.allclose(linear_interpolate(x, y, x), y, atol=1e-12)
            assert np.allclose(akima_interpolate(x, y, x), y, atol=1e-12)
            assert np.allclose(quadratic_interpolate(x, y, x), y, atol=1e-12)


class TestPolynomialReproduction:
    def test_linear_data_reproduced_by_all(self):
        rng = np.random.default_rng(8)
        x = np.sort(rng.uniform(0, 50, 9))
        y = -0.3 * x + 2.0
        xq = np.linspace(x[0], x[-1], 101)
        want = -0.3 * xq + 2.0
        assert np.allclose(linear_interpolate(x, y, xq), want, atol=1e-10)
        assert np.allclose(akima_interpolate(x, y, xq), want, atol=1e-10)
        assert np.allclose(quadratic_interpolate(x, y, xq), want, atol=1e-10)

    def test_quadratic_data_reproduced_by_quadratic_spline(self):
        rng = np.random.default_rng(9)
        x = np.sort(rng.uniform(0, 30, 7))
        y = 0.05 * x**2 - 0.8 * x + 3.0
        xq = np.linspace(x[0], x[-1], 101)
        want = 0.05 * xq**2 - 0.8 * xq + 3.0
        assert np.allclose(quadratic_interpolate(x, y, xq), want, atol=1e-9)


class TestClamping:
    def test_constant_beyond_support(self):
        rng = np.random.default_rng(10)
        x, y = random_knots(rng, 6)
        left = np.array([x[0] - 10.0, x[0] - 1.0])
        right = np.array([x[-1] + 1.0, x[-1] + 30.0])
        for f in (linear_interpolate, akima_interpolate, quadratic_interpolate):
            assert np.allclose(f(x, y, left), y[0])
            assert np.allclose(f(x, y, right), y[-1])


class TestValidation:
    def test_minimum_knot_counts(self):
        x = np.arange(4.0)
        y = np.zeros(4)
        with pytest.raises(ValueError, match=">= 5"):
            akima_interpolate(x, y, x)
        with pytest.raises(ValueError, match=">= 3"):
            quadratic_interpolate(x[:2], y[:2], x)
        with pytest.raises(ValueError, match=">= 2"):
            linear_interpolate(x[:1], y[:1], x)
        assert MIN_KNOTS_LINEAR == 2 and MIN_KNOTS_QUADRATIC == 3 and MIN_KNOTS_AKIMA == 5

    def test_nonincreasing_knots_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            linear_interpolate(np.array([0.0, 1.0, 1.0]), np.zeros(3), np.array([0.5]))


class TestFillContract:
    def grid(self):
        return TemporalGrid(start_doy=100, step_days=6, length=10)

    def series(self):
        s = np.linspace(0.2, 0.8, 10)
        s[[2, 5, 6]] = np.nan
        return s

    def test_fill_preserves_present_values_bitwise(self):
        grid = self.grid()
        s = self.series()
        for f in (fill_linear, fill_akima, fill_quadratic):
            out = f(s, grid)
            present = ~np.isnan(s)
            assert np.array_equal(out[present], s[present])
            assert not np.isnan(out).any()

    def test_fill_clamps_overshoot_to_ndvi_range(self):
        """Akima and quadratic pieces overshoot 1 between knots near a
        plateau; the fills clamp to [-1, 1] and keep observations bitwise."""
        grid = self.grid()
        s = np.array([0.1, 0.5, 0.9, np.nan, np.nan, np.nan, 0.95, 0.6, 0.3, 0.1])
        gaps = np.isnan(s)
        x, y = grid.doys[~gaps].astype(np.float64), s[~gaps]
        for interpolate, fill in ((akima_interpolate, fill_akima), (quadratic_interpolate, fill_quadratic)):
            raw = interpolate(x, y, grid.doys[gaps])
            assert raw.max() > 1.0
            out = fill(s, grid)
            assert np.array_equal(out[~gaps], s[~gaps])
            assert np.array_equal(out[gaps], np.clip(raw, -1.0, 1.0))

    def test_fill_does_not_mutate_input(self):
        grid = self.grid()
        s = self.series()
        before = s.copy()
        fill_linear(s, grid)
        assert np.array_equal(np.isnan(s), np.isnan(before))

    def test_too_few_observations_rejected(self):
        grid = self.grid()
        s = np.full(10, np.nan)
        s[0] = 0.5
        with pytest.raises(ValueError):
            fill_linear(s, grid)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.booleans(), min_size=10, max_size=10))
    def test_fill_property_interior_between_neighbors(self, mask):
        """Linear fills lie within the local [min, max] of the knot values."""
        grid = self.grid()
        rng = np.random.default_rng(123)
        s = rng.uniform(-0.5, 0.9, 10)
        m = np.asarray(mask)
        if (~m).sum() < 2:
            m[:2] = False
        s[m] = np.nan
        out = fill_linear(s, grid)
        knots = s[~np.isnan(s)]
        assert np.all(out >= knots.min() - 1e-12)
        assert np.all(out <= knots.max() + 1e-12)
