"""Radar feature formulas and their domain checks."""

import numpy as np
import pytest

from gapfuse import SAR_CHANNELS, derive_channels
from gapfuse.features import (
    db_to_linear,
    mixed_coherence,
    rvi,
    sigma0_cross_ratio,
    sigma0_ratio,
)


class TestDbConversion:
    def test_unit_power_is_zero_db(self):
        assert db_to_linear(0.0) == 1.0

    def test_decade_is_ten_db(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(-10.0) == pytest.approx(0.1)

    def test_round_trip(self):
        x = np.array([0.003, 0.07, 1.9])
        assert np.allclose(db_to_linear(10.0 * np.log10(x)), x)


class TestRatios:
    def test_ratio_linear_domain(self):
        assert sigma0_ratio(0.08, 0.02) == pytest.approx(4.0)

    def test_ratio_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            sigma0_ratio(0.08, 0.0)

    def test_cross_ratio_is_db_difference(self):
        assert sigma0_cross_ratio(-18.0, -12.0) == pytest.approx(-6.0)

    def test_cross_ratio_equals_log_of_linear_ratio(self):
        vv_db, vh_db = -11.3, -17.9
        lin = db_to_linear(vh_db) / db_to_linear(vv_db)
        assert sigma0_cross_ratio(vh_db, vv_db) == pytest.approx(10 * np.log10(lin))

    def test_cross_ratio_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sigma0_cross_ratio(np.inf, -12.0)


class TestMixedCoherence:
    def test_geometric_mean(self):
        assert mixed_coherence(0.25, 0.64) == pytest.approx(0.4)

    def test_symmetric(self):
        assert mixed_coherence(0.3, 0.7) == mixed_coherence(0.7, 0.3)

    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(0)
        a, b = rng.uniform(0, 1, 100), rng.uniform(0, 1, 100)
        out = mixed_coherence(a, b)
        assert np.all(out >= 0) and np.all(out <= 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mixed_coherence(1.2, 0.5)


class TestRvi:
    def test_equal_powers_give_two(self):
        assert rvi(0.05, 0.05) == pytest.approx(2.0)

    def test_vanishing_cross_pol_gives_zero(self):
        assert rvi(0.0, 0.05) == pytest.approx(0.0)

    def test_range(self):
        rng = np.random.default_rng(1)
        vh, vv = rng.uniform(0.001, 1, 200), rng.uniform(0.001, 1, 200)
        out = rvi(vh, vv)
        assert np.all(out >= 0) and np.all(out <= 4)

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            rvi(0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rvi(-0.1, 0.5)


class TestDeriveChannels:
    def test_full_channel_set(self):
        out = derive_channels(-12.0, -18.0, 0.4, 0.3)
        assert set(out) == set(SAR_CHANNELS)

    def test_raw_channels_pass_through(self):
        vv = np.array([-11.0, -13.5])
        vh = np.array([-17.0, -19.5])
        out = derive_channels(vv, vh, np.array([0.2, 0.3]), np.array([0.4, 0.5]))
        assert np.array_equal(out["sigma0_vv_db"], vv)
        assert np.array_equal(out["sigma0_vh_db"], vh)

    def test_derived_consistency(self):
        out = derive_channels(-12.0, -18.0, 0.49, 0.25)
        vv_lin, vh_lin = db_to_linear(-12.0), db_to_linear(-18.0)
        assert out["sigma0_ratio"] == pytest.approx(vv_lin / vh_lin)
        assert out["sigma0_cross_ratio_db"] == pytest.approx(-6.0)
        assert out["mixed_coherence"] == pytest.approx(0.35)
        assert out["rvi"] == pytest.approx(4 * vh_lin / (vh_lin + vv_lin))
