import math

import pytest
from hypothesis import given, strategies as st

from pneusim import gasmodel as gm


positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestAlpha:
    def test_20c_standard_conditions(self):
        # ideal-gas identity at 20 C: rho*R_u*T/M ~ atmospheric pressure
        assert gm.alpha(gm.DEFAULT_GAS) == pytest.approx(101.3185, abs=5e-4)

    def test_0c_density_convention(self):
        gc = gm.GasConstants(rho=1.2754, R_u=8.314, T=273.15, M=0.028965)
        assert gm.alpha(gc) == pytest.approx(99.9963, abs=5e-4)

    def test_doubling_density_doubles_alpha(self):
        gc = gm.GasConstants()
        gc2 = gm.GasConstants(rho=2 * gc.rho)
        assert gm.alpha(gc2) == pytest.approx(2 * gm.alpha(gc), rel=1e-12)

    @given(rho=positive, T=positive, M=positive)
    def test_linear_in_rho_and_t_inverse_in_m(self, rho, T, M):
        gc = gm.GasConstants(rho=rho, T=T, M=M)
        base = gm.alpha(gc)
        assert gm.alpha(gm.GasConstants(rho=2 * rho, T=T, M=M)) == pytest.approx(2 * base, rel=1e-9)
        assert gm.alpha(gm.GasConstants(rho=rho, T=2 * T, M=M)) == pytest.approx(2 * base, rel=1e-9)
        assert gm.alpha(gm.GasConstants(rho=rho, T=T, M=2 * M)) == pytest.approx(base / 2, rel=1e-9)

    def test_rejects_non_positive_fields(self):
        with pytest.raises(ValueError):
            gm.GasConstants(rho=0.0)
        with pytest.raises(ValueError):
            gm.GasConstants(T=-1.0)


class TestFlowFromOhm:
    def test_zero_difference(self):
        assert gm.flow_from_ohm(0.0, 5.0) == 0.0

    def test_rated_valve_point(self):
        # 23.5 standard L/min at 689 kPa inlet discharging to atmosphere
        assert gm.flow_from_ohm(689.0, 1759.2) == pytest.approx(23.5 / 60.0, rel=5e-4)

    def test_antisymmetric(self):
        assert gm.flow_from_ohm(-10.0, 5.0) == -2.0

    @given(dp=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), r=positive)
    def test_antisymmetry_property(self, dp, r):
        assert gm.flow_from_ohm(-dp, r) == -gm.flow_from_ohm(dp, r)

    def test_rejects_non_positive_resistance(self):
        with pytest.raises(ValueError):
            gm.flow_from_ohm(1.0, 0.0)


class TestDischargePressure:
    def test_t_zero_returns_initial(self):
        assert gm.discharge_pressure(0.0, 689.0, 1759.2, 2.0) == 689.0

    def test_one_time_constant(self):
        tau = gm.discharge_time_constant(1759.2, 2.0)
        assert gm.discharge_pressure(tau, 689.0, 1759.2, 2.0) == pytest.approx(
            689.0 / math.e, rel=1e-12
        )

    def test_two_liter_bottle_example(self):
        tau = gm.discharge_time_constant(1759.2, 2.0)
        assert tau == pytest.approx(34.726, abs=5e-3)
        assert gm.discharge_pressure(34.7, 689.0, 1759.2, 2.0) == pytest.approx(253.66, abs=0.02)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            gm.discharge_pressure(-0.1, 689.0, 1759.2, 2.0)

    @given(
        t=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        tau_r=positive,
    )
    def test_monotone_non_increasing(self, t, tau_r):
        p1 = gm.discharge_pressure(t, 500.0, tau_r, 1.0)
        p2 = gm.discharge_pressure(t + 1.0, 500.0, tau_r, 1.0)
        assert p2 <= p1

    @given(tau=st.floats(min_value=1.0, max_value=1000.0, allow_nan=False))
    def test_satisfies_decay_ode(self, tau):
        # central finite difference of the closed form vs -P/tau
        gc = gm.DEFAULT_GAS
        v_r = 2.0
        r_v = tau * gm.alpha(gc) / v_r
        t = 0.7 * tau
        h = 1e-4 * tau
        p = gm.discharge_pressure(t, 689.0, r_v, v_r, gc)
        dp_num = (
            gm.discharge_pressure(t + h, 689.0, r_v, v_r, gc)
            - gm.discharge_pressure(t - h, 689.0, r_v, v_r, gc)
        ) / (2 * h)
        assert dp_num == pytest.approx(-p / tau, rel=1e-6)


class TestInflationRate:
    def test_small_cv_full_reservoir(self):
        r_cat = 689.0 / (23.5 / 60.0)
        assert gm.inflation_rate(689.0, r_cat, 0.5) == pytest.approx(79.366, abs=0.005)

    def test_larger_cv_lower_reservoir(self):
        r_cat = 689.0 / (23.5 / 60.0)
        assert gm.inflation_rate(345.0, r_cat, 1.0) == pytest.approx(19.870, abs=0.005)

    def test_empty_reservoir(self):
        assert gm.inflation_rate(0.0, 1759.2, 0.5) == 0.0

    def test_rejects_non_positive_volume(self):
        with pytest.raises(ValueError):
            gm.inflation_rate(689.0, 1759.2, -0.5)

    def test_rejects_an_underflowing_product(self):
        # each factor is positive, but r_v * v_cv rounds to 0
        with pytest.raises(ValueError, match=r"^r_v \* v_cv must be strictly positive$"):
            gm.inflation_rate(1.0, 1e-200, 1e-200)


class TestMaxCommandRate:
    def test_nominal_sweep_amplitude(self):
        assert gm.max_command_rate(21.0, 1.35) == pytest.approx(178.13, abs=0.01)

    def test_zero_amplitude(self):
        assert gm.max_command_rate(0.0, 3.0) == 0.0

    def test_high_amplitude_low_frequency(self):
        assert gm.max_command_rate(34.0, 0.32) == pytest.approx(68.361, abs=0.005)


class TestCutoffFrequency:
    def test_reference_cutoffs_to_three_significant_figures(self):
        assert float(f"{gm.cutoff_frequency(178.1, 21.0):.3g}") == 1.35
        assert float(f"{gm.cutoff_frequency(68.4, 34.0):.3g}") == 0.320

    def test_round_trip_with_max_command_rate(self):
        for a, f in [(21.0, 1.35), (34.0, 0.32)]:
            assert gm.cutoff_frequency(gm.max_command_rate(a, f), a) == pytest.approx(f, rel=1e-12)

    def test_zero_rate(self):
        assert gm.cutoff_frequency(0.0, 21.0) == 0.0

    def test_rejects_non_positive_amplitude(self):
        with pytest.raises(ValueError):
            gm.cutoff_frequency(100.0, 0.0)


class TestFrequencyGain:
    def test_boundary_is_unity(self):
        assert gm.frequency_gain(1.35, 1.35) == 1.0

    def test_one_octave_above(self):
        assert gm.frequency_gain(2.7, 1.35) == 0.5

    def test_pass_band(self):
        assert gm.frequency_gain(0.675, 1.35) == 1.0

    @given(
        f=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        fc=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    )
    def test_bounded_and_monotone(self, f, fc):
        g = gm.frequency_gain(f, fc)
        assert 0.0 <= g <= 1.0
        assert gm.frequency_gain(f * 2, fc) <= g

    def test_continuous_at_cutoff(self):
        fc = 1.35
        below = gm.frequency_gain(fc * (1 - 1e-9), fc)
        above = gm.frequency_gain(fc * (1 + 1e-9), fc)
        assert abs(below - above) < 1e-8

    def test_rejects_non_positive_frequency(self):
        with pytest.raises(ValueError):
            gm.frequency_gain(0.0, 1.0)


class TestMinReservoirPressure:
    def test_round_trip_of_inflation_rate(self):
        r_cat = 689.0 / (23.5 / 60.0)
        rate = gm.inflation_rate(689.0, r_cat, 0.5)
        assert gm.min_reservoir_pressure(rate, r_cat, 0.5) == pytest.approx(689.0, rel=1e-12)

    def test_zero_rate_needs_no_pressure(self):
        assert gm.min_reservoir_pressure(0.0, 1759.2, 0.5) == 0.0

    def test_demo_actuator(self):
        assert gm.min_reservoir_pressure(35.8, 1759.2, 0.1) == pytest.approx(62.16, abs=0.01)

    @given(pdot=positive, r=positive, v=positive)
    def test_identity_with_inflation_rate(self, pdot, r, v):
        p = gm.min_reservoir_pressure(pdot, r, v)
        assert gm.inflation_rate(p, r, v) == pytest.approx(pdot, rel=1e-12)

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(ValueError):
            gm.min_reservoir_pressure(10.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            gm.min_reservoir_pressure(-1.0, 1.0, 0.5)


class TestNCycles:
    def test_demo_prediction(self):
        r_cat = 689.0 / (23.5 / 60.0)
        pdot = gm.max_command_rate(20.7 / 2.0, 0.55)
        n = gm.n_cycles(689.0, 0.1, r_cat, pdot, 2.0, 20.7)
        assert n == pytest.approx(302.85, abs=0.1)

    def test_vanishing_bracket(self):
        gc = gm.DEFAULT_GAS
        # choose pdot so p_r0/v_cv == r_vmin*pdot/alpha exactly
        p_r0, v_cv, r_vmin = 689.0, 0.1, 1759.2
        pdot = p_r0 / v_cv * gm.alpha(gc) / r_vmin
        assert gm.n_cycles(p_r0, v_cv, r_vmin, pdot, 2.0, 20.7, gc) == pytest.approx(0.0, abs=1e-9)

    def test_clamped_at_zero(self):
        assert gm.n_cycles(10.0, 0.1, 1759.2, 1000.0, 2.0, 20.7) == 0.0

    def test_linear_in_reservoir_volume(self):
        n1 = gm.n_cycles(689.0, 0.1, 1759.2, 35.8, 2.0, 20.7)
        n2 = gm.n_cycles(689.0, 0.1, 1759.2, 35.8, 4.0, 20.7)
        assert n2 == pytest.approx(2 * n1, rel=1e-12)

    @given(
        pdot=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        r=st.floats(min_value=100.0, max_value=5000.0, allow_nan=False),
    )
    def test_monotone_in_demand_and_resistance(self, pdot, r):
        base = gm.n_cycles(689.0, 0.1, r, pdot, 2.0, 20.7)
        assert gm.n_cycles(689.0, 0.1, r, pdot + 1.0, 2.0, 20.7) <= base
        assert gm.n_cycles(689.0, 0.1, r * 1.1, pdot, 2.0, 20.7) <= base
        assert gm.n_cycles(700.0, 0.1, r, pdot, 2.0, 20.7) >= base
        assert gm.n_cycles(689.0, 0.1, r, pdot, 2.5, 20.7) >= base

    def test_rejects_bad_volumes(self):
        with pytest.raises(ValueError):
            gm.n_cycles(689.0, 0.0, 1759.2, 35.8, 2.0, 20.7)
        with pytest.raises(ValueError):
            gm.n_cycles(689.0, 0.1, 1759.2, 35.8, 2.0, 0.0)
