import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pneusim import components as cp
from pneusim import gasmodel as gm
from pneusim.control import ActuatorCommand, IDLE_COMMAND, Mode
from pneusim.sim import (
    MAX_STEPS,
    PiecewiseCommand,
    Scenario,
    SimulationDivergence,
    SineCommand,
    StepCommand,
    controller_for_network,
    derivatives,
    discharge_scenario,
    flow_kernel,
    mass_balance,
    simulate,
    step_scenario,
)

R_CATALOG = 689.0 / (23.5 / 60.0)


class TestCommandSignals:
    def test_step_before_and_after_start(self):
        c = StepCommand(target_kpa=69.0, start_s=0.5)
        assert c.value(0.49) == 0.0
        assert c.value(0.5) == 69.0
        assert c.rate(10.0) == 0.0

    def test_sine_offset_keeps_command_non_negative(self):
        with pytest.raises(ValueError):
            SineCommand(amplitude_kpa=21.0, freq_hz=1.0, offset_kpa=10.0)
        c = SineCommand(amplitude_kpa=21.0, freq_hz=1.0, offset_kpa=21.0)
        t = np.linspace(0, 2, 401)
        assert min(c.value(x) for x in t) >= -1e-12

    def test_sine_rate_is_derivative(self):
        c = SineCommand(amplitude_kpa=21.0, freq_hz=1.35, offset_kpa=21.0)
        h = 1e-7
        for t in (0.0, 0.123, 0.61):
            num = (c.value(t + h) - c.value(t - h)) / (2 * h)
            assert c.rate(t) == pytest.approx(num, rel=1e-5, abs=1e-4)

    def test_piecewise_hold(self):
        c = PiecewiseCommand(knots=((0.0, 0.0), (1.0, 50.0), (2.0, 20.0)))
        assert c.value(0.5) == 0.0
        assert c.value(1.0) == 50.0
        assert c.value(1.99) == 50.0
        assert c.value(5.0) == 20.0

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseCommand(knots=((0.5, 1.0),))
        with pytest.raises(ValueError):
            PiecewiseCommand(knots=((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ValueError):
            PiecewiseCommand(knots=((0.0, -1.0),))


class TestScenarioValidation:
    def test_default_step_scenario_is_valid(self):
        step_scenario(69.0).validate()

    def test_dt_versus_control_rate(self):
        scn = step_scenario(69.0)
        with pytest.raises(ValueError):
            replace(scn, dt=2e-3).validate()

    def test_sample_rate_cannot_exceed_step_rate(self):
        scn = step_scenario(69.0)
        with pytest.raises(ValueError):
            replace(scn, sample_rate=4000.0).validate()

    def test_strides_must_divide_evenly(self):
        scn = step_scenario(69.0)
        with pytest.raises(ValueError):
            replace(scn, sample_rate=1700.0).validate()

    def test_step_budget(self):
        # open loop and two sample rows, so only the step count is at its limit
        net = cp.default_network()
        scn = Scenario(
            network=net,
            controller=controller_for_network(net),
            command=StepCommand(target_kpa=0.0),
            dt=1.0,
            duration=float(MAX_STEPS),
            sample_rate=1.0 / MAX_STEPS,
            open_loop_command=IDLE_COMMAND,
        )
        scn.validate()
        with pytest.raises(ValueError, match=r"^scenario\.run\.duration_s: .* 2147483648 steps"):
            replace(scn, duration=MAX_STEPS + 1.0).validate()


class TestDerivatives:
    def test_all_closed_is_equilibrium(self):
        net = cp.default_network()
        d = derivatives(689.0, 50.0, IDLE_COMMAND, net)
        assert d == {"dp_r": 0.0, "dp_cv": 0.0, "q_in": 0.0, "q_out": 0.0, "q_motive": 0.0}

    def test_full_inflation_from_empty_cv(self):
        net = cp.default_network(v_cv=0.5)
        d = derivatives(689.0, 0.0, ActuatorCommand(1.0, 0.0, False), net)
        assert d["dp_cv"] == pytest.approx(79.366, abs=0.005)
        assert d["dp_r"] < 0.0

    def test_no_flow_at_equal_pressures(self):
        net = cp.default_network()
        d = derivatives(345.0, 345.0, ActuatorCommand(1.0, 0.0, False), net)
        assert d["q_in"] == 0.0
        assert d["dp_cv"] == 0.0

    def test_held_reservoir_has_zero_reservoir_rate(self):
        net = cp.default_network()
        d = derivatives(689.0, 0.0, ActuatorCommand(1.0, 0.0, False), net, hold_reservoir=True)
        assert d["dp_r"] == 0.0
        assert d["dp_cv"] > 0.0


class TestFlowKernel:
    """The fused kernel that ``simulate`` integrates equals ``derivatives`` bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        p_r=st.floats(gm.PERFECT_VACUUM_KPA, 1500.0),
        p_cv=st.floats(gm.PERFECT_VACUUM_KPA, 300.0),
        u_in=st.floats(0.0, 1.0),
        u_mot=st.floats(0.0, 1.0),
        sol=st.booleans(),
        hold=st.booleans(),
        u0_in=st.floats(0.0, 0.9),
        u0_mot=st.floats(0.0, 0.9),
        q_rated=st.floats(0.1, 3.0),
    )
    # a valve inside and above its deadband
    @example(689.0, 20.0, 0.2, 0.0, False, False, 0.3, 0.0, cp.VENTURI_Q_RATED)
    @example(689.0, 20.0, 0.6, 0.0, False, False, 0.3, 0.0, cp.VENTURI_Q_RATED)
    # Venturi saturated: q_motive > q_rated
    @example(1000.0, 50.0, 0.0, 1.0, True, False, 0.0, 0.0, cp.VENTURI_Q_RATED)
    # reservoir below atmosphere: the motive path does not reverse
    @example(-50.0, -60.0, 0.0, 1.0, True, False, 0.0, 0.0, cp.VENTURI_Q_RATED)
    # closed solenoid with the Venturi running, held reservoir
    @example(689.0, 50.0, 0.5, 1.0, False, True, 0.0, 0.0, cp.VENTURI_Q_RATED)
    # p_cv below the vacuum node: p_cv - p_node < 0, the exhaust does not reverse
    @example(689.0, -90.0, 0.0, 0.5, True, False, 0.0, 0.0, cp.VENTURI_Q_RATED)
    @example(689.0, -30.0, 0.0, 0.0, True, True, 0.0, 0.0, cp.VENTURI_Q_RATED)
    def test_rates_equal_derivatives(
        self, p_r, p_cv, u_in, u_mot, sol, hold, u0_in, u0_mot, q_rated
    ):
        assume(sol or u_in == 0.0 or u_mot == 0.0)  # ActuatorCommand forbids wasted motive air
        base = cp.default_network()
        net = replace(
            base,
            inflation_valve=replace(base.inflation_valve, u0=u0_in),
            motive_valve=replace(base.motive_valve, u0=u0_mot),
            venturi=replace(base.venturi, q_motive_rated=q_rated),
        )
        want = derivatives(p_r, p_cv, ActuatorCommand(u_in, u_mot, sol), net, hold_reservoir=hold)
        got = flow_kernel(net, gm.DEFAULT_GAS, hold)(
            p_r,
            p_cv,
            cp.valve_fraction(u_in, net.inflation_valve),
            cp.valve_fraction(u_mot, net.motive_valve),
            sol,
        )
        assert got == tuple(want.values())
        # == treats 0.0 and -0.0 alike; the bytes written to a CSV do not
        assert [x.hex() for x in got] == [x.hex() for x in want.values()]


class TestSimulateBasics:
    def test_sealed_volume_holds_pressure(self):
        net = cp.default_network(v_cv=0.5, p_cv0=50.0)
        scn = Scenario(
            network=net,
            controller=controller_for_network(net),
            command=StepCommand(target_kpa=0.0),
            duration=1.0,
            open_loop_command=IDLE_COMMAND,
        )
        ts = simulate(scn)
        assert np.all(ts.p_cv == 50.0)
        assert np.all(ts.p_r == 689.0)
        assert np.all(ts.q_in == 0.0)

    def test_deterministic_reruns_bit_identical(self):
        scn = step_scenario(69.0, duration=0.5)
        a = simulate(scn)
        b = simulate(scn)
        for name in ("t", "p_cv", "p_r", "u_inflate", "q_in", "mode"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_sampling_grid(self):
        scn = step_scenario(69.0, duration=0.5)
        ts = simulate(scn)
        assert len(ts) == round(0.5 * scn.sample_rate) + 1
        assert ts.t[0] == 0.0
        assert ts.t[-1] == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(np.diff(ts.t), 1.0 / scn.sample_rate, rtol=0, atol=1e-12)

    def test_divergence_reported_with_time(self):
        # stiff exhaust far beyond the stable step size blows up the integrator
        net = cp.default_network(v_cv=0.1, p_cv0=100.0)
        net = replace(net, solenoid=cp.BinaryValveSpec(r_open=0.01))
        scn = Scenario(
            network=net,
            controller=controller_for_network(net),
            command=StepCommand(target_kpa=0.0),
            duration=0.5,
            open_loop_command=ActuatorCommand(0.0, 0.0, True),
        )
        with pytest.raises(SimulationDivergence):
            simulate(scn)

    def test_undershoot_retried_at_tenth_step(self):
        # r_open puts h*alpha/(r_open*v_cv) = 3.5, beyond RK4's stability limit
        net = cp.default_network(v_cv=0.1, p_cv0=150.0)
        r_open = gm.alpha(gm.DEFAULT_GAS) / (0.1 * 3.5 / 5e-4)
        net = replace(net, solenoid=cp.BinaryValveSpec(r_open=r_open))
        scn = Scenario(
            network=net,
            controller=controller_for_network(net),
            command=StepCommand(target_kpa=0.0),
            duration=0.01,
            open_loop_command=ActuatorCommand(0.0, 0.0, True),
        )
        # one full step from the initial state lands below perfect vacuum
        rates = flow_kernel(net)
        k1 = rates(689.0, 150.0, 0.0, 0.0, True)[1]
        k2 = rates(689.0, 150.0 + 0.5 * scn.dt * k1, 0.0, 0.0, True)[1]
        k3 = rates(689.0, 150.0 + 0.5 * scn.dt * k2, 0.0, 0.0, True)[1]
        k4 = rates(689.0, 150.0 + scn.dt * k3, 0.0, 0.0, True)[1]
        assert 150.0 + scn.dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4) < gm.PERFECT_VACUUM_KPA

        ts = simulate(scn)
        # pinned: ten steps of dt/10 give 4.53 kPa, then the exhaust clamp holds -3.40 kPa
        assert ts.p_cv[1] == 4.532265305845505
        assert np.all(ts.p_cv[2:] == -3.3991989793841277)
        h = hashlib.sha256()
        for name in ts._COLUMNS:
            h.update(getattr(ts, name).tobytes())
        assert h.hexdigest() == "80fc3df3dee32c29924d3c7e5864809e661d7b41223940d66f2790cec40d53b0"


class TestDischarge:
    def test_matches_closed_form(self):
        scn = discharge_scenario(r_v=R_CATALOG, v_r=2.0, p_r0=689.0, duration=90.0)
        ts = simulate(scn)
        expected = np.array(
            [gm.discharge_pressure(t, 689.0, R_CATALOG, 2.0) for t in ts.t]
        )
        nrmse = math.sqrt(float(np.mean((ts.p_r - expected) ** 2))) / 689.0
        assert nrmse < 1e-8

    def test_reservoir_monotone_non_increasing(self):
        ts = simulate(discharge_scenario(r_v=R_CATALOG, duration=30.0))
        assert np.all(np.diff(ts.p_r) <= 0.0)

    def test_cv_untouched_during_discharge(self):
        ts = simulate(discharge_scenario(r_v=R_CATALOG, duration=10.0))
        assert np.all(ts.p_cv == 0.0)


class TestClosedLoopStep:
    def test_rise_slope_tracks_difference_driven_flow(self):
        scn = step_scenario(69.0, hold_reservoir=True)
        ts = simulate(scn)
        # early rise at nearly the full-reservoir rate
        i = np.searchsorted(ts.t, 0.05)
        slope = (ts.p_cv[i] - ts.p_cv[0]) / ts.t[i]
        assert slope == pytest.approx(79.366, rel=0.02)

    def test_settles_into_band(self):
        ts = simulate(step_scenario(69.0, hold_reservoir=True))
        tail = ts.p_cv[ts.t > 2.0]
        assert np.all(np.abs(tail - 69.0) < 0.5)

    def test_reservoir_monotone_and_above_cv(self):
        ts = simulate(step_scenario(69.0))
        assert np.all(np.diff(ts.p_r) <= 1e-12)
        assert np.all(ts.p_cv <= ts.p_r)

    def test_modes_visited(self):
        ts = simulate(step_scenario(69.0))
        assert Mode.ON_OFF_INFLATE in ts.mode
        assert Mode.PID in ts.mode


class TestMassBalance:
    def test_sealed_scenario_balances_exactly(self):
        net = cp.default_network(v_cv=0.5, p_cv0=50.0)
        scn = Scenario(
            network=net,
            controller=controller_for_network(net),
            command=StepCommand(target_kpa=0.0),
            duration=1.0,
            open_loop_command=IDLE_COMMAND,
        )
        assert mass_balance(simulate(scn), scn) == 0.0

    def test_closed_loop_step_below_threshold(self):
        scn = step_scenario(69.0)
        assert mass_balance(simulate(scn), scn) < 1e-4

    def test_halving_dt_reduces_imbalance(self):
        scn = step_scenario(69.0, duration=2.0)
        coarse = replace(scn, dt=5e-4, sample_rate=2000.0)
        fine = replace(scn, dt=2.5e-4, sample_rate=4000.0)
        imb_coarse = mass_balance(simulate(coarse), coarse)
        imb_fine = mass_balance(simulate(fine), fine)
        assert 0.0 < imb_fine < imb_coarse

    def test_discharge_balances(self):
        scn = discharge_scenario(r_v=R_CATALOG, duration=30.0)
        assert mass_balance(simulate(scn), scn) < 1e-6
