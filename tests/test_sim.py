import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from builders import IDLE_COMMAND, discharge_scenario, step_scenario
from pneusim import analysis as an
from pneusim import components as cp
from pneusim import gasmodel as gm
from pneusim.gasmodel import replace
from pneusim import sim
from pneusim.cli import load_scenario
from pneusim.control import (
    ActuatorCommand, ControllerConfig, ControllerState, Mode, control_step,
    passive_vent_coeff,
)
from pneusim.sim import (
    MAX_STEPS,
    PiecewiseCommand,
    Scenario,
    SimulationDivergence,
    SineCommand,
    StepCommand,
    mass_balance,
    simulate,
)

R_CATALOG = 689.0 / (23.5 / 60.0)
ROOT = Path(__file__).resolve().parent.parent
SWEEP_OMEGAS = [0.14, 0.20, 0.30, 0.45, 0.68, 0.95, 1.35, 1.91, 2.70, 3.82, 5.40, 6.75]


def _hexes(values) -> list[str]:
    return [float(x).hex() for x in values]


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

    @settings(max_examples=300, deadline=None)
    @given(
        times=st.lists(st.floats(1e-9, 1e3), max_size=17, unique=True),
        values=st.lists(st.floats(0.0, 1e3), min_size=18, max_size=18),
        data=st.data(),
    )
    def test_piecewise_value_equals_linear_scan(self, times, values, data):
        knots = tuple(zip([0.0, *sorted(times)], values))
        c = PiecewiseCommand(knots=knots)
        on_knot = st.sampled_from([k[0] for k in knots] + [-k[0] for k in knots])
        t = data.draw(st.floats(allow_nan=True, allow_infinity=True) | on_knot)

        out = knots[0][1]  # the rule the knot scan implemented
        for knot_t, knot_v in knots:
            if knot_t <= t:
                out = knot_v
            else:
                break
        assert c.value(t) == out
        assert c.values(np.array([t]))[0] == out

    def test_values_equal_value(self):
        t = np.concatenate([np.linspace(-1.0, 3.0, 4001), [0.5, 1.0, 2.0, np.inf, np.nan]])
        commands = (
            StepCommand(target_kpa=69.0, start_s=0.5),
            PiecewiseCommand(knots=((0.0, 0.0), (1.0, 50.0), (2.0, 20.0))),
            PiecewiseCommand(knots=((0, 1), (1, 2.5))),  # an int first value still gives floats
        )
        for c in commands:
            assert _hexes(c.values(t)) == _hexes(map(c.value, t.tolist()))
            assert _hexes(c.rates(t)) == _hexes(map(c.rate, t.tolist()))
        sine, finite = SineCommand(amplitude_kpa=21.0, freq_hz=1.35, offset_kpa=21.0), t[:-2]
        assert _hexes(sine.values(finite)) == _hexes(map(sine.value, finite.tolist()))
        assert _hexes(sine.rates(finite)) == _hexes(map(sine.rate, finite.tolist()))

    def test_sine_values_equal_value_at_sweep_times(self, monkeypatch):
        # the closed loop reads its command by array, so numpy's sine and cosine
        # must give math's to the bit at every tick and row time of the shipped sweep
        template, _, _ = load_scenario(ROOT / "scenarios" / "sweep_21kpa_half_liter.json")
        points = []

        def capture(scn):
            points.append(scn)
            raise ValueError("not simulated")

        monkeypatch.setattr(an, "pressure_response", capture)
        an.frequency_sweep(template, SWEEP_OMEGAS)
        assert len(points) == len(SWEEP_OMEGAS)
        for scn in points:
            c, n = scn.command, scn.n_steps()
            for stride in (scn.control_stride(), scn.sample_stride()):
                t = sim._event_times(0, n // stride + 1, stride, scn.dt)
                assert _hexes(c.values(t)) == _hexes(map(c.value, t.tolist()))
                assert _hexes(c.rates(t)) == _hexes(map(c.rate, t.tolist()))

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseCommand(knots=((0.5, 1.0),))
        with pytest.raises(ValueError):
            PiecewiseCommand(knots=((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ValueError):
            PiecewiseCommand(knots=((0.0, -1.0),))


class TestScenarioValidation:
    def test_default_step_scenario_is_valid(self):
        replace(step_scenario(69.0))  # construction and replace each run the rules

    def test_dt_versus_control_rate(self):
        scn = step_scenario(69.0)
        with pytest.raises(ValueError):
            replace(scn, dt=2e-3)

    def test_sample_rate_cannot_exceed_step_rate(self):
        scn = step_scenario(69.0)
        with pytest.raises(ValueError):
            replace(scn, sample_rate=4000.0)

    def test_strides_must_divide_evenly(self):
        scn = step_scenario(69.0)
        with pytest.raises(ValueError):
            replace(scn, sample_rate=1700.0)

    @pytest.mark.parametrize("command, field", [
        (StepCommand(300.0), r"target_kpa: command\.target_kpa = 300 kPa"),
        (SineCommand(60.0, 1.0, 150.0),
         r"offset_kpa: command\.offset_kpa \+ command\.amplitude_kpa = 210 kPa"),
        (PiecewiseCommand(((0.0, 50.0), (0.1, 250.0), (0.2, 20.0), (0.3, 250.0))),
         r"knots\[1\]: command\.knots\[1\] = 250 kPa"),
    ], ids=["step", "sine", "piecewise"])
    def test_closed_loop_command_above_the_sensor_range(self, command, field):
        # the sensor saturates at 207 kPa, so the controller would never leave on/off inflate
        net = cp.default_network()
        with pytest.raises(gm.FieldError, match=rf"^Scenario\.command\.{field} is above the CV "
                           r"sensor range \(network\.cv_sensor\.range_max = 207\)$"):
            Scenario(network=net, command=command)
        Scenario(network=net, command=command, open_loop_command=IDLE_COMMAND)  # exempt
        Scenario(network=replace(net, cv_sensor=replace(net.cv_sensor, range_max=300.0)),
                 command=command)

    def test_step_budget(self):
        # open loop and two sample rows, so only the step count is at its limit
        net = cp.default_network()
        scn = Scenario(
            network=net,
            command=StepCommand(target_kpa=0.0),
            dt=1.0,
            duration=float(MAX_STEPS),
            sample_rate=1.0 / MAX_STEPS,
            open_loop_command=IDLE_COMMAND,
        )
        with pytest.raises(ValueError, match=r"^Scenario\.duration: .* 2147483648 steps"):
            replace(scn, duration=MAX_STEPS + 1.0)

    def test_duration_below_dt_does_not_run(self):
        # a run shorter than one step would take a whole step, past the duration given
        with pytest.raises(ValueError, match=r"^Scenario\.duration: must be >= dt$"):
            simulate(replace(step_scenario(69.0), duration=1e-4))

    @pytest.mark.parametrize("freq_hz, duration, amplitude", [
        (1e308, 0.01, 21.0), (1e307, 0.01, 21.0), (1e307, 100.0, 0.0), (1e306, 0.01, 1e3),
    ])
    def test_sine_phase_or_rate_overflow_names_the_frequency(self, freq_hz, duration, amplitude):
        # 2 pi f max(1, duration, amplitude) overflows: no sine is formed, so no numpy warning
        command = SineCommand(amplitude, freq_hz, amplitude)
        with pytest.raises(gm.FieldError, match=r"^Scenario\.command\.freq_hz: too large: 2 pi "):
            Scenario(network=cp.default_network(), command=command, duration=duration,
                     hold_reservoir=True)
        net = cp.default_network()  # a sensor that reads the 2000 kPa sine
        net = replace(net, cv_sensor=replace(net.cv_sensor, range_max=2e3))
        Scenario(network=net, command=replace(command, freq_hz=freq_hz / 100.0),
                 duration=duration, hold_reservoir=True)  # within the bound

    def test_sine_phase_overflow_at_the_last_step_names_the_frequency(self):
        # 2 pi f duration is finite, but the last of 2.6 steps rounds up to 3 dt, where it is not
        command, duration = SineCommand(1.0, 1.0, 1.0), 2.8e307
        dt = duration / 2.6
        assert not command.overflows(duration)
        with pytest.raises(gm.FieldError, match=r"^Scenario\.command\.freq_hz: too large: 2 pi "):
            Scenario(network=cp.default_network(), command=command, dt=dt, duration=duration,
                     sample_rate=1.0 / dt, controller=ControllerConfig(control_rate=0.5 / dt),
                     hold_reservoir=True)

    @pytest.mark.parametrize("make, message", [  # StepCommand: TestPressureResponse
        (lambda: PiecewiseCommand(((0.0, 1.0), (1.0, math.inf))),
         r"PiecewiseCommand\.knots\[1\]: must be finite"),
        (lambda: SineCommand(1.7e308, 1.0, 1.7e308),
         r"SineCommand\.offset_kpa: offset_kpa \+ amplitude_kpa must be finite"),
        (lambda: SineCommand(1.0, 1.0, math.nan),
         r"SineCommand\.offset_kpa: offset_kpa \+ amplitude_kpa must be finite"),
    ], ids=["knot", "sine_sum", "sine_nan_offset"])
    def test_command_levels_must_be_finite(self, make, message):
        with pytest.raises(gm.FieldError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3"])
    @pytest.mark.parametrize("make", [lambda seed: replace(step_scenario(69.0), seed=seed),
                                      lambda seed: cp.SensorSpec(seed=seed)],
                             ids=["Scenario", "SensorSpec"])
    def test_seed_must_be_an_integer(self, make, seed):
        # else a noisy run would fail at its first draw, in numpy's own words
        with pytest.raises(gm.FieldError, match=r"^\w+\.seed: must be an integer$") as err:
            make(seed)
        assert err.value.field == "seed"

    def test_numpy_integer_seed_is_its_value(self):
        net = cp.default_network()

        def noisy(run_seed, sensor_seed) -> bytes:
            sensor = replace(net.cv_sensor, noise_std=0.5, seed=sensor_seed)
            scn = replace(step_scenario(0.5, duration=0.05),  # in band: PID on noise
                          network=replace(net, cv_sensor=sensor), seed=run_seed)
            return simulate(scn).p_cv.tobytes()

        assert noisy(np.int64(3), np.uint8(2)) == noisy(3, 2) != noisy(3, 0)


RATE_KEYS = ("dp_r", "dp_cv", "q_in", "q_out", "q_motive")


def _rates(p_r, p_cv, cmd, net, hold=False) -> dict:
    """The rates and flows that ``simulate`` integrates and writes, at one state and command:
    A p + b and the flows of the state's piece."""
    f_in = cp.valve_fraction(cmd.u_inflate, net.inflation_valve)
    f_mot = cp.valve_fraction(cmd.u_motive, net.motive_valve)
    prop = sim.propagator(net, gm.DEFAULT_GAS, hold)
    pc = prop.region(p_r, p_cv, f_in, f_mot, cmd.solenoid_open)
    got = (pc.a11 * p_r + pc.a12 * p_cv, pc.a21 * p_r + pc.a22 * p_cv + pc.b2)
    return dict(zip(RATE_KEYS, got + prop.flows(pc, p_r, p_cv)))


def _reference_rates(net, hold=False, gas=gm.DEFAULT_GAS):
    """``rates(p_r, p_cv, u_in, u_mot, sol)``: the network composed from the ``components``
    flow helpers, independent of ``sim.propagator``. It takes the valve commands where
    ``sim``'s pieces take their ``valve_fraction``, and returns the rates, then the flows."""
    a = gm.alpha(gas)

    def rates(p_r, p_cv, u_in, u_mot, sol):
        q_in = cp.proportional_valve_flow(u_in, p_r - p_cv, net.inflation_valve)
        # the motive path exhausts to atmosphere and does not reverse
        q_motive = max(0.0, cp.proportional_valve_flow(u_mot, p_r, net.motive_valve))
        p_node = cp.venturi_vacuum_pressure(q_motive, net.venturi)
        q_out = cp.deflation_flow(p_cv, p_node, sol, net.solenoid)
        dp_r = 0.0 if hold else -(q_in + q_motive) * (a / net.reservoir.v_r)
        return dp_r, (q_in - q_out) * (a / net.control_volume.v_cv), q_in, q_out, q_motive

    return rates


def _reference_dp(net, hold=False, gas=gm.DEFAULT_GAS):
    """``_reference_rates`` without the flows, as ``_rk4`` takes them."""
    rates = _reference_rates(net, hold, gas)
    return lambda *state: rates(*state)[:2]


def _rk4(rates, p_r, p_cv, h, u_in, u_mot, sol) -> tuple:
    """One classical 4th-order Runge-Kutta step of ``rates`` over h."""
    k1r, k1c = rates(p_r, p_cv, u_in, u_mot, sol)
    half = 0.5 * h
    k2r, k2c = rates(p_r + half * k1r, p_cv + half * k1c, u_in, u_mot, sol)
    k3r, k3c = rates(p_r + half * k2r, p_cv + half * k2c, u_in, u_mot, sol)
    k4r, k4c = rates(p_r + h * k3r, p_cv + h * k3c, u_in, u_mot, sol)
    sixth = h / 6.0
    return (
        p_r + sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r),
        p_cv + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + k4c),
    )


class TestDerivatives:
    def test_all_closed_is_equilibrium(self):
        net = cp.default_network()
        d = _rates(689.0, 50.0, IDLE_COMMAND, net)
        assert d == {"dp_r": 0.0, "dp_cv": 0.0, "q_in": 0.0, "q_out": 0.0, "q_motive": 0.0}

    def test_full_inflation_from_empty_cv(self):
        net = cp.default_network(v_cv=0.5)
        d = _rates(689.0, 0.0, ActuatorCommand(1.0, 0.0, False), net)
        assert d["dp_cv"] == pytest.approx(79.366, abs=0.005)
        assert d["dp_r"] < 0.0

    def test_no_flow_at_equal_pressures(self):
        net = cp.default_network()
        d = _rates(345.0, 345.0, ActuatorCommand(1.0, 0.0, False), net)
        assert d["q_in"] == 0.0
        assert d["dp_cv"] == 0.0

    def test_held_reservoir_has_zero_reservoir_rate(self):
        net = cp.default_network()
        d = _rates(689.0, 0.0, ActuatorCommand(1.0, 0.0, False), net, hold=True)
        assert d["dp_r"] == 0.0
        assert d["dp_cv"] > 0.0

    @pytest.mark.parametrize(
        "p_r, p_cv, u_mot",
        [(400.0, 450.0, 0.0), (-50.0, 100.0, 1.0)],
        ids=["shut inflation valve, p_cv > p_r", "motive clamp, p_r < 0"],
    )
    def test_shut_and_clamped_paths_give_plus_zero(self, p_r, p_cv, u_mot):
        # 0.0 * (a negative difference) is -0.0, which a CSV writes as "-0"
        net = cp.default_network()
        d = _rates(p_r, p_cv, ActuatorCommand(0.0, u_mot, False), net)
        assert [d[k].hex() for k in ("q_in", "q_out", "q_motive")] == [(0.0).hex()] * 3
        # the open-loop rows of the same state and command
        prop = sim.propagator(net)
        pc = prop.region(p_r, p_cv, 0.0, u_mot, False)
        rows = prop.segment(pc, p_r, p_cv, np.array([0.0, 0.01]))
        assert [np.broadcast_to(q, 2).tobytes() for q in rows[2:]] == [np.zeros(2).tobytes()] * 3


# |sim - reference| per kPa of state, |p_r| + |p_cv| + 1: flows are state / R,
# rates A p + b. 150k random states of these networks gave 3.0e-18 and 8.6e-16
# at most.
FLOW_TOL = 1e-17
RATE_TOL = 4e-15


class TestRatesEqualHelpers:
    """The pieces of ``propagator`` against the ``components`` flow helpers: the same
    flows to rounding, and +0.0 wherever a helper gives +0.0 (a shut or clamped path,
    or no pressure difference). An open valve across p_r = -0.0, p_cv = 0.0 gives -0.0
    in both."""

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
    # an open valve across -0.0 kPa
    @example(-0.0, 0.0, 1.0, 0.0, False, False, 0.0, 0.0, 1.0)
    def test_rates_equal_helpers(
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
        want = _reference_rates(net, hold)(p_r, p_cv, u_in, u_mot, sol)
        got = tuple(_rates(p_r, p_cv, ActuatorCommand(u_in, u_mot, sol), net, hold).values())
        scale = 1.0 + abs(p_r) + abs(p_cv)
        for key, g, w in zip(RATE_KEYS, got, want):
            assert abs(g - w) <= (RATE_TOL if key.startswith("dp") else FLOW_TOL) * scale, key
            if w.hex() == (0.0).hex() and key.startswith("q"):
                # == treats 0.0 and -0.0 alike; the bytes written to a CSV do not
                assert g.hex() == w.hex(), key


# The exact span and the RK4 reference agree to SPAN_TOL kPa per kPa of state:
# |exact - rk4| <= SPAN_TOL * (1 + |p_r| + |p_cv|).
SPAN_TOL = 1e-9
RK4_SUBSTEPS = 1000


def _network(v_r=2.0, v_cv=0.5, r_open=100.0, q_rated=cp.VENTURI_Q_RATED, floor=-80.0):
    base = cp.default_network(v_r=v_r, v_cv=v_cv)
    return replace(
        base,
        solenoid=cp.BinaryValveSpec(r_open=r_open),
        venturi=cp.VenturiSpec(p_vac_floor=floor, q_motive_rated=q_rated),
    )


def _rk4_reference(net, hold, p_r, p_cv, u_in, u_mot, sol, h, steps=RK4_SUBSTEPS):
    """RK4 of the helpers' rates over h in ``steps`` steps."""
    rates = _reference_dp(net, hold)
    for _ in range(steps):
        p_r, p_cv = _rk4(rates, p_r, p_cv, h / steps, u_in, u_mot, sol)
    return p_r, p_cv


def _rk4_run(scn: Scenario, substeps: int = 1) -> tuple:
    """(p_r, p_cv) rows of an open-loop scenario stepped by RK4 alone: every step of dt
    ``substeps`` RK4 steps of the helpers' rates."""
    net, cmd = scn.network, scn.open_loop_command
    rates = _reference_dp(net, scn.hold_reservoir, scn.gas)
    command = (cmd.u_inflate, cmd.u_motive, cmd.solenoid_open)
    p_r, p_cv = net.reservoir.p_r0, net.control_volume.p_cv
    rows = [(p_r, p_cv)]
    ss = scn.sample_stride()
    for k in range(scn.n_steps()):
        for _ in range(substeps):
            p_r, p_cv = _rk4(rates, p_r, p_cv, scn.dt / substeps, *command)
        if (k + 1) % ss == 0:
            rows.append((p_r, p_cv))
    return tuple(np.array(c) for c in zip(*rows))


def _assert_follows(ts, want_r, want_cv) -> None:
    """Rows within SPAN_TOL of the reference's, per kPa of state."""
    scale = 1.0 + np.abs(want_r) + np.abs(want_cv)
    assert np.all(np.abs(ts.p_r - want_r) <= SPAN_TOL * scale)
    assert np.all(np.abs(ts.p_cv - want_cv) <= SPAN_TOL * scale)


def _counting_crossings(monkeypatch) -> list:
    """Make ``simulate``'s propagators record the length of every span ``cross`` takes."""
    crossings = []
    build = sim.propagator

    def counted(*args):
        prop = build(*args)

        def cross(p_r, p_cv, f_in, f_mot, sol, h, t):
            crossings.append(h)
            return prop.cross(p_r, p_cv, f_in, f_mot, sol, h, t)

        return prop._replace(cross=cross)

    monkeypatch.setattr(sim, "propagator", counted)
    return crossings


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a 20-term Taylor series."""
    norm = float(np.abs(m).sum(axis=1).max())
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    x = m / 2.0**squarings
    term = result = np.eye(len(m))
    for k in range(1, 21):
        term = term @ x / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


class TestExpPhi1:
    """exp_phi1 against Van Loan's block form:
    expm([[A, I], [0, 0]] t) = [[e^(At), int_0^t e^(Au) du], [0, I]]."""

    ENTRY = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-10.0, 10.0)

    @settings(max_examples=300, deadline=None)
    @given(a11=ENTRY, a12=ENTRY, a21=ENTRY, a22=ENTRY, t=st.floats(0.0, 1.0))
    @example(0.0, 0.0, 0.0, 0.0, 0.5)  # zero
    @example(0.0, 0.0, 5.0, 0.0, 0.5)  # nilpotent
    @example(-1.0, 0.0, 3.0, -1.0, 0.3)  # repeated eigenvalue, defective
    @example(-3.0, 0.0, 0.0, -3.0, 0.9)  # repeated eigenvalue, diagonal
    @example(-2.0, 2.0, 1.0, -1.0, 0.7)  # singular
    @example(0.0, 1.0, -4.0, 0.0, 0.9)  # complex pair on the imaginary axis
    @example(-1.0, 1e4, 0.0, -1.0001, 1.0)  # near repeated, far from normal
    @example(-9.0, 0.0, 0.0, 0.0, 1e-4)  # held reservoir, Taylor branch
    @example(5e-324, 0.0, 0.0, 2.0, 0.5)  # a subnormal eigenvalue: lam*t rounds to 0
    def test_equals_block_exponential(self, a11, a12, a21, a22, t):
        a = np.array([[a11, a12], [a21, a22]])
        block = np.zeros((4, 4))
        block[:2, :2] = a * t
        block[:2, 2:] = np.eye(2) * t
        ref = _expm(block)
        ea, eb, fa, fb = sim.exp_phi1(a11, a12, a21, a22, t)
        e = ea * np.eye(2) + eb * a * t
        f = t * (fa * np.eye(2) + fb * a * t)
        # the reference's own rounding grows with the block's norm (squarings)
        tol = 1e-13 * (1.0 + np.abs(block).sum(axis=1).max()) * (1.0 + np.abs(ref).max())
        assert np.abs(e - ref[:2, :2]).max() <= tol
        assert np.abs(f - ref[:2, 2:]).max() <= tol


def _span(net, p_r, p_cv, f_in, f_mot, sol, h, hold=False):
    """``propagator``'s span from a state, in the region that holds it."""
    prop = sim.propagator(net, gm.DEFAULT_GAS, hold)
    return prop.span(prop.region(p_r, p_cv, f_in, f_mot, sol), p_r, p_cv, h)


class TestExactSpan:
    """The exact span against RK4 of the helpers' rates, in every region of the network."""

    # (net kwargs, hold, p_r, p_cv, u_in, u_mot, sol, h)
    REGIONS = {
        "held reservoir": ({}, True, 689.0, 20.0, 0.7, 0.0, False, 1e-3),
        "unheld inflation": ({}, False, 689.0, 20.0, 1.0, 0.0, False, 0.2),
        "all valves closed": ({}, False, 400.0, 50.0, 0.0, 0.0, False, 0.5),
        "vent": ({}, False, 400.0, 50.0, 0.0, 0.0, True, 0.3),
        "Venturi saturated": ({}, False, 800.0, 50.0, 0.0, 1.0, True, 0.5),
        "Venturi below saturation": ({}, False, 500.0, 50.0, 0.0, 1.0, True, 0.05),
        "Venturi held reservoir": ({}, True, 500.0, 50.0, 0.0, 0.6, True, 0.2),
        "complex eigenvalues": ({"v_r": 0.1}, False, 600.0, 40.0, 1.0, 1.0, True, 0.4),
        "complex, short span": ({"v_r": 0.1}, False, 600.0, 40.0, 1.0, 1.0, True, 5e-4),
        "motive clamped": ({}, False, -20.0, 10.0, 0.0, 1.0, True, 0.1),
        # alpha*c_mot/v_r = alpha/(r_open*v_cv): one eigenvalue twice, to rounding
        "repeated eigenvalues": (
            {"v_r": 100.0 * 0.5 / cp.DVP_R_VMIN}, False, 2000.0, 50.0, 0.0, 1.0, True, 0.4
        ),
    }

    @staticmethod
    def _span(net_kw, hold, p_r, p_cv, u_in, u_mot, sol, h):
        net = _network(**net_kw)
        f_in = cp.valve_fraction(u_in, net.inflation_valve)
        f_mot = cp.valve_fraction(u_mot, net.motive_valve)
        return net, _span(net, p_r, p_cv, f_in, f_mot, sol, h, hold)

    def _check(self, net_kw, hold, p_r, p_cv, u_in, u_mot, sol, h):
        net, got = self._span(net_kw, hold, p_r, p_cv, u_in, u_mot, sol, h)
        if got is None:
            return False
        want = _rk4_reference(net, hold, p_r, p_cv, u_in, u_mot, sol, h)
        scale = 1.0 + abs(p_r) + abs(p_cv)
        assert abs(got[0] - want[0]) <= SPAN_TOL * scale, (got, want)
        assert abs(got[1] - want[1]) <= SPAN_TOL * scale, (got, want)
        return True

    @pytest.mark.parametrize("region", sorted(REGIONS))
    def test_each_region(self, region):
        net_kw, hold, p_r, p_cv, u_in, u_mot, sol, h = self.REGIONS[region]
        assert self._check(*self.REGIONS[region]), "span rejected"
        # the piece's A p + b is the helpers' rate at the state
        net = _network(**net_kw)
        f_in = cp.valve_fraction(u_in, net.inflation_valve)
        f_mot = cp.valve_fraction(u_mot, net.motive_valve)
        pc = sim.propagator(net, gm.DEFAULT_GAS, hold).region(p_r, p_cv, f_in, f_mot, sol)
        dp_r, dp_cv = _reference_dp(net, hold)(p_r, p_cv, u_in, u_mot, sol)
        assert pc.a11 * p_r + pc.a12 * p_cv == pytest.approx(dp_r, rel=1e-12, abs=1e-12)
        assert pc.a21 * p_r + pc.a22 * p_cv + pc.b2 == pytest.approx(dp_cv, rel=1e-12, abs=1e-12)

    def test_regions_cover_the_eigenvalue_cases(self):
        cases = {}
        for name, (net_kw, hold, p_r, p_cv, u_in, u_mot, sol, h) in self.REGIONS.items():
            net = _network(**net_kw)
            f_in = cp.valve_fraction(u_in, net.inflation_valve)
            f_mot = cp.valve_fraction(u_mot, net.motive_valve)
            pc = sim.propagator(net, gm.DEFAULT_GAS, hold).region(p_r, p_cv, f_in, f_mot, sol)
            s, delta, det, rho = sim._spectrum(pc.a11, pc.a12, pc.a21, pc.a22)
            cases[name] = (delta < 0.0, det == 0.0, rho * h > sim._TAYLOR_MAX, pc.a12 == 0.0)
            if name == "repeated eigenvalues":
                assert abs(delta) < 1e-20 * s * s
        assert cases["complex eigenvalues"][:3] == (True, False, True)
        assert cases["complex, short span"][:3] == (True, False, False)
        assert cases["all valves closed"][1] and cases["held reservoir"][1]
        assert cases["Venturi saturated"] == (False, False, True, True)  # triangular
        assert cases["Venturi below saturation"][0] is False
        assert cases["repeated eigenvalues"][1:] == (False, True, True)

    @settings(max_examples=200, deadline=None)
    @given(
        v_r=st.floats(0.05, 4.0),
        v_cv=st.floats(0.05, 2.0),
        r_open=st.floats(20.0, 500.0),
        q_rated=st.floats(0.3, 3.0),
        floor=st.floats(-95.0, -20.0),
        hold=st.booleans(),
        p_r=st.floats(-100.0, 1200.0),
        p_cv=st.floats(-100.0, 300.0),
        u_in=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        u_mot=st.sampled_from([0.0, 0.3, 1.0]),
        sol=st.booleans(),
        steps=st.sampled_from([1, 2, 20, 200]),
    )
    # a Venturi saturated at the start, crossing into its linear range during the span
    @example(2.0, 0.5, 100.0, cp.VENTURI_Q_RATED, -80.0, False, 700.0, 50.0, 0.0, 1.0, True, 200)
    def test_span_equals_rk4(
        self, v_r, v_cv, r_open, q_rated, floor, hold, p_r, p_cv, u_in, u_mot, sol, steps
    ):
        assume(sol or u_in == 0.0 or u_mot == 0.0)  # ActuatorCommand forbids wasted motive air
        net_kw = {"v_r": v_r, "v_cv": v_cv, "r_open": r_open, "q_rated": q_rated, "floor": floor}
        self._check(net_kw, hold, p_r, p_cv, u_in, u_mot, sol, steps * 5e-4)

    def test_held_command_pieces_are_kept(self):
        # the rows and spans of one held command read the same piece of a region; a changed
        # command's pieces are built anew
        prop = sim.propagator(cp.default_network(), gm.DEFAULT_GAS, True)
        pid = prop.region(689.0, 20.0, 0.3, 0.0, False)
        assert prop.region(689.0, 21.0, 0.3, 0.0, False) is pid
        inflate = prop.region(689.0, 21.0, 1.0, 0.0, False)
        assert prop.region(689.0, 22.0, 1.0, 0.0, False) is inflate
        assert prop.region(689.0, 22.0, 0.3, 0.0, False) is not pid

    HELD = st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.6, 1.0]),
                     st.booleans())
    CALL = st.tuples(st.sampled_from(["region", "span", "cross"]), HELD,
                     st.floats(-100.0, 900.0), st.floats(-100.0, 300.0),
                     st.sampled_from([1e-3, 0.05, 0.5]))

    @staticmethod
    def _call(prop, name, held, p_r, p_cv, h) -> str:
        """The repr (exact for floats) of one call, or of what it raises; only span takes
        a piece, so only span is led by region."""
        try:
            if name == "cross":
                return repr(prop.cross(p_r, p_cv, *held, h, 0.0))
            pc = prop.region(p_r, p_cv, *held)
            return repr(pc if name == "region" else prop.span(pc, p_r, p_cv, h))
        except Exception as exc:
            return repr(exc)

    @settings(max_examples=200, deadline=None)
    @given(hold=st.booleans(), calls=st.lists(CALL, min_size=2, max_size=8))
    # a saturated Venturi, then an inflation-alone cross through the same state
    @example(False, [("region", (0.0, 1.0, True), 800.0, 50.0, 0.5),
                     ("cross", (1.0, 0.0, False), 800.0, 50.0, 0.5)])
    def test_calls_read_only_their_arguments(self, hold, calls):
        # one propagator through calls under different held commands, against a fresh one
        # for each call: no command, piece or map may carry over from one call to the next
        net = _network(v_r=0.1)
        shared = sim.propagator(net, gm.DEFAULT_GAS, hold)
        for name, (u_in, u_mot, sol), p_r, p_cv, h in calls:
            held = (cp.valve_fraction(u_in, net.inflation_valve),
                    cp.valve_fraction(u_mot, net.motive_valve), sol)
            fresh = sim.propagator(net, gm.DEFAULT_GAS, hold)
            event(name)
            assert (self._call(shared, name, held, p_r, p_cv, h)
                    == self._call(fresh, name, held, p_r, p_cv, h))

    @settings(max_examples=200, deadline=None)
    @given(f_in=st.floats(0.0, 1.0, exclude_min=True), r_in=st.floats(1.0, 1e4),
           v_r=st.floats(0.01, 10.0), v_cv=st.floats(0.01, 10.0), hold=st.booleans(),
           h=st.floats(1e-6, 1.0), state=st.tuples(st.floats(-100.0, 900.0),
                                                   st.floats(-100.0, 900.0)))
    def test_inflation_is_the_inflation_alone_piece(self, f_in, r_in, v_r, v_cv, hold, h,
                                                    state):
        # the closed loop maps inflation alone from these coefficients and builds no piece:
        # they must be region's code-0 piece to the bit, whose A is singular with b in its
        # range, so that span would take the same held singular map
        net = cp.default_network(v_r=v_r, v_cv=v_cv)
        net = replace(net, inflation_valve=replace(net.inflation_valve, r_vmin=r_in))
        prop = sim.propagator(net, gm.DEFAULT_GAS, hold)
        pc = prop.region(*state, f_in, 0.0, False)
        c_in, a11, a12, a21, a22 = prop.inflation(f_in)
        assert _hexes((c_in, 0.0, 0.0, 0.0, a11, a12, a21, a22, 0.0)) == _hexes(
            (pc.c_in, pc.c_mot, pc.n_r, pc.n_0, pc.a11, pc.a12, pc.a21, pc.a22, pc.b2))
        assert pc.exhaust is False and pc.kinks == ()
        assert sim._held_gain(pc.a11, pc.a12, pc.a21, pc.a22, pc.b2, h) is not None

    def test_kinkless_copy_takes_its_own_map(self, monkeypatch):
        # A kinked piece whose complex pair (-1 +- 10i) turns by pi over h, the shortest such
        # h: span rejects it. Every shorter length is inside (its one kink never binds), so
        # cross's bisection ends at h itself, and its kinkless copy must take its own map
        # there, not the kinked piece's rejection kept for the same length. region builds
        # this piece for every state and command.
        pc = sim.Piece(0.0, 0.0, 0.0, 0.0, False, -1.0, 10.0, -10.0, -1.0, 0.0,
                       ((0.0, 0.0, 1.0),))
        monkeypatch.setattr(sim, "Piece", lambda *fields: pc)
        prop = sim.propagator(cp.default_network())
        h = math.pi / 10.0
        while 10.0 * h < math.pi:
            h = math.nextafter(h, 1.0)
        while 10.0 * math.nextafter(h, 0.0) >= math.pi:
            h = math.nextafter(h, 0.0)
        assert prop.span(pc, 1.0, 1.0, h) is None
        want = prop.span(pc._replace(kinks=()), 1.0, 1.0, h)
        assert want is not None and prop.cross(1.0, 1.0, 0.0, 1.0, True, h, 0.0) == want

    def test_span_across_a_kink_is_rejected(self):
        # saturated at 700 kPa, the reservoir falls below saturation (689 kPa) within 0.5 s
        assert self._span({}, False, 700.0, 50.0, 0.0, 1.0, True, 0.5)[1] is None
        assert self._span({}, False, 700.0, 50.0, 0.0, 1.0, True, 1e-3)[1] is not None

    def test_span_over_half_an_oscillation_is_not_accepted(self):
        # a lightly damped complex pair (omega 9.8/s against a decay of 2.2/s):
        # over 0.75 s, 2.3 half-turns, the region's exact solution swings the
        # reservoir below atmosphere and back inside, so its end and the slopes
        # at both ends look inside, while the true state stops at the motive
        # clamp below atmosphere
        net = _network(v_r=0.1, v_cv=0.483, q_rated=1.0 / cp.DVP_R_VMIN)
        p_r, p_cv, h = 0.5231812103833013, 8.95022274417883, 0.7489186248081455
        pc = sim.propagator(net).region(p_r, p_cv, 1.0, 1.0, True)
        ea, eb, fa, fb = sim.exp_phi1(pc.a11, pc.a12, pc.a21, pc.a22, h)
        r_r, r_cv = pc.a11 * p_r + pc.a12 * p_cv, pc.a21 * p_r + pc.a22 * p_cv + pc.b2
        assert p_r + h * (fa * r_r + fb * h * (pc.a11 * r_r + pc.a12 * r_cv)) > 0.0
        assert _rk4_reference(net, False, p_r, p_cv, 1.0, 1.0, True, h, steps=4000)[0] < -1.0
        assert _span(net, p_r, p_cv, 1.0, 1.0, True, h) is None
        assert _span(net, p_r, p_cv, 1.0, 1.0, True, 1e-3) is not None

    def test_segment_over_a_turn_a_row_keeps_only_its_start(self):
        # A kinked piece whose complex pair (-1 +- 10i) turns by 2 pi each row: between rows
        # p_r swings to -0.73, across its kink at p_r = -0.5, and back, while the rows and the
        # kink's slopes there (all falling) look inside. Only the oscillation rule stops
        # segment at its start row.
        pc = sim.Piece(0.0, 0.0, 0.0, 0.0, False, -1.0, 10.0, -10.0, -1.0, 0.0,
                       ((1.0, 0.0, 0.5),))
        prop = sim.propagator(cp.default_network())
        h = 2.0 * math.pi / 10.0
        free = pc._replace(kinks=())  # across the kink at half a turn, inside at the row
        assert prop.span(free, 1.0, 0.0, h / 2.0)[0] < -0.5 < prop.span(free, 1.0, 0.0, h)[0]
        p_r, p_cv, *_ = prop.segment(pc, 1.0, 0.0, np.array([0.0, h, 2.0 * h]))
        assert (p_r.tolist(), p_cv.tolist()) == ([1.0], [0.0])

    @staticmethod
    def _peaking():
        """A control volume at twice the Venturi's saturation pressure flows back into a
        reservoir just below it, lifting the reservoir above saturation until the motive
        flow draws it back below."""
        net = _network(v_r=0.5)
        u_mot = 0.1  # the valve has no deadband, so its fraction is the command
        p_sat = net.venturi.q_motive_rated * net.motive_valve.r_vmin / u_mot
        return net, u_mot, p_sat, 0.999 * p_sat, 2.0 * p_sat

    def test_span_peaking_across_a_kink_is_rejected(self):
        net, u_mot, p_sat, p_r, p_cv = self._peaking()
        rates = _reference_dp(net)
        state, peak = (p_r, p_cv), p_r
        for _ in range(5000):  # 0.5 s
            state = _rk4(rates, *state, 1e-4, 1.0, u_mot, True)
            peak = max(peak, state[0])
        assert peak > p_sat > state[0]  # both ends below saturation
        assert _span(net, p_r, p_cv, 1.0, u_mot, True, 0.5) is None
        assert _span(net, p_r, p_cv, 1.0, u_mot, True, 1e-3) is not None

    def test_open_loop_rows_around_a_peak_fall_back(self, monkeypatch):
        # rows 0.5 s apart: the peak between two rows is found from the slopes at the
        # rows, and the span between them goes to the crossings located on the map
        net, u_mot, p_sat, p_r, p_cv = self._peaking()
        net = replace(
            net,
            reservoir=replace(net.reservoir, p_r0=p_r),
            control_volume=replace(net.control_volume, p_cv=p_cv),
        )
        scn = Scenario(
            network=net,
            command=StepCommand(target_kpa=0.0),
            duration=2.0,
            sample_rate=2.0,
            open_loop_command=ActuatorCommand(1.0, u_mot, True),
        )
        crossings = _counting_crossings(monkeypatch)
        ts = simulate(scn)
        assert crossings
        assert ts.p_r[0] < p_sat and ts.p_r[1] < p_sat
        _assert_follows(ts, *_rk4_run(scn))

    def test_open_loop_run_touching_a_kink_follows_reference(self, monkeypatch):
        # the control volume of the peaking network set, by bisection on the exact
        # map, so that the reservoir's peak touches saturation: the slopes reject
        # the span over the peak, and the crossing meets a tangency
        net, u_mot, p_sat, p_r, _ = self._peaking()
        p_cv = 1.5121438304788626 * p_sat
        net = replace(
            net,
            reservoir=replace(net.reservoir, p_r0=p_r),
            control_volume=replace(net.control_volume, p_cv=p_cv),
        )
        scn = Scenario(
            network=net,
            command=StepCommand(target_kpa=0.0),
            duration=2.0,
            open_loop_command=ActuatorCommand(1.0, u_mot, True),
        )
        crossings = _counting_crossings(monkeypatch)
        ts = simulate(scn)
        want_r, want_cv = _rk4_run(scn)
        assert crossings and abs(want_r.max() - p_sat) <= 1e-8 * p_sat  # sampled at the rows
        _assert_follows(ts, want_r, want_cv)

    def test_open_loop_crosses_saturation_through_fallback(self, monkeypatch):
        # the reservoir starts above Venturi saturation (689 kPa) and runs down through it
        net = cp.default_network(p_r0=800.0)
        scn = Scenario(
            network=net,
            command=StepCommand(target_kpa=0.0),
            duration=4.0,
            open_loop_command=ActuatorCommand(0.0, 1.0, True),
        )
        crossings = _counting_crossings(monkeypatch)
        ts = simulate(scn)
        assert crossings, "the kink was not crossed by a located crossing"
        assert ts.p_r[0] > 689.0 > ts.p_r[-1]
        _assert_follows(ts, *_rk4_run(scn))

    @settings(max_examples=25, deadline=None)
    @given(
        kink=st.sampled_from(["exhaust clamp", "Venturi saturation", "motive clamp"]),
        v_r=st.floats(0.05, 0.3),
        v_cv=st.floats(0.2, 1.0),
        r_open=st.floats(5.0, 300.0),
        q_rated=st.floats(0.3, 3.0),
        floor=st.floats(-95.0, -20.0),
        u=st.floats(0.3, 1.0),
        start=st.floats(0.0, 1.0),
        sample_rate=st.sampled_from([2000.0, 500.0]),
    )
    def test_open_loop_run_crossing_a_kink_follows_reference(
        self, kink, v_r, v_cv, r_open, q_rated, floor, u, start, sample_rate
    ):
        # a state that reaches the kink at about t_x into a 40 ms run
        net = _network(v_r=v_r, v_cv=v_cv, r_open=r_open, q_rated=q_rated, floor=floor)
        t_x, a = 0.0021 + 0.0278 * start, gm.alpha(gm.DEFAULT_GAS)  # between rows
        r_in, r_mot = net.inflation_valve.r_vmin, net.motive_valve.r_vmin
        if kink == "exhaust clamp":  # inflation lifts p_cv through atmosphere into the vent
            state, command = (600.0, -t_x * u * 600.0 * a / (r_in * v_cv)), (u, 0.0, True)
        elif kink == "Venturi saturation":  # the motive flow runs p_r down below saturation
            p_sat, tau = q_rated * r_mot / u, v_r * r_mot / (a * u)
            state, command = (p_sat * math.exp(t_x / tau), 0.0), (0.0, u, True)
        else:  # the motive clamp: a control volume under vacuum draws p_r below atmosphere
            state, command = (t_x * u * 60.0 * a / (r_in * v_r), -60.0), (u, u, True)
        net = replace(
            net,
            reservoir=replace(net.reservoir, p_r0=state[0]),
            control_volume=replace(net.control_volume, p_cv=state[1]),
        )
        scn = Scenario(
            network=net,
            command=StepCommand(target_kpa=0.0),
            duration=0.04,
            sample_rate=sample_rate,
            open_loop_command=ActuatorCommand(*command),
        )
        with pytest.MonkeyPatch.context() as monkeypatch:
            crossings = _counting_crossings(monkeypatch)
            ts = simulate(scn)
        assert crossings, kink
        _assert_follows(ts, *_rk4_run(scn, 100))


class TestSimulateBasics:
    def test_sealed_volume_holds_pressure(self):
        net = cp.default_network(v_cv=0.5, p_cv0=50.0)
        scn = Scenario(
            network=net,
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

    def test_default_controller_equals_explicit(self):
        net = cp.default_network(v_cv=0.3, p_cv0=40.0)
        bare = Scenario(network=net, command=StepCommand(target_kpa=20.0), duration=0.5)
        explicit = replace(bare, controller=ControllerConfig())
        a, b = simulate(bare), simulate(explicit)
        for name in sim.TimeSeries.FIELDS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    @pytest.mark.parametrize("r_open, mode", [(100.0, Mode.ACTIVE_DEFLATE), (10.0, Mode.VENT)])
    def test_venting_capability_follows_the_solenoid(self, r_open, mode):
        # a 50 kPa fall needs 50 / settle_horizon = 250 kPa/s; passive venting
        # gives passive_vent_coeff(r_open, v_cv) * 50 kPa, about 101 or 1013 kPa/s
        net = cp.default_network(p_cv0=50.0)
        net = replace(net, solenoid=cp.BinaryValveSpec(r_open=r_open))
        scn = Scenario(network=net, command=StepCommand(target_kpa=0.0), duration=0.01)
        capability = passive_vent_coeff(r_open, net.control_volume.v_cv) * 50.0
        assert (capability < 250.0) == (mode is Mode.ACTIVE_DEFLATE)
        assert simulate(scn).mode[0] == mode

    def test_sampling_grid(self):
        scn = step_scenario(69.0, duration=0.5)
        ts = simulate(scn)
        assert len(ts) == round(0.5 * scn.sample_rate) + 1
        assert ts.t[0] == 0.0
        assert ts.t[-1] == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(np.diff(ts.t), 1.0 / scn.sample_rate, rtol=0, atol=1e-12)

    def test_stiff_exhaust_follows_reference(self, monkeypatch):
        # A stiff exhaust (h*alpha/(r_open*v_cv) = 50) into the Venturi's vacuum
        # node. The node rises as the motive flow runs the reservoir down, so
        # the exact solution meets the node within the first span, and the
        # exhaust shuts there. RK4 needs about dt/1000 to follow it.
        net = cp.default_network(v_cv=0.1, p_cv0=100.0, p_r0=600.0)
        net = replace(net, solenoid=cp.BinaryValveSpec(r_open=0.01))
        scn = Scenario(
            network=net,
            command=StepCommand(target_kpa=0.0),
            duration=0.02,
            open_loop_command=ActuatorCommand(0.0, 1.0, True),
        )
        crossings = _counting_crossings(monkeypatch)
        ts = simulate(scn)
        assert crossings == [scn.dt]  # the first row's span; the rows after it hold one region
        assert np.all(ts.q_out[1:] == 0.0) and ts.p_cv[1] < 0.0
        _assert_follows(ts, *_rk4_run(scn, RK4_SUBSTEPS))

    def test_non_finite_state_diverges(self):
        # an inflation valve of 1e-310 kPa s/L conducts an infinite flow; Scenario's rule
        # rejects such a network, so the propagator is driven directly
        net = cp.default_network()
        net = replace(net, inflation_valve=replace(net.inflation_valve, r_vmin=1e-310))
        prop = sim.propagator(net)
        with pytest.raises(SimulationDivergence, match=r"^non-finite state at t=0 s$"):
            prop.cross(689.0, 0.0, 1.0, 0.0, False, 1e-3, 0.0)

    @pytest.mark.parametrize("p_cv0", [30.0, 60.0, 100.0])
    def test_stiff_vent_settles_at_atmosphere(self, p_cv0):
        # h*alpha/(r_open*v_cv) = 46: the exact map lands on the exhaust clamp
        # (0 kPa), from 30 and 60 kPa a rounding below it, and stays there,
        # where RK4 would diverge
        net = cp.default_network(v_cv=0.1, p_cv0=p_cv0)
        r_open = gm.alpha(gm.DEFAULT_GAS) / (0.1 * 46.0 / 5e-4)
        net = replace(net, solenoid=cp.BinaryValveSpec(r_open=r_open))
        scn = Scenario(
            network=net,
            command=StepCommand(target_kpa=0.0),
            duration=0.5,
            open_loop_command=ActuatorCommand(0.0, 0.0, True),
        )
        ts = simulate(scn)  # open loop: rows a segment at a time
        assert ts.p_cv[0] == p_cv0
        assert np.all(np.abs(ts.p_cv[1:]) <= 1e-12)
        prop = sim.propagator(net)  # and span by span, as in closed loop
        state = (689.0, p_cv0)
        for _ in range(10):
            state = prop.span(prop.region(*state, 0.0, 0.0, True), *state, scn.dt)
            assert state is not None and abs(state[1]) <= 1e-12

    def test_stiff_vent_follows_closed_form(self):
        # r_open puts h*alpha/(r_open*v_cv) = 3.5, beyond RK4's stability limit;
        # the exact map follows 150*e^(-3.5 k) to within rounding of the start
        # (1e-12 kPa) and stays above the atmosphere it vents to
        ts = simulate(self._stiff_vent())
        k = np.arange(len(ts))
        assert np.allclose(ts.p_cv, 150.0 * np.exp(-3.5 * k), rtol=1e-12, atol=1e-12)
        assert ts.p_cv.min() > -1e-12
        assert np.all(ts.p_r == 689.0)

    @staticmethod
    def _stiff_vent() -> Scenario:
        net = cp.default_network(v_cv=0.1, p_cv0=150.0)
        r_open = gm.alpha(gm.DEFAULT_GAS) / (0.1 * 3.5 / 5e-4)
        net = replace(net, solenoid=cp.BinaryValveSpec(r_open=r_open))
        return Scenario(
            network=net,
            command=StepCommand(target_kpa=0.0),
            duration=0.01,
            open_loop_command=ActuatorCommand(0.0, 0.0, True),
        )


class TestDischarge:
    def test_matches_closed_form(self):
        scn = discharge_scenario(r_v=R_CATALOG, v_r=2.0, p_r0=689.0, duration=90.0)
        ts = simulate(scn)
        expected = np.array(
            [gm.discharge_pressure(t, 689.0, R_CATALOG, 2.0) for t in ts.t]
        )
        nrmse = math.sqrt(float(np.mean((ts.p_r - expected) ** 2))) / 689.0
        assert nrmse < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        v_r=st.floats(0.1, 10.0),
        r_v=st.floats(1e2, 1e4),
        p_r0=st.floats(10.0, 1000.0),
        taus=st.floats(0.01, 3.0),
    )
    def test_every_row_is_the_closed_form_to_rounding(self, v_r, r_v, p_r0, taus):
        # one region for the whole run, so the exact map gives the paper's decay at each
        # row to a few hundred units of rounding (2**-53 is 1.1e-16)
        tau = gm.discharge_time_constant(r_v, v_r)
        scn = discharge_scenario(r_v=r_v, v_r=v_r, p_r0=p_r0, duration=taus * tau, dt=tau / 500)
        ts = simulate(scn)
        want = np.array([gm.discharge_pressure(t, p_r0, r_v, v_r) for t in ts.t.tolist()])
        assert np.all(np.abs(ts.p_r - want) <= 1e-12 * want)

    # Two more single-region runs the paper gives in closed form, each from one valve of
    # resistance r_v into or out of the control volume, checked at every row as above.
    ORACLE_RUNS = dict(v_cv=st.floats(0.05, 5.0), r_v=st.floats(1e2, 1e4),
                       p_r=st.floats(10.0, 1000.0), p_cv0=st.floats(10.0, 1000.0))

    @staticmethod
    def _one_valve_run(net, command: ActuatorCommand, tau: float, hold: bool):
        """Times and p_cv of a 3 tau open-loop run of ``net``, a row each step of tau / 500."""
        ts = simulate(Scenario(network=net, command=StepCommand(0.0), dt=tau / 500,
                               duration=3 * tau, sample_rate=500 / tau,
                               hold_reservoir=hold, open_loop_command=command))
        assert len(ts) == 1501
        return ts.t.tolist(), ts.p_cv

    @settings(max_examples=60, deadline=None)
    @given(**ORACLE_RUNS)
    def test_held_reservoir_inflation_is_the_closed_form_to_rounding(self, v_cv, r_v, p_r, p_cv0):
        # p_r - p_cv discharges through the inflation valve into V_cv, from the initial rate
        # inflation_rate gives
        net = cp.default_network(p_r0=p_r, v_cv=v_cv, p_cv0=p_cv0)
        net = replace(net, inflation_valve=replace(net.inflation_valve, r_vmin=r_v))
        tau = gm.discharge_time_constant(r_v, v_cv)
        assert gm.inflation_rate(p_r - p_cv0, r_v, v_cv) == pytest.approx((p_r - p_cv0) / tau,
                                                                          rel=1e-15)
        times, p_cv = self._one_valve_run(net, ActuatorCommand(1.0, 0.0, False), tau, hold=True)
        want = np.array([p_r - gm.discharge_pressure(t, p_r - p_cv0, r_v, v_cv) for t in times])
        assert np.all(np.abs(p_cv - want) <= 1e-12 * want)

    @settings(max_examples=60, deadline=None)
    @given(**ORACLE_RUNS)
    def test_passive_venting_is_the_closed_form_to_rounding(self, v_cv, r_v, p_r, p_cv0):
        # the solenoid vents V_cv to atmosphere through the idle Venturi, at the rate per kPa
        # that passive_vent_coeff gives
        net = cp.default_network(p_r0=p_r, v_cv=v_cv, p_cv0=p_cv0)
        net = replace(net, solenoid=replace(net.solenoid, r_open=r_v))
        tau = gm.discharge_time_constant(r_v, v_cv)
        assert passive_vent_coeff(r_v, v_cv) == pytest.approx(1.0 / tau, rel=1e-15)
        times, p_cv = self._one_valve_run(net, ActuatorCommand(0.0, 0.0, True), tau, hold=False)
        want = np.array([gm.discharge_pressure(t, p_cv0, r_v, v_cv) for t in times])
        assert np.all(np.abs(p_cv - want) <= 1e-12 * want)

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

    def test_rows_between_ticks_read_their_own_region(self):
        # A small reservoir above the Venturi's saturation pressure (689 kPa for
        # the default valve) under ACTIVE_DEFLATE falls through it within a few
        # steps. With a tick every 4 rows, it crosses between ticks, and each
        # row's flows must follow the laws of the region the row's state is in.
        net = cp.default_network(v_r=0.05, p_r0=800.0, p_cv0=150.0)
        saturation = net.venturi.q_motive_rated * net.motive_valve.r_vmin
        scn = Scenario(network=net, controller=ControllerConfig(control_rate=500.0),
                       command=StepCommand(0.0), duration=0.05, sample_rate=2000.0)
        ts = simulate(scn)
        cs = scn.control_stride()
        assert cs == 4 and set(ts.mode.tolist()) == {Mode.ACTIVE_DEFLATE}
        above = ts.p_r > saturation
        assert any(i % cs and above[i - i % cs] and not above[i] for i in range(len(ts)))
        rates = _reference_rates(net)
        for i in range(len(ts)):
            want = rates(ts.p_r[i], ts.p_cv[i], ts.u_inflate[i], ts.u_motive[i], bool(ts.solenoid[i]))
            scale = 1.0 + abs(ts.p_r[i]) + abs(ts.p_cv[i])
            for got, w in zip((ts.q_in[i], ts.q_out[i], ts.q_motive[i]), want[2:]):
                assert abs(got - w) <= FLOW_TOL * scale, i


# A knot on the first tick of the third command block, which is also the first
# row of a row block: the closed loop has a tick every 2 steps and a row every
# step, the open loop a row every 2 steps
BLOCK_KNOT_T = (2 * sim.COMMAND_BLOCK * 2) * 5e-4
BLOCK_COMMANDS = {
    "step": StepCommand(target_kpa=40.0, start_s=0.3),
    "sine": SineCommand(amplitude_kpa=21.0, freq_hz=1.35, offset_kpa=21.0),
    "piecewise": PiecewiseCommand(knots=((0.0, 10.0), (BLOCK_KNOT_T, 50.0), (1.3, 20.0))),
}


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
class TestCommandBlocks:
    """A run reads its command by array: the closed loop a block of ticks at a time, and both
    loops' rows their t and p_cmd a block of rows at a time."""

    def scenario(self, command, closed, noise_std=0.0):
        # 3 blocks plus 100 of ticks (closed) or rows (open): 1636, every 2 steps
        duration = (3 * sim.COMMAND_BLOCK + 99) * 2 * 5e-4
        net = cp.default_network()
        net = replace(net, cv_sensor=replace(net.cv_sensor, noise_std=noise_std))
        scn = Scenario(network=net, command=command, duration=duration,
                       sample_rate=2000.0 if closed else 1000.0, hold_reservoir=True,
                       open_loop_command=None if closed else ActuatorCommand(0.3, 0.0, False))
        n, cs = scn.n_steps(), scn.control_stride()
        assert (cs, scn.sample_stride()) == (2, 1 if closed else 2)
        assert n // cs + 1 == 3 * sim.COMMAND_BLOCK + 100
        return scn

    @pytest.mark.parametrize("kind", sorted(BLOCK_COMMANDS))
    def test_blocks_equal_scalar_command(self, kind, closed):
        command = BLOCK_COMMANDS[kind]
        scn = self.scenario(command, closed)
        n, ss, cs, dt = scn.n_steps(), scn.sample_stride(), scn.control_stride(), scn.dt
        ts = simulate(scn)
        assert ts.t.tolist() == [k * dt for k in range(0, n + 1, ss)]
        assert _hexes(ts.p_cmd) == _hexes(map(command.value, ts.t.tolist()))
        if kind == "piecewise":
            i = 4 // ss * sim.COMMAND_BLOCK  # the first row of a row block
            assert ts.t[i] == BLOCK_KNOT_T and ts.p_cmd[i - 1:i + 1].tolist() == [10.0, 50.0]
        if not closed:
            return
        tt = sim._event_times(0, n // cs + 1, cs, dt)  # the tick times the loop reads at
        assert tt.tolist() == [k * dt for k in range(0, n + 1, cs)]
        assert _hexes(command.values(tt)) == _hexes(map(command.value, tt.tolist()))
        assert _hexes(command.rates(tt)) == _hexes(map(command.rate, tt.tolist()))
        if kind == "piecewise":
            i = 2 * sim.COMMAND_BLOCK
            assert tt[i] == BLOCK_KNOT_T and command.values(tt[i - 1:i + 1]).tolist() == [10.0, 50.0]

    @pytest.mark.parametrize("kind", sorted(BLOCK_COMMANDS))
    def test_loop_makes_no_scalar_command_call(self, kind, closed, monkeypatch):
        command = BLOCK_COMMANDS[kind]
        scn = self.scenario(command, closed)
        want = simulate(scn)

        def refuse(self, t):
            raise AssertionError("a scalar command call")

        monkeypatch.setattr(type(command), "value", refuse)
        monkeypatch.setattr(type(command), "rate", refuse)
        got = simulate(scn)
        for name in sim.TimeSeries.FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("kind", sorted(BLOCK_COMMANDS))
    def test_noisy_run_equals_reference(self, kind, closed):
        # the closed loop draws its noise with each block of ticks, so across the blocks' edges
        # and in the short last block: each draw must equal sensor_read's one draw a tick. The
        # open loop reads no sensor, so its noisy run equals its noiseless one
        command = BLOCK_COMMANDS[kind]
        noisy = self.scenario(command, closed, noise_std=0.5)
        if closed:
            want = _columns(_closed_loop_reference, noisy)
        else:
            want = _columns(simulate, self.scenario(command, closed))
        assert isinstance(want, list) and _columns(simulate, noisy) == want


def _outcome(run, scn):
    """The bytes of ``run(scn)``, or the type and text of what it raises."""
    try:
        return run(scn).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def _both_outcomes(scn) -> tuple:
    return _outcome(lambda s: simulate(s).p_cv, scn), _outcome(sim.pressure_response, scn)


def _overflowing_vent(net):
    """``net`` with a 1e307 L control volume behind a 1e-307 solenoid: q_out overflows at 30 kPa."""
    net = replace(net, control_volume=replace(net.control_volume, v_cv=1e307, p_cv=30.0))
    return replace(net, solenoid=replace(net.solenoid, r_open=1e-307))


def _extreme(noise: float) -> tuple:
    """A network and gas that Scenario's rule accepts, though q_motive overflows in a run."""
    net = cp.default_network(v_r=1.5128909440973272e140, p_r0=33498738233.95681,
                             v_cv=1.7051783456298512e148, p_cv0=0.0)
    net = replace(
        net,
        inflation_valve=replace(net.inflation_valve, r_vmin=2.405906932282898e-105),
        motive_valve=replace(net.motive_valve, r_vmin=6.460715825196841e-127),
        solenoid=replace(net.solenoid, r_open=87491428.8657276),
        venturi=replace(net.venturi, p_vac_floor=-94.45634279757378,
                        q_motive_rated=1.4543854656642945e-17),
        cv_sensor=replace(net.cv_sensor, noise_std=noise),
    )
    return net, replace(gm.DEFAULT_GAS, M=2.4559921855792673e-61)


EXTREME_SINE = SineCommand(1.0511773840971705, 59.92429456399524, 1.5767660761457558)


COMMANDS = st.one_of(
    st.builds(StepCommand, target_kpa=st.floats(0.0, 150.0), start_s=st.floats(0.0, 0.2)),
    st.builds(lambda a, f, above: SineCommand(a, f, a + above), st.floats(0.0, 40.0),
              st.floats(0.2, 50.0), st.floats(0.0, 20.0)),
    st.builds(
        lambda first, later: PiecewiseCommand(knots=((0.0, first), *sorted(later.items()))),
        st.floats(0.0, 150.0), st.dictionaries(st.floats(1e-3, 0.3), st.floats(0.0, 150.0),
                                               max_size=4),
    ),
)


# (command, v_r, p_r0, p_cv0, hold_reservoir) of a closed-loop run on the default network
NETWORK_RUNS = st.tuples(COMMANDS, st.floats(0.05, 5.0), st.floats(0.0, 900.0),
                         st.floats(-60.0, 200.0), st.booleans())
# a small free reservoir above the Venturi's saturation pressure (689 kPa at full motive
# command) under a command below the control volume: active deflation runs the reservoir
# down across the saturation kink within most runs
DEFLATING_RUNS = st.tuples(st.builds(StepCommand, target_kpa=st.floats(0.0, 20.0)),
                           st.floats(0.02, 0.1), st.floats(700.0, 900.0), st.floats(60.0, 200.0),
                           st.just(False))


EXAMPLE = dict(hold=False, noise=0.1, sample_rate=2000.0, v_r=2.0, p_r0=689.0, v_cv=0.5,
               p_cv0=0.0, seed=0, extreme=True)


class TestPressureResponse:
    """``pressure_response`` stores only p_cv and p_r, and gives ``simulate``'s p_cv or error."""

    @settings(max_examples=150, deadline=None)
    @given(
        command=COMMANDS,
        hold=st.booleans(),
        noise=st.sampled_from([0.0, 0.1]),
        sample_rate=st.sampled_from([2000.0, 1000.0, 250.0]),  # stride 1, 2 and 8; ticks 2
        v_r=st.floats(0.05, 5.0),
        p_r0=st.floats(0.0, 900.0),
        v_cv=st.floats(0.05, 2.0),
        p_cv0=st.floats(-60.0, 200.0),
        duration=st.floats(0.01, 0.3),
        seed=st.integers(0, 2**32),
        extreme=st.booleans(),  # the network of _extreme in place of the default
    )
    # p_r climbs with no inflow, finite, until q_motive overflows: both paths raise the error
    # of the rates check they end in
    @example(command=EXTREME_SINE, duration=0.005, **EXAMPLE)
    def test_equals_simulate_or_raises_its_error(
        self, command, hold, noise, sample_rate, v_r, p_r0, v_cv, p_cv0, duration, seed, extreme
    ):
        net = cp.default_network(v_r=v_r, p_r0=p_r0, v_cv=v_cv, p_cv0=p_cv0)
        net, gas = replace(net, cv_sensor=replace(net.cv_sensor, noise_std=noise)), gm.DEFAULT_GAS
        if extreme:
            net, gas = _extreme(noise)
        try:
            scn = Scenario(network=net, command=command, duration=duration, gas=gas,
                           sample_rate=sample_rate, seed=seed, hold_reservoir=hold)
        except gm.FieldError:
            assume(False)
        want, got = _both_outcomes(scn)
        event("runs" if isinstance(want, bytes) else f"raises {want[0].__name__}")
        assert got == want

    def test_row_only_infinite_command_is_refused(self):
        # an infinite target that only the last row would read, after the last tick: the
        # command itself refuses it, so no run has to check p_cmd
        with pytest.raises(gm.FieldError, match=r"^StepCommand\.target_kpa: must be finite$"):
            StepCommand(math.inf, 0.0105)

    def test_infinite_row_time_is_refused(self):
        # rows at 0, 1e308 and 2e308 s: the last step's time overflows, so no run forms it
        with pytest.raises(gm.FieldError, match=r"^Scenario\.duration: too large: the last step"):
            Scenario(network=cp.default_network(p_r0=0.0), command=StepCommand(0.0),
                     controller=ControllerConfig(control_rate=5e-309), dt=1e308,
                     duration=1.7e308, sample_rate=1e-308, hold_reservoir=True)

    def test_overflowing_flow_fails_its_sweep_point(self):
        # the vent's rate constant alpha / V_cv / R_open, squared, overflows: no sweep is built
        with pytest.raises(gm.FieldError, match=r"^Scenario\.network: too extreme: "):
            Scenario(network=_overflowing_vent(cp.default_network()),
                     command=SineCommand(10.5, 1.0, 10.5), hold_reservoir=True)
        # the rule passes at the initial pressures; p_r climbs, and a point's run fails where
        # its state leaves the floats (2 Hz, 2.5 s) or, ended at 0.0035 s (2000 Hz) before
        # that, where the rates at its largest pressure overflow
        net, gas = _extreme(0.1)
        template = Scenario(network=net, command=EXTREME_SINE, duration=0.005, gas=gas)
        points = an.frequency_sweep(template, [2.0, 2000.0])
        assert [point.error for point in points] == [
            "non-finite state at t=0.005 s",
            "rates overflow: p_r reaches 2.4974e+142 kPa at t=0.0035 s",
        ]

    def test_reads_the_command_at_ticks_only(self, monkeypatch):
        # the records' rules keep every row time and level finite, so no row's t or p_cmd is
        # formed to be checked, and simulate does not run
        scn, _, _ = load_scenario(ROOT / "scenarios" / "sweep_21kpa_half_liter.json")
        scn = replace(scn, duration=0.1)
        lengths, values = [], SineCommand.values

        def counted(command, t):
            lengths.append(len(t))
            return values(command, t)

        monkeypatch.setattr(SineCommand, "values", counted)
        monkeypatch.setattr(sim, "simulate", lambda scn: pytest.fail("simulate ran"))
        sim.pressure_response(scn)
        assert sum(lengths) == scn.n_steps() // scn.control_stride() + 1 < scn.n_rows()

    def test_open_loop_is_simulate(self):
        scn = discharge_scenario(r_v=R_CATALOG, duration=1.0)
        assert sim.pressure_response(scn).tobytes() == simulate(scn).p_cv.tobytes()

    @pytest.mark.parametrize("name", ["step_69kpa_half_liter", "sweep_21kpa_half_liter"])
    def test_shipped_scenarios(self, name):
        scn, _, _ = load_scenario(ROOT / "scenarios" / f"{name}.json")
        want, got = _both_outcomes(scn)
        assert isinstance(want, bytes) and got == want


class TestRunCheck:
    """Both run paths end in one check of the rows' rates; what else a trace must hold, finite
    columns and increasing times, follows from it and from the records' rules."""

    @settings(max_examples=100, deadline=None)
    @given(
        command=COMMANDS,
        open_loop=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans()),
        hold=st.booleans(),
        noise=st.sampled_from([0.0, 0.1]),
        sample_rate=st.sampled_from([2000.0, 1000.0, 250.0]),
        v_r=st.floats(0.05, 5.0),
        p_r0=st.floats(0.0, 900.0),
        v_cv=st.floats(0.05, 2.0),
        p_cv0=st.floats(-60.0, 200.0),
        duration=st.floats(0.001, 0.1),
        seed=st.integers(0, 2**32),
        extreme=st.booleans(),  # the network of _extreme in place of the default
    )
    @example(command=EXTREME_SINE, open_loop=None, duration=0.0035, **EXAMPLE)
    @example(command=EXTREME_SINE, open_loop=None, duration=0.0044, **EXAMPLE)
    @example(command=EXTREME_SINE, open_loop=(0.0, 0.1, True), duration=0.1, **EXAMPLE)
    def test_trace_is_finite_and_increasing_or_both_paths_raise(
        self, command, open_loop, hold, noise, sample_rate, v_r, p_r0, v_cv, p_cv0, duration,
        seed, extreme
    ):
        net = cp.default_network(v_r=v_r, p_r0=p_r0, v_cv=v_cv, p_cv0=p_cv0)
        net, gas = replace(net, cv_sensor=replace(net.cv_sensor, noise_std=noise)), gm.DEFAULT_GAS
        if extreme:
            net, gas = _extreme(noise)
        try:
            scn = Scenario(network=net, command=command, duration=duration, gas=gas,
                           sample_rate=sample_rate, seed=seed, hold_reservoir=hold,
                           open_loop_command=open_loop and ActuatorCommand(*open_loop))
        except gm.FieldError:
            assume(False)
        try:
            ts = simulate(scn)
        except SimulationDivergence as exc:
            event(f"raises {str(exc).partition(' at ')[0].partition(':')[0]}")
            assert _outcome(sim.pressure_response, scn) == (SimulationDivergence, str(exc))
            return
        event("runs")
        for name in sim.TimeSeries.FIELDS:
            col = getattr(ts, name)
            assert len(col) == scn.n_rows() and (name == "mode" or np.all(np.isfinite(col))), name
        assert np.all(np.diff(ts.t) > 0.0)
        assert sim.pressure_response(scn).tobytes() == ts.p_cv.tobytes()


def _closed_loop_reference(scn: Scenario) -> sim.TimeSeries:
    """A closed-loop run by a naive loop over events, from the scalar pieces alone: one
    ``control_step`` of a ``ControllerState`` and one ``sensor_read`` draw a tick, the
    command's scalar ``value`` and ``rate``, ``valve_fraction`` of each tick's command, and
    the propagator's ``span`` or ``cross`` from each event (a tick, a row, the end) to the
    next. Every row is formed on its own, and each event builds its own propagator, so no
    piece or map is kept from one event to the next."""
    net, dt, cmd = scn.network, scn.dt, scn.command
    n, ss, cs = scn.n_steps(), scn.sample_stride(), scn.control_stride()
    rng = np.random.default_rng([scn.seed, net.cv_sensor.seed])
    vent = passive_vent_coeff(net.solenoid.r_open, net.control_volume.v_cv, scn.gas)
    state, act = ControllerState(), IDLE_COMMAND
    p_r, p_cv = net.reservoir.p_r0, net.control_volume.p_cv
    events = sorted({*range(0, n + 1, cs), *range(0, n + 1, ss), n})
    rows = []
    for k, nxt in zip(events, [*events[1:], None]):
        t = k * dt
        if k % cs == 0:
            p_meas = cp.sensor_read(p_cv, net.cv_sensor, rng)
            act, state = control_step(cmd.value(t), p_meas, cmd.rate(t), scn.controller, vent,
                                      state)
        held = (cp.valve_fraction(act.u_inflate, net.inflation_valve),
                cp.valve_fraction(act.u_motive, net.motive_valve), act.solenoid_open)
        prop = sim.propagator(net, scn.gas, scn.hold_reservoir)
        pc = prop.region(p_r, p_cv, *held)
        if k % ss == 0:
            rows.append((t, cmd.value(t), p_cv, p_r, act.u_inflate, act.u_motive,
                         1.0 if act.solenoid_open else 0.0, *prop.flows(pc, p_r, p_cv),
                         state.mode))
        if nxt is not None:
            h = (nxt - k) * dt
            p_r, p_cv = prop.span(pc, p_r, p_cv, h) or prop.cross(p_r, p_cv, *held, h, t)
    return sim.TimeSeries(**{
        name: np.array(col, dtype=np.uint8 if name == "mode" else float)
        for name, col in zip(sim.TimeSeries.FIELDS, zip(*rows))
    })


# inflation coefficients (c_in, a11, a12, a21, a22) of a singular A, as every inflation-alone A
# is, whose map overflows from any p_r > 0: the closed loop's inline bounds test rejects it
OVERFLOWING = (0.0, 0.0, 0.0, 1e308, 0.0)


def _columns(run, scn):
    """The bytes of every column of ``run(scn)``, or the type and text of what it raises."""
    try:
        ts = run(scn)
    except Exception as exc:
        return type(exc), str(exc)
    return [getattr(ts, name).tobytes() for name in sim.TimeSeries.FIELDS]


class TestClosedLoopReference:
    """``simulate`` in closed loop equals ``_closed_loop_reference`` bit for bit: both take
    the same spans, so any difference is in the order or the wiring of the events."""

    @settings(max_examples=150, deadline=None)
    @given(
        run=st.one_of(NETWORK_RUNS, DEFLATING_RUNS),
        noise=st.sampled_from([0.0, 0.5]),
        sample_rate=st.sampled_from([2000.0, 1000.0, 400.0, 250.0]),  # row strides 1, 2, 5, 8
        control_rate=st.sampled_from([1000.0, 500.0, 250.0]),  # tick strides 2, 4, 8
        v_cv=st.floats(0.05, 2.0),
        duration=st.floats(0.01, 0.2),
        seed=st.integers(0, 2**32),
        # the valves' deadbands u0 (inflation, motive): in 0.2, a PID command gives fraction 0.0
        deadbands=st.tuples(st.sampled_from([0.0, 0.2]), st.sampled_from([0.0, 0.2])),
    )
    # The edges of a control period, pinned with a tick stride of 4: n < cs, which drawn
    # durations (20 steps or more against a tick stride of at most 8) never reach; n a multiple
    # of cs (the last tick at n); n % cs != 0 (the last period partial, its end no row)
    @example(run=(StepCommand(40.0), 2.0, 689.0, 0.0, False), noise=0.5, sample_rate=2000.0,
             control_rate=500.0, v_cv=0.5, duration=5e-4, seed=1, deadbands=(0.0, 0.0))
    @example(run=(StepCommand(40.0), 2.0, 689.0, 0.0, False), noise=0.5, sample_rate=2000.0,
             control_rate=500.0, v_cv=0.5, duration=0.01, seed=1, deadbands=(0.0, 0.0))
    @example(run=(StepCommand(40.0), 2.0, 689.0, 30.0, False), noise=0.5, sample_rate=1000.0,
             control_rate=500.0, v_cv=0.5, duration=0.0115, seed=1, deadbands=(0.0, 0.0))
    # active deflation whose reservoir falls below the Venturi's saturation between the last
    # tick and the end, a row: that row reads the region it is in
    @example(run=(StepCommand(0.0), 0.05, 800.0, 150.0, False), noise=0.5, sample_rate=2000.0,
             control_rate=500.0, v_cv=0.5, duration=0.0455, seed=3, deadbands=(0.0, 0.0))
    # the sweep's layout: a row a step, a tick every 2 steps, the reservoir held
    @example(run=(SineCommand(21.0, 1.35, 21.0), 2.0, 689.0, 0.0, True), noise=0.5,
             sample_rate=2000.0, control_rate=1000.0, v_cv=0.5, duration=0.3, seed=7,
             deadbands=(0.0, 0.0))
    # the same from 0.34 s on, where active deflation ticks (kinked) interrupt PID ticks
    # whose inflation valve is shut or in its deadband: the inflation-alone fraction 0.0
    # recurs right after a kinked tick, and must not take the kinked tick's piece
    @example(run=(SineCommand(21.0, 1.35, 21.0), 2.0, 689.0, 0.0, True), noise=0.5,
             sample_rate=2000.0, control_rate=1000.0, v_cv=0.5, duration=0.45, seed=7,
             deadbands=(0.2, 0.2))
    # the step's layout: a row every 20 steps, a tick every 2
    @example(run=(StepCommand(69.0), 2.0, 689.0, 0.0, False), noise=0.1, sample_rate=100.0,
             control_rate=1000.0, v_cv=0.5, duration=0.5, seed=7, deadbands=(0.0, 0.0))
    # a row every 5 steps, a tick every 2, under active deflation across the saturation kink
    @example(run=(StepCommand(0.0), 0.05, 800.0, 150.0, False), noise=0.5, sample_rate=400.0,
             control_rate=1000.0, v_cv=0.5, duration=0.05, seed=3, deadbands=(0.0, 0.0))
    def test_equals_reference(self, run, noise, sample_rate, control_rate, v_cv, duration, seed,
                              deadbands):
        command, v_r, p_r0, p_cv0, hold = run
        net = cp.default_network(v_r=v_r, p_r0=p_r0, v_cv=v_cv, p_cv0=p_cv0)
        u0_in, u0_mot = deadbands
        net = replace(net, cv_sensor=replace(net.cv_sensor, noise_std=noise),
                      inflation_valve=replace(net.inflation_valve, u0=u0_in),
                      motive_valve=replace(net.motive_valve, u0=u0_mot))
        try:
            scn = Scenario(network=net, command=command, duration=duration,
                           controller=ControllerConfig(control_rate=control_rate),
                           sample_rate=sample_rate, seed=seed, hold_reservoir=hold)
        except gm.FieldError:
            assume(False)
        want = _columns(_closed_loop_reference, scn)
        event("runs" if isinstance(want, list) else f"raises {want[0].__name__}")
        with pytest.MonkeyPatch.context() as monkeypatch:
            crossings = _counting_crossings(monkeypatch)
            assert _columns(simulate, scn) == want
        event("crosses a kink" if crossings else "crosses no kink")

    def test_inline_held_singular_map_rejects_as_span_does(self, monkeypatch):
        # Inflation alone whose coefficients are a held singular drain (p_r held, p_cv falling
        # at 689 kPa/s), so that the state passes below perfect vacuum mid-run. Every tick of
        # the step inflates, so the loop maps each span inline from them; with OVERFLOWING
        # coefficients the inline test rejects every span, and cross maps it by the drain
        # piece, which region builds for every command, through span. Both runs must fill the
        # same rows and raise the same error at the same time. The inline run calls cross only
        # at its rejection, and neither run calls region itself: cross regions on its own.
        scn = Scenario(network=cp.default_network(p_cv0=20.0), command=StepCommand(40.0),
                       duration=0.3)
        drain = sim.Piece(0.0, 0.0, 0.0, 0.0, False, 0.0, 0.0, -1.0, 0.0, 0.0, ())
        monkeypatch.setattr(sim, "Piece", lambda *fields: drain)
        runs, crosses, regions = [], [], []
        for coeffs in ((drain.c_in, *drain[5:9]), OVERFLOWING):
            base = sim.propagator(scn.network, scn.gas, scn.hold_reservoir)
            calls, states = [], []
            prop = base._replace(inflation=lambda f_in: coeffs,
                                 region=lambda *state: states.append(state) or base.region(*state),
                                 cross=lambda *span: calls.append(span[2:5]) or base.cross(*span))
            columns = {name: np.zeros(scn.n_rows()) for name in ("p_cv", "p_r")}
            with pytest.raises(SimulationDivergence) as err:
                sim._closed_loop(scn, columns, prop)
            runs.append((err.value.t, str(err.value), [col.tobytes() for col in columns.values()]))
            crosses.append(calls)
            regions.append(states)
        assert runs[0] == runs[1] and 0.1 < runs[0][0] < 0.2
        assert len(crosses[0]) == 1 and len(crosses[1]) > 100
        assert regions == [[], []]
        assert {command for calls in crosses for command in calls} == {(1.0, 0.0, False)}

    def test_inline_rejection_after_a_kinked_tick_crosses_by_its_command(self, monkeypatch):
        # The sweep's layout, where PID ticks (inflation alone) follow active deflation ticks
        # (kinked) from 0.34 s on. With OVERFLOWING coefficients the inline test rejects every
        # inflation-alone span, so each goes to cross, which must map it by that command's own
        # piece, not by the kinked command region held last: the run equals the unpatched one.
        net = cp.default_network()
        net = replace(net, cv_sensor=replace(net.cv_sensor, noise_std=0.5))
        scn = Scenario(network=net, command=SineCommand(21.0, 1.35, 21.0), duration=0.5,
                       seed=7, hold_reservoir=True)
        want = _columns(simulate, scn), sim.pressure_response(scn).tobytes()
        build, trail = sim.propagator, []

        def patched(*args):
            prop = build(*args)

            def region(p_r, p_cv, f_in, f_mot, sol):
                trail.append("kinked" if f_mot or sol else "alone")
                return prop.region(p_r, p_cv, f_in, f_mot, sol)

            def cross(p_r, p_cv, f_in, f_mot, sol, h, t):
                trail.append((f_mot, sol))
                return prop.cross(p_r, p_cv, f_in, f_mot, sol, h, t)

            return prop._replace(inflation=lambda f_in: OVERFLOWING, region=region, cross=cross)

        monkeypatch.setattr(sim, "propagator", patched)
        got = _columns(simulate, scn), sim.pressure_response(scn).tobytes()
        assert isinstance(want[0], list) and got == want
        # pressure_response calls region for no row: there a rejection's cross call comes
        # right after the last kinked tick's region call, and takes the inflation-alone command
        assert ("kinked", (0.0, False)) in zip(trail, trail[1:])

    def test_inline_integrator_clamps_at_both_limits(self, monkeypatch):
        # A noisy sensor at a small step: in band, its errors drive the integrator past both
        # ends of a small limit, where the loop's inline clamps must hold it as control_step's
        net = cp.default_network()
        net = replace(net, cv_sensor=replace(net.cv_sensor, noise_std=0.5))
        limit = 1e-4
        scn = Scenario(network=net, command=StepCommand(20.0), duration=0.5, seed=1,
                       controller=ControllerConfig(integrator_limit=limit))
        law, integrators = control_step, []

        def recording(*args, **kwargs):
            act, state = law(*args, **kwargs)
            integrators.append(state.integrator)
            return act, state

        monkeypatch.setitem(globals(), "control_step", recording)  # the reference's law
        want = _columns(_closed_loop_reference, scn)
        assert isinstance(want, list) and _columns(simulate, scn) == want
        assert integrators.count(-limit) > 10 and integrators.count(limit) > 10

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("method, name", [("rates", "cmd_rate_hint"), ("values", "p_cmd")])
    def test_non_finite_tick_input_raises_the_laws_error(self, monkeypatch, method, name, bad):
        # from the fourth tick on, the command reads infinite or NaN
        scn = Scenario(network=cp.default_network(), command=SineCommand(21.0, 1.35, 21.0),
                       duration=0.01, hold_reservoir=True)
        read = getattr(SineCommand, method)
        monkeypatch.setattr(SineCommand, method,
                            lambda command, t: np.where(t > 0.0025, bad, read(command, t)))
        inputs = {"p_cmd": 21.0, "p_meas": 0.0, "cmd_rate_hint": 0.0, name: bad}
        with pytest.raises(ValueError) as want:
            control_step(**inputs, cfg=scn.controller, vent_coeff=1.0, state=ControllerState())
        assert str(want.value) == f"{name} must be finite, got {bad}"
        for run in (simulate, sim.pressure_response):
            with pytest.raises(ValueError) as got:
                run(scn)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("sample_rate", [2000.0, 400.0])
    def test_crossing_kinks(self, monkeypatch, sample_rate):
        # active deflation from a small reservoir above the Venturi's saturation pressure
        # (689 kPa at full motive command): the runs cross into the unsaturated region
        net = cp.default_network(v_r=0.05, p_r0=800.0, p_cv0=150.0)
        net = replace(net, cv_sensor=replace(net.cv_sensor, noise_std=0.5))
        scn = Scenario(network=net, command=StepCommand(0.0), duration=0.05,
                       sample_rate=sample_rate)
        crossings = _counting_crossings(monkeypatch)
        want = _columns(_closed_loop_reference, scn)
        assert crossings and isinstance(want, list) and _columns(simulate, scn) == want

    @pytest.mark.parametrize("name", ["step_69kpa_half_liter", "sweep_21kpa_half_liter"])
    def test_shipped_scenarios(self, name):
        scn, _, _ = load_scenario(ROOT / "scenarios" / f"{name}.json")
        assert scn.closed_loop
        want = _columns(_closed_loop_reference, scn)
        assert isinstance(want, list) and _columns(simulate, scn) == want


class TestMassBalance:
    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_rows_refused(self, rows):
        scn = step_scenario(69.0, duration=0.01)
        ts = simulate(scn)
        ts = sim.TimeSeries(**{name: getattr(ts, name)[:rows] for name in sim.TimeSeries.FIELDS})
        with pytest.raises(ValueError, match="^mass_balance needs at least two samples$"):
            mass_balance(ts, scn)

    def test_sealed_scenario_balances_exactly(self):
        net = cp.default_network(v_cv=0.5, p_cv0=50.0)
        scn = Scenario(
            network=net,
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
