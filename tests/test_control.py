import math

import pytest
from hypothesis import example, given, settings, strategies as st

from pneusim import gasmodel as gm
from pneusim.control import (
    ActuatorCommand,
    ControllerConfig,
    ControllerState,
    Mode,
    control_step,
    passive_vent_coeff,
    required_deflation_rate,
)


# the default network's venting coefficient: R_open 100 kPa s/L into a 0.5 L control volume
VENT = gm.alpha(gm.DEFAULT_GAS) / (100.0 * 0.5)


def vent_capability(p_meas: float, r_open: float, v_cv: float) -> float:
    """The deflation rate passive venting reaches, as control_step forms it."""
    return passive_vent_coeff(r_open, v_cv) * max(0.0, p_meas)


class TestPassiveVentCapability:
    def test_ambient_cv_cannot_vent(self):
        assert vent_capability(0.0, 100.0, 0.1) == 0.0

    def test_small_actuator(self):
        assert vent_capability(20.7, 100.0, 0.1) == pytest.approx(209.73, abs=0.02)

    def test_doubling_resistance_halves_rate(self):
        assert vent_capability(20.7, 200.0, 0.1) == pytest.approx(
            vent_capability(20.7, 100.0, 0.1) / 2, rel=1e-12
        )

    def test_negative_pressure_clamped(self):
        assert vent_capability(-5.0, 100.0, 0.1) == 0.0

    def test_rejects_bad_volume(self):
        with pytest.raises(ValueError):
            passive_vent_coeff(100.0, 0.0)

    def test_rejects_bad_resistance(self):
        with pytest.raises(ValueError):
            passive_vent_coeff(0.0, 0.5)

    def test_order_is_alpha_over_volume_over_resistance(self):
        a = gm.alpha(gm.DEFAULT_GAS)
        for r_open, v_cv in ((100.0, 0.5), (37.3, 0.3), (1e-150, 1e-175)):
            assert passive_vent_coeff(r_open, v_cv).hex() == (a / v_cv / r_open).hex()


class TestModeSelection:
    def test_large_positive_error_maximizes_inflow(self):
        cfg = ControllerConfig()
        cmd, state = control_step(69.0, 19.0, 0.0, cfg, VENT, ControllerState())
        assert state.mode is Mode.ON_OFF_INFLATE
        assert cmd.u_inflate == 1.0
        assert cmd.u_motive == 0.0
        assert not cmd.solenoid_open

    def test_zero_error_zero_state_idles(self):
        cfg = ControllerConfig()
        cmd, state = control_step(50.0, 50.0, 0.0, cfg, VENT, ControllerState())
        assert state.mode is Mode.PID
        assert cmd.u_inflate == 0.0
        assert not cmd.solenoid_open

    def test_boundary_errors_stay_in_pid_branch(self):
        cfg = ControllerConfig()
        for e in (cfg.error_cutoff, -cfg.error_cutoff):
            _, state = control_step(50.0 + e, 50.0, 0.0, cfg, VENT, ControllerState())
            assert state.mode is Mode.PID

    def test_just_outside_band_switches(self):
        cfg = ControllerConfig()
        eps = 1e-9
        up_cmd, down_cmd = 50.0 + cfg.error_cutoff + eps, 50.0 - cfg.error_cutoff - eps
        _, up = control_step(up_cmd, 50.0, 0.0, cfg, VENT, ControllerState())
        _, down = control_step(down_cmd, 50.0, 0.0, cfg, VENT, ControllerState())
        assert up.mode is Mode.ON_OFF_INFLATE
        assert down.mode in (Mode.VENT, Mode.ACTIVE_DEFLATE)

    def test_active_deflation_only_above_passive_capability(self):
        # capability 10 kPa/s, required rate 40 kPa/s -> motive assist engaged
        cfg = ControllerConfig(settle_horizon=2.0)
        cmd, state = control_step(0.0, 50.0, -15.0, cfg, 10.0 / 50.0, ControllerState())
        assert required_deflation_rate(-50.0, -15.0, cfg) == 40.0
        assert state.mode is Mode.ACTIVE_DEFLATE
        assert cmd.solenoid_open and cmd.u_motive == 1.0

    def test_passive_vent_when_capability_suffices(self):
        cfg = ControllerConfig(settle_horizon=2.0)
        cmd, state = control_step(0.0, 50.0, -15.0, cfg, 100.0 / 50.0, ControllerState())
        assert state.mode is Mode.VENT
        assert cmd.solenoid_open and cmd.u_motive == 0.0

    @given(
        e=st.floats(min_value=-80.0, max_value=80.0, allow_nan=False),
        hint=st.floats(min_value=-200.0, max_value=200.0, allow_nan=False),
    )
    def test_mode_is_pure_function_of_inputs(self, e, hint):
        cfg = ControllerConfig()
        _, s1 = control_step(30.0 + e, 30.0, hint, cfg, VENT, ControllerState())
        _, s2 = control_step(30.0 + e, 30.0, hint, cfg, VENT, ControllerState())
        assert s1.mode is s2.mode
        assert (s1.mode is not Mode.PID) == (abs(e) > cfg.error_cutoff)

    def test_active_never_engaged_when_passive_suffices(self):
        cfg = ControllerConfig()
        for p_meas in (10.0, 50.0, 150.0):
            for hint in (0.0, -5.0, -40.0):
                cmd, state = control_step(p_meas - 30.0, p_meas, hint, cfg, VENT, ControllerState())
                required = required_deflation_rate(-30.0, hint, cfg)
                capability = VENT * p_meas
                if state.mode is Mode.ACTIVE_DEFLATE:
                    assert required > capability

    def test_rejects_non_finite_inputs(self):
        cfg = ControllerConfig()
        with pytest.raises(ValueError):
            control_step(math.nan, 0.0, 0.0, cfg, VENT, ControllerState())
        with pytest.raises(ValueError):
            control_step(0.0, math.inf, 0.0, cfg, VENT, ControllerState())


class TestPidBranch:
    def test_proportional_output(self):
        cfg = ControllerConfig(kp=0.5, ki=0.0, kd=0.0)
        cmd, _ = control_step(50.8, 50.0, 0.0, cfg, VENT, ControllerState())
        assert cmd.u_inflate == pytest.approx(0.4, rel=1e-12)

    def test_output_clamped_to_one(self):
        cfg = ControllerConfig(kp=5.0, ki=0.0, kd=0.0)
        cmd, _ = control_step(50.9, 50.0, 0.0, cfg, VENT, ControllerState())
        assert cmd.u_inflate == 1.0

    def test_integrator_reset_on_entry(self):
        cfg = ControllerConfig()
        state = ControllerState(integrator=1.5, prev_error=5.0, mode=Mode.ON_OFF_INFLATE)
        _, new = control_step(50.0, 50.0, 0.0, cfg, VENT, state)
        assert new.mode is Mode.PID
        assert abs(new.integrator) <= 1e-12

    def test_integrator_carried_within_pid(self):
        cfg = ControllerConfig(ki=1.0)
        state = ControllerState(mode=Mode.PID, integrator=0.5, prev_error=0.5)
        _, new = control_step(50.5, 50.0, 0.0, cfg, VENT, state)
        assert new.integrator == pytest.approx(0.5 + 0.5 / cfg.control_rate, rel=1e-12)

    def test_negative_output_vents_with_duty(self):
        cfg = ControllerConfig(kp=0.5, ki=0.0)
        # error -0.8 -> u = -0.4 -> duty accumulates, opens every 1/0.4 periods
        state = ControllerState(mode=Mode.PID)
        opens = 0
        for _ in range(100):
            cmd, state = control_step(49.2, 50.0, 0.0, cfg, VENT, state)
            assert cmd.u_inflate == 0.0
            opens += cmd.solenoid_open
        assert opens == pytest.approx(40, abs=1)

    def test_leaving_the_band_clears_duty_and_keeps_integrator(self):
        cfg = ControllerConfig()
        state = ControllerState(integrator=0.5, prev_error=-0.5, mode=Mode.PID, duty_acc=0.75)
        for p_cmd in (69.0, 0.0):  # far above, then far below the band
            _, new = control_step(p_cmd, 19.0, 0.0, cfg, VENT, state)
            assert (new.mode is not Mode.PID, new.duty_acc, new.integrator) == (True, 0.0, 0.5)

    @given(
        errors=st.lists(
            st.floats(min_value=-0.999, max_value=0.999, allow_nan=False), min_size=1, max_size=200
        )
    )
    def test_integrator_never_exceeds_limit(self, errors):
        cfg = ControllerConfig(ki=2.0, integrator_limit=0.05)
        state = ControllerState()
        for e in errors:
            _, state = control_step(50.0 + e, 50.0, 0.0, cfg, VENT, state)
            assert abs(state.integrator) <= cfg.integrator_limit + 1e-15


class TestActuatorCommand:
    def test_rejects_wasted_motive_air(self):
        with pytest.raises(ValueError):
            ActuatorCommand(u_inflate=0.5, u_motive=0.5, solenoid_open=False)

    def test_motive_with_open_solenoid_allowed(self):
        ActuatorCommand(u_inflate=0.0, u_motive=1.0, solenoid_open=True)

    def test_command_range_validated(self):
        with pytest.raises(ValueError):
            ActuatorCommand(u_inflate=1.5)

    @given(
        e=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        hint=st.floats(min_value=-300.0, max_value=300.0, allow_nan=False),
        integ=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
    def test_controller_never_emits_wasted_motive(self, e, hint, integ):
        cfg = ControllerConfig()
        state = ControllerState(integrator=integ, mode=Mode.PID)
        cmd, _ = control_step(40.0 + e, 40.0, hint, cfg, VENT, state)
        assert not (cmd.u_inflate > 0 and cmd.u_motive > 0 and not cmd.solenoid_open)


def _hex_state(state: ControllerState) -> tuple:
    return (state.integrator.hex(), state.prev_error.hex(), state.mode, state.duty_acc.hex())


def _step_kernel(cfg: ControllerConfig, vent_coeff: float,
                 state: ControllerState = ControllerState()):
    """``control_step`` as a tick, the state carried from one call to the next:
    ``tick(p_cmd, p_meas, cmd_rate_hint) -> (u_inflate, u_motive, solenoid_open, mode)``,
    and ``tick.state()`` the state it has reached."""

    def tick(p_cmd: float, p_meas: float, cmd_rate_hint: float) -> tuple:
        nonlocal state
        cmd, state = control_step(p_cmd, p_meas, cmd_rate_hint, cfg, vent_coeff, state)
        return cmd.u_inflate, cmd.u_motive, cmd.solenoid_open, state.mode

    tick.state = lambda: state
    return tick


CONFIGS = st.builds(
    ControllerConfig,
    kp=st.floats(min_value=0.0, max_value=2.0),
    ki=st.floats(min_value=0.0, max_value=50.0),
    kd=st.floats(min_value=0.0, max_value=0.01),
    error_cutoff=st.floats(min_value=0.1, max_value=5.0),
    control_rate=st.sampled_from([100.0, 500.0, 1000.0]),
    settle_horizon=st.floats(min_value=0.01, max_value=1.0),
    integrator_limit=st.floats(min_value=0.0, max_value=0.05),
    active_deflation_rate_threshold=st.floats(min_value=0.0, max_value=200.0),
)
VENT_COEFFS = st.floats(min_value=0.0, max_value=5.0)
# errors mostly near the band, so ticks enter and leave it and stay in it for a while
TICKS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=150.0),
        st.one_of(st.floats(min_value=-6.0, max_value=6.0), st.floats(min_value=-1.5, max_value=1.5)),
        st.floats(min_value=-500.0, max_value=500.0),
    ).map(lambda x: (x[0], x[0] - x[1], x[2])),
    min_size=1,
    max_size=80,
)
# band entry and exit, duty pulses, and an integrator held at its limit
BAND_WALK = [(50.0, 50.0 - e, 0.0) for e in (5.0, 0.9, 0.9, -0.9, -0.9, -0.9, -5.0, -0.5, 0.2)] + [
    (50.0, 49.5, -20.0)
] * 30


class TestControlKernel:
    def test_band_walk_covers_the_branches(self):
        cfg = ControllerConfig(kp=1.5, ki=20.0, kd=0.002, integrator_limit=0.01)
        tick = _step_kernel(cfg, VENT)
        states = []
        for args in BAND_WALK:
            tick(*args)
            states.append(tick.state())
        modes = [s.mode for s in states]
        assert {Mode.ON_OFF_INFLATE, Mode.PID, Mode.VENT} <= set(modes)
        assert any(a is not Mode.PID and b is Mode.PID for a, b in zip(modes, modes[1:]))
        assert any(a is Mode.PID and b is not Mode.PID for a, b in zip(modes, modes[1:]))
        assert any(s.duty_acc > 0.0 for s in states)
        assert any(s.integrator == cfg.integrator_limit for s in states)

    def test_seeded_from_a_state(self):
        # every field of a state already in the PID band is read: the integrator, the
        # previous error (through kd) and the duty accumulator, which pulses the solenoid
        cfg = ControllerConfig(kp=1.0, ki=0.1, kd=0.0001)
        state = ControllerState(integrator=0.5, prev_error=0.5, mode=Mode.PID, duty_acc=0.25)
        tick, reference = _step_kernel(cfg, VENT, state), _builtin_kernel(cfg, VENT, state)
        assert _hex_state(tick.state()) == _hex_state(state)
        ticks = ((49.7, 50.0, 0.0), (49.6, 50.0, 0.0), (49.6, 50.0, 0.0))
        outcomes = [_outcome(tick, args) for args in ticks]
        assert outcomes == [_outcome(reference, args) for args in ticks]
        assert [sol for (_, _, sol, _), _ in outcomes] == [False, False, True]  # a duty pulse

    def test_fixed_commands_equal_by_value(self):
        def command(*args) -> str:  # by repr, which tells -0.0 from 0.0 as == does not
            return repr(control_step(*args)[0])

        inflate, vent, idle = (repr(ActuatorCommand(1.0, 0.0, False)),
                               repr(ActuatorCommand(0.0, 0.0, True)),
                               repr(ActuatorCommand(0.0, 0.0, False)))
        cfg, weak, strong = ControllerConfig(settle_horizon=2.0), 10.0 / 50.0, 100.0 / 50.0
        assert command(69.0, 19.0, 0.0, cfg, weak, ControllerState()) == inflate
        assert command(0.0, 50.0, -15.0, cfg, weak, ControllerState()) == repr(
            ActuatorCommand(0.0, 1.0, True))
        assert command(0.0, 50.0, -15.0, cfg, strong, ControllerState()) == vent
        pid = ControllerState(mode=Mode.PID)
        soft, hard = ControllerConfig(kp=0.5, ki=0.0), ControllerConfig(kp=5.0, ki=0.0)
        assert command(49.9, 50.0, 0.0, soft, VENT, pid) == idle
        assert command(49.2, 50.0, 0.0, hard, VENT, pid) == vent
        zero = ControllerConfig(kp=0.0, ki=0.0, kd=0.0)  # a PID output of -0.0 keeps its sign
        assert command(49.5, 50.0, 0.0, zero, VENT, pid) == repr(ActuatorCommand(-0.0, 0.0, False))

    def test_non_finite_input_named(self):
        tick = _step_kernel(ControllerConfig(), VENT)
        with pytest.raises(ValueError, match="cmd_rate_hint must be finite"):
            tick(50.0, 50.0, math.inf)


def _builtin_kernel(cfg: ControllerConfig, vent_coeff: float,
                    state: ControllerState = ControllerState()):
    """The tick law with its clamps written as min/max: the reference control_step's
    comparisons must equal."""
    cutoff = cfg.error_cutoff
    dt = 1.0 / cfg.control_rate
    kp, ki, kd = cfg.kp, cfg.ki, cfg.kd
    limit = cfg.integrator_limit
    threshold = cfg.active_deflation_rate_threshold
    isfinite = math.isfinite
    pid, inflate, vent, deflate = Mode.PID, Mode.ON_OFF_INFLATE, Mode.VENT, Mode.ACTIVE_DEFLATE
    integ, prev, mode, acc = state.integrator, state.prev_error, state.mode, state.duty_acc

    def tick(p_cmd: float, p_meas: float, cmd_rate_hint: float) -> tuple:
        nonlocal integ, prev, mode, acc
        if not (isfinite(p_cmd) and isfinite(p_meas) and isfinite(cmd_rate_hint)):
            for name, value in (("p_cmd", p_cmd), ("p_meas", p_meas), ("cmd_rate_hint", cmd_rate_hint)):
                if not isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
        e = p_cmd - p_meas
        if e > cutoff:
            prev, mode, acc = e, inflate, 0.0
            return 1.0, 0.0, False, inflate
        if e < -cutoff:
            required = required_deflation_rate(e, cmd_rate_hint, cfg)
            capability = vent_coeff * max(0.0, p_meas)
            active = required > max(capability, threshold)
            prev, mode, acc = e, deflate if active else vent, 0.0
            return 0.0, 1.0 if active else 0.0, True, mode
        if mode is not pid:
            integ, prev, acc = 0.0, e, 0.0
        integ = min(max(integ + e * dt, -limit), limit)
        u = kp * e + ki * integ + kd * (e - prev) / dt
        prev, mode = e, pid
        if u >= 0.0:
            acc = 0.0
            return min(u, 1.0), 0.0, False, pid
        acc += min(-u, 1.0)
        open_now = acc >= 1.0
        if open_now:
            acc -= 1.0
        return 0.0, 0.0, open_now, pid

    tick.state = lambda: ControllerState(integ, prev, mode, acc)
    return tick


def _outcome(tick, args) -> tuple:
    """A tick's outputs by float.hex and the state it left, or the exception it raised.

    No state after a raise: ``control_step`` leaves its input state as it was, while the
    reference's cells may be partly updated (a zero ``dt``, at ``control_rate`` inf, raises
    in the PID band after the integrator restart).
    """
    try:
        u_in, u_mot, sol, mode = tick(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return (u_in.hex(), u_mot.hex(), sol, mode), _hex_state(tick.state())


SPECIAL = st.sampled_from([0.0, -0.0, math.inf, 5e-324, 2.2250738585072014e-308, 1.0, 1e308])
NONNEG = st.floats(min_value=0.0) | st.sampled_from([-0.0, 5e-324, math.inf])
POSITIVE = st.floats(min_value=0.0, exclude_min=True) | st.sampled_from([5e-324, math.inf])
ANY_FLOAT = st.floats() | st.sampled_from([-0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan])
WIDE_CONFIGS = st.builds(
    ControllerConfig,
    kp=NONNEG | SPECIAL,
    ki=NONNEG | SPECIAL,
    kd=NONNEG | SPECIAL,
    error_cutoff=POSITIVE,
    control_rate=POSITIVE,
    settle_horizon=POSITIVE,
    integrator_limit=NONNEG,
    active_deflation_rate_threshold=NONNEG,
)
# any floats, and pairs within a few cutoffs of each other so the PID band is reached
WIDE_TICKS = st.lists(
    st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT)
    | st.tuples(st.floats(-300.0, 300.0), ANY_FLOAT | st.floats(-3.0, 3.0), ANY_FLOAT).map(
        lambda x: (x[0], x[0] - x[1], x[2])
    ),
    min_size=1,
    max_size=60,
)


class TestClampComparisons:
    @settings(deadline=None, max_examples=300)
    @example(
        cfg=ControllerConfig(kp=1.5, ki=20.0, kd=0.002, integrator_limit=0.01), vent=VENT,
        ticks=BAND_WALK,
    )
    @example(
        cfg=ControllerConfig(kp=0.0, ki=0.0, kd=0.0), vent=VENT,
        ticks=[(0.0, 0.5, 0.0), (0.0, 0.6, 0.0)],
    )
    # a -0.0 integrator limit, a zero threshold and an infinite gain
    @example(
        cfg=ControllerConfig(integrator_limit=-0.0, active_deflation_rate_threshold=0.0, kd=math.inf),
        vent=VENT,
        ticks=[(10.0, 10.5, 0.0), (0.0, -0.0, 0.0), (0.0, 30.0, -0.0), (5.0, 5.0, 1e308)],
    )
    # a zero integrator limit and a zero error: the integrator equals both -limit (-0.0)
    # and limit (0.0), so only the strict comparisons keep its +0.0
    @example(cfg=ControllerConfig(integrator_limit=0.0), vent=VENT, ticks=[(5.0, 5.0, 0.0)])
    # the shipped ranges, whose ticks enter and leave the band, and any floats
    @given(cfg=CONFIGS | WIDE_CONFIGS, vent=VENT_COEFFS | NONNEG, ticks=TICKS | WIDE_TICKS)
    def test_kernel_equals_builtin_clamps(self, cfg, vent, ticks):
        kernel, reference = _step_kernel(cfg, vent), _builtin_kernel(cfg, vent)
        for args in ticks:
            assert _outcome(kernel, args) == _outcome(reference, args), args
