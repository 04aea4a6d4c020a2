"""Hybrid pressure controller: PID inside an error band, on/off outside it.

Above the error cutoff the controller commands maximum inflation flow; below
the negative cutoff it opens the exhaust solenoid and adds Venturi-assisted
deflation only when the estimated required rate exceeds what passive venting
to atmosphere can deliver. Inside the band a PID acts on the inflation valve;
negative PID output is realized as duty-equivalent solenoid venting because
the physical exhaust valve is binary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .gasmodel import DEFAULT_GAS, FieldError, GasConstants, alpha, record


class Mode(enum.IntEnum):
    """Controller mode; the value is the code stored in TimeSeries.mode."""

    IDLE = 0
    PID = 1
    ON_OFF_INFLATE = 2
    VENT = 3
    ACTIVE_DEFLATE = 4


@record(u_inflate="unit", u_motive="unit")
class ActuatorCommand:
    """Valve commands for one control period.

    u_inflate and u_motive are never both positive while the solenoid is
    closed (no wasted motive air without a deflation path).
    """

    u_inflate: float = 0.0
    u_motive: float = 0.0
    solenoid_open: bool = False

    def rule(self) -> None:
        if self.u_inflate > 0.0 and self.u_motive > 0.0 and not self.solenoid_open:
            raise FieldError(
                self, "u_inflate", "must be 0 while {u_motive} > 0 and {solenoid_open} is false "
                "(the motive air would be wasted)",
            )


IDLE_COMMAND = ActuatorCommand(0.0, 0.0, False)
# the fixed commands control_step returns, shared rather than rebuilt each tick
INFLATE_COMMAND = ActuatorCommand(1.0, 0.0, False)
VENT_COMMAND = ActuatorCommand(0.0, 0.0, True)
ACTIVE_DEFLATE_COMMAND = ActuatorCommand(0.0, 1.0, True)


@record(
    passive_vent_coeff="nonneg", kp="nonneg", ki="nonneg", kd="nonneg", error_cutoff="pos",
    control_rate="pos", settle_horizon="pos", integrator_limit="nonneg",
)
class ControllerConfig:
    """Gains and thresholds; passive_vent_coeff is alpha/(r_open*v_cv)."""

    passive_vent_coeff: float  # (kPa/s) per kPa of CV gauge pressure
    kp: float = 0.05  # per kPa
    ki: float = 0.5  # per (kPa*s)
    kd: float = 0.0  # s per kPa... command per (kPa/s)
    error_cutoff: float = 1.0  # kPa
    control_rate: float = 1000.0  # Hz
    settle_horizon: float = 0.2  # s, error-recovery urgency for deflation sizing
    integrator_limit: float = 2.0  # kPa*s
    active_deflation_rate_threshold: float = 0.0  # kPa/s


@dataclass(frozen=True)
class ControllerState:
    integrator: float = 0.0  # kPa*s, |integrator| <= integrator_limit
    prev_error: float = 0.0
    mode: Mode = Mode.IDLE
    duty_acc: float = 0.0  # solenoid duty accumulator for pulse venting


def passive_vent_capability(
    p_cv: float, r_open: float, v_cv: float, gc: GasConstants = DEFAULT_GAS
) -> float:
    """Instantaneous deflation rate (kPa/s) achievable by venting to atmosphere."""
    if not v_cv > 0.0:
        raise ValueError("v_cv must be strictly positive")
    if not r_open > 0.0:
        raise ValueError("r_open must be strictly positive")
    return alpha(gc) * max(0.0, p_cv) / (r_open * v_cv)


def required_deflation_rate(error: float, cmd_rate_hint: float, cfg: ControllerConfig) -> float:
    """Deflation speed needed to follow the command and recover the error."""
    return abs(cmd_rate_hint) + abs(error) / cfg.settle_horizon


def control_kernel(cfg: ControllerConfig, state: ControllerState = ControllerState()):
    """The control law as one function of a config, built once per run.

    Returns ``tick(p_cmd, p_meas, cmd_rate_hint) -> (u_inflate, u_motive,
    solenoid_open, mode)``, one fixed-period update a call. The controller
    state starts from ``state`` and lives in closure cells, so a tick builds
    no ``ControllerState`` and no ``ActuatorCommand``; ``tick.state()``
    returns it as a ``ControllerState``. The boundary |error| ==
    error_cutoff belongs to the PID branch. Each clamp is written as the
    comparison ``min``/``max`` would make (the first argument wins unless the
    other is strictly smaller or larger), so -0.0 and NaN come out as theirs.
    """
    cutoff = cfg.error_cutoff
    dt = 1.0 / cfg.control_rate
    kp, ki, kd = cfg.kp, cfg.ki, cfg.kd
    limit = cfg.integrator_limit
    neg_limit = -limit
    vent_coeff = cfg.passive_vent_coeff
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
            capability = vent_coeff * (p_meas if p_meas > 0.0 else 0.0)
            active = required > (threshold if threshold > capability else capability)
            prev, mode, acc = e, deflate if active else vent, 0.0
            return 0.0, 1.0 if active else 0.0, True, mode

        # PID band; integrator restarts whenever the band is re-entered
        if mode is not pid:
            integ, prev, acc = 0.0, e, 0.0
        integ += e * dt
        if integ < neg_limit:
            integ = neg_limit
        if integ > limit:
            integ = limit
        u = kp * e + ki * integ + kd * (e - prev) / dt
        prev, mode = e, pid

        if u >= 0.0:
            acc = 0.0
            return 1.0 if u > 1.0 else u, 0.0, False, pid

        # negative output: vent through the binary solenoid at an equivalent duty
        acc += 1.0 if -u > 1.0 else -u
        open_now = acc >= 1.0
        if open_now:
            acc -= 1.0
        return 0.0, 0.0, open_now, pid

    def snapshot() -> ControllerState:
        return ControllerState(integ, prev, mode, acc)

    tick.state = snapshot
    return tick


_MODE_COMMANDS = {
    Mode.ON_OFF_INFLATE: INFLATE_COMMAND,
    Mode.VENT: VENT_COMMAND,
    Mode.ACTIVE_DEFLATE: ACTIVE_DEFLATE_COMMAND,
}


def control_step(
    p_cmd: float,
    p_meas: float,
    cmd_rate_hint: float,
    cfg: ControllerConfig,
    state: ControllerState,
) -> tuple[ActuatorCommand, ControllerState]:
    """One fixed-period control update; returns the command and the next state.

    Called at cfg.control_rate with cmd_rate_hint the command signal's current
    time-derivative (0 for steps). One tick of a ``control_kernel`` seeded
    with ``state``; fixed commands are the shared module constants.
    """
    tick = control_kernel(cfg, state)
    u_inflate, u_motive, solenoid_open, mode = tick(p_cmd, p_meas, cmd_rate_hint)
    if mode is not Mode.PID:
        cmd = _MODE_COMMANDS[mode]
    elif solenoid_open:
        cmd = VENT_COMMAND
    elif u_inflate or math.copysign(1.0, u_inflate) < 0.0:  # -0.0 keeps its sign
        cmd = ActuatorCommand(u_inflate, u_motive, solenoid_open)
    else:
        cmd = IDLE_COMMAND  # a PID output of 0.0, or a negative one with the solenoid shut
    return cmd, tick.state()
