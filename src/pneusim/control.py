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

from .gasmodel import GasConstants, DEFAULT_GAS, alpha


class Mode(enum.IntEnum):
    """Controller mode; the value is the code stored in TimeSeries.mode."""

    IDLE = 0
    PID = 1
    ON_OFF_INFLATE = 2
    VENT = 3
    ACTIVE_DEFLATE = 4


@dataclass(frozen=True)
class ActuatorCommand:
    """Valve commands for one control period.

    u_inflate and u_motive are never both positive while the solenoid is
    closed (no wasted motive air without a deflation path).
    """

    u_inflate: float = 0.0
    u_motive: float = 0.0
    solenoid_open: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.u_inflate <= 1.0:
            raise ValueError("u_inflate must be in [0, 1]")
        if not 0.0 <= self.u_motive <= 1.0:
            raise ValueError("u_motive must be in [0, 1]")
        if self.u_inflate > 0.0 and self.u_motive > 0.0 and not self.solenoid_open:
            raise ValueError("motive flow with closed solenoid while inflating is wasted air")


IDLE_COMMAND = ActuatorCommand(0.0, 0.0, False)
# the fixed commands control_step returns, shared rather than rebuilt each tick
INFLATE_COMMAND = ActuatorCommand(1.0, 0.0, False)
VENT_COMMAND = ActuatorCommand(0.0, 0.0, True)
ACTIVE_DEFLATE_COMMAND = ActuatorCommand(0.0, 1.0, True)


@dataclass(frozen=True, kw_only=True)
class ControllerConfig:
    """Gains and thresholds; passive_vent_coeff is alpha/(r_open*v_cv)."""

    kp: float = 0.05  # per kPa
    ki: float = 0.5  # per (kPa*s)
    kd: float = 0.0  # s per kPa... command per (kPa/s)
    error_cutoff: float = 1.0  # kPa
    control_rate: float = 1000.0  # Hz
    settle_horizon: float = 0.2  # s, error-recovery urgency for deflation sizing
    integrator_limit: float = 2.0  # kPa*s
    active_deflation_rate_threshold: float = 0.0  # kPa/s
    passive_vent_coeff: float  # (kPa/s) per kPa of CV gauge pressure

    def __post_init__(self) -> None:
        if not self.error_cutoff > 0.0:
            raise ValueError("error_cutoff must be strictly positive")
        if not self.control_rate > 0.0:
            raise ValueError("control_rate must be strictly positive")
        if min(self.kp, self.ki, self.kd) < 0.0:
            raise ValueError("PID gains must be non-negative")
        if not self.settle_horizon > 0.0:
            raise ValueError("settle_horizon must be strictly positive")
        if self.integrator_limit < 0.0:
            raise ValueError("integrator_limit must be non-negative")
        if self.passive_vent_coeff < 0.0:
            raise ValueError("passive_vent_coeff must be non-negative")


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


def control_step(
    p_cmd: float,
    p_meas: float,
    cmd_rate_hint: float,
    cfg: ControllerConfig,
    state: ControllerState,
) -> tuple[ActuatorCommand, ControllerState]:
    """One fixed-period control update; returns the command and the next state.

    Called at cfg.control_rate with cmd_rate_hint the command signal's current
    time-derivative (0 for steps). The boundary |error| == error_cutoff
    belongs to the PID branch.
    """
    if not (math.isfinite(p_cmd) and math.isfinite(p_meas) and math.isfinite(cmd_rate_hint)):
        for name, value in (("p_cmd", p_cmd), ("p_meas", p_meas), ("cmd_rate_hint", cmd_rate_hint)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    e = p_cmd - p_meas

    if e > cfg.error_cutoff:
        return INFLATE_COMMAND, ControllerState(state.integrator, e, Mode.ON_OFF_INFLATE, 0.0)

    if e < -cfg.error_cutoff:
        required = required_deflation_rate(e, cmd_rate_hint, cfg)
        capability = cfg.passive_vent_coeff * max(0.0, p_meas)
        active = required > max(capability, cfg.active_deflation_rate_threshold)
        cmd = ACTIVE_DEFLATE_COMMAND if active else VENT_COMMAND
        mode = Mode.ACTIVE_DEFLATE if active else Mode.VENT
        return cmd, ControllerState(state.integrator, e, mode, 0.0)

    # PID band; integrator restarts whenever the band is re-entered
    dt = 1.0 / cfg.control_rate
    if state.mode is Mode.PID:
        integ = state.integrator
        prev = state.prev_error
        acc = state.duty_acc
    else:
        integ = 0.0
        prev = e
        acc = 0.0
    integ = min(max(integ + e * dt, -cfg.integrator_limit), cfg.integrator_limit)
    u = cfg.kp * e + cfg.ki * integ + cfg.kd * (e - prev) / dt

    if u >= 0.0:
        cmd = ActuatorCommand(min(u, 1.0), 0.0, False)
        return cmd, ControllerState(integ, e, Mode.PID, 0.0)

    # negative output: vent through the binary solenoid at an equivalent duty
    acc += min(-u, 1.0)
    open_now = acc >= 1.0
    if open_now:
        acc -= 1.0
    cmd = VENT_COMMAND if open_now else IDLE_COMMAND
    return cmd, ControllerState(integ, e, Mode.PID, acc)
