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

from .gasmodel import DEFAULT_GAS, FieldError, GasConstants, alpha, record


class Mode(enum.IntEnum):
    """Controller mode; the value is the code stored in TimeSeries.mode."""

    IDLE = 0
    PID = 1
    ON_OFF_INFLATE = 2
    VENT = 3
    ACTIVE_DEFLATE = 4


@record(u_inflate=("unit", "u_evp"), u_motive=("unit", "u_dvp"),
        solenoid_open=(None, "solenoid_open"))
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


@record(
    kp=("nonneg", "kp_per_kPa"), ki=("nonneg", "ki_per_kPa_s"), kd=("nonneg", "kd_s_per_kPa"),
    error_cutoff=("pos", "error_cutoff_kPa"), control_rate=("pos", "control_rate_Hz"),
    settle_horizon=("pos", "settle_horizon_s"),
    integrator_limit=("nonneg", "integrator_limit_kPa_s"),
    active_deflation_rate_threshold=("nonneg", "active_deflation_rate_threshold_kPa_s"),
)
class ControllerConfig:
    """Gains and thresholds; how fast passive venting deflates is the network's
    (``passive_vent_coeff``)."""

    kp: float = 0.05  # per kPa
    ki: float = 0.5  # per (kPa*s)
    kd: float = 0.0  # s per kPa... command per (kPa/s)
    error_cutoff: float = 1.0  # kPa
    control_rate: float = 1000.0  # Hz
    settle_horizon: float = 0.2  # s, error-recovery urgency for deflation sizing
    integrator_limit: float = 2.0  # kPa*s
    active_deflation_rate_threshold: float = 0.0  # kPa/s


@record()
class ControllerState:
    integrator: float = 0.0  # kPa*s, |integrator| <= integrator_limit
    prev_error: float = 0.0
    mode: Mode = Mode.IDLE
    duty_acc: float = 0.0  # solenoid duty accumulator for pulse venting


def passive_vent_coeff(r_open: float, v_cv: float, gc: GasConstants = DEFAULT_GAS) -> float:
    """Deflation rate (kPa/s) per kPa of CV gauge pressure when venting to atmosphere.

    alpha / v_cv / r_open, the exhaust law's rate: one division at a time, so
    the product r_open * v_cv, which can underflow to 0, is never formed.
    """
    if not v_cv > 0.0:
        raise ValueError("v_cv must be strictly positive")
    if not r_open > 0.0:
        raise ValueError("r_open must be strictly positive")
    return alpha(gc) / v_cv / r_open


def required_deflation_rate(error: float, cmd_rate_hint: float, cfg: ControllerConfig) -> float:
    """Deflation speed needed to follow the command and recover the error."""
    return abs(cmd_rate_hint) + abs(error) / cfg.settle_horizon


def control_step(
    p_cmd: float,
    p_meas: float,
    cmd_rate_hint: float,
    cfg: ControllerConfig,
    vent_coeff: float,
    state: ControllerState,
) -> tuple[ActuatorCommand, ControllerState]:
    """One fixed-period control update: the reference statement of the law.

    Called at cfg.control_rate with cmd_rate_hint the command signal's current
    time-derivative (0 for steps); returns the command and the next state.
    ``vent_coeff`` is the network's ``passive_vent_coeff``: passive venting
    deflates at ``vent_coeff * p_meas``. ``sim._closed_loop`` runs the same
    statements inline, with the state in loop locals, and the tests compare the
    two bit for bit. The boundary |error| == error_cutoff belongs to the PID
    branch. Each clamp is written as the comparison ``min``/``max`` would make
    (the first argument wins unless the other is strictly smaller or larger), so
    -0.0 and NaN come out as theirs.
    """
    for name, value in (("p_cmd", p_cmd), ("p_meas", p_meas), ("cmd_rate_hint", cmd_rate_hint)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")

    e = p_cmd - p_meas
    integ, prev, mode, acc = state.integrator, state.prev_error, state.mode, state.duty_acc

    if e > cfg.error_cutoff:
        cmd = ActuatorCommand(1.0, 0.0, False)
        mode, acc = Mode.ON_OFF_INFLATE, 0.0
    elif e < -cfg.error_cutoff:
        required = required_deflation_rate(e, cmd_rate_hint, cfg)
        capability = vent_coeff * (p_meas if p_meas > 0.0 else 0.0)
        threshold = cfg.active_deflation_rate_threshold
        active = required > (threshold if threshold > capability else capability)
        cmd = ActuatorCommand(0.0, 1.0 if active else 0.0, True)
        mode, acc = Mode.ACTIVE_DEFLATE if active else Mode.VENT, 0.0
    else:
        # PID band; integrator restarts whenever the band is re-entered
        if mode is not Mode.PID:
            integ, prev, acc = 0.0, e, 0.0
        dt = 1.0 / cfg.control_rate
        limit = cfg.integrator_limit
        integ += e * dt
        if integ < -limit:
            integ = -limit
        if integ > limit:
            integ = limit
        u = cfg.kp * e + cfg.ki * integ + cfg.kd * (e - prev) / dt
        mode = Mode.PID
        if u >= 0.0:
            cmd, acc = ActuatorCommand(1.0 if u > 1.0 else u, 0.0, False), 0.0
        else:
            # negative output: vent through the binary solenoid at an equivalent duty
            acc += 1.0 if -u > 1.0 else -u
            open_now = acc >= 1.0
            if open_now:
                acc -= 1.0
            cmd = ActuatorCommand(0.0, 0.0, open_now)
    return cmd, ControllerState(integ, e, mode, acc)
