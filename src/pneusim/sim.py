"""Deterministic fixed-step simulation of the reservoir/valve/volume network.

State is the pair of gauge pressures (reservoir, control volume). Flows follow
the exact pressure differences across each path; a classical 4th-order
fixed-step integrator advances the state, and the controller runs on its own
slower clock with zero-order-held commands in between. Identical scenarios
(including seeds) reproduce bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .components import (
    PneumaticNetwork,
    default_network,
    deflation_flow,
    proportional_valve_flow,
    sensor_read,
    venturi_vacuum_pressure,
)
from .control import (
    ActuatorCommand,
    ControllerConfig,
    ControllerState,
    IDLE_COMMAND,
    control_step,
)
from .gasmodel import DEFAULT_GAS, GasConstants, PERFECT_VACUUM_KPA, alpha


class SimulationDivergence(RuntimeError):
    """Non-finite state or a pressure below perfect vacuum during integration."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t={t:.6g} s")
        self.t = t


@dataclass(frozen=True)
class StepCommand:
    """Command 0 before start_s, then target_kpa (gauge)."""

    target_kpa: float
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.target_kpa < 0.0:
            raise ValueError("StepCommand.target_kpa must be non-negative")
        if self.start_s < 0.0:
            raise ValueError("StepCommand.start_s must be non-negative")

    def value(self, t: float) -> float:
        return self.target_kpa if t >= self.start_s else 0.0

    def rate(self, t: float) -> float:
        return 0.0


@dataclass(frozen=True)
class SineCommand:
    """offset + amplitude*sin(2*pi*f*t); offset >= amplitude keeps it non-negative."""

    amplitude_kpa: float
    freq_hz: float
    offset_kpa: float

    def __post_init__(self) -> None:
        if self.amplitude_kpa < 0.0:
            raise ValueError("SineCommand.amplitude_kpa must be non-negative")
        if not self.freq_hz > 0.0:
            raise ValueError("SineCommand.freq_hz must be strictly positive")
        if self.offset_kpa < self.amplitude_kpa:
            raise ValueError("SineCommand.offset_kpa must be >= amplitude (commands stay >= 0)")

    def value(self, t: float) -> float:
        return self.offset_kpa + self.amplitude_kpa * math.sin(2.0 * math.pi * self.freq_hz * t)

    def rate(self, t: float) -> float:
        w = 2.0 * math.pi * self.freq_hz
        return self.amplitude_kpa * w * math.cos(w * t)


@dataclass(frozen=True)
class PiecewiseCommand:
    """Hold-interpolated (time, value) knots; first knot at t=0."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.knots:
            raise ValueError("PiecewiseCommand needs at least one knot")
        if self.knots[0][0] != 0.0:
            raise ValueError("PiecewiseCommand first knot must be at t=0")
        times = [k[0] for k in self.knots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("PiecewiseCommand knot times must be strictly increasing")
        if any(v < 0.0 for _, v in self.knots):
            raise ValueError("PiecewiseCommand values must be non-negative")

    def value(self, t: float) -> float:
        out = self.knots[0][1]
        for knot_t, knot_v in self.knots:
            if knot_t <= t:
                out = knot_v
            else:
                break
        return out

    def rate(self, t: float) -> float:
        return 0.0


CommandSignal = StepCommand | SineCommand | PiecewiseCommand


def controller_for_network(
    network: PneumaticNetwork, gc: GasConstants = DEFAULT_GAS, **overrides
) -> ControllerConfig:
    """ControllerConfig whose venting-capability estimate matches the network."""
    coeff = alpha(gc) / (network.solenoid.r_open * network.control_volume.v_cv)
    return ControllerConfig(passive_vent_coeff=coeff, **overrides)


@dataclass(frozen=True)
class Scenario:
    """Everything that determines one run; identical scenarios give identical output."""

    network: PneumaticNetwork
    controller: ControllerConfig
    command: CommandSignal
    dt: float = 5e-4
    duration: float = 3.0
    sample_rate: float = 2000.0
    seed: int = 0
    hold_reservoir: bool = False  # fixed-pressure source rig
    open_loop_command: ActuatorCommand | None = None  # set -> controller disabled
    gas: GasConstants = DEFAULT_GAS

    @property
    def closed_loop(self) -> bool:
        return self.open_loop_command is None

    def control_stride(self) -> int:
        return _exact_stride(1.0 / (self.controller.control_rate * self.dt), "control_rate")

    def sample_stride(self) -> int:
        return _exact_stride(1.0 / (self.sample_rate * self.dt), "sample_rate")

    def n_steps(self) -> int:
        return max(1, round(self.duration / self.dt))

    def validate(self) -> None:
        if not self.dt > 0.0:
            raise ValueError("Scenario.dt must be strictly positive")
        if not self.duration > 0.0:
            raise ValueError("Scenario.duration must be strictly positive")
        if not self.sample_rate > 0.0:
            raise ValueError("Scenario.sample_rate must be strictly positive")
        if self.sample_rate > 1.0 / self.dt * (1 + 1e-9):
            raise ValueError("Scenario.sample_rate cannot exceed 1/dt")
        if self.seed < 0:
            raise ValueError("Scenario.seed must be non-negative")
        self.sample_stride()
        if self.closed_loop:
            if self.dt > 0.5 / self.controller.control_rate * (1 + 1e-9):
                raise ValueError("Scenario.dt must be <= 1/(2*control_rate) in closed loop")
            self.control_stride()


def _exact_stride(ratio: float, what: str) -> int:
    stride = round(ratio)
    if stride < 1 or abs(ratio - stride) > 1e-6:
        raise ValueError(f"1/({what}*dt) must be a positive integer, got {ratio}")
    return stride


@dataclass
class TimeSeries:
    """Uniformly sampled run output (gauge kPa, std L/s)."""

    t: np.ndarray
    p_cmd: np.ndarray
    p_cv: np.ndarray
    p_r: np.ndarray
    u_inflate: np.ndarray
    u_motive: np.ndarray
    solenoid: np.ndarray
    q_in: np.ndarray
    q_out: np.ndarray
    q_motive: np.ndarray
    mode: np.ndarray  # Mode codes

    _COLUMNS = (
        "t", "p_cmd", "p_cv", "p_r", "u_inflate", "u_motive",
        "solenoid", "q_in", "q_out", "q_motive", "mode",
    )

    def __len__(self) -> int:
        return len(self.t)

    def validate(self) -> None:
        n = len(self.t)
        for name in self._COLUMNS:
            col = getattr(self, name)
            if len(col) != n:
                raise ValueError(f"TimeSeries column {name} has length {len(col)} != {n}")
            if name != "mode" and not np.all(np.isfinite(col)):
                raise ValueError(f"TimeSeries column {name} contains non-finite values")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("TimeSeries.t must be strictly increasing")


def network_flows(
    p_r: float, p_cv: float, cmd: ActuatorCommand, net: PneumaticNetwork
) -> tuple[float, float, float]:
    """Instantaneous (q_in, q_out, q_motive) in std L/s for one command.

    The motive path exhausts to atmosphere and does not reverse; the vacuum
    node it drives sits at atmosphere when the motive flow is zero.
    """
    q_in = proportional_valve_flow(cmd.u_inflate, p_r - p_cv, net.inflation_valve)
    q_motive = max(0.0, proportional_valve_flow(cmd.u_motive, p_r, net.motive_valve))
    p_node = venturi_vacuum_pressure(q_motive, net.venturi)
    q_out = deflation_flow(p_cv, p_node, cmd.solenoid_open, net.solenoid)
    return q_in, q_out, q_motive


def derivatives(
    p_r: float,
    p_cv: float,
    cmd: ActuatorCommand,
    net: PneumaticNetwork,
    gc: GasConstants = DEFAULT_GAS,
    hold_reservoir: bool = False,
) -> dict:
    """Pressure rates and flows for the coupled two-volume network."""
    a = alpha(gc)
    q_in, q_out, q_motive = network_flows(p_r, p_cv, cmd, net)
    dp_r = 0.0 if hold_reservoir else -a * (q_in + q_motive) / net.reservoir.v_r
    dp_cv = a * (q_in - q_out) / net.control_volume.v_cv
    return {"dp_r": dp_r, "dp_cv": dp_cv, "q_in": q_in, "q_out": q_out, "q_motive": q_motive}


def simulate(scn: Scenario) -> TimeSeries:
    """Integrate a scenario and return its uniformly sampled trace."""
    scn.validate()
    net = scn.network
    a = alpha(scn.gas)
    inv_vr = a / net.reservoir.v_r
    inv_vcv = a / net.control_volume.v_cv
    hold = scn.hold_reservoir

    def rk4(p_r: float, p_cv: float, h: float, cmd: ActuatorCommand) -> tuple[float, float]:
        def deriv(pr: float, pcv: float) -> tuple[float, float]:
            q_in, q_out, q_motive = network_flows(pr, pcv, cmd, net)
            dpr = 0.0 if hold else -(q_in + q_motive) * inv_vr
            return dpr, (q_in - q_out) * inv_vcv

        k1r, k1c = deriv(p_r, p_cv)
        k2r, k2c = deriv(p_r + 0.5 * h * k1r, p_cv + 0.5 * h * k1c)
        k3r, k3c = deriv(p_r + 0.5 * h * k2r, p_cv + 0.5 * h * k2c)
        k4r, k4c = deriv(p_r + h * k3r, p_cv + h * k3c)
        return (
            p_r + h / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r),
            p_cv + h / 6.0 * (k1c + 2.0 * k2c + 2.0 * k3c + k4c),
        )

    n = scn.n_steps()
    ss = scn.sample_stride()
    cs = scn.control_stride() if scn.closed_loop else 0
    n_rows = n // ss + 1

    cols = {name: np.empty(n_rows) for name in TimeSeries._COLUMNS if name != "mode"}
    mode_col = np.empty(n_rows, dtype=np.uint8)

    rng_cv = np.random.default_rng([scn.seed, net.cv_sensor.seed])
    cmd = scn.open_loop_command if scn.open_loop_command is not None else IDLE_COMMAND
    ctrl_state = ControllerState()
    p_r = net.reservoir.p_r0
    p_cv = net.control_volume.p_cv
    cmd_value = scn.command.value
    cmd_rate = scn.command.rate
    dt = scn.dt
    row = 0

    for k in range(n + 1):
        t = k * dt
        if scn.closed_loop and k % cs == 0:
            meas = sensor_read(p_cv, net.cv_sensor, rng_cv)
            cmd, ctrl_state = control_step(cmd_value(t), meas, cmd_rate(t), scn.controller, ctrl_state)
        if k % ss == 0:
            q_in, q_out, q_motive = network_flows(p_r, p_cv, cmd, net)
            cols["t"][row] = t
            cols["p_cmd"][row] = cmd_value(t)
            cols["p_cv"][row] = p_cv
            cols["p_r"][row] = p_r
            cols["u_inflate"][row] = cmd.u_inflate
            cols["u_motive"][row] = cmd.u_motive
            cols["solenoid"][row] = 1.0 if cmd.solenoid_open else 0.0
            cols["q_in"][row] = q_in
            cols["q_out"][row] = q_out
            cols["q_motive"][row] = q_motive
            mode_col[row] = ctrl_state.mode
            row += 1
        if k == n:
            break
        new_r, new_cv = rk4(p_r, p_cv, dt, cmd)
        if not (math.isfinite(new_r) and math.isfinite(new_cv)):
            raise SimulationDivergence("non-finite state", t)
        if min(new_r, new_cv) < PERFECT_VACUUM_KPA:
            # reject the step and retry at dt/10 before declaring divergence
            sub_r, sub_cv = p_r, p_cv
            for _ in range(10):
                sub_r, sub_cv = rk4(sub_r, sub_cv, dt / 10.0, cmd)
            if not (math.isfinite(sub_r) and math.isfinite(sub_cv)):
                raise SimulationDivergence("non-finite state", t)
            if min(sub_r, sub_cv) < PERFECT_VACUUM_KPA:
                raise SimulationDivergence("gauge pressure below perfect vacuum", t)
            new_r, new_cv = sub_r, sub_cv
        p_r, p_cv = new_r, new_cv

    ts = TimeSeries(mode=mode_col, **cols)
    ts.validate()
    return ts


def mass_balance(ts: TimeSeries, scn: Scenario) -> float:
    """Relative standard-volume imbalance of a trace produced by ``simulate``.

    Reservoir loss must equal control-volume gain plus everything vented
    (exhaust and motive air). Flow integrals are rebuilt per sample interval
    from the sampled states under the interval's held command, so command
    switches at sample nodes do not smear across intervals; the residual then
    measures pure integration error. With the reservoir held, the loss is the
    standard volume drawn from the fixed-pressure source.
    """
    net = scn.network
    a = alpha(scn.gas)
    n = len(ts)
    if n < 2:
        raise ValueError("mass_balance needs at least two samples")

    evp, dvp = net.inflation_valve, net.motive_valve
    u_in = ts.u_inflate[:-1]
    u_mot = ts.u_motive[:-1]
    sol = ts.solenoid[:-1]
    p_r_next = ts.p_r[1:]
    p_cv_next = ts.p_cv[1:]

    g_in = np.where(u_in > evp.u0, (u_in - evp.u0) / (1.0 - evp.u0), 0.0) / evp.r_vmin
    g_mot = np.where(u_mot > dvp.u0, (u_mot - dvp.u0) / (1.0 - dvp.u0), 0.0) / dvp.r_vmin

    right_q_in = g_in * (p_r_next - p_cv_next)
    right_q_mot = np.maximum(0.0, g_mot * p_r_next)
    p_node = net.venturi.p_vac_floor * np.minimum(1.0, right_q_mot / net.venturi.q_motive_rated)
    right_q_out = sol * np.maximum(0.0, p_cv_next - p_node) / net.solenoid.r_open

    h = np.diff(ts.t)
    int_in = float(np.sum(h * (ts.q_in[:-1] + right_q_in)) / 2.0)
    int_out = float(np.sum(h * (ts.q_out[:-1] + right_q_out)) / 2.0)
    int_mot = float(np.sum(h * (ts.q_motive[:-1] + right_q_mot)) / 2.0)

    gain = net.control_volume.v_cv * (ts.p_cv[-1] - ts.p_cv[0]) / a
    if scn.hold_reservoir:
        loss = int_in + int_mot
    else:
        loss = net.reservoir.v_r * (ts.p_r[0] - ts.p_r[-1]) / a
    vented = int_out + int_mot
    return abs(loss - gain - vented) / max(loss, 1e-12)


def step_scenario(
    target_kpa: float,
    v_cv: float = 0.5,
    p_r0: float = 689.0,
    v_r: float = 2.0,
    duration: float = 3.0,
    hold_reservoir: bool = False,
    **controller_overrides,
) -> Scenario:
    """Closed-loop step scenario on the default hardware class."""
    net = default_network(v_r=v_r, p_r0=p_r0, v_cv=v_cv)
    return Scenario(
        network=net,
        controller=controller_for_network(net, **controller_overrides),
        command=StepCommand(target_kpa=target_kpa),
        duration=duration,
        hold_reservoir=hold_reservoir,
    )


def discharge_scenario(
    r_v: float,
    v_r: float = 2.0,
    p_r0: float = 689.0,
    duration: float = 90.0,
    dt: float = 2e-3,
) -> Scenario:
    """Open-loop reservoir blowdown through the motive path at resistance r_v."""
    net = default_network(v_r=v_r, p_r0=p_r0)
    net = replace(net, motive_valve=replace(net.motive_valve, r_vmin=r_v))
    # sample near 500 Hz but on an exact multiple of the integration step
    stride = max(1, round(1.0 / (500.0 * dt)))
    return Scenario(
        network=net,
        controller=controller_for_network(net),
        command=StepCommand(target_kpa=0.0),
        dt=dt,
        duration=duration,
        sample_rate=1.0 / (stride * dt),
        open_loop_command=ActuatorCommand(0.0, 1.0, False),
    )
