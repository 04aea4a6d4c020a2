"""Lumped-parameter models of the pneumatic hardware.

Reservoir, control volume (the regulated actuator volume), proportional
valves, the binary exhaust solenoid, the Venturi vacuum generator, and the
control-volume pressure sensor. Component specs are immutable; running
pressures are owned by a single simulation run at a time.

Default numbers correspond to the reference hardware class this toolkit
targets: a 2 L bottle reservoir charged to 689 kPa, a 23.5 SLPM inflation
valve and a 67 SLPM motive valve both rated at 689 kPa inlet, and a Venturi
generator that reaches -80 kPa at rated motive flow.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .gasmodel import FieldError, PERFECT_VACUUM_KPA, VALVE_RATED_INLET_KPA, record

if TYPE_CHECKING:  # numpy appears in this module's annotations only
    import numpy as np

# Catalog-derived minimum flow resistances (kPa*s per std L): rated maximum
# flow assumed at full rated inlet pressure discharging to atmosphere.
EVP_R_VMIN = VALVE_RATED_INLET_KPA / (23.5 / 60.0)
DVP_R_VMIN = VALVE_RATED_INLET_KPA / (67.0 / 60.0)
VENTURI_Q_RATED_SLPM = 67.0
VENTURI_Q_RATED = VENTURI_Q_RATED_SLPM / 60.0


@record(v_r=("pos", "V_r_L"), p_r0=("gauge", "P_r0_kPa"))
class Reservoir:
    """Rigid air reservoir charged to p_r0 at the start of a run."""

    v_r: float = 2.0
    p_r0: float = 689.0


@record(v_cv=("pos", "V_cv_L"), p_cv=("gauge", "P_cv0_kPa"))
class ControlVolume:
    """Rigid regulated volume (v_cv constant during a run)."""

    v_cv: float = 0.5
    p_cv: float = 0.0


@record(r_vmin=("pos", "R_vmin_kPa_s_per_L"), u0=("deadband", "deadband"))
class ProportionalValveSpec:
    """Proportional valve with conductance affine in command above a deadband."""

    r_vmin: float = EVP_R_VMIN
    u0: float = 0.0


@record(r_open=("pos", "R_open_kPa_s_per_L"))
class BinaryValveSpec:
    """On/off exhaust solenoid."""

    r_open: float = 100.0


@record(p_vac_floor=("floor", "P_vac_floor_kPa"), q_motive_rated=("pos", "Q_motive_rated_slpm"))
class VenturiSpec:
    """Vacuum generator: node pressure ramps linearly with motive flow to a floor."""

    p_vac_floor: float = -80.0
    q_motive_rated: float = VENTURI_Q_RATED


@record(range_max=("pos", "range_max_kPa"), noise_std=("nonneg", "noise_std_kPa"),
        seed=("int", "seed"))
class SensorSpec:
    """Gauge pressure sensor with optional gaussian noise and a saturation ceiling."""

    range_max: float = 207.0
    noise_std: float = 0.0
    seed: int = 0

    def rule(self) -> None:
        if not math.isfinite(self.noise_std):  # an infinite draw would saturate the sensor
            raise FieldError(self, "noise_std", "must be finite")


@record()
class PneumaticNetwork:
    """Connectivity of one supply/regulation channel.

    Inflation valve: reservoir -> control volume. Motive valve: reservoir ->
    Venturi -> atmosphere. Solenoid: control volume -> Venturi vacuum node
    (atmosphere when the Venturi is idle).
    """

    reservoir: Reservoir
    control_volume: ControlVolume
    inflation_valve: ProportionalValveSpec
    motive_valve: ProportionalValveSpec
    solenoid: BinaryValveSpec
    venturi: VenturiSpec
    cv_sensor: SensorSpec


def default_network(
    v_r: float = Reservoir.v_r,
    p_r0: float = Reservoir.p_r0,
    v_cv: float = ControlVolume.v_cv,
    p_cv0: float = ControlVolume.p_cv,
) -> PneumaticNetwork:
    return PneumaticNetwork(
        reservoir=Reservoir(v_r=v_r, p_r0=p_r0),
        control_volume=ControlVolume(v_cv=v_cv, p_cv=p_cv0),
        inflation_valve=ProportionalValveSpec(),
        motive_valve=ProportionalValveSpec(r_vmin=DVP_R_VMIN),
        solenoid=BinaryValveSpec(),
        venturi=VenturiSpec(),
        cv_sensor=SensorSpec(),
    )


def valve_fraction(u: float, spec: ProportionalValveSpec) -> float:
    """Open fraction of a proportional valve's full conductance at command u in [0, 1].

    Affine in command above the deadband u0, exactly 1 at u = 1, and exactly
    0.0 (closed) at or below u0; an open valve's fraction is never 0.0.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"valve command must be in [0, 1], got {u}")
    if u <= spec.u0:
        return 0.0
    return (u - spec.u0) / (1.0 - spec.u0)


def proportional_valve_flow(u: float, dp: float, spec: ProportionalValveSpec) -> float:
    """Standard flow (std L/s) through a proportional valve at command u in [0, 1].

    Conductance is valve_fraction(u)/r_vmin; flow follows the pressure
    difference sign, and a closed valve passes 0.0 whatever the difference.
    """
    frac = valve_fraction(u, spec)
    if not frac:
        return 0.0
    return (frac * dp) / spec.r_vmin


def venturi_vacuum_pressure(q_motive: float, spec: VenturiSpec) -> float:
    """Gauge pressure (kPa) at the vacuum node for a given motive flow."""
    if q_motive < 0.0:
        raise ValueError("q_motive must be non-negative")
    return spec.p_vac_floor * min(1.0, q_motive / spec.q_motive_rated)


def deflation_flow(
    p_cv: float, p_node: float, solenoid_open: bool, spec: BinaryValveSpec
) -> float:
    """Exhaust flow (std L/s) out of the control volume; never reverses."""
    if not solenoid_open:
        return 0.0
    return max(0.0, (p_cv - p_node) / spec.r_open)


def sensor_read(p_true: float, spec: SensorSpec, rng: np.random.Generator) -> float:
    """Measured gauge pressure: the true value plus one seeded ``rng.normal(0.0, noise_std)``
    draw, clamped to the sensor's range; the reference statement of the reading.

    A noiseless sensor draws nothing, so ``rng`` may then be None. ``sim._closed_loop``
    runs the same statements inline, with its noise drawn a block of ticks at a time
    beside the command, and the tests compare the two bit for bit.
    """
    value = p_true
    if spec.noise_std > 0.0:
        value += float(rng.normal(0.0, spec.noise_std))
    # min(max(value, lo), hi), as its comparisons
    if value < PERFECT_VACUUM_KPA:
        value = PERFECT_VACUUM_KPA
    if value > spec.range_max:
        value = spec.range_max
    return value
