"""Design-space evaluation: feasibility, bandwidth, and cycle budget per build.

Given actuator requirements (volume, pressure swing, demanded inflation speed
or an amplitude/frequency pair), every valve x reservoir combination from a
catalog is scored: operating fill pressure, minimum reservoir pressure that
still meets the speed demand, tracking cutoff at full and depleted reservoir,
and the inflate/deflate cycle budget. Feasible builds are ranked by mass.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gasmodel as gm
from .gasmodel import DEFAULT_GAS, FieldError, GasConstants, record


@record(v_cv="pos", dp_cv="pos", pdot_d="pos", amplitude="pos", freq_hz="pos", min_cycles="nonneg")
class DesignRequirements:
    """What the actuator needs from the supply/regulator.

    Provide either pdot_d directly or an (amplitude, freq_hz) pair from which
    the worst-case sine-tracking rate is derived. An explicit pdot_d wins.
    """

    v_cv: float  # L
    dp_cv: float  # kPa swing per inflate/deflate cycle
    pdot_d: float | None = None  # kPa/s
    amplitude: float | None = None  # kPa
    freq_hz: float | None = None  # Hz
    min_cycles: float = 0.0

    def rule(self) -> None:
        if self.pdot_d is None and (self.amplitude is None or self.freq_hz is None):
            raise FieldError(self, "", "{pdot_d} or both {amplitude} and {freq_hz} required")
        if self.amplitude is None and not self.dp_cv / 2.0 > 0.0:
            raise FieldError(self, "dp_cv", "too small to halve into a reference amplitude")

    def demanded_rate(self) -> float:
        if self.pdot_d is not None:
            return self.pdot_d
        return gm.max_command_rate(self.amplitude, self.freq_hz)

    def reference_amplitude(self) -> float:
        """Amplitude used to express cutoffs; half the swing when not given."""
        return self.amplitude if self.amplitude is not None else self.dp_cv / 2.0


@record(r_vmin="pos", mass_g="pos", p_inlet_max="pos")
class ValveOption:
    name: str
    r_vmin: float
    mass_g: float
    p_inlet_max: float


@record(v_r="pos", mass_g="pos", p_max="pos")
class ReservoirOption:
    name: str
    v_r: float
    mass_g: float
    p_max: float


@record(p_vac_floor="floor", q_motive_rated="pos", mass_g="pos")
class VenturiOption:
    name: str
    p_vac_floor: float
    q_motive_rated: float
    mass_g: float


@record(valves="nonempty", reservoirs="nonempty")
class ComponentCatalog:
    valves: tuple[ValveOption, ...]
    reservoirs: tuple[ReservoirOption, ...]
    venturis: tuple[VenturiOption, ...] = ()


@dataclass(frozen=True)
class DesignEntry:
    """Scores for one valve + reservoir combination."""

    valve: str
    reservoir: str
    p_r0: float  # operating fill pressure (kPa)
    pressure_derated: bool  # reservoir rating above valve inlet rating
    pdot_demand: float  # kPa/s
    min_p_r: float  # kPa to still meet the demand
    cutoff_hz_full: float  # tracking cutoff at the full reservoir
    cutoff_hz_floor: float  # tracking cutoff at the depletion floor
    n_cycles: float
    total_mass_g: float
    feasible: bool
    limiting: tuple[str, ...]  # empty when feasible


@dataclass(frozen=True)
class DesignReport:
    feasible: tuple[DesignEntry, ...]  # mass ascending, cycle count descending
    infeasible: tuple[DesignEntry, ...]

    @property
    def entries(self) -> tuple[DesignEntry, ...]:
        return self.feasible + self.infeasible


def evaluate_design(
    req: DesignRequirements,
    valve: ValveOption,
    reservoir: ReservoirOption,
    gc: GasConstants = DEFAULT_GAS,
) -> DesignEntry:
    """Score one combination; never raises on infeasibility, only flags it."""
    rate, amp = req.demanded_rate(), req.reference_amplitude()
    min_p_r = gm.min_reservoir_pressure(rate, valve.r_vmin, req.v_cv, gc)
    return _score(req, valve, reservoir, gc, rate, amp, gm.cutoff_frequency(rate, amp), min_p_r)


def _score(
    req: DesignRequirements,
    valve: ValveOption,
    reservoir: ReservoirOption,
    gc: GasConstants,
    rate: float,
    amp: float,
    cutoff_floor: float,
    min_p_r: float,
) -> DesignEntry:
    """``evaluate_design`` given the terms that do not depend on the reservoir."""
    derated = reservoir.p_max > valve.p_inlet_max
    p_r0 = min(reservoir.p_max, valve.p_inlet_max)
    cutoff_full = gm.cutoff_frequency(gm.inflation_rate(p_r0, valve.r_vmin, req.v_cv, gc), amp)
    cycles = gm.n_cycles(p_r0, req.v_cv, valve.r_vmin, rate, reservoir.v_r, req.dp_cv, gc)

    limiting: list[str] = []
    if min_p_r > p_r0:
        limiting.append("reservoir pressure")
    if cycles < req.min_cycles:
        limiting.append("cycle count")
    return DesignEntry(
        valve=valve.name,
        reservoir=reservoir.name,
        p_r0=p_r0,
        pressure_derated=derated,
        pdot_demand=rate,
        min_p_r=min_p_r,
        cutoff_hz_full=cutoff_full,
        cutoff_hz_floor=cutoff_floor,
        n_cycles=cycles,
        total_mass_g=valve.mass_g + reservoir.mass_g,
        feasible=not limiting,
        limiting=tuple(limiting),
    )


def enumerate_catalog(
    req: DesignRequirements, catalog: ComponentCatalog, gc: GasConstants = DEFAULT_GAS
) -> DesignReport:
    """Evaluate every valve x reservoir pair and rank the feasible ones.

    Each entry equals ``evaluate_design`` of its pair; the terms that do not
    depend on the pair are computed once, and ``min_p_r`` once per valve.
    Order: total mass ascending, ties by cycle count descending, then by
    component names; deterministic across reruns.
    """
    rate, amp = req.demanded_rate(), req.reference_amplitude()
    cutoff_floor = gm.cutoff_frequency(rate, amp)
    entries = []
    for valve in catalog.valves:
        min_p_r = gm.min_reservoir_pressure(rate, valve.r_vmin, req.v_cv, gc)
        entries += [
            _score(req, valve, reservoir, gc, rate, amp, cutoff_floor, min_p_r)
            for reservoir in catalog.reservoirs
        ]
    key = lambda e: (e.total_mass_g, -e.n_cycles, e.valve, e.reservoir)
    feasible = tuple(sorted((e for e in entries if e.feasible), key=key))
    infeasible = tuple(sorted((e for e in entries if not e.feasible), key=key))
    return DesignReport(feasible=feasible, infeasible=infeasible)
