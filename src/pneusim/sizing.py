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
from .gasmodel import DEFAULT_GAS, PERFECT_VACUUM_KPA, GasConstants


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        if not self.v_cv > 0.0:
            raise ValueError("DesignRequirements.v_cv must be strictly positive")
        if not self.dp_cv > 0.0:
            raise ValueError("DesignRequirements.dp_cv must be strictly positive")
        if self.min_cycles < 0.0:
            raise ValueError("DesignRequirements.min_cycles must be non-negative")
        has_rate = self.pdot_d is not None
        has_pair = self.amplitude is not None and self.freq_hz is not None
        if not has_rate and not has_pair:
            raise ValueError(
                "DesignRequirements needs pdot_d or both amplitude and freq_hz"
            )
        if has_rate and not self.pdot_d > 0.0:
            raise ValueError("DesignRequirements.pdot_d must be strictly positive")
        if self.amplitude is not None and not self.amplitude > 0.0:
            raise ValueError("DesignRequirements.amplitude must be strictly positive")
        if self.freq_hz is not None and not self.freq_hz > 0.0:
            raise ValueError("DesignRequirements.freq_hz must be strictly positive")

    def demanded_rate(self) -> float:
        if self.pdot_d is not None:
            return self.pdot_d
        return gm.max_command_rate(self.amplitude, self.freq_hz)

    def reference_amplitude(self) -> float:
        """Amplitude used to express cutoffs; half the swing when not given."""
        return self.amplitude if self.amplitude is not None else self.dp_cv / 2.0


@dataclass(frozen=True)
class ValveOption:
    name: str
    r_vmin: float
    mass_g: float
    p_inlet_max: float

    def __post_init__(self) -> None:
        if min(self.r_vmin, self.mass_g, self.p_inlet_max) <= 0.0:
            raise ValueError(f"valve {self.name!r}: all quantities must be positive")


@dataclass(frozen=True)
class ReservoirOption:
    name: str
    v_r: float
    mass_g: float
    p_max: float

    def __post_init__(self) -> None:
        if min(self.v_r, self.mass_g, self.p_max) <= 0.0:
            raise ValueError(f"reservoir {self.name!r}: all quantities must be positive")


@dataclass(frozen=True)
class VenturiOption:
    name: str
    p_vac_floor: float
    q_motive_rated: float
    mass_g: float

    def __post_init__(self) -> None:
        if not (PERFECT_VACUUM_KPA < self.p_vac_floor < 0.0):
            raise ValueError(f"venturi {self.name!r}: p_vac_floor must be in ({PERFECT_VACUUM_KPA}, 0)")
        if min(self.q_motive_rated, self.mass_g) <= 0.0:
            raise ValueError(f"venturi {self.name!r}: all quantities must be positive")


@dataclass(frozen=True)
class ComponentCatalog:
    valves: tuple[ValveOption, ...]
    reservoirs: tuple[ReservoirOption, ...]
    venturis: tuple[VenturiOption, ...] = ()

    def __post_init__(self) -> None:
        if not self.valves or not self.reservoirs:
            raise ValueError("catalog needs at least one valve and one reservoir")


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
    derated = reservoir.p_max > valve.p_inlet_max
    p_r0 = min(reservoir.p_max, valve.p_inlet_max)
    rate = req.demanded_rate()
    min_p_r = gm.min_reservoir_pressure(rate, valve.r_vmin, req.v_cv, gc)
    amp = req.reference_amplitude()
    cutoff_full = gm.cutoff_frequency(gm.inflation_rate(p_r0, valve.r_vmin, req.v_cv, gc), amp)
    cutoff_floor = gm.cutoff_frequency(rate, amp)
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

    Order: total mass ascending, ties by cycle count descending, then by
    component names; deterministic across reruns.
    """
    entries = [
        evaluate_design(req, valve, reservoir, gc)
        for valve in catalog.valves
        for reservoir in catalog.reservoirs
    ]
    key = lambda e: (e.total_mass_g, -e.n_cycles, e.valve, e.reservoir)
    feasible = tuple(sorted((e for e in entries if e.feasible), key=key))
    infeasible = tuple(sorted((e for e in entries if not e.feasible), key=key))
    return DesignReport(feasible=feasible, infeasible=infeasible)
