"""Design-space evaluation: feasibility, bandwidth, and cycle budget per build.

Given actuator requirements (volume, pressure swing, demanded inflation speed
or an amplitude/frequency pair), every valve x reservoir combination from a
catalog is scored: operating fill pressure, minimum reservoir pressure that
still meets the speed demand, tracking cutoff at full and depleted reservoir,
and the inflate/deflate cycle budget. Feasible builds are ranked by mass.
"""

from __future__ import annotations

from typing import NamedTuple

from . import gasmodel as gm
from .gasmodel import FieldError, record


@record(v_cv=("pos", "V_cv_L"), dp_cv=("pos", "dP_cv_kPa"), pdot_d=("pos", "Pdot_d_kPa_s"),
        amplitude=("pos", "amplitude_kPa"), freq_hz=("pos", "frequency_Hz"),
        min_cycles=("nonneg", "min_cycles"))
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


@record(name=(None, "name"), r_vmin=("pos", "R_vmin_kPa_s_per_L"), mass_g=("pos", "mass_g"),
        p_inlet_max=("pos", "P_inlet_max_kPa"))
class ValveOption:
    name: str
    r_vmin: float
    mass_g: float
    p_inlet_max: float


@record(name=(None, "name"), v_r=("pos", "V_r_L"), mass_g=("pos", "mass_g"),
        p_max=("pos", "P_max_kPa"))
class ReservoirOption:
    name: str
    v_r: float
    mass_g: float
    p_max: float


@record(name=(None, "name"), p_vac_floor=("floor", "P_vac_floor_kPa"),
        q_motive_rated=("pos", "Q_motive_rated_slpm"), mass_g=("pos", "mass_g"))
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


class DesignEntry(NamedTuple):
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


@record()
class DesignReport:
    feasible: tuple[DesignEntry, ...]  # mass ascending, cycle count descending
    infeasible: tuple[DesignEntry, ...]

    @property
    def entries(self) -> tuple[DesignEntry, ...]:
        return self.feasible + self.infeasible


def evaluate_design(
    req: DesignRequirements, valve: ValveOption, reservoir: ReservoirOption
) -> DesignEntry:
    """Score one combination; never raises on infeasibility, only flags it."""
    rate, amp = req.demanded_rate(), req.reference_amplitude()
    return _valve_scorer(req, valve, rate, amp, gm.cutoff_frequency(rate, amp))(reservoir)


_LIMITING = {  # (short of fill pressure, short of cycles) -> DesignEntry.limiting
    (False, False): (),
    (True, False): ("reservoir pressure",),
    (False, True): ("cycle count",),
    (True, True): ("reservoir pressure", "cycle count"),
}


def _valve_scorer(
    req: DesignRequirements, valve: ValveOption, rate: float, amp: float, cutoff_floor: float
):
    """``evaluate_design`` of ``valve`` as a function of the reservoir.

    ``min_p_r`` is computed here once, and the full-reservoir cutoff once per
    fill pressure: the lower of the two ratings, which takes few values.
    """
    v_cv, dp_cv, min_cycles = req.v_cv, req.dp_cv, req.min_cycles
    name, r_vmin, mass_g, p_inlet_max = valve.name, valve.r_vmin, valve.mass_g, valve.p_inlet_max
    min_p_r = gm.min_reservoir_pressure(rate, r_vmin, v_cv)
    cutoffs: dict[float, float] = {}  # fill pressure -> cutoff at the full reservoir
    new_entry = tuple.__new__  # a DesignEntry from its 12 fields, without NamedTuple's __new__

    def score(reservoir: ReservoirOption) -> DesignEntry:
        p_r0 = min(reservoir.p_max, p_inlet_max)
        cutoff_full = cutoffs.get(p_r0)
        if cutoff_full is None:
            cutoff_full = gm.cutoff_frequency(gm.inflation_rate(p_r0, r_vmin, v_cv), amp)
            cutoffs[p_r0] = cutoff_full
        cycles = gm.n_cycles(p_r0, v_cv, r_vmin, rate, reservoir.v_r, dp_cv)
        limiting = _LIMITING[min_p_r > p_r0, cycles < min_cycles]
        return new_entry(DesignEntry, (
            name, reservoir.name, p_r0, reservoir.p_max > p_inlet_max, rate, min_p_r,
            cutoff_full, cutoff_floor, cycles, mass_g + reservoir.mass_g, not limiting, limiting,
        ))

    return score


def enumerate_catalog(req: DesignRequirements, catalog: ComponentCatalog) -> DesignReport:
    """Evaluate every valve x reservoir pair and rank the feasible ones.

    Each entry equals ``evaluate_design`` of its pair; the terms that do not
    depend on the pair are computed once, ``min_p_r`` once per valve, and the
    full-reservoir cutoff once per valve and fill pressure.
    Order: total mass ascending, ties by cycle count descending, then by
    component names; deterministic across reruns.
    """
    rate, amp = req.demanded_rate(), req.reference_amplitude()
    cutoff_floor = gm.cutoff_frequency(rate, amp)
    entries = []
    for valve in catalog.valves:
        entries += map(_valve_scorer(req, valve, rate, amp, cutoff_floor), catalog.reservoirs)
    key = lambda e: (e.total_mass_g, -e.n_cycles, e.valve, e.reservoir)
    feasible = tuple(sorted((e for e in entries if e.feasible), key=key))
    infeasible = tuple(sorted((e for e in entries if not e.feasible), key=key))
    return DesignReport(feasible=feasible, infeasible=infeasible)
