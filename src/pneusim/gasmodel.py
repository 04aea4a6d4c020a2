"""Closed-form gas equations for a reservoir-fed pneumatic supply and regulator.

All pressures are gauge kPa, volumes are liters, time is seconds, and flow is
standard liters per second (std L/s). With these units the lumped coefficient

    alpha = rho * R_u * T / M    (kPa)

converts standard volumetric flow into a pressure rate: dP/dt = alpha * Q / V.
At mutually consistent standard conditions alpha equals atmospheric pressure
(ideal-gas identity rho = P*M/(R_u*T)), so alpha is ~101.3 kPa by default.

The functions here are pure; the simulator in :mod:`pneusim.sim` integrates the
exact pressure-difference-driven flows and uses these closed forms as oracles.
"""

from __future__ import annotations

import math

# Gauge pressure of a perfect vacuum; no gauge pressure may fall below this.
PERFECT_VACUUM_KPA = -101.325
# The inlet pressure at which a valve's catalog flow rating is quoted.
VALVE_RATED_INLET_KPA = 689.0

_AT_LEAST_0 = (lambda v: v >= 0.0, ">= 0")
# The bounds a record declares on its fields, by kind: (whether a value is in range, what
# it must be), tested in order. The records check them when built and the command line
# when it reads a file, so each bound is stated here once.
BOUNDS = {
    "pos": ((lambda v: v > 0.0, "> 0"),),
    "nonneg": (_AT_LEAST_0,),
    "level": (_AT_LEAST_0, (math.isfinite, "finite")),  # a command level
    "int": (_AT_LEAST_0,),  # a count or seed, an integer in a file
    "gauge": ((lambda v: v >= PERFECT_VACUUM_KPA, f">= {PERFECT_VACUUM_KPA} (perfect vacuum)"),),
    "floor": ((lambda v: PERFECT_VACUUM_KPA < v < 0.0, f"in ({PERFECT_VACUUM_KPA}, 0)"),),
    "unit": (_AT_LEAST_0, (lambda v: v <= 1.0, "<= 1")),  # a valve command
    "deadband": (_AT_LEAST_0, (lambda v: v < 1.0, "< 1")),
    "nonempty": ((len, "non-empty"),),  # a list in a file
}


class FieldError(ValueError):
    """A record's field out of range, or a rule between its fields broken.

    ``field`` is the keyword ("" for the record as a whole) and ``text`` what is
    wrong, with any other field written as {keyword}; the command line names
    each field by its key in the input file. ``record`` is None for a
    function's argument, which ``field`` then names alone.
    """

    def __init__(self, record, field: str, text: str):
        owner = "" if record is None else type(record).__name__
        plain = text.replace("{", "").replace("}", "")
        super().__init__(f"{'.'.join(filter(None, (owner, field)))}: {plain}")
        self.field, self.text = field, text


class SimulationDivergence(RuntimeError):
    """A non-finite state during integration, or rows whose rates overflow; ``sim`` raises it,
    and it lives here so that ``cli.main`` catches it without loading the simulator."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t={t:.6g} s")
        self.t = t


def check(record, field: str, kind: str, value) -> None:
    """Raise ``FieldError`` unless ``value`` is within each bound of ``kind``."""
    for in_range, bound in BOUNDS[kind]:
        if not in_range(value):
            raise FieldError(record, field, f"must be {bound}")


def _init(self, *args, **values) -> None:
    """Bind the fields as a signature would, then check each declared kind and the ``rule``."""
    cls = type(self)
    fields = cls.FIELDS
    if args:
        positional = dict(zip(fields, args))
        if len(args) > len(fields) or not positional.keys().isdisjoint(values):
            raise TypeError(f"{cls.__name__}() takes each field of {fields} at most once")
        values.update(positional)
    for name in fields:
        if name not in values:
            if name not in vars(cls):
                raise TypeError(f"{cls.__name__}() missing required keyword {name!r}")
            values[name] = vars(cls)[name]
    if len(values) > len(fields):
        unknown = sorted(set(values) - set(fields))
        raise TypeError(f"{cls.__name__}() got unexpected keywords {unknown}")
    self.__dict__.update(values)
    for name, kind in cls.KINDS.items():
        if values[name] is not None:
            check(self, name, kind, values[name])
    self.rule()


def _frozen(self, name: str, value=None):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def _values(rec) -> tuple:
    return tuple(getattr(rec, name) for name in rec.FIELDS)


def _eq(self, other):
    return _values(self) == _values(other) if type(other) is type(self) else NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.FIELDS)})"


def record(**fields):
    """A frozen record class whose instances check each declared field against its kind.

    The fields are the class's annotations, in order (``FIELDS``), and their
    defaults its class attributes. A field is declared by its kind, a key of
    ``BOUNDS``, or by a pair (kind or None, key) that also names its key in an
    input file. Every record shares one ``__init__``, which takes the fields by
    position or keyword; a field left None is absent and not checked. After the
    bounds, the class's own ``rule`` method, if it has one, checks the rules
    between its fields. Records compare and hash by type and field values. No record is a
    dataclass, so building the classes generates no code at import.
    ``KINDS`` keeps each declared kind and ``KEYS`` each declared key, in field
    order, for the command line to read.
    """

    def make(cls):
        cls.FIELDS = tuple(cls.__annotations__)
        pairs = {name: d if isinstance(d, tuple) else (d, None) for name, d in fields.items()}
        cls.KINDS = {name: kind for name, (kind, _key) in pairs.items() if kind}
        keys = {name: key for name, (_kind, key) in pairs.items() if key}
        cls.KEYS = {name: keys[name] for name in cls.FIELDS if name in keys}
        cls.rule = getattr(cls, "rule", lambda self: None)  # no rules between its fields
        cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = _init, _eq, _hash, _repr
        cls.__setattr__ = cls.__delattr__ = _frozen
        return cls

    return make


def replace(rec, **changes):
    """A record like ``rec`` with ``changes``, built anew, so its checks and ``rule`` run."""
    return type(rec)(**{**{name: getattr(rec, name) for name in rec.FIELDS}, **changes})


@record(rho=("pos", "rho_kg_per_m3"), R_u=("pos", "R_u_J_per_mol_K"), T=("pos", "T_K"),
        M=("pos", "M_kg_per_mol"))
class GasConstants:
    """Air properties at standard conditions (20 C convention by default).

    rho: density (kg/m^3), R_u: universal gas constant (J/(mol*K)),
    T: temperature (K), M: molar mass (kg/mol).
    """

    rho: float = 1.2041
    R_u: float = 8.314
    T: float = 293.15
    M: float = 0.028965


DEFAULT_GAS = GasConstants()


def alpha(gc: GasConstants) -> float:
    """Lumped flow-to-pressure-rate coefficient rho*R_u*T/M in kPa."""
    return gc.rho * gc.R_u * gc.T / gc.M / 1000.0


def pressure_rate_from_flow(q: float, v_cv: float, gc: GasConstants = DEFAULT_GAS) -> float:
    """Pressure rate (kPa/s) of a rigid volume v_cv (L) fed with flow q (std L/s)."""
    if not v_cv > 0.0:
        raise ValueError("v_cv must be strictly positive")
    return alpha(gc) * q / v_cv


def flow_from_ohm(dp: float, r_v: float) -> float:
    """Standard flow (std L/s) through resistance r_v under pressure difference dp.

    Antisymmetric in dp: reversing the pressure difference reverses the flow.
    """
    if not r_v > 0.0:
        raise ValueError("r_v must be strictly positive")
    return dp / r_v


def discharge_time_constant(r_v: float, v_r: float, gc: GasConstants = DEFAULT_GAS) -> float:
    """Reservoir discharge time constant tau = r_v * v_r / alpha (s)."""
    if not r_v > 0.0:
        raise ValueError("r_v must be strictly positive")
    if not v_r > 0.0:
        raise ValueError("v_r must be strictly positive")
    return r_v * v_r / alpha(gc)


def discharge_pressure(
    t: float, p_r0: float, r_v: float, v_r: float, gc: GasConstants = DEFAULT_GAS
) -> float:
    """Gauge pressure (kPa) of a reservoir discharging to atmosphere at time t.

    Exponential decay p_r0 * exp(-t / tau) with tau = r_v*v_r/alpha; monotone
    non-increasing in t for p_r0 >= 0.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    return p_r0 * math.exp(-t / discharge_time_constant(r_v, v_r, gc))


def inflation_rate(p_r: float, r_v: float, v_cv: float, gc: GasConstants = DEFAULT_GAS) -> float:
    """Benchmark inflation speed alpha*p_r/(r_v*v_cv) in kPa/s.

    Valid for a reservoir pressure much larger than the control-volume
    pressure; the simulator integrates the exact difference-driven flow.
    """
    if not v_cv > 0.0:
        raise ValueError("v_cv must be strictly positive")
    if not r_v > 0.0:
        raise ValueError("r_v must be strictly positive")
    resistance_volume = r_v * v_cv
    if not resistance_volume > 0.0:  # the product of two tiny factors underflows
        raise ValueError("r_v * v_cv must be strictly positive")
    return alpha(gc) * p_r / resistance_volume


def max_command_rate(amplitude: float, freq_hz: float) -> float:
    """Maximum time-derivative (kPa/s) of a sine command A*sin(2*pi*f*t)+c."""
    if amplitude < 0.0:
        raise ValueError("amplitude must be non-negative")
    if freq_hz < 0.0:
        raise ValueError("freq_hz must be non-negative")
    return 2.0 * amplitude * math.pi * freq_hz


def cutoff_frequency(pdot_max: float, amplitude: float) -> float:
    """Tracking cutoff frequency (Hz) for a system slew-limited at pdot_max."""
    if not amplitude > 0.0:
        raise ValueError("amplitude must be strictly positive")
    if pdot_max < 0.0:
        raise ValueError("pdot_max must be non-negative")
    return pdot_max / (2.0 * math.pi * amplitude)


def frequency_gain(freq_hz: float, cutoff_hz: float) -> float:
    """Piecewise tracking gain: 1 in the pass band, cutoff/freq above it."""
    if not freq_hz > 0.0:
        raise ValueError("freq_hz must be strictly positive")
    if cutoff_hz < 0.0:
        raise ValueError("cutoff_hz must be non-negative")
    if freq_hz <= cutoff_hz:
        return 1.0
    return cutoff_hz / freq_hz


def min_reservoir_pressure(
    pdot_d: float, r_v: float, v_cv: float, gc: GasConstants = DEFAULT_GAS
) -> float:
    """Smallest reservoir gauge pressure (kPa) sustaining inflation speed pdot_d.

    Inverse of :func:`inflation_rate`; feeding the result back reproduces
    pdot_d to machine precision.
    """
    if pdot_d < 0.0:
        raise ValueError("pdot_d must be non-negative")
    if not r_v > 0.0:
        raise ValueError("r_v must be strictly positive")
    if not v_cv > 0.0:
        raise ValueError("v_cv must be strictly positive")
    return pdot_d * r_v * v_cv / alpha(gc)


def n_cycles(
    p_r0: float,
    v_cv: float,
    r_vmin: float,
    pdot_d: float,
    v_r: float,
    dp_cv: float,
    gc: GasConstants = DEFAULT_GAS,
) -> float:
    """Inflate/deflate cycle budget of a reservoir, clamped below at zero.

    0.5*(p_r0/v_cv - r_vmin*pdot_d/alpha)*v_r/dp_cv cycles; the 0.5 factor
    conservatively charges deflation the same standard volume as inflation
    (vacuum-generator motive air). Returns a real number; floor it for
    reporting.
    """
    if not v_cv > 0.0:
        raise ValueError("v_cv must be strictly positive")
    if not v_r > 0.0:
        raise ValueError("v_r must be strictly positive")
    if not dp_cv > 0.0:
        raise ValueError("dp_cv must be strictly positive")
    if not r_vmin > 0.0:
        raise ValueError("r_vmin must be strictly positive")
    if pdot_d < 0.0:
        raise ValueError("pdot_d must be non-negative")
    raw = 0.5 * (p_r0 / v_cv - r_vmin * pdot_d / alpha(gc)) * v_r / dp_cv
    return max(0.0, raw)
