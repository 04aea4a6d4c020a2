"""Command-line front end: JSON scenarios in, CSV/JSON results out.

Subcommands: simulate (time series), sweep (frequency response), discharge
(blowdown trace plus time-constant fit), size (catalog feasibility report).

Input files are strict JSON: a required "schema_version": 1, unit-suffixed
key names, and unknown keys rejected. Flow rates given in SLPM are converted
to std L/s on ingestion. Every run writes a manifest with the sha256 of the
raw input and of the fully resolved configuration; identical manifests imply
byte-identical outputs. Exit codes: 0 ok, 2 validation error, 3 simulation
failure, 4 empty feasible set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from dataclasses import asdict  # noqa: F401 -- perfbench/tracer.py patches it here by name
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .components import (
    VALVE_RATED_INLET_KPA,
    VENTURI_Q_RATED_SLPM,
    PneumaticNetwork,
    ProportionalValveSpec,
    default_network,
)
from .control import ActuatorCommand, ControllerConfig, Mode
from .gasmodel import BOUNDS, DEFAULT_GAS, PERFECT_VACUUM_KPA, FieldError, alpha
from .sim import (
    PiecewiseCommand,
    Scenario,
    SimulationDivergence,
    SineCommand,
    StepCommand,
    TimeSeries,
    simulate,
)
from .sizing import (
    ComponentCatalog,
    DesignReport,
    DesignRequirements,
    ReservoirOption,
    ValveOption,
    VenturiOption,
    enumerate_catalog,
)

CSV_HEADER = "t_s,P_cmd_kPa,P_cv_kPa,P_r_kPa,u_evp,u_dvp,solenoid,Q_in_slps,Q_out_slps,Q_motive_slps,mode"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SIMULATION = 3
EXIT_NO_FEASIBLE = 4


class ConfigError(ValueError):
    """Input-file validation failure; the message names the offending field."""


# ---------------------------------------------------------------- field table
#
# Each section of the input schema is a table: (constructor, rows). A row is
# (JSON key, constructor keyword, check, default). A row written as (key,
# keyword) checks the kind its record declares for the field (gasmodel.BOUNDS)
# and takes the record's default: its class attribute, or the field of the
# default network. A row names its own check only where the record declares
# none: "num" a finite number, "bool", "str", "list", or a kind of BOUNDS for a
# key the constructor does not take (keyword None); a check None is the
# record's. A key ending in _slpm is bounded, and reaches the constructor, in
# std L/s. _REQUIRED makes a key mandatory; a default None leaves an absent key
# out of the resolved section, for a rule in resolve_* to fill or for the
# constructor's own default.

_REQUIRED = object()
_NET = default_network()


def _table(owner, *rows: tuple) -> tuple:
    """(constructor, rows): owner's class; checks and defaults read from owner."""
    cls = owner if isinstance(owner, type) else type(owner)

    def row(key, kw, check=None, default=_REQUIRED) -> tuple:
        if default is _REQUIRED:  # not given: the owner's, else required
            default = getattr(owner, kw, _REQUIRED)
        return key, kw, check or cls.KINDS.get(kw, "num"), default

    return cls, tuple(row(*r) for r in rows)


GAS = _table(
    DEFAULT_GAS,
    ("rho_kg_per_m3", "rho"),
    ("R_u_J_per_mol_K", "R_u"),
    ("T_K", "T"),
    ("M_kg_per_mol", "M"),
)
VALVE = _table(
    ProportionalValveSpec,
    ("P_inlet_max_kPa", None, "pos", VALVE_RATED_INLET_KPA),
    ("deadband", "u0"),
    ("R_vmin_kPa_s_per_L", "r_vmin", None, None),  # or derived from flow_max_slpm
)
NETWORK = {  # in PneumaticNetwork order
    "reservoir": _table(_NET.reservoir, ("V_r_L", "v_r"), ("P_r0_kPa", "p_r0")),
    "control_volume": _table(_NET.control_volume, ("V_cv_L", "v_cv"), ("P_cv0_kPa", "p_cv")),
    "inflation_valve": VALVE,
    "motive_valve": VALVE,
    "solenoid": _table(_NET.solenoid, ("R_open_kPa_s_per_L", "r_open")),
    "venturi": _table(
        _NET.venturi,
        ("P_vac_floor_kPa", "p_vac_floor"),
        ("Q_motive_rated_slpm", "q_motive_rated", None, VENTURI_Q_RATED_SLPM),
    ),
    "cv_sensor": _table(
        _NET.cv_sensor,
        ("range_max_kPa", "range_max"),
        ("noise_std_kPa", "noise_std"),
        ("seed", "seed"),
    ),
}
# the valve sections of the default network, resolved when a scenario omits one
DEFAULT_VALVES = {
    name: {"R_vmin_kPa_s_per_L": getattr(_NET, name).r_vmin}
    for name in ("inflation_valve", "motive_valve")
}
CONTROLLER = _table(
    ControllerConfig,
    ("kp_per_kPa", "kp"),
    ("ki_per_kPa_s", "ki"),
    ("kd_s_per_kPa", "kd"),
    ("error_cutoff_kPa", "error_cutoff"),
    ("control_rate_Hz", "control_rate"),
    ("settle_horizon_s", "settle_horizon"),
    ("integrator_limit_kPa_s", "integrator_limit"),
    # the record takes any threshold: the control law compares against it as it is
    ("active_deflation_rate_threshold_kPa_s", "active_deflation_rate_threshold", "nonneg"),
)
COMMANDS = {
    "step": _table(StepCommand, ("target_kPa", "target_kpa"), ("start_s", "start_s")),
    "sine": _table(
        SineCommand,
        ("amplitude_kPa", "amplitude_kpa"),
        ("frequency_Hz", "freq_hz"),
        ("offset_kPa", "offset_kpa", "num", None),  # default: amplitude_kPa
    ),
    "piecewise": _table(PiecewiseCommand, ("knots", "knots")),  # each knot: _resolve_knots
}
RUN = _table(
    Scenario,
    ("dt_s", "dt"),
    ("duration_s", "duration"),
    ("sample_rate_Hz", "sample_rate"),
    ("seed", "seed"),
    ("hold_reservoir", "hold_reservoir", "bool"),
    ("mode", None, "str", "closed_loop"),
)
OPEN_LOOP = _table(
    ActuatorCommand,
    ("u_evp", "u_inflate"),
    ("u_dvp", "u_motive"),
    ("solenoid_open", "solenoid_open", "bool"),
)
REQUIREMENTS = _table(
    DesignRequirements,
    ("V_cv_L", "v_cv"),
    ("dP_cv_kPa", "dp_cv"),
    ("min_cycles", "min_cycles"),
    ("Pdot_d_kPa_s", "pdot_d"),
    ("amplitude_kPa", "amplitude"),
    ("frequency_Hz", "freq_hz"),
)
VALVE_OPTION = _table(  # no deadband: sizing rates a valve by its full conductance
    ValveOption,
    ("name", "name", "str"),
    ("mass_g", "mass_g"),
    ("P_inlet_max_kPa", "p_inlet_max", None, VALVE_RATED_INLET_KPA),
    ("R_vmin_kPa_s_per_L", "r_vmin", None, None),  # or derived from flow_max_slpm
)
RESERVOIR_OPTION = _table(
    ReservoirOption,
    ("name", "name", "str"),
    ("V_r_L", "v_r"),
    ("mass_g", "mass_g"),
    ("P_max_kPa", "p_max"),
)
VENTURI_OPTION = _table(
    VenturiOption,
    ("name", "name", "str"),
    ("P_vac_floor_kPa", "p_vac_floor"),
    ("Q_motive_rated_slpm", "q_motive_rated"),
    ("mass_g", "mass_g"),
)

# check -> (accepted JSON types, what the error says was expected); any other check is a number
_EXPECTED = {
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
    "int": (int, "an integer"),
    **dict.fromkeys(("list", "nonempty"), (list, "a list")),
}
_NUMBER = ((int, float), "a number")


def _check(value, where: str, check: str):
    """Validate one JSON value; numbers other than "int" come back as float."""
    kind, expected = _EXPECTED.get(check, _NUMBER)
    if not isinstance(value, kind) or (isinstance(value, bool) and check != "bool"):
        raise ConfigError(f"{where}: expected {expected}")
    if check not in _EXPECTED:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{where}: must be finite")
    slpm = where.endswith("_slpm")
    for in_range, bound in BOUNDS.get(check, ()):
        if not in_range(value / 60.0 if slpm else value):
            raise ConfigError(f"{where}: must be {bound}" + " in std L/s (SLPM / 60)" * slpm)
    return value


def _require_obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return dict(value)


def _reject_unknown(obj: dict, path: str) -> None:
    if obj:
        keys = ", ".join(sorted(obj))
        raise ConfigError(f"{path}: unknown key(s): {keys}")


def _pop(obj: dict, path: str, key: str, check: str):
    """Pop and check a required key."""
    if key not in obj:
        raise ConfigError(f"{path}.{key}: required")
    return _check(obj.pop(key), f"{path}.{key}", check)


def _resolve(obj: dict, path: str, table: tuple) -> dict:
    """Pop and check each row's key from obj; absent keys take the row's default."""
    out = {}
    for key, _kw, check, default in table[1]:
        if key in obj or default is _REQUIRED:
            out[key] = _pop(obj, path, key, check)
        elif default is not None:
            out[key] = default
    return out


def _object(raw, path: str, table: tuple) -> dict:
    """Resolve an object that has no rule beyond its rows."""
    obj = _require_obj(raw, path)
    out = _resolve(obj, path, table)
    _reject_unknown(obj, path)
    return out


def _build(table: tuple, section: dict, path: str = "", nested: dict | None = None, **extra):
    """Call the table's constructor with each resolved value under its row's keyword; a
    record's ``FieldError`` becomes a ConfigError at ``path``, each keyword named by its key.
    ``nested`` maps the keyword of a record in ``extra`` to its (path, table), so that a field
    of it, such as ``controller.control_rate``, is named in its own section."""
    make, rows = table
    kwargs = {
        kw: section[key] / 60.0 if key.endswith("_slpm") else section[key]
        for key, kw, _c, _d in rows
        if kw and key in section
    }
    try:
        return make(**kwargs, **extra)
    except FieldError as exc:
        paths = {kw: f"{path}.{key}" for key, kw, _c, _d in rows}
        for name, (sub_path, (_make, sub_rows)) in (nested or {}).items():
            paths.update({f"{name}.{kw}": f"{sub_path}.{key}" for key, kw, _c, _d in sub_rows})
        where = re.sub(r"^[\w.]+", lambda m: paths.get(m[0], f"{path}.{m[0]}"), exc.field)
        text = re.sub(r"\{([\w.]+)\}", lambda m: paths.get(m[1], m[1]).rpartition(".")[2], exc.text)
        raise ConfigError(f"{where or path}: {text}") from None


def _check_schema_version(obj: dict, path: str) -> None:
    version = _pop(obj, path, "schema_version", "int")
    if version != 1:
        raise ConfigError(f"{path}.schema_version: unsupported version {version}")


# ------------------------------------------------------------ scenario schema


def _resolve_valve(raw, path: str, table: tuple = VALVE) -> dict:
    """The rows of a valve table (VALVE, VALVE_OPTION), then R_vmin_kPa_s_per_L or
    flow_max_slpm rated at P_inlet_max_kPa."""
    obj = _require_obj(raw, path)
    out = _resolve(obj, path, table)
    if "flow_max_slpm" in obj:
        if "R_vmin_kPa_s_per_L" in out:
            raise ConfigError(f"{path}: give R_vmin_kPa_s_per_L or flow_max_slpm, not both")
        r_vmin = out["P_inlet_max_kPa"] / (_pop(obj, path, "flow_max_slpm", "pos") / 60.0)
        if not 0.0 < r_vmin < math.inf:
            size = "large" if r_vmin == 0.0 else "small"
            raise ConfigError(f"{path}.flow_max_slpm: too {size} for P_inlet_max_kPa")
        out["R_vmin_kPa_s_per_L"] = r_vmin
    elif "R_vmin_kPa_s_per_L" not in out:
        raise ConfigError(f"{path}: R_vmin_kPa_s_per_L or flow_max_slpm required")
    _reject_unknown(obj, path)
    return out


def _resolve_knots(knots: list) -> list:
    """Each knot as [time_s, value_kPa] in numbers; PiecewiseCommand checks the rest."""
    parsed = []
    for i, knot in enumerate(knots):
        where = f"scenario.command.knots[{i}]"
        if not isinstance(knot, list) or len(knot) != 2:
            raise ConfigError(f"{where}: expected [time_s, value_kPa]")
        parsed.append([_check(knot[0], where, "num"), _check(knot[1], where, "num")])
    return parsed


def _check_sensor_range(command: dict, range_max: float) -> None:
    """A closed-loop command above the CV sensor's range saturates the controller."""
    if command["kind"] == "step":
        where, peak = "target_kPa", command["target_kPa"]
    elif command["kind"] == "sine":
        where = "offset_kPa + amplitude_kPa"
        peak = command["offset_kPa"] + command["amplitude_kPa"]
    else:
        values = [v for _, v in command["knots"]]
        where, peak = f"knots[{values.index(max(values))}]", max(values)
    if peak > range_max:
        raise ConfigError(
            f"scenario.command.{where}: {peak:g} kPa is above the CV sensor range "
            f"(scenario.network.cv_sensor.range_max_kPa = {range_max:g})"
        )


def resolve_scenario(raw: dict) -> dict:
    """Validate a scenario document and materialize every default.

    Resolution is idempotent: resolving the resolved document returns it
    unchanged, which is what makes manifests round-trip exactly.
    """
    return _scenario(raw)[1]


def _scenario(raw: dict) -> tuple[Scenario, dict]:
    """The Scenario of a document and the resolved document; each record is built once, as
    its section resolves, and a record's rule names the field by its path."""
    top = _require_obj(raw, "scenario")
    _check_schema_version(top, "scenario")
    gas = _object(top.pop("gas", {}), "scenario.gas", GAS)
    gc = _build(GAS, gas, "scenario.gas")

    net_obj = _require_obj(top.pop("network", {}), "scenario.network")
    network, parts = {}, {}
    for name, table in NETWORK.items():
        path = f"scenario.network.{name}"
        if table is VALVE:
            network[name] = _resolve_valve(net_obj.pop(name, DEFAULT_VALVES[name]), path)
        else:
            network[name] = _object(net_obj.pop(name, {}), path, table)
        parts[name] = _build(table, network[name], path)
    _reject_unknown(net_obj, "scenario.network")
    ctl = ("scenario.controller", CONTROLLER)
    controller = _object(top.pop("controller", {}), *ctl)
    ctl_cfg = _build(CONTROLLER, controller, ctl[0])

    if "command" not in top:
        raise ConfigError("scenario.command: required")
    cmd_obj = _require_obj(top.pop("command"), "scenario.command")
    kind = _pop(cmd_obj, "scenario.command", "kind", "str")
    if kind not in COMMANDS:
        raise ConfigError(f"scenario.command.kind: unknown kind {kind!r}")
    command = {"kind": kind, **_resolve(cmd_obj, "scenario.command", COMMANDS[kind])}
    _reject_unknown(cmd_obj, "scenario.command")
    if kind == "sine":
        command.setdefault("offset_kPa", command["amplitude_kPa"])
    elif kind == "piecewise":
        command["knots"] = _resolve_knots(command["knots"])
    cmd = _build(COMMANDS[kind], command, "scenario.command")

    run_path = "scenario.run"
    run_obj = _require_obj(top.pop("run", {}), run_path)
    run = _resolve(run_obj, run_path, RUN)
    # The rates are flows times alpha / V, and the propagator forms A (A p + b). So each
    # coefficient (a conductance 1 / R, the Venturi node's slope through the solenoid, alpha / V
    # times them), squared, times the largest pressure of the run must stay finite.
    res, cv, venturi = network["reservoir"], network["control_volume"], network["venturi"]
    a, r_mot = alpha(gc), network["motive_valve"]["R_vmin_kPa_s_per_L"]
    slope = -venturi["P_vac_floor_kPa"] / r_mot / (venturi["Q_motive_rated_slpm"] / 60.0)
    g = 1.0 / network["inflation_valve"]["R_vmin_kPa_s_per_L"] + 1.0 / r_mot
    g += (1.0 + slope) / network["solenoid"]["R_open_kPa_s_per_L"]
    inv_v = max(a / cv["V_cv_L"], 0.0 if run["hold_reservoir"] else a / res["V_r_L"])
    coeff = max(1.0, slope, g, 2.0 * g * inv_v)
    p = max(res["P_r0_kPa"], cv["P_cv0_kPa"], -PERFECT_VACUUM_KPA)
    if not 4.0 * coeff * coeff * p < math.inf:
        raise _overflow(
            "a rate constant alpha / V times a conductance 1 / R, times a pressure (a flow "
            "rating gives R_vmin_kPa_s_per_L = P_inlet_max_kPa / (flow_max_slpm / 60))",
            scenario={"gas": gas, "network": network},
        )
    if kind == "sine" and cmd.overflows(run["duration_s"]):  # Scenario.rule's bound, by key
        raise _overflow("2 pi frequency_Hz times duration_s or amplitude_kPa",
                        scenario={"command": command, "run": run})
    if run["mode"] not in ("closed_loop", "open_loop"):
        raise ConfigError(f"{run_path}.mode: expected 'closed_loop' or 'open_loop'")
    olc_path, olc = f"{run_path}.open_loop_command", None
    if run["mode"] == "open_loop":
        if "open_loop_command" not in run_obj:
            raise ConfigError(f"{olc_path}: required for open_loop mode")
        run["open_loop_command"] = _object(run_obj.pop("open_loop_command"), olc_path, OPEN_LOOP)
        olc = _build(OPEN_LOOP, run["open_loop_command"], olc_path)
    elif "open_loop_command" in run_obj:
        raise ConfigError(f"{olc_path}: only valid with mode 'open_loop'")
    else:
        _check_sensor_range(command, network["cv_sensor"]["range_max_kPa"])
    _reject_unknown(run_obj, run_path)
    _reject_unknown(top, "scenario")

    scn = _build(
        RUN,
        run,
        run_path,
        {"controller": ctl},
        network=PneumaticNetwork(**parts),
        controller=ctl_cfg,
        command=cmd,
        open_loop_command=olc,
        gas=gc,
    )
    return scn, {
        "schema_version": 1,
        "gas": gas,
        "network": network,
        "controller": controller,
        "command": command,
        "run": run,
    }


def load_scenario(path: Path, overrides: dict | None = None) -> tuple[Scenario, dict]:
    """Scenario and resolved document; overrides replace keys of the run section."""
    raw = _load_json(path)
    if overrides and isinstance(raw, dict) and isinstance(raw.get("run", {}), dict):
        raw = {**raw, "run": {**raw.get("run", {}), **overrides}}
    return _scenario(raw)


# ------------------------------------------------------- requirements/catalog


def resolve_requirements(raw: dict) -> dict:
    obj = _require_obj(raw, "requirements")
    _check_schema_version(obj, "requirements")
    out = {"schema_version": 1, **_resolve(obj, "requirements", REQUIREMENTS)}
    _reject_unknown(obj, "requirements")
    _build(REQUIREMENTS, out, "requirements")  # the rules between its fields
    return out


def _overflow(what: str, **docs) -> ConfigError:
    """The error for an infinite ``what`` computed from resolved documents, ``docs`` by the
    first part of their paths. It names their positive number furthest from 1."""
    path, x = max(_numbers(docs, ""), key=lambda item: abs(math.log2(item[1])))
    return ConfigError(f"{path}: too {'large' if x > 1.0 else 'small'}: {what} overflows")


def _numbers(doc, path: str):
    """(path, value) of every positive float in a resolved document."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _numbers(value, path + (f"[{key}]" if isinstance(key, int) else f".{key}"))
    elif isinstance(doc, float) and doc > 0.0:
        yield path[1:], doc


def requirements_from_resolved(resolved: dict) -> DesignRequirements:
    return _build(REQUIREMENTS, resolved)


# catalog list -> the rule for one entry; ComponentCatalog declares which must be non-empty
CATALOG = {
    "valves": lambda raw, path: _resolve_valve(raw, path, VALVE_OPTION),
    "reservoirs": lambda raw, path: _object(raw, path, RESERVOIR_OPTION),
    "venturis": lambda raw, path: _object(raw, path, VENTURI_OPTION),
}


def resolve_catalog(raw: dict) -> dict:
    obj = _require_obj(raw, "catalog")
    _check_schema_version(obj, "catalog")
    out = {"schema_version": 1}
    for key, entry in CATALOG.items():
        items = _check(obj.pop(key, []), f"catalog.{key}", ComponentCatalog.KINDS.get(key, "list"))
        out[key] = [entry(item, f"catalog.{key}[{i}]") for i, item in enumerate(items)]
    _reject_unknown(obj, "catalog")
    return out


def catalog_from_resolved(resolved: dict) -> ComponentCatalog:
    return ComponentCatalog(
        valves=tuple(_build(VALVE_OPTION, v) for v in resolved["valves"]),
        reservoirs=tuple(_build(RESERVOIR_OPTION, r) for r in resolved["reservoirs"]),
        venturis=tuple(_build(VENTURI_OPTION, v) for v in resolved["venturis"]),
    )


# ------------------------------------------------------------- files and hash


def _load_json(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sha256_config(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


# the fields of one time-series row: the solenoid as 0/1 and the mode by name; every other as _fmt
_CSV_FIELDS = ("%.9g",) * 6 + ("%d",) + ("%.9g",) * 3 + ("%s",)
_CSV_BLOCK_ROWS = 512  # rows formatted and written at a time; larger blocks raise peak memory


def write_timeseries_csv(ts: TimeSeries, path: Path) -> None:
    """Fixed-header CSV, 9 significant digits, LF line endings.

    A column whose values are bit for bit the same over a block of rows is
    formatted once, into that block's row template; the others row by row.
    """
    mode_names = {mode: mode.name for mode in Mode}
    columns = [getattr(ts, name) for name in TimeSeries.FIELDS]
    with path.open("w", encoding="utf-8", newline="\n") as out:
        out.write(CSV_HEADER + "\n")
        for start in range(0, len(ts), _CSV_BLOCK_ROWS):
            fields, varying = [], []
            for spec, col in zip(_CSV_FIELDS, columns):
                block = col[start : start + _CSV_BLOCK_ROWS]
                raw, width = block.tobytes(), block.itemsize
                if raw[width:] == raw[:-width]:  # every value equals the first, sign bit too
                    value = block[0].item()
                    text = spec % (mode_names[value] if spec == "%s" else value)
                    fields.append(text.replace("%", "%%"))
                else:
                    values = block.tolist()
                    varying.append([mode_names[c] for c in values] if spec == "%s" else values)
                    fields.append(spec)
            row = ",".join(fields) + "\n"
            if varying:
                out.write("".join(row % values for values in zip(*varying)))
            else:
                out.write((row % ()) * len(block))


def read_timeseries_csv(path: Path) -> TimeSeries:
    """Read a write_timeseries_csv file; a malformed row is a ConfigError naming its line."""
    import numpy as np

    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: unexpected CSV header")
    n_cols = len(TimeSeries.FIELDS)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        where = f"{path}: line {lineno}"
        if len(fields) != n_cols:
            raise ConfigError(f"{where}: expected {n_cols} fields, got {len(fields)}")
        try:
            rows.append([*map(float, fields[:-1]), Mode[fields[-1]]])
        except KeyError:
            raise ConfigError(f"{where}: unknown mode {fields[-1]!r}")
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}")
    columns = zip(*rows) if rows else [()] * n_cols
    return TimeSeries(**{
        name: np.array(col, dtype=np.uint8 if name == "mode" else float)
        for name, col in zip(TimeSeries.FIELDS, columns)
    })


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# The design report, laid out as _write_json lays out a payload. json.dumps encodes
# in pure Python when it indents; with _asdict that costs several times this template.
_REPORT = (
    '{\n  "feasible": %s,\n  "infeasible": %s,\n  "input_sha256": {\n'
    '    "catalog": %s,\n    "requirements": %s\n  },\n  "schema_version": 1\n}\n'
)
_ENTRY = (  # one DesignEntry, its fields in sorted order
    "{\n"
    '      "cutoff_hz_floor": %s,\n'
    '      "cutoff_hz_full": %s,\n'
    '      "feasible": %s,\n'
    '      "limiting": %s,\n'
    '      "min_p_r": %s,\n'
    '      "n_cycles": %s,\n'
    '      "p_r0": %s,\n'
    '      "pdot_demand": %s,\n'
    '      "pressure_derated": %s,\n'
    '      "reservoir": %s,\n'
    '      "total_mass_g": %s,\n'
    '      "valve": %s\n'
    "    }"
)
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}  # as json.dumps spells them


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _json_list(items: list[str], indent: str) -> str:
    """Encoded items as a list that json.dumps(indent=2) writes at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def design_report_json(report: DesignReport, input_sha256: dict[str, str]) -> str:
    """The design report, as ``_write_json`` writes it from ``_asdict`` of each entry.

    ``input_sha256`` maps "catalog" and "requirements" to their digests.
    """
    enc, num = encode_basestring_ascii, _json_float

    def entry(e) -> str:
        return _ENTRY % (
            num(e.cutoff_hz_floor),
            num(e.cutoff_hz_full),
            "true" if e.feasible else "false",
            _json_list([enc(reason) for reason in e.limiting], "      "),
            num(e.min_p_r),
            num(e.n_cycles),
            num(e.p_r0),
            num(e.pdot_demand),
            "true" if e.pressure_derated else "false",
            enc(e.reservoir),
            num(e.total_mass_g),
            enc(e.valve),
        )

    return _REPORT % (
        _json_list([entry(e) for e in report.feasible], "  "),
        _json_list([entry(e) for e in report.infeasible], "  "),
        enc(input_sha256["catalog"]),
        enc(input_sha256["requirements"]),
    )


def _write_manifest(
    out_dir: Path,
    stem: str,
    command: str,
    input_paths: dict[str, Path],
    resolved: dict,
    overrides: dict,
    outputs: list[str],
) -> Path:
    manifest = {
        "schema_version": 1,
        "tool": "pneusim",
        "tool_version": __version__,
        "command": command,
        "inputs": {
            name: {"path": str(p), "sha256": _sha256_file(p)} for name, p in input_paths.items()
        },
        "cli_overrides": overrides,
        "resolved": resolved,
        "resolved_sha256": _sha256_config(resolved),
        "outputs": outputs,
    }
    path = out_dir / f"{stem}_manifest.json"
    _write_json(path, manifest)
    return path


# ------------------------------------------------------------------- commands


class _Run:
    """A run subcommand's scenario, its resolved document, the run flags given and its outputs."""

    def __init__(self, args):
        self.path = Path(args.scenario)
        flags = {"dt_s": args.dt, "duration_s": args.duration,
                 "sample_rate_Hz": args.sample_rate, "seed": args.seed}
        self.overrides = {key: value for key, value in flags.items() if value is not None}
        self.scn, self.resolved = load_scenario(self.path, self.overrides)
        self.out_dir = Path(args.out)

    def output(self, suffix: str) -> Path:
        """``<out>/<scenario stem>_<suffix>``; makes the output directory."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / f"{self.path.stem}_{suffix}"

    def write_manifest(self, command: str, outputs: list[Path], **extra_overrides) -> None:
        _write_manifest(
            self.out_dir, self.path.stem, command, {"scenario": self.path}, self.resolved,
            {**self.overrides, **extra_overrides}, [p.name for p in outputs],
        )


def cmd_simulate(args) -> int:
    run = _Run(args)
    csv_path = run.output("timeseries.csv")
    write_timeseries_csv(simulate(run.scn), csv_path)
    run.write_manifest("simulate", [csv_path])
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from . import analysis  # here, not at the top: it loads numpy, which `size` never needs

    if args.duration is not None:
        raise ConfigError("--duration: sweep sets each point's duration from its frequency")
    run = _Run(args)
    if not isinstance(run.scn.command, SineCommand):
        raise ConfigError("scenario.command.kind: sweep needs a sine command")
    if not run.scn.closed_loop:
        raise ConfigError("scenario.run.mode: sweep needs a closed_loop scenario")
    try:
        omegas = [float(w) for w in args.omegas.split(",") if w.strip()]
    except ValueError:
        raise ConfigError("--omegas: expected comma-separated numbers")
    if not omegas:
        raise ConfigError("--omegas: at least one frequency required")
    if any(not math.isfinite(w) for w in omegas):
        raise ConfigError("--omegas: frequencies must be finite")
    if any(not w > 0 for w in omegas):
        raise ConfigError("--omegas: frequencies must be > 0")
    if args.repeats < 1:
        raise ConfigError("--repeats: must be >= 1")

    points = analysis.frequency_sweep(run.scn, omegas, n_repeat=args.repeats)
    ok = [p for p in points if p.error is None]

    lines = ["omega_Hz,gain,n_periods,error"]
    for p in sorted(points, key=lambda p: p.omega):
        err = (p.error or "").replace(",", ";")
        lines.append(f"{_fmt(p.omega)},{_fmt(p.gain)},{p.n_periods},{err}")
    table_path = run.output("sweep.csv")
    table_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    fit: dict = {
        "schema_version": 1,
        "input_sha256": _sha256_file(run.path),
        "n_points": len(points),
        "n_failed": len(points) - len(ok),
    }
    if len(ok) >= 2:
        fit["knee_Hz"] = analysis.fit_rolloff_knee(
            [p.omega for p in ok], [p.gain for p in ok]
        )
        f3db = analysis.first_crossing_3db([p.omega for p in ok], [p.gain for p in ok])
        fit["first_3db_crossing_Hz"] = None if math.isnan(f3db) else f3db
    fit_path = run.output("sweep_fit.json")
    _write_json(fit_path, fit)
    run.write_manifest("sweep", [table_path, fit_path], omegas_Hz=omegas, repeats=args.repeats)
    print(f"wrote {table_path}")
    if not ok:
        print("error: every sweep point failed", file=sys.stderr)
        return EXIT_SIMULATION
    return EXIT_OK


def cmd_discharge(args) -> int:
    from . import analysis  # see cmd_sweep

    run = _Run(args)
    if run.scn.closed_loop:
        raise ConfigError("scenario.run.mode: discharge needs an open_loop scenario")
    csv_path = run.output("timeseries.csv")
    ts = simulate(run.scn)
    write_timeseries_csv(ts, csv_path)

    report: dict = {"schema_version": 1, "input_sha256": _sha256_file(run.path)}
    try:
        fit = analysis.fit_discharge_tau(ts)
        report.update(
            {
                "degenerate": fit.degenerate,
                "tau_s": None if math.isinf(fit.tau_s) else fit.tau_s,
                "P_r0_fit_kPa": fit.p_r0_fit,
                "nrmse": fit.nrmse,
            }
        )
    except ValueError as exc:
        report.update({"degenerate": True, "tau_s": None, "reason": str(exc)})
    fit_path = run.output("discharge_fit.json")
    _write_json(fit_path, report)
    run.write_manifest("discharge", [csv_path, fit_path])
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_size(args) -> int:
    req_path = Path(args.requirements)
    cat_path = Path(args.catalog)
    req_resolved = resolve_requirements(_load_json(req_path))
    cat_resolved = resolve_catalog(_load_json(cat_path))
    req = requirements_from_resolved(req_resolved)
    catalog = catalog_from_resolved(cat_resolved)
    for i, valve in enumerate(catalog.valves):  # gasmodel.inflation_rate divides by the product
        if not valve.r_vmin * req.v_cv > 0.0:
            raise ConfigError(
                f"catalog.valves[{i}].R_vmin_kPa_s_per_L: too small for requirements.V_cv_L "
                "(a flow rating gives P_inlet_max_kPa / (flow_max_slpm / 60))"
            )
    report = enumerate_catalog(req, catalog)
    # the report is strict JSON, which has no Infinity (and none of these can be NaN)
    if not all(max(e.pdot_demand, e.min_p_r, e.cutoff_hz_floor, e.cutoff_hz_full, e.n_cycles,
                   e.total_mass_g) < math.inf for e in report.entries):
        raise _overflow(
            "a number of the design report (a flow rating gives R_vmin_kPa_s_per_L = "
            "P_inlet_max_kPa / (flow_max_slpm / 60))",
            requirements=req_resolved, catalog=cat_resolved,
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = req_path.stem
    input_sha256 = {"requirements": _sha256_file(req_path), "catalog": _sha256_file(cat_path)}
    report_path = out_dir / f"{stem}_design_report.json"
    report_path.write_text(design_report_json(report, input_sha256), encoding="utf-8")
    _write_manifest(
        out_dir,
        stem,
        "size",
        {"requirements": req_path, "catalog": cat_path},
        {"requirements": req_resolved, "catalog": cat_resolved},
        {},
        [report_path.name],
    )
    print(f"wrote {report_path}")
    if not report.feasible:
        print("error: no feasible configuration", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pneusim",
        description="Simulate and size portable high-flow pneumatic supply/regulation systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--dt", type=float, default=None, help="integration step (s)")
    run_flags.add_argument("--duration", type=float, default=None, help="run length (s)")
    run_flags.add_argument("--sample-rate", type=float, default=None, help="output rate (Hz)")
    run_flags.add_argument("--seed", type=int, default=None, help="run seed")
    run_flags.add_argument("--out", default="out", help="output directory (default: out)")

    p_sim = sub.add_parser("simulate", parents=[run_flags], help="run one scenario")
    p_sim.add_argument("scenario", help="scenario JSON file")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[run_flags], help="frequency-response sweep")
    p_sweep.add_argument("scenario", help="scenario JSON file with a sine command")
    p_sweep.add_argument("--omegas", required=True, help="comma-separated frequencies (Hz)")
    p_sweep.add_argument("--repeats", type=int, default=1, help="runs per point (noisy sensors)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_dis = sub.add_parser("discharge", parents=[run_flags], help="reservoir blowdown and fit")
    p_dis.add_argument("scenario", help="open-loop discharge scenario JSON file")
    p_dis.set_defaults(func=cmd_discharge)

    p_size = sub.add_parser("size", help="catalog feasibility report")
    p_size.add_argument("requirements", help="requirements JSON file")
    p_size.add_argument("catalog", help="component catalog JSON file")
    p_size.add_argument("--out", default="out", help="output directory (default: out)")
    p_size.set_defaults(func=cmd_size)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # _load_json names an input it cannot read, so this is an output
        path = args.out if exc.filename is None else exc.filename
        print(f"error: --out: {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SimulationDivergence as exc:
        print(f"error: simulation diverged: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
