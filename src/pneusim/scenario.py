"""The scenario file's field tables, and its resolution into a ``Scenario``.

The run commands' half of the input schema: ``cli`` holds the requirements
and catalog tables, and ``schema`` the machinery of both. ``cli`` imports this
module on the first scenario load, not at its own import: its tables are
built from the records of ``sim``, ``control`` and ``components``, which
``pneusim size`` never runs.
"""

from __future__ import annotations

from .components import (
    VENTURI_Q_RATED_SLPM,
    PneumaticNetwork,
    ProportionalValveSpec,
    default_network,
)
from .control import ActuatorCommand, ControllerConfig
from .gasmodel import DEFAULT_GAS, VALVE_RATED_INLET_KPA
from .schema import (
    FLOW_RATING,
    ConfigError,
    build,
    check_schema_version,
    check_value,
    field_table,
    overflow_error,
    pop_required,
    reject_unknown,
    require_obj,
    resolve_object,
    resolve_rows,
    resolve_valve,
)
from .sim import PiecewiseCommand, Scenario, SineCommand, StepCommand, rates_overflow

_NET = default_network()

GAS = field_table(DEFAULT_GAS)
# R_vmin_kPa_s_per_L may instead be derived from flow_max_slpm (schema.resolve_valve)
VALVE = field_table(ProportionalValveSpec, ("P_inlet_max_kPa", "pos", VALVE_RATED_INLET_KPA),
                    defaults={"R_vmin_kPa_s_per_L": None})
NETWORK = {  # in PneumaticNetwork order
    "reservoir": field_table(_NET.reservoir),
    "control_volume": field_table(_NET.control_volume),
    "inflation_valve": VALVE,
    "motive_valve": VALVE,
    "solenoid": field_table(_NET.solenoid),
    "venturi": field_table(_NET.venturi,
                           defaults={"Q_motive_rated_slpm": VENTURI_Q_RATED_SLPM}),
    "cv_sensor": field_table(_NET.cv_sensor),
}
# the valve sections of the default network, resolved when a scenario omits one
DEFAULT_VALVES = {
    name: {"R_vmin_kPa_s_per_L": getattr(_NET, name).r_vmin}
    for name in ("inflation_valve", "motive_valve")
}
CONTROLLER = field_table(ControllerConfig)
COMMANDS = {
    "step": field_table(StepCommand),
    "sine": field_table(SineCommand, defaults={"offset_kPa": None}),  # default: amplitude_kPa
    "piecewise": field_table(PiecewiseCommand),  # each knot: _resolve_knots
}
RUN = field_table(Scenario, ("mode", "str", "closed_loop"))
OPEN_LOOP = field_table(ActuatorCommand)


def _resolve_knots(knots: list) -> list:
    """Each knot as [time_s, value_kPa] in numbers; PiecewiseCommand checks the rest."""
    parsed = []
    for i, knot in enumerate(knots):
        where = f"scenario.command.knots[{i}]"
        if not isinstance(knot, list) or len(knot) != 2:
            raise ConfigError(f"{where}: expected [time_s, value_kPa]")
        parsed.append([check_value(knot[0], where, "num"), check_value(knot[1], where, "num")])
    return parsed


def resolve(raw: dict) -> tuple[Scenario, dict]:
    """The Scenario of a document and the resolved document; each record is built once, as
    its section resolves, so its rules run where its values are read and name each field by
    its path."""
    top = require_obj(raw, "scenario")
    check_schema_version(top, "scenario")
    gas = resolve_object(top.pop("gas", {}), "scenario.gas", GAS)
    gc = build(GAS, gas, "scenario.gas")

    net_obj = require_obj(top.pop("network", {}), "scenario.network")
    network, parts, nested = {}, {}, {}  # nested: (path, table) of each record the run holds
    for name, table in NETWORK.items():
        path = f"scenario.network.{name}"
        nested[f"network.{name}"] = path, table
        if table is VALVE:
            network[name] = resolve_valve(net_obj.pop(name, DEFAULT_VALVES[name]), path, VALVE)
        else:
            network[name] = resolve_object(net_obj.pop(name, {}), path, table)
        parts[name] = build(table, network[name], path)
    reject_unknown(net_obj, "scenario.network")
    net = PneumaticNetwork(**parts)
    nested["controller"] = ctl = ("scenario.controller", CONTROLLER)
    controller = resolve_object(top.pop("controller", {}), *ctl)
    ctl_cfg = build(CONTROLLER, controller, ctl[0])

    if "command" not in top:
        raise ConfigError("scenario.command: required")
    cmd_obj = require_obj(top.pop("command"), "scenario.command")
    kind = pop_required(cmd_obj, "scenario.command", "kind", "str")
    if kind not in COMMANDS:
        raise ConfigError(f"scenario.command.kind: unknown kind {kind!r}")
    command = {"kind": kind, **resolve_rows(cmd_obj, "scenario.command", COMMANDS[kind])}
    reject_unknown(cmd_obj, "scenario.command")
    if kind == "sine":
        command.setdefault("offset_kPa", command["amplitude_kPa"])
    elif kind == "piecewise":
        command["knots"] = _resolve_knots(command["knots"])
    nested["command"] = "scenario.command", COMMANDS[kind]
    cmd = build(COMMANDS[kind], command, "scenario.command")

    run_path = "scenario.run"
    run_obj = require_obj(top.pop("run", {}), run_path)
    run = resolve_rows(run_obj, run_path, RUN)
    # Scenario.rule's bound, checked here too because the error names the most extreme
    # value's key, which the rule, blaming the network as a whole, cannot
    if rates_overflow(net, gc, run["hold_reservoir"], net.reservoir.p_r0,
                      net.control_volume.p_cv):
        raise overflow_error("a rate constant alpha / V times a conductance 1 / R, times a "
                             f"pressure {FLOW_RATING}", scenario={"gas": gas, "network": network})
    if run["mode"] not in ("closed_loop", "open_loop"):
        raise ConfigError(f"{run_path}.mode: expected 'closed_loop' or 'open_loop'")
    olc_path, olc = f"{run_path}.open_loop_command", None
    if run["mode"] == "open_loop":
        if "open_loop_command" not in run_obj:
            raise ConfigError(f"{olc_path}: required for open_loop mode")
        olc_raw = run_obj.pop("open_loop_command")
        run["open_loop_command"] = resolve_object(olc_raw, olc_path, OPEN_LOOP)
        olc = build(OPEN_LOOP, run["open_loop_command"], olc_path)
    elif "open_loop_command" in run_obj:
        raise ConfigError(f"{olc_path}: only valid with mode 'open_loop'")
    reject_unknown(run_obj, run_path)
    reject_unknown(top, "scenario")

    scn = build(
        RUN,
        run,
        run_path,
        nested,
        network=net,
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
