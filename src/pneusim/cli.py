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
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .gasmodel import VALVE_RATED_INLET_KPA, FieldError, SimulationDivergence
from .schema import (
    FLOW_RATING,
    ConfigError,
    build,
    check_schema_version,
    check_value,
    field_table,
    overflow_error,
    reject_unknown,
    require_obj,
    resolve_object,
    resolve_rows,
    resolve_valve,
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

if TYPE_CHECKING:  # for annotations only: `pneusim size` never loads the simulator
    from .sim import Scenario, TimeSeries

CSV_HEADER = "t_s,P_cmd_kPa,P_cv_kPa,P_r_kPa,u_evp,u_dvp,solenoid,Q_in_slps,Q_out_slps,Q_motive_slps,mode"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SIMULATION = 3
EXIT_NO_FEASIBLE = 4


# ------------------------------------------------------------- field tables
#
# The requirements and catalog tables (see ``schema``). The scenario file's tables are in
# ``scenario``, which imports the simulator.

REQUIREMENTS = field_table(DesignRequirements)
VALVE_OPTION = field_table(  # no deadband: sizing rates a valve by its full conductance
    ValveOption, defaults={"P_inlet_max_kPa": VALVE_RATED_INLET_KPA, "R_vmin_kPa_s_per_L": None}
)
RESERVOIR_OPTION = field_table(ReservoirOption)
VENTURI_OPTION = field_table(VenturiOption)


# ------------------------------------------------------------ scenario schema
#
# ``scenario`` and ``sim`` are imported on first use: they load ``control`` and
# ``components``, which ``size`` never runs.


def simulate(scn: Scenario) -> TimeSeries:
    """``sim.simulate``, which the run commands call by this name (``perfbench/tracer.py``
    replaces it here)."""
    from . import sim

    return sim.simulate(scn)


def resolve_scenario(raw: dict) -> dict:
    """Validate a scenario document and materialize every default.

    Resolution is idempotent: resolving the resolved document returns it
    unchanged, which is what makes manifests round-trip exactly.
    """
    from .scenario import resolve

    return resolve(raw)[1]


def load_scenario(path: Path, overrides: dict | None = None) -> tuple[Scenario, dict]:
    """Scenario and resolved document; overrides replace keys of the run section."""
    raw = _load_json(path)
    if overrides and isinstance(raw, dict) and isinstance(raw.get("run", {}), dict):
        raw = {**raw, "run": {**raw.get("run", {}), **overrides}}
    from .scenario import resolve

    return resolve(raw)


def __getattr__(name: str):
    """``asdict`` on first access, so that no command loads ``dataclasses``
    (``perfbench/tracer.py`` replaces it here by name; nothing here calls it)."""
    if name == "asdict":
        from dataclasses import asdict

        return asdict
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ------------------------------------------------------- requirements/catalog


def resolve_requirements(raw: dict) -> dict:
    obj = require_obj(raw, "requirements")
    check_schema_version(obj, "requirements")
    out = {"schema_version": 1, **resolve_rows(obj, "requirements", REQUIREMENTS)}
    reject_unknown(obj, "requirements")
    build(REQUIREMENTS, out, "requirements")  # the rules between its fields
    return out


def requirements_from_resolved(resolved: dict) -> DesignRequirements:
    return build(REQUIREMENTS, resolved)


# catalog list -> the field table of one entry; ComponentCatalog declares which must be non-empty
CATALOG = {"valves": VALVE_OPTION, "reservoirs": RESERVOIR_OPTION, "venturis": VENTURI_OPTION}


def resolve_catalog(raw: dict) -> dict:
    obj = require_obj(raw, "catalog")
    check_schema_version(obj, "catalog")
    out = {"schema_version": 1}
    for key, table in CATALOG.items():
        kind = ComponentCatalog.KINDS.get(key, "list")
        items = check_value(obj.pop(key, []), f"catalog.{key}", kind)
        resolve = resolve_valve if table is VALVE_OPTION else resolve_object
        out[key] = [resolve(item, f"catalog.{key}[{i}]", table) for i, item in enumerate(items)]
    reject_unknown(obj, "catalog")
    return out


def catalog_from_resolved(resolved: dict) -> ComponentCatalog:
    return ComponentCatalog(**{
        key: tuple(build(table, entry) for entry in resolved[key]) for key, table in CATALOG.items()
    })


def check_valve_ratings(req: DesignRequirements, catalog: ComponentCatalog) -> None:
    """``gasmodel.inflation_rate``'s bound, r_vmin * v_cv > 0, as a ``ConfigError`` that names
    the first valve's file key it fails for."""
    for i, valve in enumerate(catalog.valves):
        if not valve.r_vmin * req.v_cv > 0.0:
            raise ConfigError(
                f"catalog.valves[{i}].R_vmin_kPa_s_per_L: too small for requirements.V_cv_L "
                "(a flow rating gives P_inlet_max_kPa / (flow_max_slpm / 60))"
            )


# ------------------------------------------------------------- files and hash


def _load_json(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}")

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):  # json.loads alone keeps a repeated key's last value
            key = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
            raise ConfigError(f"{path}: duplicate key {key!r}")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sha256_config(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


_FLOAT = "%.9g"  # every float a CSV holds, to 9 significant digits
# the fields of one time-series row: the solenoid as 0/1 and the mode by name; every other a _FLOAT
_CSV_FIELDS = (_FLOAT,) * 6 + ("%d",) + (_FLOAT,) * 3 + ("%s",)
_CSV_BLOCK_ROWS = 512  # rows formatted and written at a time; larger blocks raise peak memory


def write_timeseries_csv(ts: TimeSeries, path: Path) -> None:
    """Fixed-header CSV, 9 significant digits, LF line endings.

    A column whose values are bit for bit the same over a block of rows is
    formatted once, into that block's row template; the others row by row.
    """
    from .control import Mode
    from .sim import TimeSeries

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
                    fields.append(text)
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

    from .control import Mode
    from .sim import TimeSeries

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

    ``input_sha256`` maps "catalog" and "requirements" to their digests. Each
    distinct number, name and ``limiting`` tuple is laid out once a call.
    """
    nums: dict = {}  # never holds a zero: 0.0 == -0.0, and they print differently
    names: dict = {}
    lists: dict = {}

    def num(x: float) -> str:
        text = _json_float(x)
        if x:
            nums[x] = text
        return text

    def enc(name: str) -> str:
        names[name] = text = encode_basestring_ascii(name)
        return text

    def limits(limiting: tuple) -> str:
        lists[limiting] = text = _json_list([enc(reason) for reason in limiting], "      ")
        return text

    get_num, get_name = nums.get, names.get

    def entry(e) -> str:
        valve, reservoir, p_r0, derated, pdot, min_p_r, full, floor, cycles, mass, ok, limiting = e
        return _ENTRY % (
            get_num(floor) or num(floor),
            get_num(full) or num(full),
            "true" if ok else "false",
            lists.get(limiting) or limits(limiting),
            get_num(min_p_r) or num(min_p_r),
            get_num(cycles) or num(cycles),
            get_num(p_r0) or num(p_r0),
            get_num(pdot) or num(pdot),
            "true" if derated else "false",
            get_name(reservoir) or enc(reservoir),
            get_num(mass) or num(mass),
            get_name(valve) or enc(valve),
        )

    return _REPORT % (
        _json_list([entry(e) for e in report.feasible], "  "),
        _json_list([entry(e) for e in report.infeasible], "  "),
        encode_basestring_ascii(input_sha256["catalog"]),
        encode_basestring_ascii(input_sha256["requirements"]),
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


# the field of a frequency_sweep precondition's FieldError -> the sweep input it names
_SWEEP_INPUTS = {"command": "scenario.command.kind", "open_loop_command": "scenario.run.mode",
                 "command.amplitude_kpa": "scenario.command.amplitude_kPa",
                 "omegas": "--omegas", "n_repeat": "--repeats"}


def cmd_sweep(args) -> int:
    if args.duration is not None:
        raise ConfigError("--duration: sweep sets each point's duration from its frequency")
    run = _Run(args)
    # analysis imports numpy. It comes after the scenario, which compiles sim: compiled
    # after numpy, sim raised the peak RSS of sweep and discharge by 1.1 to 1.8 MiB
    from . import analysis

    try:
        omegas = [float(w) for w in args.omegas.split(",") if w.strip()]
    except ValueError:
        raise ConfigError("--omegas: expected comma-separated numbers")
    try:
        points = analysis.frequency_sweep(run.scn, omegas, n_repeat=args.repeats)
    except FieldError as exc:  # a precondition of the sweep, raised before any point runs
        raise ConfigError(f"{_SWEEP_INPUTS[exc.field]}: {exc.text}") from None
    ok = [p for p in points if p.error is None]

    lines = ["omega_Hz,gain,n_periods,error"]
    for p in sorted(points, key=lambda p: p.omega):
        err = (p.error or "").replace(",", ";")
        lines.append(f"{_FLOAT % p.omega},{_FLOAT % p.gain},{p.n_periods},{err}")
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
    run = _Run(args)
    from . import analysis  # see cmd_sweep

    if run.scn.closed_loop:
        raise ConfigError("scenario.run.mode: discharge needs an open_loop scenario")
    csv_path = run.output("timeseries.csv")
    ts = simulate(run.scn)
    write_timeseries_csv(ts, csv_path)
    t, p_r = ts.t, ts.p_r
    del ts  # the fit reads 2 of the trace's 11 columns; the other 9 are freed before it runs

    report: dict = {"schema_version": 1, "input_sha256": _sha256_file(run.path)}
    try:
        fit = analysis.fit_discharge_tau(t, p_r)
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
    check_valve_ratings(req, catalog)
    report = enumerate_catalog(req, catalog)
    # the report is strict JSON, which has no Infinity (and none of these can be NaN)
    if not all(max(e.pdot_demand, e.min_p_r, e.cutoff_hz_floor, e.cutoff_hz_full, e.n_cycles,
                   e.total_mass_g) < math.inf for e in report.entries):
        raise overflow_error(f"a number of the design report {FLOW_RATING}",
                             requirements=req_resolved, catalog=cat_resolved)

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
