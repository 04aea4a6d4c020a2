"""The input files' schema machinery, shared by ``cli`` and ``scenario``.

A section of an input file is a field table built from a record
(``gasmodel.record``); ``resolve_rows`` checks a section's keys against the
rows and ``build`` calls the record with them, naming a broken field by its
path in the file.
"""

from __future__ import annotations

import math
import re

from .gasmodel import BOUNDS, FieldError


class ConfigError(ValueError):
    """Input-file validation failure; the message names the offending field."""


# Each section of the input schema is a table: (constructor, rows). A row is
# (JSON key, constructor keyword, check, default). field_table makes a row for
# each key the record declares (gasmodel.record), in field order: its check is
# the record's kind, else "bool", "str" or "num" (a finite number) by the
# field's type, and its default the record's; a table adds only where the file
# differs.
# A key ending in _slpm is bounded, and reaches the constructor, in std L/s.
# REQUIRED makes a key mandatory; a default None leaves an absent key out of
# the resolved section, for a rule in resolve_* to fill or for the
# constructor's own default.

REQUIRED = object()
_TYPE_CHECKS = {"bool": "bool", "str": "str"}  # by annotation; any other field is a number


def field_table(owner, *extra: tuple, defaults=None) -> tuple:
    """(constructor, rows) of owner, a record class or a default record: a row per key it
    declares, then the ``extra`` rows (key, check, default) of keys the constructor does not
    take. ``defaults`` replace the record's by key."""
    cls = owner if isinstance(owner, type) else type(owner)

    def row(kw: str, key: str) -> tuple:
        check = cls.KINDS.get(kw) or _TYPE_CHECKS.get(cls.__annotations__[kw], "num")
        return key, kw, check, (defaults or {}).get(key, getattr(owner, kw, REQUIRED))

    rows = [row(kw, key) for kw, key in cls.KEYS.items()]
    return cls, (*rows, *((key, None, check, default) for key, check, default in extra))


# check -> (accepted JSON types, what the error says was expected); any other check is a number
_EXPECTED = {
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
    "int": (int, "an integer"),
    **dict.fromkeys(("list", "nonempty"), (list, "a list")),
}
_NUMBER = ((int, float), "a number")


def check_value(value, where: str, check: str):
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


def require_obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return dict(value)


def reject_unknown(obj: dict, path: str) -> None:
    if obj:
        keys = ", ".join(sorted(obj))
        raise ConfigError(f"{path}: unknown key(s): {keys}")


def pop_required(obj: dict, path: str, key: str, check: str):
    """Pop and check a required key."""
    if key not in obj:
        raise ConfigError(f"{path}.{key}: required")
    return check_value(obj.pop(key), f"{path}.{key}", check)


def resolve_rows(obj: dict, path: str, table: tuple) -> dict:
    """Pop and check each row's key from obj; absent keys take the row's default."""
    out = {}
    for key, _kw, check, default in table[1]:
        if key in obj or default is REQUIRED:
            out[key] = pop_required(obj, path, key, check)
        elif default is not None:
            out[key] = default
    return out


def resolve_object(raw, path: str, table: tuple) -> dict:
    """Resolve an object that has no rule beyond its rows."""
    obj = require_obj(raw, path)
    out = resolve_rows(obj, path, table)
    reject_unknown(obj, path)
    return out


def build(table: tuple, section: dict, path: str = "", nested: dict | None = None, **extra):
    """Call the table's constructor with each resolved value under its row's keyword; a
    record's ``FieldError`` becomes a ConfigError at ``path``, each keyword named by its key.
    ``nested`` maps the keyword of a record in ``extra``, or of a record within one, to its
    (path, table), so that a field of it, such as ``controller.control_rate``, is named in its
    own section. A ``{keyword}`` in the text comes out as its key, and a field of a record
    within a record, such as ``{network.cv_sensor.range_max}``, as its path: a key of a
    network part alone would not say which part (both valves have ``R_vmin_kPa_s_per_L``)."""
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

        def named(m):  # {command.knots[1]}: the keyword's name, then its index
            name = paths.get(m[1], m[1])
            return (name if m[1].count(".") > 1 else name.rpartition(".")[2]) + m[2]

        text = re.sub(r"\{([\w.]+)([^}]*)\}", named, exc.text)
        raise ConfigError(f"{where or path}: {text}") from None


def check_schema_version(obj: dict, path: str) -> None:
    version = pop_required(obj, path, "schema_version", "int")
    if version != 1:
        raise ConfigError(f"{path}.schema_version: unsupported version {version}")


def resolve_valve(raw, path: str, table: tuple) -> dict:
    """The rows of a valve table (scenario.VALVE, cli.VALVE_OPTION), then R_vmin_kPa_s_per_L or
    flow_max_slpm rated at P_inlet_max_kPa."""
    obj = require_obj(raw, path)
    out = resolve_rows(obj, path, table)
    if "flow_max_slpm" in obj:
        if "R_vmin_kPa_s_per_L" in out:
            raise ConfigError(f"{path}: give R_vmin_kPa_s_per_L or flow_max_slpm, not both")
        r_vmin = out["P_inlet_max_kPa"] / (pop_required(obj, path, "flow_max_slpm", "pos") / 60.0)
        if not 0.0 < r_vmin < math.inf:
            size = "large" if r_vmin == 0.0 else "small"
            raise ConfigError(f"{path}.flow_max_slpm: too {size} for P_inlet_max_kPa")
        out["R_vmin_kPa_s_per_L"] = r_vmin
    elif "R_vmin_kPa_s_per_L" not in out:
        raise ConfigError(f"{path}: R_vmin_kPa_s_per_L or flow_max_slpm required")
    reject_unknown(obj, path)
    return out


def overflow_error(what: str, **docs) -> ConfigError:
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
