"""Run one ``pneusim`` invocation in-process with spans around each layer's calls.

Usage: python3 perfbench/tracer.py OUT_PREFIX INVOCATION_ID -- PNEUSIM_ARGS...

Wrappers replace names where the caller looks them up: ``simulate`` reaches
``control_step``, ``sensor_read`` and the flow helpers as ``pneusim.sim``
globals; the command handlers reach ``simulate``, the resolvers and the
writers as ``pneusim.cli`` globals and the analyses as ``analysis.<fn>``;
``frequency_sweep`` reaches ``simulate`` as a ``pneusim.analysis`` global;
``sizing`` calls ``gm.<fn>``. Spans stay in memory until the invocation has
returned. Then OUT_PREFIX.npz receives every span (name id, start, end,
parent index, invocation id) and OUT_PREFIX.json the per-name call counts,
inclusive and self times, the counters and the in-process wall time.

Tracing roughly doubles the cost of ``simulate``, so no end-to-end figure
comes from here.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402

CLI_RESOLVE = (
    "load_scenario", "resolve_requirements", "resolve_catalog",
    "requirements_from_resolved", "catalog_from_resolved", "_load_json",
)
CLI_EMIT = ("_write_json", "_write_manifest", "_sha256_file", "_sha256_config", "asdict")
FLOW_FNS = ("proportional_valve_flow", "venturi_vacuum_pressure", "deflation_flow")
FIT_FNS = ("fit_rolloff_knee", "first_crossing_3db", "fit_discharge_tau")
GASMODEL_FNS = (
    "inflation_rate", "min_reservoir_pressure", "cutoff_frequency", "n_cycles", "max_command_rate",
)


class Tracer:
    """Spans as parallel columns: name id, start, end, parent index (-1 at the root)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, span_name: str, fn, after=None):
        """``fn`` inside a span named ``span_name``; ``after(result, args)`` updates counters."""
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def patch(self, owner, attr: str, span_name: str, after=None) -> None:
        setattr(owner, attr, self.wrap(span_name, getattr(owner, attr), after))

    def summary(self, wall_s: float) -> dict:
        """Calls, inclusive and self seconds per span name; self = span minus its child spans."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = total - np.bincount(name, weights=child, minlength=k)
        return {
            "wall_s": wall_s,
            "root_s": float(dur[~nested].sum()),
            "spans": {
                n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
                for i, n in enumerate(self.names)
            },
            "counts": dict(self.counts),
        }

    def save(self, path: str, invocation: int) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            invocation=np.full(len(self.start), invocation, dtype=np.uint8),
        )


def install(tr: Tracer) -> None:
    from pneusim import analysis, cli, gasmodel, sim, sizing

    counts = tr.counts

    def count_rows(_result, args):
        counts["cli.csv_rows"] += len(args[0])

    def count_steps(_result, args):
        counts["sim.steps"] += args[0].n_steps()

    def count_mode(result, _args):
        counts[f"control.mode_ticks.{result[1].mode.name}"] += 1

    def count_points(result, _args):
        counts["analysis.sweep_points"] += len(result)
        counts["analysis.failed_points"] += sum(p.error is not None for p in result)

    def count_designs(result, _args):
        counts["sizing.designs"] += len(result.entries)
        counts["sizing.feasible"] += len(result.feasible)

    for fn in CLI_RESOLVE:
        tr.patch(cli, fn, f"cli.resolve.{fn}")
    for fn in CLI_EMIT:
        tr.patch(cli, fn, f"cli.emit_json.{fn}")
    tr.patch(cli, "write_timeseries_csv", "cli.csv_write", count_rows)
    traced_simulate = tr.wrap("sim.simulate", sim.simulate, count_steps)
    cli.simulate = traced_simulate
    analysis.simulate = traced_simulate
    for cls in (sim.StepCommand, sim.SineCommand, sim.PiecewiseCommand):
        tr.patch(cls, "value", "sim.command.value")
        tr.patch(cls, "rate", "sim.command.rate")
    tr.patch(sim, "control_step", "control.control_step", count_mode)
    tr.patch(sim, "sensor_read", "components.sensor_read")
    for fn in FLOW_FNS:
        tr.patch(sim, fn, f"components.flow.{fn}")
    tr.patch(analysis, "frequency_sweep", "analysis.frequency_sweep", count_points)
    for fn in FIT_FNS:
        tr.patch(analysis, fn, f"analysis.fit.{fn}")
    tr.patch(cli, "enumerate_catalog", "sizing.enumerate_catalog", count_designs)
    # a namespace in place of the module, so only the calls sizing makes are traced
    gm = types.SimpleNamespace(**vars(gasmodel))
    for fn in GASMODEL_FNS:
        tr.patch(gm, fn, f"gasmodel.{fn}")
    sizing.gm = gm


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out_prefix, invocation, _, *cli_args = argv
    tr = Tracer()
    cli = tr.wrap("cli.import", __import__)("pneusim.cli", fromlist=["main"])
    install(tr)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(cli_args)
    wall_s = time.perf_counter() - T_START
    summary = tr.summary(wall_s)
    summary["returncode"] = rc
    tr.save(out_prefix + ".npz", int(invocation))
    with open(out_prefix + ".json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
