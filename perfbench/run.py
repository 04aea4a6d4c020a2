"""Closed-loop benchmark of the ``pneusim`` command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One benchmark process runs one ``pneusim`` subprocess at a time; each starts after
the previous one exits, on one CPU shared with a pacer loop that measures
that CPU's speed meanwhile. The seed generates the workload's input files;
invocations repeat for S seconds, and the first correct one is kept as the
reference output. Every invocation's exit code and files are checked, and
its output digest must equal the reference.

--trace 0 prints the end-to-end metrics of the untraced invocations, with
setup probes (perfbench/setup_probe.py) spread over the same S seconds.
Times are in reference-host seconds; see Pacer.
--trace 1 runs the same untraced loop (for the tracing overhead), then two
traced invocations in fresh interpreters (perfbench/tracer.py), and prints
the per-layer metrics. The two traced invocations must repeat every count
exactly and write the reference output.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Full results, the environment and the spans go to .perfbench-out/.
The exit code is 0 only when every check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 10
MIN_TIMED = 3
TRACED_RUNS = 2
CHILD_TIMEOUT_S = 60.0
MODES = ("IDLE", "PID", "ON_OFF_INFLATE", "VENT", "ACTIVE_DEFLATE")
# A pure-Python loop shaped like pneusim's integrator: attribute reads, calls,
# float math and tuple returns. It shares each child's CPU and counts its own
# iterations per CPU second, which tracks that CPU's speed; see Pacer.
PACER = r"""
import math, os, signal, sys, time

os.nice(10)  # about a tenth of the CPU beside a child at nice 0
parent = os.getppid()


class State:
    __slots__ = ("p", "q")

    def __init__(self):
        self.p, self.q = 1.0, 0.5


def deriv(s, h):
    return -0.5 * s.p + math.sqrt(s.q + 1.0), s.p - s.q * h


n = 0


def report(*_):
    sys.stdout.write(f"{n} {time.process_time()!r}\n")
    sys.stdout.flush()


signal.signal(signal.SIGUSR1, report)
print("ready", flush=True)
s = State()
while n % 100_000 or os.getppid() == parent:  # ends if the benchmark is killed
    for _ in range(200):
        dp, dq = deriv(s, 1e-3)
        s.p, s.q = (s.p + 1e-3 * dp) % 10.0, (s.q + 1e-3 * dq) % 10.0
    n += 200
"""
PACER_REF_RATE = 1.4e6  # iterations per CPU second, about its median on the reference host


@dataclass
class Invocation:
    wall_s: float  # spawn to reaped, from this process
    cpu_s: float  # child user + system
    peak_rss_mib: float
    returncode: int
    pacer_cpu_s: float  # CPU the pacer took from the child's CPU meanwhile
    speed: float  # the pacer's rate meanwhile ÷ PACER_REF_RATE

    @property
    def wall_ref_s(self) -> float:
        """Wall time with the CPU to itself, in reference-host seconds."""
        return (self.wall_s - self.pacer_cpu_s) * self.speed

    @property
    def cpu_ref_s(self) -> float:
        return self.cpu_s * self.speed


def child_env() -> dict[str, str]:
    """The environment of every child: pneusim from ``src/``, one BLAS thread.

    pneusim is single-threaded, and its one BLAS call (the discharge fit's
    2-column least squares) gains nothing from threads. numpy's default BLAS
    pool costs about 70 ms of every import on a 2-vCPU host, and how much
    depends on how busy the other vCPU is: it moved ``setup_s`` of the same
    code by up to 40 % between two sets of runs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


@contextlib.contextmanager
def pinned(cpu: int):
    """Children started inside run on the given CPU only."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class Pacer:
    """``PACER`` in a process of its own, sharing the CPU of each child.

    A shared vCPU's speed changes by up to 2x within a second, and the two
    vCPUs change independently, so no loop timed before a child, or on
    another CPU, tells the speed that child saw. The pacer runs on the
    child's CPU throughout the child's life, at nice 10, so it takes about a
    tenth of that CPU. The scheduler interleaves the two in slices of
    milliseconds, so both see the same speed, and the pacer's iterations per
    CPU second over the child's life give it. A child's wall time less the
    pacer's CPU time meanwhile is the wall time it would have taken with the
    CPU to itself.
    """

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen([sys.executable, "-c", PACER], env=env,
                                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        try:
            if self.proc.stdout.readline() != "ready\n":
                raise RuntimeError("the pacer did not start")
        except BaseException:
            self.close()
            raise

    def move(self, cpu: int) -> None:
        os.sched_setaffinity(self.proc.pid, {cpu})

    def read(self) -> tuple[int, float]:
        """Iterations done so far and the pacer's CPU seconds so far."""
        os.kill(self.proc.pid, signal.SIGUSR1)
        n, cpu = self.proc.stdout.readline().split()
        return int(n), float(cpu)

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def spawn(argv: list[str], env: dict[str, str], pacer: Pacer, cpu: int, stderr_path: Path,
          stdout_path: Path | None = None) -> Invocation:
    """Run ``argv`` on ``cpu``, beside the pacer, and take its times and resource usage."""
    with contextlib.ExitStack() as files:
        err = files.enter_context(open(stderr_path, "wb"))
        out = (files.enter_context(open(stdout_path, "wb")) if stdout_path
               else subprocess.DEVNULL)
        pacer.move(cpu)
        n0, c0 = pacer.read()
        start = time.perf_counter()
        with pinned(cpu):
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        n1, c1 = pacer.read()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        pacer_cpu_s=c1 - c0,
        speed=(n1 - n0) / (c1 - c0) / PACER_REF_RATE,
    )


class Loop:
    """Invocations of one workload, their checks and the reference output."""

    def __init__(self, wl: workloads.Workload, env: dict[str, str], work: Path, pacer: Pacer):
        self.wl, self.env, self.work, self.pacer = wl, env, work, pacer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: str | None = None
        self.reference_dir: Path | None = None
        self.setup: list[float] = []  # reference-host seconds
        self.cpus = sorted(os.sched_getaffinity(0))
        self.children = 0

    def spawn(self, argv: list[str], stderr_path: Path, stdout_path: Path | None = None
              ) -> Invocation:
        """``spawn`` on the next CPU in turn."""
        cpu = self.cpus[self.children % len(self.cpus)]
        self.children += 1
        return spawn(argv, self.env, self.pacer, cpu, stderr_path, stdout_path)

    def check(self, label: str, inv: Invocation, out_dir: Path, err_path: Path) -> bool:
        """Count one operation; keep the first correct output as the reference."""
        self.attempted += 1
        if inv.returncode != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:]
            problems = [f"exit code {inv.returncode}: {tail.strip()}"]
        else:
            problems = workloads.check_outputs(self.wl, out_dir)
        if not problems:
            got = workloads.digest(self.wl, out_dir)
            if self.reference is None:
                self.reference, self.reference_dir = got, out_dir
            elif got != self.reference:
                problems = [f"output digest {got[:12]} differs from reference {self.reference[:12]}"]
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems

    def invoke(self, label: str) -> Invocation:
        out_dir = self.work / label
        err_path = self.work / f"{label}.stderr"
        argv = [sys.executable, "-m", "pneusim.cli", *self.wl.cli_args(out_dir)]
        inv = self.spawn(argv, err_path)
        self.check(label, inv, out_dir, err_path)
        if out_dir != self.reference_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
        return inv

    def probe_setup(self) -> float | None:
        """Reference-host CPU seconds from interpreter start to inputs resolved."""
        if self.wl.name == "size_catalog":
            args = ["size", str(self.wl.inputs["requirements"]), str(self.wl.inputs["catalog"])]
        else:
            args = ["scenario", str(self.wl.inputs["scenario"])]
        argv = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), *args]
        out_path, err_path = self.work / "probe.stdout", self.work / "probe.stderr"
        inv = self.spawn(argv, err_path, out_path)
        if inv.returncode != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:]
            self.problems.append(f"setup probe: exit code {inv.returncode}: {tail.strip()}")
            return None
        return float(out_path.read_text(encoding="utf-8")) * inv.speed

    def run(self, seconds: float, probes: int) -> list[Invocation]:
        """Timed invocations until ``seconds`` have passed, after an untimed setup probe.

        The first correct invocation is the reference output. The warm-up
        probe imports pneusim once, so the first timed child finds its
        bytecode compiled and cached. ``probes`` setup probes are spread
        evenly over the timed window.
        """
        self.probe_setup()
        timed: list[Invocation] = []
        start = time.perf_counter()
        due = [start + k * seconds / probes for k in range(probes)]
        while len(timed) < MIN_TIMED or time.perf_counter() < start + seconds:
            while due and time.perf_counter() >= due[0]:
                due.pop(0)
                self.setup.append(self.probe_setup())
            timed.append(self.invoke(f"inv{len(timed)}"))
        for _ in due:
            self.setup.append(self.probe_setup())
        self.setup = [s for s in self.setup if s is not None]
        return timed

    def oracle(self) -> float | None:
        """Relative error of the headline prediction; a miss fails every invocation."""
        if self.reference_dir is None:
            return None
        result = workloads.oracle(self.wl, self.reference_dir)
        if result is None:
            return None
        err, tol = result
        if not err <= tol:
            self.failed = self.attempted
            self.problems.append(f"oracle_rel_err {err:.4g} exceeds the gate tolerance {tol}")
        return err


def layer_figures(summary: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer figures of one traced invocation and the counts it must repeat exactly."""
    spans, counters = summary["spans"], summary["counts"]

    def calls(prefix: str) -> int:
        return sum(v["calls"] for k, v in spans.items() if k.startswith(prefix))

    def seconds(prefix: str) -> float:
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix))

    counts = {f"calls.{k}": v["calls"] for k, v in spans.items()}
    counts.update(counters)
    steps = counters.get("sim.steps", 0)
    designs = counters.get("sizing.designs", 0)
    simulate_s = spans.get("sim.simulate", {}).get("total_s", 0.0)
    figures = {
        "cli.import_s": seconds("cli.import"),
        "cli.resolve_s": seconds("cli.resolve."),
        "cli.csv_rows": counters.get("cli.csv_rows", 0),
        "cli.csv_write_s": seconds("cli.csv_write"),
        "cli.emit_json_s": seconds("cli.emit_json."),
        "sim.simulate_calls": calls("sim.simulate"),
        "sim.steps": steps,
        "sim.self_s": seconds("sim.simulate"),
        "sim.us_per_step": simulate_s / steps * 1e6 if steps else 0.0,
        # deflation_flow runs once per evaluation of the network's flows
        "sim.flow_evals_per_step": calls("components.flow.deflation_flow") / steps if steps else 0.0,
        "sim.command_evals": calls("sim.command."),
        "sim.command_s": seconds("sim.command."),
        "components.flow_calls": calls("components.flow."),
        "components.flow_s": seconds("components.flow."),
        "components.sensor_reads": calls("components.sensor_read"),
        "components.sensor_s": seconds("components.sensor_read"),
        "control.ticks": calls("control.control_step"),
        "control.self_s": seconds("control.control_step"),
        **{f"control.mode_ticks.{m}": counters.get(f"control.mode_ticks.{m}", 0) for m in MODES},
        "analysis.sweep_points": counters.get("analysis.sweep_points", 0),
        "analysis.failed_points": counters.get("analysis.failed_points", 0),
        "analysis.self_s": seconds("analysis.frequency_sweep"),
        "analysis.fit_s": seconds("analysis.fit."),
        "sizing.designs": designs,
        "sizing.feasible_ratio": counters.get("sizing.feasible", 0) / designs if designs else 0.0,
        "sizing.self_s": seconds("sizing.enumerate_catalog"),
        "gasmodel.calls": calls("gasmodel."),
        "gasmodel.s": seconds("gasmodel."),
        "trace.coverage": summary["root_s"] / summary["wall_s"],
    }
    return figures, counts


def git_sha() -> str:
    """HEAD of the checkout itself, never of a repository around it."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "pneusim").glob("*.py")):
        src_digest.update(path.name.encode() + path.read_bytes())
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def untraced_figures(loop: Loop, timed: list[Invocation]) -> dict[str, float]:
    return {
        "wall_ref_s": statistics.median(i.wall_ref_s for i in timed),
        "setup_s": statistics.median(loop.setup),
        "cpu_ref_s": statistics.median(i.cpu_ref_s for i in timed),
        "peak_rss_mib": statistics.median(i.peak_rss_mib for i in timed),
        "cpu_s": statistics.median(i.cpu_s for i in timed),
        "speed": statistics.median(i.speed for i in timed),
    }


def traced_figures(loop: Loop, timed: list[Invocation]) -> tuple[dict[str, float], list[dict]]:
    """Median per-layer figures of the traced invocations, and their summaries."""
    runs, summaries = [], []
    spans_dir = OUT / "spans"
    spans_dir.mkdir(exist_ok=True)
    for i in range(TRACED_RUNS):
        label = f"traced{i}"
        out_dir = loop.work / label
        err_path = loop.work / f"{label}.stderr"
        prefix = spans_dir / f"{loop.wl.name}-inv{i}"
        argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(prefix), str(i),
                "--", *loop.wl.cli_args(out_dir)]
        inv = loop.spawn(argv, err_path)
        if loop.check(label, inv, out_dir, err_path):
            summary = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
            summaries.append(summary)
            runs.append((inv, *layer_figures(summary)))
        shutil.rmtree(out_dir, ignore_errors=True)
    if len(runs) < TRACED_RUNS:
        return {}, summaries
    counts = [r[2] for r in runs]
    differ = sorted(k for k in set().union(*counts) if len({c.get(k) for c in counts}) > 1)
    if differ:
        loop.problems.append(f"traced counts differ between runs: {differ}")
    # counts repeat exactly (checked above); times are the median of the runs
    figures = {key: value if isinstance(value, int) else statistics.median(r[1][key] for r in runs)
               for key, value in runs[0][1].items()}
    figures["trace.overhead_s"] = (statistics.median(r[0].wall_ref_s for r in runs)
                                   - statistics.median(i.wall_ref_s for i in timed))
    return figures, summaries


def report(args, wl: workloads.Workload, loop: Loop, timed: list[Invocation],
           oracle_err: float | None, metrics: dict[str, dict], figures: dict[str, float]) -> None:
    """Every metric by name and unit, ahead of the JSON line.

    cpu_s, speed, sim_s_per_s, designs_per_s, failed_frac and oracle_rel_err
    are printed here only: the first follows the host's speed, the second is
    the host's, and each of the others is undefined or always 0 on some
    workload, which the end-to-end metrics of BENCHMARK.json may not be.
    """
    wall = statistics.median(i.wall_ref_s for i in timed)
    units = {"speed": "ratio"}
    extra = {
        **{k: (v, units.get(k, "s")) for k, v in figures.items() if k not in metrics},
        "invocations_timed": (len(timed), "count"),
        "setup_probes": (len(loop.setup), "count"),
        "wall_ref_s_min": (min(i.wall_ref_s for i in timed), "s"),
        "wall_ref_s_max": (max(i.wall_ref_s for i in timed), "s"),
        "sim_s_per_s": (wl.sim_seconds / wall if wl.sim_seconds else None, "sim_s/s"),
        "designs_per_s": (wl.designs / wall if wl.designs else None, "1/s"),
        "failed_frac": (loop.failed / max(loop.attempted, 1), "ratio"),
        "oracle_rel_err": (oracle_err, "ratio"),
    }
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key, m in metrics.items():
        print(f"{key:34s} {m['value']:>14.6g} {m['unit']}")
    for key, (value, unit) in extra.items():
        print(f"{key:34s} {'n/a' if value is None else format(value, '.6g'):>14s} {unit}")
    for problem in loop.problems:
        print(f"# FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pneusim" / "cli.py").is_file():
        print(f"error: no pneusim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env_info = environment()
    print("# env " + json.dumps(env_info, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    env = child_env()
    summaries: list[dict] = []
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp, \
            contextlib.closing(Pacer(env)) as pacer:
        work = Path(tmp)
        wl = workloads.build(args.workload, args.seed, work / "inputs")
        loop = Loop(wl, env, work, pacer)
        timed = loop.run(args.seconds, 0 if args.trace else SETUP_PROBES)
        oracle_err = loop.oracle()
        if args.trace:
            figures, summaries = traced_figures(loop, timed)
        else:
            figures = untraced_figures(loop, timed) if loop.setup else {}

    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        loop.problems.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in figures}
    correct = loop.failed == 0 and not loop.problems
    report(args, wl, loop, timed, oracle_err, metrics, figures)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps({
        "args": vars(args), "env": env_info, "correct": correct, "metrics": metrics,
        "oracle_rel_err": oracle_err, "attempted": loop.attempted, "failed": loop.failed,
        "problems": loop.problems, "figures": figures, "setup_s": loop.setup,
        "invocations": [asdict(i) for i in timed],
        "traced": summaries,
    }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
