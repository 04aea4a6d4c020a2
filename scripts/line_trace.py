#!/usr/bin/env python3
"""The lines of ``src/pneusim`` that a pytest run never executes.

Usage: python scripts/line_trace.py [PYTEST_ARGS...]    (default: the whole suite, ``tests``)

Runs pytest in this process under a ``sys.settrace`` line tracer, installed
before ``pneusim`` is imported, so module-level lines count too. The
executable lines are the ``co_lines`` of every code object compiled from
``src/pneusim``. Prints each line that never ran with its text; a line listed
in ``ALLOWED`` is marked with its reason. Lines run by child processes are not
seen. Exits with pytest's code if a test fails, else 1 if an unrun line is not
in ``ALLOWED``, else 0. The whole suite takes about four times as long as it
does untraced.
"""

import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pneusim"

# (module, line text) -> why no test runs the line; each entry excuses one unrun line
ALLOWED = {
    ("cli", "from .sim import Scenario, TimeSeries"): "TYPE_CHECKING import, for annotations only",
    ("components", "import numpy as np"): "TYPE_CHECKING import, for annotations only",
    ("sim", "import numpy as np"): "TYPE_CHECKING import, for annotations only",
    ("cli", "entry()"): "the __main__ guard's body: only `python -m pneusim.cli`, a child, runs it",
}


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, or 0 at a module start
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code, and the lines run in each file of ``PACKAGE``."""
    ran: dict[str, set[int]] = {}
    files: dict[str, set[int] | None] = {}  # co_filename -> its set in ran, or None outside

    def lines_of(filename: str) -> set[int] | None:
        if filename not in files:
            path = Path(os.path.realpath(filename))
            files[filename] = ran.setdefault(str(path), set()) if path.parent == PACKAGE else None
        return files[filename]

    def on_call(frame, event, arg):
        seen = lines_of(frame.f_code.co_filename)
        if seen is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    import pytest  # before the tracer: only pneusim's lines are wanted

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    code, ran = traced_pytest(argv or [str(ROOT / "tests")])
    allowed = Counter(ALLOWED.keys())
    n_lines = n_unrun = n_unlisted = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        n_lines += len(lines)
        for lineno in sorted(lines - ran.get(str(path), set())):
            line = text[lineno - 1].strip()
            key = (path.stem, line)
            n_unrun += 1
            if allowed[key]:
                allowed[key] -= 1
                note = f"  [allowed: {ALLOWED[key]}]"
            else:
                n_unlisted += 1
                note = ""
            print(f"{path.relative_to(ROOT)}:{lineno}: {line}{note}")
    print(f"{n_unrun} of {n_lines} executable lines never ran; {n_unlisted} not allowed")
    if code:
        return code
    return 1 if n_unlisted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
