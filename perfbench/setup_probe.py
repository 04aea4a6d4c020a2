"""Import ``pneusim.cli`` and resolve a workload's inputs, then print the clock.

Usage: python3 perfbench/setup_probe.py scenario FILE
       python3 perfbench/setup_probe.py size REQUIREMENTS CATALOG

Prints ``time.process_time()`` once the inputs are resolved: the CPU seconds
of this process since the interpreter started.
"""

import sys
import time
from pathlib import Path

import pneusim.cli as cli


def main(argv: list[str]) -> None:
    if argv[0] == "size":
        cli.requirements_from_resolved(cli.resolve_requirements(cli._load_json(Path(argv[1]))))
        cli.catalog_from_resolved(cli.resolve_catalog(cli._load_json(Path(argv[2]))))
    else:
        cli.load_scenario(Path(argv[1]))
    print(repr(time.process_time()))


if __name__ == "__main__":
    main(sys.argv[1:])
