#!/usr/bin/env python3
"""The repository benchmark's one command.

Run from the repository root::

    python3 perfbench/run.py --workload impute-mined --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/WORKLOADS.md``):

* ``impute-mined``    closed offline imputation batch, n-gram LM, 428-rule pack
* ``synth-tinygpt``   closed offline synthesis batch, TinyGPT, 65-rule pack
* ``serve-pool-http`` open-loop Poisson POST /v1/synthesize through HTTP and
                      a one-worker pool

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split measured by wrappers around the program's public seams.  Diagnostics
go to stderr; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the same checkout; without it the command exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("impute-mined", "synth-tinygpt", "serve-pool-http")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import run_workload

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
