"""The repository benchmark: three workloads with an outside-in layer split.

Run it from the repository root with ``python3 perfbench/run.py`` (see
``run.py`` for the arguments and ``WORKLOADS.md`` for what each workload
measures and why).  The program under test is imported from ``src/``; no
program module is modified or monkeypatched -- every per-layer number comes
from wrappers around public seams (see ``probes.py``).
"""
