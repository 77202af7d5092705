"""End-to-end benchmark of the reproduction: figures, model sweeps and
verification/fault campaigns, timed from outside the program.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
is the entry point; see ``perfbench/README.md``.
"""
