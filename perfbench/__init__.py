"""The repository benchmark: three workloads run through public entry points.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see :mod:`perfbench.run` and
``BENCHMARK.json`` at the repository root.
"""
