"""Repository benchmark for the CFCM library.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one named workload in its own process, checks every answer it samples
against an oracle, and prints one JSON result line.  See ``README.md`` in this
directory for the workloads, the metrics and what each layer metric should
move.
"""
