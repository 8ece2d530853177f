"""The repository's benchmark: three workloads of the paper's queries and
transactions, end-to-end metrics, and a traced run for per-layer metrics.

Entry point: ``python3 perfbench/run.py --help``.
"""
