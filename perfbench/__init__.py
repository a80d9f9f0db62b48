"""Benchmark of the broadcast pipeline; run it with ``python3 perfbench/run.py``."""
