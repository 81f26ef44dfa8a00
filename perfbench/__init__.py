"""Benchmark for lpkit; run it with ``python3 perfbench/run.py``."""
