"""Benchmark for the ``biorth`` library and CLI; run it with ``python3 perfbench/run.py``."""
