"""Contest-suite benchmark: end-to-end and per-layer metrics of the learner.

``python -m benchmarks.suite run`` measures workloads (each in a fresh
interpreter through ``benchmarks/suite/run.py``) and ``python -m
benchmarks.suite compare`` judges two sets of runs against the bounds in
``BENCHMARK.json``.  See ``README.md`` in this directory.
"""
