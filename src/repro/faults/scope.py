"""Empty: fault plans reach a session only as ``SimSession(faults=...)``.

The module is kept because ``perfbench/workloads.py`` lists
``repro.faults.scope`` in ``LAZY_MODULES`` and imports it by name; it
can go with the next change to the benchmark.
"""
