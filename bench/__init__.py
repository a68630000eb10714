"""The archive's gated benchmark: five named workloads over one fixed catalog.

``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` runs one
workload in this process and prints one JSON result line (the contract in
``BENCHMARK.json``); ``python3 -m bench --seed N [--trace]`` runs all five,
each in a fresh child process, and prints every metric by name.

See ``bench/README.md`` for the workloads, the metrics and how each is
measured.
"""
