"""The repository's benchmark (see ``bench/README.md`` and ``BENCHMARK.json``).

Four workloads, six end-to-end metrics measured with tracing off, and a
separate traced run that reports per-layer metrics.  Everything is measured
from outside ``src/``: this package only calls the program's public entry
points and, in the traced run, wraps them at run time.

``benchmarks/`` (the paper-figure suite) is a different thing and is not
part of this benchmark.
"""
