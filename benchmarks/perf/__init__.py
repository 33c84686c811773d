"""The repo's one performance benchmark.

Five workloads, end-to-end metrics with bounds, and a per-layer ledger
measured from outside the program (``src/`` is never edited: layers are
timed by wrapping their public entry points in a separate traced run).

    python3 -m benchmarks.perf run|trace|compare|list

``BENCHMARK.json`` at the repo root declares the driver-facing entry,
``python3 -m benchmarks.perf bench --workload W --seed N --seconds S
--trace 0|1``.  See ``README.md`` in this directory.
"""

from pathlib import Path

#: the checkout this package sits in (``benchmarks/perf`` -> root)
ROOT = Path(__file__).resolve().parents[2]
#: the program under test; children get it on ``PYTHONPATH``
SRC = ROOT / "src"
#: the one place in the checkout a run writes to (artifacts, caches,
#: trace files); listed in ``.gitignore``
SCRATCH = ROOT / ".perf_scratch"
