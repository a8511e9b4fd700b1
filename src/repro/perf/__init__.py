"""Performance engine: C hot-path kernels and parallel experiment fan-out.

* :mod:`repro.perf.native` — optional C kernels for the simulator's
  innermost loops, compiled on demand with a pure-Python fallback: one
  read phase, one placement engine and one batch loop over one context.
* :mod:`repro.perf.engine` — supervised warm-pool fan-out over
  independent (scheme, workload, seed) simulation points
  (:class:`~repro.perf.engine.SimPoint`), with a cross-run artifact cache.
* :mod:`repro.perf.bench` — the ``python -m repro bench`` suite, emitting
  machine-readable ``BENCH_*.json`` snapshots for regression tracking.
"""

from .native import available as native_available  # noqa: F401
