"""Performance engine: C hot-path kernels and parallel experiment fan-out.

* :mod:`repro.perf.native` — optional C kernels for the simulator's
  innermost loops, compiled on demand with a pure-Python fallback: one
  call per path access and one batch loop, sharing one per-path function
  over one kernel state.
* :mod:`repro.perf.engine` — supervised warm-pool fan-out over
  independent simulation points (:class:`~repro.api.RunSpec` through
  :func:`~repro.api.run_many`), with a per-process artifact cache.

Throughput is measured by the benchmark under ``perfbench/``, not here.
"""

from .native import available as native_available  # noqa: F401
