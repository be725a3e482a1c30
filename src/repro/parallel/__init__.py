"""Multi-core execution layer.

Three independent levels of the pipeline parallelize without changing a
single result bit:

* :mod:`repro.parallel.explore` — shards one execution tree's
  pending-path queue across worker processes (Algorithm 1),
* :mod:`repro.parallel.kernel` — a shared thread pool for chunk-sliced
  kernels such as Algorithm 2's gather/X-assign/price chunks,
* :mod:`repro.parallel.islands` — island-model scheduling for the GA
  stressmark (N populations across processes, deterministic migration).

:mod:`repro.parallel.pool` holds the shared knob resolution
(``workers=`` / ``REPRO_WORKERS``) and the oversubscription composition
used when benchmark-level fan-out and path-level sharding are both on.
"""

from repro.parallel.pool import (
    DEFAULT_WORKERS,
    fork_available,
    inner_workers,
    resolve_workers,
)

__all__ = [
    "DEFAULT_WORKERS",
    "fork_available",
    "inner_workers",
    "resolve_workers",
]
