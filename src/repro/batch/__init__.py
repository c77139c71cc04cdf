"""Batched parallel benchmark execution (the scale-out engine).

High-volume workloads — instruction characterization (Section V),
cache-policy surveys (Section VI) — issue thousands of tiny
``NanoBench.run`` calls.  This package turns those call sites into
data: a list of :class:`BenchmarkSpec` handed to a
:class:`BatchRunner`, which shards them over a ``multiprocessing``
pool, memoizes assembly/codegen per worker, and streams bit-identical
(to serial execution) results back in order.
"""

from .pool import ItemOutcome, ResilientPool
from .runner import (
    BatchReport,
    BatchRunner,
    default_jobs,
    parallel_map,
    run_batch,
)
from .spec import (
    BatchResult,
    BenchmarkSpec,
    result_from_record,
    result_record,
    spec_digest,
    spec_from_run_kwargs,
)

__all__ = [
    "BatchReport",
    "BatchResult",
    "BatchRunner",
    "BenchmarkSpec",
    "ItemOutcome",
    "ResilientPool",
    "default_jobs",
    "parallel_map",
    "result_from_record",
    "result_record",
    "run_batch",
    "spec_digest",
    "spec_from_run_kwargs",
]
