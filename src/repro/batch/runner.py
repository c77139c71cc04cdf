"""The batched benchmark-execution engine.

:class:`BatchRunner` shards a list of :class:`BenchmarkSpec` across a
worker pool and streams ordered results back.  The design follows the
scale lessons of the uops.info corpus workflow: at thousands of
microbenchmarks the bottleneck is harness orchestration, not the
individual measurement, so the engine

* runs each spec on a fresh, deterministically-seeded simulated core
  (results are bit-identical to serial execution, regardless of the
  worker count or sharding — see :mod:`repro.batch.spec`);
* amortizes assembly and code generation through the per-process LRU
  caches of :mod:`repro.core.codecache` (workers inherit empty caches
  and warm them up as their shard streams through);
* is **self-healing**: worker deaths and per-spec timeouts requeue the
  affected spec on another worker (:mod:`repro.batch.pool`), transient
  failures are retried, hard failures are captured per spec instead of
  aborting the sweep, and an optional durable **result store**
  (:mod:`repro.store`) lets an interrupted sweep resume without
  re-running completed specs — byte-identical to an uninterrupted run;
* reports progress via a callback and aggregates per-spec cost and
  recovery accounting into a :class:`BatchReport`.

:func:`parallel_map` is the generic deterministic sibling used by the
coarse-grained pipelines (whole-CPU cache surveys, multi-uarch sweeps)
whose unit of work is a self-contained function call rather than a
single benchmark.  It shares the pool, so it shares the recovery
semantics: with ``on_error="capture"`` one failing item no longer
aborts the survey.
"""

from __future__ import annotations

import os
import time
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union,
)

from dataclasses import dataclass

from ..core.codecache import cache_stats
from ..errors import is_retryable
from ..faults.plan import active_plan
from ..store import ResultStore, open_store
from .pool import ItemOutcome, ResilientPool, inject_spec_fault, item_fault_key
from .spec import (
    BatchResult,
    BenchmarkSpec,
    result_from_record,
    result_record,
    spec_digest,
)

#: Progress callback signature: ``(done, total, result)``.
ProgressCallback = Callable[[int, int, BatchResult], None]


def default_jobs() -> int:
    """Worker count used when ``jobs`` is not given: one per CPU."""
    return max(1, os.cpu_count() or 1)


@dataclass
class BatchReport:
    """Aggregate accounting for one :meth:`BatchRunner.run` call."""

    n_specs: int = 0
    n_errors: int = 0
    jobs: int = 1
    host_seconds: float = 0.0
    program_runs: int = 0
    simulated_cycles: int = 0
    assemble_hits: int = 0
    assemble_misses: int = 0
    generate_hits: int = 0
    generate_misses: int = 0
    #: Simulator-throughput totals across all specs (see
    #: :class:`repro.uarch.core.SimStats`).
    sim_instructions: int = 0
    fast_path_instructions: int = 0
    fast_path_fallbacks: int = 0
    #: Self-healing activity: spec executions beyond the first attempt
    #: (requeues after crashes / hangs / transient errors), worker
    #: deaths absorbed, and per-spec timeouts enforced.
    n_requeues: int = 0
    n_worker_deaths: int = 0
    n_timeouts: int = 0
    #: Durable-store traffic: specs answered from the content-addressed
    #: result store without re-execution, and specs that missed (were
    #: executed and then stored).  Zero when no store is attached.
    n_store_hits: int = 0
    n_store_misses: int = 0

    @property
    def benchmarks_per_second(self) -> float:
        if self.host_seconds <= 0:
            return 0.0
        return self.n_specs / self.host_seconds

    def add(self, result: BatchResult) -> None:
        self.n_specs += 1
        if not result.ok:
            self.n_errors += 1
        self.n_requeues += max(0, result.attempts - 1)
        self.program_runs += result.program_runs
        self.simulated_cycles += result.simulated_cycles
        self.assemble_hits += result.assemble_hits
        self.assemble_misses += result.assemble_misses
        self.generate_hits += result.generate_hits
        self.generate_misses += result.generate_misses
        self.sim_instructions += result.sim_instructions
        self.fast_path_instructions += result.fast_path_instructions
        self.fast_path_fallbacks += result.fast_path_fallbacks


def _execute_spec(spec: BenchmarkSpec) -> BatchResult:
    """Worker entry point: run one spec on a fresh core."""
    return spec.execute()


class BatchRunner:
    """Execute many benchmark specs, serially or across worker processes.

    Parameters
    ----------
    jobs:
        Worker-process count.  ``1`` (the default) runs in-process; any
        larger value shards the spec list over a supervised worker pool
        (:class:`~repro.batch.pool.ResilientPool`).  ``None`` means one
        worker per CPU.
    progress:
        Optional ``(done, total, result)`` callback, invoked in spec
        order as results stream in.
    spec_timeout:
        Per-spec deadline in seconds (pool mode): a spec whose worker
        exceeds it is killed and requeued on another worker.  ``None``
        disables the deadline unless the active fault plan injects
        worker hangs.
    max_requeues:
        How often one spec is requeued (worker death, timeout, or
        transient error) before its result reports the failure.
    store:
        A durable content-addressed result store
        (:class:`repro.store.ResultStore`), or the path of one to open.
        Specs whose digest is already stored are answered from it
        without re-execution (across runs, processes, and tools);
        fresh results are durably appended as they complete, so an
        interrupted sweep resumes where it stopped.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        *,
        progress: Optional[ProgressCallback] = None,
        spec_timeout: Optional[float] = None,
        max_requeues: int = 2,
        store: Optional[Union[str, "os.PathLike[str]", ResultStore]] = None,
    ) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.progress = progress
        self.spec_timeout = spec_timeout
        self.max_requeues = max_requeues
        self.store = store
        self.last_report = BatchReport()

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[BenchmarkSpec]) -> List[BatchResult]:
        """Run all *specs*; returns results in spec order."""
        return list(self.iter_results(specs))

    def iter_results(
        self, specs: Sequence[BenchmarkSpec]
    ) -> Iterator[BatchResult]:
        """Stream results back in spec order as they complete."""
        specs = list(specs)
        report = BatchReport(jobs=self.jobs)
        self.last_report = report
        started = time.perf_counter()
        total = len(specs)

        store: Optional[ResultStore] = None
        owns_store = False
        replayed: Dict[int, BatchResult] = {}
        digests: Dict[int, str] = {}
        to_run = list(range(total))
        if self.store is not None:
            store = open_store(self.store)
            owns_store = not isinstance(self.store, ResultStore)
            to_run = []
            for index, spec in enumerate(specs):
                digests[index] = spec_digest(spec)
                record = store.get(digests[index])
                if record is not None:
                    replayed[index] = result_from_record(spec, record)
                    report.n_store_hits += 1
                else:
                    report.n_store_misses += 1
                    to_run.append(index)

        if self.jobs <= 1 or len(to_run) <= 1:
            fresh = self._iter_serial(specs, to_run)
        else:
            fresh = self._iter_pool(specs, to_run)

        done = 0
        try:
            for index in range(total):
                if index in replayed:
                    result = replayed.pop(index)
                else:
                    result = next(fresh)
                    if store is not None:
                        # The ack point of the durability contract: the
                        # record is flushed (and fsynced) before the
                        # result is reported downstream.
                        store.put(digests[index],
                                  result_record(index, specs[index], result))
                done += 1
                report.add(result)
                report.host_seconds = time.perf_counter() - started
                if self.progress is not None:
                    self.progress(done, total, result)
                yield result
        finally:
            fresh.close()
            if store is not None and owns_store:
                store.close()
            report.host_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    def _iter_serial(
        self, specs: Sequence[BenchmarkSpec], to_run: Sequence[int]
    ) -> Iterator[BatchResult]:
        """In-process execution with the same per-item fault/retry
        semantics as the pool (worker death and hangs need processes
        and do not apply here)."""
        plan = active_plan()
        for index in to_run:
            attempt = 0
            while True:
                try:
                    inject_spec_fault(plan, item_fault_key(index, attempt))
                    result = specs[index].execute()
                except Exception as exc:  # noqa: BLE001 — captured
                    if is_retryable(exc) and attempt < self.max_requeues:
                        attempt += 1
                        continue
                    result = BatchResult(
                        spec=specs[index], values={}, error=str(exc)
                    )
                result.attempts = attempt + 1
                break
            yield result

    def _iter_pool(
        self, specs: Sequence[BenchmarkSpec], to_run: Sequence[int]
    ) -> Iterator[BatchResult]:
        pool = ResilientPool(
            _execute_spec,
            min(self.jobs, len(to_run)),
            timeout=self.spec_timeout,
            max_requeues=self.max_requeues,
        )
        payloads = [specs[index] for index in to_run]
        try:
            for outcome in pool.imap_ordered(payloads):
                original = to_run[outcome.index]
                if outcome.ok:
                    result = outcome.value
                else:
                    result = BatchResult(
                        spec=specs[original], values={}, error=outcome.error
                    )
                result.attempts = outcome.attempts
                yield result
        finally:
            self.last_report.n_worker_deaths += pool.deaths
            self.last_report.n_timeouts += pool.timeouts

    # ------------------------------------------------------------------
    def cache_stats(self):
        """Codegen-cache statistics of the *controlling* process.

        Worker-process caches are per-process; their activity is
        visible through the per-result hit/miss fields instead.
        """
        return cache_stats()


def run_batch(
    specs: Sequence[BenchmarkSpec],
    jobs: Optional[int] = 1,
    progress: Optional[ProgressCallback] = None,
    **runner_kwargs,
) -> List[BatchResult]:
    """One-shot convenience wrapper around :class:`BatchRunner`."""
    return BatchRunner(jobs, progress=progress, **runner_kwargs).run(specs)


# ----------------------------------------------------------------------
# Generic deterministic fan-out for coarse-grained pipelines
# ----------------------------------------------------------------------
def _apply_payload(payload):
    fn, item = payload
    return fn(item)


def parallel_map(
    fn: Callable,
    items: Iterable,
    jobs: Optional[int] = 1,
    *,
    progress: Optional[Callable[[int, int, object], None]] = None,
    on_error: str = "raise",
    timeout: Optional[float] = None,
    max_requeues: int = 2,
) -> List:
    """Ordered, deterministic map of *fn* over *items*, optionally
    sharded across worker processes.

    *fn* must be picklable (a module-level function) when ``jobs > 1``.
    Results are returned in input order.

    ``on_error`` selects the failure semantics:

    * ``"raise"`` (default, backwards compatible): the first failing
      item raises — in pool mode the worker's exception is re-raised
      in the parent after a clean pool shutdown.
    * ``"capture"``: every item yields an
      :class:`~repro.batch.pool.ItemOutcome` wrapper (``.ok`` /
      ``.value`` / ``.error``, mirroring ``BatchResult.ok``) so one
      failing item no longer aborts a whole survey.

    Both modes share the pool's recovery semantics: dead workers are
    respawned and their item requeued, transient errors retried, hung
    items killed after *timeout* seconds, and ``KeyboardInterrupt``
    tears the pool down cleanly instead of orphaning workers.
    """
    if on_error not in ("raise", "capture"):
        raise ValueError("on_error must be 'raise' or 'capture'")
    items = list(items)
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    total = len(items)
    results: List = []

    def emit(done: int, outcome: ItemOutcome):
        if not outcome.ok and on_error == "raise" \
                and outcome.exception is not None:
            raise outcome.exception
        value = outcome if on_error == "capture" else outcome.value
        results.append(value)
        if progress is not None:
            progress(done, total, value)

    if jobs <= 1 or total <= 1:
        plan = active_plan()
        for done, item in enumerate(items, start=1):
            index = done - 1
            attempt = 0
            while True:
                try:
                    inject_spec_fault(plan, item_fault_key(index, attempt))
                    value = fn(item)
                except Exception as exc:  # noqa: BLE001 — captured
                    if is_retryable(exc) and attempt < max_requeues:
                        attempt += 1
                        continue
                    if on_error == "raise":
                        raise
                    outcome = ItemOutcome(
                        index, False, error=str(exc),
                        error_type=type(exc).__name__,
                        attempts=attempt + 1,
                    )
                else:
                    outcome = ItemOutcome(
                        index, True, value=value, attempts=attempt + 1
                    )
                break
            emit(done, outcome)
        return results

    pool = ResilientPool(
        _apply_payload, min(jobs, total),
        timeout=timeout, max_requeues=max_requeues,
    )
    for done, outcome in enumerate(
        pool.imap_ordered([(fn, item) for item in items]), start=1
    ):
        emit(done, outcome)
    return results
