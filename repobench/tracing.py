"""Span and counter tracing for the traced benchmark run.

The wrappers are installed from here, around the public entry points of
each layer, so the program under test carries no tracing code.  A span
records (name, start, end, parent span, op id, thread); spans stay in
memory and are written once, as Chrome trace-event JSON, when the run
ends.  Calls that happen millions of times per run
(``MemoryHierarchy.access``, ``AddressSpace.translate``) are counted
instead, and only one call in ``SAMPLE_EVERY`` is timed; their time is
the sampled mean scaled by the exact count.

Every thread keeps its own span stack, span list and counters, so the
queue's worker thread and the client thread never write shared state;
the lists are merged after the timed phase.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: One call in this many of a counted hot call is timed.
SAMPLE_EVERY = 32

#: ``(span id, name, start, end, parent id, op id, thread id)``
Span = Tuple[int, str, float, float, Optional[int], Optional[int], int]


class _ThreadState:
    def __init__(self) -> None:
        self.stack: List[Tuple[int, str, float, Optional[int]]] = []
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)


class Tracer:
    """Collects spans and counts while :attr:`active` is True."""

    def __init__(self) -> None:
        self.active = False
        #: Span id and op index of the op in flight; root spans of every
        #: thread are parented to it (ops run one at a time).
        self.op_span: Optional[int] = None
        self.op_index: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # -- per-thread state ---------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def count(self, name: str, amount: float = 1) -> None:
        self._state().counts[name] += amount

    def begin(self, name: str) -> Tuple[_ThreadState, int]:
        state = self._state()
        span_id = next(self._ids)
        parent = state.stack[-1][0] if state.stack else self.op_span
        state.stack.append((span_id, name, time.perf_counter(), parent))
        return state, span_id

    def end(self, token: Tuple[_ThreadState, int]) -> None:
        end = time.perf_counter()
        state, span_id = token
        # Pop down to this span: a generator closed out of order must
        # not leave its span on the stack.
        while state.stack:
            top_id, name, start, parent = state.stack.pop()
            if top_id == span_id:
                state.spans.append((span_id, name, start, end, parent,
                                    self.op_index, threading.get_ident()))
                return

    # -- results --------------------------------------------------------
    def spans(self) -> List[Span]:
        with self._states_lock:
            states = list(self._states)
        return sorted(s for state in states for s in state.spans)

    def counts(self) -> Dict[str, float]:
        total: Dict[str, float] = defaultdict(float)
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, value in state.counts.items():
                total[name] += value
        return total

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace events (opens in Perfetto)."""
        spans = self.spans()
        origin = min((s[2] for s in spans), default=0.0)
        events = [{
            "name": name, "ph": "X", "pid": 1, "tid": tid,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"id": span_id, "parent": parent, "op": op},
        } for span_id, name, start, end, parent, op, tid in spans]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)

    # -- wrappers ---------------------------------------------------------
    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._restore.append(lambda: setattr(owner, attr, original))

    def _span(self, owner, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as a span called *name*;
        ``after(args, result)`` adds counts once the call returned."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                token = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(token)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def _counted(self, owner, attr: str, name: str,
                 after: Optional[Callable] = None) -> None:
        """Count every call of a hot ``owner.attr``; time one in
        :data:`SAMPLE_EVERY` (the counts land in ``<name>.calls``,
        ``<name>.sampled`` and ``<name>.sampled_s``)."""
        tracer = self
        calls, sampled, sampled_s = (name + ".calls", name + ".sampled",
                                     name + ".sampled_s")

        def make(original):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                counts = tracer._state().counts
                counts[calls] += 1
                if counts[calls] % SAMPLE_EVERY:
                    result = original(*args, **kwargs)
                else:
                    start = time.perf_counter()
                    result = original(*args, **kwargs)
                    counts[sampled_s] += time.perf_counter() - start
                    counts[sampled] += 1
                if after is not None:
                    after(counts, result)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap the public boundary of every measured layer."""
        from repro.backends import analytic
        from repro.batch.runner import BatchRunner
        from repro.core import codecache, nanobench
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.memory.paging import AddressSpace
        from repro.router.router import RoutedBench
        from repro.server.jobs import DONE, RUNNING, JobJournal
        from repro.server.queue import JobQueue
        from repro.store.store import ResultStore
        from repro.tools.cache.addresses import AddressBuilder
        from repro.tools.cache.cacheseq import CacheSeq
        from repro.uarch.core import SimulatedCore

        tracer = self

        # uarch: core construction and program execution.
        self._span(SimulatedCore, "__init__", "uarch.core.construct",
                   lambda args, _: tracer.count("uarch.core.constructs"))

        def make_run_program(original):
            def run_program(core, *args, **kwargs):
                if not tracer.active:
                    return original(core, *args, **kwargs)
                before = core.sim_stats.snapshot()
                token = tracer.begin("uarch.run_program")
                try:
                    return original(core, *args, **kwargs)
                finally:
                    tracer.end(token)
                    for key, value in core.sim_stats.delta(before).items():
                        tracer.count("uarch.sim." + key, value)
            return run_program
        self._patch(SimulatedCore, "run_program", make_run_program)

        # memory: paging and the cache hierarchy (hot calls: counted).
        self._counted(AddressSpace, "translate", "memory.paging.translate")

        def note_level(counts, result):
            counts["memory.hierarchy.level%d" % result.level] += 1
        self._counted(MemoryHierarchy, "access", "memory.hierarchy.access",
                      note_level)
        self._span(MemoryHierarchy, "wbinvd", "memory.hierarchy.wbinvd")

        # x86 / codegen / preflight / nanobench (module globals are
        # patched where the caller looks them up).
        self._span(codecache, "assemble", "x86.assemble")
        self._span(codecache, "generate", "core.codegen.generate")
        self._span(nanobench, "ensure_program_valid", "integrity.preflight")
        self._span(nanobench.NanoBench, "run", "core.nanobench.run")
        self._span(analytic, "estimate_program", "backends.analytic.estimate")

        # router: one span per routed query plus its attribution.
        def make_routed_run(original):
            def run(bench, *args, **kwargs):
                if not tracer.active:
                    return original(bench, *args, **kwargs)
                escalations = sum(bench.stats.escalations.values())
                token = tracer.begin("router.run")
                try:
                    return original(bench, *args, **kwargs)
                finally:
                    tracer.end(token)
                    tracer.count("router.escalations",
                                 sum(bench.stats.escalations.values())
                                 - escalations)
                    if bench.served_by:
                        tracer.count("router.served." + bench.served_by)
                    tracer.count("router.audits", bench.last_audited)
                    tracer.count("router.audit_failures",
                                 bench.last_audit_failed)
            return run
        self._patch(RoutedBench, "run", make_routed_run)

        # batch: the runner's result stream is a generator.
        def make_iter_results(original):
            def iter_results(runner, specs):
                if not tracer.active:
                    yield from original(runner, specs)
                    return
                token = tracer.begin("batch.run")
                try:
                    yield from original(runner, specs)
                finally:
                    tracer.end(token)
                    report = runner.last_report
                    tracer.count("batch.store_hits", report.n_store_hits)
                    tracer.count("batch.store_misses",
                                 report.n_store_misses)
            return iter_results
        self._patch(BatchRunner, "iter_results", make_iter_results)

        # store.
        self._span(ResultStore, "get", "store.get",
                   lambda args, _: tracer.count("store.gets"))
        self._span(ResultStore, "put", "store.put",
                   lambda args, _: tracer.count("store.puts"))

        # server: queue wait (submit -> running) and the job journal.
        # The worker may journal RUNNING before submit() has returned
        # the job id to the client, so whichever side comes second
        # records the wait.
        submitted: Dict[str, float] = {}
        running: Dict[str, float] = {}
        wait_lock = threading.Lock()

        def make_submit(original):
            def submit(queue, *args, **kwargs):
                started = time.perf_counter()
                job = original(queue, *args, **kwargs)
                if tracer.active:
                    with wait_lock:
                        ran = running.pop(job.job_id, None)
                        if ran is None:
                            submitted[job.job_id] = started
                    if ran is not None:
                        tracer.count("server.queue.wait_s", ran - started)
                return job
            return submit
        self._patch(JobQueue, "submit", make_submit)

        def note_journal(args, _):
            job = args[1]
            tracer.count("server.jobs.journal_appends")
            if job.state == RUNNING:
                now = time.perf_counter()
                with wait_lock:
                    started = submitted.pop(job.job_id, None)
                    if started is None:
                        running[job.job_id] = now
                if started is not None:
                    tracer.count("server.queue.wait_s", now - started)
            elif job.state == DONE:
                tracer.count("server.queue.job_host_s", job.host_seconds)
        self._span(JobJournal, "append", "server.jobs.journal_append",
                   note_journal)

        # tools.cache.
        self._span(CacheSeq, "run", "tools.cache.cacheseq_run")
        self._span(AddressBuilder, "blocks_for_set", "tools.cache.addresses")
        self._span(AddressBuilder, "eviction_buffer", "tools.cache.addresses")

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def span_times(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Total and self seconds per span name.

    Self time is a span's duration minus the part of it that its child
    spans cover (children may run on another thread, so their intervals
    are merged before they are subtracted).
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    total: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _, _, _ in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        total[name] += end - start
        self_time[name] += end - start - covered
    return total, self_time


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, codecache_delta: Dict[str, Dict[str, int]]
                  ) -> Dict[str, float]:
    """The per-layer metrics (``per_layer`` in ``BENCHMARK.json``) of one
    traced run; ``*_ms`` are totals over the timed phase."""
    counts = tracer.counts()
    spans = tracer.spans()
    total, self_time = span_times(spans)
    calls = defaultdict(int)
    for span in spans:
        calls[span[1]] += 1

    def ms(name: str) -> float:
        return total.get(name, 0.0) * 1e3

    def sampled_ms(name: str) -> float:
        sampled = counts.get(name + ".sampled", 0)
        mean = _ratio(counts.get(name + ".sampled_s", 0.0), sampled)
        return mean * counts.get(name + ".calls", 0) * 1e3

    levels = [counts.get("memory.hierarchy.level%d" % level, 0)
              for level in (1, 2, 3, 4)]
    accesses = sum(levels)
    instructions = counts.get("uarch.sim.instructions", 0)

    def hit_ratio(cache: Dict[str, int]) -> float:
        return _ratio(cache.get("hits", 0), cache.get("lookups", 0))

    return {
        "uarch.core.constructs": counts.get("uarch.core.constructs", 0),
        "uarch.core.construct_ms": ms("uarch.core.construct"),
        "uarch.run_program_ms": self_time.get("uarch.run_program", 0.0) * 1e3,
        "uarch.sim_instructions": instructions,
        "uarch.fast_path_frac": _ratio(
            counts.get("uarch.sim.fast_path_instructions", 0), instructions),
        "uarch.fast_path_fallbacks": counts.get("uarch.sim.fallbacks", 0),
        "uarch.sim_instr_per_s": _ratio(instructions,
                                        total.get("uarch.run_program", 0.0)),
        "memory.paging.translations":
            counts.get("memory.paging.translate.calls", 0),
        "memory.paging.translate_ms": sampled_ms("memory.paging.translate"),
        "memory.hierarchy.accesses": accesses,
        "memory.hierarchy.access_ms": sampled_ms("memory.hierarchy.access"),
        "memory.hierarchy.wbinvds": calls["memory.hierarchy.wbinvd"],
        "memory.hierarchy.wbinvd_ms": ms("memory.hierarchy.wbinvd"),
        "memory.l1_hit_ratio": _ratio(levels[0], accesses),
        "memory.l2_hit_ratio": _ratio(levels[1], sum(levels[1:])),
        "memory.l3_hit_ratio": _ratio(levels[2], sum(levels[2:])),
        "core.codecache.assemble_hit_ratio":
            hit_ratio(codecache_delta["assemble"]),
        "core.codecache.generate_hit_ratio":
            hit_ratio(codecache_delta["generate"]),
        "x86.assemble_ms": ms("x86.assemble"),
        "core.codegen.generate_ms": ms("core.codegen.generate"),
        "integrity.preflight_ms": ms("integrity.preflight"),
        "core.nanobench.runs": calls["core.nanobench.run"],
        "core.nanobench.run_ms":
            self_time.get("core.nanobench.run", 0.0) * 1e3,
        "backends.analytic.estimates": calls["backends.analytic.estimate"],
        "backends.analytic.estimate_ms": ms("backends.analytic.estimate"),
        "router.served.analytic": counts.get("router.served.analytic", 0),
        "router.served.sim": counts.get("router.served.sim", 0),
        "router.served.sim_exact": counts.get("router.served.sim-exact", 0),
        "router.escalations": counts.get("router.escalations", 0),
        "router.audits": counts.get("router.audits", 0),
        "router.audit_failures": counts.get("router.audit_failures", 0),
        "router.run_ms": ms("router.run"),
        "batch.store_hits": counts.get("batch.store_hits", 0),
        "batch.store_misses": counts.get("batch.store_misses", 0),
        "batch.run_ms": ms("batch.run"),
        "store.gets": counts.get("store.gets", 0),
        "store.get_ms": ms("store.get"),
        "store.puts": counts.get("store.puts", 0),
        "store.put_ms": ms("store.put"),
        "server.queue.wait_ms": counts.get("server.queue.wait_s", 0.0) * 1e3,
        "server.queue.job_host_ms":
            counts.get("server.queue.job_host_s", 0.0) * 1e3,
        "server.jobs.journal_appends":
            counts.get("server.jobs.journal_appends", 0),
        "server.jobs.journal_append_ms": ms("server.jobs.journal_append"),
        "tools.cache.cacheseq_run_ms":
            self_time.get("tools.cache.cacheseq_run", 0.0) * 1e3,
        "tools.cache.addresses_ms": ms("tools.cache.addresses"),
    }
