"""The tiered fidelity router: cheapest trustworthy backend per query.

``RoutedBench`` is a drop-in :class:`~repro.core.nanobench.NanoBench`
facade (``NanoBench.create(backend="auto")`` returns one) that owns
three measurement tiers in ascending cost order — the table-driven
analytic estimator (~92× the simulator), the fast-path simulator, and
the exact simulator with the fast path disabled — and serves each
:meth:`run` from the cheapest tier whose answer can be trusted.  The
same Atomic/Timing/O3 fidelity cascade gem5 uses for its swappable CPU
models, applied to a measurement service.

Trust is decided *per query*, from data:

1. **Capabilities** — the query's event classes are matched against
   each tier's :class:`~repro.backends.Capabilities`; a class the
   backend cannot count at all (cache/uncore/APERF on the analytic
   tier) escalates before anything runs.
2. **Measured fidelity** — the committed A6-derived
   :class:`~repro.router.fidelity.FidelityTable` must bound the class's
   p95 error within ``RouterPolicy.tolerance``; unmeasured classes are
   never trusted.
3. **Runtime escalation** — an :class:`~repro.errors.
   UnschedulableEventError` or :class:`~repro.errors.CapabilityError`
   mid-run, or a cheap tier that had to skip events, falls through to
   the next tier automatically.
4. **Continuous audit** — a deterministic content-hash sample of
   routed queries (default 1/64) is re-run on the exact simulator; a
   deviation beyond tolerance quarantines the offending event classes
   on the serving tier, records the divergence in the PR 6 corpus
   format, and returns the *exact* values — an audited answer is never
   silently wrong.

Routing decisions are attributable end to end: each run leaves
``served_by`` / ``last_audited`` on the facade, a ``router`` block on
:class:`~repro.core.nanobench.ExecutionReport`, and cumulative
:class:`RouterStats` for the service's ``/v1/stats``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..backends.protocol import Capabilities, MeasurementBackend
from ..backends.registry import register_backend
from ..errors import CapabilityError, UnschedulableEventError
from ..perfctr.events import PerfEvent, event_catalog
from .fidelity import (
    CLASS_APERF,
    CLASS_CACHE,
    CLASS_CORE,
    CLASS_UNCORE,
    FidelityTable,
    classify_event,
    classify_query,
    load_fidelity_table,
    program_classes,
)

#: Tier names in ascending cost order.  ``analytic`` and ``sim`` are
#: registry backends; ``sim-exact`` is the sim backend with the
#: steady-state fast path disabled (the audit reference).
TIER_ORDER = ("analytic", "sim", "sim-exact")

#: Event classes each tier cannot serve, by construction.  The sim
#: tiers count everything; the analytic estimator has no memory
#: hierarchy, no uncore, and no frequency MSRs.
_TIER_BLIND_CLASSES = {
    "analytic": frozenset((CLASS_CACHE, CLASS_UNCORE, CLASS_APERF)),
    "sim": frozenset(),
    "sim-exact": frozenset(),
}

#: Only the non-cycle-accurate tier needs a measured fidelity bound;
#: the fast path is byte-identical to exact simulation by contract
#: (PR 4 goldens + the differential fuzzer pin that equivalence).
_TIERS_NEEDING_FIDELITY = frozenset(("analytic",))


@dataclass(frozen=True)
class RouterPolicy:
    """Knobs of the routing / audit behaviour."""

    #: Class-gate and audit tolerance, in counter units (cycles for the
    #: fixed counters): a cheap tier is trusted for a class only when
    #: its measured p95 error is within this, and an audited answer
    #: deviating beyond ``max(tolerance, rel_tolerance·|ref|)`` on any
    #: shared counter is a violation.
    tolerance: float = 0.5
    rel_tolerance: float = 0.05
    #: Fraction of routed queries cross-checked against the exact
    #: simulator (deterministic content-hash sampling; 0 disables).
    audit_fraction: float = 1.0 / 64.0
    #: Salt of the audit sample, so two routers can audit disjoint
    #: slices of the same traffic.
    audit_seed: int = 0
    #: Override for the committed fidelity artifact.
    table_path: Optional[str] = None


@dataclass
class RouterStats:
    """Cumulative routing counters of one :class:`RoutedBench`."""

    tier_hits: Dict[str, int] = field(default_factory=dict)
    #: Tier-skip / fall-through counts keyed by reason
    #: (``capability`` / ``fidelity`` / ``quarantine`` /
    #: ``unschedulable`` / ``unclassifiable``).
    escalations: Dict[str, int] = field(default_factory=dict)
    audits: int = 0
    audit_passes: int = 0
    audit_failures: int = 0
    #: Quarantined ``"tier:class"`` pairs, sorted.
    quarantined: Tuple[str, ...] = ()

    def note_hit(self, tier: str) -> None:
        self.tier_hits[tier] = self.tier_hits.get(tier, 0) + 1

    def note_escalation(self, reason: str) -> None:
        self.escalations[reason] = self.escalations.get(reason, 0) + 1

    def to_dict(self) -> dict:
        return {
            "tier_hits": dict(sorted(self.tier_hits.items())),
            "escalations": dict(sorted(self.escalations.items())),
            "audits": self.audits,
            "audit_passes": self.audit_passes,
            "audit_failures": self.audit_failures,
            "quarantined": list(self.quarantined),
        }


def audit_selected(policy: RouterPolicy, *, uarch: str, seed: int,
                   kernel_mode: bool, asm: str, asm_init: str,
                   events: Sequence[str],
                   options: Sequence[Tuple[str, object]]) -> bool:
    """Whether one query falls in the audit sample.

    A pure function of the query content and ``audit_seed`` — never of
    arrival order or wall clock — so batched, sharded, and re-run
    traffic audits exactly the same specs (the determinism contract the
    batch engine already makes for results extends to audits).
    """
    if policy.audit_fraction <= 0.0:
        return False
    payload = json.dumps([
        policy.audit_seed, uarch, seed, kernel_mode, asm, asm_init,
        sorted(events), sorted((str(k), repr(v)) for k, v in options),
    ], sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return fraction < policy.audit_fraction


class RoutedBench:
    """A NanoBench-shaped facade that routes each run across tiers.

    Tier instances are created lazily (an all-analytic workload never
    pays for a :class:`~repro.uarch.core.SimulatedCore`).  Every routed
    run is served from a **pristine** machine state: the simulating
    tiers carry persistent memory/cache state across runs on one
    instance (by design — they model a real machine), which would make
    a reused tier's answer diverge from the fresh-instance answer the
    batch path and the A6 fidelity bounds are defined against, and
    would let the audit compare two tiers in different machine states.
    So the stateless analytic tier is reused, while the sim tiers are
    rebuilt per run — exactly the cost the un-routed batch path already
    pays per spec.
    """

    def __init__(self, uarch: str = "Skylake", seed: int = 0, *,
                 kernel_mode: bool = True,
                 options=None, retry=None, preflight: bool = True,
                 stability=None,
                 policy: Optional[RouterPolicy] = None,
                 table: Optional[FidelityTable] = None,
                 backend: Optional[MeasurementBackend] = None) -> None:
        from ..core.nanobench import ExecutionReport
        from ..core.options import NanoBenchOptions
        from ..core.retry import RetryPolicy

        self.uarch = uarch
        self.seed = seed
        self.kernel_mode = kernel_mode
        self.options = options if options is not None else NanoBenchOptions()
        self.retry = retry if retry is not None else RetryPolicy()
        self.preflight = preflight
        self.stability = stability
        self.policy = policy if policy is not None else RouterPolicy()
        self.table = (table if table is not None
                      else load_fidelity_table(self.policy.table_path))
        self.backend = backend if backend is not None else _ROUTED_BACKEND
        self.stats = RouterStats()
        #: Divergences confirmed by the audit, in the PR 6 corpus
        #: format (category ``router``), ready for ``save_corpus``.
        self.divergences: List[object] = []
        #: Attribution of the most recent run.
        self.served_by: Optional[str] = None
        self.last_audited = False
        self.last_audit_failed = False
        self.last_report = ExecutionReport()
        self.last_quality = None
        self.quality_counts: Dict[str, int] = {}
        self.last_raw_series: Dict[int, Dict[str, List[float]]] = {}
        self._tiers: Dict[str, object] = {}
        self._quarantined: set = set()
        self._r14_size_request: Optional[int] = None
        from ..uarch.specs import get_spec
        from ..uarch.timing import TimingTable

        self._spec = get_spec(uarch)
        self._timing_table = TimingTable(
            self._spec.family, move_elimination=self._spec.move_elimination
        )

    # ------------------------------------------------------------------
    # Tier management
    # ------------------------------------------------------------------
    def _tier(self, name: str):
        """The (lazily-created) NanoBench instance of one tier."""
        tier = self._tiers.get(name)
        if tier is None:
            from ..core.nanobench import NanoBench

            tier = NanoBench.create(
                self.uarch, self.seed, kernel_mode=self.kernel_mode,
                backend="sim" if name == "sim-exact" else name,
                options=self.options, retry=self.retry,
                preflight=self.preflight,
            )
            if name == "sim-exact":
                tier.core.fast_path_enabled = False
            if self._r14_size_request is not None and self.kernel_mode \
                    and tier.capabilities.contiguous_memory:
                tier.resize_r14_buffer(self._r14_size_request)
            self._tiers[name] = tier
        return tier

    def _fresh_tier(self, name: str):
        """The instance one routed run executes on.

        The analytic tier is pure (no machine state) and is reused; a
        simulating tier is rebuilt so the run starts from the same
        pristine state a direct ``NanoBench.create(...).run(...)``
        would — the byte-identity contract, and the state the audit's
        reference must share.  The rebuilt instance replaces the cached
        one, so post-run introspection (``core``, ``last_report``)
        reads the instance that actually ran.
        """
        if name != "analytic":
            self._tiers.pop(name, None)
        return self._tier(name)

    @property
    def core(self):
        """The cycle-accurate tier's core (CLI / cache-benchmark hook)."""
        return self._tier("sim").core

    @property
    def capabilities(self) -> Capabilities:
        return self.backend.capabilities

    def resize_r14_buffer(self, size: int) -> int:
        """Resize R14 on every (current and future) simulating tier."""
        self._r14_size_request = size
        base = None
        for name in ("sim", "sim-exact"):
            if name in self._tiers:
                base = self._tiers[name].resize_r14_buffer(size)
        if base is None:
            base = self._tier("sim")._r14_physical_base
        return base

    @property
    def r14_physical_base(self) -> Optional[int]:
        return self._tier("sim").r14_physical_base

    @property
    def r14_size(self) -> int:
        return self._tier("sim").r14_size

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _classify(self, asm: str, code, config, events,
                  options) -> Optional[List[str]]:
        """Event + program classes of one query, or None when the query
        cannot be classified (bad asm / unknown event: route to the sim
        tier, which raises the same error the un-routed path would)."""
        from ..core.codecache import cached_assemble

        try:
            benchmark = code if code is not None else cached_assemble(asm)
            perf_events = self._resolve_events(config, events)
            classes = classify_query(
                perf_events,
                fixed_counters=options.fixed_counters,
                aperf_mperf=options.aperf_mperf,
            )
            classes.extend(program_classes(benchmark, self._timing_table))
            return classes
        except Exception:
            return None

    def _resolve_events(self, config, events) -> Tuple[PerfEvent, ...]:
        if config is not None:
            return tuple(config.events)
        if not events:
            return ()
        catalog = event_catalog(self._spec.family, self._spec.n_cboxes)
        return tuple(catalog[name] for name in events)

    def _eligible(self, tier: str, classes: List[str]) -> Optional[str]:
        """None when *tier* may serve these classes, else the skip
        reason (``capability`` / ``fidelity`` / ``quarantine``)."""
        blind = _TIER_BLIND_CLASSES[tier]
        if any(cls in blind for cls in classes):
            return "capability"
        if tier in _TIERS_NEEDING_FIDELITY:
            backend_name = self._tier_backend_name(tier)
            for cls in classes:
                if not self.table.trusted(backend_name, cls,
                                          self.policy.tolerance):
                    return "fidelity"
        if any((tier, cls) in self._quarantined for cls in classes):
            return "quarantine"
        return None

    @staticmethod
    def _tier_backend_name(tier: str) -> str:
        return "sim" if tier == "sim-exact" else tier

    def _route(self, classes: Optional[List[str]]) -> List[str]:
        """Candidate tiers in cost order, cheapest eligible first."""
        if classes is None:
            self.stats.note_escalation("unclassifiable")
            return ["sim", "sim-exact"]
        candidates = []
        for tier in TIER_ORDER:
            reason = self._eligible(tier, classes)
            if reason is None:
                candidates.append(tier)
            elif not candidates:
                # Only count skips below the cheapest eligible tier —
                # these are the actual escalations.
                self.stats.note_escalation(reason)
        return candidates or ["sim-exact"]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, asm: str = "", asm_init: str = "", *,
            code=None, init=None, config=None,
            events: Sequence[str] = (), **option_overrides):
        """Route one measurement; same surface as :meth:`NanoBench.run`."""
        merged = (replace(self.options, **option_overrides)
                  if option_overrides else self.options)
        classes = self._classify(asm, code, config, events, merged)
        candidates = self._route(classes)

        values = None
        served = candidates[-1]
        for position, tier_name in enumerate(candidates):
            tier = self._fresh_tier(tier_name)
            tier.options = self.options
            tier.stability = self.stability
            terminal = position == len(candidates) - 1
            try:
                values = tier.run(asm, asm_init, code=code, init=init,
                                  config=config, events=events,
                                  **option_overrides)
            except (UnschedulableEventError, CapabilityError):
                if terminal:
                    raise
                self.stats.note_escalation("unschedulable")
                continue
            if tier.last_report.skipped_events and not terminal:
                # The cheap tier degraded instead of answering; a
                # costlier tier can answer in full.
                self.stats.note_escalation("unschedulable")
                continue
            served = tier_name
            break

        audited = False
        audit_failed = False
        if served != "sim-exact" and classes is not None:
            audited = audit_selected(
                self.policy, uarch=self.uarch, seed=self.seed,
                kernel_mode=self.kernel_mode,
                asm=asm if code is None else str(code),
                asm_init=asm_init if init is None else str(init),
                events=[e.name for e in self._resolve_events(config, events)],
                options=sorted(option_overrides.items()),
            )
        if audited:
            values, served, audit_failed = self._audit(
                served, values, asm, asm_init, code=code, init=init,
                config=config, events=events,
                option_overrides=option_overrides,
            )

        self.stats.note_hit(served)
        self._finish(served, audited, audit_failed)
        return values

    # ------------------------------------------------------------------
    def _audit(self, served: str, values, asm: str, asm_init: str, *,
               code, init, config, events, option_overrides):
        """Cross-check a routed answer against the exact simulator.

        Within tolerance: the cheap answer stands.  Beyond it: the
        offending event classes are quarantined on the serving tier,
        the divergence is recorded, and the *exact* values are returned
        — the audit never lets a wrong answer through.
        """
        self.stats.audits += 1
        exact = self._fresh_tier("sim-exact")
        exact.options = self.options
        exact.stability = self.stability
        exact_values = exact.run(asm, asm_init, code=code, init=init,
                                 config=config, events=events,
                                 **option_overrides)
        tolerance = self.policy.tolerance
        violations: List[Tuple[str, float, float, float]] = []
        for name, reference in exact_values.items():
            candidate = values.get(name)
            if candidate is None:
                continue
            deviation = abs(candidate - reference)
            if deviation > max(tolerance,
                               self.policy.rel_tolerance * abs(reference)):
                violations.append((name, candidate, reference, deviation))
        if not violations:
            self.stats.audit_passes += 1
            return values, served, False

        self.stats.audit_failures += 1
        for name, _, _, _ in violations:
            self._quarantined.add((served, self._counter_class(name)))
        self.stats.quarantined = tuple(sorted(
            "%s:%s" % (tier, cls) for tier, cls in self._quarantined
        ))
        self._record_divergence(served, values, exact_values, violations,
                                asm, asm_init, events, option_overrides)
        return exact_values, "sim-exact", True

    def _counter_class(self, counter_name: str) -> str:
        from ..core.nanobench import _FIXED_COUNTER_NAMES

        if counter_name in _FIXED_COUNTER_NAMES:
            return CLASS_CORE
        if counter_name in ("APERF", "MPERF"):
            return CLASS_APERF
        catalog = event_catalog(self._spec.family, self._spec.n_cboxes)
        event = catalog.get(counter_name)
        return classify_event(event) if event is not None else CLASS_CACHE

    def _record_divergence(self, served, values, exact_values, violations,
                           asm, asm_init, events, option_overrides) -> None:
        from ..batch.spec import spec_digest, spec_from_run_kwargs
        from ..fuzz.corpus import DivergenceRecord

        spec = spec_from_run_kwargs(
            asm, asm_init, events=tuple(events), uarch=self.uarch,
            seed=self.seed, kernel_mode=self.kernel_mode,
            backend=self._tier_backend_name(served), **option_overrides,
        )
        options = dict(option_overrides)
        self.divergences.append(DivergenceRecord(
            category="router",
            digest=spec_digest(spec),
            uarch=self.uarch,
            kernel_mode=self.kernel_mode,
            seed=self.seed,
            index=0,
            profile="router-audit",
            buckets=(),
            asm=asm,
            asm_init=asm_init,
            unroll_count=int(options.get("unroll_count",
                                         self.options.unroll_count)),
            loop_count=int(options.get("loop_count",
                                       self.options.loop_count)),
            events=tuple(events),
            reference=dict(exact_values),
            candidate=dict(values),
            deviation=max(v[3] for v in violations),
            tolerance=self.policy.tolerance,
            provenance="router-audit:%s" % served,
        ))

    def _finish(self, served: str, audited: bool, audit_failed: bool) -> None:
        tier = self._tiers[served]
        report = tier.last_report
        report.router = {
            "served_by": served,
            "audited": audited,
            "audit_failed": audit_failed,
            "stats": self.stats.to_dict(),
        }
        self.last_report = report
        self.last_raw_series = tier.last_raw_series
        self.last_quality = tier.last_quality
        if tier.last_quality is not None:
            verdict = tier.last_quality.verdict
            self.quality_counts[verdict] = (
                self.quality_counts.get(verdict, 0) + 1
            )
        self.served_by = served
        self.last_audited = audited
        self.last_audit_failed = audit_failed


class RoutedBackend(MeasurementBackend):
    """The ``auto`` backend: a router over the registered tiers.

    Advertises the *union* of its tiers' capabilities (everything the
    simulator can do) — a query needing a capability the cheap tiers
    lack is simply routed past them, never refused.
    """

    name = "auto"
    description = ("tiered fidelity router: analytic -> fast-path sim -> "
                   "exact sim, cheapest trustworthy tier per query")
    capabilities = Capabilities()  # the sim tier's full set

    def create_target(self, uarch: str = "Skylake", *, seed: int = 0):
        raise NotImplementedError(
            "the 'auto' backend has no single target; it is constructed "
            "as a facade via NanoBench.create(backend='auto')"
        )

    def create_facade(self, uarch: str = "Skylake", seed: int = 0, *,
                      kernel_mode: bool = True, options=None, retry=None,
                      preflight: bool = True, stability=None):
        return RoutedBench(
            uarch, seed, kernel_mode=kernel_mode, options=options,
            retry=retry, preflight=preflight, stability=stability,
            backend=self,
        )


_ROUTED_BACKEND = register_backend(RoutedBackend())
