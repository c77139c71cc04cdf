"""The simulated CPU core.

:class:`SimulatedCore` couples the functional x86 semantics, the
out-of-order timing scheduler, the cache hierarchy, the PMU and the
privilege model into one executable machine.  nanoBench's generated code
(Algorithm 1) runs on this class; every counter the tool reports is
produced here.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import (
    ExecutionError,
    MemoryError_,
    PrivilegeError,
    RunawayBenchmarkError,
)
from ..memory.cache import Cache, CacheGeometry
from ..memory.hierarchy import MemoryHierarchy
from ..memory.paging import AddressSpace, MainMemory, PhysicalMemory
from ..memory.replacement import AdaptivePolicy, make_policy
from ..memory.slices import intel_slice_hash
from ..memory.tlb import TlbGeometry, TlbHierarchy
from ..perfctr.counters import (
    MSR_MISC_FEATURE_CONTROL,
    MetricStore,
    PerformanceMonitoringUnit,
)
from ..x86 import semantics
from ..x86.instructions import Instruction, Program
from ..x86.registers import RegisterFile
from .dataflow import analyze
from .interference import InterferenceModel
from .ports import PORT_LAYOUTS
from .scheduler import MemoryAccessPlan, STEADY_LOW_HORIZON, Scheduler
from .specs import CacheLevelSpec, MicroarchSpec, get_spec
from .timing import TimingTable

#: Cap on dynamically executed instructions per program (runaway guard).
DEFAULT_MAX_INSTRUCTIONS = 20_000_000

#: Mnemonics whose *functional* execution must never be skipped by the
#: steady-state fast path, on top of the structural conditions (memory
#: plans, fences, microcode, branches, jitter): DIV/IDIV can raise #DE
#: depending on evolving register values, and the cache-control
#: instructions mutate simulator state outside the scheduler.
_FAST_PATH_UNSAFE_MNEMONICS = frozenset({
    "DIV", "IDIV", "CLFLUSH", "CLFLUSHOPT", "WBINVD", "INVD", "RDRAND",
})


def _fast_path_default() -> bool:
    """Process-wide fast-path default (``NANOBENCH_FAST_PATH=0`` kills
    it, e.g. for differential testing across batch worker processes)."""
    return os.environ.get("NANOBENCH_FAST_PATH", "1").lower() not in (
        "0", "false", "off", "no",
    )


@dataclass
class SimStats:
    """Cumulative simulator-throughput counters for one core.

    ``instructions`` counts every dynamic instruction simulated
    (including fast-forwarded ones); the ``fast_path_*`` fields break
    out how much of that work the steady-state replay absorbed, and
    ``fallbacks`` counts abandoned steady-state candidates (divergence,
    fences, interrupts, signature-table overflow).
    """

    instructions: int = 0
    fast_path_instructions: int = 0
    fast_path_iterations: int = 0
    fast_path_replays: int = 0
    fallbacks: int = 0

    def snapshot(self) -> "SimStats":
        return SimStats(
            self.instructions, self.fast_path_instructions,
            self.fast_path_iterations, self.fast_path_replays,
            self.fallbacks,
        )

    def delta(self, before: "SimStats") -> Dict[str, int]:
        return {
            "instructions": self.instructions - before.instructions,
            "fast_path_instructions": (
                self.fast_path_instructions - before.fast_path_instructions
            ),
            "fast_path_iterations": (
                self.fast_path_iterations - before.fast_path_iterations
            ),
            "fast_path_replays": (
                self.fast_path_replays - before.fast_path_replays
            ),
            "fallbacks": self.fallbacks - before.fallbacks,
        }


def _build_cache(name: str, level: CacheLevelSpec, rng: random.Random) -> Cache:
    geometry = CacheGeometry(
        size_bytes=level.size_bytes,
        associativity=level.associativity,
        n_slices=level.n_slices,
    )
    if level.dueling is not None:
        policy = AdaptivePolicy(level.associativity, level.dueling, rng=rng)
    else:
        policy = make_policy(level.policy, level.associativity, rng=rng)
    slice_hash = (
        intel_slice_hash(level.n_slices) if level.n_slices > 1 else None
    )
    return Cache(name, geometry, policy, slice_hash)


class SimulatedCore:
    """One logical core of a simulated x86 CPU.

    Implements the :class:`~repro.x86.semantics.ExecutionContext`
    protocol, so the functional executors can run directly against it.
    """

    def __init__(self, spec_or_name, seed: int = 0) -> None:
        spec = (
            get_spec(spec_or_name)
            if isinstance(spec_or_name, str) else spec_or_name
        )
        self.spec: MicroarchSpec = spec
        self.rng = random.Random(seed)
        self.layout = PORT_LAYOUTS[spec.family]
        self.timing_table = TimingTable(
            spec.family, move_elimination=spec.move_elimination
        )
        self.scheduler = Scheduler(self.layout, rng=random.Random(seed + 1))
        self.regs = RegisterFile()
        # --- memory system
        self.physical = PhysicalMemory(rng=random.Random(seed + 2))
        self.main_memory = MainMemory()
        self.address_space = AddressSpace(
            self.physical, rng=random.Random(seed + 3)
        )
        cache_rng = random.Random(seed + 4)
        l3 = _build_cache("L3", spec.l3, cache_rng) if spec.l3 else None
        self.hierarchy = MemoryHierarchy(
            _build_cache("L1D", spec.l1, cache_rng),
            _build_cache("L2", spec.l2, cache_rng),
            l3,
            l1_latency=spec.l1.latency,
            l2_latency=spec.l2.latency,
            l3_latency=spec.l3.latency if spec.l3 else 42,
            memory_latency=spec.memory_latency,
        )
        self.tlb = TlbHierarchy(
            TlbGeometry(spec.dtlb_entries, spec.dtlb_associativity),
            TlbGeometry(spec.stlb_entries, spec.stlb_associativity),
            stlb_hit_penalty=spec.stlb_hit_penalty,
            walk_penalty=spec.tlb_walk_penalty,
            rng=random.Random(seed + 6),
        )
        # --- counters
        self.metrics = MetricStore()
        self.pmu = PerformanceMonitoringUnit(
            self.metrics,
            n_programmable=spec.n_programmable_counters,
            n_cboxes=spec.n_cboxes,
        )
        # --- interference & privilege
        self.interference = InterferenceModel(rng=random.Random(seed + 5))
        self._kernel_mode = False
        self._interrupts_enabled = True
        self._cycle_base = 0
        self._msrs: Dict[int, int] = {}
        # Frequency-transition state (chaos plane / P-state modelling):
        # MPERF accumulates at the reference-clock ratio scaled by
        # ``_mperf_scale``; transitions re-base so MPERF stays monotone.
        self._mperf_scale = 1.0
        self._mperf_base = 0.0
        self._mperf_base_cycle = 0
        #: Performance escape hatch for large cache-analysis sweeps: when
        #: False, the per-µop scheduler is skipped (cycle and port
        #: counters stop advancing) while the functional semantics,
        #: cache hierarchy, and cache/instruction event counters remain
        #: exact.  The cache tools verify both modes agree on hit counts.
        self.timing_enabled = True
        #: Hyperthreading: when enabled, a simulated SMT sibling thread
        #: competes for execution ports and cache space, perturbing
        #: measurements.  Section IV-A2: "for obtaining unperturbed
        #: measurement results, we recommend disabling hyperthreading"
        #: — the repository's stand-in for the paper's helper scripts.
        self.smt_enabled = False
        self._smt_rng = random.Random(seed + 7)
        #: Steady-state fast path (see :class:`_UnrollFastPath`).  An
        #: attribute rather than an option so toggling it cannot change
        #: any spec digest — it is result-invariant by construction.
        self.fast_path_enabled = _fast_path_default()
        #: Simulator-throughput observability counters.
        self.sim_stats = SimStats()
        #: Per-instruction-object decode memo: ``id(instr) -> [instr,
        #: flow, timing|None, fast_path_unsafe]``.  Unrolled programs
        #: repeat the *same* ``Instruction`` objects thousands of times,
        #: so decode (dataflow + timing-table string work) is paid once.
        #: The entry holds a strong reference, keeping the id stable.
        self._decode_cache: Dict[int, list] = {}

    # ==================================================================
    # Memory mapping helpers (used by nanoBench and the tools)
    # ==================================================================
    def map_user_region(self, virtual_address: int, size: int) -> None:
        """Map a user buffer (scattered physical pages)."""
        self.address_space.map_user(virtual_address, size)

    def virt_to_phys(self, virtual_address: int) -> int:
        return self.address_space.translate(virtual_address)

    # ==================================================================
    # ExecutionContext protocol (functional semantics)
    # ==================================================================
    def read_memory(self, address: int, size: int) -> int:
        return self.main_memory.read(self.address_space.translate(address), size)

    def write_memory(self, address: int, size: int, value: int) -> None:
        self.main_memory.write(self.address_space.translate(address), size, value)

    def is_kernel_mode(self) -> bool:
        return self._kernel_mode

    def rdpmc(self, index: int) -> int:
        return self.pmu.rdpmc(index, kernel_mode=self._kernel_mode)

    def rdmsr(self, index: int) -> int:
        value = self.pmu.read_msr(index)
        if value is not None:
            return value
        return self._msrs.get(index, 0)

    def wrmsr(self, index: int, value: int) -> None:
        self._msrs[index] = value
        if index == MSR_MISC_FEATURE_CONTROL:
            if self.spec.prefetcher_can_disable:
                # Bits 0-3 disable the four prefetchers (Intel).
                self.hierarchy.prefetcher_enabled = not (value & 0xF)
            # On AMD parts there is no documented disable bit; the write
            # is accepted but has no effect (Section VI-D).

    def rdtsc(self) -> int:
        return int(self._cycle_base + self.scheduler.now)

    def cpuid(self, eax: int, ecx: int) -> Tuple[int, int, int, int]:
        if eax == 0:
            if self.spec.vendor == "Intel":
                # "GenuineIntel" in EBX/EDX/ECX.
                return 0x16, 0x756E6547, 0x6C65746E, 0x49656E69
            return 0x0D, 0x68747541, 0x444D4163, 0x69746E65
        if eax == 1:
            model = 0x50650 + self.spec.generation
            return model, 0, 0, 0
        return 0, 0, 0, 0

    def wbinvd(self) -> None:
        self.hierarchy.wbinvd()

    def clflush(self, address: int) -> None:
        try:
            physical = self.address_space.translate(address)
        except MemoryError_:
            return  # CLFLUSH of an unmapped address is a no-op
        self.hierarchy.clflush(physical)

    def prefetch(self, address: int, level: int) -> None:
        try:
            physical = self.address_space.translate(address)
        except MemoryError_:
            return
        self.hierarchy.prefetch_into(physical)

    # ==================================================================
    # Interrupt control (kernel-space nanoBench uses CLI/STI)
    # ==================================================================
    def disable_interrupts(self) -> None:
        self._interrupts_enabled = False
        self.interference.disable()

    def enable_interrupts(self) -> None:
        self._interrupts_enabled = True
        self.interference.enable()

    # ==================================================================
    # Execution
    # ==================================================================
    def _plan_memory_accesses(
        self, instr: Instruction, flow=None
    ) -> Tuple[List[MemoryAccessPlan], List[MemoryAccessPlan]]:
        """Resolve the instruction's memory operands to timed accesses."""
        if flow is None:
            flow = analyze(instr)
        loads: List[MemoryAccessPlan] = []
        stores: List[MemoryAccessPlan] = []
        line = self.hierarchy.l1.geometry.line_size
        for mem in flow.loads:
            virtual = semantics.effective_address(self, mem)
            physical = self.address_space.translate(virtual)
            tlb = self.tlb.access(virtual)
            self._record_tlb_metrics(tlb, is_store=False)
            result = self.hierarchy.access(physical)
            self._record_memory_metrics(result, is_store=False)
            loads.append(MemoryAccessPlan(
                line_address=physical - physical % line,
                latency=result.latency + tlb.penalty,
                address_registers=mem.registers_read,
            ))
        for mem in flow.stores:
            virtual = semantics.effective_address(self, mem)
            physical = self.address_space.translate(virtual)
            tlb = self.tlb.access(virtual)
            self._record_tlb_metrics(tlb, is_store=True)
            result = self.hierarchy.access(physical, is_write=True)
            self._record_memory_metrics(result, is_store=True)
            stores.append(MemoryAccessPlan(
                line_address=physical - physical % line,
                latency=result.latency + tlb.penalty,
                address_registers=mem.registers_read,
                is_store=True,
            ))
        return loads, stores

    def _record_tlb_metrics(self, result, *, is_store: bool) -> None:
        if result.dtlb_hit:
            return
        prefix = "dtlb_store" if is_store else "dtlb_load"
        self.metrics.add("%s_misses" % prefix)
        if result.caused_walk:
            self.metrics.add("%s_walks" % prefix)
        else:
            self.metrics.add("%s_stlb_hits" % prefix)

    def _record_memory_metrics(self, result, *, is_store: bool) -> None:
        metrics = self.metrics
        metrics.add("mem_stores" if is_store else "mem_loads")
        if not is_store:
            if result.level == 1:
                metrics.add("l1_hit")
            else:
                metrics.add("l1_miss")
                if result.level == 2:
                    metrics.add("l2_hit")
                else:
                    metrics.add("l2_miss")
                    if result.level == 3:
                        metrics.add("l3_hit")
                    elif result.level == 4:
                        metrics.add("l3_miss")
        if result.l3_slice is not None:
            metrics.add("cbox%d_lookups" % result.l3_slice)
            if result.level == 4:
                metrics.add("cbox%d_misses" % result.l3_slice)

    def _update_clock_metrics(self) -> None:
        now = self._cycle_base + self.scheduler.now
        self.metrics.set("core_cycles", float(now))
        self.metrics.set("ref_cycles", now * self.spec.reference_clock_ratio)
        self.metrics.set("aperf", float(now))
        self.metrics.set("mperf", self._mperf_base + (
            (now - self._mperf_base_cycle)
            * self.spec.reference_clock_ratio * self._mperf_scale
        ))

    # ==================================================================
    # Frequency transitions (P-state changes perturbing APERF/MPERF)
    # ==================================================================
    def _rebase_mperf(self) -> None:
        now = self._cycle_base + self.scheduler.now
        self._mperf_base += (
            (now - self._mperf_base_cycle)
            * self.spec.reference_clock_ratio * self._mperf_scale
        )
        self._mperf_base_cycle = now

    def begin_frequency_transition(self, scale: float) -> None:
        """Shift the core/reference clock ratio by *scale* from now on.

        Models a P-state change hitting mid-measurement: the per-run
        APERF/MPERF ratio deviates from the spec's reference ratio,
        which the self-healing measurement loop detects and re-runs.
        MPERF stays monotone across transitions.
        """
        self._rebase_mperf()
        self._mperf_scale = scale

    def end_frequency_transition(self) -> None:
        """Return to the nominal clock ratio (monotone re-base)."""
        self._rebase_mperf()
        self._mperf_scale = 1.0

    def _apply_interrupts(self) -> bool:
        """Poll and apply pending interference; True if anything fired."""
        if not self._interrupts_enabled:
            return False
        fired = False
        for event in self.interference.poll(self.current_cycle):
            self._apply_interference_event(event)
            fired = True
        return fired

    def _apply_interference_event(self, event) -> None:
        self.metrics.add("instructions_retired", event.instructions)
        self.metrics.add("uops_issued", event.uops)
        self.metrics.add("branches", event.branches)
        self.metrics.add(
            "branch_mispredicts", max(1, event.branches // 50)
        )
        self.scheduler.external_delay(event.cycles)
        # Cache pollution: the handler touches kernel lines.
        for _ in range(event.cache_lines_touched):
            physical = self.rng.randrange(0, 1 << 24) & ~0x3F
            self.hierarchy.access(physical, is_prefetch=True)
        self._update_clock_metrics()

    def inject_interference(self, event) -> None:
        """Apply an externally generated interference event (runner use)."""
        self._apply_interference_event(event)

    # ==================================================================
    # SMT sibling contention (Section IV-A2)
    # ==================================================================
    def enable_smt(self) -> None:
        self.smt_enabled = True

    def disable_smt(self) -> None:
        """The equivalent of the repository's disable-hyperthreading
        script: the sibling thread goes away."""
        self.smt_enabled = False

    def _apply_smt_contention(self) -> None:
        """Per-instruction perturbation by the sibling hardware thread.

        The sibling steals issue/execution slots (an occasional extra
        cycle) and cache space (an occasional line of pollution).
        """
        if self._smt_rng.random() < 0.15:
            self.scheduler.external_delay(1)
        if self._smt_rng.random() < 0.02:
            physical = self._smt_rng.randrange(0, 1 << 22) & ~0x3F
            self.hierarchy.access(physical, is_prefetch=True)

    # ------------------------------------------------------------------
    def _decode(self, instr: Instruction) -> list:
        """Decode-cache entry for *instr* (flow now, timing lazily)."""
        cache = self._decode_cache
        if len(cache) >= (1 << 16):
            cache.clear()
        entry = [instr, analyze(instr), None, True]
        cache[id(instr)] = entry
        return entry

    def _decode_timing(self, instr: Instruction, entry: list):
        """Fill the timing half of a decode entry (first timed use)."""
        timing = self.timing_table.lookup(instr)
        flow = entry[1]
        spec = instr.spec
        entry[2] = timing
        entry[3] = bool(
            flow.loads or flow.stores
            or timing.is_fence or timing.microcoded or timing.latency_jitter
            or spec.is_branch or spec.privileged or spec.serializing
            or spec.pseudo
            or instr.mnemonic in _FAST_PATH_UNSAFE_MNEMONICS
        )
        return timing

    def run_program(
        self,
        program: Program,
        *,
        kernel_mode: bool = False,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        unroll_region: Optional[Tuple[int, int, int]] = None,
    ) -> int:
        """Execute *program* to completion; returns instructions retired.

        ``unroll_region`` (from :class:`~repro.core.codegen
        .GeneratedCode`) marks the unrolled benchmark body; when the
        fast path is enabled, the core detects a periodic steady state
        across its iteration boundaries and bulk-replays the recorded
        deltas instead of re-running the per-µop dispatch loop.  Replay
        is byte-identical to exact execution by construction — any
        fence, memory plan, microcode, branch, interrupt or state
        divergence falls back to exact scheduling.
        """
        self._kernel_mode = kernel_mode
        executed = 0
        pc = 0
        instructions = program.instructions
        decode_cache = self._decode_cache
        fast = None
        if (
            unroll_region is not None
            and self.fast_path_enabled
            and self.timing_enabled
            and not self.smt_enabled
        ):
            fast = _UnrollFastPath(self, unroll_region, max_instructions)
        while pc < len(instructions):
            if fast is not None and pc == fast.next_boundary:
                skipped = fast.on_boundary(pc, executed)
                if skipped:
                    executed += skipped
                    pc += skipped
                    continue
            instr = instructions[pc]
            mnemonic = instr.mnemonic
            # nanoBench magic sequences toggle counting directly when
            # they reach the core unreplaced.
            if mnemonic == "PAUSE_COUNTING":
                self._update_clock_metrics()
                self.pmu.pause_counting()
                if fast is not None:
                    fast.dirty = True
                pc += 1
                continue
            if mnemonic == "RESUME_COUNTING":
                self._update_clock_metrics()
                self.pmu.resume_counting()
                if fast is not None:
                    fast.dirty = True
                pc += 1
                continue

            entry = decode_cache.get(id(instr))
            if entry is None or entry[0] is not instr:
                entry = self._decode(instr)
            flow = entry[1]
            metrics = self.metrics
            if self.timing_enabled:
                timing = entry[2]
                if timing is None:
                    timing = self._decode_timing(instr, entry)
                if flow.loads or flow.stores:
                    loads, stores = self._plan_memory_accesses(instr, flow)
                else:
                    loads = stores = ()

                branch_taken: Optional[bool] = None
                branch_site = None
                if instr.spec.is_branch:
                    branch_site = pc
                    if mnemonic == "JMP":
                        branch_taken = True
                    else:
                        branch_taken = semantics._condition_holds(
                            self.regs, mnemonic[1:]
                        )

                scheduled = self.scheduler.schedule(
                    timing,
                    sources=flow.sources,
                    destinations=flow.destinations,
                    loads=loads,
                    stores=stores,
                    branch_site=branch_site,
                    branch_taken=branch_taken,
                )
                if fast is not None and entry[3]:
                    fast.dirty = True

                # --- counter updates
                metrics.add("instructions_retired")
                metrics.add("uops_issued", scheduled.issued_uops)
                for port, count in scheduled.dispatched.items():
                    metrics.add("uops_port_%s" % port, count)
                if instr.spec.is_branch:
                    metrics.add("branches")
                    if scheduled.mispredicted:
                        metrics.add("branch_mispredicts")
                if timing.microcoded:
                    # Microcoded instructions drain before later µops
                    # dispatch (RDMSR, CPUID, WBINVD are effectively
                    # pipeline barriers on real hardware).
                    self.scheduler.serialize_after_microcode(
                        scheduled.complete_cycle
                    )
                if self.smt_enabled:
                    self._apply_smt_contention()
                self._update_clock_metrics()
                if self._apply_interrupts() and fast is not None:
                    fast.dirty = True
            else:
                # Fast functional mode: exact cache behaviour and event
                # counts, no cycle accounting.
                if flow.loads or flow.stores:
                    self._plan_memory_accesses(instr, flow)
                metrics.add("instructions_retired")
                if instr.spec.is_branch:
                    metrics.add("branches")

            # --- functional execution
            target = semantics.execute(self, instr)
            executed += 1
            if executed > max_instructions:
                # Structured watchdog trip (a RunawayBenchmarkError is an
                # ExecutionError, preserving the historical contract).
                raise RunawayBenchmarkError(
                    "instruction budget exceeded (%d)" % (max_instructions,),
                    budget="instructions", limit=max_instructions,
                    progress={
                        "instructions_executed": executed,
                        "cycles": self.scheduler.now,
                        "uops_issued": self.scheduler.issued_uops,
                        "pc": pc,
                    },
                )
            if target is not None:
                pc = program.labels[target]
            else:
                pc += 1
        self._update_clock_metrics()
        stats = self.sim_stats
        stats.instructions += executed
        if fast is not None:
            stats.fast_path_instructions += fast.replayed_instructions
            stats.fast_path_iterations += fast.replayed_iterations
            stats.fast_path_replays += fast.replays
            stats.fallbacks += fast.fallbacks
        return executed

    # ------------------------------------------------------------------
    def reset_timing(self) -> None:
        """Start a fresh timing epoch (new benchmark process).

        The cycle counters stay monotone across epochs.
        """
        self._cycle_base += self.scheduler.now
        self.scheduler.reset()

    @property
    def current_cycle(self) -> int:
        return self._cycle_base + self.scheduler.now


class _UnrollFastPath:
    """Steady-state detection and bulk replay over one unrolled body.

    The unrolled benchmark body repeats the same instruction objects
    ``copies`` times.  At each iteration boundary the tracker records
    the scheduler's *normalized* state signature
    (:meth:`Scheduler.steady_state`); when the signature at boundary
    ``j`` equals the one at boundary ``j - p`` (and the per-period
    deltas pass the soundness guards documented there), the scheduler
    state — and therefore the next ``p`` iterations' cycle/µop/port
    deltas — is provably periodic, and the remaining whole periods are
    applied in bulk (:meth:`Scheduler.apply_steady_delta`) instead of
    re-running the per-µop dispatch loop.

    Byte-identity guards (any of these keeps execution exact):

    * an iteration touching memory, fences, microcode, latency jitter,
      branches, privileged/serializing/pseudo instructions, or
      value-dependent faults (DIV/IDIV) marks the window *dirty* and
      resets detection;
    * an interference event firing does the same, and replay is capped
      so the replayed clock stays strictly below the next armed
      interrupt, so the exact tail polls it identically;
    * replay is capped below the cycle/µop/instruction watchdog budgets
      so a runaway trips at the identical instruction in the exact tail;
    * the body must not clobber registers read outside the region
      (checked statically in codegen — otherwise no region is emitted).
    """

    #: Consecutive period confirmations (matching signature *and*
    #: matching per-period deltas) required before replay engages.
    CONFIRMATIONS = 2
    #: Cap on distinct boundary signatures tracked before giving up.
    MAX_SIGNATURES = 128

    __slots__ = (
        "core", "start", "body_len", "copies", "end", "max_instructions",
        "next_boundary", "dirty", "seq", "sigs", "candidate", "confirms",
        "replayed_instructions", "replayed_iterations", "replays",
        "fallbacks", "_port_metric_names",
    )

    def __init__(self, core: SimulatedCore,
                 region: Tuple[int, int, int],
                 max_instructions: int) -> None:
        self.core = core
        self.start, self.body_len, self.copies = region
        self.end = self.start + self.body_len * self.copies
        self.max_instructions = max_instructions
        self.next_boundary = self.start
        self.dirty = False
        self.seq = 0
        self.sigs: Dict[tuple, Tuple[int, tuple]] = {}
        self.candidate: Optional[tuple] = None
        self.confirms = 0
        self.replayed_instructions = 0
        self.replayed_iterations = 0
        self.replays = 0
        self.fallbacks = 0
        self._port_metric_names = tuple(
            "uops_port_%s" % port for port in core.layout.ports
        )

    # ------------------------------------------------------------------
    def _reset_detection(self, *, count_fallback: bool) -> None:
        if count_fallback and (self.sigs or self.candidate is not None):
            self.fallbacks += 1
        self.sigs.clear()
        self.candidate = None
        self.confirms = 0

    def on_boundary(self, pc: int, executed: int) -> int:
        """Process an iteration boundary; returns instructions to skip."""
        self.seq += 1
        if pc >= self.end:
            # Region exit; re-arm for a potential loop re-entry.  The
            # loop's SUB/JNZ marks the window dirty, so detection
            # restarts cleanly each pass.
            self.next_boundary = self.start
            return 0
        self.next_boundary = pc + self.body_len
        if self.dirty:
            self.dirty = False
            self._reset_detection(count_fallback=True)
            return 0
        scheduler = self.core.scheduler
        sig, snap = scheduler.steady_state()
        entry = self.sigs.get(sig)
        self.sigs[sig] = (self.seq, snap)
        if entry is None:
            if len(self.sigs) > self.MAX_SIGNATURES:
                self._reset_detection(count_fallback=True)
            else:
                self.candidate = None
                self.confirms = 0
            return 0
        seq0, snap0 = entry
        period = self.seq - seq0
        frontier_delta = snap[0] - snap0[0]
        max_delta = snap[1] - snap0[1]
        uop_delta = snap[2] - snap0[2]
        high0, high1 = snap0[4], snap[4]
        if high0 is None and high1 is None:
            high_delta = frontier_delta
        elif high0 is None or high1 is None:
            high_delta = -1  # band population changed: reject below
        else:
            high_delta = high1 - high0
        # Periods that stay exact:
        # * no forward progress (degenerate frontier/µop/clock deltas);
        # * a high group falling back toward the frontier — its entries
        #   would drift between bands mid-replay;
        # * a shift differential without separation margin: the
        #   smallest high entry must exceed anything a frontier-paced
        #   computation can reach within one period (the low horizon
        #   plus the frontier advance plus the period's total
        #   dispatched latency) so no max() race can flip.
        if (
            frontier_delta < 1
            or uop_delta < 1
            or max_delta < 1
            or high_delta < frontier_delta
        ):
            self.candidate = None
            self.confirms = 0
            return 0
        if high_delta > frontier_delta:
            margin = (STEADY_LOW_HORIZON + frontier_delta
                      + (snap[5] - snap0[5]))
            if high1 - snap[0] <= margin:
                self.candidate = None
                self.confirms = 0
                return 0
        # Heavy-band port loads: a tie-break against a lightly loaded
        # sibling can only flip if the sibling takes more in-window
        # dispatches than the heavy port's lead; the per-period µop
        # count bounds those dispatches.
        load_margin0, load_margin1 = snap0[6], snap[6]
        if load_margin0 is not None or load_margin1 is not None:
            if (
                load_margin0 is None
                or load_margin1 is None
                or uop_delta >= min(load_margin0, load_margin1)
            ):
                self.candidate = None
                self.confirms = 0
                return 0
        port_delta = tuple(a - b for a, b in zip(snap[3], snap0[3]))
        key = (period, frontier_delta, high_delta, max_delta, uop_delta,
               port_delta)
        if key == self.candidate:
            self.confirms += 1
        else:
            self.candidate = key
            self.confirms = 1
        if self.confirms < self.CONFIRMATIONS:
            return 0
        return self._replay(pc, executed, key)

    # ------------------------------------------------------------------
    def _replay(self, pc: int, executed: int, key: tuple) -> int:
        (period, frontier_delta, high_delta, max_delta, uop_delta,
         port_delta) = key
        core = self.core
        scheduler = core.scheduler
        per_period_instr = period * self.body_len
        periods = ((self.end - pc) // self.body_len) // period
        if periods > 0:
            periods = min(
                periods,
                (self.max_instructions - executed) // per_period_instr,
            )
        if periods > 0 and scheduler.uop_budget is not None:
            periods = min(
                periods,
                (scheduler.uop_budget - scheduler._issued_uops) // uop_delta,
            )
        if periods > 0 and scheduler.cycle_budget is not None:
            periods = min(
                periods,
                (scheduler.cycle_budget - scheduler._max_complete)
                // max_delta,
            )
        if periods > 0 and core._interrupts_enabled and \
                core.interference.enabled:
            next_fire = core.interference.next_fire()
            if next_fire is None:
                # Not yet armed; arming consumes RNG, so stay exact.
                return 0
            rel_fire = next_fire - core._cycle_base
            headroom = rel_fire - scheduler._max_complete
            periods = min(periods, int(headroom // max_delta))
            while periods > 0 and (
                scheduler._max_complete + periods * max_delta >= rel_fire
            ):
                periods -= 1
        if periods <= 0:
            # Capped out (budget/interrupt horizon): detection stays
            # armed and retries at the next boundary.
            return 0

        scheduler.apply_steady_delta(periods, frontier_delta, high_delta,
                                     max_delta, uop_delta, port_delta)
        skipped = periods * per_period_instr
        metrics = core.metrics
        metrics.add("instructions_retired", skipped)
        metrics.add("uops_issued", periods * uop_delta)
        names = self._port_metric_names
        for i, delta in enumerate(port_delta):
            if delta:
                metrics.add(names[i], periods * delta)
        core._update_clock_metrics()

        self.replayed_instructions += skipped
        self.replayed_iterations += periods * period
        self.replays += 1
        # The stored absolute snapshots are stale after the bulk jump;
        # restart detection from the post-replay boundary.
        self._reset_detection(count_fallback=False)
        self.next_boundary = pc + skipped
        return skipped
