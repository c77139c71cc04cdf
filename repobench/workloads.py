"""The three benchmark workloads and the checks on their outputs.

Each workload turns ``(seed, seconds)`` into a fixed op list, so the
same arguments always give the same inputs; the program sees only the
generated specs and sequences.  ``seconds`` sets the op count through a
nominal rate of the workload, chosen so that one run of the op list
takes about that long on the reference host.  Every workload exposes:

* ``ops`` and ``describe(op)`` — the op list and a JSON-able
  description of one op (hashed into the run's op-list digest);
* ``group_size`` — ops judged together (a run only stops between
  groups);
* ``setup()`` — build the machine state and warm it up with inputs
  that are not in the op list;
* ``run_op(op)`` — one closed-loop op (the timed unit);
* ``after_op()`` — untimed bookkeeping right after an op;
* ``verdicts()`` — per attempted op ``(ok, exact)`` plus a list of
  failed checks, computed after the timed phase;
* ``close()`` — release everything ``setup()`` made.

Outputs are checked against committed results that the benchmark only
reads: the E6 Skylake instruction table and the E7 Table I policies in
``benchmarks/results/``.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.batch import BatchResult, BatchRunner
from repro.core.nanobench import NanoBench
from repro.memory.replacement import make_policy, simulate_hits
from repro.server import JobQueue
from repro.server.jobs import DONE
from repro.server.queue import job_results_payload
from repro.store import ResultStore
from repro.tools.cache import (
    Access,
    AccessSequence,
    CacheSeq,
    disable_prefetchers,
    random_access_sequence,
)
from repro.tools.instr import (
    corpus_for_family,
    profile_from_results,
    profiles_to_table,
    variant_specs,
)
from repro.uarch.specs import get_spec

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

#: Nominal rates on the reference host (2-CPU x86 container, Python
#: 3.11): they turn ``--seconds`` into a fixed op count.
#: instr_sim runs 61 variants per 25 s, not 62: with 62 the tail rank
#: (11th-slowest op) falls in the gap between the ~230 ms port specs
#: of vector rows and the ten slowest ops (~285 ms and up).
INSTR_VARIANTS_PER_S = 61 / 25  # 4 ops each
CACHE_ROUNDS_PER_S = 9.0      # 9 ops each (one per cache target)
SERVICE_PASSES_PER_S = 7 / 25  # corpus passes, one block of 4 jobs each

#: Poll interval of the service client, short against a ~1.3 ms hit job.
POLL_S = 0.0001

#: A service job not done after this long fails its op; the slowest
#: jobs (sim escalations and audits) take under 0.5 s, and a run whose
#: worker died still ends within the timed phase's cap plus one timeout.
JOB_TIMEOUT_S = 15.0

#: How long closing the service workload waits for the worker thread.
DRAIN_TIMEOUT_S = 10.0


# ----------------------------------------------------------------------
# Committed references
# ----------------------------------------------------------------------
def parse_table(text: str) -> List[List[str]]:
    """The rows of a ``repro.core.output.format_table`` table, whose
    columns are delimited by the runs of dashes under the header."""
    lines = text.splitlines()
    dash_at = next(i for i, line in enumerate(lines)
                   if line.strip() and set(line.strip()) <= {"-", " "})
    columns = [m.span() for m in re.finditer(r"-+", lines[dash_at])]
    rows = []
    for line in lines[dash_at + 1:]:
        if not line.strip():
            break
        rows.append([line[start:end].strip()
                     if index < len(columns) - 1 else line[start:].strip()
                     for index, (start, end) in enumerate(columns)])
    return rows


def e6_reference() -> Dict[str, Tuple[str, ...]]:
    """E6 Skylake table rows keyed by instruction variant name."""
    text = (RESULTS / "E6_instruction_table_Skylake.txt").read_text()
    return {row[0]: tuple(row) for row in parse_table(text)}


def profile_row(profile) -> Tuple[str, ...]:
    """A profile rendered exactly as the E6 table renders it."""
    return tuple(parse_table(profiles_to_table([profile]))[0])


def table1_reference(uarch: str, level: int, set_index: int) -> str:
    """The Table I policy of one cache level from the committed E7
    table; for an adaptive L3, the policy of the dedicated sets that
    start at *set_index*."""
    text = (RESULTS / ("E7_table1_%s.txt" % uarch)).read_text()
    row = parse_table(text)[level - 1]
    paper, measured = row[3], row[4]
    if paper != "adaptive":
        return paper
    match = re.search(r"sets %d-\d+: (\w+)" % set_index, measured)
    if match is None:
        raise ValueError("no dedicated-set policy for %s L%d set %d"
                         % (uarch, level, set_index))
    return match.group(1)


def sweep_variants():
    """The E6 sweep minus the kernel-only rows, in corpus order."""
    return [v for v in corpus_for_family("SKL") if not v.kernel_only]


def warmup_specs():
    """Specs used only to warm up: a kernel-only variant at spec seed 0,
    which no op list contains."""
    variant = next(v for v in corpus_for_family("SKL") if v.kernel_only)
    return variant_specs(variant, seed=0, backend="sim")


# ----------------------------------------------------------------------
# instr_sim — case study I on the exact simulator
# ----------------------------------------------------------------------
class InstrSim:
    """One op is one E6 spec through ``BatchRunner(1)``.

    The variant set is an even, seed-independent spread over the sweep,
    so every seed measures the same work; the seed orders the variants.
    The four ops of a variant run back to back and are judged together.
    """

    name = "instr_sim"
    exact_required = True
    group_size = 4

    def __init__(self, seed: int, seconds: float,
                 reference: Optional[Dict[str, Tuple[str, ...]]] = None):
        variants = sweep_variants()
        count = max(1, min(len(variants),
                           round(seconds * INSTR_VARIANTS_PER_S)))
        chosen = [variants[i * len(variants) // count] for i in range(count)]
        random.Random(seed).shuffle(chosen)
        self.ops = [(variant, spec) for variant in chosen
                    for spec in variant_specs(variant, seed=1,
                                              backend="sim")]
        self.reference = e6_reference() if reference is None else reference
        self.results: List[BatchResult] = []

    def describe(self, op) -> list:
        return [op[1].label, op[1].seed]

    def setup(self) -> None:
        self.runner = BatchRunner(1)
        self.runner.run(warmup_specs())

    def run_op(self, op) -> None:
        self.results.append(None)  # stays None if the op raises
        self.results[-1] = self.runner.run([op[1]])[0]

    def after_op(self) -> None:
        pass

    def verdicts(self) -> Tuple[List[Tuple[bool, bool]], List[str]]:
        out = []
        problems = []
        for start in range(0, len(self.results), 4):
            group = self.results[start:start + 4]
            variant = self.ops[start][0]
            exact = False
            if len(group) == 4 and None not in group:
                row = profile_row(profile_from_results(variant, group))
                exact = row == self.reference.get(variant.name)
                if not exact:
                    problems.append("%s: got %s, E6 has %s" % (
                        variant.name, row, self.reference.get(variant.name)))
            out.extend((result is not None and result.ok, exact)
                       for result in group)
        return out, problems

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# cache_seq — case study II, one cacheSeq probe per op
# ----------------------------------------------------------------------
#: (uarch, level): Skylake and Nehalem cover PLRU, QLRU and MRU; the
#: Haswell L3 probes a dedicated set of its adaptive policy.
CACHE_TARGETS = tuple((uarch, level) for uarch in
                      ("Skylake", "Nehalem", "Haswell") for level in (1, 2, 3))

#: The sets ``survey_cpu`` studies per level: (set index, slice).
SURVEY_SETS = {1: (5, None), 2: (17, None), 3: (100, 0)}


def _probe_location(uarch: str, level: int) -> Tuple[int, Optional[int]]:
    spec = get_spec(uarch)
    dueling = spec.l3.dueling if level == 3 else None
    if dueling is None:
        return SURVEY_SETS[level]
    dedicated = dueling.dedicated_a[0]
    slice_id = dedicated.slices[0] if dedicated.slices is not None else 0
    return dedicated.first_set, slice_id


class CacheSeqWorkload:
    """One op is one ``CacheSeq.run`` of a seeded random sequence, every
    access measured, WBINVD first, on a kernel-mode core per uarch.

    Ops come in rounds that visit each of the nine targets once in a
    seeded order, so every prefix of the op list has the same mix.
    """

    name = "cache_seq"
    exact_required = True
    group_size = 1

    def __init__(self, seed: int, seconds: float,
                 reference: Optional[Dict[Tuple[str, int], str]] = None):
        self.targets = []
        for uarch, level in CACHE_TARGETS:
            set_index, slice_id = _probe_location(uarch, level)
            geometry = getattr(get_spec(uarch), "l%d" % level)
            self.targets.append((uarch, level, set_index, slice_id,
                                 geometry.associativity))
        if reference is None:
            reference = {(t[0], t[1]): table1_reference(t[0], t[1], t[2])
                         for t in self.targets}
        self.reference = reference
        rng = random.Random(seed)
        rounds = max(1, round(seconds * CACHE_ROUNDS_PER_S))
        self.ops = []
        for _ in range(rounds):
            order = list(range(len(self.targets)))
            rng.shuffle(order)
            for target in order:
                blocks = random_access_sequence(rng, self.targets[target][4])
                self.ops.append((target, tuple(blocks)))
        self.hits: List[Optional[int]] = []

    def describe(self, op) -> list:
        return list(self.targets[op[0]][:4]) + [" ".join(op[1])]

    def setup(self) -> None:
        cores = {}
        for uarch, _ in CACHE_TARGETS:
            if uarch in cores:
                continue
            nb = NanoBench.create(uarch, seed=0, kernel_mode=True)
            if not disable_prefetchers(nb.core):
                raise RuntimeError("cannot disable prefetchers on " + uarch)
            nb.core.timing_enabled = False
            nb.resize_r14_buffer(128 << 20)
            cores[uarch] = nb
        self.probes = [CacheSeq(cores[uarch], level=level)
                       for uarch, level, _, _, _ in self.targets]
        warm = random.Random("warm-up")
        for index, target in enumerate(self.targets):
            self._probe(index, random_access_sequence(warm, target[4]))

    def _probe(self, index: int, blocks: Sequence[str]) -> int:
        _, _, set_index, slice_id, _ = self.targets[index]
        seq = AccessSequence(tuple(Access(b, True) for b in blocks),
                             wbinvd=True)
        return self.probes[index].run(seq, set_index=set_index,
                                      slice_id=slice_id).hits

    def run_op(self, op) -> None:
        self.hits.append(None)
        self.hits[-1] = self._probe(*op)

    def after_op(self) -> None:
        pass

    def verdicts(self) -> Tuple[List[Tuple[bool, bool]], List[str]]:
        out = []
        problems = []
        for (target, blocks), hits in zip(self.ops, self.hits):
            uarch, level, _, _, assoc = self.targets[target]
            policy = self.reference[(uarch, level)]
            expected = simulate_hits(make_policy(policy, assoc), blocks)
            exact = hits == expected
            if hits is not None and not exact:
                problems.append("%s L%d %s: %d hits, %s model gives %d" % (
                    uarch, level, " ".join(blocks), hits, policy, expected))
            out.append((hits is not None, exact))
        return out, problems

    def close(self) -> None:
        self.probes = []


# ----------------------------------------------------------------------
# service_mixed — reads beside writes through the job queue
# ----------------------------------------------------------------------
class ServiceMixed:
    """One op is one block of four characterization jobs, each submit to
    DONE, through an in-process ``JobQueue(route_specs=True)`` over a
    fresh store.

    The store and the job journal run without fsync: on the reference
    host, fsync latency alone moved the hit-job median between 2 and
    4.4 ms from one run to the next (1.1-1.3 ms without it), more than
    any bound the benchmark may set.

    A block holds one fresh job (the next variant of a seeded corpus
    pass; pass *k* uses spec seed *k*) and three jobs that repeat a
    variant already served in this run, in a seeded order.  A block,
    not a job, is the timed unit: a lone store-hit job is mostly the
    hand-off between the client and the worker thread, whose wake-up
    latency follows the host's steal time, so per-job medians drift
    with the host rather than with the program.  The fresh job is the
    block's answer, judged against E6; the values each job returns are
    read right after its block, and a repeat must equal what the first
    serving returned.
    """

    name = "service_mixed"
    exact_required = False
    group_size = 1

    def __init__(self, seed: int, seconds: float):
        self.variants = sweep_variants()
        self.reference = e6_reference()
        rng = random.Random(seed)
        fresh = max(1, round(seconds * SERVICE_PASSES_PER_S
                             * len(self.variants)))
        served: List[Tuple[int, int]] = []
        self.ops = []
        order: List[int] = []
        for made in range(fresh):
            if not order:
                order = list(range(len(self.variants)))
                rng.shuffle(order)
            fresh_at = 0 if not served else rng.randrange(4)
            block = []
            for slot in range(4):
                if slot == fresh_at:
                    key = (order.pop(), made // len(self.variants) + 1)
                    served.append(key)
                    block.append(("fresh",) + key)
                else:
                    block.append(("hit",) + rng.choice(served))
            self.ops.append(tuple(block))
        self.specs = {key: variant_specs(self.variants[key[0]], seed=key[1],
                                         backend="sim")
                      for key in set(served)}
        self.jobs: List[list] = []
        self.values: List[list] = []

    def describe(self, op) -> list:
        return [[kind, self.variants[index].name, seed]
                for kind, index, seed in op]

    def setup(self) -> None:
        workdir = ROOT / ".repobench"
        workdir.mkdir(parents=True, exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="service-", dir=str(workdir))
        self.store = ResultStore(self.store_dir, fsync=False)
        self.queue = JobQueue(self.store, route_specs=True, fsync=False)
        self.queue.start()
        self._wait(self.queue.submit("warm-up", warmup_specs()))

    def _wait(self, job):
        """Poll until *job* is DONE; past ``JOB_TIMEOUT_S`` raise, so a
        job that never finishes (a dead or stuck worker thread) fails
        its op instead of hanging the run."""
        deadline = time.perf_counter() + JOB_TIMEOUT_S
        while self.queue.job(job.job_id).state != DONE:
            if time.perf_counter() > deadline:
                raise TimeoutError("%s not done after %g s"
                                   % (job.job_id, JOB_TIMEOUT_S))
            time.sleep(POLL_S)
        return job

    def run_op(self, op) -> None:
        jobs: list = []
        self.jobs.append(jobs)
        for _, index, seed in op:
            jobs.append(self._wait(
                self.queue.submit("bench", self.specs[(index, seed)])))

    def after_op(self) -> None:
        self.values.append([[outcome["values"] for outcome in
                             job_results_payload(self.queue, job)["outcomes"]]
                            for job in self.jobs[-1]])

    def verdicts(self) -> Tuple[List[Tuple[bool, bool]], List[str]]:
        out = []
        problems = []
        first_served: Dict[Tuple[int, int], str] = {}
        for op, jobs, values in zip(self.ops, self.jobs, self.values):
            ok = len(jobs) == len(op)
            exact = False
            for (kind, index, seed), job, job_values in zip(op, jobs, values):
                job_ok = job.error is None and all(
                    outcome["ok"] for outcome in job.outcomes)
                ok = ok and job_ok
                serialized = json.dumps(job_values)
                key = (index, seed)
                if first_served.setdefault(key, serialized) != serialized:
                    problems.append("job %s (%s seed %d) returned values "
                                    "that differ from the first serving" % (
                                        job.job_id, self.variants[index].name,
                                        seed))
                if kind == "fresh" and job_ok:
                    results = [BatchResult(spec=spec, values=value or {},
                                           error=outcome["error"])
                               for spec, value, outcome
                               in zip(job.specs, job_values, job.outcomes)]
                    variant = self.variants[index]
                    exact = profile_row(profile_from_results(
                        variant, results)) == self.reference.get(variant.name)
            out.append((ok, ok and exact))
        return out, problems

    def close(self) -> None:
        self.queue.drain(timeout=DRAIN_TIMEOUT_S)
        self.store.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls
             for cls in (InstrSim, CacheSeqWorkload, ServiceMixed)}
