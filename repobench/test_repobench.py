"""Self-tests of the repository benchmark.

    python -m pytest repobench -q
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: A few ops per workload: one variant, four cache rounds, ten fresh jobs.
TINY_SECONDS = 0.4

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_tiny(workload):
    workload.setup()
    try:
        times, _, cut, errors = run.timed_phase(workload, TINY_SECONDS)
        ok, exact, problems = run.judge(workload, errors)
    finally:
        workload.close()
    assert not cut
    assert len(times) == len(workload.ops)
    return ok, exact, problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_op_list_passes_its_checks(name):
    workload = workloads.WORKLOADS[name](3, TINY_SECONDS)
    ok, exact, problems = _run_tiny(workload)
    assert problems == []
    assert ok == len(workload.ops)
    if workload.exact_required:
        assert exact == ok


def test_corrupted_e6_row_lowers_exact_frac():
    reference = workloads.e6_reference()
    workload = workloads.InstrSim(3, TINY_SECONDS, reference=reference)
    name = workload.ops[0][0].name
    reference[name] = (name, "99.00") + reference[name][2:]
    ok, exact, problems = _run_tiny(workload)
    assert ok == len(workload.ops)
    assert exact < ok
    assert any(name in problem for problem in problems)


def test_corrupted_policy_lowers_exact_frac():
    probe = workloads.CacheSeqWorkload(3, TINY_SECONDS)
    reference = dict(probe.reference)
    reference[("Skylake", 1)] = "FIFO"  # PLRU in Table I
    workload = workloads.CacheSeqWorkload(3, TINY_SECONDS,
                                          reference=reference)
    ok, exact, problems = _run_tiny(workload)
    assert ok == len(workload.ops)
    assert exact < ok
    assert problems


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_dead_queue_worker_fails_ops_instead_of_hanging(monkeypatch):
    workload = workloads.ServiceMixed(3, TINY_SECONDS)
    workload.setup()
    monkeypatch.setattr(workloads, "JOB_TIMEOUT_S", 0.3)
    try:
        def crash(job):
            raise OSError("journal device failed")
        workload.queue._run_job = crash
        times, _, _, errors = run.timed_phase(workload, TINY_SECONDS)
        ok, exact, problems = run.judge(workload, errors)
    finally:
        workload.close()
    assert ok == exact == 0 < len(times)
    assert all("TimeoutError" in error for error in errors)
    assert problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_list_digest_follows_the_seed(name):
    def digest(seed):
        workload = workloads.WORKLOADS[name](seed, 20)
        return json.dumps([workload.describe(op) for op in workload.ops])

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "repobench/run.py", *args], cwd=str(cwd),
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_cli_prints_every_declared_metric(trace, section):
    done = _run_cli("--workload", "cache_seq", "--seed", "5", "--seconds",
                    str(TINY_SECONDS), "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = [(m["name"], m["unit"]) for m in CONFIG[section]]
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert got == declared
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_fails_without_the_program():
    bare = ROOT / ".repobench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "repobench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = _run_cli("--workload", "instr_sim", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_subtracts_merged_children():
    spans = [
        (1, "parent", 0.0, 10.0, None, 0, 1),
        (2, "child", 1.0, 4.0, 1, 0, 1),
        (3, "child", 3.0, 5.0, 1, 0, 2),   # overlaps the first child
        (4, "grandchild", 1.5, 2.0, 2, 0, 1),
    ]
    total, self_time = tracing.span_times(spans)
    assert total["parent"] == pytest.approx(10.0)
    assert self_time["parent"] == pytest.approx(6.0)
    assert total["child"] == pytest.approx(5.0)
    assert self_time["child"] == pytest.approx(4.5)


def test_tracer_keeps_every_span_and_count_across_threads():
    tracer = tracing.Tracer()
    tracer.active = True
    threads, per_thread = 8, 2000
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(per_thread):
                outer = tracer.begin("outer")
                tracer.end(tracer.begin("inner"))
                tracer.count("calls")
                tracer.end(outer)

        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(previous)
    spans = tracer.spans()
    assert len(spans) == 2 * threads * per_thread
    assert len({span[0] for span in spans}) == len(spans)
    assert tracer.counts()["calls"] == threads * per_thread
    names = {span[0]: span[1] for span in spans}
    assert all(names[span[4]] == "outer" for span in spans
               if span[1] == "inner")
