"""Run one benchmark workload and print its metrics (see README.md).

    python3 repobench/run.py --workload instr_sim --seed 1 --seconds 25

Prints a reproducibility header (lines starting with ``#``) and, as the
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

import time

# setup_s counts from here: before anything imports repro.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.core import codecache  # noqa: E402

#: Set-ups per run: this process plus fresh child processes that stop
#: after set-up; setup_s is their median.
SETUP_REPEATS = 5

#: A timed phase stops early (and says so) past this many times
#: --seconds, so that even a traced run (two phases) ends in time.
CAP_FACTOR = 3.0
CAP_SECONDS = 75.0


def declared(values, section):
    """The metrics with their units from one section of
    ``BENCHMARK.json``, in its order; the names must match exactly."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in config[section]}
    if set(values) != set(units):
        raise ValueError("metrics %s differ from BENCHMARK.json %s: %s"
                         % (sorted(values), section,
                            sorted(set(values) ^ set(units))))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {\"setup_s\": ...} and exit")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
def timed_phase(workload, seconds, tracer=None):
    """Run the op list closed-loop; returns per-op seconds, the phase's
    host seconds, whether the cap cut it short, and the ops that
    raised."""
    cap = min(CAP_FACTOR * seconds, CAP_SECONDS)
    times = []
    errors = []
    started = time.perf_counter()
    for index, op in enumerate(workload.ops):
        token = None
        if tracer is not None:
            tracer.op_index = index
            token = tracer.begin("op")
            tracer.op_span = token[1]
        op_started = time.perf_counter()
        try:
            workload.run_op(op)
        except Exception as exc:  # noqa: BLE001 — one failed op, keep going
            errors.append("op %d: %s: %s" % (index, type(exc).__name__, exc))
        times.append(time.perf_counter() - op_started)
        if tracer is None:
            workload.after_op()
        else:
            tracer.end(token)
            tracer.op_span = tracer.op_index = None
            tracer.active = False
            workload.after_op()
            tracer.active = True
        if ((index + 1) % workload.group_size == 0
                and time.perf_counter() - started > cap):
            break
    elapsed = time.perf_counter() - started
    return times, elapsed, len(times) < len(workload.ops), errors


def tail_rank(n):
    """Index (in ascending order) of the highest percentile with at
    least 10 samples beyond it, or the maximum for short runs."""
    return max(0, n - 11)


def tail_line(n):
    return "tail is p%.1f with %d samples beyond it (n=%d)" % (
        100.0 * tail_rank(n) / n, n - 1 - tail_rank(n), n)


def op_metrics(times, elapsed):
    ordered = sorted(times)
    return {
        "ops_per_s": len(times) / elapsed,
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": ordered[tail_rank(len(ordered))] * 1e3,
    }


def knee_lines(times):
    """Where the p50 and tail ranks fall in the sorted op times: the
    values a few ranks either side, and how far the value moves across
    +-2 % of the ranks (a knee shows up as a large move)."""
    ordered = [t * 1e3 for t in sorted(times)]
    n = len(ordered)
    width = max(2, n // 50)
    lines = []
    for label, rank in (("p50", n // 2), ("tail", tail_rank(n))):
        low = ordered[max(0, rank - width)]
        high = ordered[min(n - 1, rank + width)]
        around = ordered[max(0, rank - 2):rank + 3]
        lines.append(
            "%s rank %d/%d (p%.1f): %s ms; rank +-%d spans %.2f-%.2f ms "
            "(%+.1f%%)" % (label, rank, n, 100.0 * rank / n,
                           " ".join("%.2f" % v for v in around), width,
                           low, high, 100.0 * (high - low) / ordered[rank]))
    return lines


def cpu_ticks():
    """``(stolen, busy, ours)`` clock ticks so far: the machine's time
    stolen by the hypervisor and its non-idle time from ``/proc/stat``,
    and this process's CPU time; None where ``/proc/stat`` is missing."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
    except OSError:
        return None
    own = os.times()
    ours = (own.user + own.system) * os.sysconf("SC_CLK_TCK")
    return fields[7], sum(fields) - fields[3] - fields[4] - fields[7], ours


def host_load_line(before, after, elapsed):
    """How busy the machine was during the timed phase, as shares of
    all its CPUs' time; steal and other processes slow a run down."""
    if before is None or after is None:
        return "host load: /proc/stat unavailable"
    stolen, busy, ours = (b - a for a, b in zip(before, after))
    capacity = elapsed * os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1)
    return ("host load during the timed phase (share of %d CPUs): steal "
            "%.1f%%, other processes %.1f%%, this process %.1f%%" % (
                os.cpu_count() or 1, 100.0 * stolen / capacity,
                100.0 * max(0.0, busy - ours) / capacity,
                100.0 * ours / capacity))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_setup_seconds(args):
    """Set-up time of one fresh process running the same workload."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ----------------------------------------------------------------------
def host_header(args, workload):
    sha = "none (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10,
            check=True).stdout.split()
        if Path(top).resolve() == ROOT:  # not a repository around it
            sha = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(path.relative_to(ROOT).as_posix().encode())
            source.update(path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    ops = hashlib.sha256(json.dumps(
        [workload.describe(op) for op in workload.ops]).encode())
    return [
        "workload %s seed %d seconds %g trace %d"
        % (args.workload, args.seed, args.seconds, args.trace),
        "git %s; src/repro sha256 %s" % (sha, source.hexdigest()[:16]),
        "host nproc %s; cpu %s; python %s"
        % (os.cpu_count(), cpu, platform.python_version()),
        "op list: %d ops, sha256 %s" % (len(workload.ops),
                                        ops.hexdigest()[:16]),
    ]


def judge(workload, errors):
    """(ok count, exact count, problems) over the attempted ops."""
    verdicts, problems = workload.verdicts()
    problems = errors + problems
    ok = sum(1 for good, _ in verdicts if good)
    exact = sum(1 for _, same in verdicts if same)
    if workload.exact_required and exact < len(verdicts):
        problems.append("%d of %d ops differ from the reference"
                        % (len(verdicts) - exact, len(verdicts)))
    return ok, exact, problems


def run_untraced(args):
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    workload.setup()
    setups = [time.perf_counter() - _STARTED]
    ticks = cpu_ticks()
    times, elapsed, cut, errors = timed_phase(workload, args.seconds)
    load = host_load_line(ticks, cpu_ticks(), elapsed)
    ok, exact, problems = judge(workload, errors)
    workload.close()
    header = host_header(args, workload)
    rss = peak_rss_mb()
    setups += [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    n = len(times)
    metrics = dict(op_metrics(times, elapsed),
                   setup_s=statistics.median(setups),
                   ok_frac=ok / n, exact_frac=exact / n, peak_rss_mb=rss)
    header.append(load)
    header += knee_lines(times)
    header.append(tail_line(n))
    header.append("setup_s samples: %s" % " ".join("%.3f" % s
                                                    for s in setups))
    if cut:
        header.append("CUT: the cap stopped the run after %d of %d ops"
                      % (n, len(workload.ops)))
    metrics = declared(metrics, "end_to_end")
    for name, metric in metrics.items():
        header.append("%-12s %.6g %s" % (name, metric["value"],
                                         metric["unit"]))
    return header, n, ok, problems, metrics


def run_traced(args):
    """An untraced pass, then a traced pass of the same op list on a
    fresh set-up; the difference between them is the tracing overhead."""
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    workload.setup()
    base_times, base_elapsed, _, errors = timed_phase(workload, args.seconds)
    _, _, base_problems = judge(workload, errors)
    workload.close()

    codecache.clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
        workload.setup()
        before = codecache.cache_stats()
        tracer.active = True
        times, elapsed, cut, errors = timed_phase(workload, args.seconds,
                                                  tracer)
        tracer.active = False
        after = codecache.cache_stats()
        ok, _, problems = judge(workload, errors)
        workload.close()
    finally:
        tracer.active = False
        tracer.uninstall()
    header = host_header(args, workload)
    delta = {kind: {key: after[kind][key] - before[kind].get(key, 0)
                    for key in ("lookups", "hits")} for kind in after}
    metrics = tracing.layer_metrics(tracer, delta)
    metrics["trace.overhead_pct"] = 100.0 * (elapsed / base_elapsed - 1.0)

    out_dir = ROOT / ".repobench"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / ("trace-%s-seed%d.json"
                            % (args.workload, args.seed))
    tracer.write_chrome_trace(str(trace_path))

    base, traced = (op_metrics(base_times, base_elapsed),
                    op_metrics(times, elapsed))
    header.append("tracing overhead (untraced -> traced):")
    for name in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
        header.append("  %-10s %.4g -> %.4g (%+.1f%%)" % (
            name, base[name], traced[name],
            100.0 * (traced[name] / base[name] - 1.0)))
    header.append(tail_line(len(times)))
    header.append("trace written to %s (open in ui.perfetto.dev)"
                  % trace_path.relative_to(ROOT))
    if cut:
        header.append("CUT: the cap stopped the traced pass after %d of %d "
                      "ops" % (len(times), len(workload.ops)))
    metrics = declared(metrics, "per_layer")
    for name, metric in metrics.items():
        header.append("%-36s %.6g %s" % (name, metric["value"],
                                         metric["unit"]))
    return header, len(times), ok, base_problems + problems, metrics


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    run = run_traced if args.trace else run_untraced
    header, attempted, ok, problems, metrics = run(args)
    for line in header:
        print("# " + line)
    for problem in problems[:20]:
        print("# CHECK FAILED: " + problem)
    print(json.dumps({
        "correct": not problems and ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
