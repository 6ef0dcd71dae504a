"""Benchmark of the figulat CLI, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one `figulat verify --format json-lines` call in a fresh
interpreter, so the package's caches start cold as they do for a user.
Load is closed-loop: one client, one op at a time. S sets the amount of
work, the ops that take about S seconds at the seed commit (see
`workloads`), so that every run, and the parent and the change, measure
the same op mix. Every op's output is checked here, with the benchmark's
own arithmetic.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 each op of the work for S/2 seconds runs twice, untraced and then
traced (see `layers`), and the last line carries the per-layer metrics,
summed over the traced runs.
Times are scaled to one nominal machine speed by a reference loop timed
between ops (see REFERENCE). The line before the last holds the run's
context: interpreter, CPU count, commit, seed, the ops attempted, the
failures by kind, the slowdown and the unscaled times.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

from checks import KINDS, classify, paper_mismatches
from layers import layer_metrics, merge
from workloads import DEFERRED, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# The console script's body: what `figulat ARGS` runs.
ENTRY = "import sys; from figulat.cli import main; sys.exit(main())"
# A call that does no work: interpreter start, `import figulat`, argparse.
SETUP_ARGV = ["table", "--kind", "stirling", "--m", "0"]
# A fixed pure-Python loop in a fresh interpreter, run between ops at most
# once per REFERENCE_EVERY_S, each time with one set-up call. The speed of
# a shared machine can drift by 1.6x over minutes, which no amount of work
# in one run averages out; times are scaled by REFERENCE_S over the run's
# median reference time, so that runs report seconds at one nominal speed.
REFERENCE = "x = 0\nfor i in range(500000):\n    x += i % 7"
REFERENCE_S = 0.1
REFERENCE_EVERY_S = 2.0
# Every run ends within this many seconds of its start, whatever an op does.
HARD_LIMIT_S = 170
OP_TIMEOUT_S = 120
TAIL_BEYOND = 10


@dataclass
class Child:
    elapsed: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    cpu_s: float
    timed_out: bool
    trace: bytes


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FIGULAT_MAX_POINTS")}
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv: list[str], timeout: float, traced: bool = False) -> Child:
    """Run figulat with `argv` in a new interpreter and wait for it to end."""
    if not traced:
        return execute([sys.executable, "-c", ENTRY, *argv], timeout)
    trace_read, trace_write = os.pipe()
    cmd = [sys.executable, os.path.join(BENCH, "traced_cli.py"), str(trace_write), *argv]
    return execute(cmd, timeout, (trace_read, trace_write))


def execute(cmd: list[str], timeout: float, trace_pipe=None) -> Child:
    """Run `cmd` and wait for it to end. The time runs from spawn to exit;
    peak RSS is the child's own. `trace_pipe` is a (read, write) pair whose
    write end the child inherits."""
    traced = trace_pipe is not None
    if traced:
        trace_read, trace_write = trace_pipe
    start = perf_counter()
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            pass_fds=(trace_write,) if traced else (),
        )
    finally:
        if traced:
            os.close(trace_write)
    out, err = proc.stdout.fileno(), proc.stderr.fileno()
    buffers = {out: bytearray(), err: bytearray()}
    if traced:
        buffers[trace_read] = bytearray()
    timed_out = False
    status = None
    try:
        with selectors.DefaultSelector() as selector:
            for fd in buffers:
                selector.register(fd, selectors.EVENT_READ)
            while selector.get_map():
                remaining = start + timeout - perf_counter()
                if remaining <= 0:
                    timed_out = True
                    break
                for key, _ in selector.select(remaining):
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        buffers[key.fd] += chunk
                    else:
                        selector.unregister(key.fd)
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - start
    finally:
        if status is None:
            proc.kill()
            os.wait4(proc.pid, 0)
        proc.returncode = -1  # reaped here; stops Popen from waiting again
        proc.stdout.close()
        proc.stderr.close()
        if traced:
            os.close(trace_read)
    return Child(
        elapsed, os.waitstatus_to_exitcode(status), bytes(buffers[out]),
        bytes(buffers[err]), usage.ru_maxrss, usage.ru_utime + usage.ru_stime, timed_out,
        bytes(buffers[trace_read]) if traced else b"",
    )


class Runner:
    """Runs ops against the hard time limit and checks each one."""

    def __init__(self):
        self.begin = perf_counter()
        self.reference_s = []
        self.setup_s = []
        self.setup_ok = True
        self._last_reference = None

    def timeout(self) -> float:
        return max(1.0, min(OP_TIMEOUT_S, HARD_LIMIT_S - (perf_counter() - self.begin)))

    def sample_speed(self) -> None:
        """Time the reference loop and the set-up call, at most once per
        REFERENCE_EVERY_S."""
        now = perf_counter()
        if self._last_reference is None or now - self._last_reference >= REFERENCE_EVERY_S:
            child = execute([sys.executable, "-c", REFERENCE], self.timeout())
            self.reference_s.append(child.elapsed)
            child = spawn(SETUP_ARGV, self.timeout())
            self.setup_s.append(child.elapsed)
            self.setup_ok &= child.returncode == 0 and not child.stdout and not child.timed_out
            self._last_reference = perf_counter()

    def slowdown(self) -> float:
        """The run's median reference time over its nominal time."""
        return statistics.median(self.reference_s) / REFERENCE_S

    def op(self, op, traced=False):
        self.sample_speed()
        child = spawn(op.argv(), self.timeout(), traced)
        kind = classify(op.cells(), op.route, child.returncode, child.stdout,
                        child.stderr, child.timed_out)
        return child, kind



def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def op_times(elapsed: list[float], kinds: list) -> tuple[float, float, float]:
    """Median, tail and tail percentile of op wall times. A failed op ranks
    slower than every completed op: it counts as the time of all ops.
    The tail is the highest rank with TAIL_BEYOND ops beyond it."""
    ranked = sorted(t if kind is None else sum(elapsed) for t, kind in zip(elapsed, kinds))
    count = len(ranked)
    rank = max(1, count - TAIL_BEYOND)
    return statistics.median(ranked), ranked[rank - 1], 100.0 * rank / count


def take(runner: Runner, ops, run_op):
    """(op, *run_op(op)) for each op, in order. Ops that would start past
    the hard limit are not attempted."""
    done = []
    for op in ops:
        if perf_counter() - runner.begin >= HARD_LIMIT_S:
            break
        done.append((op, *run_op(op)))
    return done


def run_plain(runner: Runner, ops):
    results = take(runner, ops, runner.op)
    kinds = [kind for _, _, kind in results]
    elapsed = [child.elapsed for _, child, _ in results]
    p50, tail, tail_pct = op_times(elapsed, kinds)
    cells = sum(len(op.cells()) for op, _, kind in results if kind is None)
    slowdown = runner.slowdown()
    metrics = {
        "op_s_p50": (p50 / slowdown, "s"),
        "op_s_tail": (tail / slowdown, "s"),
        "cells_per_s": (cells / sum(elapsed) * slowdown, "cells/s"),
        "ok_frac": (kinds.count(None) / len(results), "ratio"),
        "peak_rss_mb": (max(child.maxrss_kb for _, child, _ in results) / 1024, "MB"),
    }
    context = {
        "slowdown": slowdown,
        "unscaled": {"op_s_p50": p50, "op_s_tail": tail, "cells_per_s": cells / sum(elapsed)},
        "op_s": sum(elapsed),
        "cells_ok": cells,
        "failed_frac": 1 - kinds.count(None) / len(results),
        "op_s_tail_percentile": tail_pct,
        "op_s_samples": len(results),
        "ops": [
            {"argv": op.text(), "s": round(child.elapsed, 4),
             "cpu_s": round(child.cpu_s, 4), "failure": kind}
            for op, child, kind in results
        ],
    }
    correct = "wrong" not in kinds
    return results, kinds, metrics, context, correct


def run_traced(runner: Runner, ops):
    pairs = take(runner, ops, lambda op: (*runner.op(op), *runner.op(op, traced=True)))
    problems, snapshots = [], []
    for op, plain, kind, traced, traced_kind in pairs:
        if plain.stdout != traced.stdout or plain.returncode != traced.returncode:
            problems.append(f"tracing changed the output of: {op.text()}")
        try:
            snapshot = json.loads(traced.trace)
        except ValueError:
            problems.append(f"no trace counters from: {op.text()}")
            continue
        snapshots.append(snapshot)
        problems += [f"{op.text()}: {m}" for m in paper_mismatches(snapshot)]
    kinds = [kind for _, _, kind, _, _ in pairs]
    cells = sum(len(op.cells()) for op, _, _, _, kind in pairs if kind is None)
    overhead = sum(t.elapsed - p.elapsed for _, p, _, t, _ in pairs)
    metrics = layer_metrics(merge(snapshots), cells, overhead)
    context = {
        "problems": problems,
        "ops": [
            {"argv": op.text(), "s": round(plain.elapsed, 4),
             "traced_s": round(traced.elapsed, 4), "failure": kind}
            for op, plain, kind, traced, _ in pairs
        ],
    }
    correct = not problems and "wrong" not in kinds + [k for *_, k in pairs]
    return pairs, kinds, metrics, context, correct


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark the figulat CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM, so that the op running is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "figulat", "cli.py")):
        print(f"error: no figulat sources under {SRC}", file=sys.stderr)
        return 2
    # Records carry n^p exactly; for p near 1000 that passes 4300 digits.
    sys.set_int_max_str_digits(0)
    workload = WORKLOADS[args.workload]
    runner = Runner()
    spawn(SETUP_ARGV, runner.timeout())   # untimed: writes the bytecode caches
    run = run_traced if args.trace else run_plain
    results, kinds, metrics, context, correct = run(
        runner, workload.ops(args.seed, args.seconds / 2 if args.trace else args.seconds))
    if not args.trace:
        metrics["setup_s"] = (statistics.median(runner.setup_s) / runner.slowdown(), "s")
    context = {
        "workload": args.workload,
        "why": workload.why,
        "deferred": DEFERRED,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "setup_s_samples": runner.setup_s,
        "reference_s_samples": runner.reference_s,
        "failures": {kind: kinds.count(kind) for kind in KINDS},
        **context,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": bool(correct and runner.setup_ok),
        "attempted": len(results),
        "failed": len(results) - kinds.count(None),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
