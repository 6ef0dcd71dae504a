"""Tests of the benchmark itself: output checks, tracing, workloads."""
import json
import os
import random
import shutil
import subprocess
import sys
from math import comb, factorial

import pytest

import run
from checks import classify, paper_mismatches
from layers import layer_metrics, merge
from workloads import POINTWISE_MAX_N, WORKLOADS

ALGEBRAIC = "verify --p 5 --n 2 --route algebraic --format json-lines".split()
GEOMETRIC = "verify --p 4 --n 3 --route geometric --format json-lines".split()
POINTWISE = "verify --p 3 --n 4 --route pointwise --format json-lines".split()


def traced(argv):
    child = run.spawn(argv, timeout=60, traced=True)
    return child, json.loads(child.trace)


def metrics(snapshot, cells=1):
    return {name: value for name, (value, _) in layer_metrics(merge([snapshot]), cells, 0.0).items()}


def stirling2(m, k):
    """Inclusion-exclusion, a different formula from the benchmark's own."""
    return sum((-1) ** i * comb(k, i) * (k - i) ** m for i in range(k + 1)) // factorial(k)


@pytest.mark.parametrize("argv", [
    "verify --p 1..4 --n 1..3 --route all --format json-lines".split(),
    "facets --p 3 --l 1 --with-surjections --with-counts 2".split(),
    "table --kind facet-counts --p 5 --format csv".split(),
    "verify --p 3 --n 3 --route all --max-points 8".split(),
])
def test_tracing_keeps_stdout_byte_identical(argv):
    plain = run.spawn(argv, timeout=60)
    child, _ = traced(argv)
    assert plain.stdout and child.stdout == plain.stdout
    assert child.returncode == plain.returncode


def test_geometric_counters_match_closed_forms():
    p, n = 4, 3
    child, snapshot = traced(GEOMETRIC)
    assert child.returncode == 0
    faces = {l: factorial(p - l) * stirling2(p, p - l) for l in range(p)}
    assert snapshot["faces_by_pl"] == {f"{p},{l}": [1, faces[l]] for l in range(p)}
    got = metrics(snapshot)
    assert got["facets.faces"] == sum(faces.values())
    assert got["lattice.points"] == sum(faces[l] * comb(n + p - l - 1, p - l) for l in range(p))
    assert paper_mismatches(snapshot) == []
    # May change under an optimisation: recorded, not asserted.
    print("chain expressions", got["facets.chain_expressions"])


def test_pointwise_counters_match_closed_forms():
    p, n = 3, 4
    child, snapshot = traced(POINTWISE)
    assert child.returncode == 0
    got = metrics(snapshot)
    assert got["lattice.cube_points.points"] == n ** p
    assert got["lattice.point_multiplicity.calls"] == n ** p
    assert got["lattice.points"] == 0
    assert paper_mismatches(snapshot) == []
    print("membership tests", got["lattice.facet_contains.calls"])


def test_algebraic_bypasses_facets_and_lattice():
    child, snapshot = traced(ALGEBRAIC)
    assert child.returncode == 0
    got = metrics(snapshot)
    assert got["facets.enumerate_facets.calls"] == got["lattice.points"] == 0
    assert got["combinatorics.facet_count.calls"] > 0
    twice = layer_metrics(merge([snapshot, snapshot]), 2, 0.0)
    assert twice["combinatorics.stirling2.misses"][0] == 2 * got["combinatorics.stirling2.misses"]
    print("stirling entries", got["combinatorics.stirling2.entries"])


def crashes(p, traced_run=False):
    argv = ["verify", "--p", str(p), "--n", "2", "--route", "algebraic", "--format", "json-lines"]
    child = run.spawn(argv, timeout=60, traced=traced_run)
    assert child.returncode in (0, 1)
    return child.returncode == 1


def test_tracing_keeps_recursion_threshold():
    lo, hi = 100, 1200
    if not crashes(hi):
        pytest.skip(f"no RecursionError up to p={hi}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if crashes(mid) else (mid, hi)
    assert not crashes(lo, traced_run=True)
    assert crashes(hi, traced_run=True)


CELLS = [(2, 3)]


def record(p=2, n=3, lhs=9, rhs=9, ok=True, route="algebraic"):
    return json.dumps({"schema": "1", "p": p, "n": n, "route": route,
                       "lhs": lhs, "rhs": rhs, "ok": ok}).encode() + b"\n"


@pytest.mark.parametrize("code,stdout,stderr,expected", [
    (0, record(), b"", None),
    (0, record(lhs=8, rhs=8), b"", "wrong"),
    (0, record(rhs=10), b"", "wrong"),
    (0, record(ok=False), b"", "wrong"),
    (0, record(route="geometric"), b"", "wrong"),
    (0, record() * 2, b"", "wrong"),
    (0, b"", b"", "wrong"),
    (1, b"", b"", "wrong"),
    (1, b"", b"Traceback (most recent call last):\nRecursionError\n", "crash"),
    (3, b"", b"skipped", "budget"),
])
def test_classify(code, stdout, stderr, expected):
    assert classify(CELLS, "algebraic", code, stdout, stderr) == expected


def test_classify_timeout():
    assert classify(CELLS, "algebraic", -9, b"", b"", timed_out=True) == "timeout"


def test_failed_ops_rank_slower_than_completed_ones():
    elapsed = [float(i) for i in range(1, 21)]
    kinds = [None] * 20
    p50, tail, pct = run.op_times(elapsed, kinds)
    assert (p50, tail, pct) == (10.5, 10.0, 50.0)
    kinds[0] = "crash"  # the fastest op failed: it moves to the top
    p50, tail, _ = run.op_times(elapsed, kinds)
    assert (p50, tail) == (11.5, 11.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_are_seeded_and_in_range(name):
    workload = WORKLOADS[name]
    ops = workload.ops(5, 30)
    assert ops == workload.ops(5, 30) and ops != workload.ops(6, 30)
    assert sorted(map(repr, ops)) != sorted(map(repr, workload.ops(6, 30)))
    assert len(ops) == 1 + workload.rounds(30) * len(workload.slots(random.Random(0)))
    assert ops.count(workload.anchor) == 1
    assert workload.rounds(60) > workload.rounds(30) >= 2
    for op in ops:
        assert op.route == name
        assert 1 <= op.p[0] <= op.p[1] and 1 <= op.n[0] <= op.n[1]
        if name == "pointwise":
            assert op.n[1] <= POINTWISE_MAX_N[op.p[1]]
        if name == "geometric":
            assert 5 <= op.p[0] == op.p[1] <= 7
        if name == "algebraic":
            assert op.p[1] <= 1024 and op.n[1] <= 10 ** 6 + 4


def test_every_algebraic_run_keeps_single_cells_that_crash_at_seed():
    # Cold single cells at p >= 500 hit RecursionError (ROADMAP item 4).
    workload = WORKLOADS["algebraic"]
    for seed in range(300):
        assert any(op.p[0] == op.p[1] >= 500 for op in workload.ops(seed, 26))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "algebraic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
