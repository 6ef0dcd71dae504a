"""Checks the benchmark makes on figulat's output, with its own arithmetic.

Nothing here imports figulat: expected values come from the paper's
closed forms, computed independently of the package under test.
"""
from __future__ import annotations

import json
from collections import Counter
from math import comb, factorial

TRACEBACK = b"Traceback (most recent call last)"

# Failure kinds, in the order they are reported.
KINDS = ("crash", "budget", "wrong", "timeout")


def stirling2(m: int, j: int) -> int:
    """S(m, j), one triangle row at a time (no recursion)."""
    row = [1]
    for size in range(1, m + 1):
        row = [0] + [k * (row[k] if k < size else 0) + row[k - 1] for k in range(1, size + 1)]
    return row[j] if 0 <= j <= m else 0


def face_count(p: int, l: int) -> int:
    """Codimension-l faces of the order decomposition: (p-l)!·S(p, p-l)."""
    return factorial(p - l) * stirling2(p, p - l)


def face_points(blocks: int, n: int) -> int:
    """Lattice points of a face with `blocks` blocks at side n: F^k_n."""
    return comb(n + blocks - 1, blocks)


def classify(cells, route, returncode, stdout: bytes, stderr: bytes, timed_out=False):
    """None when the op is correct, else its failure kind.

    `cells` lists the requested (p, n) pairs. A correct op exits 0 and
    prints exactly one json-lines record per cell, with `lhs == n**p`
    computed here, `rhs == lhs` and `ok: true`."""
    if timed_out:
        return "timeout"
    if TRACEBACK in stderr:
        return "crash"
    if returncode == 3:
        return "budget"
    if returncode != 0:
        return "wrong"
    expected = Counter(cells)
    seen = Counter()
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
    except ValueError:
        return "wrong"
    for record in records:
        p, n = record.get("p"), record.get("n")
        if (p, n) not in expected or record.get("route") != route:
            return "wrong"
        lhs = n ** p
        if record.get("ok") is not True or record.get("lhs") != lhs or record.get("rhs") != lhs:
            return "wrong"
        seen[p, n] += 1
    return None if seen == expected else "wrong"


def paper_mismatches(snapshot: dict) -> list[str]:
    """Traced counters that disagree with the closed forms: faces per
    (p, l), points per face with k blocks at side n, points per cube scan."""
    bad = []
    forms = (
        ("faces_by_pl", face_count, "faces p,l"),
        ("points_by_kn", face_points, "points per face k,n"),
        ("cube_by_pn", lambda p, n: n ** p, "cube points p,n"),
    )
    for key, form, label in forms:
        for shape, (calls, total) in snapshot[key].items():
            a, b = (int(x) for x in shape.split(","))
            if total != calls * form(a, b):
                bad.append(f"{label}={shape}: {total} over {calls} calls")
    return bad
