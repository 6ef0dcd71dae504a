"""Acceptance suite: one test per criterion, each printing a pass line.

Everything here is exact integer equality; there are no tolerances.
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""
import io
import json
from itertools import product
from math import factorial

from figulat.cli import main
from figulat.combinatorics import (
    facet_count,
    figurate,
    stirling2_inclusion_exclusion,
    stirling2_recurrence,
)
from figulat.facets import (
    Surjection,
    enumerate_facets,
    facet_multiplicities,
    facet_to_surjection,
    surjection_to_facet,
)
from figulat.lattice import (
    cube_points,
    facet_contains,
    point_multiplicity,
)
from figulat.oracles import (
    oracle_set_partitions,
    oracle_signed_cover,
    oracle_surjections,
    oracle_weakly_decreasing_tuples,
)
from figulat.verifier import verify_algebraic, verify_geometric


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_algebraic_identity():
    for p in range(1, 13):
        for n in range(1, 11):
            r = verify_algebraic(p, n)
            assert r.ok and r.rhs == n ** p
    report(1, "algebraic route, p in [1,12], n in [1,10], exact equality")


def test_criterion_2_geometric_identity():
    for p in range(1, 6):
        for n in range(1, 5):
            r = verify_geometric(p, n)
            assert r.ok and r.rhs == n ** p
            if n >= 2:
                assert r.points_enumerated > 0
    report(2, "geometric route, p in [1,5], n in [1,4], enumeration only")


def test_criterion_3_pointwise_cover():
    for p in range(1, 6):
        for n in range(1, 5):
            for point in cube_points(p, n):
                m = point_multiplicity(point)
                assert m == 1
                assert oracle_signed_cover(point) == m
    report(3, "signed cover multiplicity 1 everywhere, both computations agree")


def test_criterion_4_facet_counts():
    for p in range(1, 8):
        for l in range(p):
            faces = enumerate_facets(p, l)
            closed_form = factorial(p - l) * stirling2_inclusion_exclusion(p, p - l)
            assert len(faces) == closed_form == facet_count(p, l)
            assert len(faces) == len(oracle_surjections(p, p - l))
    for p in range(1, 7):
        for l in range(p):
            for face, count in facet_multiplicities(p, l).items():
                expected = 1
                for block in face.blocks:
                    expected *= factorial(len(block))
                assert count == expected
    report(4, "face counts match (p-l)!*S(p,p-l) and surjection oracle; "
              "preimage multiplicities are block-factorial products")


def test_criterion_5_stirling_cross_check():
    for m in range(0, 13):
        for j in range(1, m + 1):
            assert stirling2_recurrence(m, j) == stirling2_inclusion_exclusion(m, j)
    for m in range(1, 9):
        row_sum = sum(stirling2_recurrence(m, j) for j in range(1, m + 1))
        assert row_sum == len(oracle_set_partitions(m))
    report(5, "both Stirling routes agree; row sums match enumerated Bell numbers")


def test_criterion_6_stirling_polynomial_identity():
    for p in range(1, 13):
        for x in range(-10, 11):
            total, falling = 0, 1
            for j in range(1, p + 1):
                falling *= x - j + 1
                total += stirling2_recurrence(p, j) * falling
            assert total == x ** p
    report(6, "falling-factorial expansion equals x^p on p in [1,12], x in [-10,10]")


def test_criterion_7_figurate_oracle():
    for k in range(1, 9):
        for n in range(1, 9):
            # the (8, 8) cell scans 8^8 tuples, just over the default cap
            assert figurate(k, n) == oracle_weakly_decreasing_tuples(
                k, n, max_points=8 ** 8
            )
    for p in range(1, 6):
        for l in range(p):
            for face in enumerate_facets(p, l):
                for n in range(1, 5):
                    scanned = sum(
                        1 for point in cube_points(p, n)
                        if facet_contains(face, point)
                    )
                    assert figurate(face.num_blocks, n) == scanned
    report(7, "figurate matches tuple-scan oracle; face point counts match cube scans")


def test_criterion_8_bijection_round_trips():
    for p in range(1, 8):
        for l in range(p):
            for face in enumerate_facets(p, l):
                assert surjection_to_facet(facet_to_surjection(face)) == face
            k = p - l
            for values in product(range(1, k + 1), repeat=p):
                if set(values) != set(range(1, k + 1)):
                    continue
                s = Surjection(values)
                assert facet_to_surjection(surjection_to_facet(s)) == s
    report(8, "facet/surjection round-trips hold exhaustively for p <= 7")


def test_criterion_9_cli_determinism_and_exit_codes():
    argv = ["verify", "--p", "1..4", "--n", "1..3", "--route", "all",
            "--format", "json-lines"]

    def run(args):
        out, err = io.StringIO(), io.StringIO()
        code = main(args, out=out, err=err)
        return code, out.getvalue()

    code_a, out_a = run(argv)
    code_b, out_b = run(argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert all(json.loads(line)["ok"] for line in out_a.splitlines())

    ok_code, _ = run(["verify", "--p", "2..2", "--n", "2..2"])
    budget_code, _ = run(["verify", "--p", "3..3", "--n", "3..3",
                          "--route", "pointwise", "--max-points", "8"])
    usage_code, _ = run(["verify", "--p", "2..2", "--n", "2..2", "--bogus"])
    assert (ok_code, budget_code, usage_code) == (0, 3, 2)
    report(9, "byte-identical repeat runs; exit codes 0/3/2 for ok/budget/usage")
