"""Command-line front end: verification sweeps, number tables, face
listings, and the closed-form-vs-oracle audit.

Exit codes: 0 all ok, 1 identity or audit failure, 2 usage error, 3 a
sweep cell or listing was skipped for budget reasons, 4 a crash (any other
exception; its traceback goes to stderr), 141 stdout closed early by its
reader. Each command imports the layers it runs when it runs, so
importing this module loads only `errors`.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Sequence
from itertools import chain

from .errors import (
    DEFAULT_MAX_EXPRESSIONS, DEFAULT_MAX_POINTS, ROUTES, BudgetExceededError, DomainError,
    check_expressions)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_CRASH = 4


def parse_range(text: str, minimum: int, flag: str) -> range:
    """Inclusive 'a..b' range or a single value 'a'."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{flag} expects 'a' or 'a..b', got {text!r}")
    if lo < minimum:
        raise argparse.ArgumentTypeError(f"{flag} values must be >= {minimum}, got {lo}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"{flag} range is empty: {text!r}")
    return range(lo, hi + 1)


def emit_records(records: Iterable[dict], fmt: str, out) -> None:
    """Write records in the chosen format as they come; all formats carry
    the same fields, the schema version first, and write nothing, not even
    a header, when there are no records. json-lines and csv write each
    record before the next is made. plain-table keeps the text of each row,
    since it needs every column's width before its first line."""
    tagged = ({"schema": SCHEMA_VERSION, **r} for r in records)
    first = next(tagged, None)
    if first is None:
        return
    keys = list(first)
    tagged = chain([first], tagged)
    if fmt == "json-lines":
        import json
        for record in tagged:
            out.write(json.dumps(record) + "\n")
    elif fmt == "csv":
        import csv
        writer = csv.DictWriter(out, fieldnames=keys)
        writer.writeheader()
        writer.writerows(tagged)
    else:  # plain-table
        rows = [[str(r[k]) for k in keys] for r in tagged]
        widths = [max(len(k), *(len(row[i]) for row in rows)) for i, k in enumerate(keys)]
        out.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
        for row in rows:
            out.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


def positive_int(text: str) -> int:
    """argparse type for budgets and audit bounds: an integer >= 1. argparse
    reports the ValueError of a non-integer as a usage error itself."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expects a positive integer, got {text!r}")
    return value


def cmd_verify(args, out, err) -> int:
    from .verifier import SkippedCell, sweep
    routes = ROUTES if args.route == "all" else [args.route]
    cells = sweep(args.p, args.n, routes, args.max_expressions, args.max_points)
    any_failed = any_skipped = False

    def records():
        nonlocal any_failed, any_skipped
        for cell in cells:
            if isinstance(cell, SkippedCell):
                any_skipped = True
                err.write(f"skipped p={cell.p} n={cell.n} route={cell.route}: {cell.reason}\n")
                continue
            any_failed = any_failed or not cell.ok
            yield {"p": cell.p, "n": cell.n, "route": cell.route,
                   "lhs": cell.lhs, "rhs": cell.rhs, "ok": cell.ok}
            del cell  # before the next cell runs: one report is alive at a time

    emit_records(records(), args.format, out)
    return EXIT_FAILURE if any_failed else EXIT_BUDGET if any_skipped else EXIT_OK


def cmd_table(args, out, err) -> int:
    from . import combinatorics
    needed = {"stirling": ("m",), "facet-counts": ("p",), "figurate": ("k", "n")}
    for flag in needed[args.kind]:
        if getattr(args, flag) is None:
            raise DomainError(f"table --kind {args.kind} requires --{flag}")
    for flag in chain.from_iterable(needed.values()):
        if flag not in needed[args.kind] and getattr(args, flag) is not None:
            raise DomainError(f"table --kind {args.kind} does not read --{flag}")
    if args.kind == "stirling":
        records = (
            {"kind": "stirling", "symbol": f"S({m},{j})", "m": m, "j": j,
             "value": combinatorics.stirling2_recurrence(m, j)}
            for m in args.m for j in range(1, m + 1))
    elif args.kind == "facet-counts":
        records = (
            {"kind": "facet-counts", "symbol": f"c({p},{l})", "p": p, "l": l,
             "value": count}
            for p in args.p for l, count in enumerate(combinatorics.facet_counts(p)))
    else:  # figurate
        records = (
            {"kind": "figurate", "symbol": f"F^{k}_{n}", "k": k, "n": n,
             "value": combinatorics.figurate(k, n)}
            for k in args.k for n in args.n)
    emit_records(records, args.format, out)
    return EXIT_OK


def cmd_facets(args, out, err) -> int:
    from .facets import facet_to_surjection, iter_facets
    faces = iter_facets(args.p, args.l, args.max_expressions)
    # Every codimension-l face has p - l blocks, so one count serves them all.
    counts = {}
    if args.with_counts is not None:
        from .combinatorics import figurate
        counts = {"points": figurate(args.p - args.l, args.with_counts)}

    def records():
        for face in faces:
            record = {"p": args.p, "l": args.l, "facet": face.text()}
            if args.with_surjections:
                record["surjection"] = ",".join(map(str, facet_to_surjection(face)))
            yield record | counts

    emit_records(records(), args.format, out)
    return EXIT_OK


def _audit_pairings(args):
    """Yield (name, computed, expected) triples for every closed-form-vs-
    oracle pairing. The face counts and the signed cover build every face
    of each p up to the larger of their bounds, at the default cap; each
    codimension's expressions grow with p, so checking that p once refuses
    before the first pairing. The face counts count the face stream, so
    one face is alive at a time."""
    from . import combinatorics, oracles
    from .facets import iter_facets
    from .lattice import cube_points, point_multiplicity
    check_expressions(max(args.p_max, args.cover_p_max), DEFAULT_MAX_EXPRESSIONS)
    for m in range(0, args.m_max + 1):
        for j in range(1, max(m, 1) + 1):
            yield (
                f"stirling m={m} j={j}",
                combinatorics.stirling2_recurrence(m, j),
                combinatorics.stirling2_inclusion_exclusion(m, j),
            )
    for m in range(1, args.m_max + 1):
        for k in range(1, m + 1):
            yield (
                f"surjections m={m} k={k}",
                combinatorics.facet_count(m, m - k),
                len(oracles.oracle_surjections(m, k)),
            )
    for m in range(1, min(args.m_max, 8) + 1):
        yield (
            f"bell row m={m}",
            sum(combinatorics.stirling2_recurrence(m, j) for j in range(1, m + 1)),
            len(oracles.oracle_set_partitions(m)),
        )
    for k in range(1, args.k_max + 1):
        for n in range(1, args.n_max + 1):
            yield (
                f"figurate k={k} n={n}",
                combinatorics.figurate(k, n),
                oracles.oracle_weakly_decreasing_tuples(k, n),
            )
    for p in range(1, args.p_max + 1):
        for l in range(p):
            yield (
                f"facet count p={p} l={l}",
                sum(1 for _ in iter_facets(p, l)),
                combinatorics.facet_count(p, l),
            )
    for p in range(1, args.cover_p_max + 1):
        for n in range(1, args.cover_n_max + 1):
            for point in cube_points(p, n):
                yield (
                    f"signed cover p={p} n={n} point=({','.join(map(str, point))})",
                    point_multiplicity(point),
                    oracles.oracle_signed_cover(point),
                )


def cmd_audit(args, out, err) -> int:
    mismatches = 0
    for name, computed, expected in _audit_pairings(args):
        if computed != expected:
            mismatches += 1
            out.write(f"MISMATCH {name}: computed {computed}, oracle {expected}\n")
    if mismatches:
        err.write(f"audit failed: {mismatches} mismatches\n")
        return EXIT_FAILURE
    out.write("audit ok\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="figulat",
        description="Exact verification of the figurate-number facet identity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formats = ("plain-table", "csv", "json-lines")

    verify = sub.add_parser("verify", help="run verification sweeps")
    verify.add_argument("--p", required=True, type=lambda s: parse_range(s, 1, "--p"))
    verify.add_argument("--n", required=True, type=lambda s: parse_range(s, 1, "--n"))
    verify.add_argument("--route", choices=ROUTES + ("all",), default="all")
    verify.add_argument("--format", choices=formats, default="plain-table")
    verify.add_argument("--max-expressions", type=positive_int,
                        default=DEFAULT_MAX_EXPRESSIONS)
    verify.add_argument("--max-points", type=positive_int, default=DEFAULT_MAX_POINTS,
                        help="default: %(default)s")
    verify.set_defaults(func=cmd_verify)

    table = sub.add_parser("table", help="print exact number tables")
    table.add_argument("--kind", choices=("stirling", "facet-counts", "figurate"),
                       required=True)
    table.add_argument("--m", type=lambda s: parse_range(s, 0, "--m"))
    table.add_argument("--p", type=lambda s: parse_range(s, 1, "--p"))
    table.add_argument("--k", type=lambda s: parse_range(s, 1, "--k"))
    table.add_argument("--n", type=lambda s: parse_range(s, 1, "--n"))
    table.add_argument("--format", choices=formats, default="plain-table")
    table.set_defaults(func=cmd_table)

    facets = sub.add_parser("facets", help="list canonical faces")
    facets.add_argument("--p", required=True, type=int)
    facets.add_argument("--l", required=True, type=int)
    facets.add_argument("--format", choices=formats, default="plain-table")
    facets.add_argument("--with-surjections", action="store_true")
    facets.add_argument("--with-counts", type=positive_int, default=None, metavar="N")
    facets.add_argument("--max-expressions", type=positive_int,
                        default=DEFAULT_MAX_EXPRESSIONS)
    facets.set_defaults(func=cmd_facets)

    audit = sub.add_parser("audit", help="cross-check closed forms against oracles")
    audit.add_argument("--m-max", type=positive_int, default=7)
    audit.add_argument("--k-max", type=positive_int, default=7)
    audit.add_argument("--n-max", type=positive_int, default=8)
    audit.add_argument("--p-max", type=positive_int, default=6)
    audit.add_argument("--cover-p-max", type=positive_int, default=4)
    audit.add_argument("--cover-n-max", type=positive_int, default=3)
    audit.set_defaults(func=cmd_audit)

    return parser


def main(argv: Sequence[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    # Parse and print exact values of any length: Python refuses by default
    # to convert ints over 4300 digits from or to text.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code else EXIT_OK
        code = args.func(args, out, err)
        out.flush()  # here, where a closed pipe is caught, not at shutdown
        return code
    except BrokenPipeError:
        # The reader's choice (`| head -1`), not a crash: stdout goes to
        # devnull, so the flush at shutdown cannot fail, and the exit is
        # what a death by SIGPIPE reports, 128 + 13.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 141
    except DomainError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except BudgetExceededError as exc:
        err.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except Exception:
        # A crash is not a failed identity: it must never exit 1.
        import traceback
        traceback.print_exc(file=err)
        return EXIT_CRASH
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
