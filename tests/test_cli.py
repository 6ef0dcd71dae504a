import csv
import io
import json
import os
import shlex
import subprocess
import sys
from collections import Counter

import pytest

from figulat import cli, combinatorics, errors, facets, lattice, oracles, verifier
from figulat.cli import main
from make_cli_corpus import CORPUS, cases, changes, readme_cli_examples, run

# Argv, exit code, stdout and stderr of the listings, written by
# `tests/make_cli_corpus.py`.
CASES = json.loads(CORPUS.read_text())


class TestVerifyCommand:
    def test_all_routes_single_cell(self):
        code, out, _ = run([
            "verify", "--p", "2..2", "--n", "2..2",
            "--route", "all", "--format", "json-lines",
        ])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["route"] for r in records] == ["algebraic", "geometric", "pointwise"]
        assert {r["rhs"] for r in records} == {4}

    def test_usage_error_on_bad_range(self):
        code, _, _ = run(["verify", "--p", "0..2", "--n", "1..2"])
        assert code == 2
        for bad in ["x", "1..x", "3..1"]:
            code, out, _ = run(["verify", "--p", bad, "--n", "1..2"])
            assert (code, out) == (2, "")

    def test_failing_cell_exits_1_even_when_another_is_skipped(self, monkeypatch):
        real = combinatorics.figurates
        monkeypatch.setattr(combinatorics, "figurates", lambda p, n: [v + 1 for v in real(p, n)])
        code, out, err = run(["verify", "--p", "2", "--n", "2", "--route", "algebraic",
                              "--format", "json-lines"])
        record = json.loads(out)
        assert (code, err) == (1, "")
        assert (record["lhs"], record["rhs"], record["ok"]) == (4, 5, False)

        code, out, err = run(["verify", "--p", "3", "--n", "3", "--route", "all",
                              "--max-points", "8", "--format", "json-lines"])
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 1
        assert [(r["route"], r["ok"]) for r in records] == [("algebraic", False)]
        assert err.startswith("skipped p=3 n=3 route=geometric: ")

    def test_crash_exits_4_with_its_traceback(self, monkeypatch):
        def crash(p, n):
            raise RuntimeError("injected")
        monkeypatch.setattr(verifier, "verify_algebraic", crash)
        code, out, err = run(["verify", "--p", "2", "--n", "2", "--route", "algebraic"])
        assert (code, out) == (4, "")
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("RuntimeError: injected\n")

    def test_a_crash_mid_run_leaves_the_records_written_before_it(self, monkeypatch):
        real = verifier.verify_algebraic

        def crash_at_2(p, n):
            if p == 2:
                raise RuntimeError("injected")
            return real(p, n)
        monkeypatch.setattr(verifier, "verify_algebraic", crash_at_2)
        code, out, err = run(["verify", "--p", "1..3", "--n", "1", "--route", "algebraic",
                              "--format", "json-lines"])
        assert code == 4
        assert out == ('{"schema": "1", "p": 1, "n": 1, "route": "algebraic", '
                       '"lhs": 1, "rhs": 1, "ok": true}\n')
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("RuntimeError: injected\n")

    def test_large_p_algebraic_cell(self):
        code, out, err = run(["verify", "--p", "1000", "--n", "2", "--route", "algebraic",
                              "--format", "json-lines"])
        record = json.loads(out)
        assert (code, err) == (0, "")
        assert record["lhs"] == record["rhs"] == 2 ** 1000 and record["ok"]

    def test_usage_error_on_bad_flag(self):
        code, _, _ = run(["verify", "--p", "1..2", "--n", "1..2", "--nope"])
        assert code == 2

    def test_budget_exit_code(self):
        code, out, err = run([
            "verify", "--p", "3..3", "--n", "3..3",
            "--route", "pointwise", "--max-points", "8",
        ])
        assert code == 3
        assert "skipped" in err
        # With every cell skipped, csv writes no header either.
        code, out, _ = run([
            "verify", "--p", "3", "--n", "3",
            "--route", "pointwise", "--max-points", "8", "--format", "csv",
        ])
        assert (code, out) == (3, "")

    def test_csv_and_json_lines_carry_same_records(self):
        argv = ["verify", "--p", "1..3", "--n", "1..2", "--route", "all"]
        _, csv_out, _ = run(argv + ["--format", "csv"])
        _, jsonl_out, _ = run(argv + ["--format", "json-lines"])
        csv_records = list(csv.DictReader(io.StringIO(csv_out)))
        jsonl_records = [json.loads(line) for line in jsonl_out.splitlines()]
        assert len(csv_records) == len(jsonl_records)
        for c, j in zip(csv_records, jsonl_records):
            assert set(c) == set(j)
            for key in j:
                # csv stringifies every field; compare rendered values
                assert c[key] == str(j[key])


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "1", "--n", "1", "--max-points"],
    ["verify", "--p", "1", "--n", "1", "--max-expressions"],
    ["facets", "--p", "2", "--l", "0", "--max-expressions"],
    ["facets", "--p", "2", "--l", "0", "--with-counts"],
], ids=["verify-max-points", "verify-max-expressions", "facets-max-expressions",
        "facets-with-counts"])
@pytest.mark.parametrize("value", ["0", "-5", "x", "2.5"])
def test_budget_flags_need_positive_integers(argv, value):
    code, out, _ = run(argv + [value])
    assert code == 2 and out == ""


def test_bad_with_counts_is_rejected_before_any_face_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("iter_facets was called")
    monkeypatch.setattr(facets, "iter_facets", refuse)
    code, out, _ = run(["facets", "--p", "8", "--l", "3", "--with-counts", "0"])
    assert code == 2 and out == ""


@pytest.mark.parametrize("value", ["8", "0", "x"])
def test_verify_depends_on_argv_alone(monkeypatch, value):
    """The point cap's one source is `--max-points`: a FIGULAT_MAX_POINTS
    left in the environment, whether below this cube's 27 points or not a
    positive integer, changes neither the bytes nor the exit code."""
    argv = ["verify", "--p", "3", "--n", "3", "--route", "pointwise"]
    monkeypatch.delenv("FIGULAT_MAX_POINTS", raising=False)
    unset = run(argv)
    monkeypatch.setenv("FIGULAT_MAX_POINTS", value)
    assert run(argv) == unset
    assert unset[0] == 0


def test_pointwise_route_honours_expression_cap():
    argv = ["verify", "--p", "4", "--n", "1", "--max-expressions", "1"]
    code, out, err = run(argv + ["--route", "pointwise"])
    geo_code, _, geo_err = run(argv + ["--route", "geometric"])
    assert (code, out) == (geo_code, "") == (3, "")
    assert err.startswith("skipped p=4 n=1 route=pointwise: ")
    assert err.split(": ", 1)[1] == geo_err.split(": ", 1)[1]


# Each need is millions of bits long; the stderr is the bytes it had when
# the need was built, which took 3-9 s.
HUGE_REFUSALS = {
    "facets --p 1000000 --l 0":
        "budget exceeded: chain-expression enumeration for (p=1000000, l=0) exceeds the "
        "expression cap: needs at least 2^18488884, budget is 92897280\n",
    "verify --p 1000000 --n 1 --route geometric":
        "skipped p=1000000 n=1 route=geometric: chain-expression enumeration for "
        "(p=1000000, l=0) exceeds the expression cap: needs at least 2^18488884, "
        "budget is 92897280\n",
    "verify --p 10000000 --n 3 --route pointwise":
        "skipped p=10000000 n=3 route=pointwise: cube scan for (p=10000000, n=3) exceeds "
        "the point cap: needs at least 2^15849625, budget is 10000000\n",
}


@pytest.mark.parametrize("argv", HUGE_REFUSALS)
def test_a_huge_need_is_refused_without_building_it(argv, monkeypatch):
    def refuse(*args):
        raise AssertionError("a need was built")
    monkeypatch.setattr(errors, "factorial", refuse)
    monkeypatch.setattr(lattice, "pow", refuse, raising=False)
    out, err = io.StringIO(), io.StringIO()
    assert main(argv.split(), out=out, err=err) == 3
    assert (out.getvalue(), err.getvalue()) == ("", HUGE_REFUSALS[argv])


@pytest.fixture
def default_int_digit_limit():
    """The int-to-text digit limit a fresh interpreter starts with, restored
    afterwards."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("fmt", ["plain-table", "csv", "json-lines"])
def test_results_over_4300_digits_print_exactly(fmt, default_int_digit_limit):
    p, n = 400, 10 ** 12
    code, out, err = run(["verify", "--p", str(p), "--n", str(n),
                          "--route", "algebraic", "--format", fmt])
    assert (code, err) == (0, "")
    if fmt == "json-lines":
        record = json.loads(out, parse_int=str)
    elif fmt == "csv":
        (record,) = csv.DictReader(io.StringIO(out))
    else:
        header, row = out.splitlines()
        record = dict(zip(header.split(), row.split()))
    # n ** p in decimal, spelled out so the check itself converts no int.
    expected = "1" + "0" * (12 * p)
    assert record["lhs"] == record["rhs"] == expected
    assert len(expected) > 4300


def test_main_restores_the_int_digit_limit(default_int_digit_limit, monkeypatch):
    """`main` lifts the limit only while it runs, parsing included, however
    it exits."""
    limit = sys.get_int_max_str_digits()
    assert run(["verify", "--p", "400", "--n", str(10 ** 12), "--route", "algebraic"])[0] == 0
    assert sys.get_int_max_str_digits() == limit
    assert run(["verify", "--p", "1", "--n", "1" + "0" * 4400, "--route", "algebraic"])[0] == 0
    assert sys.get_int_max_str_digits() == limit
    assert run(["verify", "--p", "0", "--n", "1"])[0] == 2
    assert sys.get_int_max_str_digits() == limit

    def crash(p, n):
        raise RuntimeError("injected")
    monkeypatch.setattr(verifier, "verify_algebraic", crash)
    assert run(["verify", "--p", "2", "--n", "2", "--route", "algebraic"])[0] == 4
    assert sys.get_int_max_str_digits() == limit


def test_a_sweep_holds_one_report_at_a_time(traced_peak):
    """A two-cell sweep peaks at about the memory of one cell: each report,
    with its terms, is dropped before the next cell is computed. At p=100
    one report holds 100 terms of up to 500 digits; two alive at once peak
    near 1.6 times one."""
    argv = ["verify", "--p", "100", "--route", "algebraic", "--format", "json-lines", "--n"]
    n = 10 ** 5
    run(argv + [str(n)])  # steps the kept face-count row to p

    def peak(cells):
        def sweep():
            assert run(argv + [cells])[0] == 0
        return traced_peak(sweep)
    assert peak(f"{n}..{n + 1}") < 1.3 * peak(str(n))


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_a_streamed_listing_does_not_grow_with_its_length(fmt, traced_peak):
    """json-lines and csv write each record as it is made, and a face
    listing builds each face as its record is made, so a listing several
    times as long peaks at about the same memory. What a face listing does
    hold is its table of block splits, sized by p and l, not by the number
    of faces: at p=7 the table of l=4 (1,806 faces) is larger than that of
    l=1 (15,120 faces), where a list of the faces would take over three
    times the memory. The output is discarded, and a collection before each
    run keeps garbage from earlier runs out of the peak."""
    listings = [  # (argv but its last value, short last value, long last value)
        (["table", "--kind", "figurate", "--k", "1", "--format", fmt, "--n"],
         "1..5000", "1..10000"),
        (["facets", "--p", "7", "--format", fmt, "--l"], "4", "1"),
    ]
    with open(os.devnull, "w") as sink:
        def peak(argv):
            def listing():
                assert main(argv, out=sink, err=sink) == 0
            return traced_peak(listing)
        for argv, short, long in listings:
            peak(argv + [short])  # imports the writer and the command's layers
            assert peak(argv + [long]) < 1.2 * peak(argv + [short]), argv


SMALL_AUDIT = [
    "audit", "--m-max", "2", "--k-max", "2", "--n-max", "2", "--p-max", "2",
    "--cover-p-max", "2", "--cover-n-max", "2"]


def spawn_cli(argv, unbuffered, stdout):
    """Start the console script's body on `argv` in a fresh interpreter,
    with `PYTHONUNBUFFERED` set to 1 or unset; stderr is piped."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-c", "import sys; from figulat.cli import main; sys.exit(main())",
         *argv], env=env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_reader_that_closes_stdout_early_is_no_crash(unbuffered):
    """`| head -1`: the reader takes one line and closes the pipe while
    far more output is due. The CLI stops with exit 141, what a tool killed
    by SIGPIPE reports, and writes nothing to stderr: no traceback, and no
    message from the flush at interpreter shutdown, whether each write goes
    straight to the pipe or through stdout's buffer."""
    argv = "verify --p 1..3000 --n 1..3 --route algebraic --format json-lines".split()
    with spawn_cli(argv, unbuffered, subprocess.PIPE) as proc:
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        err = proc.stderr.read()
    assert (first["p"], first["n"], first["ok"]) == (1, 1, True)
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_reader_gone_before_the_first_write_is_no_crash(unbuffered):
    """`| true`: the pipe's read end is closed before the CLI starts. With
    stdout buffered, the one write is the flush the CLI makes on return,
    not the one at shutdown, so this too exits 141 with nothing on
    stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with spawn_cli(SMALL_AUDIT, unbuffered, write_end) as proc:
            err = proc.stderr.read()
    finally:
        os.close(write_end)
    assert (proc.returncode, err) == (141, b"")


class TestTableCommand:
    def test_stirling_row_600_matches_inclusion_exclusion(self):
        code, out, _ = run([
            "table", "--kind", "stirling", "--m", "600", "--format", "json-lines",
        ])
        assert code == 0
        values = [json.loads(line)["value"] for line in out.splitlines()]
        assert values == [
            combinatorics.stirling2_inclusion_exclusion(600, j) for j in range(1, 601)]

    def test_a_stirling_listing_holds_one_row_at_a_time(self, traced_peak):
        """S(m, j) for m <= 150 is 11,325 values, over 2 MB if kept, but a
        listing holds only the face-count row it reads them from: about
        0.1 MB. The warm-up lists m = 1 only, which imports what the
        listing needs."""
        argv = ["table", "--kind", "stirling", "--format", "json-lines", "--m"]
        with open(os.devnull, "w") as sink:
            assert main(argv + ["1"], out=sink, err=sink) == 0

            def listing():
                assert main(argv + ["1..150"], out=sink, err=sink) == 0
            assert traced_peak(listing) < 500_000

    @pytest.mark.parametrize("argv, flag", [
        (["--kind", "stirling"], "m"),
        (["--kind", "facet-counts"], "p"),
        (["--kind", "figurate"], "k"),
        (["--kind", "figurate", "--n", "2"], "k"),
        (["--kind", "figurate", "--k", "2"], "n"),
    ])
    def test_missing_range_is_usage_error(self, argv, flag):
        code, out, err = run(["table", *argv])
        assert (code, out) == (2, "")
        assert err == f"error: table --kind {argv[1]} requires --{flag}\n"

    @pytest.mark.parametrize("fmt", ["plain-table", "csv", "json-lines"])
    def test_no_records_print_nothing(self, fmt):
        # S(0, j) has no j >= 1, so the table has no rows and no header.
        assert run(["table", "--kind", "stirling", "--m", "0", "--format", fmt]) == (0, "", "")

    def test_plain_table_has_header(self):
        code, out, _ = run(["table", "--kind", "stirling", "--m", "3"])
        assert code == 0
        header = out.splitlines()[0]
        assert "value" in header and "symbol" in header


class TestFacetsCommand:
    def test_diagonal(self):
        code, out, _ = run([
            "facets", "--p", "2", "--l", "1", "--format", "json-lines",
        ])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["facet"] for r in records] == ["{1,2}"]

    def test_top_faces_count(self):
        code, out, _ = run([
            "facets", "--p", "3", "--l", "0", "--format", "json-lines",
        ])
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_with_counts_computes_one_count_per_listing(self, record_calls):
        codes = []
        called = record_calls(lambda: codes.append(main(
            ["facets", "--p", "4", "--l", "1", "--with-counts", "2"],
            out=io.StringIO(), err=io.StringIO())))
        assert codes == [0]
        assert called["figulat.combinatorics.figurate"] == 1

    def test_cap_exceeded(self):
        code, _, err = run([
            "facets", "--p", "6", "--l", "2", "--max-expressions", "10",
        ])
        assert code == 3 and "budget" in err

    def test_bad_codimension_is_usage_error(self):
        code, _, _ = run(["facets", "--p", "3", "--l", "5"])
        assert code == 2

    def test_bad_dimension_is_usage_error(self):
        assert run(["facets", "--p", "0", "--l", "0"]) == (
            2, "", "error: dimension must be >= 1, got p=0\n")


class TestAuditCommand:
    SMALL = ["audit", "--m-max", "2", "--k-max", "2", "--n-max", "2",
             "--p-max", "2", "--cover-p-max", "1", "--cover-n-max", "1"]

    def test_default_flags_pass(self):
        code, out, _ = run(["audit"])
        assert (code, out) == (0, "audit ok\n")

    def test_mismatches_exit_1(self, monkeypatch):
        real = combinatorics.figurate
        monkeypatch.setattr(combinatorics, "figurate", lambda k, n: real(k, n) + 1)
        code, out, err = run(self.SMALL)
        assert code == 1
        assert out.splitlines() == [
            f"MISMATCH figurate k={k} n={n}: computed {real(k, n) + 1}, oracle {real(k, n)}"
            for k in (1, 2) for n in (1, 2)
        ]
        assert err == "audit failed: 4 mismatches\n"
        # The Stirling pairings start at m = 0.
        monkeypatch.undo()
        real = combinatorics.stirling2_inclusion_exclusion
        monkeypatch.setattr(combinatorics, "stirling2_inclusion_exclusion",
                            lambda m, j: real(m, j) + 1)
        code, out, err = run(self.SMALL)
        assert (code, err) == (1, "audit failed: 4 mismatches\n")
        assert out.splitlines()[0] == "MISMATCH stirling m=0 j=1: computed 0, oracle 1"

    def test_a_signed_cover_mismatch_names_its_point_by_its_coordinates(self, monkeypatch):
        monkeypatch.setattr(oracles, "oracle_signed_cover", lambda point: 0)
        code, out, err = run(self.SMALL[:-4] + ["--cover-p-max", "2", "--cover-n-max", "2"])
        assert code == 1
        assert out.splitlines() == [
            f"MISMATCH signed cover p={p} n={n} point=({point}): computed 1, oracle 0"
            for p, n, point in [(1, 1, "0"), (1, 2, "0"), (1, 2, "1"), (2, 1, "0,0"),
                                (2, 2, "0,0"), (2, 2, "0,1"), (2, 2, "1,0"), (2, 2, "1,1")]
        ]
        assert err == "audit failed: 8 mismatches\n"

    def test_a_wrong_face_count_row_fails_exactly_the_families_that_read_it(
            self, monkeypatch):
        real = combinatorics.facet_count
        monkeypatch.setattr(combinatorics, "facet_count", lambda p, l: 2 * real(p, l))
        code, out, err = run(self.SMALL)
        assert code == 1
        names = [line.removeprefix("MISMATCH ").split(":")[0] for line in out.splitlines()]
        families = Counter(" ".join(w for w in name.split() if "=" not in w)
                           for name in names)
        assert families == {"stirling": 3, "surjections": 3, "bell row": 2, "facet count": 3}
        assert err == "audit failed: 11 mismatches\n"

    def test_reduced_grid_passes(self):
        code, out, _ = run(["audit", "--m-max", "5", "--k-max", "5", "--n-max", "5",
                            "--p-max", "4", "--cover-p-max", "3", "--cover-n-max", "3"])
        assert code == 0
        assert "audit ok" in out

    def test_malformed_flag(self):
        code, _, _ = run(["audit", "--m-max", "not-a-number"])
        assert code == 2

    @pytest.mark.parametrize("bound,builder", [
        ("--p-max", "iter_facets"),
        ("--cover-p-max", "point_multiplicity"),
    ])
    def test_face_checks_over_the_cap_are_refused_before_the_first(
            self, monkeypatch, bound, builder):
        # At p=10, l=0 and l=1 fit the default cap and l=2 does not.
        def refuse(*args):
            raise AssertionError(f"{builder} was called")
        monkeypatch.setattr(facets if builder == "iter_facets" else lattice, builder, refuse)
        argv = ["audit"]
        for flag in ("--m-max", "--k-max", "--n-max", "--p-max", "--cover-p-max",
                     "--cover-n-max"):
            argv += [flag, "10" if flag == bound else "1"]
        code, out, err = run(argv)
        assert (code, out) == (3, "")
        assert err.startswith("budget exceeded: chain-expression enumeration for (p=10, l=2)")

    def test_face_counts_read_the_stream_not_a_list(self, monkeypatch):
        """The audit counts each codimension's faces as they come, so it
        never holds a whole codimension's list."""
        def refuse(*args):
            raise AssertionError("enumerate_facets was called")
        monkeypatch.setattr(facets, "enumerate_facets", refuse)
        code, out, _ = run(self.SMALL + ["--p-max", "5"])
        assert (code, out) == (0, "audit ok\n")

    @pytest.mark.parametrize("flag", ["--m-max", "--k-max", "--n-max", "--p-max",
                                      "--cover-p-max", "--cover-n-max"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bounds_need_positive_integers(self, flag, value):
        code, out, _ = run(["audit", flag, value])
        assert code == 2 and out == ""


def crash(p, n):
    raise RuntimeError("injected")


# One case per place that `main` or a command writes to stderr: a verify
# skip line, the audit's summary, and main's three handlers.
@pytest.mark.parametrize("patch, argv, code, head", [
    pytest.param(None, ["verify", "--p", "3", "--n", "3", "--route", "pointwise",
                        "--max-points", "8"], 3, "skipped p=3 n=3 route=pointwise: ",
                 id="skip"),
    pytest.param((combinatorics, "figurate", lambda k, n: 0), TestAuditCommand.SMALL, 1,
                 "audit failed: 4 mismatches\n", id="audit"),
    pytest.param(None, ["facets", "--p", "0", "--l", "0"], 2,
                 "error: dimension must be >= 1, got p=0\n", id="domain"),
    pytest.param(None, ["facets", "--p", "6", "--l", "2", "--max-expressions", "10"], 3,
                 "budget exceeded: ", id="budget"),
    pytest.param((verifier, "verify_algebraic", crash),
                 ["verify", "--p", "2", "--n", "2", "--route", "algebraic"], 4,
                 "Traceback (most recent call last):", id="crash"),
])
def test_messages_go_to_the_err_main_is_given(patch, argv, code, head, monkeypatch, capsys):
    # `run` redirects sys.stderr into its own buffer, so it cannot tell
    # whether `main` wrote to `err` or to sys.stderr; here sys.stderr is
    # capsys's and must stay empty.
    if patch:
        monkeypatch.setattr(*patch)
    out, err = io.StringIO(), io.StringIO()
    assert main(argv, out=out, err=err) == code
    assert err.getvalue().startswith(head)
    assert capsys.readouterr() == ("", "")


def test_readme_has_cli_examples():
    assert len(readme_cli_examples()) >= 5


@pytest.mark.parametrize("command", readme_cli_examples())
def test_readme_cli_example_runs(command):
    # `test_listing_bytes_match_the_corpus` replays each example's case,
    # and TestAuditCommand.test_default_flags_pass runs the default audit.
    argv = shlex.split(command)
    args = cli.build_parser().parse_args(argv)
    if argv[0] == "audit":
        assert args.func is cli.cmd_audit
        return
    if "--format" not in argv:
        assert args.format == "plain-table"
        argv += ["--format", "plain-table"]
    (case,) = [case for case in CASES if case["argv"] == argv]
    assert (case["code"], case["stderr"]) == (0, "") and case["stdout"]


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_listing_bytes_match_the_corpus(case):
    assert run(case["argv"]) == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("arg", ["--help", "extra"])
def test_the_corpus_generator_refuses_any_argument_and_writes_nothing(arg):
    before = CORPUS.read_bytes(), CORPUS.stat().st_mtime_ns
    proc = subprocess.run([sys.executable, str(CORPUS.parent / "make_cli_corpus.py"), arg],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "usage: python tests/make_cli_corpus.py (no arguments)\n"
    assert (CORPUS.read_bytes(), CORPUS.stat().st_mtime_ns) == before


def test_corpus_holds_exactly_the_generated_cases():
    # A case added to `make_cli_corpus.py` but never regenerated, or one
    # left in the file after it was dropped there, fails here.
    assert [case["argv"] for case in CASES] == cases()


def test_regeneration_names_each_case_it_drops_adds_or_changes():
    def case(command, stdout):
        return {"argv": shlex.split(command), "code": 0, "stdout": stdout, "stderr": ""}
    old = [case("facets --p 3 --l 1", "a\n"), case("table --kind stirling --m 0..4", "b\n"),
           case("verify --p 1..5 --n 1..3 --route pointwise", "c\n")]
    new = [case("facets --p 3 --l 1", "a\n"), case("table --kind stirling --m 0..4", "B\n"),
           case("verify --p 1..6 --n 1..3 --route pointwise", "c\n")]
    assert changes(old, new) == [
        "dropped verify --p 1..5 --n 1..3 --route pointwise",
        "changed table --kind stirling --m 0..4",
        "added verify --p 1..6 --n 1..3 --route pointwise",
    ]
    assert changes(new, new) == []
