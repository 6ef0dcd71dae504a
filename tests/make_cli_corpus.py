"""Regenerate `tests/cli_corpus.json`, the exact bytes of the CLI listings.

Usage, from the root of the repository:

    python tests/make_cli_corpus.py

It takes no arguments: given any, it prints a usage line to stderr and
exits 2 without writing.

Each case is one argv run through `figulat.cli.main` in process, stored
with its exit code, stdout and stderr. The cases are every `table` kind,
`facets` alone and with each flag, `verify` by each route (p <= 5 for
the closed forms and the faces, p <= 6 for the pointwise cover, n <= 3),
a grid of every route with four cells over the point cap, every README
`## CLI` example but `audit` (the default `audit` is pinned by
`TestAuditCommand`, so the corpus does not run it twice), and one
refusal of each kind, each in all three formats; then the parser's own
text, once each: `--help` for the program and for each command, and one
usage error per command. argparse writes that text to `sys.stdout` and
`sys.stderr`, not to `out` and `err`, and wraps it at `$COLUMNS`, so
each case runs with both streams captured and `COLUMNS=80`.
`tests/test_cli.py` imports `run` and `readme_cli_examples` from here,
replays every case and compares the bytes. The corpus is the suite's one
byte-level pin of the CLI. pytest does not collect this file; rerun it
only when a change to the output is meant. It prints the argv of every
case it adds, drops or changes: name each of them, and why, when the
change is committed.
"""
import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from figulat.cli import main  # noqa: E402

CORPUS = ROOT / "tests" / "cli_corpus.json"
FORMATS = ("plain-table", "csv", "json-lines")
LISTINGS = [
    "table --kind stirling --m 0..4",
    "table --kind facet-counts --p 1..4",
    "table --kind figurate --k 1..3 --n 1..3",
    "facets --p 3 --l 1",
    "facets --p 3 --l 1 --with-surjections",
    "facets --p 3 --l 1 --with-counts 2",
    "verify --p 1..5 --n 1..3 --route algebraic",
    "verify --p 1..5 --n 1..3 --route geometric",
    "verify --p 1..6 --n 1..3 --route pointwise",
    "verify --p 1..3 --n 1..3 --route all --max-points 8",  # exit 3: four cells skipped
]
REFUSALS = [
    "verify --p 12 --n 1",  # exit 3 after the algebraic record: no face fits the cap
    "facets --p 4 --l 1 --max-expressions 1",  # exit 3, nothing on stdout
    "table --kind stirling",  # exit 2: no --m
    "facets --p 0 --l 0 --with-counts 2",  # exit 2: no dimension 0
]
PARSER = [
    "--help",
    "verify --help",
    "table --help",
    "facets --help",
    "audit --help",
    "verify --p 1 --n 1 --route nope",  # exit 2: the --route choices
    "table --kind nope",  # exit 2: the --kind choices
    "facets --p 3",  # exit 2: no --l
    "audit --m-max 0",  # exit 2: not a positive integer
]


def readme_cli_examples():
    """The commands of the `figulat ...` lines in the fenced block under
    README's `## CLI`."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line.split(" ", 1)[1] for line in block.splitlines() if line.startswith("figulat ")]


def in_format(command, fmt):
    """`command` as an argv in format `fmt`: its own `--format` value is
    replaced, else `--format fmt` is appended."""
    argv = shlex.split(command)
    if "--format" in argv:
        argv[argv.index("--format") + 1] = fmt
        return argv
    return argv + ["--format", fmt]


def cases():
    return [in_format(command, fmt)
            for command in LISTINGS + [command for command in readme_cli_examples()
                                       if not command.startswith("audit")] + REFUSALS
            for fmt in FORMATS] + [shlex.split(command) for command in PARSER]


def run(argv):
    """Exit code, stdout and stderr of `main(argv)`, with `sys.stdout` and
    `sys.stderr` captured too and `COLUMNS=80`."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
        code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def changes(old, new):
    """A line for each case dropped from `old`, then for each added to or
    changed in `new`, naming the case by its argv."""
    old, new = ({shlex.join(case["argv"]): case for case in corpus} for corpus in (old, new))
    return ([f"dropped {argv}" for argv in old if argv not in new]
            + [f"{'changed' if argv in old else 'added'} {argv}"
               for argv, case in new.items() if old.get(argv) != case])


if __name__ == "__main__":
    if sys.argv[1:]:
        print("usage: python tests/make_cli_corpus.py (no arguments)", file=sys.stderr)
        sys.exit(2)
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else []
    new = [dict(zip(("argv", "code", "stdout", "stderr"), (argv, *run(argv))))
           for argv in cases()]
    CORPUS.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {CORPUS.relative_to(ROOT)}: {len(new)} cases", *changes(old, new), sep="\n")
