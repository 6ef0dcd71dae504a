"""Regenerate `tests/cli_corpus.json`, the exact bytes of the CLI listings.

Usage, from the root of the repository:

    python tests/make_cli_corpus.py

Each case is one argv run through `figulat.cli.main` in process, stored
with its exit code, stdout and stderr. The cases are every `table` kind,
`facets` alone and with each flag, `verify` on p <= 5 and n <= 3 by each
route, every README `## CLI` example but `audit` (the default `audit` is
pinned by `TestAuditCommand`, so the corpus does not run it twice), and
one refusal of each kind, each in all three formats. `tests/test_cli.py` replays them and compares
the bytes. pytest does not collect this file; rerun it only when a change
to the output is meant, and name the change.
"""
import io
import json
import shlex
import sys
from pathlib import Path

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
    "verify --p 1..5 --n 1..3 --route pointwise",
]
REFUSALS = [
    "verify --p 12 --n 1",  # exit 3 after the algebraic record: no face fits the cap
    "facets --p 4 --l 1 --max-expressions 1",  # exit 3, nothing on stdout
    "table --kind stirling",  # exit 2: no --m
    "facets --p 0 --l 0 --with-counts 2",  # exit 2: no dimension 0
]


def readme_cli_examples():
    """The `figulat ...` lines of the fenced block under README's `## CLI`."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line.split(" ", 1)[1] for line in block.splitlines()
            if line.startswith("figulat ") and not line.startswith("figulat audit")]


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
            for command in LISTINGS + readme_cli_examples() + REFUSALS
            for fmt in FORMATS]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    CORPUS.write_text(json.dumps([run(argv) for argv in cases()], indent=1) + "\n")
    print(f"wrote {CORPUS.relative_to(ROOT)}")
