"""Time figulat command lines side by side on a git revision and on the
working tree, and check that both print the same bytes.

Usage, from anywhere in the repository:

    python tests/side_by_side.py [--pairs N] REV COMMAND [COMMAND ...]

for example

    python tests/side_by_side.py HEAD~1 "table --kind stirling --m 0" \\
        "verify --p 5 --n 3 --route pointwise"

REV's `src` is exported with `git archive` into a temporary directory,
and the working tree's `src` is copied beside it without its
`__pycache__` directories, so neither side starts with bytecode the other
lacks. Each COMMAND runs in fresh interpreters through `figulat.cli.main`, the
console script's body, with the tree's `src` as `PYTHONPATH` and the rest
of the caller's environment kept. Each tree first runs it once untimed, so
that any bytecode caches the environment allows are written on both
sides; then N pairs (default 30) are timed, alternating which tree runs
first. For each command it prints each tree's median wall time and median
child CPU time (user plus system, from `os.wait4`), in ms, and in how many
pairs the working tree took less of each. It exits 1 if any run's exit
code, stdout or stderr differs from REV's first run. Standard library
only; pytest does not collect this file.
"""
import argparse
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
ENTRY = "import sys; from figulat.cli import main; sys.exit(main())"


def run(src, argv):
    """(exit code, stdout, stderr, wall s, CPU s) of one fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), wall, usage.ru_utime + usage.ru_stime


def compare(command, trees, pairs):
    """One report row for `command`, and whether every run's bytes matched."""
    argv = shlex.split(command)
    expected = run(trees["base"], argv)[:3]
    same = run(trees["tree"], argv)[:3] == expected
    times = {name: [] for name in trees}
    for pair in range(pairs):
        order = ("base", "tree") if pair % 2 == 0 else ("tree", "base")
        for name in order:
            *result, wall, cpu = run(trees[name], argv)
            same = same and tuple(result) == expected
            times[name].append((wall, cpu))
    wins = [sum(t[i] < b[i] for t, b in zip(times["tree"], times["base"])) for i in (0, 1)]
    row = [f"{1000 * median(t[i] for t in times[name]):.1f}"
           for i in (0, 1) for name in ("base", "tree")]
    return [*row, f"{wins[0]}/{pairs}", f"{wins[1]}/{pairs}", command], same


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("rev")
    parser.add_argument("commands", nargs="+", metavar="command")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        trees = {"base": Path(scratch) / "base" / "src", "tree": Path(scratch) / "tree" / "src"}
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev, "src"],
                                 stdout=subprocess.PIPE, check=True).stdout
        trees["base"].parent.mkdir()
        subprocess.run(["tar", "-x", "-C", trees["base"].parent], input=archive, check=True)
        shutil.copytree(ROOT / "src", trees["tree"],
                        ignore=shutil.ignore_patterns("__pycache__"))
        header = ["wall base", "wall tree", "cpu base", "cpu tree", "wall wins", "cpu wins",
                  "command"]
        print(f"{args.rev} (base) against the working tree (tree); medians in ms over "
              f"{args.pairs} pairs; wins: pairs where the tree took less")
        print("  ".join(header))
        all_same = True
        for command in args.commands:
            row, same = compare(command, trees, args.pairs)
            all_same = all_same and same
            line = "  ".join(value.rjust(len(name)) for value, name in zip(row, header))
            print(line if same else line + "  OUTPUT DIFFERS", flush=True)
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
