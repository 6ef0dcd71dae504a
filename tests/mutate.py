"""Mutation campaign: how many small faults in the package the suite kills,
and which tests kill each.

Usage, from anywhere in the repository, with no options:

    python tests/mutate.py

It copies the working tree's `src`, `tests`, `bench`, `pyproject.toml`
and `README.md` (whose CLI examples the suite runs) under the temp dir,
once per CPU, and never writes inside the checkout.
Each mutant changes one `ast` node of one module:

- `compare`: a comparison flipped (`<` and `>`, `<=` and `>=`, `==` and
  `!=`, `in` and `not in`, `is` and `is not`);
- `sign`: `+` and `-` swapped, or a unary minus dropped;
- `range`: a `range` start moved up by one, or its stop down by one;
- `not`: a `not` dropped;
- `return`: a returned expression replaced by `None`;
- `swap`: entries 0 and 2 (0 and 1 when there are two) of a
  per-codimension sequence swapped (`PER_CODIMENSION` names them).

The node's text is replaced in the module's source and the rest is kept
byte for byte, so tests that read the source see only that change.

First the unmutated suite runs, and it must pass. Then the tier-1 command
runs on each mutant, one run per CPU at a time, each with a `TMPDIR` of
its own, and a run is stopped after three times the unmutated suite's
wall time. A mutant is killed when a test fails or errors, or when its
run times out. The failing test ids of each mutant go to
`figulat-mutate/matrix.json` under the temp dir, killed / total is
printed for each module, and then each mutant that only tests under
`bench/` kill. Standard library only; pytest does not collect this file.
"""
import ast
import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "figulat"
MODULES = ("verifier", "lattice", "facets", "combinatorics", "errors", "cli", "oracles")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md")

FLIPPED = {ast.Lt: ast.Gt, ast.Gt: ast.Lt, ast.LtE: ast.GtE, ast.GtE: ast.LtE,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
           ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SIGNS = {ast.Add: ast.Sub, ast.Sub: ast.Add}

# The sequences indexed by codimension, by the function that reads them
# and the text of the expression that holds them: the face index's spans
# and the counts read off them, the figurate column, the face-count row,
# and a report's terms and signed products.
PER_CODIMENSION = {
    ("lattice", "_face_index"): {"tuple(zip(starts, reversed(counts)))"},
    ("lattice", "_containing_counts"): {"spans"},
    ("combinatorics", "figurates"): {"column"},
    ("combinatorics", "facet_counts"): {"_facet_row[1][::-1]"},
    ("verifier", "verify_algebraic"): {"terms", "signed"},
    ("verifier", "verify_geometric"): {"terms"},
}
SWAPPED = ast.parse("lambda s: s[2:3] + s[1:2] + s[:1] + s[3:]", mode="eval").body


def _sites(tree, module):
    """Every (kind, node, replacement) of the module: `node`'s source text
    is to be replaced by the replacement's. Nodes inside f-strings are left
    out, since their positions are not reliable."""
    # A sequence is swapped where it is read whole: not in a target of an
    # assignment, nor where an attribute or entry of it is read.
    part = set()
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop(0)
        if isinstance(node, ast.FunctionDef):
            function = node.name
        stack.extend((child, function) for child in ast.iter_child_nodes(node)
                     if not isinstance(child, ast.JoinedStr))
        targets = [*getattr(node, "targets", ()), getattr(node, "target", None)]
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            targets.append(node.value)
        part.update(id(n) for target in targets if target for n in ast.walk(target))
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                new = copy.deepcopy(node)
                new.ops[i] = FLIPPED[type(op)]()
                yield "compare", node, new
        elif isinstance(node, ast.BinOp) and type(node.op) in SIGNS:
            new = copy.deepcopy(node)
            new.op = SIGNS[type(node.op)]()
            yield "sign", node, new
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield "sign", node, node.operand
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield "not", node, node.operand
        elif isinstance(node, ast.Return) and node.value is not None \
                and not isinstance(node.value, ast.Constant):
            yield "return", node.value, ast.Constant(None)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range":
            bounds = node.args[:2]
            for i, bound in enumerate(bounds):
                moved = ast.Sub() if i == len(bounds) - 1 else ast.Add()
                yield "range", bound, ast.BinOp(bound, moved, ast.Constant(1))
        if isinstance(node, (ast.Name, ast.Call, ast.Subscript)) and id(node) not in part \
                and ast.unparse(node) in PER_CODIMENSION.get((module, function), ()):
            yield "swap", node, ast.Call(SWAPPED, [node], [])


def _splice(source: bytes, node, replacement) -> bytes:
    """`source` with the text of `node` replaced by the replacement's, in
    parentheses. AST offsets count bytes of UTF-8."""
    lines = source.splitlines(keepends=True)
    start = sum(map(len, lines[:node.lineno - 1])) + node.col_offset
    end = sum(map(len, lines[:node.end_lineno - 1])) + node.end_col_offset
    return source[:start] + f"({ast.unparse(replacement)})".encode() + source[end:]


def mutants(package: Path = PACKAGE):
    """Every mutant of every module in MODULES, in a fixed order, as
    (module, line, kind, change, mutated source text)."""
    found = []
    for module in MODULES:
        source = (package / f"{module}.py").read_bytes()
        for kind, node, replacement in _sites(ast.parse(source), module):
            found.append((module, node.lineno, kind,
                          f"{ast.unparse(node)} -> {ast.unparse(replacement)}",
                          _splice(source, node, replacement).decode()))
    return found


def _killers(output: str, tests: list[str]) -> list[str]:
    """The test ids that pytest's short summary in `output` lists as failed
    or errored; a module that fails to import is listed by its path."""
    killers = set()
    for line in output.splitlines():
        for word in ("FAILED ", "ERROR "):
            if line.startswith(word):
                rest = line[len(word):]
                matches = [test for test in tests if rest == test or rest.startswith(test + " ")]
                killers.add(max(matches, key=len) if matches else rest.split(" - ")[0])
    return sorted(killers)


def killed_only_in_bench(rows):
    """The matrix rows of the mutants that some test kills and that no test
    outside `bench/` kills."""
    return [row for row in rows
            if row["killed_by"] and all(t.startswith("bench/") for t in row["killed_by"])]


def _run(tree: Path, scratch: Path, timeout: float | None):
    """Run the tier-1 command in `tree` with `scratch` as its temp dir.
    Returns (exit code or None on timeout, output, wall seconds)."""
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    # A stale compiled module could stand in for a mutant of the same size
    # written in the same second.
    shutil.rmtree(tree / "src" / "figulat" / "__pycache__", ignore_errors=True)
    env = {**os.environ, "TMPDIR": str(scratch), "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    with subprocess.Popen(TIER1, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, start_new_session=True) as run:
        try:
            output, _ = run.communicate(timeout=timeout)
            code = run.returncode
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            output, code = run.communicate()[0], None
    shutil.rmtree(scratch, ignore_errors=True)
    return code, output, time.perf_counter() - start


def main() -> int:
    if sys.argv[1:]:
        print("usage: python tests/mutate.py (it takes no options)", file=sys.stderr)
        return 2
    home = Path(tempfile.gettempdir()) / "figulat-mutate"
    shutil.rmtree(home, ignore_errors=True)
    workers = os.cpu_count() or 1
    trees = [home / f"tree{i}" for i in range(workers)]
    for tree in trees:
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
            else:
                shutil.copy2(ROOT / name, tree / name)
    listed = subprocess.run([*TIER1, "--collect-only"], cwd=trees[0], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": str(trees[0] / "src")})
    tests = [line for line in listed.stdout.splitlines() if "::" in line]
    code, output, seconds = _run(trees[0], home / "tmp0", None)
    if code != 0:
        print(output, "the unmutated suite must pass", sep="\n", file=sys.stderr)
        return 1
    print(f"unmutated suite: {len(tests)} tests in {seconds:.1f} s", flush=True)

    package = trees[0] / "src" / "figulat"
    originals = {module: (package / f"{module}.py").read_text() for module in MODULES}
    todo = mutants(package)
    results = [None] * len(todo)
    matrix = home / "matrix.json"
    free = list(range(workers))

    def attempt(index):
        module, line, kind, change, text = todo[index]
        slot = free.pop()
        target = trees[slot] / "src" / "figulat" / f"{module}.py"
        try:
            target.write_text(text)
            code, output, wall = _run(trees[slot], home / f"tmp{slot}", 3 * seconds)
        finally:
            target.write_text(originals[module])
            free.append(slot)
        killers = _killers(output, tests) if code is not None else []
        results[index] = {"module": module, "line": line, "kind": kind, "change": change,
                          "timeout": code is None, "killed_by": killers,
                          "killed": code is None or code != 0, "seconds": round(wall, 1)}
        done = [r for r in results if r is not None]
        print(f"{len(done)}/{len(todo)} {module}:{line} {kind}: "
              f"{'timeout' if code is None else len(killers)} ", flush=True)
        matrix.write_text(json.dumps({"tests": tests, "mutants": done}, indent=1))

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(attempt, range(len(todo))))
    for tree in trees:
        shutil.rmtree(tree)
    matrix.write_text(json.dumps({"tests": tests, "mutants": results}, indent=1))
    for module in MODULES:
        rows = [r for r in results if r["module"] == module]
        print(f"{module}: {sum(r['killed'] for r in rows)}/{len(rows)} killed")
    for row in killed_only_in_bench(results):
        print(f"killed only in bench/: {row['module']}:{row['line']} {row['kind']} "
              f"{row['change']} by {', '.join(row['killed_by'])}")
    print(f"matrix: {matrix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
