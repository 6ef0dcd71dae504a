"""The mutant generator of `tests/mutate.py`, checked without a campaign:
no copy is made and no suite runs."""
import ast
from functools import cache

from mutate import MODULES, PACKAGE, killed_only_in_bench, mutants


def parse(text):
    """The tree of `text`, and the shape of each of its nodes by id: nested
    tuples of the node's type and fields, positions left out."""
    shapes = {}

    def shape(node):
        if isinstance(node, list):
            return tuple(map(shape, node))
        if not isinstance(node, ast.AST):
            return node
        shapes[id(node)] = found = (type(node), *(shape(getattr(node, f)) for f in node._fields))
        return found

    tree = ast.parse(text)
    shape(tree)
    return tree, shapes


@cache
def statements(module):
    """The module's source, and the offset of each top-level statement's
    first line, decorators included, then the end of the source."""
    source = (PACKAGE / f"{module}.py").read_text()
    lines = source.splitlines(keepends=True)
    firsts = [min([s.lineno, *(d.lineno for d in getattr(s, "decorator_list", []))])
              for s in ast.parse(source).body]
    return source, [len("".join(lines[:first - 1])) for first in firsts] + [len(source)]


parse_original = cache(parse)


def test_every_mutant_compiles_and_changes_one_node():
    """Each mutant differs from its module inside one top-level statement,
    which compiles, and at one node there: an operator swapped, a node
    dropped for its child, a node wrapped in a new parent, or a returned
    value made None."""
    found = mutants()
    assert found == mutants()
    assert {kind for _, _, kind, _, _ in found} == {"compare", "sign", "range", "not", "return", "swap"}
    assert {module for module, _, _, _, _ in found} == set(MODULES)
    for module, line, kind, _, text in found:
        source, starts = statements(module)
        lines = source.splitlines(True)
        same = next(i for i, (a, b) in enumerate(zip(lines, text.splitlines(True))) if a != b)
        first = len("".join(lines[:same]))
        start, end = next((a, b) for a, b in zip(starts, starts[1:]) if b > first)
        shift = len(text) - len(source)
        assert source[end:] == text[end + shift:]
        compile(text[start:end + shift], f"{module}.py", "exec")
        (old, old_shapes), (new, new_shapes) = parse_original(source[start:end]), parse(text[start:end + shift])
        # Down from the statement while exactly one child differs.
        while True:
            pairs = list(zip(ast.iter_child_nodes(old), ast.iter_child_nodes(new)))
            differing = [(a, b) for a, b in pairs if old_shapes[id(a)] != new_shapes[id(b)]]
            if type(old) is not type(new) or len(differing) != 1 or not \
                    len(pairs) == len(list(ast.iter_child_nodes(old))) == len(list(ast.iter_child_nodes(new))):
                break
            old, new = differing[0]
        assert (isinstance(old, (ast.cmpop, ast.operator)) and type(old) is not type(new)
                or new_shapes[id(new)] in (old_shapes[id(c)] for c in ast.iter_child_nodes(old))
                or old_shapes[id(old)] in (new_shapes[id(c)] for c in ast.iter_child_nodes(new))
                or kind == "return" and isinstance(new, ast.Constant) and new.value is None), \
            (module, line, kind)


def test_kills_only_in_bench_are_read_from_the_matrix():
    # A timeout or a collection failure names no test, so it is left out.
    rows = [{"line": 1, "killed_by": ["bench/test_bench.py::a"]},
            {"line": 2, "killed_by": ["bench/test_bench.py::a", "tests/test_cli.py::b"]},
            {"line": 3, "killed_by": ["tests/test_cli.py::b"]},
            {"line": 4, "killed_by": []},
            {"line": 5, "killed_by": ["bench/test_bench.py::a", "bench/test_bench.py::c[1]"]}]
    assert [row["line"] for row in killed_only_in_bench(rows)] == [1, 5]
