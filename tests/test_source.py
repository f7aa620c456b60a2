import ast
from pathlib import Path

import cocycle_lab

SOURCES = sorted(Path(cocycle_lab.__file__).parent.rglob("*.py"))


def test_invariants_are_raised_not_asserted():
    # `python -O` strips assert statements; a check in the library must survive it
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found


# the matrix oracle is independent of the law engine and the exponent path
ORACLES = ("categorical_pentagon_check", "categorical_hexagon_check")
LAW_ENGINE_NAMES = {
    "first_failure", "evaluate", "law_rows", "positions", "position",
    "cochain_exponents", "_root_exponents", "as_root_exponent",
}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name


def test_matrix_oracle_names_nothing_of_the_law_engine():
    source = Path(cocycle_lab.__file__).parent / "braidings.py"
    tree = ast.parse(source.read_text(), filename=str(source))
    defined = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    reached, todo = set(), list(ORACLES)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for n in _names(defined[name]) if n in defined]
    assert {"_compose", "_require_pair"} <= reached
    named = {(name, n) for name in reached for n in _names(defined[name]) if n in LAW_ENGINE_NAMES}
    assert not named
