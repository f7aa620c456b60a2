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
