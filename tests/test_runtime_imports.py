"""The runtime package imports only the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cavmag"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "__future__"}


def absolute_imports(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_or_numpy(path):
    foreign = [(line, name) for line, name in absolute_imports(path) if name not in ALLOWED]
    assert foreign == [], f"{path.name} imports outside the stdlib and numpy: {foreign}"


def test_the_guard_sees_every_module():
    assert {"core.py", "sweep.py", "cli.py"} <= {p.name for p in SRC.glob("*.py")}
