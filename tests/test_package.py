"""Package-wide checks on the source of `ballsat` itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ballsat").glob("*.py"))
# numpy is the one runtime dependency; anything else installed here
# (scipy, pytest-benchmark) must stay optional
RUNTIME_DEPS = {"numpy"}


def absolute_imports(path):
    """(line, top-level module name) of every absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_imports_only_stdlib_and_numpy():
    assert {p.name for p in SOURCES} >= {"__init__.py", "orchestrator.py", "pbs.py"}
    stray = [
        f"{path.name}:{line} imports {name}"
        for path in SOURCES
        for line, name in absolute_imports(path)
        if name not in sys.stdlib_module_names and name not in RUNTIME_DEPS
    ]
    assert not stray, stray
