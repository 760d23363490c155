"""Package-wide checks on the source of `ballsat` itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "ballsat").glob("*.py"))
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


def modules_after(statement):
    """Whether `numpy.random` is loaded after `statement` in a fresh interpreter."""
    probe = f"import sys; {statement}; print('numpy.random' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_import_leaves_numpy_random_unloaded():
    # numpy 2 loads numpy.random on first use; a process that only imports,
    # parses or brute-forces need not pay for it
    if modules_after("import numpy"):
        pytest.skip("this numpy loads numpy.random at import")
    assert not modules_after("import ballsat")
