"""Package-wide checks on the source of `ballsat` itself."""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import planted_ksat

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


def modules_after(statement, stdin=""):
    """Whether `numpy.random` is loaded after `statement` in a fresh interpreter."""
    probe = f"import sys; {statement}; print('numpy.random' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], input=stdin, capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


# a solve of the formula on stdin; the assertion after it checks that the run
# reached the code it is meant to: the prefix order, a trie leaf, draws past the head
SOLVE = (
    "import ballsat; "
    "res = ballsat.solve(ballsat.parse_dimacs(sys.stdin.read()), ballsat.SolveConfig({})); "
    "recs = res.stats.records; assert {}, (res.status, len(recs))"
)
UNSAT3 = "p cnf 3 8\n" + "".join(
    f"{a} {b} {c} 0\n" for a in (1, -1) for b in (2, -2) for c in (3, -3)
)


def test_import_leaves_numpy_random_unloaded():
    # numpy 2 loads numpy.random on first use; a process that imports, parses,
    # brute-forces or solves need not pay for it: the solver's seeded streams
    # come from ballsat.stream
    if modules_after("import numpy"):
        pytest.skip("this numpy loads numpy.random at import")
    assert not modules_after("import ballsat")
    classical = SOLVE.format("k=1, mode='classical'", "res.stats.dispatches > 1 and not recs")
    assert not modules_after(classical, UNSAT3)
    # the CI's planted formula: a leaf misses at attempt 0 and hits at attempt 1
    f, _ = planted_ksat(13, 70, 3, random.Random(9))
    trie = SOLVE.format(
        "k=2, r_max=3, epsilon=0.7, seed=1",
        "res.status == 'SAT' and recs[-1].outcome == 'sat' and recs[-1].attempt == 1",
    )
    assert not modules_after(trie, f.to_dimacs())
    # each leaf draws 30 doubles, past the 24 of a cached head
    past_head = SOLVE.format("k=1, r_max=1, retries=30", "len(recs) >= 30 and recs[29].attempt == 29")
    assert not modules_after(past_head, UNSAT3)
