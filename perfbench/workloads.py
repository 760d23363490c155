"""Workload definitions, seeded corpus generation, and answer checking.

Instances come from the generators in ``tests/helpers.py``.  UNSAT
instances are certified by an exhaustive bit-parallel check of this
module's own, and every solver answer is checked with this module's own
clause evaluation, never with ``ballsat.evaluate``.
"""

from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

import ballsat

REPO = Path(__file__).resolve().parent.parent
# --seed picks the instances only; the solver's own randomness (prefix
# order, K-ary repair code) stays fixed so that it cannot shift every
# instance of one run together.
SOLVER_SEED = 0


@dataclass(frozen=True)
class Family:
    """One generator setting: uniform random (certified UNSAT) or planted SAT."""

    n: int
    m: int
    width: int
    planted: bool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    families: tuple[Family, ...]   # instance i is drawn from families[i % len]
    k: int
    mode: str
    r_max: int | None
    workers: int
    corpus_size: int               # more than one timed run gets through
    trace_per_s: float             # traced solves per second of --seconds

    def config(self) -> ballsat.SolveConfig:
        return ballsat.SolveConfig(
            k=self.k, r_max=self.r_max, mode=self.mode, workers=self.workers,
            seed=SOLVER_SEED,
        )

    def shapes(self) -> list[tuple[int, int]]:
        """Distinct (n, width) pairs; with k fixed they fix every cover built."""
        return sorted({(f.n, f.width) for f in self.families})


UNSAT3_HYBRID = Family(n=13, m=59, width=3, planted=False)
UNSAT3_CLASSICAL = Family(n=17, m=77, width=3, planted=False)
PLANTED3 = Family(n=13, m=70, width=3, planted=True)
PLANTED4 = Family(n=12, m=138, width=4, planted=True)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "unsat3-hybrid",
            "UNSAT random 3-SAT n=13 m=59, k=1 r_max=3 hybrid, 1 worker: sweep radius 4 > r_max, "
            "so every ball runs kpbs_hybrid jumps and the amplified leaf, all retries spent",
            (UNSAT3_HYBRID,),
            k=1,
            mode="hybrid",
            r_max=3,
            workers=1,
            corpus_size=320,
            trace_per_s=0.5,
        ),
        Workload(
            "unsat3-classical",
            "UNSAT random 3-SAT n=17 m=77, k=4 classical, 1 worker: zero quantum calls, "
            "restrict-heavy kqcpbs over 16 prefixes; the bypass for leaf work",
            (UNSAT3_CLASSICAL,),
            k=4,
            mode="classical",
            r_max=None,
            workers=1,
            corpus_size=320,
            trace_per_s=2.0,
        ),
        Workload(
            "planted-pool",
            "planted 3-SAT n=13 m=70 and 4-SAT n=12 m=138 in 7:1 mix, k=2 r_max=3, 2 workers: "
            "SAT path, leaf hits, first-success cancellation, K=4 codes",
            (PLANTED3,) * 7 + (PLANTED4,),
            k=2,
            mode="hybrid",
            r_max=3,
            workers=2,
            corpus_size=1600,
            trace_per_s=8.0,
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    index: int
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    dimacs: str
    satisfiable: bool   # planted instances are SAT; random ones are certified UNSAT


def load_helpers():
    """The test suite's generators, loaded from their file without touching sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_helpers", REPO / "tests" / "helpers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def first_model(num_vars: int, clauses) -> tuple[int, ...] | None:
    """Lexicographically first satisfying assignment (x1 most significant), or None.

    Each literal is the packed truth table of its variable over all 2^n
    assignments; a clause is the OR of its literals and the formula the AND
    of its clauses, so the check costs m * width passes over 2^n / 8 bytes.
    """
    if num_vars == 0:
        return () if not clauses else None
    tables = _truth_tables(num_vars)
    alive = np.full_like(tables[1], 0xFF)
    for clause in clauses:
        sat = np.zeros_like(alive)
        for lit in clause:
            sat |= tables[lit] if lit > 0 else ~tables[-lit]
        alive &= sat
    hits = np.flatnonzero(np.unpackbits(alive, count=1 << num_vars))
    if hits.size == 0:
        return None
    first = int(hits[0])
    return tuple((first >> (num_vars - v)) & 1 for v in range(1, num_vars + 1))


@lru_cache(maxsize=4)
def _truth_tables(num_vars: int) -> list:
    """Packed truth table of x_v over {0,1}^n in lexicographic order, index v."""
    index = np.arange(1 << num_vars, dtype=np.uint32)
    return [None] + [
        np.packbits(((index >> (num_vars - v)) & 1).astype(bool))
        for v in range(1, num_vars + 1)
    ]


def satisfies(clauses, model) -> bool:
    return all(
        any((model[abs(lit) - 1] == 1) == (lit > 0) for lit in clause)
        for clause in clauses
    )


def _calibration_input():
    rng = random.Random("calibration")
    clauses = tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 41), 3))
        for _ in range(170)
    )
    models = tuple(tuple(rng.randrange(2) for _ in range(40)) for _ in range(25))
    return clauses, models


_CAL_CLAUSES, _CAL_MODELS = _calibration_input()


def calibration_slice() -> int:
    """A few milliseconds of fixed pure-Python clause checking.

    Timed between solves to track how fast the machine runs Python at that
    moment.  It belongs to the benchmark, so a change to ballsat cannot
    change it.
    """
    return sum(
        any((m[abs(lit) - 1] == 1) == (lit > 0) for lit in clause)
        for m in _CAL_MODELS
        for clause in _CAL_CLAUSES
    )


def build_corpus(w: Workload, seed: int, size: int | None = None):
    """Instances 0..size-1 for this seed, and the count of random draws tried."""
    size = w.corpus_size if size is None else size
    helpers = load_helpers()
    rng = random.Random(f"{w.name}:{seed}")
    corpus, tried = [], 0
    for index in range(size):
        fam = w.families[index % len(w.families)]
        if fam.planted:
            formula, _ = helpers.planted_ksat(fam.n, fam.m, fam.width, rng)
            tried += 1
        else:
            while True:
                formula = helpers.random_ksat(fam.n, fam.m, fam.width, rng)
                tried += 1
                if first_model(formula.num_vars, formula.clauses) is None:
                    break
        corpus.append(
            Instance(
                index,
                formula.num_vars,
                formula.clauses,
                formula.to_dimacs(),
                fam.planted,
            )
        )
    return corpus, tried


def warmup_formula(n: int, width: int) -> ballsat.Formula:
    """All-negative cyclic clauses: the all-zero sweep centre satisfies them."""
    return ballsat.Formula(
        n, tuple(tuple(-(1 + (i + j) % n) for j in range(width)) for i in range(n))
    )


def failure(inst: Instance, status: str, model) -> str | None:
    """Why an answer is wrong, or None when it is right."""
    if status == "SAT":
        if model is None or len(model) != inst.num_vars:
            return "SAT without a full model"
        if not satisfies(inst.clauses, model):
            return "SAT model falsifies a clause"
        if not inst.satisfiable:
            return "SAT on a certified-UNSAT instance"
        return None
    if status == "FALSE":
        return "FALSE on a planted instance" if inst.satisfiable else None
    return f"unexpected status {status!r}"
