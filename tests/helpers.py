"""Shared instance generators for the test suite."""

import random

from ballsat import Formula, evaluate


def random_ksat(n: int, m: int, width: int, rng: random.Random) -> Formula:
    """Uniform random width-SAT: distinct variables per clause, random signs."""
    clauses = []
    for _ in range(m):
        chosen = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return Formula(n, tuple(clauses))


def planted_ksat(n: int, m: int, width: int, rng: random.Random):
    """Random instance guaranteed satisfiable by a hidden assignment.

    Clause signs are resampled until the hidden assignment satisfies the
    clause, so the returned (formula, witness) pair always verifies.
    """
    hidden = tuple(rng.randrange(2) for _ in range(n))
    clauses = []
    for _ in range(m):
        chosen = rng.sample(range(1, n + 1), width)
        while True:
            clause = tuple(v if rng.random() < 0.5 else -v for v in chosen)
            if any(
                (hidden[abs(lit) - 1] == 1) == (lit > 0) for lit in clause
            ):
                break
        clauses.append(clause)
    f = Formula(n, tuple(clauses))
    assert evaluate(f, hidden) == 1
    return f, hidden


def mixed_formula(n: int, m: int, rng: random.Random) -> Formula:
    """Random clauses of width 1-4 plus tautologies and a repeated literal."""
    clauses = []
    for _ in range(m):
        width = min(n, rng.choice((1, 2, 2, 3, 3, 3, 4)))
        chosen = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    v, w = rng.sample(range(1, n + 1), 2)
    clauses.insert(rng.randrange(len(clauses)), (v, -v))
    clauses.insert(rng.randrange(len(clauses)), (w, -v, -w))
    clauses.insert(rng.randrange(len(clauses)), (v, w, v))
    return Formula(n, tuple(clauses))


def random_assignment(n: int, rng: random.Random):
    return tuple(rng.randrange(2) for _ in range(n))
