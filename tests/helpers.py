"""Shared instance generators for the test suite."""

import random
from itertools import product

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


def pigeonhole(p: int, h: int, rng: random.Random | None = None) -> Formula:
    """PHP(p -> h): p pigeons, h holes, no hole holding two; UNSAT iff p > h.

    Pigeon i in hole j is x(h*i + j), i = 0..p-1, j = 1..h: p width-h
    clauses (each pigeon sits somewhere), then h * C(p, 2) width-2 clauses
    (no hole holds two), hole by hole.  With `rng`, the variables are
    renumbered and the clauses reordered at random.
    """
    var = list(range(1, p * h + 1))
    clauses = [tuple(h * i + j for j in range(1, h + 1)) for i in range(p)]
    clauses += [
        (-(h * i + j), -(h * l + j))
        for j in range(1, h + 1)
        for i in range(p)
        for l in range(i + 1, p)
    ]
    if rng is not None:
        rng.shuffle(var)
        rng.shuffle(clauses)
    return Formula(p * h, tuple(
        tuple(var[lit - 1] if lit > 0 else -var[-lit - 1] for lit in clause) for clause in clauses
    ))


def tseitin_parity(vertices: int, rng: random.Random, odd: bool = True) -> Formula:
    """Tseitin parity on a cycle plus a random perfect matching off its edges.

    Every vertex has degree 3, and each edge is a variable.  Each vertex
    gets a random charge, the charges summing to an odd total (UNSAT:
    every edge counts twice, so the parities sum to an even total) or,
    with `odd=False`, to an even one (SAT).  A vertex contributes one
    width-3 clause per assignment of its edges whose parity differs from
    its charge: 4 * vertices clauses on 3 * vertices / 2 variables.
    """
    if vertices < 4 or vertices % 2:
        raise ValueError("an even vertex count of at least 4")
    edges = [(v, (v + 1) % vertices) for v in range(vertices)]
    while True:
        order = rng.sample(range(vertices), vertices)
        matching = list(zip(order[::2], order[1::2]))
        if all((a - b) % vertices not in (1, vertices - 1) for a, b in matching):
            break
    edges += matching
    charge = [rng.randrange(2) for _ in range(vertices)]
    if sum(charge) % 2 != odd:
        charge[rng.randrange(vertices)] ^= 1
    clauses = []
    for v in range(vertices):
        incident = [e + 1 for e, ends in enumerate(edges) if v in ends]
        for bits in product((0, 1), repeat=len(incident)):
            if sum(bits) % 2 != charge[v]:
                clauses.append(tuple(-e if bit else e for e, bit in zip(incident, bits)))
    return Formula(len(edges), tuple(clauses))
