import random

import pytest

from ballsat import evaluate, parse_dimacs
from ballsat.formula import all_assignments
from ballsat.oracle import ball_promise, brute_sat

from helpers import planted_ksat, random_ksat

UNSAT3 = "p cnf 3 8\n" + "\n".join(
    f"{s1} {s2} {s3} 0"
    for s1 in (1, -1)
    for s2 in (2, -2)
    for s3 in (3, -3)
) + "\n"


def test_brute_finds_lex_first_model():
    f = parse_dimacs("p cnf 4 3\n1 2 4 0\n2 3 4 0\n-1 2 -4 0\n")
    assert brute_sat(f) == (0, 0, 0, 1)


def test_brute_unsat_returns_none():
    assert brute_sat(parse_dimacs(UNSAT3)) is None


def test_brute_guard():
    # the all-zero assignment, enumerated first, satisfies it
    f = parse_dimacs("p cnf 25 1\n-1 0\n")
    with pytest.raises(ValueError):
        brute_sat(f)
    assert brute_sat(f, max_vars=25) is not None


def test_brute_agrees_with_enumeration():
    rng = random.Random(7)
    for _ in range(20):
        f = random_ksat(5, 8, 3, rng)
        expect = next((a for a in all_assignments(5) if evaluate(f, a)), None)
        assert brute_sat(f) == expect


def test_ball_promise_minimal_distance():
    f = parse_dimacs("p cnf 3 3\n1 0\n2 0\n3 0\n")
    # unique model (1,1,1): distance 3 from the all-zeros center
    assert ball_promise(f, (0, 0, 0), 2) is None
    assert ball_promise(f, (0, 0, 0), 3) == (1, 1, 1)
    assert ball_promise(f, (1, 1, 0), 1) == (1, 1, 1)


def test_ball_promise_center_hit():
    f = parse_dimacs("p cnf 2 1\n1 2 0\n")
    assert ball_promise(f, (1, 0), 0) == (1, 0)


def test_ball_promise_agrees_with_enumeration():
    rng = random.Random(11)
    for _ in range(20):
        f = random_ksat(6, 12, 3, rng)
        center = tuple(rng.randrange(2) for _ in range(6))
        radius = rng.randrange(4)
        got = ball_promise(f, center, radius)
        inside = [
            a
            for a in all_assignments(6)
            if sum(x != y for x, y in zip(a, center)) <= radius and evaluate(f, a)
        ]
        if inside:
            assert got in inside
        else:
            assert got is None


def test_planted_instances_satisfiable():
    rng = random.Random(3)
    for _ in range(10):
        f, hidden = planted_ksat(8, 24, 3, rng)
        assert evaluate(f, hidden) == 1
        assert brute_sat(f) is not None
