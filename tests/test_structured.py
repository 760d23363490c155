"""The structured corpus: pigeonhole and Tseitin parity against the exhaustive oracle."""

import random

import pytest

from ballsat import evaluate
from ballsat.orchestrator import SolveConfig, solve
from ballsat.oracle import brute_sat

from helpers import pigeonhole, tseitin_parity

# pigeon i in hole j is x(3i + j): the PHP(4->3) the CI console step writes out
PHP43 = (
    "p cnf 12 22\n"
    + "".join(f"{3 * i + 1} {3 * i + 2} {3 * i + 3} 0\n" for i in range(4))
    + "".join(
        f"-{3 * i + j} -{3 * l + j} 0\n"
        for j in (1, 2, 3)
        for i in range(3)
        for l in range(i + 1, 4)
    )
)


def corpus():
    """(name, formula) pairs, UNSAT and SAT, at most 12 variables."""
    rng = random.Random(2026)
    out = [
        ("php-3-2", pigeonhole(3, 2)),
        ("php-4-3", pigeonhole(4, 3)),
        ("php-4-3-shuffled", pigeonhole(4, 3, rng)),
        ("php-3-3", pigeonhole(3, 3)),
        ("php-3-4-shuffled", pigeonhole(3, 4, rng)),
    ]
    for vertices in (6, 8):
        out.append((f"tseitin-{vertices}-odd", tseitin_parity(vertices, rng)))
        out.append((f"tseitin-{vertices}-even", tseitin_parity(vertices, rng, odd=False)))
    return out


CORPUS = corpus()


class TestGenerators:
    def test_pigeonhole_writes_the_ci_formula(self):
        assert pigeonhole(4, 3).to_dimacs() == PHP43

    @pytest.mark.parametrize("p, h", [(2, 1), (3, 2), (3, 3), (4, 3)])
    def test_pigeonhole_is_unsat_iff_more_pigeons(self, p, h):
        f = pigeonhole(p, h, random.Random(p * h))
        f.validate()
        assert (f.num_vars, len(f.clauses)) == (p * h, p + h * p * (p - 1) // 2)
        assert (brute_sat(f) is None) == (p > h)

    @pytest.mark.parametrize("seed", range(4))
    def test_tseitin_is_unsat_iff_odd(self, seed):
        rng = random.Random(seed)
        for vertices in (4, 6, 8):
            for odd in (True, False):
                f = tseitin_parity(vertices, rng, odd)
                f.validate()
                assert (f.num_vars, len(f.clauses)) == (3 * vertices // 2, 4 * vertices)
                assert {len(c) for c in f.clauses} == {3}
                assert (brute_sat(f) is None) == odd

    def test_tseitin_is_seeded(self):
        assert tseitin_parity(8, random.Random(1)) == tseitin_parity(8, random.Random(1))
        assert len({tseitin_parity(8, random.Random(s)) for s in range(8)}) > 1


class TestAgainstBruteSat:
    """Classical and hybrid solves answer as the exhaustive oracle does.

    PHP's width-2 clauses make the walk wrap a symbol past a clause's
    width, and bind literals whose conflict check reads the node's
    shared all-free-flipped assignment.
    """

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("mode, r_max", [("classical", None), ("hybrid", 1), ("hybrid", 2)])
    def test_answers_match(self, mode, r_max, k):
        quantum = 0
        for name, f in CORPUS:
            res = solve(f, SolveConfig(k=k, r_max=r_max, mode=mode, seed=1, workers=1))
            expect = brute_sat(f)
            assert res.status == ("FALSE" if expect is None else "SAT"), name
            if res.status == "SAT":
                assert evaluate(f, res.model) == 1, name
            quantum += res.stats.quantum_calls
        # hybrid solves reach the amplified leaf, classical ones never do
        assert (quantum > 0) == (mode == "hybrid"), quantum
