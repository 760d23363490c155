"""The structured corpus against the exhaustive oracle.

Pigeonhole and Tseitin parity formulas, planted 3-SAT and 4-SAT, and
mixed-width random formulas.  At n <= 16 the oracle is `brute_sat`;
past that, the family's known status (PHP(p -> h) is UNSAT iff p > h).
"""

import random

import pytest

from ballsat import evaluate
from ballsat.orchestrator import SolveConfig, solve
from ballsat.oracle import brute_sat

from helpers import mixed_formula, pigeonhole, planted_ksat, tseitin_parity

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
    """(name, formula, satisfiable) triples, UNSAT and SAT, at most 20 variables."""
    rng = random.Random(2026)
    out = [
        ("php-3-2", pigeonhole(3, 2)),
        ("php-4-3", pigeonhole(4, 3)),
        ("php-4-3-shuffled", pigeonhole(4, 3, rng)),
        ("php-3-3", pigeonhole(3, 3)),
        ("php-3-4-shuffled", pigeonhole(3, 4, rng)),
    ]
    for vertices in (6, 8, 10):
        out.append((f"tseitin-{vertices}-odd", tseitin_parity(vertices, rng)))
        out.append((f"tseitin-{vertices}-even", tseitin_parity(vertices, rng, odd=False)))
    # planted models lie beyond r_max of some sweep centers, so descents find them
    for i in range(3):
        out.append((f"planted-3-{i}", planted_ksat(14, 60, 3, rng)[0]))
    for i in range(3):
        out.append((f"planted-4-{i}", planted_ksat(12, 100, 4, rng)[0]))
    for n, m in ((10, 20), (12, 24), (14, 28), (14, 42)):
        out.append((f"mixed-{n}-{m}", mixed_formula(n, m, rng)))
    out = [(name, f, brute_sat(f) is not None) for name, f in out]
    return out + [("php-5-4", pigeonhole(5, 4), False)]


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

    @pytest.mark.parametrize("k", [0, 2, "n/3"])
    @pytest.mark.parametrize("mode, r_max", [("classical", None), ("hybrid", 1), ("hybrid", 2)])
    def test_answers_match(self, mode, r_max, k):
        quantum = 0
        for name, f, sat in CORPUS:
            n = f.num_vars
            if k == 0 and n == 20:
                continue   # its (20, 5) sweep cover takes a minute to build
            k_n = -(-n // 3) if k == "n/3" else k
            res = solve(f, SolveConfig(k=k_n, r_max=r_max, mode=mode, seed=1, workers=1))
            assert res.status == ("SAT" if sat else "FALSE"), name
            if res.status == "SAT":
                assert evaluate(f, res.model) == 1, name
            quantum += res.stats.quantum_calls
        # hybrid solves reach the amplified leaf, classical ones never do
        assert (quantum > 0) == (mode == "hybrid"), quantum

    def test_a_planted_model_is_found_inside_a_descent(self):
        # a solve whose last leaf hits below its dispatch root, at a radius under the
        # sweep radius, found its model in a descent that the sweep center alone missed
        inside = 0
        for name, f, _ in CORPUS:
            if not name.startswith("planted"):
                continue
            n, alphabet = f.num_vars, max(3, f.max_width)
            for r_max in (1, 2):
                for k in (0, 2, -(-n // 3)):
                    res = solve(f, SolveConfig(k=k, r_max=r_max, seed=1, workers=1))
                    assert res.status == "SAT" and evaluate(f, res.model) == 1, name
                    last = res.stats.records[-1] if res.stats.records else None
                    inside += (
                        res.stats.branches > 0
                        and last is not None
                        and last.outcome == "sat"
                        and last.radius < (n - k) // alphabet
                    )
        assert inside > 0
