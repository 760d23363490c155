"""The descent's bind/unbind trail against restrict-based evaluation.

Unit tests check each trail read-out against `restrict` followed by
`first_unsat_clause`/`unsat_count`; differential tests run the
production `kqcpbs` and `kpbs_hybrid` beside the restrict-based
reference in `reference_descent.py`.
"""

import random

import pytest

from ballsat import CONFLICT, Formula, decompose, parse_dimacs
from ballsat.codes import build_kary_cover
from ballsat.formula import first_unsat_clause, max_disjoint_unsat, restrict, unsat_count
from ballsat.pbs import (
    PbsInstance,
    PbsRuntime,
    _Trail,
    descent_t,
    kpbs_hybrid,
    kqcpbs,
)

from helpers import planted_ksat, random_assignment, random_ksat
from reference_descent import ref_kpbs_hybrid, ref_kqcpbs


def mixed_formula(n, m, rng):
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


def snapshot(trail):
    return list(trail.val), list(trail.true), list(trail.free), trail.unsat, dict(trail.bound)


def check_against_restrict(trail, f, center, conflicted):
    sub = restrict(f, trail.bound)
    assert (sub is CONFLICT) == conflicted
    lifted = list(center)
    for var, bit in trail.bound.items():
        lifted[var - 1] = bit
    assert trail.val == lifted
    if conflicted:
        return
    assert trail.unsat == unsat_count(sub, center)
    idx = first_unsat_clause(sub, center)
    if idx is None:
        assert trail.unsat == 0
    else:
        assert trail.branch_literals() == list(sub.clauses[idx])


class TestOccurrences:
    def test_positive_and_negative_lists(self):
        f = parse_dimacs("p cnf 3 3\n1 -2 0\n-1 2 3 0\n2 -2 0\n")
        assert f.occurrences == (
            ((), ()),
            ((0,), (1,)),
            ((1, 2), (0, 2)),
            ((1,), ()),
        )

    def test_cached(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
        assert f.occurrences is f.occurrences


class TestTrail:
    def test_fresh_trail_reads_the_center(self):
        f = parse_dimacs("p cnf 3 3\n1 2 0\n-1 3 0\n2 -2 0\n")
        trail = _Trail(f, (0, 0, 1))
        assert trail.true == [0, 2, 1]
        assert trail.free == [2, 2, 2]
        assert trail.unsat == 1
        assert trail.branch_literals() == [1, 2]

    def test_all_bound_false_clause_conflicts(self):
        f = parse_dimacs("p cnf 3 2\n1 -2 0\n3 0\n")
        trail = _Trail(f, (1, 1, 1))
        assert trail.bind(1, 0)
        assert not trail.bind(2, 1)
        trail.unbind(2)
        trail.unbind(1)
        assert not trail.bind(3, 0)  # a unit clause conflicts at once

    def test_no_flip_bind_can_conflict(self):
        # the center already falsifies the clause; binding keeps the value
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        trail = _Trail(f, (0, 0))
        assert trail.bind(1, 0)
        assert not trail.bind(2, 0)

    def test_tautology_never_falsified(self):
        f = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
        for center in ((0, 0), (1, 0)):
            trail = _Trail(f, center)
            for bit in (0, 1):
                assert trail.bind(1, bit)
                assert trail.true[0] == 1 and trail.free[0] == 0
                assert trail.unsat == 1
                trail.unbind(1)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_bindings_agree_with_restrict(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            n = rng.randrange(3, 9)
            f = mixed_formula(n, rng.randrange(4, 16), rng)
            center = random_assignment(n, rng)
            trail = _Trail(f, center)
            check_against_restrict(trail, f, center, False)
            conflicted = False
            for var in rng.sample(range(1, n + 1), rng.randrange(n + 1)):
                conflicted = not trail.bind(var, rng.randrange(2)) or conflicted
                check_against_restrict(trail, f, center, conflicted)

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_restores_state(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(30):
            n = rng.randrange(2, 9)
            f = mixed_formula(n, rng.randrange(3, 14), rng)
            trail = _Trail(f, random_assignment(n, rng))
            fresh = snapshot(trail)
            bound = rng.sample(range(1, n + 1), rng.randrange(1, n + 1))
            for var in bound:
                before = snapshot(trail)
                trail.bind(var, rng.randrange(2))
                if rng.random() < 0.5:
                    trail.unbind(var)
                    assert snapshot(trail) == before
                    trail.bind(var, rng.randrange(2))
            rng.shuffle(bound)
            for var in bound:
                trail.unbind(var)
            assert snapshot(trail) == fresh


def descent_roots(rng):
    """(alphabet K, prefix formula) pairs: K = 3, 4, random and planted, k = 0..2.

    At n = 14 a center can falsify more than t = 3 variable-disjoint
    clauses, so kpbs_hybrid also takes its repair-code jumps.
    """
    shapes = {3: [(9, 45), (14, 56)], 4: [(10, 100), (12, 72)]}
    for K in (3, 4):
        for k in range(3):
            for planted in (False, True):
                n, m = rng.choice(shapes[K])
                f = planted_ksat(n, m, K, rng)[0] if planted else random_ksat(n, m, K, rng)
                subs = [sub for _, sub in decompose(f, k) if sub is not CONFLICT]
                if subs:
                    yield K, rng.choice(subs)


def run(fn, *args, seed):
    rt = PbsRuntime(seed=(seed,), retries=2)
    model = fn(*args, rt)
    return model, rt.branches, rt.groups_failed, rt.records


class TestDifferential:
    def test_kqcpbs_and_kpbs_hybrid_match_the_reference(self):
        rng = random.Random(7)
        seen = {"kq_branches": 0, "hy_branches": 0, "attempts": 0, "models": 0, "runs": 0}
        for K, f in descent_roots(rng):
            for radius in range(1, 6):
                t = descent_t(K, radius)
                code = build_kary_cover(K, t, t // K, seed=radius)
                for r_max in range(4):
                    center = random_assignment(f.num_vars, rng)
                    if K == 3 and r_max % 2:
                        # a center far from every model makes kpbs_hybrid jump
                        draws = [random_assignment(f.num_vars, rng) for _ in range(20)]
                        center = max(draws, key=lambda x: len(max_disjoint_unsat(f, x)))
                    inst = PbsInstance(f, center, radius, r_max, 0.2, K)
                    seed = rng.randrange(2**32)
                    got = run(kqcpbs, inst, seed=seed)
                    assert got == run(ref_kqcpbs, inst, seed=seed)
                    seen["kq_branches"] += got[1]
                    hybrid = run(kpbs_hybrid, inst, code, seed=seed)
                    assert hybrid == run(ref_kpbs_hybrid, inst, code, seed=seed)
                    seen["hy_branches"] += hybrid[1]
                    seen["attempts"] += len(got[3]) + len(hybrid[3])
                    seen["models"] += (got[0] is not None) + (hybrid[0] is not None)
                    seen["runs"] += 2
        # the sample reaches branching, the leaf and both answers
        assert all(seen.values()), seen
        assert seen["models"] < seen["runs"]
