import random
from itertools import product

import pytest

from ballsat import CONFLICT, Formula, evaluate, parse_dimacs, pbs
from ballsat.codes import build_kary_cover, prune_cover
from ballsat.formula import pack, restrict, unpack, unsat_count
from ballsat.oracle import ball_promise
from ballsat.pbs import (
    PbsInstance,
    PbsRuntime,
    _block_points,
    _Trail,
    descent_t,
    kpbs_hybrid,
    kqcpbs,
    modify_assignment,
    quantum_kpbs,
)

from helpers import planted_ksat, random_assignment, random_ksat

THREE_BLOCKS = parse_dimacs("p cnf 9 3\n1 2 3 0\n4 5 6 0\n7 8 9 0\n")

UNSAT3 = parse_dimacs(
    "p cnf 3 8\n"
    + "\n".join(
        f"{s1} {s2} {s3} 0"
        for s1 in (1, -1)
        for s2 in (2, -2)
        for s3 in (3, -3)
    )
    + "\n"
)


def repair_code(alphabet, radius, seed=0):
    t = descent_t(alphabet, radius)
    return build_kary_cover(alphabet, t, t // alphabet, seed)


def runtime(seed=0, **kw):
    return PbsRuntime(seed=(seed,), **kw)


def hamming(a, b):
    return (a ^ b).bit_count()


def satisfies(f, x):
    return evaluate(f, unpack(x, f.num_vars)) == 1


def narrowed(f, rng):
    """f with about a third of its clauses cut to a shorter prefix, as restriction leaves them."""
    clauses = [c[: rng.randrange(1, len(c))] if rng.random() < 0.3 else c for c in f.clauses]
    return Formula(f.num_vars, tuple(clauses))


class TestDescentT:
    def test_floor_at_alphabet(self):
        assert descent_t(3, 1) == 3
        assert descent_t(3, 4) == 3
        assert descent_t(4, 10) == 4

    def test_grows_with_log_log_radius(self):
        assert descent_t(3, 2**32) == 6
        assert descent_t(3, 2**9) == 3

    def test_multiple_of_alphabet(self):
        for k in (3, 4, 5):
            for r in (1, 10, 10**6):
                assert descent_t(k, r) % k == 0


class TestModifyAssignment:
    def test_three_disjoint_blocks(self):
        got = modify_assignment(THREE_BLOCKS, 0, [0, 1, 2], (1, 2, 3))
        assert got == pack((1, 0, 0, 0, 1, 0, 0, 0, 1))

    def test_wraps_modulo_width(self):
        f = parse_dimacs("p cnf 3 1\n1 2 0\n")
        got = modify_assignment(f, 0, [0], (3,))
        assert got == pack((1, 0, 0))

    def test_fixed_variables_narrow_the_clause(self):
        # x1 held: the clause narrows to (2, 3), so symbol 1 flips x2 and 3 wraps to x2
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        assert modify_assignment(f, 0, [0], (1,), fixed=0b1) == pack((0, 1, 0))
        assert modify_assignment(f, 0, [0], (3,), fixed=0b1) == pack((0, 1, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            modify_assignment(THREE_BLOCKS, 0, [0, 1], (1,))

    def test_shared_variables_rejected(self):
        f = parse_dimacs("p cnf 3 2\n1 2 0\n2 3 0\n")
        with pytest.raises(ValueError):
            modify_assignment(f, 0, [0, 1], (1, 1))
        # only the shared x2 overlaps: held, the clauses are disjoint
        assert modify_assignment(f, 0, [0, 1], (1, 2), fixed=0b10) == pack((1, 0, 1))


class TestQuantumLeaf:
    def test_promise_instance_found(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        inst = PbsInstance(f, 0, 1, 2, 0.1, 3)
        rt = runtime(42)
        got = quantum_kpbs(inst, rt)
        assert got is not None and satisfies(f, got)
        assert rt.records[0].outcome == "sat"
        assert rt.groups_failed == 0

    def test_hopeless_instance_burns_retries(self):
        inst = PbsInstance(UNSAT3, 0, 1, 1, 0.1, 3)
        rt = runtime(3, retries=3)
        assert quantum_kpbs(inst, rt) is None
        assert len(rt.records) == 3
        assert all(a.outcome == "false" for a in rt.records)
        assert rt.groups_failed == 1

    def test_attempt_metadata(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        inst = PbsInstance(f, 0, 2, 2, 0.3, 3)
        rt = runtime(1)
        quantum_kpbs(inst, rt)
        att = rt.records[0]
        assert att.radius == 2
        assert att.queries == att.L - 1


class TestClassicalDescent:
    def test_matches_ball_promise_status(self):
        rng = random.Random(17)
        for _ in range(40):
            f = random_ksat(6, 12, 3, rng)
            center = random_assignment(6, rng)
            radius = rng.randrange(4)
            inst = PbsInstance(f, pack(center), radius, 0, 0.1, 3)
            got = kqcpbs(inst, runtime(0))
            witness = ball_promise(f, center, radius)
            assert (got is None) == (witness is None)
            if got is not None:
                assert satisfies(f, got)
                assert hamming(got, pack(center)) <= radius

    def test_counts_branches(self):
        inst = PbsInstance(UNSAT3, 0, 2, 0, 0.1, 3)
        rt = runtime(0)
        assert kqcpbs(inst, rt) is None
        assert rt.branches > 0

    def test_quantum_leaf_at_cap(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(20):
            f, _ = planted_ksat(7, 18, 3, rng)
            center = random_assignment(7, rng)
            radius = 4
            if ball_promise(f, center, radius) is None:
                continue
            inst = PbsInstance(f, pack(center), radius, 2, 0.1, 3)
            rt = runtime(5)
            got = kqcpbs(inst, rt)
            assert got is not None and satisfies(f, got)
            if rt.records:
                assert all(a.radius == 2 for a in rt.records)
                hits += 1
        assert hits > 0  # the quantum leaf must actually fire somewhere


class TestHybridDescent:
    def test_small_group_path(self):
        # one falsified clause -> |G| = 1 <= t: block enumeration route
        f = parse_dimacs("p cnf 4 2\n1 2 3 0\n-4 0\n")
        inst = PbsInstance(f, pack((0, 0, 0, 1)), 3, 1, 0.1, 3)
        rt = runtime(11)
        got = kpbs_hybrid(inst, repair_code(3, 3, seed=0), rt)
        assert got is not None and satisfies(f, got)

    def test_large_group_path_descends(self):
        # four disjoint falsified clauses force the codeword jump
        f = parse_dimacs("p cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n")
        code = repair_code(3, 4, seed=0)
        inst = PbsInstance(f, 0, 4, 1, 0.1, 3)
        rt = runtime(2)
        got = kpbs_hybrid(inst, code, rt)
        assert got is not None and satisfies(f, got)

    def test_unsat_returns_none(self):
        code = repair_code(3, 3, seed=0)
        inst = PbsInstance(UNSAT3, 0, 3, 1, 0.1, 3)
        rt = runtime(0)
        assert kpbs_hybrid(inst, code, rt) is None

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(25):
            f = random_ksat(8, 20, 3, rng)
            center = random_assignment(8, rng)
            radius = rng.randrange(2, 5)
            code = repair_code(3, radius, seed=1)
            inst = PbsInstance(f, pack(center), radius, 1, 0.1, 3)
            got = kpbs_hybrid(inst, code, runtime(6))
            if got is not None:
                assert satisfies(f, got)
            elif ball_promise(f, center, radius) is not None:
                pytest.fail("hybrid missed a promised ball twice in a row")

    def test_complete_at_r_max_zero(self, monkeypatch):
        # at r_max = 0 no quantum leaf runs, so kpbs_hybrid is deterministic and
        # must find a model in every ball that holds one
        jumps = []
        real = pbs.modify_assignment

        def counting(*args):
            jumps.append(args)
            return real(*args)

        monkeypatch.setattr(pbs, "modify_assignment", counting)
        rng = random.Random(20261018)
        codes = {k: prune_cover(repair_code(k, 1, seed=k)) for k in (3, 4)}
        found = 0
        for _ in range(3000):
            k, n = rng.choice((3, 4)), rng.randrange(5, 10)
            m = rng.randrange(n, 4 * n if k == 3 else 6 * n)
            f = planted_ksat(n, m, k, rng)[0] if rng.random() < 0.5 else random_ksat(n, m, k, rng)
            f = narrowed(f, rng)
            center, radius = random_assignment(n, rng), rng.randrange(1, 6)
            inst = PbsInstance(f, pack(center), radius, 0, 0.1, k)
            got = kpbs_hybrid(inst, codes[k], runtime())
            if got is not None:
                assert satisfies(f, got)
            if ball_promise(f, center, radius) is not None:
                assert got is not None, (f, center, radius)
                found += 1
        # the sample holds many promised balls and takes the repair-code jumps
        assert found > 1200 and len(jumps) > 200, (found, len(jumps))


class TestResidualRadius:
    # clauses 0 and 1 are falsified at the all-zero center: every block point flips >= 2
    F = parse_dimacs("p cnf 7 4\n1 2 3 0\n4 5 0\n-1 6 0\n-4 -7 0\n")

    @pytest.mark.parametrize("radius", range(7))
    def test_each_point_descends_at_the_radius_its_flips_leave(self, radius):
        center, block_vars = (0,) * 7, [1, 2, 3, 4, 5]
        want = []
        for bits in product((0, 1), repeat=len(block_vars)):
            binding = dict(zip(block_vars, bits))
            sub, d = restrict(self.F, binding), sum(bits)
            if sub is not CONFLICT and d <= radius:
                want.append((unsat_count(sub, center), tuple(binding.items()), radius - d))
        trail = _Trail(self.F, pack(center))
        assert _block_points(trail, block_vars, radius) == want
        assert (trail.x, trail.free) == (pack(center), (1 << 7) - 1)
        # both clauses of G must be repaired, so d >= 2 for every point
        assert bool(want) == (radius >= 2)
