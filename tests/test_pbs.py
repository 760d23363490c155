import random

import pytest

from ballsat import evaluate, parse_dimacs
from ballsat.codes import build_kary_cover
from ballsat.oracle import ball_promise
from ballsat.pbs import (
    PbsInstance,
    PbsRuntime,
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
    return sum(x != y for x, y in zip(a, b))


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
        got = modify_assignment(THREE_BLOCKS, (0,) * 9, [0, 1, 2], (1, 2, 3))
        assert got == (1, 0, 0, 0, 1, 0, 0, 0, 1)

    def test_wraps_modulo_width(self):
        f = parse_dimacs("p cnf 3 1\n1 2 0\n")
        got = modify_assignment(f, (0, 0, 0), [0], (3,))
        assert got == (1, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            modify_assignment(THREE_BLOCKS, (0,) * 9, [0, 1], (1,))

    def test_shared_variables_rejected(self):
        f = parse_dimacs("p cnf 3 2\n1 2 0\n2 3 0\n")
        with pytest.raises(ValueError):
            modify_assignment(f, (0, 0, 0), [0, 1], (1, 1))


class TestQuantumLeaf:
    def test_promise_instance_found(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        inst = PbsInstance(f, (0, 0, 0), 1, 2, 0.1, 3)
        rt = runtime(42)
        got = quantum_kpbs(inst, rt)
        assert got is not None and evaluate(f, got) == 1
        assert rt.records[0].outcome == "sat"
        assert rt.groups_failed == 0

    def test_hopeless_instance_burns_retries(self):
        inst = PbsInstance(UNSAT3, (0, 0, 0), 1, 1, 0.1, 3)
        rt = runtime(3, retries=3)
        assert quantum_kpbs(inst, rt) is None
        assert len(rt.records) == 3
        assert all(a.outcome == "false" for a in rt.records)
        assert rt.groups_failed == 1

    def test_attempt_metadata(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        inst = PbsInstance(f, (0, 0, 0), 2, 2, 0.3, 3)
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
            inst = PbsInstance(f, center, radius, 0, 0.1, 3)
            got = kqcpbs(inst, runtime(0))
            witness = ball_promise(f, center, radius)
            assert (got is None) == (witness is None)
            if got is not None:
                assert evaluate(f, got) == 1
                assert hamming(got, center) <= radius

    def test_counts_branches(self):
        inst = PbsInstance(UNSAT3, (0, 0, 0), 2, 0, 0.1, 3)
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
            inst = PbsInstance(f, center, radius, 2, 0.1, 3)
            rt = runtime(5)
            got = kqcpbs(inst, rt)
            assert got is not None and evaluate(f, got) == 1
            if rt.records:
                assert all(a.radius == 2 for a in rt.records)
                hits += 1
        assert hits > 0  # the quantum leaf must actually fire somewhere


class TestHybridDescent:
    def test_small_group_path(self):
        # one falsified clause -> |G| = 1 <= t: block enumeration route
        f = parse_dimacs("p cnf 4 2\n1 2 3 0\n-4 0\n")
        inst = PbsInstance(f, (0, 0, 0, 1), 3, 1, 0.1, 3)
        rt = runtime(11)
        got = kpbs_hybrid(inst, repair_code(3, 3, seed=0), rt)
        assert got is not None and evaluate(f, got) == 1

    def test_large_group_path_descends(self):
        # four disjoint falsified clauses force the codeword jump
        f = parse_dimacs("p cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n")
        center = (0,) * 12
        code = repair_code(3, 4, seed=0)
        inst = PbsInstance(f, center, 4, 1, 0.1, 3)
        rt = runtime(2)
        got = kpbs_hybrid(inst, code, rt)
        assert got is not None and evaluate(f, got) == 1

    def test_unsat_returns_none(self):
        code = repair_code(3, 3, seed=0)
        inst = PbsInstance(UNSAT3, (0, 0, 0), 3, 1, 0.1, 3)
        rt = runtime(0)
        assert kpbs_hybrid(inst, code, rt) is None

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(25):
            f = random_ksat(8, 20, 3, rng)
            center = random_assignment(8, rng)
            radius = rng.randrange(2, 5)
            code = repair_code(3, radius, seed=1)
            inst = PbsInstance(f, center, radius, 1, 0.1, 3)
            got = kpbs_hybrid(inst, code, runtime(6))
            if got is not None:
                assert evaluate(f, got) == 1
            elif ball_promise(f, center, radius) is not None:
                pytest.fail("hybrid missed a promised ball twice in a row")
