import pickle
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ballsat import CONFLICT, Formula, evaluate, orchestrator, parse_dimacs, pbs
from ballsat.codes import _kary_word
from ballsat.fliptree import marked_mask, walk
from ballsat.formula import max_disjoint_unsat, pack, unpack
from ballsat.fpsearch import _uniform_cdf, make_schedule
from ballsat.orchestrator import MAX_RETRIES, SolveConfig, solve
from ballsat.oracle import ball_promise
from ballsat.pbs import (
    PbsInstance,
    PbsRuntime,
    _descend,
    _narrowest,
    _state,
    kqcpbs,
    modify_assignment,
    quantum_kpbs,
)

from helpers import mixed_formula, planted_ksat, random_assignment, random_ksat
from reference_descent import held_root

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

# four disjoint copies of UNSAT3: every center falsifies one clause of each block
FOUR_BLOCKS = Formula(12, tuple(
    tuple(lit + b if lit > 0 else lit - b for lit in clause)
    for b in (0, 3, 6, 9)
    for clause in UNSAT3.clauses
))


def runtime(seed=0, **kw):
    return PbsRuntime(seed=(seed,), **kw)


def hamming(a, b):
    return (a ^ b).bit_count()


def satisfies(f, x):
    return evaluate(f, unpack(x, f.num_vars)) == 1


def unsat3_hybrid_formula():
    """UNSAT random 3-SAT at n = 13, m = 59, shaped like perfbench's unsat3-hybrid."""
    rng = random.Random(26)
    return next(g for g in iter(lambda: random_ksat(13, 59, 3, rng), None)
                if all(map(g.read, range(1 << 13))))


def proved_empty(f, state, radius):
    """The leaf's emptiness proof on a descent node's ball: True when it finds no model."""
    x, free, falsified = state
    return not pbs._holds_model(
        f.read, f.clause_vars, f.flips, x, free, falsified, radius, f.read(x ^ free)
    )


def narrowed(f, rng):
    """f with about a third of its clauses cut to a shorter prefix, as restriction leaves them."""
    clauses = [
        c[: rng.randrange(1, len(c))] if len(c) > 1 and rng.random() < 0.3 else c
        for c in f.clauses
    ]
    return Formula(f.num_vars, tuple(clauses))


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
        got = kqcpbs(inst, rt)
        assert got is not None and satisfies(f, got)
        assert rt.records[0].outcome == "sat"
        assert rt.groups_failed == 0

    def test_hopeless_instance_burns_retries(self):
        inst = PbsInstance(UNSAT3, 0, 1, 1, 0.1, 3)
        rt = runtime(3, retries=3)
        assert kqcpbs(inst, rt) is None
        assert len(rt.records) == 3
        assert all(a.outcome == "false" for a in rt.records)
        assert rt.groups_failed == 1

    def test_attempt_metadata(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        inst = PbsInstance(f, 0, 2, 2, 0.3, 3)
        rt = runtime(1)
        kqcpbs(inst, rt)
        att = rt.records[0]
        assert att.radius == 2
        assert att.queries == att.L - 1

    def test_a_proved_empty_leaf_builds_no_trie(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("trie pass on a ball proved empty")

        monkeypatch.setattr(pbs, "marked_mask", forbidden)
        rt = runtime(3, retries=3)
        assert kqcpbs(PbsInstance(UNSAT3, 0, 2, 2, 0.1, 3), rt) is None
        assert [r.outcome for r in rt.records] == ["false"] * 3
        assert rt.groups_failed == 1

    @pytest.mark.parametrize("seed", range(2))
    def test_the_proof_leaves_records_and_draws_as_the_trie(self, seed, monkeypatch):
        # falsified nodes whose held variables empty no clause, as the descent hands them off
        rng = random.Random(600 + seed)
        runs = []
        while len(runs) < 60:
            n = rng.randrange(3, 9)
            f = narrowed(random_ksat(n, rng.randrange(n, 5 * n), 3, rng), rng)
            free = rng.randrange(1 << n) | rng.randrange(1 << n)
            state = _state(f.read, rng.randrange(1 << n), free)
            if state is None or not state[2]:
                continue
            inst = PbsInstance(f, state[0], 0, 3, 0.1, rng.choice((3, 4)))
            radius = rng.randrange(4)
            empty = proved_empty(f, state, radius)
            runs.append((inst, state, radius, rng.randrange(1 << 30), empty))
        assert 10 < sum(empty for *_, empty in runs) < 50

        def leaves():
            out = []
            for inst, state, radius, dseed, _ in runs:
                rt = runtime(dseed)
                got = quantum_kpbs(inst, rt, state, radius)
                out.append((got, rt.records, rt.groups_failed, rt.drawn))
            return out

        proved = leaves()
        tries, real = [], pbs.marked_mask
        monkeypatch.setattr(pbs, "marked_mask", lambda *args: tries.append(args) or real(*args))
        monkeypatch.setattr(pbs, "_holds_model", lambda *args: True)   # a model, so the trie
        assert proved == leaves()
        assert len(tries) == len(runs)

    def test_the_proof_runs_no_nested_leaf_and_leaves_the_dispatch_log_alone(self, monkeypatch):
        calls = []
        original = pbs.quantum_kpbs

        def counted(inst, rt, state, radius):
            calls.append(inst)
            return original(inst, rt, state, radius)

        monkeypatch.setattr(pbs, "quantum_kpbs", counted)
        two_blocks = parse_dimacs("p cnf 4 2\n1 2 0\n3 4 0\n")
        for f, radius, has_model in ((two_blocks, 2, True), (UNSAT3, 1, False)):
            rt = runtime(5, retries=3)
            root = (0, (1 << f.num_vars) - 1, f.read(0))
            got = original(PbsInstance(f, 0, radius, radius, 0.1, 3), rt, root, radius)
            assert (got is not None) == has_model
            assert calls == [] and rt.branches == 0
            outcomes = [r.outcome for r in rt.records]
            tries = len(outcomes) if has_model else 3
            assert outcomes == ["false"] * (tries - 1) + ["sat" if has_model else "false"]
            assert [r.attempt for r in rt.records] == list(range(tries))

    def test_a_walk_to_a_model_in_a_proved_empty_ball_disagrees(self, monkeypatch):
        f = Formula(1, ((1,),))
        assert marked_mask(f, 0, 1, 3).all()
        monkeypatch.setattr(pbs, "_holds_model", lambda *args: False)   # the ball "proved" empty
        with pytest.raises(RuntimeError, match="disagrees"):
            quantum_kpbs(PbsInstance(f, 0, 1, 1, 0.1, 3), runtime(0, retries=1), (0, 1, 1), 1)

    def test_a_walk_to_a_model_in_a_batch_of_draws_disagrees(self, monkeypatch):
        # three retries of a proved-empty ball draw in one call; each word is still walked
        f = Formula(1, ((1,),))
        monkeypatch.setattr(pbs, "_holds_model", lambda *args: False)   # the ball "proved" empty
        rt = runtime(0, retries=3)
        with pytest.raises(RuntimeError, match="disagrees with the empty-ball proof"):
            quantum_kpbs(PbsInstance(f, 0, 1, 1, 0.1, 3), rt, (0, 1, 1), 1)
        assert rt.records == []

    def test_a_later_disagreement_of_a_trie_leaf_leaves_no_log(self, monkeypatch):
        # center 0, radius 1: x2 = 1 is the only model, so only word 1 of (1, 2, 3) is
        # marked; word 2 wraps to x1, which falsifies clause 1, yet is marked here too
        f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
        real = marked_mask
        assert real(f, 0, 1, 3).tolist() == [False, True, False]
        monkeypatch.setattr(pbs, "marked_mask", lambda *args: real(*args) | [False, False, True])
        # attempt 0 measures word 0, a miss its mark agrees with; attempt 1 measures word 2
        monkeypatch.setattr(pbs, "measure", lambda cdf, draws: [0, 2, 0][: len(draws)])
        rt = runtime(0, retries=3)
        root = (0, 0b11, f.read(0))
        with pytest.raises(RuntimeError, match="disagrees with its trie mark"):
            quantum_kpbs(PbsInstance(f, 0, 1, 1, 0.1, 3), rt, root, 1)
        assert rt.records == [] and rt.groups_failed == 0


class TestLeafConstants:
    """A leaf's space check, schedule and uniform CDF, cached per (epsilon, K, radius)."""

    def test_an_oversized_register_raises_every_time(self):
        # 3^15 words pass the space limit; a failed check is not cached
        f = Formula(1, ((1,),))
        before = pbs._leaf_constants.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="too large"):
                quantum_kpbs(PbsInstance(f, 0, 15, 15, 0.1, 3), runtime(0), (0, 1, 1), 15)
        assert pbs._leaf_constants.cache_info().currsize == before

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("radius", range(6))
    def test_cached_constants_are_the_uncached_ones(self, k, radius):
        for epsilon in (0.1, 0.7):
            schedule, cdf = pbs._leaf_constants(epsilon, k, radius)
            assert schedule == make_schedule.__wrapped__(epsilon, 1.0 / k**radius)
            assert cdf == tuple(_uniform_cdf(k**radius).tolist())
            again = pbs._leaf_constants(epsilon, k, radius)
            assert again[0] is schedule and again[1] is cdf


# (2**63, 12, 5) spans two 32-bit entropy words
DISPATCH_SEEDS = [(0,), (7, 1, 0), (2**63, 12, 5), (1, 2**31, 99)]


def clear_caches():
    pbs._stream_head.cache_clear()
    pbs._false_records.cache_clear()


class TestBatchedDraws:
    """The numpy behaviour a leaf's single draw call relies on."""

    @pytest.mark.parametrize("seed", DISPATCH_SEEDS)
    @pytest.mark.parametrize("n", [1, 3, MAX_RETRIES])
    def test_one_call_draws_what_n_calls_draw(self, seed, n):
        # the stream a runtime's head and continuation draw (TestSeedWords)
        batched, single = (np.random.default_rng(np.random.SeedSequence(seed)) for _ in range(2))
        assert batched.random(n).tolist() == [single.random() for _ in range(n)]
        assert batched.bit_generator.state == single.bit_generator.state


class TestSeedWords:
    """A runtime draws SeedSequence(seed)'s stream: the cached head, then a Generator past it."""

    # several calls: inside the head, across its end and wholly past it
    SPLITS = [
        (1, 1, 1), (pbs._HEAD,), (20, 10), (pbs._HEAD - 1, 1, 1),
        (pbs._HEAD, 5), (30, 3), (2, MAX_RETRIES), (0, 7, 0),
    ]

    @staticmethod
    def check_draws(seed, split, warm):
        clear_caches()
        if warm:
            pbs._stream_head(seed)
        before = pbs._stream_head.cache_info()
        rt = PbsRuntime(seed)
        pieces = [rt.draws(count) for count in split]
        after = pbs._stream_head.cache_info()
        assert after.misses - before.misses == (not warm)
        assert [len(piece) for piece in pieces] == list(split)
        want = np.random.default_rng(np.random.SeedSequence(seed)).random(sum(split))
        assert [u for piece in pieces for u in piece] == want.tolist()
        assert rt.drawn == sum(split)

    @pytest.mark.parametrize("seed", DISPATCH_SEEDS)
    @pytest.mark.parametrize("n", [1, 3, MAX_RETRIES])
    @pytest.mark.parametrize("warm", [False, True])
    def test_runtime_draws_the_seed_sequence_stream(self, seed, n, warm):
        self.check_draws(seed, (n,), warm)

    @pytest.mark.parametrize("seed", DISPATCH_SEEDS)
    @pytest.mark.parametrize("split", SPLITS, ids=lambda split: "+".join(map(str, split)))
    @pytest.mark.parametrize("warm", [False, True])
    def test_split_draws_are_the_seed_sequence_stream(self, seed, split, warm):
        self.check_draws(seed, split, warm)

    @pytest.mark.parametrize("seed", DISPATCH_SEEDS)
    def test_cached_words_are_read_only(self, seed):
        head = pbs._stream_head(seed)
        want = np.random.default_rng(np.random.SeedSequence(seed)).random(pbs._HEAD)
        assert isinstance(head, tuple) and list(head) == want.tolist()
        with pytest.raises(TypeError):
            head[0] = 0.0
        assert pbs._stream_head(seed) is head

    @pytest.mark.parametrize("retries", [3, 30])
    def test_solves_without_a_head_give_the_same_records(self, retries, monkeypatch):
        # at 30 retries every leaf's draws cross the head's end, the first leaf's included
        assert 3 < pbs._HEAD < 30
        problems = [
            (f, replace(cfg, retries=retries))
            for f, cfg in TestCacheState.planted() + TestCacheState.unsat()
        ]
        clear_caches()
        headed = TestCacheState.outcomes(problems)
        monkeypatch.setattr(pbs, "_stream_head", lambda seed: ())
        assert TestCacheState.outcomes(problems) == headed
        records = [rec for _, _, stats in headed for rec in stats.records]
        assert any(rec.outcome == "sat" and rec.attempt > 0 for rec in records)

    def test_a_runtime_past_its_head_pickles_its_position_only(self):
        seed = (7, 1, 0)
        rt = PbsRuntime(seed)
        rt.draws(30)
        data = pickle.dumps(rt)
        assert b"numpy" not in data
        clear_caches()   # as a process that never saw the seed
        copy = pickle.loads(data)
        assert copy == rt and copy.drawn == 30
        want = np.random.default_rng(np.random.SeedSequence(seed)).random(40).tolist()
        assert list(copy.draws(10)) == want[30:] == list(rt.draws(10))


class TestStreamPosition:
    """A dispatch's leaves read on in one stream, whatever kind each leaf is."""

    @pytest.mark.parametrize("retries", [3, 30])
    def test_a_trie_leaf_after_an_empty_one_draws_from_position_retries(
        self, retries, monkeypatch
    ):
        # at radius 3 and r_max 1 the descent's first leaf is proved empty and
        # its second marks a word; at 30 retries the first leaf's draws cross
        # the head's end and the second's lie past it
        f, _ = planted_ksat(10, 42, 3, random.Random(19))
        leaves, real_mask, real_measure = [], pbs.marked_mask, pbs.measure

        def mask(*args):
            leaves.append("trie")
            return real_mask(*args)

        def measure(cdf, draws):
            leaves.append(draws)
            return real_measure(cdf, draws)

        monkeypatch.setattr(pbs, "marked_mask", mask)
        monkeypatch.setattr(pbs, "measure", measure)
        seed = (7, 1, 0)
        clear_caches()
        rt = PbsRuntime(seed, retries=retries)
        assert kqcpbs(PbsInstance(f, 0, 3, 1, 0.1, 3), rt) is not None
        # the first leaf measures with no trie pass, then the second marks and measures
        empty, marked, trie = leaves[:3]
        assert marked == "trie" and not isinstance(empty, str) and not isinstance(trie, str)
        want = np.random.default_rng(np.random.SeedSequence(seed)).random(2 * retries).tolist()
        assert list(empty) == want[:retries]
        assert list(trie) == want[retries:]
        assert {rec.outcome for rec in rt.records[:retries]} == {"false"}


class TestCacheState:
    """The stream-head and record caches never reach a result."""

    @staticmethod
    def planted():
        # planted formulas at a loose epsilon: trie leaves miss and hit at later
        # attempts, so their records follow the draws
        cfg = SolveConfig(k=2, r_max=3, epsilon=0.7, seed=1, workers=1)
        return [(planted_ksat(13, 70, 3, random.Random(s))[0], cfg) for s in (6, 9, 10)]

    @staticmethod
    def unsat():
        # every leaf's ball is proved empty
        return [(unsat3_hybrid_formula(), SolveConfig(k=1, r_max=3, seed=4, workers=1))]

    @staticmethod
    def outcomes(problems):
        return [(res.status, res.model, res.stats) for res in (solve(*p) for p in problems)]

    @staticmethod
    def fill_with_other_seeds():
        for f, cfg in TestCacheState.planted() + TestCacheState.unsat():
            for seed in (11, 12):
                solve(f, replace(cfg, seed=seed))
        # up to each cache's bound, so the solve that follows evicts
        for i in range(pbs._stream_head.cache_info().maxsize):
            pbs._stream_head((99, i, 0))
        for i in range(pbs._false_records.cache_info().maxsize):
            pbs._false_records("9", i, 1, 1, 1, 1)

    @pytest.mark.parametrize("case", ["planted", "unsat"])
    def test_cleared_warm_and_filled_caches_give_one_result(self, case):
        problems = getattr(self, case)()
        clear_caches()
        cold = self.outcomes(problems)
        warm = self.outcomes(problems)
        self.fill_with_other_seeds()
        filled = self.outcomes(problems)
        clear_caches()
        assert cold == warm == filled
        records = [rec for _, _, stats in cold for rec in stats.records]
        if case == "planted":
            assert {status for status, _, _ in cold} == {"SAT"}
            assert any(rec.outcome == "sat" and rec.attempt > 0 for rec in records)
        else:
            assert cold[0][0] == "FALSE" and {rec.outcome for rec in records} == {"false"}
        assert len(records) > 100 and all(stats.groups_failed for _, _, stats in cold)

    def test_equal_records_are_one_value(self):
        clear_caches()
        [(_, _, stats)] = self.outcomes(self.unsat())
        values = {id(rec) for rec in stats.records}
        assert len(values) == len(set(stats.records)) < len(stats.records)

    def test_equal_records_of_both_leaf_paths_are_one_value(self):
        # a proved-empty leaf's cached records and a trie leaf's misses share values
        clear_caches()
        records = [rec for _, _, stats in self.outcomes(self.planted()) for rec in stats.records]
        values = {id(rec) for rec in records}
        assert len(values) == len(set(records)) < len(records)

    @pytest.mark.parametrize("cleared", [False, True])
    def test_a_runtime_that_has_drawn_pickles_with_its_stream(self, cleared):
        f, _ = planted_ksat(6, 20, 3, random.Random(5))
        rt = PbsRuntime((7, 1, 0), retries=2, prefix="01", codeword=3)
        kqcpbs(PbsInstance(f, 0, 2, 2, 0.1, 3), rt)
        assert rt.records
        data = pickle.dumps(rt)
        if cleared:
            clear_caches()   # as a process that never saw the seed
        copy = pickle.loads(data)
        assert copy == rt and copy.drawn == rt.drawn > 0
        assert copy.draws(MAX_RETRIES) == rt.draws(MAX_RETRIES)
        assert copy.drawn == rt.drawn


class TestLeafFromTheNode:
    """The leaf a descent node enters with its state walks every word it measures."""

    def test_every_retry_walks_its_word(self, monkeypatch):
        # k = 1, r_max = 3, so every dispatch descends to leaves its proof empties
        f = unsat3_hybrid_formula()
        walks, real = [], pbs.walk
        monkeypatch.setattr(pbs, "walk", lambda *args: walks.append(args) or real(*args))

        def forbidden(*args):
            raise AssertionError("trie pass on an UNSAT formula")

        monkeypatch.setattr(pbs, "marked_mask", forbidden)
        res = solve(f, SolveConfig(k=1, r_max=3, seed=4, workers=1))
        assert res.status == "FALSE" and res.stats.branches > 0
        assert len(walks) == res.stats.quantum_calls > 100
        assert {rec.outcome for rec in res.stats.records} == {"false"}


class TestEveryWordOfALeaf:
    """Every word of a leaf's ball walks as its trie mark says, and none reaches a model in a
    ball proved empty: the check a proved-empty leaf needs before it stops walking its words."""

    def test_every_leaf_of_seeded_solves(self, monkeypatch):
        leaves, real = [], pbs.quantum_kpbs

        def spy(inst, rt, state, radius):
            leaves.append((inst, state, radius))
            return real(inst, rt, state, radius)

        monkeypatch.setattr(pbs, "quantum_kpbs", spy)
        # an UNSAT formula, every leaf proved empty, and planted 3- and 4-SAT
        # in planted-pool's shapes, whose leaves before the model are mostly
        # proved empty, and the leaf that finds it marked
        solve(unsat3_hybrid_formula(), SolveConfig(k=1, r_max=3, seed=4))
        for s in range(48):
            n, m, width = (12, 138, 4) if s % 8 == 7 else (13, 70, 3)
            f, _ = planted_ksat(n, m, width, random.Random(40 + s))
            solve(f, SolveConfig(k=2, r_max=3, seed=s))
        empty = marked_leaves = 0
        for inst, state, radius in leaves:
            f, k = inst.formula, inst.alphabet
            x, held = state[0], ((1 << f.num_vars) - 1) ^ state[1]
            proved = proved_empty(f, state, radius)
            marks = marked_mask(f, x, radius, k, held)
            for index in range(k**radius):
                hit = not f.read(walk(f, x, _kary_word(index, k, radius), held))
                assert hit == marks[index], (f, x, held, radius, index)
                assert not (proved and hit), (f, x, held, radius, index)
            empty += proved
            marked_leaves += bool(marks.any())
        assert empty > 300 and marked_leaves > 30, (empty, marked_leaves)


class TestEmptyBallProof:
    @pytest.mark.parametrize("seed", range(3))
    def test_empty_exactly_when_the_held_ball_holds_no_model(self, seed):
        rng = random.Random(700 + seed)
        empty = conflicts = models = 0
        for i in range(200):
            n = rng.randrange(3, 9)
            if i % 2:
                base = mixed_formula(n, rng.randrange(n, 2 * n), rng)
            else:
                base = random_ksat(n, rng.randrange(n, 5 * n), 3, rng)
            f = narrowed(base, rng)
            fixed = rng.randrange(1 << n) & rng.randrange(1 << n)
            radius, alphabet = rng.randrange(5), rng.choice((3, 4))
            inst = PbsInstance(f, pack(random_assignment(n, rng)), radius, 0, 0.1, alphabet, fixed)
            sub, center = held_root(inst)
            witness = None if sub is CONFLICT else ball_promise(sub, center, radius)
            proved = kqcpbs(inst, runtime(0)) is None
            assert proved == (witness is None), (f, inst.center, radius, fixed)
            if proved:
                assert not marked_mask(f, inst.center, radius, alphabet, fixed).any()
            empty += proved
            conflicts += sub is CONFLICT
            models += not proved
        assert conflicts > 10 and empty - conflicts > 30 and models > 30, (conflicts, empty, models)


class TestExistenceSearch:
    """The leaf's emptiness proof `_holds_model` against `_descend` at r_max 0 from the same node.

    Both answer alike on every ball and agree with `ball_promise`; on an
    empty ball both visit the same (x, free, radius) nodes, one per
    descent branch and the root.
    """

    @staticmethod
    def visits(monkeypatch, name, node, run):
        """run()'s result and the multiset of node(args) over its calls to pbs.<name>."""
        nodes, real = Counter(), getattr(pbs, name)

        def spy(*args):
            nodes[node(args)] += 1
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(pbs, name, spy)
            return run(), nodes

    def empty(self, monkeypatch, f, state, radius):
        """Check both searches on the ball of a descent node; True when it holds no model."""
        x, free, _ = state
        empty, searched = self.visits(
            monkeypatch, "_holds_model", lambda a: (a[3], a[4], a[6]),
            lambda: proved_empty(f, state, radius),
        )
        inst, rt = PbsInstance(f, x, radius, 0, 0.1, 3, ((1 << f.num_vars) - 1) ^ free), runtime(0)
        model, descended = self.visits(
            monkeypatch, "_descend", lambda a: (a[2][0], a[2][1], a[3]),
            lambda: pbs._descend(inst, rt, state, radius),
        )
        sub, center = held_root(inst)
        witness = ball_promise(sub, center, radius)
        assert empty == (model is None) == (witness is None), (f, state, radius)
        if empty:
            assert searched == descended, (f, state, radius)
            assert searched.total() == rt.branches + 1
        return empty

    def test_every_ball_of_seeded_solves(self, monkeypatch):
        # the leaves of solves in the hybrid workloads' shapes, and the dispatch roots
        # of a classical solve in unsat3-classical's shape, which runs no leaf
        balls, leaf, dispatch = [], pbs.quantum_kpbs, orchestrator.kqcpbs

        def at_leaf(inst, rt, state, radius):
            balls.append((inst.formula, state, radius))
            return leaf(inst, rt, state, radius)

        def at_root(inst, rt):
            f = inst.formula
            state = _state(f.read, inst.center, ((1 << f.num_vars) - 1) ^ inst.fixed)
            if state is not None:
                balls.append((f, state, inst.radius))
            return dispatch(inst, rt)

        with monkeypatch.context() as patch:
            patch.setattr(pbs, "quantum_kpbs", at_leaf)
            patch.setattr(orchestrator, "kqcpbs", at_root)
            solve(unsat3_hybrid_formula(), SolveConfig(k=1, r_max=3, seed=4, workers=1))
            solve(random_ksat(17, 77, 3, random.Random(8)), SolveConfig(k=4, mode="classical"))
            for s in range(24):
                n, m, width = (12, 138, 4) if s % 8 == 7 else (13, 70, 3)
                f, _ = planted_ksat(n, m, width, random.Random(40 + s))
                solve(f, SolveConfig(k=2, r_max=3, seed=s, workers=1))
        empty = sum(self.empty(monkeypatch, *ball) for ball in balls)
        roots = sum(f.num_vars == 17 for f, _, _ in balls)
        assert empty > 600 and len(balls) - empty > 15 and roots > 50, (empty, len(balls), roots)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_random_held_ball(self, seed, monkeypatch):
        # TestEmptyBallProof's balls, from each root whose held variables empty no clause
        rng = random.Random(700 + seed)
        empty = models = 0
        for i in range(200):
            n = rng.randrange(3, 9)
            if i % 2:
                base = mixed_formula(n, rng.randrange(n, 2 * n), rng)
            else:
                base = random_ksat(n, rng.randrange(n, 5 * n), 3, rng)
            f = narrowed(base, rng)
            fixed = rng.randrange(1 << n) & rng.randrange(1 << n)
            radius, _ = rng.randrange(5), rng.choice((3, 4))   # the alphabet draw keeps the stream
            state = _state(f.read, pack(random_assignment(n, rng)), ((1 << n) - 1) ^ fixed)
            if state is not None:
                got = self.empty(monkeypatch, f, state, radius)
                empty += got
                models += not got
        assert empty > 30 and models > 30, (empty, models)


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


    def test_leaf_takes_a_ball_inside_r_max_whole(self):
        # a radius under r_max reaches the leaf as it is, never widened to r_max
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        rt = runtime(0)
        assert kqcpbs(PbsInstance(f, 0, 1, 3, 0.1, 3), rt) is not None
        assert [rec.radius for rec in rt.records] == [1]


class TestNarrowestClause:
    """The descent branches on the falsified clause with the fewest unbound variables.

    Each formula's falsified clauses at the root share a free variable, so
    their disjoint group is one clause and the radius-1 bound does not fire.
    """

    @staticmethod
    def root_children(f, center, fixed=0):
        """Branches of a classical descent at radius 1 that finds no model.

        Its children sit at radius 0, so these are the root's children; a
        root whose disjoint falsified clauses outnumber the radius has none.
        """
        rt = runtime(0)
        assert kqcpbs(PbsInstance(f, center, 1, 0, 0.1, 3, fixed), rt) is None
        return rt.branches

    def test_unit_clause_after_a_wider_one_is_one_child(self):
        # binding x3 satisfies clauses 0 and 1 and falsifies clause 2;
        # branching on clause 0 would take three children
        f = parse_dimacs("p cnf 3 3\n1 2 3 0\n3 0\n-3 1 0\n")
        assert _narrowest(f.clause_vars, f.read(0), 0b111, 1) == 1
        assert self.root_children(f, 0) == 1
        # radius 2 binds the forced x3 first, then repairs clause 2 with x1
        assert kqcpbs(PbsInstance(f, 0, 2, 0, 0.1, 3), runtime(0)) == 0b101

    def test_ties_go_to_the_lowest_index(self):
        # clauses 0 and 1 are both 2 wide; binding x3 of clause 0 empties clause 2,
        # so clause 0 leaves one child where clause 1 would leave two
        f = parse_dimacs("p cnf 5 4\n3 4 0\n1 4 0\n-3 0\n-4 5 0\n")
        assert _narrowest(f.clause_vars, f.read(0), 0b11111, 1) == 0
        assert self.root_children(f, 0) == 1

    def test_held_variables_do_not_count(self):
        # x1 and x2 held at 0 leave clause 1 one variable wide;
        # counted in full, clause 0 is the narrower, with two children
        f = parse_dimacs("p cnf 5 3\n4 5 0\n1 2 4 0\n-4 5 0\n")
        assert _narrowest(f.clause_vars, f.read(0), 0b11100, 1) == 1
        assert self.root_children(f, 0, fixed=0b11) == 1
        assert self.root_children(f, 0) == 2

    def test_bound_variables_do_not_count(self):
        # x1 bound to 1 falsifies clause 2 and leaves it one variable wide;
        # counted in full, it would tie clause 1 and lose to its lower index
        f = parse_dimacs("p cnf 6 4\n1 2 0\n3 6 0\n-1 3 0\n-3 4 0\n")
        state = _state(f.read, 0b1, 0b111110)
        assert state[2] == 0b110
        assert _narrowest(f.clause_vars, state[2], state[1], 1) == 2
        rt = runtime(0)
        assert _descend(PbsInstance(f, 0b1, 1, 0, 0.1, 3), rt, state, 1) is None
        assert rt.branches == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_narrowest_by_enumeration(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            f = narrowed(random_ksat(8, 20, 3, rng), rng)
            free = rng.randrange(1 << 8)
            state = _state(f.read, rng.randrange(1 << 8), free)
            if state is None or not state[2]:
                continue
            falsified = [i for i in range(len(f.clauses)) if state[2] >> i & 1]
            want = min(falsified, key=lambda i: ((f.clause_vars[i] & free).bit_count(), i))
            # a disjoint group never outnumbers the free variables, so the scan runs to the end
            assert _narrowest(f.clause_vars, state[2], free, free.bit_count()) == want

    def test_walk_and_marks_keep_the_first_clause(self):
        # the narrowest clause is the unit (1); the walk repairs clause 0 first
        f = parse_dimacs("p cnf 3 2\n1 2 3 0\n1 0\n")
        assert walk(f, 0, (2,)) == 0b10
        assert marked_mask(f, 0, 1, 3).tolist() == [True, False, False]


class TestDisjointBound:
    """A node whose disjoint falsified clauses outnumber its radius has an empty ball."""

    def test_one_clause_more_than_the_radius_cuts_the_node(self):
        rt = runtime(0)
        assert kqcpbs(PbsInstance(THREE_BLOCKS, 0, 2, 0, 0.1, 3), rt) is None
        assert rt.branches == 0
        # a node above r_max is cut before any leaf: 4 disjoint clauses > radius 3
        rt = runtime(0)
        assert kqcpbs(PbsInstance(FOUR_BLOCKS, 0, 3, 1, 0.1, 3), rt) is None
        assert rt.branches == 0 and not rt.records

    def test_as_many_clauses_as_the_radius_branch(self):
        # one literal per block, lowest index first: x1, x4, x7
        rt = runtime(0)
        assert kqcpbs(PbsInstance(THREE_BLOCKS, 0, 3, 0, 0.1, 3), rt) == 0b1001001
        assert rt.branches == 3

    def test_a_shared_held_or_bound_variable_leaves_clauses_disjoint(self):
        f = parse_dimacs("p cnf 3 2\n1 2 0\n1 3 0\n")
        rt = runtime(0)
        assert kqcpbs(PbsInstance(f, 0, 1, 0, 0.1, 3, fixed=0b1), rt) is None
        assert rt.branches == 0
        rt = runtime(0)
        state = _state(f.read, 0, 0b110)   # x1 bound to 0
        assert _descend(PbsInstance(f, 0, 1, 0, 0.1, 3), rt, state, 1) is None
        assert rt.branches == 0
        # free, x1 joins the clauses: one group clause, and binding x1 repairs both
        rt = runtime(0)
        assert kqcpbs(PbsInstance(f, 0, 1, 0, 0.1, 3), rt) == 0b1
        assert rt.branches == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_scan_counts_the_greedy_group(self, seed):
        rng = random.Random(400 + seed)
        cut = kept = 0
        for _ in range(300):
            n = rng.randrange(4, 12)
            f = narrowed(mixed_formula(n, rng.randrange(n, 2 * n), rng), rng)
            free = rng.randrange(1 << n) | rng.randrange(1 << n)
            state = _state(f.read, rng.randrange(1 << n), free)
            if state is None or not state[2]:
                continue
            radius = rng.randrange(1, 5)
            group = len(max_disjoint_unsat(f, state[2], ~free))
            clause = _narrowest(f.clause_vars, state[2], free, radius)
            assert (clause == -1) == (group > radius)
            if clause == -1:
                cut += 1
            else:
                kept += 1
        assert cut > 30 and kept > 100, (cut, kept)

    @pytest.mark.parametrize("seed", range(3))
    def test_finds_a_model_whenever_the_held_ball_holds_one(self, seed, monkeypatch):
        # at r_max = 0 the descent is deterministic and must stay complete
        cuts = []
        real = pbs._narrowest

        def counting(clause_vars, falsified, free, radius):
            got = real(clause_vars, falsified, free, radius)
            cuts.append(got == -1)
            return got

        monkeypatch.setattr(pbs, "_narrowest", counting)
        rng = random.Random(500 + seed)
        found = empty = 0
        for _ in range(200):
            n = rng.randrange(4, 10)
            f = narrowed(mixed_formula(n, rng.randrange(n, 2 * n), rng), rng)
            fixed = rng.randrange(1 << n) & rng.randrange(1 << n)
            radius = rng.randrange(1, 6)
            inst = PbsInstance(f, pack(random_assignment(n, rng)), radius, 0, 0.1, 3, fixed)
            got = kqcpbs(inst, runtime(0))
            sub, center = held_root(inst)
            witness = None if sub is CONFLICT else ball_promise(sub, center, radius)
            assert (got is None) == (witness is None), (f, inst.center, radius, fixed)
            if got is not None:
                assert satisfies(f, got) and hamming(got, inst.center) <= radius
                assert got & fixed == inst.center & fixed
                found += 1
            else:
                empty += sub is not CONFLICT
        # both answers, and nodes the bound cuts
        assert found > 30 and empty > 50 and sum(cuts) > 20, (found, empty, sum(cuts))


class TestRepeatedLiterals:
    """A repeated literal is one repair choice: a formula searches as its repeat-free form."""

    def test_a_repeat_adds_no_branch(self):
        # clauses 0 and 1 share x2, so the radius-1 root branches on clause 0:
        # x1 leaves clause 1 falsified and x2 falsifies clause 2
        for clauses in (((1, 1, 2), (2, 3), (-2, 4)), ((1, 2), (2, 3), (-2, 4))):
            f = Formula(4, clauses)
            assert f.flips == ((0b1, 0b10), (0b10, 0b100), (0b10, 0b1000))
            rt = runtime(0)
            assert kqcpbs(PbsInstance(f, 0, 1, 0, 0.1, 3), rt) is None
            assert rt.branches == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_formulas_search_as_parsed(self, seed):
        # mixed_formula's (v, w, v) repeats v; parse_dimacs keeps each literal once
        rng = random.Random(seed)

        def run(inst):
            rt = runtime(seed)
            return kqcpbs(inst, rt), rt.branches, rt.records

        for _ in range(60):
            n = rng.randrange(4, 10)
            f = mixed_formula(n, rng.randrange(n, 3 * n), rng)
            g = parse_dimacs(f.to_dimacs())
            assert f.flips == g.flips and f.clause_vars == g.clause_vars
            inst = PbsInstance(f, pack(random_assignment(n, rng)), rng.randrange(1, 5), 1, 0.2, 3)
            assert run(inst) == run(replace(inst, formula=g))


class TestHybridDescent:
    """Hybrid mode is the descent at a positive r_max: its nodes at radius <= r_max go to the leaf."""

    def test_small_group_path(self):
        # one falsified clause: the node branches on its literals
        f = parse_dimacs("p cnf 4 2\n1 2 3 0\n-4 0\n")
        inst = PbsInstance(f, pack((0, 0, 0, 1)), 3, 1, 0.1, 3)
        rt = runtime(11)
        got = kqcpbs(inst, rt)
        assert got is not None and satisfies(f, got)

    def test_large_group_path_descends(self):
        # four disjoint falsified clauses: one literal of each, down to the leaf at r_max
        f = parse_dimacs("p cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n")
        inst = PbsInstance(f, 0, 4, 1, 0.1, 3)
        rt = runtime(2)
        got = kqcpbs(inst, rt)
        assert got is not None and satisfies(f, got)

    def test_unsat_returns_none(self):
        inst = PbsInstance(UNSAT3, 0, 3, 1, 0.1, 3)
        rt = runtime(0)
        assert kqcpbs(inst, rt) is None

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(25):
            f = random_ksat(8, 20, 3, rng)
            center = random_assignment(8, rng)
            radius = rng.randrange(2, 5)
            inst = PbsInstance(f, pack(center), radius, 1, 0.1, 3)
            got = kqcpbs(inst, runtime(6))
            if got is not None:
                assert satisfies(f, got)
            elif ball_promise(f, center, radius) is not None:
                pytest.fail("hybrid missed a promised ball twice in a row")

    def test_every_leaf_runs_at_r_max(self):
        # a literal branch cuts the radius by 1, so a descent from above r_max
        # reaches the leaf at r_max exactly
        rng = random.Random(5)
        radii = set()
        for i in range(40):
            f = FOUR_BLOCKS if i % 2 else random_ksat(12, 60, 3, rng)
            r_max = rng.randrange(1, 4)
            radius = rng.randrange(r_max + 1, 6)
            inst = PbsInstance(f, pack(random_assignment(12, rng)), radius, r_max, 0.2, 3)
            rt = runtime(rng.randrange(2**32), retries=1)
            kqcpbs(inst, rt)
            assert {rec.radius for rec in rt.records} <= {r_max}
            radii |= {rec.radius for rec in rt.records}
        assert radii == {1, 2, 3}

    def test_complete_at_r_max_zero(self):
        # at r_max = 0 no quantum leaf runs, so the descent is deterministic and
        # must find a model in every ball that holds one
        rng = random.Random(20261018)
        found = 0
        for _ in range(3000):
            k, n = rng.choice((3, 4)), rng.randrange(5, 10)
            m = rng.randrange(n, 4 * n if k == 3 else 6 * n)
            f = planted_ksat(n, m, k, rng)[0] if rng.random() < 0.5 else random_ksat(n, m, k, rng)
            f = narrowed(f, rng)
            center, radius = random_assignment(n, rng), rng.randrange(1, 6)
            inst = PbsInstance(f, pack(center), radius, 0, 0.1, k)
            got = kqcpbs(inst, runtime())
            if got is not None:
                assert satisfies(f, got)
            if ball_promise(f, center, radius) is not None:
                assert got is not None, (f, center, radius)
                found += 1
        # the sample holds many promised balls
        assert found > 1200, found
