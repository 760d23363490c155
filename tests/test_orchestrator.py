import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ballsat import (
    CONFLICT, Formula, codes, decompose, evaluate, orchestrator, parse_dimacs, pbs, stream,
)
from ballsat.codes import build_kary_cover, write_cover
from ballsat.orchestrator import (
    MAX_RETRIES,
    ConfigError,
    QuantumCallRecord,
    ResourceModel,
    SolveConfig,
    exponent,
    solve,
    solve_resource,
)
from ballsat.oracle import brute_sat
from ballsat.pbs import PbsInstance, PbsRuntime

from helpers import planted_ksat, random_ksat
from test_golden import CONFIGS, GOLDEN, corpus

SAT6 = parse_dimacs("p cnf 6 4\n1 2 3 0\n-1 4 0\n-2 5 6 0\n-3 -6 0\n")

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


# a child's ru_maxrss also counts the peak of the process that started it,
# so the child reads its own peak, VmHWM in KiB (Linux)
PEAK_OF_A_K21_SOLVE = r"""
import json, re, sys
from pathlib import Path
from ballsat import parse_dimacs
from ballsat.orchestrator import SolveConfig, solve
res = solve(parse_dimacs(sys.stdin.read()), SolveConfig(k=21, mode="classical"))
peak = re.search(r"VmHWM:\s*(\d+) kB", Path("/proc/self/status").read_text())[1]
print(json.dumps([res.status, res.stats.dispatches, int(peak)]))
"""


class TestExponent:
    def test_anchor_gamma_zero(self):
        assert exponent(3, 0.0) == pytest.approx(0.41504, abs=1e-5)

    def test_anchor_gamma_tenth(self):
        assert exponent(3, 0.1) == pytest.approx(0.39423, abs=1e-4)

    def test_formula(self):
        k, g = 5, 0.2
        expect = 1 + math.log2((k - 1) / k) - g * math.log2((k - 1) / math.sqrt(k))
        assert exponent(k, g) == pytest.approx(expect)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_strictly_decreasing(self, k):
        grid = [i / 50 for i in range(50)]
        vals = [exponent(k, g) for g in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestResourceModel:
    def test_residual(self):
        rm = solve_resource(1.0, 1.0, 0.3)
        residual = abs(rm.gamma * math.log2(1 / rm.gamma) + rm.gamma - 0.3)
        assert residual <= 1e-9

    def test_known_gamma(self):
        rm = solve_resource(1.0, 1.0, 0.3)
        assert rm.gamma == pytest.approx(0.0597, abs=1e-3)

    def test_small_c_small_gamma(self):
        assert solve_resource(1.0, 1.0, 1e-4).gamma < 1e-4

    def test_unreachable_c(self):
        with pytest.raises(ConfigError):
            solve_resource(0.1, 0.1, 0.9)

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            solve_resource(1.0, 1.0, 0.0)
        with pytest.raises(ConfigError):
            solve_resource(-1.0, 1.0, 0.3)

    @pytest.mark.parametrize(
        "A,B,c",
        [(math.nan, 1.0, 0.3), (1.0, math.nan, 0.3), (math.inf, 1.0, 0.3), (1.0, 1.0, math.inf)],
    )
    def test_non_finite_constants(self, A, B, c):
        with pytest.raises(ConfigError):
            solve_resource(A, B, c)

    @pytest.mark.parametrize("A,B", [(1.0, 2000.0), (1e-300, 1.0)])
    def test_large_b_over_a(self, A, B):
        # B/A past 1/ln 2 puts the peak at or above 1, where 2^(B/A - 1/ln 2) overflows
        rm = solve_resource(A, B, 0.3)
        assert 0.0 < rm.gamma < 1.0
        residual = abs(A * rm.gamma * math.log2(1 / rm.gamma) + B * rm.gamma - 0.3)
        assert residual <= 1e-9

    def test_r_max_floor(self):
        rm = solve_resource(1.0, 1.0, 0.3)
        assert rm.r_max(100) == math.floor(rm.gamma * 100)
        assert rm.r_max(10) == 0


class TestSolve:
    def test_sat_model_verifies(self):
        res = solve(SAT6, SolveConfig(k=2, r_max=2, seed=7, workers=1))
        assert res.status == "SAT"
        assert evaluate(SAT6, res.model) == 1

    def test_unsat_reports_false_with_bound(self):
        cfg = SolveConfig(k=1, r_max=1, seed=7, workers=1)
        res = solve(UNSAT3, cfg)
        assert res.status == "FALSE" and res.model is None
        expect = res.stats.groups_failed * cfg.epsilon ** (2 * cfg.retries)
        assert res.stats.failure_bound == pytest.approx(expect)

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_radius_zero_sweep_at_r_max_zero_makes_no_leaf_call(self, k):
        # the sweep radius floor((3 - k) / 3) is 0: each dispatch center is its whole
        # ball, so the exhaustive sweep makes FALSE certain, as at k = 0 and classically
        for cfg in (
            SolveConfig(k=k, r_max=0, seed=7),
            SolveConfig(k=0, r_max=0, seed=7),
            SolveConfig(k=k, seed=7, mode="classical"),
        ):
            res = solve(UNSAT3, cfg)
            assert res.status == "FALSE", cfg
            assert (res.stats.records, res.stats.failure_bound) == ([], 0.0), cfg
        # at r_max 1 the same dispatches reach the leaf at radius 0, one word per retry
        res = solve(UNSAT3, SolveConfig(k=k, r_max=1, seed=7))
        assert res.status == "FALSE" and res.stats.failure_bound > 0
        assert len(res.stats.records) == 3 * res.stats.dispatches == 3 * res.stats.groups_failed
        assert {(rec.radius, rec.outcome) for rec in res.stats.records} == {(0, "false")}

    def test_failure_bound_clamped_to_one(self):
        cfg = SolveConfig(k=1, r_max=1, epsilon=0.9, retries=1, seed=7, workers=1)
        res = solve(UNSAT3, cfg)
        assert res.status == "FALSE"
        # the unclamped union bound exceeds 1 here
        assert res.stats.groups_failed * cfg.epsilon ** (2 * cfg.retries) > 1
        assert res.stats.failure_bound == 1.0

    def test_k_zero_single_worker_degenerates(self):
        res = solve(SAT6, SolveConfig(k=0, r_max=2, seed=3, workers=1))
        assert res.status == "SAT" and evaluate(SAT6, res.model) == 1

    def test_classical_mode(self):
        res = solve(SAT6, SolveConfig(k=1, seed=3, workers=1, mode="classical"))
        assert res.status == "SAT" and evaluate(SAT6, res.model) == 1
        assert res.stats.quantum_calls == 0

    def test_multiworker_agrees(self):
        # the worker count is validated but must not change a seeded result
        rng = random.Random(5)
        formulas = [SAT6, UNSAT3] + [planted_ksat(10, 42, 3, rng)[0] for _ in range(4)]
        for f in formulas:
            one, four = (
                solve(f, SolveConfig(k=2, r_max=2, seed=7, workers=w)) for w in (1, 4)
            )
            assert one.status == four.status
            assert one.model == four.model
            if one.status == "SAT":
                assert evaluate(f, one.model) == 1
            assert one.stats == four.stats

    def test_resource_model_argument(self):
        rm = solve_resource(1.0, 1.0, 0.8)
        res = solve(SAT6, SolveConfig(k=0, seed=1, workers=1), rm)
        assert res.status == "SAT"

    def test_dispatch_budget(self):
        cfg = SolveConfig(k=1, r_max=1, seed=7, workers=1)
        res = solve(UNSAT3, cfg)
        entries = decompose(UNSAT3, 1)
        live = sum(1 for _, sub in entries if sub is not CONFLICT)
        # radius floor(2/3) = 0 covers with the whole 2-bit space: 4 words
        assert res.stats.dispatches <= live * 4

    def test_deterministic_records(self):
        cfg = SolveConfig(k=1, r_max=1, seed=11, workers=1)
        a = solve(UNSAT3, cfg)
        b = solve(UNSAT3, cfg)
        assert a.stats.records == b.stats.records

    def test_small_corpus_agrees_with_brute(self):
        rng = random.Random(99)
        for i in range(12):
            f = random_ksat(7, 21, 3, rng)
            expect = brute_sat(f) is not None
            res = solve(f, SolveConfig(k=i % 3, r_max=2, seed=i, workers=1))
            if res.status == "SAT":
                assert expect and evaluate(f, res.model) == 1
            else:
                assert not expect

    def test_classical_mode_agrees_with_brute(self):
        # the classical descent is complete: FALSE exactly when brute force
        # finds no model, with nothing left to chance; 640 formulas, about half SAT
        rng = random.Random(2024)
        shapes = [
            (n, w, k) for n in range(1, 9) for w in range(1, min(4, n) + 1) for k in range(n + 1)
        ]
        for n, width, k in shapes * 4:
            f = random_ksat(n, rng.randint(n, 2**width * n), width, rng)
            res = solve(f, SolveConfig(k=k, seed=rng.randrange(100), mode="classical"))
            assert res.status == ("FALSE" if brute_sat(f) is None else "SAT"), f
            if res.status == "SAT":
                assert evaluate(f, res.model) == 1
            else:
                assert res.stats.failure_bound == 0.0

    @pytest.mark.parametrize("mode", ["classical", "hybrid"])
    def test_prefixes_restricted_at_their_turn(self, monkeypatch, mode):
        # one clause over 4 of 12 variables: no 3-bit prefix conflicts, and the
        # first prefix in the order already holds a model, so every clause read
        # of the solve holds that one prefix
        f = parse_dimacs("p cnf 12 1\n1 -2 3 -4 0\n")
        fixed = sum(1 << (v - 1) for v in orchestrator.top_k_vars(f, 3))
        read, held = f.read, set()

        def counting(x):
            held.add(x & fixed)
            return read(x)

        monkeypatch.setitem(f.__dict__, "read", counting)
        res = solve(f, SolveConfig(k=3, r_max=1, seed=5, mode=mode))
        assert res.status == "SAT" and evaluate(f, res.model) == 1
        assert len(held) == 1

    @pytest.mark.parametrize("k", [0, 1, 4, 7])
    def test_dispatches_hold_the_decompose_prefixes(self, monkeypatch, k):
        # every prefix restrict leaves unconflicted is dispatched, under its
        # decompose bits as the record string and as the held center bits
        rng = random.Random(k)
        f = next(
            f for f in (random_ksat(10, 60, 3, rng) for _ in range(200))
            if brute_sat(f) is None
        )
        held = {}

        def capture(inst, rt):
            held.setdefault(rt.prefix, set()).add(inst.center & inst.fixed)
            return None

        monkeypatch.setattr(orchestrator, "kqcpbs", capture)
        assert solve(f, SolveConfig(k=k, mode="classical")).status == "FALSE"
        kvars = orchestrator.top_k_vars(f, k)
        assert held == {
            "".join(map(str, bits)): {sum(bit << (v - 1) for v, bit in zip(kvars, bits))}
            for bits, sub in decompose(f, k)
            if sub is not CONFLICT
        }

    def test_prefixes_visited_in_the_seeded_order(self, monkeypatch):
        # 2^13 prefixes, more than one slice of the order: every full assignment
        # of this UNSAT formula empties a clause, so the solve reads each prefix
        # (twice: held alone and with the free variables) and dispatches none
        f = random_ksat(13, 130, 3, random.Random(0))
        read, seen = f.read, []
        monkeypatch.setitem(f.__dict__, "read", lambda x: seen.append(x) or read(x))
        res = solve(f, SolveConfig(k=13, mode="classical", seed=3))
        assert (res.status, res.stats.dispatches) == ("FALSE", 0)
        bit_vars = list(reversed(orchestrator.top_k_vars(f, 13)))
        order = np.random.default_rng(np.random.SeedSequence([3, 0])).permutation(1 << 13)
        expect = [
            sum(1 << (v - 1) for j, v in enumerate(bit_vars) if pos >> j & 1)
            for pos in order.tolist()
        ]
        assert seen[::2] == seen[1::2] == expect

    @pytest.mark.parametrize("k", [0, 1, 5, 13, 21])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_prefix_order_shuffle_is_the_seeded_permutation(self, k, seed):
        # solve's order comes from the stream module, 4 bytes a prefix, and is
        # numpy's Generator.permutation(1 << k) of the same seed
        order = stream.permutation((seed, 0), 1 << k)
        assert order.itemsize == 4
        want = np.random.default_rng(np.random.SeedSequence([seed, 0])).permutation(1 << k)
        assert order.tolist() == want.tolist()

    def test_prefix_order_in_bounded_memory(self):
        # UNSAT at k = n = 21: every prefix empties a clause, so the child's peak
        # is the prefix order; converting all 2^21 entries to Python ints at once
        # peaked at 131 MB, converting 4,096 at a time at 51 MB, and shuffling a
        # uint32 order in place, not permuting an int64 copy, at 43 MB
        f = random_ksat(21, 210, 3, random.Random(0))
        src = str(Path(orchestrator.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_OF_A_K21_SOLVE], input=f.to_dimacs(),
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        status, dispatches, peak_kib = json.loads(proc.stdout)
        assert (status, dispatches) == ("FALSE", 0)
        assert peak_kib < 90 * 1024

    def test_solves_call_no_clause_by_clause_reference(self, monkeypatch):
        # restrict, unsat_count and first_unsat_clause are test references only:
        # in every ballsat namespace that holds one, a call now fails the solve
        def refuse(name):
            def raising(*args, **kwargs):
                raise AssertionError(f"{name} called by a solve")
            return raising

        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "ballsat" or mod_name.startswith("ballsat."):
                for name in ("restrict", "unsat_count", "first_unsat_clause"):
                    if hasattr(mod, name):
                        monkeypatch.setattr(mod, name, refuse(name))
                        patched += 1
        assert patched >= 5
        # one clause over 4 of 12 variables: no 3-bit prefix conflicts, and the
        # first prefix in the order already holds a model
        f = parse_dimacs("p cnf 12 1\n1 -2 3 -4 0\n")
        for mode in ("classical", "hybrid"):
            res = solve(f, SolveConfig(k=3, r_max=1, seed=5, mode=mode))
            assert res.status == "SAT" and evaluate(f, res.model) == 1
        # one seeded solve per benchmark config gives its pinned row
        for name, config in CONFIGS.items():
            res = solve(next(corpus(name)), SolveConfig(seed=0, **config))
            s = res.stats
            model = "".join(map(str, res.model)) if res.model is not None else None
            got = (
                res.status, model, s.branches, s.quantum_calls,
                s.total_queries, s.dispatches, s.groups_failed,
            )
            assert got == GOLDEN[name, 0], name

    def test_seeds_share_the_sweep_cover(self):
        # the sweep cover depends on the shape (L, r) alone, not on the seed
        codes._build_cover.cache_clear()
        for seed in range(20):
            solve(UNSAT3, SolveConfig(k=1, r_max=1, seed=seed))
        # one binary sweep cover, and no other code
        assert codes._build_cover.cache_info().misses == 1


class TestConfigErrors:
    @pytest.mark.parametrize("mode", ["hybrid", "classical"])
    @pytest.mark.parametrize("clauses,message", [
        pytest.param(((-4,),), "literal -4", id="past-num-vars"),
        pytest.param(((0,),), "literal 0", id="zero"),
        pytest.param(((1,), ()), "empty clause", id="empty-clause"),
    ])
    def test_malformed_formula_rejected(self, mode, clauses, message):
        # checked before anything reads a clause: the clause table has no
        # variable for a literal 0 or past num_vars
        with pytest.raises(ValueError, match=message):
            solve(Formula(3, clauses), SolveConfig(r_max=1, mode=mode))

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            solve(SAT6, SolveConfig(k=7, r_max=1))

    def test_epsilon_out_of_range(self):
        with pytest.raises(ConfigError):
            solve(SAT6, SolveConfig(epsilon=1.0, r_max=1))

    def test_retries_positive(self):
        with pytest.raises(ConfigError):
            solve(SAT6, SolveConfig(retries=0, r_max=1))

    def test_retries_capped(self):
        # the cap holds at any epsilon; 0.9 keeps the bound readable: 0.9^2000 ~ 1e-92
        cfg = SolveConfig(k=1, r_max=1, retries=MAX_RETRIES, epsilon=0.9)
        res = solve(UNSAT3, cfg)
        assert res.status == "FALSE"
        assert {r.attempt for r in res.stats.records} == set(range(MAX_RETRIES))
        with pytest.raises(ConfigError, match="cap"):
            solve(UNSAT3, dataclasses.replace(cfg, retries=MAX_RETRIES + 1))

    def test_epsilon_whose_failure_bound_underflows(self):
        # 1e-300 ** 6 == 0.0: each failed group still adds the smallest positive float
        res = solve(UNSAT3, SolveConfig(k=1, r_max=1, epsilon=1e-300))
        assert res.status == "FALSE" and res.stats.groups_failed > 0
        assert 0 < res.stats.failure_bound
        # the classical descent has no quantum groups, so no bound to state
        res = solve(UNSAT3, SolveConfig(k=1, epsilon=1e-300, mode="classical"))
        assert (res.status, res.stats.failure_bound) == ("FALSE", 0.0)

    def test_retries_whose_failure_bound_underflows(self):
        # 0.1 ** 324 == 0.0, yet 162 retries are well inside the cap
        res = solve(UNSAT3, SolveConfig(k=1, r_max=1, epsilon=0.1, retries=162))
        assert res.status == "FALSE"
        assert res.stats.failure_bound == res.stats.groups_failed * math.ulp(0.0) > 0

    def test_k_above_space_limit(self, monkeypatch):
        # the prefix order permutes all 2^k prefixes: 2^24 is past the 10^7 limit
        def never(*args):
            raise AssertionError("prefix variables chosen")

        monkeypatch.setattr(orchestrator, "top_k_vars", never)
        f = parse_dimacs("p cnf 24 1\n1 2 3 0\n")
        for mode in ("classical", "hybrid"):
            with pytest.raises(ConfigError, match="too large"):
                solve(f, SolveConfig(k=24, r_max=1, mode=mode))

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            solve(SAT6, SolveConfig(mode="quantum", r_max=1))

    def test_needs_radius_source(self):
        with pytest.raises(ConfigError):
            solve(SAT6, SolveConfig(k=0))


class TestCoverCache:
    def test_cache_file_written_and_reused(self, tmp_path):
        cfg = SolveConfig(k=1, r_max=1, seed=7, workers=1, cover_cache=tmp_path)
        solve(UNSAT3, cfg)
        files = list(tmp_path.glob("*.cover"))
        assert files, "no cover file persisted"
        before = {p.name: p.read_text() for p in files}
        solve(UNSAT3, cfg)
        after = {p.name: p.read_text() for p in tmp_path.glob("*.cover")}
        assert before == after

    def test_hybrid_solve_builds_and_writes_only_the_sweep_cover(self, tmp_path, monkeypatch):
        # the descent branches on literals, so no width needs a K-ary code
        def never(*args, **kwargs):
            raise AssertionError("K-ary code built")

        monkeypatch.setattr(codes, "build_kary_cover", never)
        codes._build_cover.cache_clear()
        for width in (3, 4):
            f = random_ksat(8, 10 * width, width, random.Random(width))
            res = solve(f, SolveConfig(k=1, r_max=1, seed=1, cover_cache=tmp_path))
            assert res.stats.dispatches and res.stats.quantum_calls
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["bin-7-r1.cover", "bin-7-r2.cover"], names

    def test_corrupt_cache_rejected(self, tmp_path):
        (tmp_path / "bin-2-r0.cover").write_text("cover 2 2 0 1\n00\n")
        with pytest.raises(ConfigError, match=r"bin-2-r0\.cover: does not cover \(0, 1\)"):
            solve(
                UNSAT3,
                SolveConfig(k=1, r_max=1, seed=7, workers=1, cover_cache=tmp_path),
            )

    @pytest.mark.parametrize(
        "text",
        [
            "garbage\n",
            "cover 2 2 0 2\n00\n",
            "cover 2 3 1 2\n000\n111\n",
            "cover 2 2 0 4\n00\n01\n10\n19\n",
        ],
        ids=["no-header", "short-body", "wrong-length", "bad-symbol"],
    )
    def test_malformed_binary_cache_rejected(self, tmp_path, text):
        (tmp_path / "bin-2-r0.cover").write_text(text)
        with pytest.raises(ConfigError, match="bin-2-r0.cover"):
            solve(UNSAT3, SolveConfig(k=1, r_max=1, seed=7, cover_cache=tmp_path))

    def test_misshapen_kary_cache_rejected(self, tmp_path):
        # a K-ary code in the sweep cover's file is the wrong shape
        (tmp_path / "bin-2-r0.cover").write_text(write_cover(build_kary_cover(3, 2, 0)))
        with pytest.raises(ConfigError, match="bin-2-r0.cover: shape does not match"):
            solve(UNSAT3, SolveConfig(k=1, r_max=1, seed=7, cover_cache=tmp_path))

    def test_memo_hit_still_writes_cache(self, tmp_path):
        cfg = SolveConfig(k=1, r_max=1, seed=7)
        first = solve(UNSAT3, cfg)
        again = solve(UNSAT3, dataclasses.replace(cfg, cover_cache=tmp_path))
        names = sorted(p.name for p in tmp_path.glob("*.cover"))
        assert names == ["bin-2-r0.cover"], names
        assert again.status == first.status
        assert again.stats.records == first.stats.records

    def test_unpruned_cache_file_gives_the_uncached_result(self, tmp_path):
        # four disjoint copies of UNSAT3: at k = 0 the radius is 4, so each
        # dispatch branches before its nodes reach the leaf at r_max 3
        blocks = Formula(12, tuple(
            tuple(lit + b if lit > 0 else lit - b for lit in clause)
            for b in (0, 3, 6, 9)
            for clause in UNSAT3.clauses
        ))
        # the (12, 4) sweep cover and 4 redundant words after it, as a hand-made file may hold it
        sweep = codes.build_binary_cover(12, radius=4)
        extra = tuple(tuple(1 - bit for bit in word) for word in sweep.codewords[:4])
        unpruned = dataclasses.replace(sweep, codewords=sweep.codewords + extra)
        (tmp_path / "bin-12-r4.cover").write_text(write_cover(unpruned))
        cfg = SolveConfig(k=0, r_max=3, seed=1)
        uncached = solve(blocks, cfg)
        cached = solve(blocks, dataclasses.replace(cfg, cover_cache=tmp_path))
        assert len(set(unpruned.codewords)) == 20 and uncached.stats.branches
        assert (cached.status, cached.model) == (uncached.status, uncached.model)
        # every counter and record
        assert cached.stats == uncached.stats

    def test_unchanged_file_checked_once_per_process(self, tmp_path, monkeypatch):
        cfg = SolveConfig(k=1, r_max=1, seed=7, cover_cache=tmp_path)
        first = solve(UNSAT3, cfg)   # writes bin-2-r0.cover
        checks = []
        real = codes._ball_counts
        monkeypatch.setattr(codes, "_ball_counts", lambda code: checks.append(code) or real(code))
        codes._build_cover.cache_clear()
        counts = []
        for _ in range(4):
            assert solve(UNSAT3, cfg).stats == first.stats
            counts.append(len(checks))
        # the file's first read: one exhaustive count, prune_cover's
        assert counts == [1, 1, 1, 1]
        # an edited file is a new text: checked again, the same code
        sweep = tmp_path / "bin-2-r0.cover"
        sweep.write_text(sweep.read_text() + "\n")
        assert solve(UNSAT3, cfg).stats == first.stats
        assert len(checks) == 2
        # a built cover is counted once too: the greedy is not checked again
        codes._build_cover.cache_clear()
        codes.cover(12, 4)
        assert len(checks) == 3

    def test_every_shape_built_once_per_process(self, monkeypatch):
        # 19 sweep shapes (L, L // K): 3-SAT at L = 0..12 and 4-SAT where
        # L // 4 differs from L // 3; each is built once, also on the second pass
        built = []
        real = codes.build_binary_cover
        monkeypatch.setattr(
            codes, "build_binary_cover",
            lambda length, radius: built.append((length, radius)) or real(length, radius=radius),
        )
        codes._build_cover.cache_clear()
        runs = [(3, n) for n in range(13)] + [(4, n) for n in (3, 6, 7, 9, 10, 11)]
        for _ in range(2):
            for width, length in runs:
                clause = " ".join(map(str, range(1, width + 1)))
                f = parse_dimacs(f"p cnf 12 1\n{clause} 0\n")
                res = solve(f, SolveConfig(k=12 - length, mode="classical"))
                assert res.status == "SAT"
        shapes = {(length, length // width) for width, length in runs}
        assert len(shapes) == 19
        assert sorted(built) == sorted(shapes)

    def test_cache_file_wins_over_earlier_build(self, tmp_path):
        cfg = SolveConfig(k=3, r_max=1)
        assert solve(SAT6, cfg).status == "SAT"
        (tmp_path / "bin-3-r1.cover").write_text("garbage\n")
        with pytest.raises(ConfigError, match="missing cover header"):
            solve(SAT6, dataclasses.replace(cfg, cover_cache=tmp_path))


@pytest.fixture
def built(monkeypatch):
    """The entropy of every stream the stream module seeds while the test runs."""
    calls = []
    real = stream.pcg64

    def counting(entropy):
        calls.append(entropy)
        return real(entropy)

    monkeypatch.setattr(stream, "pcg64", counting)
    return calls


class TestGenerators:
    def test_classical_solve_seeds_only_the_prefix_order(self, built):
        # classical dispatches never reach the leaf, so they draw nothing
        res = solve(UNSAT3, SolveConfig(k=1, mode="classical"))
        assert res.status == "FALSE" and res.stats.dispatches > 1
        assert built == [(0, 0)]

    @pytest.mark.parametrize("r_max", [0, 1])
    def test_hybrid_dispatch_seeds_a_generator_only_at_the_leaf(self, built, r_max):
        # radius 2 > r_max: at r_max = 0 no descent reaches the leaf, at 1 a
        # dispatch stops before it when binding each literal of its narrowest
        # clause empties another; width-2 clauses make that happen in the sample
        rng = random.Random(3)
        mixed = (
            Formula(8, random_ksat(8, 20, 2, rng).clauses + random_ksat(8, 20, 3, rng).clauses)
            for _ in range(200)
        )
        sample = [f for f in mixed if brute_sat(f) is None][:10]
        # one solver seed and k fix each (prefix, codeword)'s dispatch seed, so a
        # leaf dispatch seeds its stream, for the cached head, only the first
        # time the process meets it, and the warm pass seeds none
        pbs._stream_head.cache_clear()
        seen, leaf_dispatches, dispatches = set(), 0, 0
        for warm in (False, True):
            for f in sample:
                before = len(built)
                res = solve(f, SolveConfig(k=1, r_max=r_max))
                leaf = {(rec.prefix, rec.codeword) for rec in res.stats.records}
                assert res.status == "FALSE"
                assert len(built) - before == 1 + len(leaf - seen)
                assert not warm or leaf <= seen
                seen |= leaf
                leaf_dispatches += len(leaf)
                dispatches += res.stats.dispatches
        assert len(sample) == 10 and leaf_dispatches < dispatches
        assert bool(seen) == bool(r_max)


class TestMessageTypes:
    def test_worker_messages_are_classical(self):
        # a dispatch sends a PbsInstance and gets back its PbsRuntime: a seed,
        # never a Generator, and formulas, bit tuples, counters and records
        allowed = {
            "str", "int", "float", "Formula", "Assignment",
            "tuple[int, ...]", "list[QuantumCallRecord]",
        }
        for cls in (PbsInstance, PbsRuntime):
            for fld in dataclasses.fields(cls):
                assert fld.type in allowed, (cls.__name__, fld.name, fld.type)

    def test_record_serialization_schema(self):
        rec = QuantumCallRecord("01", 3, 2, 13, 12, "sat", 0)
        d = dataclasses.asdict(rec)
        assert list(d) == [
            "prefix", "codeword", "radius", "L", "queries", "outcome", "attempt",
        ]
        assert all(isinstance(v, (str, int)) for v in d.values())
