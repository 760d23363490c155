"""Checks of the benchmark's own machinery.

    python -m pytest perfbench -q
"""

import json
import multiprocessing
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ballsat  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from ballsat import brute_sat, oracle  # noqa: E402

helpers = wl.load_helpers()


@pytest.mark.parametrize("n,m,width", [(1, 1, 1), (2, 4, 2), (6, 30, 3), (9, 40, 3), (10, 90, 4)])
def test_first_model_matches_brute_force(n, m, width):
    rng = random.Random(f"{n}-{m}-{width}")
    outcomes = set()
    for _ in range(25):
        f = helpers.random_ksat(n, m, width, rng)
        got = wl.first_model(f.num_vars, f.clauses)
        assert got == brute_sat(f)
        outcomes.add(got is None)
    if n >= 6:
        assert outcomes == {True, False}, "sample should hold SAT and UNSAT instances"


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_corpus_is_seeded_and_certified(name):
    w = wl.WORKLOADS[name]
    corpus, tried = wl.build_corpus(w, seed=3, size=6)
    again, _ = wl.build_corpus(w, seed=3, size=6)
    assert [i.dimacs for i in corpus] == [i.dimacs for i in again]
    assert tried >= len(corpus)
    for inst in corpus[:3]:
        f = ballsat.parse_dimacs(inst.dimacs)
        assert f.clauses == inst.clauses
        assert (brute_sat(f) is not None) == inst.satisfiable


def test_failure_reasons():
    unsat = wl.Instance(0, 2, ((1,), (-1,)), "", False)
    planted = wl.Instance(1, 2, ((1, 2), (-1,)), "", True)
    assert wl.failure(unsat, "FALSE", None) is None
    assert wl.failure(unsat, "SAT", (1, 0)) == "SAT model falsifies a clause"
    assert wl.failure(planted, "SAT", (0, 1)) is None
    assert wl.failure(planted, "SAT", (1, 1)) == "SAT model falsifies a clause"
    assert wl.failure(planted, "SAT", (0,)) == "SAT without a full model"
    assert wl.failure(planted, "FALSE", None) == "FALSE on a planted instance"
    assert wl.failure(planted, "UNKNOWN", None).startswith("unexpected status")
    always = wl.Instance(2, 1, ((1, -1),), "", False)
    assert wl.failure(always, "SAT", (0,)) == "SAT on a certified-UNSAT instance"


def test_self_cpu_subtracts_children_on_the_same_thread_only():
    # span 0 is a solve on thread 0; 1 and 2 run on worker threads 1 and 2,
    # 3 nests in 1 on thread 1, and 4 is the solve's own child on thread 0
    cpu_start = np.array([0, 0, 0, 5, 60])
    cpu_end = np.array([100, 40, 30, 15, 80])
    parent = np.array([-1, 0, 0, 1, 0])
    thread = np.array([0, 1, 2, 1, 0])
    own = tr.self_cpu(cpu_start, cpu_end, parent, thread)
    assert own.tolist() == [100 - 20, 40 - 10, 30, 10, 20]


def test_elapsed_counts_cpu_but_not_sleep():
    start = run.clocks()
    time.sleep(0.05)
    assert run.elapsed(start) < 0.02
    start = run.clocks()
    end = time.perf_counter() + 0.05
    while time.perf_counter() < end:
        pass
    assert run.elapsed(start) > 0.02


def test_a_worker_process_left_running_is_a_failure(monkeypatch):
    worker = multiprocessing.Process(target=time.sleep, args=(0.5,))

    def solve(formula, cfg):
        worker.start()
        return None

    monkeypatch.setattr(run.ballsat, "solve", solve)
    try:
        _, _, err = run.run_one("p cnf 1 1\n1 0\n", None)
    finally:
        worker.join()
    assert "worker process" in err


def test_warmups_answer_in_the_sweep():
    for w in wl.WORKLOADS.values():
        run.set_up(w, w.config())


def test_setup_sample_times_a_fresh_process():
    took = run.setup_sample("unsat3-hybrid")
    assert 0 < took < 60


def test_tracer_patches_every_namespace_and_restores():
    t = tr.Tracer()
    targets = {(mod.__name__, name) for mod, name, _, _ in t._patches}
    assert ("ballsat.pbs", "first_unsat_clause") in targets
    assert ("ballsat.fliptree", "first_unsat_clause") in targets
    assert ("ballsat.orchestrator", "kqcpbs") in targets
    assert ("ballsat", "solve") in targets
    assert not any(mod == "ballsat.oracle" for mod, _ in targets)
    before = oracle.evaluate, ballsat.pbs.kqcpbs
    t.install()
    try:
        assert ballsat.pbs.kqcpbs is not before[1]
        assert oracle.evaluate is before[0]
    finally:
        t.uninstall()
    assert ballsat.pbs.kqcpbs is before[1]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_solve_repeats_counters_and_nests_spans(name):
    w = wl.WORKLOADS[name]
    cfg = w.config()
    (inst,), _ = wl.build_corpus(w, seed=1, size=1)
    plain = ballsat.solve(ballsat.parse_dimacs(inst.dimacs), cfg)
    t = tr.Tracer()
    t.current_instance = 0
    t.install()
    try:
        res = ballsat.solve(ballsat.parse_dimacs(inst.dimacs), cfg)
    finally:
        t.uninstall()
    assert wl.failure(inst, res.status, res.model) is None
    if w.workers == 1:
        assert [getattr(res.stats, f) for f in run.COUNTER_FIELDS] == [
            getattr(plain.stats, f) for f in run.COUNTER_FIELDS
        ]
    a = t.arrays()
    names = np.array(t.names)[a["name_id"]]
    assert (a["end_ns"] >= a["start_ns"]).all()
    (solve_id,) = np.flatnonzero(names == "orchestrator.solve")
    dispatched = np.isin(names, tr.DISPATCH_ENTRIES) & (a["parent"] == solve_id)
    assert dispatched.sum() == res.stats.dispatches
    totals = t.layer_totals()
    assert totals["fliptree.walk"][0] > 0 or w.mode == "classical"
    if w.mode == "classical":
        assert totals["fliptree.walk"][0] == totals["fpsearch.prepare"][0] == 0
    assert all(busy >= 0 for _, busy in totals.values())


def test_manifest_is_committed():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == run.manifest()
    traced = {n for n, _, _ in run.PER_LAYER}
    assert {f"{s}.calls" for s in tr.SPAN_NAMES} <= traced
    assert set(tr.COUNTERS) <= traced
