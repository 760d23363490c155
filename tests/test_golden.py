"""Pinned counters on small seeded solves under five configs.

Three (k, mode, r_max) triples are those of the `perfbench` workloads,
on formulas from the shared random generators.  The two structured
configs solve PHP(5->4) and Tseitin parity on 10 vertices classically
and in hybrid mode at r_max = 1: random formulas, where ball search
behaves best, hid a blow-up of the hybrid descent there.  Status,
model and the deterministic `SolveStats` counters are pinned, and so
is a digest of each workload's leaf records, so a change that moves
any of them fails here and has to update the table on purpose.  The
unsat3-hybrid family keeps n = 13: at k = 1 that is the smallest size whose
sweep radius exceeds r_max = 3, so the descent branches before it
hands nodes to the quantum leaf, instead of handing it the dispatch
root.
"""

import hashlib
import random
from dataclasses import astuple

import pytest

from ballsat import SolveConfig, solve

from helpers import pigeonhole, planted_ksat, random_ksat, tseitin_parity

CONFIGS = {
    "unsat3-hybrid": dict(k=1, mode="hybrid", r_max=3),
    "unsat3-classical": dict(k=4, mode="classical", r_max=None),
    "planted-pool": dict(k=2, mode="hybrid", r_max=3),
    "structured-classical": dict(k=6, mode="classical", r_max=None),
    "structured-hybrid": dict(k=6, mode="hybrid", r_max=1),
}

# (planted, n, m, width) per instance, drawn in order from Random(workload name)
FAMILIES = {
    "unsat3-hybrid": [(False, 13, 59, 3)] * 3 + [(False, 13, 78, 3)] * 3,
    "unsat3-classical": [(False, 12, 52, 3)] * 3 + [(False, 12, 72, 3)] * 3,
    "planted-pool": [(True, 12, 60, 3)] * 4 + [(True, 10, 100, 4)] * 2,
}

# status, model bits, branches, quantum_calls, total_queries, dispatches, groups_failed
GOLDEN = {
    ("unsat3-hybrid", 0): ("SAT", "0010001110111", 33, 96, 2112, 17, 32),
    ("unsat3-hybrid", 1): ("SAT", "1100100100100", 34, 100, 2200, 17, 33),
    ("unsat3-hybrid", 2): ("SAT", "0110101100010", 33, 99, 2178, 16, 33),
    ("unsat3-hybrid", 3): ("FALSE", None, 65, 195, 4290, 32, 65),
    ("unsat3-hybrid", 4): ("FALSE", None, 65, 195, 4290, 32, 65),
    ("unsat3-hybrid", 5): ("FALSE", None, 66, 198, 4356, 32, 66),
    ("unsat3-classical", 0): ("FALSE", None, 25, 0, 0, 160, 0),
    ("unsat3-classical", 1): ("SAT", "010010000011", 19, 0, 0, 34, 0),
    ("unsat3-classical", 2): ("SAT", "010100001100", 2, 0, 0, 1, 0),
    ("unsat3-classical", 3): ("FALSE", None, 68, 0, 0, 224, 0),
    ("unsat3-classical", 4): ("FALSE", None, 36, 0, 0, 208, 0),
    ("unsat3-classical", 5): ("FALSE", None, 25, 0, 0, 224, 0),
    ("planted-pool", 0): ("SAT", "011111100011", 0, 118, 2596, 40, 39),
    ("planted-pool", 1): ("SAT", "100010010100", 0, 4, 88, 2, 1),
    ("planted-pool", 2): ("SAT", "011001111010", 0, 39, 858, 13, 13),
    ("planted-pool", 3): ("SAT", "101001001010", 0, 7, 154, 3, 2),
    ("planted-pool", 4): ("SAT", "1001100001", 0, 97, 1746, 33, 32),
    ("planted-pool", 5): ("SAT", "1111011001", 0, 16, 288, 6, 5),
    ("structured-classical", 0): ("FALSE", None, 841, 0, 0, 3200, 0),
    ("structured-classical", 1): ("FALSE", None, 656, 0, 0, 512, 0),
    ("structured-hybrid", 0): ("FALSE", None, 638, 933, 7464, 3200, 311),
    ("structured-hybrid", 1): ("FALSE", None, 454, 645, 5160, 512, 215),
}


# sha256 over every QuantumCallRecord of the corpus, in order, per workload:
# a leaf change that drops or reorders records fails here even when the
# counters above still match
RECORDS_SHA256 = {
    "unsat3-hybrid": "a5707eccf3f6e9e09f1af812be5bc7d0b28edb766120f7dfb06bfa25470ea403",
    # no quantum call: the digest of nothing
    "unsat3-classical": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "planted-pool": "c906b6446ab1fdd7d9da26cd902ec1a3ec5a52ba977193eb29629b6257bc1519",
    "structured-classical": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "structured-hybrid": "d47494b3e283b4d7fd110af5e0bd67d14acd8766356b382e96273f499034b55a",
}


def corpus(name):
    if name.startswith("structured"):
        yield pigeonhole(5, 4)
        yield tseitin_parity(10, random.Random(1))
        return
    rng = random.Random(name)
    for planted, n, m, width in FAMILIES[name]:
        yield planted_ksat(n, m, width, rng)[0] if planted else random_ksat(n, m, width, rng)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_counters_match_the_recorded_values(name):
    for index, f in enumerate(corpus(name)):
        res = solve(f, SolveConfig(seed=0, **CONFIGS[name]))
        s = res.stats
        model = "".join(map(str, res.model)) if res.model is not None else None
        got = (
            res.status, model, s.branches, s.quantum_calls,
            s.total_queries, s.dispatches, s.groups_failed,
        )
        assert got == GOLDEN[name, index], f"{name} instance {index}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_records_match_the_recorded_digest(name):
    digest = hashlib.sha256()
    for index, f in enumerate(corpus(name)):
        for rec in solve(f, SolveConfig(seed=0, **CONFIGS[name])).stats.records:
            digest.update(f"{index} {astuple(rec)!r}\n".encode())
    assert digest.hexdigest() == RECORDS_SHA256[name], name
