"""The descent's bind/unbind trail against restrict-based evaluation.

Unit tests check each trail read-out against `restrict` followed by
`first_unsat_clause`/`unsat_count`, with and without a held prefix;
differential tests run the production `kqcpbs` and `kpbs_hybrid`
beside the restrict-based tuple reference in `reference_descent.py`.
"""

import random

import pytest

from ballsat import CONFLICT, parse_dimacs
from ballsat.codes import build_kary_cover
from ballsat.formula import (
    first_unsat_clause,
    max_disjoint_unsat,
    pack,
    restrict,
    top_k_vars,
    unpack,
    unsat_count,
)
from ballsat.pbs import (
    PbsInstance,
    PbsRuntime,
    _Trail,
    descent_t,
    kpbs_hybrid,
    kqcpbs,
)

from helpers import mixed_formula, planted_ksat, random_assignment, random_ksat
from reference_descent import ref_disjoint, ref_kpbs_hybrid, ref_kqcpbs


def binding_of(trail):
    """The trail's binding as a dict: every held variable at its value in x."""
    held = ((1 << trail.formula.num_vars) - 1) ^ trail.free
    return {
        v: trail.x >> (v - 1) & 1 for v in range(1, trail.formula.num_vars + 1)
        if held >> (v - 1) & 1
    }


def snapshot(trail):
    """What the descent reads off a trail: assignment, masks, branch literals."""
    literals = trail.branch_literals() if trail.falsified else None
    return trail.x, trail.free, trail.falsified, literals


def check_against_restrict(trail, f, center, conflicted):
    binding = binding_of(trail)
    sub = restrict(f, binding)
    assert (sub is CONFLICT) == conflicted
    lifted = list(center)
    for var, bit in binding.items():
        lifted[var - 1] = bit
    assert unpack(trail.x, f.num_vars) == tuple(lifted)
    if conflicted:
        return
    assert trail.falsified.bit_count() == unsat_count(sub, center)
    idx = first_unsat_clause(sub, center)
    if idx is None:
        assert trail.falsified == 0
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
        trail = _Trail(f, pack((0, 0, 1)))
        assert trail.x == pack((0, 0, 1)) and binding_of(trail) == {}
        assert trail.falsified.bit_count() == 1
        assert trail.branch_literals() == [1, 2]
        assert trail.bind(2, 1)
        assert trail.x == pack((0, 1, 1)) and trail.falsified == 0

    def test_all_bound_false_clause_conflicts(self):
        f = parse_dimacs("p cnf 3 2\n1 -2 0\n3 0\n")
        trail = _Trail(f, pack((1, 1, 1)))
        assert trail.bind(1, 0)
        assert not trail.bind(2, 1)
        trail.unbind(2)
        trail.unbind(1)
        assert not trail.bind(3, 0)  # a unit clause conflicts at once

    def test_no_flip_bind_can_conflict(self):
        # the center already falsifies the clause; binding keeps the value
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        trail = _Trail(f, pack((0, 0)))
        assert trail.bind(1, 0)
        assert not trail.bind(2, 0)

    def test_tautology_never_falsified(self):
        # bound through both its literals, the tautology neither conflicts nor counts
        f = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
        for center in ((0, 0), (1, 0)):
            trail = _Trail(f, pack(center))
            for bit in (0, 1):
                assert trail.bind(1, bit)
                assert trail.x == pack((bit, 0))
                assert trail.falsified.bit_count() == 1
                assert trail.branch_literals() == [2]
                trail.unbind(1)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_bindings_agree_with_restrict(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            n = rng.randrange(3, 9)
            f = mixed_formula(n, rng.randrange(4, 16), rng)
            center = random_assignment(n, rng)
            trail = _Trail(f, pack(center))
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
            trail = _Trail(f, pack(random_assignment(n, rng)))
            fresh = snapshot(trail)
            bound = rng.sample(range(1, n + 1), rng.randrange(1, n + 1))
            for var in bound:
                before = snapshot(trail)
                ok = trail.bind(var, rng.randrange(2))
                # the binding so far conflicts iff bind answered False
                assert ok == (restrict(f, binding_of(trail)) is not CONFLICT)
                if rng.random() < 0.5:
                    trail.unbind(var)
                    assert snapshot(trail) == before
                    trail.bind(var, rng.randrange(2))
            rng.shuffle(bound)
            for var in bound:
                trail.unbind(var)
            assert snapshot(trail) == fresh

    @pytest.mark.parametrize("seed", range(4))
    def test_probe_and_assign_agree_with_bind(self, seed):
        rng = random.Random(200 + seed)
        for _ in range(30):
            n = rng.randrange(2, 9)
            f = mixed_formula(n, rng.randrange(3, 14), rng)
            trail = _Trail(f, pack(random_assignment(n, rng)))
            for var in rng.sample(range(1, n + 1), rng.randrange(n)):
                if not trail.bind(var, rng.randrange(2)):
                    trail.unbind(var)
            before = snapshot(trail)
            unbound = [v for v in range(1, n + 1) if v not in binding_of(trail)]
            for var in unbound:
                for bit in (0, 1):
                    state = trail.probe(trail.x, trail.free, var, bit)
                    assert snapshot(trail) == before  # probing writes nothing
                    ok = trail.bind(var, bit)
                    assert (state is not None) == ok
                    if ok:
                        assert state == (trail.x, trail.free, trail.falsified)
                    trail.unbind(var)
            binding = tuple((v, rng.randrange(2)) for v in rng.sample(unbound, len(unbound)))
            for var, bit in binding:
                trail.bind(var, bit)
            one_by_one = snapshot(trail)
            rng.shuffle(unbound)
            trail.unbind(*unbound)
            assert snapshot(trail) == before
            trail.assign(binding)
            assert snapshot(trail) == one_by_one
            trail.unbind(*unbound)
            assert snapshot(trail) == before


def descent_roots(rng):
    """(alphabet K, formula, fixed mask, prefix bits) roots: K = 3, 4, random and planted, k = 0..2.

    The prefix holds the top-k variables at bits that empty no clause,
    as the orchestrator's dispatches do.  At n = 14 a center can falsify
    more than t = 3 variable-disjoint clauses, so kpbs_hybrid also takes
    its repair-code jumps.
    """
    shapes = {3: [(9, 45), (14, 56)], 4: [(10, 100), (12, 72)]}
    for K in (3, 4):
        for k in range(3):
            for planted in (False, True):
                n, m = rng.choice(shapes[K])
                f = planted_ksat(n, m, K, rng)[0] if planted else random_ksat(n, m, K, rng)
                kvars = top_k_vars(f, k)
                prefixes = [
                    bits for bits in range(1 << k)
                    if restrict(f, {v: bits >> i & 1 for i, v in enumerate(kvars)}) is not CONFLICT
                ]
                if prefixes:
                    bits = rng.choice(prefixes)
                    px = sum((bits >> i & 1) << (v - 1) for i, v in enumerate(kvars))
                    yield K, f, sum(1 << (v - 1) for v in kvars), px


def run(fn, *args, seed):
    rt = PbsRuntime(seed=(seed,), retries=2)
    model = fn(*args, rt)
    return model, rt.branches, rt.groups_failed, rt.records


class TestDifferential:
    def test_kqcpbs_and_kpbs_hybrid_match_the_reference(self):
        rng = random.Random(7)
        seen = {
            "kq_branches": 0, "hy_branches": 0, "attempts": 0, "models": 0, "runs": 0, "held": 0,
        }
        for K, f, fixed, px in descent_roots(rng):
            def center():
                return pack(random_assignment(f.num_vars, rng)) & ~fixed | px

            for radius in range(1, 6):
                t = descent_t(K, radius)
                code = build_kary_cover(K, t, t // K, seed=radius)
                for r_max in range(4):
                    x = center()
                    if K == 3 and r_max % 2:
                        # a center far from every model makes kpbs_hybrid jump
                        draws = [center() for _ in range(20)]
                        x = max(draws, key=lambda y: len(max_disjoint_unsat(f, f.read(y), fixed)))
                    inst = PbsInstance(f, x, radius, r_max, 0.2, K, fixed)
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
                    seen["held"] += fixed != 0
        # the sample reaches branching, the leaf, both answers and held prefixes
        assert all(seen.values()), seen
        assert seen["models"] < seen["runs"]


class TestHeldPrefix:
    """Reads on the parsed formula with a held prefix against reads on restrict(f, prefix)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_held_prefix_narrows_like_restrict(self, seed):
        rng = random.Random(300 + seed)
        seen = {"conflicts": 0, "narrowed_first": 0, "groups": 0}
        for _ in range(150):
            n = rng.randrange(3, 12)
            f = mixed_formula(n, rng.randrange(3, 4 * n), rng)
            kvars = rng.sample(range(1, n + 1), rng.randrange(n))
            fixed = sum(1 << (v - 1) for v in kvars)
            free = ((1 << n) - 1) ^ fixed
            x = pack(random_assignment(n, rng))
            px = x & fixed
            sub = restrict(f, {v: x >> (v - 1) & 1 for v in kvars})
            # the orchestrator's verdict: falsified whatever the free variables hold
            conflicted = bool(f.read(px) & f.read(px | free))
            assert conflicted == (sub is CONFLICT)
            if conflicted:
                seen["conflicts"] += 1
                continue
            center = unpack(x, n)
            trail = _Trail(f, x, fixed)
            assert trail.falsified.bit_count() == unsat_count(sub, center)
            idx = first_unsat_clause(sub, center)
            if idx is not None:
                assert trail.branch_literals() == list(sub.clauses[idx])
                seen["narrowed_first"] += len(sub.clauses[idx]) < len(f.clauses[
                    (trail.falsified & -trail.falsified).bit_length() - 1
                ])
            group = max_disjoint_unsat(f, f.read(x), fixed)
            narrowed = [
                tuple(lit for lit in f.clauses[i] if free >> (abs(lit) - 1) & 1) for i in group
            ]
            assert narrowed == [sub.clauses[j] for j in ref_disjoint(sub, center)]
            seen["groups"] += len(group) > 1
        assert all(seen.values()), seen
