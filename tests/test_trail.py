"""The descent's (x, free, falsified) states against restrict-based evaluation.

Unit tests build states with `_state`, binding one variable at a time,
and check each against `restrict` followed by
`first_unsat_clause`/`unsat_count`, with and without a held prefix;
differential tests run the production `kqcpbs`, classical and hybrid,
beside the restrict-based tuple reference in `reference_descent.py`.
"""

import random

import pytest

from ballsat import CONFLICT, parse_dimacs
from ballsat.fliptree import _narrowed_flips, marked_mask, walk
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
    _state,
    kqcpbs,
    modify_assignment,
)

from helpers import mixed_formula, planted_ksat, random_assignment, random_ksat
from reference_descent import ref_disjoint, ref_kqcpbs


def bound(x, free, var, bit):
    """(x, free) once var is bound to bit."""
    b = 1 << (var - 1)
    return (x | b if bit else x & ~b), free & ~b


def first_flips(f, state):
    """The walk's flips at a state: the narrowed bits of its first falsified clause."""
    _, free, falsified = state
    return _narrowed_flips(f, (falsified & -falsified).bit_length() - 1, ~free)


def bits_of(clause):
    """The clause's variable bits, each once, in order of first occurrence."""
    return list(dict.fromkeys(1 << (abs(lit) - 1) for lit in clause))


def binding_of(n, x, free):
    """The binding (x, free) holds: every variable outside `free` at its value in x."""
    return {v: x >> (v - 1) & 1 for v in range(1, n + 1) if not free >> (v - 1) & 1}


def check_against_restrict(f, x, free):
    """_state(x, free) against restrict(f, binding); returns whether the binding conflicts."""
    state = _state(f.read, x, free)
    binding = binding_of(f.num_vars, x, free)
    sub = restrict(f, binding)
    assert (state is None) == (sub is CONFLICT)
    if state is None:
        return True
    assert state == (x, free, f.read(x))
    center = unpack(x, f.num_vars)
    assert state[2].bit_count() == unsat_count(sub, center)
    idx = first_unsat_clause(sub, center)
    if idx is None:
        assert state[2] == 0
        return False
    assert first_flips(f, state) == bits_of(sub.clauses[idx])
    # each flip binds its literal true: a branch state is the restriction by one more literal;
    # a falsified clause holds no literal and its negation, so its distinct
    # literals pair with its flips
    for b, lit in zip(first_flips(f, state), dict.fromkeys(sub.clauses[idx])):
        child = restrict(f, {**binding, abs(lit): int(lit > 0)})
        assert (_state(f.read, x ^ b, free ^ b) is None) == (child is CONFLICT)
    return False


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
    """Chains of _state calls, one binding at a time."""

    def test_fresh_trail_reads_the_center(self):
        f = parse_dimacs("p cnf 3 3\n1 2 0\n-1 3 0\n2 -2 0\n")
        state = _state(f.read, pack((0, 0, 1)), 0b111)
        assert state[:2] == (pack((0, 0, 1)), 0b111)
        assert state[2].bit_count() == 1
        assert first_flips(f, state) == bits_of((1, 2))
        assert _state(f.read, *bound(*state[:2], 2, 1)) == (pack((0, 1, 1)), 0b101, 0)

    def test_all_bound_false_clause_conflicts(self):
        f = parse_dimacs("p cnf 3 2\n1 -2 0\n3 0\n")
        root = pack((1, 1, 1)), 0b111
        x, free = bound(*root, 1, 0)
        assert _state(f.read, x, free) is not None
        assert _state(f.read, *bound(x, free, 2, 1)) is None
        assert _state(f.read, *bound(*root, 3, 0)) is None  # a unit clause conflicts at once

    def test_no_flip_bind_can_conflict(self):
        # the center already falsifies the clause; binding keeps the value
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        x, free = bound(pack((0, 0)), 0b11, 1, 0)
        assert _state(f.read, x, free) is not None
        assert _state(f.read, *bound(x, free, 2, 0)) is None

    def test_tautology_never_falsified(self):
        # bound through both its literals, the tautology neither conflicts nor counts
        f = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
        for center in ((0, 0), (1, 0)):
            for bit in (0, 1):
                state = _state(f.read, *bound(pack(center), 0b11, 1, bit))
                assert state[0] == pack((bit, 0))
                assert state[2].bit_count() == 1
                assert first_flips(f, state) == bits_of((2,))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_bindings_agree_with_restrict(self, seed):
        rng = random.Random(seed)
        seen = {"conflicts": 0, "branches": 0}
        for _ in range(30):
            n = rng.randrange(3, 9)
            f = mixed_formula(n, rng.randrange(4, 16), rng)
            x, free = pack(random_assignment(n, rng)), (1 << n) - 1
            assert not check_against_restrict(f, x, free)
            conflicted = False
            for var in rng.sample(range(1, n + 1), rng.randrange(n + 1)):
                x, free = bound(x, free, var, rng.randrange(2))
                now = check_against_restrict(f, x, free)
                # a binding that empties a clause stays conflicting as it grows
                assert now or not conflicted
                conflicted = now
                seen["conflicts"] += now
                seen["branches"] += not now and f.read(x) != 0
        assert all(seen.values()), seen


def descent_roots(rng):
    """(alphabet K, formula, fixed mask, prefix bits) roots: K = 3, 4, random and planted, k = 0..2.

    The prefix holds the top-k variables at bits that empty no clause,
    as the orchestrator's dispatches do.  At n = 14 a center can falsify
    more variable-disjoint clauses than a small radius admits, so the
    descent also cuts nodes.
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
    def test_kqcpbs_matches_the_reference(self):
        rng = random.Random(7)
        seen = {"branches": 0, "attempts": 0, "models": 0, "runs": 0, "held": 0}
        for K, f, fixed, px in descent_roots(rng):
            def center():
                return pack(random_assignment(f.num_vars, rng)) & ~fixed | px

            for radius in range(1, 6):
                for r_max in range(4):
                    x = center()
                    if K == 3 and r_max % 2:
                        # a center far from every model, whose disjoint group the radius may cut
                        draws = [center() for _ in range(20)]
                        x = max(draws, key=lambda y: len(max_disjoint_unsat(f, f.read(y), fixed)))
                    inst = PbsInstance(f, x, radius, r_max, 0.2, K, fixed)
                    seed = rng.randrange(2**32)
                    got = run(kqcpbs, inst, seed=seed)
                    assert got == run(ref_kqcpbs, inst, seed=seed)
                    seen["branches"] += got[1]
                    seen["attempts"] += len(got[3])
                    seen["models"] += got[0] is not None
                    seen["runs"] += 1
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
            state = _state(f.read, x, free)
            assert (state is None) == conflicted
            if conflicted:
                seen["conflicts"] += 1
                continue
            center = unpack(x, n)
            assert state == (x, free, f.read(x))
            assert state[2].bit_count() == unsat_count(sub, center)
            idx = first_unsat_clause(sub, center)
            if idx is not None:
                assert first_flips(f, state) == bits_of(sub.clauses[idx])
                seen["narrowed_first"] += len(sub.clauses[idx]) < len(f.clauses[
                    (state[2] & -state[2]).bit_length() - 1
                ])
            group = max_disjoint_unsat(f, f.read(x), fixed)
            narrowed = [
                tuple(lit for lit in f.clauses[i] if free >> (abs(lit) - 1) & 1) for i in group
            ]
            assert narrowed == [sub.clauses[j] for j in ref_disjoint(sub, center)]
            seen["groups"] += len(group) > 1
        assert all(seen.values()), seen


def searches_find_nothing(inst):
    """kqcpbs returns None with no branch and no leaf record."""
    rt = PbsRuntime(seed=(0,))
    return kqcpbs(inst, rt) is None and not rt.branches and not rt.records


class TestHeldConflict:
    """A held mask that empties a falsified clause is restrict's CONFLICT at every layer."""

    def test_emptied_unit_clause(self):
        f = parse_dimacs("p cnf 3 2\n1 0\n2 3 0\n")
        assert restrict(f, {1: 0}) is CONFLICT
        assert walk(f, 0, (1, 2, 3), fixed=0b1) == 0
        assert not marked_mask(f, 0, 2, 3, fixed=0b1).any()
        assert searches_find_nothing(PbsInstance(f, 0, 2, 2, 0.1, 3, 0b1))
        with pytest.raises(ValueError, match="clause 0 "):
            modify_assignment(f, 0, [0], (1,), fixed=0b1)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_conflicts_agree_with_restrict(self, seed):
        rng = random.Random(900 + seed)
        seen = {"conflicts": 0, "first_emptied": 0}
        for _ in range(150):
            n = rng.randrange(3, 14)
            f = mixed_formula(n, rng.randrange(n, 4 * n), rng)
            fixed = sum(1 << (v - 1) for v in rng.sample(range(1, n + 1), rng.randrange(1, n)))
            x = pack(random_assignment(n, rng))
            if restrict(f, binding_of(n, x, ~fixed)) is not CONFLICT:
                continue
            seen["conflicts"] += 1
            falsified = f.read(x)
            emptied = [i for i in range(len(f.clauses)) if falsified >> i & 1
                       and not f.clause_vars[i] & ~fixed]
            seen["first_emptied"] += (falsified & -falsified).bit_length() - 1 in emptied
            radius = rng.randrange(1, 5)
            word = tuple(rng.randrange(1, 4) for _ in range(radius))
            end = walk(f, x, word, fixed)
            assert f.read(end) and end & fixed == x & fixed
            assert not marked_mask(f, x, radius, 3, fixed).any()
            with pytest.raises(ValueError, match=f"clause {emptied[0]} "):
                modify_assignment(f, x, [emptied[0]], (1,), fixed)
            # r_max = radius would hand the root to the leaf
            for r_max in (rng.randrange(radius), radius):
                inst = PbsInstance(f, x, radius, r_max, 0.2, 3, fixed)
                assert searches_find_nothing(inst)
        # the sample holds conflicts the walk meets first
        assert all(seen.values()), seen
