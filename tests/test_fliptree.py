import random
from itertools import product

import pytest

from ballsat import CONFLICT, parse_dimacs, restrict
from ballsat.fliptree import _narrowed_flips, marked_fraction, marked_mask, walk
from ballsat.formula import first_unsat_clause, pack
from ballsat.oracle import ball_promise

from helpers import mixed_formula, planted_ksat, random_assignment, random_ksat

SINGLE = parse_dimacs("p cnf 3 1\n1 2 3 0\n")


def reference_walk(f, center, seq, fixed=0, steps=None):
    """The walk with one `_narrowed_flips` call per step, the rule `walk` inlines.

    `steps`, a list if given, gets "narrowed" for each step whose clause held a
    variable of `fixed` and kept another, and "emptied" where the walk stops
    at a clause with none outside `fixed`."""
    x = center
    for choice in seq:
        unsat = f.read(x)
        if not unsat:
            break
        idx = (unsat & -unsat).bit_length() - 1
        flips = _narrowed_flips(f, idx, fixed)
        if steps is not None and f.clause_vars[idx] & fixed:
            steps.append("narrowed" if flips else "emptied")
        if not flips:
            break
        x ^= flips[(choice - 1) % len(flips)]
    return x


class TestWalk:
    def test_single_step_flips_chosen_literal(self):
        end = walk(SINGLE, 0, (2,))
        assert end == pack((0, 1, 0))
        assert not SINGLE.read(end)

    def test_symbol_wraps_modulo_width(self):
        f = parse_dimacs("p cnf 3 2\n1 2 0\n3 0\n")
        # width-2 clause, symbol 3 wraps to position 0 -> literal 1
        assert walk(f, 0, (3,)) == pack((1, 0, 0))

    def test_reflip_leaves_the_set(self):
        f = parse_dimacs("p cnf 3 2\n1 2 3 0\n-2 0\n")
        end = walk(f, 0, (2, 1))
        assert end == 0
        assert f.read(end)

    def test_satisfied_formula_ignores_remaining_symbols(self):
        end = walk(SINGLE, 0, (1, 3, 2))
        assert end == pack((1, 0, 0))
        assert not SINGLE.read(end)

    def test_empty_sequence(self):
        end = walk(SINGLE, pack((1, 0, 0)), ())
        assert not SINGLE.read(end) and end == pack((1, 0, 0))

    def test_flip_set_bounded_by_length(self):
        rng = random.Random(5)
        for _ in range(40):
            f = random_ksat(6, 10, 3, rng)
            center = random_assignment(6, rng)
            r = rng.randrange(4)
            seq = tuple(rng.randrange(1, 4) for _ in range(r))
            end = walk(f, pack(center), seq)
            assert (end ^ pack(center)).bit_count() <= r


class TestInlineNarrowing:
    """`walk` narrows each clause inline; the per-step `_narrowed_flips` walk is its reference."""

    @pytest.mark.parametrize("seed", range(3))
    def test_walk_matches_the_per_step_reference(self, seed):
        # mixed formulas (widths 1-4, tautologies, a repeated literal) and K-SAT;
        # held masks of any density, centers that need not keep them satisfiable
        rng = random.Random(900 + seed)
        steps, stopped = [], 0
        for i in range(400):
            n = rng.randrange(4, 10)
            if i % 2:
                f = mixed_formula(n, rng.randrange(n, 4 * n), rng)
            else:
                f = random_ksat(n, rng.randrange(n, 5 * n), rng.choice((3, 4)), rng)
            center = rng.randrange(1 << n)
            fixed = rng.randrange(1 << n)
            if i % 3:
                fixed &= rng.randrange(1 << n)
            alphabet = rng.choice((3, 4))
            word = tuple(rng.randrange(1, alphabet + 1) for _ in range(rng.randrange(7)))
            before = len(steps)
            want = reference_walk(f, center, word, fixed, steps)
            assert walk(f, center, word, fixed) == want, (f, center, word, fixed)
            stopped += "emptied" in steps[before:]
        # the sample narrows clauses and stops at clauses the held mask empties
        assert steps.count("narrowed") > 200 and stopped > 30, (steps.count("narrowed"), stopped)


class TestMarkedFraction:
    def test_single_clause_all_marked(self):
        assert marked_fraction(SINGLE, (0, 0, 0), 1, 3) == (1.0, 3)

    def test_radius_zero(self):
        frac, marked = marked_fraction(SINGLE, (0, 0, 0), 0, 3)
        assert (frac, marked) == (0.0, 0)
        frac, marked = marked_fraction(SINGLE, (1, 0, 0), 0, 3)
        assert (frac, marked) == (1.0, 1)

    def test_matches_enumeration(self):
        rng = random.Random(9)
        for _ in range(15):
            f = random_ksat(5, 9, 3, rng)
            center = random_assignment(5, rng)
            r = rng.randrange(3)
            frac, marked = marked_fraction(f, center, r, 3)
            direct = sum(
                not f.read(walk(f, pack(center), seq))
                for seq in product((1, 2, 3), repeat=r)
            )
            assert marked == direct
            assert frac == pytest.approx(direct / 3**r)

    def test_space_guard(self):
        with pytest.raises(ValueError):
            marked_fraction(SINGLE, (0, 0, 0), 20, 10)

    def test_promise_equivalence(self):
        # a satisfying point within radius r exists iff some flip word hits one
        rng = random.Random(21)
        for _ in range(40):
            f = random_ksat(6, 14, 3, rng)
            center = random_assignment(6, rng)
            r = rng.randrange(4)
            frac, _ = marked_fraction(f, center, r, 3)
            witness = ball_promise(f, center, r)
            assert (frac > 0) == (witness is not None)


def walk_mask(f, center, radius, alphabet):
    """Reference marking: one walk per word, lexicographic order."""
    return [
        not f.read(walk(f, pack(center), seq))
        for seq in product(range(1, alphabet + 1), repeat=radius)
    ]


class TestMarkedMask:
    @pytest.mark.parametrize("alphabet", [3, 4])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    @pytest.mark.parametrize("planted", [False, True])
    def test_trie_matches_per_word_walks(self, alphabet, radius, planted):
        rng = random.Random(1000 * alphabet + 10 * radius + planted)
        n = 7
        for _ in range(12):
            m = rng.randrange(2 * n, (5 if alphabet == 3 else 10) * n)
            if planted:
                f, hidden = planted_ksat(n, m, alphabet, rng)
                center = list(hidden)
                for var in rng.sample(range(n), radius):
                    center[var] ^= 1
                center = tuple(center)
            else:
                f = random_ksat(n, m, alphabet, rng)
                center = random_assignment(n, rng)
            mask = marked_mask(f, pack(center), radius, alphabet)
            assert mask.dtype == bool and mask.size == alphabet**radius
            assert mask.tolist() == walk_mask(f, center, radius, alphabet)

    @pytest.mark.parametrize("alphabet", [3, 4])
    def test_satisfying_center_marks_everything(self, alphabet):
        f, hidden = planted_ksat(6, 20, alphabet, random.Random(alphabet))
        for radius in range(4):
            assert marked_mask(f, pack(hidden), radius, alphabet).all()

    def test_narrow_and_wide_clauses(self):
        # width 1 and 2 wrap onto repeated literals; width 5 exceeds K = 3
        f = parse_dimacs("p cnf 6 4\n1 2 0\n-1 3 0\n4 0\n-2 -3 5 6 -4 0\n")
        rng = random.Random(4)
        for _ in range(20):
            center = random_assignment(6, rng)
            for radius in range(4):
                mask = marked_mask(f, pack(center), radius, 3)
                assert mask.tolist() == walk_mask(f, center, radius, 3)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            marked_mask(SINGLE, 1 << 3, 1, 3)  # x4 is outside the 3 variables
        with pytest.raises(ValueError):
            marked_mask(SINGLE, 0, -1, 3)


class TestBoundVariables:
    """The leaf under bound variables: fixed-mask walks against walks on restrict(f, binding)."""

    @pytest.mark.parametrize("alphabet", [3, 4])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_bound_walks_equal_restricted_walks(self, alphabet, mixed):
        # mixed: widths 1-4, tautologies and a repeated literal
        rng = random.Random(50 + 2 * alphabet + mixed)
        narrowed_first = 0
        for _ in range(40):
            n = rng.randrange(5, 10)
            m = rng.randrange(2 * n, 5 * n)
            f = mixed_formula(n, m, rng) if mixed else random_ksat(n, m, alphabet, rng)
            center = list(random_assignment(n, rng))
            binding = {}
            for var in rng.sample(range(1, n + 1), rng.randrange(1, n - 1)):
                bit = rng.randrange(2)
                if restrict(f, {**binding, var: bit}) is not CONFLICT:
                    binding[var] = center[var - 1] = bit
            center = tuple(center)
            sub = restrict(f, binding)
            fixed = sum(1 << (v - 1) for v in binding)
            idx = first_unsat_clause(sub, center)
            narrowed_first += idx is not None and len(sub.clauses[idx]) < alphabet
            x = pack(center)
            for radius in range(4):
                mask = marked_mask(f, x, radius, alphabet, fixed)
                assert mask.tolist() == marked_mask(sub, x, radius, alphabet).tolist()
            for seq in product(range(1, alphabet + 1), repeat=3):
                assert walk(f, x, seq, fixed) == walk(sub, x, seq)
        # the first falsified clause often lost bound literals, so symbols wrap
        assert narrowed_first >= 10, narrowed_first
