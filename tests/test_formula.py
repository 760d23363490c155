import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from ballsat import (
    CONFLICT,
    Formula,
    ParseError,
    decompose,
    evaluate,
    first_unsat_clause,
    m_metric,
    max_disjoint_unsat,
    parse_dimacs,
    restrict,
    top_k_vars,
    unsat_count,
)
from ballsat.formula import all_assignments, pack, unpack

from helpers import random_ksat

EXAMPLE = "p cnf 4 3\n1 2 4 0\n2 3 4 0\n-1 2 -4 0\n"


def small_formulas():
    num_vars = st.integers(min_value=1, max_value=6)
    return num_vars.flatmap(
        lambda n: st.lists(
            st.lists(
                st.integers(min_value=1, max_value=n).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=1,
                max_size=4,
                unique=True,
            ).map(tuple),
            min_size=0,
            max_size=8,
        ).map(lambda cls: Formula(n, tuple(cls)))
    )


class TestParse:
    def test_example(self):
        f = parse_dimacs(EXAMPLE)
        assert f.num_vars == 4
        assert f.clauses == ((1, 2, 4), (2, 3, 4), (-1, 2, -4))
        assert f.max_width == 3

    def test_comments_and_blank_lines(self):
        text = "c a comment\n\np cnf 2 1\nc mid comment\n1 -2 0\n\n"
        f = parse_dimacs(text)
        assert f.clauses == ((1, -2),)

    def test_clause_split_across_lines(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_duplicate_literals_dropped(self):
        f = parse_dimacs("p cnf 2 1\n1 1 -2 1 0\n")
        assert f.clauses == ((1, -2),)

    def test_tautology_kept(self):
        f = parse_dimacs("p cnf 2 1\n1 -1 0\n")
        assert f.clauses == ((1, -1),)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("1 2 0\n")

    def test_bad_token(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p cnf 2 1\n1 x 0\n")
        assert err.value.line_no == 2

    def test_satlib_trailer_ends_input(self):
        f = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n\n")
        assert f.clauses == ((1, -2), (2, 3))

    @pytest.mark.parametrize(
        "text,line",
        [("p cnf 3 1\n1 % 0\n", 2), ("p cnf 3 1\n1 2 0\n%0\n", 3), ("p cnf 3 1\n% 1\n", 2)],
    )
    def test_percent_elsewhere_is_bad_token(self, text, line):
        with pytest.raises(ParseError, match="bad token") as err:
            parse_dimacs(text)
        assert err.value.line_no == line

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 3 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_clause_count_mismatch_warns(self):
        with pytest.warns(UserWarning):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_empty_clause_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n0\n")

    @given(small_formulas())
    @settings(max_examples=60, deadline=None)
    def test_dimacs_round_trip(self, f):
        assert parse_dimacs(f.to_dimacs()) == f


class TestValidate:
    def test_zero_variable(self):
        with pytest.raises(ValueError):
            Formula(2, ((0,),)).validate()

    def test_out_of_range_variable(self):
        with pytest.raises(ValueError):
            Formula(2, ((3,),)).validate()

    def test_empty_clause(self):
        with pytest.raises(ValueError):
            Formula(2, ((),)).validate()

    def test_ok(self):
        Formula(2, ((1, -2),)).validate()


class TestEvaluate:
    def test_example_all_points(self):
        f = parse_dimacs(EXAMPLE)
        sats = [a for a in all_assignments(4) if evaluate(f, a)]
        assert (0, 0, 0, 1) in sats
        assert (0, 0, 0, 0) not in sats

    def test_unsat_count_matches_evaluate(self):
        rng = random.Random(0)
        for _ in range(30):
            f = random_ksat(6, 10, 3, rng)
            a = tuple(rng.randrange(2) for _ in range(6))
            direct = sum(
                0 if any((a[abs(l) - 1] == 1) == (l > 0) for l in c) else 1
                for c in f.clauses
            )
            assert unsat_count(f, a) == direct
            assert evaluate(f, a) == (1 if direct == 0 else 0)

    def test_first_unsat_clause(self):
        f = parse_dimacs(EXAMPLE)
        assert first_unsat_clause(f, (0, 0, 0, 0)) == 0
        assert first_unsat_clause(f, (0, 0, 0, 1)) is None


class TestRestrict:
    def test_example_bindings(self):
        f = parse_dimacs(EXAMPLE)
        assert restrict(f, {2: 0}).clauses == ((1, 4), (3, 4), (-1, -4))
        assert restrict(f, {2: 1}).clauses == ()

    def test_conflict(self):
        f = parse_dimacs("p cnf 2 1\n1 0\n")
        assert restrict(f, {1: 0}) is CONFLICT

    def test_keeps_num_vars(self):
        f = parse_dimacs(EXAMPLE)
        assert restrict(f, {2: 0}).num_vars == 4

    def test_empty_binding_identity(self):
        f = parse_dimacs(EXAMPLE)
        assert restrict(f, {}) == f

    @given(small_formulas(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_evaluate_on_extensions(self, f, data):
        n = f.num_vars
        bound = data.draw(
            st.dictionaries(
                st.integers(min_value=1, max_value=n),
                st.integers(min_value=0, max_value=1),
                max_size=n,
            )
        )
        sub = restrict(f, bound)
        for a in all_assignments(n):
            if any(a[v - 1] != bit for v, bit in bound.items()):
                continue
            if sub is CONFLICT:
                assert evaluate(f, a) == 0
            else:
                assert evaluate(sub, a) == evaluate(f, a)


class TestMMetric:
    def test_example_counts(self):
        f = parse_dimacs(EXAMPLE)
        assert [m_metric(f, v) for v in (1, 2, 3, 4)] == [2, 3, 1, 3]

    @given(small_formulas())
    @settings(max_examples=60, deadline=None)
    def test_total_is_total_literal_count(self, f):
        total = sum(m_metric(f, v) for v in range(1, f.num_vars + 1))
        assert total == sum(len(c) for c in f.clauses)

    def test_top_k_order_and_ties(self):
        f = parse_dimacs(EXAMPLE)
        assert top_k_vars(f, 2) == [2, 4]
        assert top_k_vars(f, 4) == [2, 4, 1, 3]
        assert top_k_vars(f, 0) == []

    def test_top_k_tie_breaks_low_index(self):
        f = Formula(3, ((1, 2), (2, 3), (1, 3)))
        assert top_k_vars(f, 3) == [1, 2, 3]


class TestDecompose:
    def test_prefix_order_and_width(self):
        f = parse_dimacs(EXAMPLE)
        entries = decompose(f, 2)
        assert [p for p, _ in entries] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_entries_match_restrict(self):
        f = parse_dimacs(EXAMPLE)
        kvars = top_k_vars(f, 2)
        for prefix, sub in decompose(f, 2):
            expect = restrict(f, dict(zip(kvars, prefix)))
            assert sub == expect or (sub is CONFLICT and expect is CONFLICT)

    def test_k_zero(self):
        f = parse_dimacs(EXAMPLE)
        entries = decompose(f, 0)
        assert len(entries) == 1 and entries[0][0] == () and entries[0][1] == f

    @given(small_formulas(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_partition_of_models(self, f, k):
        k = min(k, f.num_vars)
        kvars = top_k_vars(f, k)
        models = {a for a in all_assignments(f.num_vars) if evaluate(f, a)}
        collected = set()
        for prefix, sub in decompose(f, k):
            if sub is CONFLICT:
                continue
            for a in all_assignments(f.num_vars):
                if all(a[v - 1] == b for v, b in zip(kvars, prefix)) and evaluate(sub, a):
                    collected.add(a)
        assert collected == models


class TestMaxDisjoint:
    def test_greedy_first_clause_in(self):
        f = parse_dimacs("p cnf 9 3\n1 2 3 0\n4 5 6 0\n7 8 9 0\n")
        assert max_disjoint_unsat(f, f.read(0)) == [0, 1, 2]

    def test_overlap_skipped(self):
        f = parse_dimacs("p cnf 4 2\n1 2 0\n2 3 0\n")
        assert max_disjoint_unsat(f, f.read(0)) == [0]

    def test_fixed_variables_do_not_overlap(self):
        # clause 1 shares only x2 with clause 0; with x2 fixed both are picked
        f = parse_dimacs("p cnf 4 2\n1 2 0\n2 3 0\n")
        assert max_disjoint_unsat(f, f.read(0), fixed=0b10) == [0, 1]

    @given(small_formulas())
    @settings(max_examples=60, deadline=None)
    def test_maximal(self, f):
        a = tuple(0 for _ in range(f.num_vars))
        chosen = max_disjoint_unsat(f, f.read(0))
        used = {abs(l) for i in chosen for l in f.clauses[i]}
        for i, clause in enumerate(f.clauses):
            if i in chosen:
                continue
            if any((a[abs(l) - 1] == 1) == (l > 0) for l in clause):
                continue
            assert {abs(l) for l in clause} & used, (
                "disjoint falsified clause left out"
            )


def test_all_assignments_lex():
    got = list(all_assignments(2))
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(list(all_assignments(4))) == 16


def kernel_formula(n, m, rng):
    """m random clauses of width 1-4 over n variables, with tautologies and
    repeated literals; at n = 0 the only clause there is, the empty one."""
    clauses = []
    for _ in range(m):
        if n == 0:
            clauses.append(())
            continue
        clause = [rng.choice((v, -v)) for v in rng.choices(range(1, n + 1), k=rng.randrange(1, 5))]
        kind = rng.random()
        if kind < 0.15:
            clause.append(-clause[0])      # tautology
        elif kind < 0.3:
            clause.append(clause[0])       # repeated literal
        clauses.append(tuple(clause))
    return Formula(n, tuple(clauses))


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 23, 25, 33])
@pytest.mark.parametrize("m", [0, 1, 70, 140])
def test_sat_table_reads_equal_clause_scans(n, m):
    # n crosses the 8-variable chunk edges and the unrolled 24-variable read,
    # m crosses 64-bit words of the clause mask
    rng = random.Random(1000 * n + m)
    f = kernel_formula(n, m, rng)
    assert [len(row) for row in f.sat_table] == [
        1 << min(8, n - lo) for lo in range(0, n, 8)
    ]
    read = f.read
    assert read is f.read  # one reader per formula
    singles = [Formula(n, (clause,)) for clause in f.clauses]
    points = [(0,) * n, (1,) * n] + [tuple(rng.randrange(2) for _ in range(n)) for _ in range(60)]
    for a in points:
        x = pack(a)
        assert x == sum(bit << i for i, bit in enumerate(a)) and unpack(x, n) == a
        unsat = read(x)
        assert unsat == sum(1 << i for i, g in enumerate(singles) if not evaluate(g, a))
        first = (unsat & -unsat).bit_length() - 1 if unsat else None
        assert first == first_unsat_clause(f, a)
        assert unsat.bit_count() == unsat_count(f, a)
        assert (unsat == 0) == (evaluate(f, a) == 1)


def test_a_read_formula_pickles():
    # dispatch messages stay plain data after the reader is cached
    f = parse_dimacs(EXAMPLE)
    unsat = f.read(0)
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g.read(0) == unsat
