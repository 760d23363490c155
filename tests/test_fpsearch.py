import cmath
import math
import random

import numpy as np
import pytest

from ballsat import parse_dimacs
from ballsat.codes import _kary_word
from ballsat.fliptree import marked_fraction, marked_mask
from ballsat.formula import pack
from ballsat.fpsearch import (
    apply_g,
    apply_schedule,
    chebyshev_t,
    make_schedule,
    marked_probability,
    measure,
    prepare,
    sample_sequence,
    search_state,
    success_probability_exact,
    word_cdf,
)
from ballsat.pbs import PbsInstance, PbsRuntime, kqcpbs

from helpers import planted_ksat, random_assignment, random_ksat

SINGLE = parse_dimacs("p cnf 3 1\n1 2 3 0\n")

# three unit clauses pin a block; three width-3 clauses couple it to the rest:
# from the all-zeros center exactly one flip word of length three succeeds
NARROW = parse_dimacs(
    "p cnf 6 6\n-4 0\n-5 0\n-6 0\n1 4 5 0\n2 5 6 0\n3 6 4 0\n"
)


def stepped_probability(lam, epsilon, lambda_min):
    """Marked probability from stepping the 2-vector (unmarked, marked) through the angles."""
    start = np.array([math.sqrt(1.0 - lam), math.sqrt(lam)], dtype=complex)
    state = start.copy()
    for alpha, beta in make_schedule(epsilon, lambda_min).angles:
        state[1] *= cmath.exp(1j * beta)
        overlap = start @ state
        state = -(state - (1.0 - cmath.exp(-1j * alpha)) * overlap * start)
    return float(abs(state[1]) ** 2)


class TestChebyshev:
    def test_integer_orders(self):
        for x in (-0.9, -0.3, 0.2, 0.8):
            assert chebyshev_t(3, x) == pytest.approx(4 * x**3 - 3 * x)
            assert chebyshev_t(0, x) == pytest.approx(1.0)
            assert chebyshev_t(1, x) == pytest.approx(x)

    def test_above_one_uses_cosh_branch(self):
        assert chebyshev_t(2, 1.5) == pytest.approx(2 * 1.5**2 - 1)

    def test_fractional_inverts_integer(self):
        for y in (1.5, 3.0, 10.0):
            for L in (3, 5, 11):
                assert chebyshev_t(L, chebyshev_t(1 / L, y)) == pytest.approx(y)


class TestSchedule:
    @pytest.mark.parametrize(
        "epsilon,lambda_min,expect",
        [(0.2, 1 / 9, 11), (0.5, 1.0, 3), (0.3, 1 / 81, 25)],
    )
    def test_length(self, epsilon, lambda_min, expect):
        s = make_schedule(epsilon, lambda_min)
        assert s.L == expect
        assert s.L % 2 == 1
        assert s.queries == s.L - 1
        assert s.l == (s.L - 1) // 2
        assert len(s.angles) == s.l

    def test_length_is_minimal_odd(self):
        s = make_schedule(0.2, 1 / 9)
        assert s.L >= math.log2(2 / 0.2) / math.sqrt(1 / 9)
        assert s.L - 2 < math.log2(2 / 0.2) / math.sqrt(1 / 9)

    def test_gamma_inverse(self):
        s = make_schedule(0.2, 1 / 9)
        assert s.gamma_inv == pytest.approx(
            math.cosh(math.acosh(1 / 0.2) / s.L)
        )

    def test_angle_ranges(self):
        s = make_schedule(0.1, 1 / 27)
        for alpha, beta in s.angles:
            assert 0.0 < alpha < 2 * math.pi
            assert -2 * math.pi < beta < 0.0

    def test_angle_reflection(self):
        for eps, lam in ((0.1, 1 / 27), (0.3, 1 / 81), (0.5, 1 / 9)):
            s = make_schedule(eps, lam)
            alphas = [a for a, _ in s.angles]
            betas = [b for _, b in s.angles]
            for j in range(s.l):
                assert alphas[j] == pytest.approx(-betas[s.l - 1 - j])

    def test_grover_limit(self):
        s = make_schedule(1 - 1e-14, 1 / 4)
        assert abs(s.angles[0][0] - math.pi) < 1e-6

    def test_cached(self):
        assert make_schedule(0.1, 1 / 27) is make_schedule(0.1, 1 / 27)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            make_schedule(0.0, 0.5)
        with pytest.raises(ValueError):
            make_schedule(0.1, 0.0)

    def test_epsilon_too_small_for_log2(self):
        # 2 / 5e-324 overflows to inf
        with pytest.raises(ValueError, match="too small"):
            make_schedule(5e-324, 0.5)


class TestState:
    def test_prepare_uniform(self):
        state = prepare(SINGLE, (0, 0, 0), 1, 3)
        assert state.size == 3
        np.testing.assert_allclose(np.abs(state.amplitudes), 1 / math.sqrt(3))
        assert state.marked.all()  # every single flip satisfies the clause

    def test_prepare_marks_match_walk(self):
        rng = random.Random(2)
        f = random_ksat(5, 8, 3, rng)
        center = random_assignment(5, rng)
        state = prepare(f, center, 2, 3)
        frac, marked = marked_fraction(f, center, 2, 3)
        assert int(state.marked.sum()) == marked

    def test_apply_g_preserves_norm(self):
        state = prepare(NARROW, (0,) * 6, 3, 3)
        for alpha, beta in ((0.3, -1.2), (2.0, -0.1), (5.9, -5.9)):
            state = apply_g(state, alpha, beta)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_schedule_boosts_unique_marked(self):
        state, _ = search_state(NARROW, (0,) * 6, 3, 3, epsilon=0.1)
        assert int(state.marked.sum()) == 1
        assert marked_probability(state) >= 1 - 0.1**2

    def test_trace_records_steps(self):
        trace = []
        schedule = make_schedule(0.3, 1 / 27)
        state = prepare(NARROW, (0,) * 6, 3, 3)
        apply_schedule(state, schedule, trace)
        assert [step for step, _ in trace] == list(range(1, schedule.l + 1))
        assert all(0.0 <= p <= 1.0 + 1e-12 for _, p in trace)


class TestSampling:
    def test_unique_marked_word_sampled(self):
        state, _ = search_state(NARROW, (0,) * 6, 3, 3, epsilon=0.1)
        rng = np.random.default_rng(0)
        hits = sum(
            sample_sequence(state, rng) == (1, 1, 1) for _ in range(300)
        )
        # per-draw hit probability >= 0.99
        assert hits >= 280

    def test_quantum_kpbs_contract(self):
        # radius 3 = r_max: the descent hands its root to the leaf
        rt = PbsRuntime(seed=(7,), retries=1)
        candidate = kqcpbs(PbsInstance(NARROW, 0, 3, 3, 0.1, 3), rt)
        schedule = make_schedule(0.1, 1 / 27)
        [attempt] = rt.records
        assert attempt.queries == schedule.L - 1
        assert attempt.outcome == "sat"
        assert candidate == pack((1, 1, 1, 0, 0, 0))


class TestExactProbability:
    def test_zero_fraction(self):
        assert success_probability_exact(0.0, 0.1) == 0.0

    def test_full_fraction(self):
        assert success_probability_exact(1.0, 0.1) == pytest.approx(1.0)

    def test_floor_on_small_grid(self):
        for eps in (0.05, 0.1, 0.3):
            lam_min = 1 / 27
            for i in range(1, 28):
                p = success_probability_exact(i * lam_min, eps, lam_min)
                assert p >= 1 - eps**2 - 1e-12

    def test_matches_closed_form(self):
        # 1 - eps^2 * T_L(gamma_inv * sqrt(1 - lam))^2 on the plateau
        eps, lam_min = 0.2, 1 / 9
        s = make_schedule(eps, lam_min)
        for lam in (1 / 9, 0.3, 0.7):
            expect = 1 - eps**2 * chebyshev_t(
                s.L, s.gamma_inv * math.sqrt(1 - lam)
            ) ** 2
            assert success_probability_exact(lam, eps, lam_min) == pytest.approx(
                expect, abs=1e-12
            )

    def test_matches_stepped_two_level_product(self):
        # every M/N of K^r words, K = 3, 4, r <= 3
        for eps in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
            for alphabet in (3, 4):
                for radius in (1, 2, 3):
                    n = alphabet**radius
                    for m in range(n + 1):
                        got = success_probability_exact(m / n, eps, 1 / n)
                        want = stepped_probability(m / n, eps, 1 / n)
                        assert got == pytest.approx(want, abs=1e-13)

    def test_agrees_with_full_simulation(self):
        rng = random.Random(13)
        for _ in range(10):
            f = random_ksat(6, 10, 3, rng)
            center = random_assignment(6, rng)
            radius = rng.randrange(1, 4)
            eps = rng.choice((0.1, 0.3))
            state, _ = search_state(f, center, radius, 3, epsilon=eps)
            lam, _ = marked_fraction(f, center, radius, 3)
            expect = success_probability_exact(lam, eps, 1 / 3**radius)
            assert marked_probability(state) == pytest.approx(expect, abs=1e-9)


def leaf_cases():
    """(formula, center, radius, K, eps) over random and planted K=3,4 instances."""
    rng = random.Random(77)
    cases = []
    for alphabet in (3, 4):
        for planted in (False, True):
            for _ in range(6):
                n = 7
                m = rng.randrange(2 * n, (5 if alphabet == 3 else 10) * n)
                if planted:
                    f, hidden = planted_ksat(n, m, alphabet, rng)
                    center = tuple(b ^ (rng.random() < 0.3) for b in hidden)
                else:
                    f = random_ksat(n, m, alphabet, rng)
                    center = random_assignment(n, rng)
                cases.append((f, center, rng.randrange(4), alphabet, rng.choice((0.1, 0.3))))
    return cases


def two_level_cdf(f, center, radius, alphabet, eps):
    marked = marked_mask(f, pack(center), radius, alphabet)
    return marked, word_cdf(marked, eps, 1 / alphabet**radius)


class TestTwoLevelLeaf:
    @pytest.mark.parametrize("case", leaf_cases())
    def test_distribution_matches_born_probabilities(self, case):
        f, center, radius, alphabet, eps = case
        state, _ = search_state(f, center, radius, alphabet, eps)
        marked, cdf = two_level_cdf(f, center, radius, alphabet, eps)
        np.testing.assert_array_equal(marked, state.marked)
        born = np.abs(state.amplitudes) ** 2
        np.testing.assert_allclose(np.diff(cdf, prepend=0.0), born, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", leaf_cases()[1::2])
    def test_same_draws_as_state_vector(self, case):
        f, center, radius, alphabet, eps = case
        state, _ = search_state(f, center, radius, alphabet, eps)
        _, cdf = two_level_cdf(f, center, radius, alphabet, eps)
        # one batch, as the production leaf draws its retries
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        for index in measure(cdf.tolist(), a.random(1000).tolist()):
            assert _kary_word(index, alphabet, radius) == sample_sequence(state, b)
        assert a.bit_generator.state == b.bit_generator.state

    def test_no_marked_word_is_uniform(self):
        unsat = parse_dimacs("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
        marked, cdf = two_level_cdf(unsat, (0, 0), 2, 3, 0.1)
        assert not marked.any()
        np.testing.assert_allclose(cdf, np.arange(1, 10) / 9, rtol=0, atol=1e-15)
        born = np.abs(search_state(unsat, (0, 0), 2, 3, 0.1)[0].amplitudes) ** 2
        np.testing.assert_allclose(np.diff(cdf, prepend=0.0), born, rtol=0, atol=1e-12)

    def test_all_marked_is_uniform(self):
        marked, cdf = two_level_cdf(SINGLE, (1, 0, 0), 2, 3, 0.1)
        assert marked.all()
        np.testing.assert_allclose(cdf, np.arange(1, 10) / 9, rtol=0, atol=1e-15)

    def test_no_and_every_mark_give_one_uniform_cdf(self):
        # M = 0 and M = N give equal CDFs, with the arithmetic of a fresh build
        none, every = np.zeros(27, dtype=bool), np.ones(27, dtype=bool)
        cdf = word_cdf(none, 0.1, 1 / 27)
        np.testing.assert_array_equal(word_cdf(every, 0.3, 1 / 27), cdf)
        fresh = np.full(27, 1 / 27).cumsum()
        np.testing.assert_array_equal(cdf, fresh / fresh[-1])

    def test_leaf_builds_no_state_vector(self, monkeypatch):
        import ballsat.fpsearch as fps
        import ballsat.pbs as pbs

        def forbidden(*args, **kwargs):
            raise AssertionError("state-vector path called by the production leaf")

        for name in ("prepare", "apply_g", "apply_schedule", "sample_sequence", "search_state"):
            for module in (fps, pbs):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        rt = PbsRuntime(seed=(7,), retries=3)
        assert kqcpbs(PbsInstance(NARROW, 0, 3, 3, 0.1, 3), rt) is not None

    def test_walk_must_agree_with_mark(self, monkeypatch):
        import ballsat.pbs as pbs

        real = pbs.marked_mask
        monkeypatch.setattr(pbs, "marked_mask", lambda *a: ~real(*a))
        rt = PbsRuntime(seed=(7,), retries=1)
        with pytest.raises(RuntimeError, match="disagrees"):
            kqcpbs(PbsInstance(NARROW, 0, 3, 3, 0.1, 3), rt)
