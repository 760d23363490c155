"""Fixed-point amplitude amplification over flip words.

The register is the flip-word space {1..K}^r; a word is "marked" when
its walk ends on a satisfying assignment.  The iterate alternates a
phase on marked words with a phase about the uniform start state, with
angles from the fractional-order Chebyshev construction, so the success
probability stays above 1 - eps^2 once the marked fraction reaches
lambda_min = K^-r.

The iterate only ever mixes two vectors, the uniform superpositions
over marked and unmarked words, so the production leaf is two-level:
`success_probability_exact` gives the marked probability p in closed
form, every marked word has probability p/M and every unmarked one
(1-p)/(N-M), and `word_cdf` and `measure` sample from that.  The full state
vector (`prepare`, `apply_g`, `apply_schedule`, `sample_sequence`,
`search_state`) is kept as the exact reference the tests check it against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codes import _kary_word
from .fliptree import FlipSequence, marked_mask
from .formula import Assignment, Formula, pack

_NORM_TOL = 1e-9


def chebyshev_t(order: float, x: float) -> float:
    """First-kind Chebyshev value T_order(x), fractional orders allowed.

    Uses the trigonometric form on [-1, 1] and the hyperbolic branch for
    x > 1; x < -1 is rejected (fractional orders would leave the reals).
    """
    if abs(x) <= 1.0:
        return math.cos(order * math.acos(x))
    if x > 1.0:
        return math.cosh(order * math.acosh(x))
    raise ValueError("x < -1 not supported at fractional order")


@dataclass(frozen=True)
class SearchSchedule:
    epsilon: float
    lambda_min: float
    L: int
    angles: tuple[tuple[float, float], ...]  # (alpha_j, beta_j), j = 1..l
    gamma_inv: float

    @property
    def l(self) -> int:
        return (self.L - 1) // 2

    @property
    def queries(self) -> int:
        return self.L - 1


@lru_cache(maxsize=256)
def make_schedule(epsilon: float, lambda_min: float) -> SearchSchedule:
    """Angle schedule for tolerance epsilon and marked-fraction floor lambda_min.

    Cached: a solve asks for the same few (epsilon, K^-r) pairs at every leaf.

    L is the smallest odd integer >= log2(2/eps) / sqrt(lambda_min);
    gamma^-1 = T_{1/L}(1/eps); alpha_j = 2*arccot(tan(2*pi*j/L) *
    sqrt(1 - gamma^2)) taken in (0, 2*pi); beta_j = -alpha_{l-j+1}.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon={epsilon} outside (0, 1)")
    if not 0.0 < lambda_min <= 1.0:
        raise ValueError(f"lambda_min={lambda_min} outside (0, 1]")
    bound = math.log2(2.0 / epsilon) / math.sqrt(lambda_min)
    if not math.isfinite(bound):
        raise ValueError(f"epsilon={epsilon} too small: log2(2/epsilon) overflows")
    L = math.ceil(bound)
    if L % 2 == 0:
        L += 1
    half = (L - 1) // 2
    gamma_inv = chebyshev_t(1.0 / L, 1.0 / epsilon)
    root = math.sqrt(max(0.0, 1.0 - 1.0 / gamma_inv**2))
    alphas = [
        2.0 * math.atan2(1.0, math.tan(2.0 * math.pi * j / L) * root)
        for j in range(1, half + 1)
    ]
    angles = tuple((alphas[j], -alphas[half - 1 - j]) for j in range(half))
    return SearchSchedule(epsilon, lambda_min, L, angles, gamma_inv)


@dataclass(frozen=True)
class FlipState:
    """State vector over flip words, with the marked-word mask."""

    formula: Formula
    center: Assignment
    radius: int
    alphabet: int
    amplitudes: np.ndarray
    marked: np.ndarray

    @property
    def size(self) -> int:
        return len(self.amplitudes)


def prepare(f: Formula, center: Assignment, radius: int, alphabet: int) -> FlipState:
    """Uniform superposition over flip words, marking satisfying walks."""
    marked = marked_mask(f, pack(center), radius, alphabet)
    amps = np.full(marked.size, 1.0 / math.sqrt(marked.size), dtype=complex)
    return FlipState(f, center, radius, alphabet, amps, marked)


def apply_g(state: FlipState, alpha: float, beta: float) -> FlipState:
    """One amplification step: marked phase, uniform-state phase, global sign.

    Marked amplitudes pick up e^{i*beta}; the projector onto the uniform
    start state applies I - (1 - e^{-i*alpha})|S><S|.  The conjugate
    phase on the |S> side is what keeps the fixed-point success floor at
    1 - eps^2 under the schedule's angle convention.
    """
    amps = state.amplitudes.copy()
    amps[state.marked] *= cmath.exp(1j * beta)
    mean = amps.mean()
    amps -= (1.0 - cmath.exp(-1j * alpha)) * mean
    np.negative(amps, out=amps)
    norm = float(np.vdot(amps, amps).real)
    if abs(norm - 1.0) > _NORM_TOL:
        raise RuntimeError(f"norm drifted to {norm}")
    return FlipState(
        state.formula, state.center, state.radius, state.alphabet, amps, state.marked
    )


def apply_schedule(
    state: FlipState,
    schedule: SearchSchedule,
    trace: list[tuple[int, float]] | None = None,
) -> FlipState:
    """Apply all l steps, j = 1 first; optionally trace marked probability."""
    for step, (alpha, beta) in enumerate(schedule.angles, start=1):
        state = apply_g(state, alpha, beta)
        if trace is not None:
            trace.append((step, marked_probability(state)))
    return state


def marked_probability(state: FlipState) -> float:
    amps = state.amplitudes[state.marked]
    return float(np.vdot(amps, amps).real)


def search_state(
    f: Formula, center: Assignment, radius: int, alphabet: int, epsilon: float
) -> tuple[FlipState, SearchSchedule]:
    """Prepared-and-amplified state with the schedule tuned to lambda_min = K^-r."""
    schedule = make_schedule(epsilon, 1.0 / alphabet**radius)
    state = prepare(f, center, radius, alphabet)
    return apply_schedule(state, schedule), schedule


def sample_sequence(state: FlipState, rng: np.random.Generator) -> FlipSequence:
    """Measure the state vector: one flip word by Born probabilities."""
    probs = np.abs(state.amplitudes) ** 2
    probs /= probs.sum()
    index = int(rng.choice(state.size, p=probs))
    return _kary_word(index, state.alphabet, state.radius)


def success_probability_exact(
    lam: float, epsilon: float, lambda_min: float | None = None
) -> float:
    """Exact success probability 1 - eps^2 * T_L(gamma^-1 * sqrt(1 - lam))^2.

    The closed form of Yoder, Low and Chuang (PRL 113, 210501, 2014) for
    the schedule tuned to lambda_min (defaulting to lam itself); it equals
    the marked probability of the two-level (and the full) state.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda={lam} outside [0, 1]")
    if lam == 0.0:
        return 0.0
    schedule = make_schedule(epsilon, lambda_min if lambda_min is not None else lam)
    miss = epsilon * chebyshev_t(schedule.L, schedule.gamma_inv * math.sqrt(1.0 - lam))
    return 1.0 - miss * miss


def word_cdf(marked: np.ndarray, epsilon: float, lambda_min: float) -> np.ndarray:
    """Normalised cumulative measurement probabilities of the amplified register.

    With M of N words marked, the closed form gives the marked probability
    p; each marked word gets p/M and each unmarked word (1-p)/(N-M).
    With M = 0 or M = N the distribution is uniform.  The arithmetic
    after the per-word probabilities is that of `Generator.choice`, so
    `measure` draws the word `sample_sequence` would draw from the state
    vector.
    """
    n = marked.size
    m = int(np.count_nonzero(marked))
    if m in (0, n):
        probs = np.full(n, 1.0 / n)
    else:
        p = success_probability_exact(m / n, epsilon, lambda_min)
        probs = np.where(marked, p / m, (1.0 - p) / (n - m))
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def measure(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Index of one measured word: one uniform draw located in the CDF."""
    return int(cdf.searchsorted(rng.random(), side="right"))
