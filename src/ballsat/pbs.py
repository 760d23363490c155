"""Promise-ball solvers.

Given a center assignment and a radius, decide whether a satisfying
assignment lies in the Hamming ball.  The quantum leaf amplifies over
flip words; the classical descent branches on literals of the first
falsified clause; the hybrid recursion steers long jumps through a
K-ary covering code over clause-repair choices.  FALSE returns are
one-sided: each quantum group errs with probability at most eps^(2R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Iterable, Mapping

import numpy as np

from .codes import KaryCoveringCode, _kary_word, build_kary_cover
from .fliptree import marked_mask, walk
from .formula import (
    CONFLICT,
    Assignment,
    Formula,
    evaluate,
    first_unsat_clause,
    max_disjoint_unsat,
    restrict,
    unsat_count,
)
from .fpsearch import make_schedule, measure, word_cdf


@dataclass(frozen=True)
class PbsInstance:
    formula: Formula
    center: Assignment
    radius: int
    r_max: int           # largest radius the quantum leaf may take
    epsilon: float
    alphabet: int        # branching alphabet K; restriction may narrow clauses


@dataclass(frozen=True)
class DescentParams:
    """Hybrid-jump parameters: clause batch size t and its repair code."""

    t: int
    kary_code: KaryCoveringCode

    def __post_init__(self) -> None:
        k = self.kary_code.alphabet
        if self.t % k != 0:
            raise ValueError(f"t={self.t} not a multiple of K={k}")
        if self.kary_code.word_length != self.t or self.kary_code.radius != self.t // k:
            raise ValueError("repair code shape does not match t")
        if self.delta < 1:
            raise ValueError("descent slack below 1")

    @property
    def step(self) -> int:
        return self.t // self.kary_code.alphabet

    @property
    def delta(self) -> int:
        return self.t - 2 * (self.t // self.kary_code.alphabet)


def descent_t(alphabet: int, radius: int) -> int:
    """t = max(K, smallest multiple of K >= floor(log2 log2 max(r, 4)))."""
    ll = math.floor(math.log2(math.log2(max(radius, 4))))
    return max(alphabet, alphabet * math.ceil(ll / alphabet))


def descent_params(alphabet: int, radius: int, seed: int = 0) -> DescentParams:
    t = descent_t(alphabet, radius)
    code = build_kary_cover(alphabet, t, t // alphabet, seed)
    return DescentParams(t, code)


@dataclass(frozen=True)
class QuantumAttempt:
    radius: int
    L: int
    queries: int
    outcome: str   # "sat" | "false"
    attempt: int   # 0-based retry index


@dataclass
class CallLog:
    attempts: list[QuantumAttempt] = field(default_factory=list)
    branches: int = 0
    groups_failed: int = 0   # quantum groups whose every retry missed


@dataclass
class PbsRuntime:
    """Per-dispatch context: randomness, retry budget, metrics."""

    rng: np.random.Generator
    retries: int = 3
    log: CallLog = field(default_factory=CallLog)

    def count_branch(self) -> None:
        self.log.branches += 1


def quantum_kpbs(inst: PbsInstance, rt: PbsRuntime) -> Assignment | None:
    """Quantum leaf: amplify once, measure up to `retries` times, verify.

    The amplified register is two-level: the trie pass marks the M of
    N = K^r words whose walk succeeds, the 2x2 form gives the marked
    probability p, and each retry measures a word from p/M per marked
    and (1-p)/(N-M) per unmarked word.  Retries multiply only the query
    count.  The measured word is walked once more for its candidate,
    which must agree with its mark.
    """
    f, center, radius, k = inst.formula, inst.center, inst.radius, inst.alphabet
    marked = marked_mask(f, center, radius, k)
    schedule = make_schedule(inst.epsilon, 1.0 / k**radius)
    cdf = word_cdf(marked, inst.epsilon, schedule.lambda_min)
    for attempt in range(max(1, rt.retries)):
        index = measure(cdf, rt.rng)
        out = walk(f, center, _kary_word(index, k, radius))
        if out.value != marked[index]:
            raise RuntimeError(f"walk of word {index} disagrees with its trie mark")
        rt.log.attempts.append(
            QuantumAttempt(
                radius,
                schedule.L,
                schedule.queries,
                "sat" if out.value else "false",
                attempt,
            )
        )
        if out.value:
            return out.candidate
    rt.log.groups_failed += 1
    return None


def kqcpbs(inst: PbsInstance, rt: PbsRuntime) -> Assignment | None:
    """Classical descent: branch on literals of the first falsified clause.

    Each branch binds one literal true and recurses at radius - 1 (the
    bound variable leaves the formula, and a ball witness loses one
    disagreement with the center).  At radius <= r_max the quantum leaf
    takes over at radius r_max.  Returned assignments are re-lifted with
    the branch binding and verified before propagating.
    """
    f, center = inst.formula, inst.center
    if evaluate(f, center):
        return center
    if inst.radius <= 0:
        return None
    if inst.radius <= inst.r_max:
        return quantum_kpbs(replace(inst, radius=inst.r_max), rt)
    clause_idx = first_unsat_clause(f, center)
    assert clause_idx is not None
    bindings = ({abs(lit): 1 if lit > 0 else 0} for lit in f.clauses[clause_idx])
    return _descend(inst, rt, bindings, inst.radius - 1)


def lift_and_verify(
    f: Formula, model: Assignment | None, binding: Mapping[int, int]
) -> Assignment | None:
    """Overwrite `model` with `binding` and return it only if it satisfies f."""
    if model is None:
        return None
    lifted = list(model)
    for var, bit in binding.items():
        lifted[var - 1] = bit
    candidate = tuple(lifted)
    return candidate if evaluate(f, candidate) else None


def _descend(
    inst: PbsInstance, rt: PbsRuntime, bindings: Iterable[dict[int, int]], radius: int
) -> Assignment | None:
    """Classical descent into each binding that does not conflict.

    Branches run fewest-falsified-clauses first under the center, ties
    in the order given; each runs kqcpbs at `radius`, and its answer is
    lifted with the binding and verified against the unrestricted formula.
    """
    f, center = inst.formula, inst.center
    branches = []
    for binding in bindings:
        sub = restrict(f, binding)
        if sub is not CONFLICT:
            branches.append((unsat_count(sub, center), binding, sub))
    branches.sort(key=lambda b: b[0])
    for _, binding, sub in branches:
        rt.count_branch()
        got = kqcpbs(replace(inst, formula=sub, radius=radius), rt)
        model = lift_and_verify(f, got, binding)
        if model is not None:
            return model
    return None


def modify_assignment(
    f: Formula, x: Assignment, clause_indices: list[int], word: tuple[int, ...]
) -> Assignment:
    """Flip, in each listed clause, the variable its repair symbol picks.

    Symbols wrap modulo clause width; the clauses must be pairwise
    variable-disjoint so the flips commute.
    """
    if len(clause_indices) != len(word):
        raise ValueError("clause list and repair word differ in length")
    seen: set[int] = set()
    for idx in clause_indices:
        cvars = {abs(lit) for lit in f.clauses[idx]}
        if cvars & seen:
            raise ValueError("clauses share variables")
        seen |= cvars
    bits = list(x)
    for idx, choice in zip(clause_indices, word):
        clause = f.clauses[idx]
        lit = clause[(choice - 1) % len(clause)]
        bits[abs(lit) - 1] ^= 1
    return tuple(bits)


def kpbs_hybrid(
    inst: PbsInstance,
    dp: DescentParams,
    rt: PbsRuntime,
    _depth: int = 0,
    _initial_radius: int | None = None,
) -> Assignment | None:
    """Hybrid descent over a maximal disjoint set G of falsified clauses.

    Small G: enumerate assignments of vbl(G) (every surviving clause the
    center falsifies then has width < K) and run the classical descent.
    Large G: jump the center through the K-ary repair code on the first
    t clauses, shrinking the radius by t/K, so the first radius at or
    below r_max lies within delta of it.
    """
    r0 = inst.radius if _initial_radius is None else _initial_radius
    if _depth > r0:
        raise RuntimeError("descent exceeded initial radius")
    f, center = inst.formula, inst.center
    if evaluate(f, center):
        return center
    if inst.radius <= 0:
        return None
    if inst.radius <= inst.r_max:
        # first time below the cap: radius is in (r_max - step, r_max]
        return quantum_kpbs(inst, rt)
    group = max_disjoint_unsat(f, center)
    if len(group) <= dp.t:
        block_vars = sorted({abs(lit) for i in group for lit in f.clauses[i]})
        bindings = (
            dict(zip(block_vars, bits))
            for bits in product((0, 1), repeat=len(block_vars))
        )
        return _descend(inst, rt, bindings, inst.radius)
    batch = group[: dp.t]
    moves = []
    for ci, word in enumerate(dp.kary_code.codewords):
        moved = modify_assignment(f, center, batch, word)
        moves.append((unsat_count(f, moved), ci, moved))
    moves.sort(key=lambda m: (m[0], m[1]))
    for _, _, moved in moves:
        rt.count_branch()
        got = kpbs_hybrid(
            replace(inst, center=moved, radius=inst.radius - dp.step),
            dp,
            rt,
            _depth + 1,
            r0,
        )
        if got is not None:
            return got
    return None
