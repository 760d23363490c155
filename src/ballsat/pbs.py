"""Promise-ball solvers.

Given a center assignment and a radius, decide whether a satisfying
assignment lies in the Hamming ball.  The quantum leaf amplifies over
flip words; the classical descent branches on literals of the first
falsified clause; the hybrid recursion steers long jumps through a
K-ary covering code over clause-repair choices.  FALSE returns are
one-sided: each quantum group errs with probability at most eps^(2R).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .codes import KaryCoveringCode, _kary_word
from .fliptree import marked_mask, walk
# first_unsat_clause is unused here; perfbench's tracer test expects to patch it in this namespace
from .formula import (  # noqa: F401
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


def descent_t(alphabet: int, radius: int) -> int:
    """t = max(K, smallest multiple of K >= floor(log2 log2 max(r, 4)))."""
    ll = math.floor(math.log2(math.log2(max(radius, 4))))
    return max(alphabet, alphabet * math.ceil(ll / alphabet))


@dataclass(frozen=True)
class QuantumCallRecord:
    """One measurement of an amplified leaf call, as written to --stats."""

    prefix: str
    codeword: int
    radius: int
    L: int
    queries: int
    outcome: str   # "sat" | "false"
    attempt: int   # 0-based retry index


@dataclass
class PbsRuntime:
    """Per-dispatch context and log, plain data only.

    The context is the seed of the leaf's randomness, the retry budget
    and the (prefix, codeword) the dispatch serves; the log is its leaf
    records, branch count and failed quantum groups.  The Generator is
    built from the seed on the first draw, so a dispatch whose descent
    never reaches the leaf builds none.
    """

    seed: tuple[int, ...]
    retries: int = 3
    prefix: str = ""
    codeword: int = 0
    records: list[QuantumCallRecord] = field(default_factory=list)
    branches: int = 0
    groups_failed: int = 0   # quantum groups whose every retry missed

    @functools.cached_property
    def rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed))


def quantum_kpbs(inst: PbsInstance, rt: PbsRuntime) -> Assignment | None:
    """Quantum leaf: amplify once, measure up to `retries` times, verify.

    The amplified register is two-level: the trie pass marks the M of
    N = K^r words whose walk succeeds, the closed form gives the marked
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
        rt.records.append(
            QuantumCallRecord(
                rt.prefix,
                rt.codeword,
                radius,
                schedule.L,
                schedule.queries,
                "sat" if out.value else "false",
                attempt,
            )
        )
        if out.value:
            return out.candidate
    rt.groups_failed += 1
    return None


class _Trail:
    """Bindings over a fixed center, kept as per-clause counters.

    `val` is the center with the bound variables overwritten, `true[i]`
    counts the literals of clause i true under `val`, `free[i]` those
    still unbound, and `unsat` the clauses with no true literal.  The
    center evaluated on restrict(f, bound) is f evaluated on `val`: its
    first falsified clause is true.index(0), narrowed to its unbound
    literals, and its falsified-clause count is `unsat`.  Variables are
    bound one at a time and must be unbound before they are bound again.
    """

    __slots__ = ("formula", "center", "val", "true", "free", "unsat", "bound", "occ")

    def __init__(self, f: Formula, center: Assignment):
        self.formula, self.center = f, center
        self.val = list(center)
        self.occ = f.occurrences
        self.true = [0] * len(f.clauses)
        for var, (pos, neg) in enumerate(self.occ[1:], start=1):
            for idx in pos if center[var - 1] else neg:
                self.true[idx] += 1
        self.free = [len(clause) for clause in f.clauses]
        self.unsat = self.true.count(0)
        self.bound: dict[int, int] = {}

    def bind(self, var: int, bit: int) -> bool:
        """Bind var; False iff a clause now has every literal bound and false."""
        self.bound[var] = bit
        return self._set(var, bit, -1)

    def unbind(self, var: int) -> None:
        """Undo bind(var, ...): counters and `val` return to what they were."""
        del self.bound[var]
        self._set(var, self.center[var - 1], 1)

    def _set(self, var: int, bit: int, step: int) -> bool:
        """Give var the value bit and add step to its clauses' free counts.

        Returns False iff one of those clauses is left with neither a
        free nor a true literal.  Literals turning true are counted
        before those turning false, so a clause holding both v and -v
        never passes through zero.
        """
        pos, neg = self.occ[var]
        true, free = self.true, self.free
        now_true, now_false = (pos, neg) if bit else (neg, pos)
        ok = True
        if self.val[var - 1] == bit:
            for idx in now_true:
                free[idx] += step
            for idx in now_false:
                free[idx] += step
                if not (free[idx] or true[idx]):
                    ok = False
            return ok
        self.val[var - 1] = bit
        unsat = self.unsat
        for idx in now_true:
            free[idx] += step
            if not true[idx]:
                unsat -= 1
            true[idx] += 1
        for idx in now_false:
            free[idx] += step
            true[idx] -= 1
            if not true[idx]:
                unsat += 1
                if not free[idx]:
                    ok = False
        self.unsat = unsat
        return ok

    def branch_literals(self) -> list[int]:
        """Unbound literals of the first falsified clause, in clause order."""
        clause = self.formula.clauses[self.true.index(0)]
        return [lit for lit in clause if abs(lit) not in self.bound]


def kqcpbs(inst: PbsInstance, rt: PbsRuntime) -> Assignment | None:
    """Classical descent: branch on literals of the first falsified clause.

    Each branch binds one literal true and recurses at radius - 1 (the
    bound variable leaves the formula, and a ball witness loses one
    disagreement with the center).  At radius <= r_max the quantum leaf
    takes over at radius r_max.  Bindings live on one trail for the
    whole descent, and every assignment it returns is total: the trail's
    assignment, or a leaf model started from it, verified against
    inst.formula.
    """
    return _classical(_Trail(inst.formula, inst.center), inst, rt, inst.radius)


def _classical(
    trail: _Trail, inst: PbsInstance, rt: PbsRuntime, radius: int
) -> Assignment | None:
    """kqcpbs on restrict(inst.formula, trail.bound), read off the trail.

    Branches run fewest-falsified-clauses first, ties in clause order;
    a branch whose binding empties a clause is skipped.  The leaf gets
    the restricted formula, built once, centered on the trail's
    assignment: no bound variable occurs in it, so its marks and draws
    are those of the original center, and its model keeps the binding.
    """
    if not trail.unsat:
        model = tuple(trail.val)
        return model if evaluate(inst.formula, model) else None
    if radius <= 0:
        return None
    if radius <= inst.r_max:
        sub = restrict(inst.formula, trail.bound)
        leaf = replace(inst, formula=sub, center=tuple(trail.val), radius=inst.r_max)
        got = quantum_kpbs(leaf, rt)
        return got if got is not None and evaluate(inst.formula, got) else None
    branches = []
    for lit in trail.branch_literals():
        var, bit = abs(lit), 1 if lit > 0 else 0
        if trail.bind(var, bit):
            branches.append((trail.unsat, ((var, bit),)))
        trail.unbind(var)
    return _run_branches(trail, inst, rt, branches, radius - 1)


def _run_branches(
    trail: _Trail,
    inst: PbsInstance,
    rt: PbsRuntime,
    branches: list[tuple[int, tuple[tuple[int, int], ...]]],
    radius: int,
) -> Assignment | None:
    """Descend into (score, binding) branches, lowest score first, ties in order."""
    branches.sort(key=lambda b: b[0])
    for _, binding in branches:
        rt.branches += 1
        for var, bit in binding:
            trail.bind(var, bit)
        model = _classical(trail, inst, rt, radius)
        for var, _ in binding:
            trail.unbind(var)
        if model is not None:
            return model
    return None


def _block_points(
    trail: _Trail, block_vars: list[int]
) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """(falsified count, binding) of every conflict-free assignment of block_vars.

    Depth first, one variable per level, 0 before 1: itertools.product
    order.  A conflicting prefix is pruned, since every extension of it
    conflicts too.
    """
    points: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    bits: list[int] = []

    def visit(depth: int) -> None:
        if depth == len(block_vars):
            points.append((trail.unsat, tuple(zip(block_vars, bits))))
            return
        var = block_vars[depth]
        for bit in (0, 1):
            if trail.bind(var, bit):
                bits.append(bit)
                visit(depth + 1)
                bits.pop()
            trail.unbind(var)

    visit(0)
    return points


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
    inst: PbsInstance, code: KaryCoveringCode, rt: PbsRuntime
) -> Assignment | None:
    """Hybrid descent over a maximal disjoint set G of falsified clauses.

    The repair code over {1..K}^t at radius t/K is the only parameter.
    Small G (at most t clauses): enumerate assignments of vbl(G) (every
    surviving clause the center falsifies then has width < K) and run
    the classical descent.  Large G: jump the center through the code's
    words on the first t clauses, shrinking the radius by t/K, so the
    first radius at or below r_max lies within t/K of it.
    """
    f, center, t = inst.formula, inst.center, code.word_length
    if evaluate(f, center):
        return center
    if inst.radius <= 0:
        return None
    if inst.radius <= inst.r_max:
        # first time below the cap: radius is in (r_max - t/K, r_max]
        return quantum_kpbs(inst, rt)
    group = max_disjoint_unsat(f, center)
    if len(group) <= t:
        block_vars = sorted({abs(lit) for i in group for lit in f.clauses[i]})
        trail = _Trail(f, center)
        return _run_branches(trail, inst, rt, _block_points(trail, block_vars), inst.radius)
    batch = group[:t]
    moves = []
    for ci, word in enumerate(code.codewords):
        moved = modify_assignment(f, center, batch, word)
        moves.append((unsat_count(f, moved), ci, moved))
    moves.sort(key=lambda m: (m[0], m[1]))
    for _, _, moved in moves:
        rt.branches += 1
        got = kpbs_hybrid(replace(inst, center=moved, radius=inst.radius - code.radius), code, rt)
        if got is not None:
            return got
    return None
