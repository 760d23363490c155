"""Promise-ball solvers.

Given a packed center assignment (x_v at bit v - 1) and a radius,
decide whether a satisfying assignment lies in the Hamming ball.  The
center holds the variables of the `fixed` mask at their prefix values;
the search never flips them and reads each clause narrowed to its
other variables: the search on restrict(f, binding of fixed).  The
quantum leaf amplifies over flip words; the classical descent branches
on literals of the first falsified clause; the hybrid recursion steers
long jumps through a K-ary covering code over clause-repair choices.
FALSE returns are one-sided: each quantum group errs with probability
at most eps^(2R).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .codes import KaryCoveringCode, _kary_word
from .fliptree import marked_mask, walk
# first_unsat_clause is unused here; perfbench's tracer test expects to patch it in this namespace
from .formula import Formula, first_unsat_clause, max_disjoint_unsat  # noqa: F401
from .fpsearch import make_schedule, measure, word_cdf


@dataclass(frozen=True)
class PbsInstance:
    formula: Formula
    center: int          # packed assignment, x_v at bit v - 1
    radius: int
    r_max: int           # largest radius the quantum leaf may take
    epsilon: float
    alphabet: int        # branching alphabet K; narrowing may shorten clauses
    fixed: int = 0       # mask of the variables the center holds; never flipped


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


def quantum_kpbs(inst: PbsInstance, rt: PbsRuntime) -> int | None:
    """Quantum leaf: amplify once, measure up to `retries` times, verify.

    The amplified register is two-level: the trie pass marks the M of
    N = K^r words whose walk succeeds, the closed form gives the marked
    probability p, and each retry measures a word from p/M per marked
    and (1-p)/(N-M) per unmarked word.  Retries multiply only the query
    count.  The measured word is walked once more for its candidate,
    which must agree with its mark.  Variables in `inst.fixed` never flip.
    """
    f, center, radius, k = inst.formula, inst.center, inst.radius, inst.alphabet
    marked = marked_mask(f, center, radius, k, inst.fixed)
    schedule = make_schedule(inst.epsilon, 1.0 / k**radius)
    cdf = word_cdf(marked, inst.epsilon, schedule.lambda_min)
    for attempt in range(max(1, rt.retries)):
        index = measure(cdf, rt.rng)
        out = walk(f, center, _kary_word(index, k, radius), inst.fixed)
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
    """Bindings over a fixed center, held as packed ints (x_v at bit v - 1).

    `x` is the center with the bound variables overwritten, `free` masks
    the unbound variables (the instance's fixed ones start bound) and
    `falsified` the clauses x falsifies.  The center evaluated on
    restrict(f, bound) is f evaluated on x: its first falsified clause
    is the lowest bit of `falsified`, narrowed to its unbound literals.
    A falsified clause with an unbound variable turns true when every
    unbound variable flips, so the binding empties a clause iff x and
    x ^ free both falsify it.  Unbind order is free.
    """

    __slots__ = ("formula", "read", "center", "x", "free", "falsified")

    def __init__(self, f: Formula, center: int, fixed: int = 0):
        self.formula, self.read, self.center = f, f.read, center
        self.x, self.free = center, ((1 << f.num_vars) - 1) ^ fixed
        self.falsified = self.read(center)

    def probe(self, x: int, free: int, var: int, bit: int) -> tuple[int, int, int] | None:
        """(x, free, falsified) once var is bound to bit in (x, free); None on a conflict."""
        b = 1 << (var - 1)
        x, free = x | b if bit else x & ~b, free & ~b
        falsified = self.read(x)
        return None if falsified & self.read(x ^ free) else (x, free, falsified)

    def bind(self, var: int, bit: int) -> bool:
        """Bind var; False iff a clause now has every literal bound and false."""
        self.assign(((var, bit),))
        return not self.falsified & self.read(self.x ^ self.free)

    def assign(self, binding: Iterable[tuple[int, int]]) -> None:
        """Bind each (var, bit) with one table read and no conflict check."""
        x, free = self.x, self.free
        for var, bit in binding:
            b = 1 << (var - 1)
            x, free = x | b if bit else x & ~b, free & ~b
        self.x, self.free, self.falsified = x, free, self.read(x)

    def unbind(self, *variables: int) -> None:
        """Unbind each variable with one table read."""
        x, free = self.x, self.free
        for var in variables:
            b = 1 << (var - 1)
            x, free = x & ~b | self.center & b, free | b
        self.x, self.free, self.falsified = x, free, self.read(x)

    def branch_literals(self) -> list[int]:
        """Unbound literals of the first falsified clause, in clause order."""
        first = self.falsified & -self.falsified
        clause = self.formula.clauses[first.bit_length() - 1]
        return [lit for lit in clause if self.free >> (abs(lit) - 1) & 1]


def kqcpbs(inst: PbsInstance, rt: PbsRuntime) -> int | None:
    """Classical descent: branch on literals of the first falsified clause.

    Each branch binds one literal true and recurses at radius - 1 (the
    bound variable leaves the formula, and a ball witness loses one
    disagreement with the center).  At radius <= r_max the quantum leaf
    takes over at radius r_max.  Bindings live on one trail for the
    whole descent, and every assignment it returns is a packed model of
    inst.formula: the trail's assignment once it falsifies no clause, or
    a leaf model started from it.  Nothing is restricted.
    """
    return _classical(_Trail(inst.formula, inst.center, inst.fixed), inst, rt, inst.radius)


def _classical(trail: _Trail, inst: PbsInstance, rt: PbsRuntime, radius: int) -> int | None:
    """kqcpbs on restrict(inst.formula, binding the trail holds), read off the trail.

    Branches run fewest-falsified-clauses first, ties in clause order;
    a branch whose binding empties a clause is skipped.  The leaf runs
    on inst.formula, centered on the trail's assignment, with the trail's
    held variables fixed: its marks and draws are those of the
    restricted formula, and its model keeps the binding.
    """
    if not trail.falsified:
        return trail.x
    if radius <= 0:
        return None
    if radius <= inst.r_max:
        held = ((1 << inst.formula.num_vars) - 1) ^ trail.free   # fixed and bound variables
        return quantum_kpbs(replace(inst, center=trail.x, radius=inst.r_max, fixed=held), rt)
    branches = []
    for lit in trail.branch_literals():
        var, bit = abs(lit), 1 if lit > 0 else 0
        state = trail.probe(trail.x, trail.free, var, bit)
        if state is not None:
            branches.append((state[2].bit_count(), ((var, bit),), radius - 1))
    return _run_branches(trail, inst, rt, branches)


Branch = tuple[int, tuple[tuple[int, int], ...], int]   # (score, binding, radius)


def _run_branches(
    trail: _Trail, inst: PbsInstance, rt: PbsRuntime, branches: list[Branch]
) -> int | None:
    """Descend into (score, binding, radius) branches, lowest score first, ties in order."""
    branches.sort(key=lambda b: b[0])
    for _, binding, radius in branches:
        rt.branches += 1
        trail.assign(binding)
        model = _classical(trail, inst, rt, radius)
        trail.unbind(*(var for var, _ in binding))
        if model is not None:
            return model
    return None


def _block_points(trail: _Trail, block_vars: list[int], radius: int) -> list[Branch]:
    """(falsified count, binding, radius - d) of every conflict-free assignment of block_vars.

    d is the point's Hamming distance from the center on block_vars: a
    ball witness matches one point and lies within radius - d of it on
    the other variables.  Depth first, one variable per level, 0 before
    1: itertools.product order.  A conflicting prefix is pruned, since
    every extension of it conflicts too, and so is one with d > radius.
    """
    points: list[Branch] = []
    bits: list[int] = []
    center = trail.center

    def visit(depth: int, left: int, x: int, free: int, falsified: int) -> None:
        if depth == len(block_vars):
            points.append((falsified.bit_count(), tuple(zip(block_vars, bits)), left))
            return
        var = block_vars[depth]
        for bit in (0, 1):
            rest = left - (bit != (center >> (var - 1)) & 1)
            if rest < 0:
                continue
            state = trail.probe(x, free, var, bit)
            if state is not None:
                bits.append(bit)
                visit(depth + 1, rest, *state)
                bits.pop()

    visit(0, radius, trail.x, trail.free, trail.falsified)
    return points


def modify_assignment(
    f: Formula, x: int, clause_indices: list[int], word: tuple[int, ...], fixed: int = 0
) -> int:
    """Flip, in each listed clause, the variable its repair symbol picks.

    x is packed; each clause is narrowed to its variables outside `fixed`.
    Symbols wrap modulo narrowed width; the clauses must be pairwise
    variable-disjoint so the flips commute.
    """
    if len(clause_indices) != len(word):
        raise ValueError("clause list and repair word differ in length")
    seen = 0
    for idx, choice in zip(clause_indices, word):
        flips = [b for b in f.flips[idx] if not b & fixed]
        cvars = f.clause_vars[idx] & ~fixed
        if cvars & seen:
            raise ValueError("clauses share variables")
        seen |= cvars
        x ^= flips[(choice - 1) % len(flips)]
    return x


def kpbs_hybrid(inst: PbsInstance, code: KaryCoveringCode, rt: PbsRuntime) -> int | None:
    """Hybrid descent over a maximal disjoint set G of falsified clauses.

    The repair code over {1..K}^t at radius t/K is the only parameter.
    Small G (at most t clauses): enumerate assignments of vbl(G) (every
    surviving clause the center falsifies then has width < K) within
    the radius, and run the classical descent from each at the radius
    its flips leave.  Large G: jump the center through the code's
    words on the first t clauses, shrinking the radius by t/K, so the
    first radius at or below r_max lies within t/K of it.
    """
    f, center, fixed, t = inst.formula, inst.center, inst.fixed, code.word_length
    unsat = f.read(center)
    if not unsat:
        return center
    if inst.radius <= 0:
        return None
    if inst.radius <= inst.r_max:
        # first time below the cap: radius is in (r_max - t/K, r_max]
        return quantum_kpbs(inst, rt)
    group = max_disjoint_unsat(f, unsat, fixed)
    if len(group) <= t:
        block = functools.reduce(int.__or__, (f.clause_vars[i] for i in group)) & ~fixed
        block_vars = [v for v in range(1, f.num_vars + 1) if block >> (v - 1) & 1]
        trail = _Trail(f, center, fixed)
        return _run_branches(trail, inst, rt, _block_points(trail, block_vars, inst.radius))
    batch = group[:t]
    moves = []
    for ci, word in enumerate(code.codewords):
        moved = modify_assignment(f, center, batch, word, fixed)
        moves.append((f.read(moved).bit_count(), ci, moved))
    moves.sort(key=lambda m: (m[0], m[1]))
    for _, _, moved in moves:
        rt.branches += 1
        got = kpbs_hybrid(replace(inst, center=moved, radius=inst.radius - code.radius), code, rt)
        if got is not None:
            return got
    return None
