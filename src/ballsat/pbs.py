"""Promise-ball solvers.

Given a packed center assignment (x_v at bit v - 1) and a radius,
decide whether a satisfying assignment lies in the Hamming ball.  The
center holds the variables of the `fixed` mask at their prefix values;
the search never flips them and reads each clause narrowed to its
other variables: the search on restrict(f, binding of fixed).  The
quantum leaf amplifies over flip words, each symbol repairing the
first falsified clause.  One descent serves the classical and the
hybrid search.  Every node returns at once when more of its falsified
clauses than its radius are pairwise variable-disjoint: each needs a
flip of its own, so its ball is empty.  Any other node branches on
literals of its narrowest falsified clause (fewest unbound variables,
ties to the lowest index).  The paper jumps through a K-ary repair
code instead; its short (K, K, 1) code takes 6 branches per unit of
radius at K = 3, where a literal node takes at most K, so the descent
has no jump.  The descent alone hands nodes to the leaf: each whose
radius, 0 included, fits a positive r_max; hybrid mode is the descent
with a positive r_max.  The leaf first searches its ball for a model
from the node's state, over the literal nodes the descent at r_max 0
would visit, unsorted and uncounted: when it finds none, no flip word
can reach one, and the leaf measures the uniform register without the
flip-word trie.  The search picks only the distribution and the marks;
one measurement loop serves both kinds of leaf.  A leaf takes all its
retries' draws at once, from its dispatch seed's stream, whose head is
cached per seed, and logs its records from one cached tuple when it
returns.
FALSE returns are one-sided: each quantum group errs with probability
at most eps^(2R).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from . import stream
from .codes import _kary_word, check_space
from .fliptree import _narrowed_flips, marked_mask, walk
# first_unsat_clause is unused here; perfbench's tracer test expects to patch it in this namespace
from .formula import Formula, first_unsat_clause  # noqa: F401
from .fpsearch import SearchSchedule, _uniform_cdf, make_schedule, measure, word_cdf


@dataclass(slots=True)
class PbsInstance:
    """One ball search: the formula, the ball, the leaf cap and the held mask.

    Plain data that no code assigns to after construction.  It has slots
    and is not frozen: a dispatch builds one per sweep codeword, and a
    frozen dataclass's __init__ pays an object.__setattr__ per field.
    """

    formula: Formula
    center: int          # packed assignment, x_v at bit v - 1
    radius: int
    r_max: int           # largest radius the quantum leaf may take; 0: no leaf
    epsilon: float
    alphabet: int        # branching alphabet K; narrowing may shorten clauses
    fixed: int = 0       # mask of the variables the center holds; never flipped


State = tuple[int, int, int]   # (x, free, falsified), packed ints
# words of a leaf's measured indices: a workload meets a few dozen (index, K, r),
# so over 99% of decodes hit on perfbench's hybrid workloads
_leaf_word = functools.lru_cache(maxsize=4096)(_kary_word)


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


# records are frozen, so equal ones can be one value: every leaf logs its misses
# as a prefix of the tuple cached for its key, which repeats within and across solves
@functools.lru_cache(maxsize=4096)
def _false_records(
    prefix: str, codeword: int, radius: int, L: int, queries: int, retries: int
) -> tuple[QuantumCallRecord, ...]:
    """The records of a leaf whose every retry misses, attempts 0..retries-1."""
    return tuple(
        QuantumCallRecord(prefix, codeword, radius, L, queries, "false", attempt)
        for attempt in range(retries)
    )


# doubles per cached stream head: over 160 seed-4 instances a dispatch of
# perfbench's unsat3-hybrid draws at most 18, one of planted-pool at most 3
_HEAD = 24


@functools.lru_cache(maxsize=1024)
def _stream_head(seed: tuple[int, ...]) -> tuple[float, ...]:
    """The first `_HEAD` doubles of default_rng(SeedSequence(seed)), from `stream`.

    A dispatch's seed comes back in every solve with the same solver
    seed, so a repeated seed costs a lookup, not a seeding and 24 steps.
    """
    return stream.doubles(seed, 0, _HEAD)


@dataclass
class PbsRuntime:
    """Per-dispatch context and log, plain data only.

    The context is the seed of the leaf's randomness, the retry budget
    and the (prefix, codeword) the dispatch serves; the log is its leaf
    records, branch count and failed quantum groups.  The leaf's
    randomness is the stream of default_rng(SeedSequence(seed)), which
    `stream` computes without numpy.random, and `drawn` counts the
    doubles the dispatch has taken from it, so a runtime carries its
    whole stream position and no generator.
    """

    seed: tuple[int, ...]
    retries: int = 3
    prefix: str = ""
    codeword: int = 0
    records: list[QuantumCallRecord] = field(default_factory=list)
    branches: int = 0
    groups_failed: int = 0   # quantum groups whose every retry missed
    drawn: int = 0           # doubles taken from the seed's stream

    def draws(self, count: int) -> tuple[float, ...]:
        """The stream's next `count` doubles: the cached head, then `stream` past it.

        Past the head the stream is seeded again and jumped to the
        head's end, or to the position when that lies further on.
        """
        start = self.drawn
        self.drawn = end = start + count
        head = _stream_head(self.seed)
        if end <= len(head):
            return head[start:end]
        skip = max(start, len(head))
        return head[start:] + stream.doubles(self.seed, skip, end - skip)


@functools.lru_cache(maxsize=64)
def _leaf_constants(
    epsilon: float, k: int, radius: int
) -> tuple[SearchSchedule, tuple[float, ...]]:
    """A leaf's schedule and uniform CDF over its K^r words, after the space check.

    A space past the limit raises, and the failure is not cached.
    """
    check_space(k, radius)
    return make_schedule(epsilon, 1.0 / k**radius), tuple(_uniform_cdf(k**radius).tolist())


def quantum_kpbs(inst: PbsInstance, rt: PbsRuntime, state: State, radius: int) -> int | None:
    """Quantum leaf: amplify once, measure up to `retries` times, verify.

    The ball is a descent node's: centered on x of its state (x, free,
    falsified), at its radius, with the variables outside `free` held.
    The amplified register is two-level: M of N = K^r words are marked,
    the closed form gives the marked probability p, and each retry
    measures a word from p/M per marked and (1-p)/(N-M) per unmarked
    word.  Retries multiply only the query count.  A walk flips at most
    r unheld variables, so its endpoint lies in the ball.  The emptiness
    proof `_holds_model` decides only the distribution and the marks:
    when it finds no model there from the state, M = 0, the register is
    uniform and nothing is marked, with no trie pass; otherwise the trie
    pass marks the words whose walk succeeds.  That proof visits the
    nodes of the descent at r_max 0 in clause order and counts none of
    them.  The space check, schedule and uniform CDF come cached per
    (epsilon, K, radius).
    One loop serves both kinds of leaf.  The leaf takes all its
    retries' doubles at once from `rt.draws`, whose stream head is
    cached per seed, and `measure` places each in the CDF as a list.
    Each measured word is walked again, and its endpoint must satisfy f
    iff the word is marked; a disagreement raises before the leaf logs
    anything.  The draws past a hit go unused, and the dispatch ends
    there.  Every record comes from one cached tuple of "false" records:
    a leaf whose retries all miss logs the whole tuple, and one that
    hits at attempt a logs its first a entries and one "sat" record.
    """
    f, k = inst.formula, inst.alphabet
    x, free, falsified = state
    held = ((1 << f.num_vars) - 1) ^ free
    schedule, cdf = _leaf_constants(inst.epsilon, k, radius)
    retries = max(1, rt.retries)
    read = f.read
    marked = None
    if _holds_model(read, f.clause_vars, f.flips, x, free, falsified, radius, read(x ^ free)):
        marked = marked_mask(f, x, radius, k, held)
        cdf = word_cdf(marked, inst.epsilon, schedule.lambda_min).tolist()
    misses = _false_records(rt.prefix, rt.codeword, radius, schedule.L, schedule.queries, retries)
    for attempt, index in enumerate(measure(cdf, rt.draws(retries))):
        candidate = walk(f, x, _leaf_word(index, k, radius), held)
        hit = not read(candidate)
        if hit != (marked is not None and marked[index]):
            source = "the empty-ball proof" if marked is None else "its trie mark"
            raise RuntimeError(f"walk of word {index} disagrees with {source}")
        if hit:
            rt.records += misses[:attempt]
            rt.records.append(
                QuantumCallRecord(
                    rt.prefix, rt.codeword, radius, schedule.L, schedule.queries, "sat", attempt
                )
            )
            return candidate
    rt.records += misses
    rt.groups_failed += 1
    return None


_by_score = itemgetter(0)


def _state(read: Callable[[int], int], x: int, free: int) -> State | None:
    """(x, free, falsified) of the assignment x that binds the variables outside `free`.

    None iff the binding empties a clause: a falsified clause with a free
    variable turns true when every free variable flips, so it is empty
    iff x and x ^ free both falsify it.
    """
    falsified = read(x)
    return None if falsified & read(x ^ free) else (x, free, falsified)


def _narrowest(clause_vars: tuple[int, ...], falsified: int, free: int, cap: int) -> int:
    """The narrowest falsified clause, or -1 when the node is cut, in one scan.

    The narrowest clause has the fewest variables in `free`, ties to the
    lowest index.  The scan grows `max_disjoint_unsat(f, falsified, ~free)`
    alongside: the lowest-index greedy set of falsified clauses pairwise
    disjoint on `free`.  It stops once that set exceeds `cap` and returns
    -1: the descent caps it at the node's radius, past which the node's
    ball is empty.
    """
    best, best_width = -1, free.bit_count() + 1
    used = size = 0
    while falsified:
        low = falsified & -falsified
        falsified ^= low
        i = low.bit_length() - 1
        cvars = clause_vars[i] & free
        if not cvars & used:
            used |= cvars
            size += 1
            if size > cap:
                return -1
        width = cvars.bit_count()
        if width < best_width:
            best, best_width = i, width
    return best


def _holds_model(
    read: Callable[[int], int],
    clause_vars: tuple[int, ...],
    flips: tuple[tuple[int, ...], ...],
    x: int,
    free: int,
    falsified: int,
    radius: int,
    conflict: int,
) -> bool:
    """Whether the ball of a literal node (x, free, falsified) holds a model.

    The existence form of `_descend` at r_max 0: the same cut, narrowest
    clause and children, entered in clause order, unscored and
    uncounted; True at the first model.  `conflict` is read(x ^ free),
    which every literal child shares.  On an empty ball it visits the
    nodes `_descend` visits, one call each.
    """
    if not falsified:
        return True
    if radius <= 0:
        return False
    clause = _narrowest(clause_vars, falsified, free, radius)
    if clause < 0:
        return False
    for b in flips[clause]:
        if b & free and not (after := read(x ^ b)) & conflict and _holds_model(
            read, clause_vars, flips, x ^ b, free ^ b, after, radius - 1, conflict
        ):
            return True
    return False


def kqcpbs(inst: PbsInstance, rt: PbsRuntime) -> int | None:
    """The descent: branch on literals of the narrowest falsified clause.

    The narrowest clause has the fewest unbound variables, ties to the
    lowest index, so a forced literal gets no siblings; the search stays
    complete, since a ball witness differs from the center on a variable
    of every falsified clause.  For the same reason a node with more
    pairwise disjoint falsified clauses than its radius has an empty
    ball and takes no branch.  Each branch binds one literal true and
    recurses at radius - 1 (the bound variable leaves the formula, and a
    ball witness loses one disagreement with the center).  At radius
    <= r_max > 0 the quantum leaf takes over at that radius: classical
    mode is r_max 0, hybrid mode a positive r_max.  Every assignment
    the descent returns is a packed model of inst.formula.
    """
    f = inst.formula
    root = _state(f.read, inst.center, ((1 << f.num_vars) - 1) ^ inst.fixed)
    return None if root is None else _descend(inst, rt, root, inst.radius)


# hybrid mode is kqcpbs with a positive r_max; the name stays because
# perfbench/tracer.py looks it up in this namespace
kpbs_hybrid = kqcpbs


# unused by the descent, which has no repair-code jump; it stays because
# perfbench/tracer.py looks it up in this namespace
def modify_assignment(
    f: Formula, x: int, clause_indices: list[int], word: tuple[int, ...], fixed: int = 0
) -> int:
    """Flip, in each listed clause, the variable its repair symbol picks.

    x is packed; each clause is narrowed to its variables outside `fixed`.
    Symbols wrap modulo narrowed width; the clauses must be pairwise
    variable-disjoint so the flips commute, and none may be emptied.
    """
    if len(clause_indices) != len(word):
        raise ValueError("clause list and repair word differ in length")
    seen = 0
    for idx, choice in zip(clause_indices, word):
        flips = _narrowed_flips(f, idx, fixed)
        if not flips:
            raise ValueError(f"clause {idx} has no variable outside the held mask")
        cvars = f.clause_vars[idx] & ~fixed
        if cvars & seen:
            raise ValueError("clauses share variables")
        seen |= cvars
        x ^= flips[(choice - 1) % len(flips)]
    return x


def _descend(inst: PbsInstance, rt: PbsRuntime, state: State, radius: int) -> int | None:
    """The ball search on restrict(inst.formula, the binding x holds off `free`).

    One scan (`_narrowest`, capped at the radius) finds the node's
    narrowest falsified clause, or finds that its greedy group of
    falsified clauses disjoint on `free` outnumbers the radius.  Then
    the node returns None unbranched: each group clause needs its own
    flip, so the subtree holds no model and the other subtrees keep
    their order.  Any other node branches on the literals of its
    narrowest falsified clause: each is false at x, so binding it true
    flips its variable; a binding that empties a clause is skipped.  A
    child's binding empties a clause iff the clause is falsified at the
    child and at x ^ free, the child with every free variable flipped,
    which is the same assignment for every child: the node reads it
    once.  Branches run fewest-falsified-clauses first, ties in order.
    A falsified node whose radius, 0 included, fits a positive
    inst.r_max goes to the leaf before any other test; at r_max 0, as
    in classical mode, no node does, and the descent visits the nodes
    the leaf's emptiness proof `_holds_model` visits on an empty ball.
    The leaf runs on inst.formula, centered on x, with the variables
    outside `free` held, at the node's radius: its marks and draws are
    those of the restricted formula, and its model keeps the binding.
    """
    x, free, falsified = state
    if not falsified:
        return x
    # r_max 0 means no leaf
    r_max = inst.r_max
    if 0 <= radius <= r_max and r_max:
        return quantum_kpbs(inst, rt, state, radius)
    if radius <= 0:
        return None
    f = inst.formula
    clause = _narrowest(f.clause_vars, falsified, free, radius)
    if clause < 0:   # more disjoint falsified clauses than flips left
        return None
    read, branches = f.read, []
    conflict = read(x ^ free)
    for b in f.flips[clause]:
        if b & free and not (after := read(x ^ b)) & conflict:
            branches.append((after.bit_count(), (x ^ b, free ^ b, after)))
    branches.sort(key=_by_score)
    for _, child in branches:
        rt.branches += 1
        model = _descend(inst, rt, child, radius - 1)
        if model is not None:
            return model
    return None
