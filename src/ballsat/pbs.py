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
ties to the lowest index) or, given the K-ary repair code and more than
t such clauses, steers a long jump through the code over clause-repair
choices.  A hybrid node with at most t such clauses drops the code and
branches on literals; the paper enumerates vbl(G) there instead.  The
descent alone hands nodes to the leaf: each whose radius, 0 included,
fits a positive r_max.  The leaf first runs the descent at r_max 0
over its ball, from the node's state: when that finds no model, no
flip word can reach one, and the leaf measures the uniform register
without the flip-word trie.  A leaf draws all its retries in one call.
FALSE returns are one-sided: each quantum group errs with probability
at most eps^(2R).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .codes import CoveringCode, _kary_word, check_space
from .fliptree import _narrowed_flips, marked_mask, walk
# first_unsat_clause is unused here; perfbench's tracer test expects to patch it in this namespace
from .formula import Formula, first_unsat_clause, max_disjoint_unsat  # noqa: F401
from .fpsearch import _uniform_cdf, make_schedule, measure, word_cdf


@dataclass(frozen=True)
class PbsInstance:
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


# records are frozen, so equal ones can be one value: records repeat within a
# solve (150 of the first unsat3-hybrid solve's 246 builds hit) and across solves
_record = functools.lru_cache(maxsize=4096)(QuantumCallRecord)


@functools.lru_cache(maxsize=1024)
def _seed_words(seed: tuple[int, ...]) -> np.ndarray:
    """The four uint64 words PCG64 draws from SeedSequence(seed), read-only."""
    words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    words.flags.writeable = False
    return words


class _CachedSeedSequence(ISeedSequence):
    """SeedSequence(seed) as PCG64 reads it, with its state words from `_seed_words`.

    PCG64 asks its seed sequence for `generate_state(4, np.uint64)` once,
    at construction; any other request is answered by SeedSequence(seed).
    """

    __slots__ = ("seed",)

    def __init__(self, seed: tuple[int, ...]):
        self.seed = seed

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return _seed_words(self.seed)
        return np.random.SeedSequence(self.seed).generate_state(n_words, dtype)


@dataclass
class PbsRuntime:
    """Per-dispatch context and log, plain data only.

    The context is the seed of the leaf's randomness, the retry budget
    and the (prefix, codeword) the dispatch serves; the log is its leaf
    records, branch count and failed quantum groups.  The Generator is
    built on the first draw, so a dispatch whose descent never reaches
    the leaf builds none.  It is PCG64 on the cached seed words of
    SeedSequence(seed), so it draws what
    `np.random.default_rng(np.random.SeedSequence(seed))` draws, and a
    repeated seed costs a lookup, not a SeedSequence.
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
        return np.random.default_rng(np.random.PCG64(_CachedSeedSequence(self.seed)))


def quantum_kpbs(
    inst: PbsInstance, rt: PbsRuntime, state: State | None = None, radius: int = 0
) -> int | None:
    """Quantum leaf: amplify once, measure up to `retries` times, verify.

    The ball is a descent node's: centered on x of its state (x, free,
    falsified), at its radius, with the variables outside `free` held.
    Called with an instance alone, the leaf reads the ball off the
    center, `inst.fixed` and `inst.radius`.  The amplified register is
    two-level: M of N = K^r words are marked, the closed form gives the
    marked probability p, and each retry measures a word from p/M per
    marked and (1-p)/(N-M) per unmarked word.  Retries multiply only the
    query count.  A walk flips at most r unheld variables, so its
    endpoint lies in the ball: when the held variables empty a clause,
    or the descent from the state at r_max 0 (on a scratch runtime, so
    no leaf runs and the dispatch counts no branch) finds no model,
    M = 0 and the register is uniform, with no trie pass; otherwise the
    trie pass marks the words whose walk succeeds.
    `measure` draws all retries at once; the draws past a hit go unused,
    and the dispatch ends there.  Each measured word up to the first hit
    is walked again: its endpoint satisfies f iff the word is marked,
    and one that does in a ball proved empty raises.  The draws come
    from `rt.rng`, whose seed words are cached per seed, and each retry
    logs a record through a bounded cache, so equal records are one
    shared frozen value.
    """
    f, k = inst.formula, inst.alphabet
    if state is None:
        x, held, radius = inst.center, inst.fixed, inst.radius
        state = _state(f.read, x, ((1 << f.num_vars) - 1) ^ held)
    else:
        x, held = state[0], ((1 << f.num_vars) - 1) ^ state[1]
    check_space(k, radius)
    schedule = make_schedule(inst.epsilon, 1.0 / k**radius)
    if state is None or _descend(inst, None, PbsRuntime(()), state, radius, 0) is None:
        marked, cdf = None, _uniform_cdf(k**radius)
    else:
        marked = marked_mask(f, x, radius, k, held)
        cdf = word_cdf(marked, inst.epsilon, schedule.lambda_min)
    for attempt, index in enumerate(measure(cdf, rt.rng, max(1, rt.retries))):
        candidate = walk(f, x, _leaf_word(index, k, radius), held)
        hit = not f.read(candidate)
        if hit != (marked is not None and marked[index]):
            basis = "its trie mark" if marked is not None else "the empty-ball proof"
            raise RuntimeError(f"walk of word {index} disagrees with {basis}")
        rt.records.append(
            _record(
                rt.prefix,
                rt.codeword,
                radius,
                schedule.L,
                schedule.queries,
                "sat" if hit else "false",
                attempt,
            )
        )
        if hit:
            return candidate
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


def _narrowest(
    clause_vars: tuple[int, ...], falsified: int, free: int, cap: int
) -> tuple[int, int]:
    """(narrowest falsified clause, size of the greedy disjoint group), one scan.

    The narrowest clause has the fewest variables in `free`, ties to the
    lowest index.  The group is `max_disjoint_unsat(f, falsified, ~free)`:
    the lowest-index greedy set of falsified clauses pairwise disjoint on
    `free`.  The scan stops once the group exceeds `cap`, and then the
    index is -1: the descent caps it at the node's radius, past which
    the node's ball is empty.
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
                return -1, size
        width = cvars.bit_count()
        if width < best_width:
            best, best_width = i, width
    return best, size


def kqcpbs(inst: PbsInstance, rt: PbsRuntime) -> int | None:
    """Classical descent: branch on literals of the narrowest falsified clause.

    The narrowest clause has the fewest unbound variables, ties to the
    lowest index, so a forced literal gets no siblings; the search stays
    complete, since a ball witness differs from the center on a variable
    of every falsified clause.  For the same reason a node with more
    pairwise disjoint falsified clauses than its radius has an empty
    ball and takes no branch.  Each branch binds one literal true and
    recurses at radius - 1 (the bound variable leaves the formula, and a
    ball witness loses one disagreement with the center).  At radius
    <= r_max > 0 the quantum leaf takes over at that radius.  Every
    assignment the descent returns is a packed model of inst.formula.
    """
    return _search(inst, None, rt)


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


def kpbs_hybrid(inst: PbsInstance, code: CoveringCode, rt: PbsRuntime) -> int | None:
    """Hybrid descent over a greedy maximal disjoint set G of falsified clauses.

    The repair code over {1..K}^t at radius t/K is the only parameter.
    G larger than the radius: the ball is empty and the node returns
    None, as a literal node does.  Large G (t < |G| <= radius): jump the
    center through the code's words on the first t clauses, shrinking
    the radius by t/K, so the first radius at or below r_max lies within
    t/K of it; a jump thus needs radius > t.  Small G: the node drops
    the code and goes on as `kqcpbs` from there.  This
    departs from the paper, which enumerates the assignments of vbl(G)
    within the radius and runs the classical descent from each: the
    literal descent is complete by itself, and on the first 40 seed-4
    instances of perfbench's unsat3-hybrid it takes 75.9 branches per
    solve where the enumeration took 287.5 (README has the tables).
    """
    return _search(inst, code, rt)


def _search(inst: PbsInstance, code: CoveringCode | None, rt: PbsRuntime) -> int | None:
    """The descent from inst's center and held mask; None at once if they empty a clause."""
    f = inst.formula
    root = _state(f.read, inst.center, ((1 << f.num_vars) - 1) ^ inst.fixed)
    return None if root is None else _descend(inst, code, rt, root, inst.radius, inst.r_max)


def _descend(
    inst: PbsInstance,
    code: CoveringCode | None,
    rt: PbsRuntime,
    state: State,
    radius: int,
    r_max: int,
) -> int | None:
    """The ball search on restrict(inst.formula, the binding x holds off `free`).

    One scan (`_narrowest`, capped at the radius) finds the node's
    narrowest falsified clause and counts its greedy group G of
    falsified clauses disjoint on `free`.  When G outnumbers the radius,
    the node returns None unbranched, with or without the repair code:
    each group clause needs its own flip, so the subtree holds no model
    and the other subtrees keep their order.  A node with the code and
    t < |G| jumps through the code's words on the first t clauses of G,
    and builds G's list only then.  Any other node branches on the
    literals of its narrowest falsified clause: each is false at x, so
    binding it true flips its variable; a binding that empties a clause
    is skipped.  A child's binding empties a clause iff the clause is
    falsified at the child and at x ^ free, the child with every free
    variable flipped, which is the same assignment for every child: the
    node reads it once.  A node with the code and a small G drops the
    code, so its subtree is the classical descent.
    Branches run fewest-falsified-clauses first, ties in order.  The
    leaf cap `r_max` is inst.r_max in a dispatch and 0 in the leaf's
    emptiness proof.  A falsified node whose radius, 0 included, fits a
    positive r_max goes to the leaf before any other test; at r_max 0,
    as in classical mode and in the proof, no node does.  The leaf runs
    on inst.formula, centered on x, with the variables outside `free`
    held, at the node's radius: its marks and draws are those of the
    restricted formula, and its model keeps the binding.
    """
    x, free, falsified = state
    if not falsified:
        return x
    # r_max 0 means no leaf; a jump past radius 0 leaves an empty ball
    if 0 <= radius <= r_max and r_max:
        return quantum_kpbs(inst, rt, state, radius)
    if radius <= 0:
        return None
    f = inst.formula
    clause, disjoint = _narrowest(f.clause_vars, falsified, free, radius)
    if clause < 0:   # more disjoint falsified clauses than flips left
        return None
    if code is not None and disjoint <= code.word_length:
        code = None
    if code is None:
        read, branches, rest = f.read, [], radius - 1
        conflict = read(x ^ free)
        for b in f.flips[clause]:
            if b & free and not (after := read(x ^ b)) & conflict:
                branches.append((after.bit_count(), (x ^ b, free ^ b, after)))
    else:
        batch = max_disjoint_unsat(f, falsified, ~free)[: code.word_length]
        branches, rest = [], radius - code.radius
        for word in code.codewords:
            moved = modify_assignment(f, x, batch, word, ~free)
            after = f.read(moved)
            branches.append((after.bit_count(), (moved, free, after)))
    branches.sort(key=_by_score)
    for _, child in branches:
        rt.branches += 1
        model = _descend(inst, code, rt, child, rest, r_max)
        if model is not None:
            return model
    return None
