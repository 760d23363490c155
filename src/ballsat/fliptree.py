"""Deterministic flip walks on packed assignments (x_v at bit v - 1).

A word over {1..K} drives repair steps: each symbol picks a variable of
the first falsified clause (`Formula.flips`: each variable once,
wrapping modulo their count) and flips it.  Once the formula is
satisfied the remaining symbols are no-ops, so every satisfying prefix
stays satisfying.  A walk returns its
packed endpoint, which satisfies f iff f.read of it is 0.  Variables in
the `fixed` mask never flip and clauses narrow to their other literals:
on a center holding the fixed values, this is the walk on the restriction.
A clause the fixed values empty is the restriction's CONFLICT: the walk
stops there, and no word through it is marked.
"""

from __future__ import annotations

import numpy as np

from .codes import check_space
# first_unsat_clause is unused here; perfbench's tracer test expects to patch it in this namespace
from .formula import Assignment, Formula, first_unsat_clause, pack  # noqa: F401

FlipSequence = tuple[int, ...]


def _narrowed_flips(f: Formula, idx: int, fixed: int) -> list[int]:
    """Variable bits outside `fixed` of clause idx, in clause order."""
    flips = f.flips[idx]
    return [b for b in flips if not b & fixed] if f.clause_vars[idx] & fixed else list(flips)


def walk(f: Formula, center: int, seq: FlipSequence, fixed: int = 0) -> int:
    """Run the walk for one choice word from the packed center and return its packed endpoint.

    Each step flips a variable of the first falsified clause, narrowed
    to its variables outside `fixed`: `_narrowed_flips`, inlined.  The
    flip and clause tables are read once per walk, and a clause is
    narrowed only when it holds a variable of `fixed`.
    """
    read, clause_flips, clause_vars, x = f.read, f.flips, f.clause_vars, center
    for choice in seq:
        unsat = read(x)
        if not unsat:
            break
        idx = (unsat & -unsat).bit_length() - 1
        flips = clause_flips[idx]
        if clause_vars[idx] & fixed:
            flips = [b for b in flips if not b & fixed]
        if not flips:
            break
        x ^= flips[(choice - 1) % len(flips)]
    return x


def marked_mask(
    f: Formula, center: int, radius: int, alphabet: int, fixed: int = 0
) -> np.ndarray:
    """Per-word walk success over {1..K}^radius, words in lexicographic order.

    One depth-first pass over the flip-word trie, which is the walk tree:
    each edge flips one bit of the packed assignment, and each node
    reads its falsified clauses once.  A node that already satisfies f
    marks its whole span of K^(radius - depth) words, since the walk
    ignores the symbols left.  Symbols that wrap onto the same literal
    of a narrow clause copy the span of the first such symbol.
    """
    if radius < 0:
        raise ValueError("negative radius")
    if alphabet < 1:
        raise ValueError("alphabet too small")
    if center >> f.num_vars:
        raise ValueError("center outside the formula's variables")
    check_space(alphabet, radius)
    mask = np.zeros(alphabet**radius, dtype=bool)
    read = f.read

    def visit(x: int, depth: int, lo: int, span: int) -> None:
        unsat = read(x)
        if not unsat:
            mask[lo : lo + span] = True
            return
        if depth == radius:
            return
        flips = _narrowed_flips(f, (unsat & -unsat).bit_length() - 1, fixed)
        width = len(flips)
        if not width:
            return
        span //= alphabet
        for choice in range(alphabet):
            start = lo + choice * span
            if choice < width:
                visit(x ^ flips[choice], depth + 1, start, span)
            else:
                src = lo + (choice % width) * span
                mask[start : start + span] = mask[src : src + span]

    visit(center, 0, 0, alphabet**radius)
    return mask


def marked_fraction(
    f: Formula, center: Assignment, radius: int, alphabet: int
) -> tuple[float, int]:
    """Fraction and count of length-`radius` words whose walk satisfies f.

    The reference entry point: the center is an assignment tuple."""
    mask = marked_mask(f, pack(center), radius, alphabet)
    marked = int(mask.sum())
    return marked / mask.size, marked
