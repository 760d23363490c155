"""Deterministic flip walks on packed assignments (x_v at bit v - 1).

A word over {1..K} drives repair steps: each symbol picks a literal of
the first falsified clause (wrapping modulo clause width) and flips its
variable.  Once the formula is satisfied the remaining symbols are
no-ops, so every satisfying prefix stays satisfying.  Variables in the
`fixed` mask never flip and clauses narrow to their other literals: on
a center holding the fixed values, this is the walk on the restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import check_space
# first_unsat_clause is unused here; perfbench's tracer test expects to patch it in this namespace
from .formula import Assignment, Formula, first_unsat_clause, pack  # noqa: F401

FlipSequence = tuple[int, ...]


@dataclass(frozen=True)
class FlipOutcome:
    candidate: int            # packed endpoint
    value: int                # 1 iff candidate satisfies the formula


def _narrowed_flips(f: Formula, unsat: int, fixed: int) -> list[int]:
    """Variable bits outside `fixed` of the lowest clause in `unsat`, in clause order."""
    return [b for b in f.flips[(unsat & -unsat).bit_length() - 1] if not b & fixed]


def walk(f: Formula, center: int, seq: FlipSequence, fixed: int = 0) -> FlipOutcome:
    """Run the walk for one choice word from the packed center and return its endpoint."""
    read, x = f.read, center
    for choice in seq:
        unsat = read(x)
        if not unsat:
            break
        flips = _narrowed_flips(f, unsat, fixed)
        x ^= flips[(choice - 1) % len(flips)]
    return FlipOutcome(x, 0 if read(x) else 1)


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
        flips = _narrowed_flips(f, unsat, fixed)
        width = len(flips)
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
