"""Deterministic flip walks.

A word over {1..K} drives repair steps: each symbol picks a literal of
the first falsified clause (wrapping modulo clause width) and flips its
variable.  Once the formula is satisfied the remaining symbols are
no-ops, so every satisfying prefix stays satisfying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import check_space
from .formula import Assignment, Formula, first_unsat_clause

FlipSequence = tuple[int, ...]


@dataclass(frozen=True)
class FlipOutcome:
    candidate: Assignment
    value: int                # 1 iff candidate satisfies the formula


def walk(f: Formula, center: Assignment, seq: FlipSequence) -> FlipOutcome:
    """Run the walk for one choice word and return its endpoint."""
    if len(center) != f.num_vars:
        raise ValueError("center length mismatch")
    bits = list(center)
    satisfied = False
    for choice in seq:
        idx = first_unsat_clause(f, bits)
        if idx is None:
            satisfied = True
            break
        clause = f.clauses[idx]
        lit = clause[(choice - 1) % len(clause)]
        bits[abs(lit) - 1] ^= 1
    if not satisfied:
        satisfied = first_unsat_clause(f, bits) is None
    return FlipOutcome(tuple(bits), 1 if satisfied else 0)


def marked_mask(f: Formula, center: Assignment, radius: int, alphabet: int) -> np.ndarray:
    """Per-word walk success over {1..K}^radius, words in lexicographic order.

    One depth-first pass over the flip-word trie, which is the walk tree:
    each edge flips and unflips one bit of a single assignment, and each
    node looks for the first falsified clause once.  A node that already
    satisfies f marks its whole span of K^(radius - depth) words, since
    the walk ignores the symbols left.  Symbols that wrap onto the same
    literal of a narrow clause copy the span of the first such symbol.
    """
    if radius < 0:
        raise ValueError("negative radius")
    if alphabet < 1:
        raise ValueError("alphabet too small")
    if len(center) != f.num_vars:
        raise ValueError("center length mismatch")
    check_space(alphabet, radius)
    mask = np.zeros(alphabet**radius, dtype=bool)
    bits = list(center)

    def visit(depth: int, lo: int, span: int) -> None:
        idx = first_unsat_clause(f, bits)
        if idx is None:
            mask[lo : lo + span] = True
            return
        if depth == radius:
            return
        clause = f.clauses[idx]
        width = len(clause)
        span //= alphabet
        for choice in range(alphabet):
            start = lo + choice * span
            if choice < width:
                var = abs(clause[choice]) - 1
                bits[var] ^= 1
                visit(depth + 1, start, span)
                bits[var] ^= 1
            else:
                src = lo + (choice % width) * span
                mask[start : start + span] = mask[src : src + span]

    visit(0, 0, alphabet**radius)
    return mask


def marked_fraction(
    f: Formula, center: Assignment, radius: int, alphabet: int
) -> tuple[float, int]:
    """Fraction and count of length-`radius` words whose walk satisfies f."""
    mask = marked_mask(f, center, radius, alphabet)
    marked = int(mask.sum())
    return marked / mask.size, marked
