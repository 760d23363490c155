"""Covering codes for ball search.

Binary covers of assignment space come from a greedy set-cover pass;
K-ary covers of flip-word space are drawn at random to a union-bound
size and repaired if the draw leaves holes.  prune_cover drops the
words of a cover that the others make redundant.  Construction and
pruning always verify coverage before returning.  Both kinds read their
Hamming balls from one enumeration, _balls.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import Iterator

import numpy as np

Word = tuple[int, ...]

# largest word space any exhaustive pass (cover build, cover check, leaf
# marking) enumerates; the solver checks its inputs against it up front
_SPACE_LIMIT = 10**7


def check_space(alphabet: int, length: int) -> None:
    """Reject a word space {alphabet}^length larger than the shared limit."""
    # from the limit's bit length on, 2^length alone is past it: skip the power
    too_long = alphabet >= 2 and length >= _SPACE_LIMIT.bit_length()
    if too_long or alphabet**length > _SPACE_LIMIT:
        raise ValueError(f"space {alphabet}^{length} too large")


@dataclass(frozen=True)
class BinaryCoveringCode:
    word_length: int
    radius: int
    codewords: tuple[Word, ...]


@dataclass(frozen=True)
class KaryCoveringCode:
    alphabet: int            # symbols are 1..alphabet
    word_length: int
    radius: int
    codewords: tuple[Word, ...]

    @property
    def size_bound(self) -> int:
        """Distinct words build_kary_cover draws, capped at K^t, before it repairs."""
        t, s = self.word_length, self.radius
        return 1 if s == t else kary_draw_bound(self.alphabet, t, s)

    @property
    def repaired(self) -> bool:
        """True if the draws left holes: the builder appends only holes to them.

        This reads the builder's draw.  The solver runs prune_cover's
        output, which is usually shorter than size_bound and reads False.
        """
        return len(self.codewords) > min(self.size_bound, self.alphabet**self.word_length)


def alphabet_and_first(code: BinaryCoveringCode | KaryCoveringCode) -> tuple[int, int]:
    """(alphabet, first symbol) of a code's words: (2, 0) binary, (K, 1) K-ary."""
    if isinstance(code, BinaryCoveringCode):
        return 2, 0
    return code.alphabet, 1


def _word(index: int, alphabet: int, length: int, first: int) -> Word:
    """The index-th word of {first..first+alphabet-1}^length in lexicographic order."""
    syms = []
    for _ in range(length):
        index, rem = divmod(index, alphabet)
        syms.append(rem + first)
    return tuple(reversed(syms))


def _kary_word(index: int, alphabet: int, length: int) -> Word:
    return _word(index, alphabet, length, 1)


@functools.lru_cache(maxsize=8)
def _shift_table(alphabet: int, length: int, radius: int) -> np.ndarray:
    """Per-position shifts, mod alphabet, from a word to each word of its radius ball.

    One row per ball word: the zero row, then the rows at distance 1, 2, ...
    """
    rows = []
    for dist in range(min(radius, length) + 1):
        for positions in combinations(range(length), dist):
            for shifts in product(range(1, alphabet), repeat=dist):
                row = [0] * length
                for pos, shift in zip(positions, shifts):
                    row[pos] = shift
                rows.append(row)
    table = np.array(rows, dtype=np.int64).reshape(len(rows), length)
    table.flags.writeable = False
    return table


def _balls(code: BinaryCoveringCode | KaryCoveringCode) -> Iterator[np.ndarray]:
    """Each codeword's ball as word-space indices, one array per word, in order.

    A word's index is its rank in lexicographic order.  In binary a shift
    row is a bit mask, so a ball is the word's index XOR the masks.
    """
    alphabet, first = alphabet_and_first(code)
    length, words = code.word_length, code.codewords
    shifts = _shift_table(alphabet, length, code.radius)
    powers = alphabet ** np.arange(length - 1, -1, -1, dtype=np.int64)
    digits = np.array(words, dtype=np.int64).reshape(len(words), length) - first
    masks = shifts @ powers
    # blocks of words small enough that block x ball x length stays bounded
    step = max(1, (1 << 20) // (len(shifts) * (length + 1)))
    for lo in range(0, len(digits), step):
        block = digits[lo : lo + step]
        if alphabet == 2:
            yield from (block @ powers)[:, None] ^ masks
        else:
            yield from (block[:, None, :] + shifts) % alphabet @ powers


def _ball_counts(code: BinaryCoveringCode | KaryCoveringCode) -> np.ndarray:
    """For each word of the space, by index, how many codewords' balls hold it."""
    alphabet, _ = alphabet_and_first(code)
    check_space(alphabet, code.word_length)
    count = np.zeros(alphabet**code.word_length, dtype=np.int64)
    for ball in _balls(code):
        count[ball] += 1
    return count


def _greedy_cover_ints(length: int, radius: int) -> list[int]:
    """Greedy set cover of {0,1}^length by Hamming balls; deterministic."""
    if radius >= length:
        return [0]
    n_words = 1 << length
    if radius == 0:
        return list(range(n_words))
    masks = next(_balls(BinaryCoveringCode(length, radius, ((0,) * length,))))
    all_words = np.arange(n_words, dtype=np.int64)
    uncovered = np.ones(n_words, dtype=bool)
    code: list[int] = []
    while uncovered.any():
        counts = np.zeros(n_words, dtype=np.int64)
        for m in masks:
            counts += uncovered[all_words ^ m]
        # argmax returns the lowest index on ties
        pick = int(counts.argmax())
        code.append(pick)
        uncovered[pick ^ masks] = False
    return code


def build_binary_cover(word_length: int, *, radius: int) -> BinaryCoveringCode:
    """Greedy binary covering code of {0,1}^word_length at the given radius."""
    if word_length < 0:
        raise ValueError("negative word length")
    if not 0 <= radius <= word_length:
        raise ValueError(f"radius={radius} outside [0, {word_length}]")
    check_space(2, word_length)
    codewords = tuple(_word(x, 2, word_length, 0) for x in _greedy_cover_ints(word_length, radius))
    code = BinaryCoveringCode(word_length, radius, codewords)
    ok, witness = verify_cover(code)
    if not ok:
        raise RuntimeError(f"greedy cover failed to cover {witness}")
    return code


def kary_draw_bound(alphabet: int, word_length: int, radius: int) -> int:
    """Union-bound draw count: ceil(t ln(K) K^t / (C(t,s) (K-1)^s))."""
    k, t, s = alphabet, word_length, radius
    denom = math.comb(t, s) * (k - 1) ** s
    return math.ceil(t * math.log(k) * k**t / denom)


def build_kary_cover(
    alphabet: int, word_length: int, radius: int, seed: int = 0
) -> KaryCoveringCode:
    """Randomized K-ary covering code over {1..K}^t.

    Draws size_bound distinct random words (all of them if the space is
    smaller), then appends verify_cover's lexicographically first hole
    until there is none.
    """
    k, t, s = alphabet, word_length, radius
    if k < 2:
        raise ValueError(f"alphabet {k} too small")
    if not 0 <= s <= t:
        raise ValueError(f"radius={s} outside [0, {t}]")
    check_space(k, t)
    rng = random.Random(seed)
    if s == t:
        # any single word covers the whole space
        return KaryCoveringCode(k, t, s, (_kary_word(rng.randrange(k**t), k, t),))
    indices = rng.sample(range(k**t), min(kary_draw_bound(k, t, s), k**t))
    code = KaryCoveringCode(k, t, s, tuple(_kary_word(i, k, t) for i in indices))
    while (hole := verify_cover(code)[1]) is not None:
        code = replace(code, codewords=(*code.codewords, hole))
    return code


def verify_cover(code: BinaryCoveringCode | KaryCoveringCode) -> tuple[bool, Word | None]:
    """Exhaustive coverage check; returns (ok, first uncovered word or None).

    Counts every codeword's ball over the full word space, then scans it in
    lexicographic order.
    """
    alphabet, first = alphabet_and_first(code)
    count = _ball_counts(code)
    hole = int(count.argmin())
    return (True, None) if count[hole] else (False, _word(hole, alphabet, code.word_length, first))


def prune_cover(code: KaryCoveringCode) -> KaryCoveringCode:
    """The code without its redundant words: irredundant, and idempotent.

    Walks the codewords last first and drops each whose ball the other
    words still in the code cover, then verifies the result.  A kept
    word covers some word no other kept word covers, so pruning the
    result again drops nothing.  The kept words keep their order.
    """
    count = _ball_counts(code)
    keep = [True] * len(code.codewords)
    last_first = _balls(replace(code, codewords=code.codewords[::-1]))
    for i, ball in zip(reversed(range(len(keep))), last_first):
        if (count[ball] > 1).all():
            keep[i] = False
            count[ball] -= 1
    words = tuple(cw for cw, kept in zip(code.codewords, keep) if kept)
    pruned = replace(code, codewords=words)
    ok, witness = verify_cover(pruned)
    if not ok:
        raise RuntimeError(f"pruned cover fails to cover {witness}")
    return pruned


def write_cover(code: BinaryCoveringCode | KaryCoveringCode) -> str:
    """Text form: 'cover <alphabet> <word_length> <radius> <count>' + one word per line."""
    alphabet, first = alphabet_and_first(code)
    # a K-ary alphabet 2 would read back as binary; above 9 a symbol is not one digit
    if (alphabet, first) != (2, 0) and not 3 <= alphabet <= 9:
        raise ValueError(f"K-ary alphabet {alphabet} outside 3..9 for digit serialization")
    lines = ["".join(map(str, cw)) for cw in code.codewords]
    header = f"cover {alphabet} {code.word_length} {code.radius} {len(code.codewords)}"
    return "\n".join([header, *lines]) + "\n"


def read_cover(text: str) -> BinaryCoveringCode | KaryCoveringCode:
    """Inverse of write_cover; alphabet 2 reads as a binary code."""
    lines = text.splitlines()
    start = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if start is None or not lines[start].startswith("cover "):
        raise ValueError("missing cover header")
    parts = lines[start].split()
    if len(parts) != 5:
        raise ValueError(f"malformed cover header {lines[start]!r}")
    alphabet, word_length, radius, count = map(int, parts[1:])
    # the alphabets write_cover emits; the shapes every builder accepts
    if alphabet != 2 and not 3 <= alphabet <= 9:
        raise ValueError(f"alphabet {alphabet} outside 2..9")
    if not 0 <= radius <= word_length:
        raise ValueError(f"radius={radius} outside [0, {word_length}]")
    check_space(alphabet, word_length)
    body = lines[start + 1 :]
    if word_length:  # blank lines are skipped, unless they are zero-length words
        body = [ln for ln in body if ln.strip()]
    if len(body) != count:
        raise ValueError(f"header declares {count} codewords, found {len(body)}")
    symbols = range(2) if alphabet == 2 else range(1, alphabet + 1)
    words = []
    for ln in body:
        word = tuple(int(ch) for ch in ln.strip())
        if len(word) != word_length:
            raise ValueError(f"codeword {ln!r} has wrong length")
        if not all(sym in symbols for sym in word):
            raise ValueError(f"codeword {ln!r} has a symbol outside {symbols}")
        words.append(word)
    if alphabet == 2:
        return BinaryCoveringCode(word_length, radius, tuple(words))
    return KaryCoveringCode(alphabet, word_length, radius, tuple(words))
