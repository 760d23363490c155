"""Covering codes for ball search.

Binary covers of assignment space come from a greedy set-cover pass;
K-ary covers of flip-word space are drawn at random to a union-bound
size and repaired if the draw leaves holes.  prune_cover drops the
words of a cover that the others make redundant.  Construction and
pruning always verify coverage before returning.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import Iterable, Sequence

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


def _int_to_bits(x: int, length: int) -> Word:
    return tuple((x >> (length - 1 - j)) & 1 for j in range(length))


def _bits_to_int(bits: Sequence[int]) -> int:
    x = 0
    for b in bits:
        x = (x << 1) | b
    return x


def _ball_masks(length: int, radius: int) -> list[int]:
    masks = [0]
    for dist in range(1, min(radius, length) + 1):
        for positions in combinations(range(length), dist):
            m = 0
            for p in positions:
                m |= 1 << p
            masks.append(m)
    return masks


def _greedy_cover_ints(length: int, radius: int) -> list[int]:
    """Greedy set cover of {0,1}^length by Hamming balls; deterministic."""
    if radius >= length:
        return [0]
    n_words = 1 << length
    if radius == 0:
        return list(range(n_words))
    masks = np.array(_ball_masks(length, radius), dtype=np.int64)
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
    codewords = tuple(
        _int_to_bits(x, word_length) for x in _greedy_cover_ints(word_length, radius)
    )
    code = BinaryCoveringCode(word_length, radius, codewords)
    ok, witness = verify_cover(code)
    if not ok:
        raise RuntimeError(f"greedy cover failed to cover {witness}")
    return code


def _kary_index(word: Sequence[int], alphabet: int) -> int:
    x = 0
    for sym in word:
        x = x * alphabet + (sym - 1)
    return x


def _kary_word(index: int, alphabet: int, length: int) -> Word:
    syms = []
    for _ in range(length):
        index, rem = divmod(index, alphabet)
        syms.append(rem + 1)
    return tuple(reversed(syms))


def _kary_ball_indices(word: Word, radius: int, alphabet: int) -> Iterable[int]:
    t = len(word)
    others = {s: [x for x in range(1, alphabet + 1) if x != s] for s in range(1, alphabet + 1)}
    for dist in range(0, min(radius, t) + 1):
        for positions in combinations(range(t), dist):
            pools = [others[word[p]] for p in positions]
            for repl in product(*pools):
                changed = list(word)
                for p, sym in zip(positions, repl):
                    changed[p] = sym
                yield _kary_index(changed, alphabet)


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

    Marks every codeword's ball over the full word space, then scans it in
    lexicographic order.
    """
    length = code.word_length
    if isinstance(code, BinaryCoveringCode):
        masks = _ball_masks(length, code.radius)
        balls = ([x ^ m for m in masks] for x in map(_bits_to_int, code.codewords))
        # mask indexing uses LSB-at-right ints; lexicographic word order
        # over MSB-first bit tuples is plain numeric order on them
        total, word_at = 1 << length, lambda i: _int_to_bits(i, length)
    else:
        k = code.alphabet
        check_space(k, length)
        balls = (_kary_ball_indices(cw, code.radius, k) for cw in code.codewords)
        total, word_at = k**length, lambda i: _kary_word(i, k, length)
    covered = bytearray(total)
    for ball in balls:
        for idx in ball:
            covered[idx] = 1
    hole = covered.find(0)
    return (True, None) if hole < 0 else (False, word_at(hole))


def prune_cover(code: KaryCoveringCode) -> KaryCoveringCode:
    """The code without its redundant words: irredundant, and idempotent.

    Walks the codewords last first and drops each whose ball the other
    words still in the code cover, then verifies the result.  A kept
    word covers some word no other kept word covers, so pruning the
    result again drops nothing.  The kept words keep their order.
    """
    k, t = code.alphabet, code.word_length
    check_space(k, t)
    balls = [list(_kary_ball_indices(cw, code.radius, k)) for cw in code.codewords]
    count = [0] * k**t
    for b in balls:
        for idx in b:
            count[idx] += 1
    keep = [True] * len(balls)
    for i in reversed(range(len(balls))):
        if all(count[idx] > 1 for idx in balls[i]):
            keep[i] = False
            for idx in balls[i]:
                count[idx] -= 1
    words = tuple(cw for cw, kept in zip(code.codewords, keep) if kept)
    pruned = replace(code, codewords=words)
    ok, witness = verify_cover(pruned)
    if not ok:
        raise RuntimeError(f"pruned cover fails to cover {witness}")
    return pruned


def write_cover(code: BinaryCoveringCode | KaryCoveringCode) -> str:
    """Text form: 'cover <alphabet> <word_length> <radius> <count>' + one word per line."""
    if isinstance(code, BinaryCoveringCode):
        alphabet = 2
    else:
        alphabet = code.alphabet
        # alphabet 2 would read back as binary; above 9 a symbol is not one digit
        if not 3 <= alphabet <= 9:
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
