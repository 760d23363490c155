"""Covering codes for ball search.

One value type, CoveringCode, serves both uses: alphabet 2 codes are
assignments over symbols 0/1, larger alphabets are repair moves over
symbols 1..K.  Binary covers of assignment space come from a greedy
set-cover pass; K-ary covers of flip-word space are drawn at random to
a union-bound size and repaired if the draw leaves holes.  prune_cover
drops the words of a cover that the others make redundant.
Construction and pruning always verify coverage before returning.
Every code reads its Hamming balls from one enumeration, _balls.
cover() is the solver's one entry point: it picks the builder and seed
for a shape, prunes, and keeps the in-memory and on-disk caches.
"""

from __future__ import annotations

import functools
import math
import random
import re
from dataclasses import dataclass, replace
from itertools import combinations, product
from pathlib import Path
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
class CoveringCode:
    alphabet: int            # symbols are first..first + alphabet - 1
    word_length: int
    radius: int
    codewords: tuple[Word, ...]

    @property
    def first(self) -> int:
        """First symbol: 0 for alphabet 2 (assignments), 1 above (repair moves)."""
        return 0 if self.alphabet == 2 else 1

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


def _balls(code: CoveringCode) -> Iterator[np.ndarray]:
    """Each codeword's ball as word-space indices, one array per word, in order.

    A word's index is its rank in lexicographic order.  In binary a shift
    row is a bit mask, so a ball is the word's index XOR the masks (adding
    mod 2 took 10-30x longer, 2 vCPU, CPython 3.11).
    """
    alphabet, length, words = code.alphabet, code.word_length, code.codewords
    shifts = _shift_table(alphabet, length, code.radius)
    powers = alphabet ** np.arange(length - 1, -1, -1, dtype=np.int64)
    digits = np.array(words, dtype=np.int64).reshape(len(words), length) - code.first
    masks = shifts @ powers
    # blocks of words small enough that block x ball x length stays bounded
    step = max(1, (1 << 20) // (len(shifts) * (length + 1)))
    for lo in range(0, len(digits), step):
        block = digits[lo : lo + step]
        if alphabet == 2:
            yield from (block @ powers)[:, None] ^ masks
        else:
            yield from (block[:, None, :] + shifts) % alphabet @ powers


def _ball_counts(code: CoveringCode) -> np.ndarray:
    """For each word of the space, by index, how many codewords' balls hold it."""
    check_space(code.alphabet, code.word_length)
    count = np.zeros(code.alphabet**code.word_length, dtype=np.int64)
    for ball in _balls(code):
        count[ball] += 1
    return count


def _greedy_cover_ints(length: int, radius: int) -> list[int]:
    """Greedy set cover of {0,1}^length by Hamming balls; deterministic.

    counts[w] is how many uncovered words w's ball holds; each word a pick
    newly covers takes one off the counts of its ball, 2^length x |ball|
    updates in all, in blocks of at most max(2^16, |ball|) to bound the temporary.
    """
    if radius >= length:
        return [0]
    if radius == 0:
        return list(range(1 << length))
    masks = next(_balls(CoveringCode(2, length, radius, ((0,) * length,))))
    uncovered = np.ones(1 << length, dtype=bool)
    counts = np.full(1 << length, len(masks), dtype=np.int64)
    step = max(1, (1 << 16) // len(masks))
    code: list[int] = []
    # argmax returns the lowest index on ties; a zero count means all is covered
    while counts[pick := int(counts.argmax())]:
        code.append(pick)
        ball = pick ^ masks
        new = ball[uncovered[ball]]
        uncovered[new] = False
        for lo in range(0, len(new), step):
            np.subtract.at(counts, (new[lo : lo + step, None] ^ masks).ravel(), 1)
    return code


def build_binary_cover(word_length: int, *, radius: int) -> CoveringCode:
    """Greedy binary covering code of {0,1}^word_length at the given radius."""
    if word_length < 0:
        raise ValueError("negative word length")
    if not 0 <= radius <= word_length:
        raise ValueError(f"radius={radius} outside [0, {word_length}]")
    check_space(2, word_length)
    codewords = tuple(_word(x, 2, word_length, 0) for x in _greedy_cover_ints(word_length, radius))
    code = CoveringCode(2, word_length, radius, codewords)
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
) -> CoveringCode:
    """Randomized K-ary covering code over {1..K}^t, K >= 3.

    Draws size_bound distinct random words (all of them if the space is
    smaller), then appends verify_cover's lexicographically first hole
    until there is none.  Alphabet 2 is build_binary_cover's, over 0/1.
    """
    k, t, s = alphabet, word_length, radius
    if k < 3:
        raise ValueError(f"alphabet {k} too small")
    if not 0 <= s <= t:
        raise ValueError(f"radius={s} outside [0, {t}]")
    check_space(k, t)
    rng = random.Random(seed)
    if s == t:
        # any single word covers the whole space
        return CoveringCode(k, t, s, (_kary_word(rng.randrange(k**t), k, t),))
    draw = np.array(rng.sample(range(k**t), min(kary_draw_bound(k, t, s), k**t)))
    digits = draw[:, None] // k ** np.arange(t - 1, -1, -1) % k + 1
    code = CoveringCode(k, t, s, tuple(map(tuple, digits.tolist())))
    while (hole := verify_cover(code)[1]) is not None:
        code = replace(code, codewords=(*code.codewords, hole))
    return code


def verify_cover(code: CoveringCode) -> tuple[bool, Word | None]:
    """Exhaustive coverage check; returns (ok, first uncovered word or None).

    Counts every codeword's ball over the full word space, then scans it in
    lexicographic order.
    """
    count = _ball_counts(code)
    hole = int(count.argmin())
    word = None if count[hole] else _word(hole, code.alphabet, code.word_length, code.first)
    return word is None, word


def prune_cover(code: CoveringCode) -> CoveringCode:
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


def write_cover(code: CoveringCode) -> str:
    """Text form: 'cover <alphabet> <word_length> <radius> <count>' + one word per line."""
    # above 9 a symbol is not one digit
    if not 2 <= code.alphabet <= 9:
        raise ValueError(f"alphabet {code.alphabet} outside 2..9 for digit serialization")
    lines = ["".join(map(str, cw)) for cw in code.codewords]
    header = f"cover {code.alphabet} {code.word_length} {code.radius} {len(code.codewords)}"
    return "\n".join([header, *lines]) + "\n"


def read_cover(text: str) -> CoveringCode:
    """Inverse of write_cover."""
    lines = text.splitlines()
    start = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if start is None or not lines[start].startswith("cover "):
        raise ValueError("missing cover header")
    parts = lines[start].split()
    # ASCII digits only (int() also reads "1_0" and other scripts'); "-" gets to the range checks
    if len(parts) != 5 or not all(re.fullmatch(r"-?[0-9]+", field) for field in parts[1:]):
        raise ValueError(f"malformed cover header {lines[start]!r}")
    alphabet, word_length, radius, count = map(int, parts[1:])
    # the alphabets write_cover emits; the shapes every builder accepts
    if not 2 <= alphabet <= 9:
        raise ValueError(f"alphabet {alphabet} outside 2..9")
    if not 0 <= radius <= word_length:
        raise ValueError(f"radius={radius} outside [0, {word_length}]")
    check_space(alphabet, word_length)
    body = lines[start + 1 :]
    if word_length:  # blank lines are skipped, unless they are zero-length words
        body = [ln for ln in body if ln.strip()]
    if len(body) != count:
        raise ValueError(f"header declares {count} codewords, found {len(body)}")
    code = CoveringCode(alphabet, word_length, radius, ())
    symbols = range(code.first, code.first + alphabet)
    words = []
    for ln in body:
        word = ln.strip()
        if len(word) != word_length:
            raise ValueError(f"codeword {ln!r} has wrong length")
        if not all(ch in "0123456789" and int(ch) in symbols for ch in word):
            raise ValueError(f"codeword {ln!r} has a symbol outside {symbols}")
        words.append(tuple(map(int, word)))
    return replace(code, codewords=tuple(words))


@functools.cache
def _build_cover(alphabet: int, length: int, radius: int, text: str | None = None) -> CoveringCode:
    """The code of a shape, kept per process: read from a cover file's text, else built.

    A text is shape-checked and verified; a built K-ary code is seeded by
    its shape.  Every code is pruned here, once per process and text: each
    binary word is a dispatched ball, each K-ary word a descent branch.
    Nothing is evicted: check_space caps a sweep cover (2, L, L // K) at
    L <= 23 and a repair code (K, K, 1) at K <= 7, so the shapes are few,
    and a rebuild would cost the whole build again, 1.7 s at (2, 17, 5)
    and 7.1 s at (7, 7, 1) (2 vCPU, CPython 3.11).
    """
    if text is None and alphabet == 2:
        code = build_binary_cover(length, radius=radius)
    elif text is None:
        code = build_kary_cover(alphabet, length, radius, alphabet * 10007 + length * 101 + radius)
    else:
        code = read_cover(text)
        shape = (code.alphabet, code.word_length, code.radius)
        if shape != (alphabet, length, radius):
            raise ValueError(f"shape does not match: {shape}, want {(alphabet, length, radius)}")
        ok, witness = verify_cover(code)
        if not ok:
            raise ValueError(f"does not cover {witness}")
    return prune_cover(code)


def cover(alphabet: int, length: int, radius: int, cache_dir: str | Path | None = None) -> CoveringCode:
    """The solver's code of this shape: the greedy sweep cover at alphabet 2, else the repair code.

    A file in `cache_dir` always wins: it is read on every call and checked
    once per text per process, so an edited file is checked again; a
    missing one is built and written.  A file is pruned like a built code;
    pruning is idempotent, so a file of the unpruned draw gives the same
    code.  A cache path that cannot be used raises ValueError naming it.
    """
    if cache_dir is None:
        return _build_cover(alphabet, length, radius)
    if alphabet == 2:
        name = f"bin-{length}-r{radius}.cover"
    else:
        name = f"kary-{alphabet}-t{length}-s{radius}.cover"
    path = Path(cache_dir) / name
    try:
        return _build_cover(alphabet, length, radius, path.read_text())
    except FileNotFoundError:
        pass
    except (OSError, ValueError) as exc:
        raise ValueError(f"cover cache {path}: {exc}") from None
    code = _build_cover(alphabet, length, radius)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(write_cover(code))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cover cache {path}: {exc}") from None
    return code
