import dataclasses
import hashlib
import math
import random
from itertools import product

import numpy as np
import pytest

from ballsat.codes import (
    BinaryCoveringCode,
    KaryCoveringCode,
    build_binary_cover,
    build_kary_cover,
    kary_draw_bound,
    prune_cover,
    read_cover,
    verify_cover,
    write_cover,
)


def ball_volume(n, r):
    return sum(math.comb(n, i) for i in range(r + 1))


class TestBinaryCover:
    def test_three_bit_repetition(self):
        code = build_binary_cover(3, radius=1)
        assert code.codewords == ((0, 0, 0), (1, 1, 1))

    def test_deterministic(self):
        a = build_binary_cover(10, radius=3)
        b = build_binary_cover(10, radius=3)
        assert a == b

    def test_radius_zero_is_whole_space(self):
        code = build_binary_cover(3, radius=0)
        assert len(code.codewords) == 8

    def test_zero_length(self):
        code = build_binary_cover(0, radius=0)
        assert code.codewords == ((),)
        assert verify_cover(code) == (True, None)

    @pytest.mark.parametrize("n,r", [(4, 1), (6, 2), (8, 2), (10, 3), (12, 4)])
    def test_covers_and_respects_volume_bound(self, n, r):
        code = build_binary_cover(n, radius=r)
        ok, witness = verify_cover(code)
        assert ok, witness
        assert len(code.codewords) >= 2**n / ball_volume(n, r)

    def test_word_length_cap(self):
        with pytest.raises(ValueError):
            build_binary_cover(25, radius=1)


class TestKaryCover:
    def test_small_cover_shape(self):
        code = build_kary_cover(3, 3, 1, seed=7)
        assert code.alphabet == 3 and code.word_length == 3 and code.radius == 1
        assert len(code.codewords) == len(set(code.codewords))
        assert all(len(w) == 3 and all(1 <= s <= 3 for s in w) for w in code.codewords)
        ok, witness = verify_cover(code)
        assert ok, witness

    def test_draw_bound_value(self):
        # t*ln(K)*K^t / (C(t,s)*(K-1)^s) for K=3, t=3, s=1: 3*ln3*27/(3*2)
        expect = math.ceil(3 * math.log(3) * 27 / 6)
        assert kary_draw_bound(3, 3, 1) == expect == 15

    def test_size_within_bound(self):
        for seed in range(10):
            code = build_kary_cover(3, 3, 1, seed=seed)
            assert len(code.codewords) <= code.size_bound or code.repaired

    def test_radius_equals_length(self):
        code = build_kary_cover(3, 2, 2, seed=0)
        assert len(code.codewords) == 1
        assert verify_cover(code)[0]

    def test_zero_length(self):
        code = build_kary_cover(3, 0, 0, seed=0)
        assert code.codewords == ((),)
        assert verify_cover(code)[0]

    def test_k4_cover(self):
        code = build_kary_cover(4, 4, 1, seed=5)
        ok, witness = verify_cover(code)
        assert ok, witness

    def test_plain_value_with_derived_fields(self):
        # size_bound and repaired follow from the four fields, so a code read
        # back from its text form carries the builder's values
        fields = [fld.name for fld in dataclasses.fields(KaryCoveringCode)]
        assert fields == ["alphabet", "word_length", "radius", "codewords"]
        assert build_kary_cover(3, 2, 2, seed=0).size_bound == 1
        assert build_kary_cover(3, 3, 1, seed=0).size_bound == kary_draw_bound(3, 3, 1)
        assert not build_kary_cover(3, 3, 1, seed=0).repaired
        assert build_kary_cover(4, 4, 1, seed=6).repaired

    def test_repair_closes_holes(self):
        # whatever the draws missed, the repaired code must still cover
        flagged = 0
        for seed in range(25):
            code = build_kary_cover(3, 4, 1, seed=seed)
            assert verify_cover(code)[0]
            flagged += code.repaired
        assert flagged <= 25  # bookkeeping only; coverage is the hard assert


# sha256 of write_cover(build_kary_cover(K, t, s, seed)); seeds 6 and 2 need repair
KARY_PINS = {
    (3, 3, 1, 0): "1e11616e7a8c6de1a32d7583c81824d092e936569351c5e75157b8cad4a3303a",
    (4, 4, 1, 0): "19e5a06b724118582cf23817bec1c28cb01948e136f5de63ce3bb7f8abd04274",
    (4, 4, 1, 6): "1bc3a0998049edec68a82ef9e126914873809d5f2a06580a198aa973bd41e757",
    (3, 8, 2, 1): "7a040e8109da7e54846268e64c0c642db905b11f0db2b69b753dc09bb30612ae",
    (3, 8, 2, 2): "9399dc3ee8357764aeb82f825e61d25f09057ed9d51edf8483477b58bf7543e1",
}


@pytest.mark.parametrize("k,t,s,seed", sorted(KARY_PINS))
def test_kary_construction_pinned(k, t, s, seed):
    code = build_kary_cover(k, t, s, seed=seed)
    assert code.repaired == (seed in (2, 6))
    digest = hashlib.sha256(write_cover(code).encode()).hexdigest()
    assert digest == KARY_PINS[k, t, s, seed]


class TestPrune:
    @pytest.mark.parametrize(
        "k,t,s,seed", [(3, 3, 1, 0), (3, 3, 1, 30335), (4, 4, 1, 40449), (3, 4, 1, 6), (3, 5, 2, 2)]
    )
    def test_irredundant_subsequence(self, k, t, s, seed):
        built = build_kary_cover(k, t, s, seed=seed)
        pruned = prune_cover(built)
        assert verify_cover(pruned) == (True, None)
        # the kept words in their built order
        kept = iter(built.codewords)
        assert all(word in kept for word in pruned.codewords)
        # every kept word covers a word no other one does
        for i in range(len(pruned.codewords)):
            rest = pruned.codewords[:i] + pruned.codewords[i + 1 :]
            assert not verify_cover(dataclasses.replace(pruned, codewords=rest))[0]
        assert prune_cover(pruned) == pruned

    @pytest.mark.parametrize(
        "k,drawn,kept", [(3, 15, 6), (4, 119, 39), (5, 1258, 359), (6, 16720, 4060)]
    )
    def test_repair_codes_near_their_covering_bound(self, k, drawn, kept):
        # the (K, K, 1) code the solver uses, seeded K*10007 + K*101 + 1
        built = build_kary_cover(k, k, 1, seed=k * 10108 + 1)
        assert (len(built.codewords), len(prune_cover(built).codewords)) == (drawn, kept)

    def test_later_duplicate_dropped(self):
        code = KaryCoveringCode(3, 1, 0, ((1,), (2,), (3,), (2,)))
        assert prune_cover(code).codewords == ((1,), (2,), (3,))

    def test_pruned_code_reads_unrepaired(self):
        # repaired describes the builder's draw; a pruned code is shorter than it
        built = build_kary_cover(4, 4, 1, seed=6)
        assert built.repaired and not prune_cover(built).repaired


class TestVerify:
    def test_reports_lex_first_hole(self):
        broken = BinaryCoveringCode(3, 0, ((1, 1, 1),))
        ok, witness = verify_cover(broken)
        assert not ok and witness == (0, 0, 0)

    def test_kary_hole(self):
        broken = KaryCoveringCode(3, 2, 0, ((3, 3),))
        ok, witness = verify_cover(broken)
        assert not ok and witness == (1, 1)


class TestSerialization:
    def test_header_format(self):
        code = build_binary_cover(3, radius=1)
        text = write_cover(code)
        assert text.splitlines()[0] == "cover 2 3 1 2"
        assert text.splitlines()[1:] == ["000", "111"]

    def test_binary_round_trip(self):
        code = build_binary_cover(6, radius=2)
        assert read_cover(write_cover(code)) == code

    def test_kary_round_trip(self):
        # (4,4,1) seed 6 and (3,8,2) seed 2 are repaired; (3,2,2) has s = t
        for k, t, s, seed in [(3, 3, 1, 7), (4, 4, 1, 6), (3, 2, 2, 0), (3, 8, 2, 2)]:
            code = build_kary_cover(k, t, s, seed=seed)
            assert read_cover(write_cover(code)) == code

    @pytest.mark.parametrize("kind", ["binary", "kary"])
    def test_zero_length_round_trip(self, kind):
        # the one codeword is the empty word, written as a blank line
        code = build_binary_cover(0, radius=0) if kind == "binary" else build_kary_cover(3, 0, 0)
        assert write_cover(code).endswith(" 0 0 1\n\n")
        assert read_cover(write_cover(code)) == code

    def test_blank_lines_skipped_in_nonzero_length_code(self):
        code = read_cover("\ncover 2 3 1 2\n\n000\n\n111\n\n")
        assert code == BinaryCoveringCode(3, 1, ((0, 0, 0), (1, 1, 1)))

    @pytest.mark.parametrize("alphabet", [2, 10])
    def test_kary_alphabet_without_digit_form_rejected(self, alphabet):
        # a K=2 file would read back as a binary code over symbols 0/1
        code = KaryCoveringCode(alphabet, 2, 1, ((1, 2), (2, 1)))
        with pytest.raises(ValueError, match="alphabet"):
            write_cover(code)

    def test_bad_header(self):
        with pytest.raises(ValueError):
            read_cover("not a cover\n000\n")

    @pytest.mark.parametrize(
        "text", ["cover 2 2 0 1\n12\n", "cover 3 2 1 1\n30\n", "cover 3 2 1 1\n14\n"]
    )
    def test_symbol_outside_alphabet(self, text):
        with pytest.raises(ValueError, match="outside"):
            read_cover(text)

    @pytest.mark.parametrize("text,message", [
        pytest.param("cover 1 3 1 1\n111\n", "alphabet", id="alphabet-1"),
        pytest.param("cover 0 0 0 1\n\n", "alphabet", id="alphabet-0"),
        pytest.param("cover 3 3 4 1\n111\n", "radius", id="kary-radius-above-length"),
        pytest.param("cover 2 2 3 1\n01\n", "radius", id="binary-radius-above-length"),
        pytest.param("cover 3 2 -1 1\n11\n", "radius", id="negative-radius"),
        pytest.param("cover 3 700 1 1\n" + "1" * 700 + "\n", "too large", id="space-too-large"),
    ])
    def test_header_outside_buildable_shapes(self, text, message):
        with pytest.raises(ValueError, match=message):
            read_cover(text)


def _space(alphabet, first, length):
    """Every word of the space, one row each, in lexicographic order."""
    words = list(product(range(first, first + alphabet), repeat=length))
    return np.array(words, dtype=np.int64).reshape(len(words), length)


def _within(code, space):
    """within[i, v]: word v lies within the radius of codeword i, by Hamming distance."""
    shape = (len(code.codewords), code.word_length)
    words = np.array(code.codewords, dtype=np.int64).reshape(shape)
    dist = np.zeros((len(words), len(space)), dtype=np.int64)
    for j in range(code.word_length):
        dist += words[:, j, None] != space[None, :, j]
    return dist <= code.radius


def _reference_verify(code, within, space):
    covered = within.any(axis=0)
    if covered.all():
        return True, None
    return False, tuple(map(int, space[int(covered.argmin())]))


def _reference_prune(code, within):
    """Last word first, drop each word whose ball the other kept words cover."""
    kept = [True] * len(code.codewords)
    # kept[i] counts once in covering[v] for each v within the ball of word i
    covering = within.sum(axis=0)
    for i in reversed(range(len(kept))):
        if (covering[within[i]] > 1).all():
            kept[i] = False
            covering -= within[i]
    return tuple(cw for cw, keep in zip(code.codewords, kept) if keep)


@pytest.mark.parametrize(
    "alphabet,length",
    [(2, t) for t in range(9)] + [(k, t) for k in (3, 4, 5) for t in range(6)],
)
def test_ball_engine_against_hamming_distance(alphabet, length):
    # random codes with repeated words, at every radius: verify_cover's
    # answer and prune_cover's kept words equal a distance brute force
    first = 0 if alphabet == 2 else 1
    space = _space(alphabet, first, length)
    rng = random.Random(alphabet * 100 + length)
    for radius in range(length + 1):
        drawn = [tuple(map(int, rng.choice(space))) for _ in range(rng.randrange(12))]
        words = tuple(drawn + rng.choices(drawn, k=len(drawn) // 3))
        if alphabet == 2:
            code = BinaryCoveringCode(length, radius, words)
        else:
            code = KaryCoveringCode(alphabet, length, radius, words)
        within = _within(code, space)
        ok, hole = verify_cover(code)
        assert (ok, hole) == _reference_verify(code, within, space)
        if alphabet == 2:
            continue  # the solver prunes K-ary codes only
        # complete the draw with its holes, shuffled in among the drawn words
        holes = [tuple(map(int, w)) for w in space[~within.any(axis=0)]]
        words = list(words) + holes
        rng.shuffle(words)
        full = dataclasses.replace(code, codewords=tuple(words))
        expect = _reference_prune(full, _within(full, space))
        assert prune_cover(full).codewords == expect
        if not ok:
            with pytest.raises(RuntimeError, match="fails to cover"):
                prune_cover(code)
