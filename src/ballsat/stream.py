"""numpy's seeded stream in Python ints: SeedSequence(entropy) into PCG64.

A solve's randomness is two streams of default_rng(SeedSequence(entropy)):
the prefix order, which Generator.permutation(n) draws, and each
dispatch's leaf draws, which Generator.random reads.  This module
computes both bit for bit without loading numpy.random.  `pcg64` mixes
the entropy words into SeedSequence's pool of four and seeds the
128-bit LCG from its first four 64-bit outputs; `doubles` jumps the LCG
to a stream position, as PCG64.advance does, and reads doubles from its
XSL-RR outputs; `permutation` is Generator.shuffle's Fisher-Yates on a
1-D array, each index drawn by numpy's random_interval from 32-bit
halves of the outputs, low half first.  An entropy is a sequence of
non-negative ints, each split into 32-bit words, least significant
first, and 0 into one word.
"""

from __future__ import annotations

from array import array

_M32 = 0xFFFFFFFF
_M53 = (1 << 53) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence's hash constants, and its pool of four 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG64's LCG multiplier; state <- state * _MULT + inc (mod 2^128) per output
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy: tuple[int, ...]) -> list[int]:
    """The 32-bit words SeedSequence reads from its entropy."""
    words = []
    for value in entropy:
        if value < 0:
            raise ValueError(f"entropy word {value} negative")
        words.append(value & _M32)
        while value := value >> 32:
            words.append(value & _M32)
    return words


def pcg64(entropy: tuple[int, ...]) -> tuple[int, int]:
    """(state, increment) of PCG64(SeedSequence(entropy)) before its first output."""
    words = _words(entropy)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    # mix every pool word into the others, then each word past the pool into all
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    out, hash_const = [], _INIT_B
    for value in pool + pool:
        value ^= hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    seed = out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2]
    inc = (out[5] << 96 | out[4] << 64 | out[7] << 32 | out[6]) << 1 & _M128 | 1
    # pcg_setseq_128_srandom_r: step from 0, add the seed, step again
    return ((inc + seed) * _MULT + inc) & _M128, inc


def doubles(entropy: tuple[int, ...], start: int, count: int) -> tuple[float, ...]:
    """Generator.random(count) after advance(start): stream positions start..start+count-1.

    An XSL-RR output is the state's halves xor-ed, rotated right by the
    state's top 6 bits; a double is its top 53 bits.
    """
    state, inc = pcg64(entropy)
    mult, m128, m64 = _MULT, _M128, _M64
    # start steps at once: a^start * state + inc * (a^start - 1) / (a - 1), mod 2^128
    power = pow(mult, start, (mult - 1) << 128)
    state = (power * state + inc * ((power - 1) // (mult - 1))) & m128
    out = []
    for _ in range(count):
        state = (state * mult + inc) & m128
        word = (state >> 64) ^ (state & m64)
        out.append(((word << 64 | word) >> ((state >> 122) + 11) & _M53) * 2.0**-53)
    return tuple(out)


def permutation(entropy: tuple[int, ...], n: int) -> array:
    """Generator.permutation(n) as array('I'), for n up to 2^32.

    Fisher-Yates from the last index down: index i swaps with a draw in
    [0, i], the low bits of 32-bit halves under i's bit mask, a draw
    above i rejected.
    """
    order = array("I", range(n))
    state, inc = pcg64(entropy)
    mult, m128, m64 = _MULT, _M128, _M64
    half = -1   # the buffered high half of the last output, or -1
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if half < 0:
                state = (state * mult + inc) & m128
                word = (state >> 64) ^ (state & m64)
                word = (word << 64 | word) >> (state >> 122) & m64
                j, half = word & mask, word >> 32
            else:
                j, half = half & mask, -1
            if j <= i:
                break
        order[i], order[j] = order[j], order[i]
    return order
