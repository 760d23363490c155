"""The stream module against numpy's SeedSequence, PCG64 and Generator."""

import random

import numpy as np
import pytest

from ballsat import stream

# 1-5 entries at the 32- and 64-bit edges, and seeded random 64-bit values;
# five 64-bit entries are ten words, more than SeedSequence's pool of four
EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1]
_rng = random.Random(38)
ENTROPIES = (
    [(value,) for value in EDGES]
    + [tuple(EDGES), tuple(EDGES) + (5,), (0, 0, 0, 0, 0), (7, 1, 0), (2**63, 12, 5)]
    + [tuple(_rng.getrandbits(64) for _ in range(size)) for size in (1, 2, 3, 4, 5, 5)]
)


def generator(entropy):
    return np.random.default_rng(np.random.SeedSequence(entropy))


@pytest.mark.parametrize("entropy", ENTROPIES, ids=str)
def test_doubles_from_the_start_are_generator_random(entropy):
    want = generator(entropy).random(50).tolist()
    assert stream.doubles(entropy, 0, 50) == tuple(want)
    assert stream.doubles(entropy, 0, 0) == ()


@pytest.mark.parametrize("entropy", ENTROPIES, ids=str)
@pytest.mark.parametrize("start", [1, 23, 24, 1000, 2**40 + 3, 2**127 + 9])
def test_doubles_after_a_jump_are_the_advanced_generator(entropy, start):
    gen = generator(entropy)
    gen.bit_generator.advance(start)
    assert stream.doubles(entropy, start, 7) == tuple(gen.random(7).tolist())


@pytest.mark.parametrize("entropy", ENTROPIES[:4] + ENTROPIES[-3:], ids=str)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 100, 257, 4096, 5000])
def test_permutation_is_generator_permutation(entropy, n):
    # 5000 and 257 reject draws under masks well above the index
    order = stream.permutation(entropy, n)
    assert order.typecode == "I" and order.itemsize == 4
    assert order.tolist() == generator(entropy).permutation(n).tolist()


def test_seeding_reads_the_state_pcg64_holds():
    for entropy in ENTROPIES:
        state = generator(entropy).bit_generator.state["state"]
        assert stream.pcg64(entropy) == (state["state"], state["inc"])


def test_negative_entropy_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.SeedSequence((1, -1))
    with pytest.raises(ValueError, match="negative"):
        stream.pcg64((1, -1))
