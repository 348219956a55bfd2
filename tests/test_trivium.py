import random
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhesim import trivium
from fhesim.modarith import is_prime
from fhesim.trivium import TriviumLanes, trivium_stream, uniform_residues
from fhesim.verify import block_sampled, trivium_bit_serial


def test_deterministic():
    assert trivium_stream(42, 100) == trivium_stream(42, 100)


def test_adjacent_seeds_differ():
    for s in (0, 5, 1 << 40):
        assert trivium_stream(s, 1) != trivium_stream(s + 1, 1)


def test_matches_bit_serial_reference():
    rng = random.Random(9)
    for _ in range(4):
        seed = rng.getrandbits(64)
        assert trivium_stream(seed, 300) == trivium_bit_serial(seed, 300)


def test_first_words_nonzero_and_distinct():
    words = trivium_stream(0xAB, 64)
    assert any(words)
    assert len(set(words)) > 60


def test_state_emits_one_word_per_round():
    st = TriviumLanes([7])
    a = st.words(1)[0, 0]
    b = st.words(1)[0, 0]
    assert [a, b] == trivium_stream(7, 2)


def test_residue_sampler_uniform_range():
    q = (1 << 45) - 55  # arbitrary 45-bit odd modulus for range checks
    vals = uniform_residues([11], [q], 4000)[0].tolist()
    assert all(0 <= v < q for v in vals)
    mean = sum(vals) / len(vals)
    assert abs(mean / q - 0.5) < 0.05
    # deterministic given the seed
    assert uniform_residues([11], [q], 100).tolist() == \
        uniform_residues([11], [q], 100).tolist()


def test_residue_sampler_rejection_small_modulus():
    # bitlen mask keeps acceptance >= 1/2, values still exact-uniform range
    vals = uniform_residues([3], [97], 2000)[0].tolist()
    assert all(0 <= v < 97 for v in vals)
    assert len(set(vals)) > 90


# ---------------------------------------------------------------------------
# Lane-packed generator and batched sampler

ONES = (1 << 64) - 1
LANE_WORDS = 40


@lru_cache(maxsize=None)
def _bit_serial(seed: int, count: int) -> tuple:
    return tuple(trivium_bit_serial(seed, count))


def _lane_seeds(lanes: int) -> list:
    # Seeds 0, 1 and 2^64-1 first, then all-ones and all-zero lanes side by
    # side (a bit that crosses a lane boundary shows up in both), then random.
    rng = random.Random(lanes)
    pattern = [0, ONES, 1, ONES, 0, 0, ONES, ONES]
    return [pattern[i] if i < len(pattern) else rng.getrandbits(64) for i in range(lanes)]


@pytest.mark.parametrize("lanes", [1, 2, 8, 33])
def test_lane_keystream_matches_bit_serial(lanes):
    seeds = _lane_seeds(lanes)
    words = TriviumLanes(seeds).words(LANE_WORDS)
    assert words.shape == (LANE_WORDS, lanes) and words.dtype == np.uint64
    for i, seed in enumerate(seeds):
        assert tuple(words[:, i].tolist()) == _bit_serial(seed, LANE_WORDS), f"lane {i}"


def test_lane_words_continue_across_calls_and_chunks():
    seeds = [ONES, 0, 12345]
    gen = TriviumLanes(seeds)
    first = gen.words(3)
    rest = gen.words(LANE_WORDS - 3)
    both = np.concatenate((first, rest))
    for i, seed in enumerate(seeds):
        assert tuple(both[:, i].tolist()) == _bit_serial(seed, LANE_WORDS)
    # more rounds than one conversion chunk: 40 lanes take 819 rounds at a time
    assert trivium_stream(ONES, 1200) == trivium_bit_serial(ONES, 1200)
    many = TriviumLanes([ONES] * 40)
    assert many.chunk_rounds < 1200
    words = many.words(1200)
    assert words[:, 0].tolist() == words[:, 39].tolist() == trivium_bit_serial(ONES, 1200)


@pytest.mark.parametrize("seeds", [[-1], [1 << 64], [0, 1 << 64], [5, -3, 7], []])
def test_lane_seeds_outside_64_bits_rejected(seeds):
    with pytest.raises(ValueError):
        TriviumLanes(seeds)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_single_seed_entry_points_reject_out_of_range(seed):
    with pytest.raises(ValueError):
        TriviumLanes([seed])
    with pytest.raises(ValueError):
        trivium_stream(seed, 1)
    with pytest.raises(ValueError):
        uniform_residues([seed], [97], 1)


def _prime_above(x: int) -> int:
    x += 1
    while not is_prime(x):
        x += 1
    return x


def _prime_below(x: int) -> int:
    x -= 1
    while not is_prime(x):
        x -= 1
    return x


def _scalar_rejection(seed: int, q: int, n: int, stream=_bit_serial) -> list:
    """First n residues of block-by-block rejection over the bit-serial stream."""
    count = 64
    while len(out := block_sampled(stream(seed, count), q)) < n:
        count *= 2
    return out[:n]


# Primes just above 2^(b-1) reject about half the candidates, those just below
# 2^b almost none, and q = 97 (bitlen 7) about a quarter.
MODULI = ([_prime_above(1 << (b - 1)) for b in (20, 40, 45, 54)]
          + [_prime_below(1 << b) for b in (20, 40, 54, 64)] + [97])


def test_batched_sampler_matches_scalar_rejection():
    seeds = [0, ONES, 1] + [random.Random(4).getrandbits(64) for _ in MODULI[3:]]
    n = 48
    got = uniform_residues(seeds, MODULI, n)
    assert got.shape == (len(MODULI), n) and got.dtype == np.uint64
    for i, (seed, q) in enumerate(zip(seeds, MODULI)):
        assert got[i].tolist() == _scalar_rejection(seed, q, n), f"q={q}"


def test_batched_sampler_extends_from_saved_state(monkeypatch):
    batches = []
    words = TriviumLanes.words

    def counting(self, rounds):
        batches.append(rounds)
        return words(self, rounds)

    monkeypatch.setattr(TriviumLanes, "words", counting)
    # Seed 0 keeps 91 of the first block's 204 candidates at MODULI[0] (20
    # bits, about half rejected), so it falls short of 92 after one batch.
    seeds, moduli, n = [0, ONES, 88], [MODULI[0], 97, MODULI[0]], 92
    got = uniform_residues(seeds, moduli, n)
    assert len(batches) >= 2, "seed 0 at MODULI[0] must need a second batch"
    for i, (seed, q) in enumerate(zip(seeds, moduli)):
        assert got[i].tolist() == _scalar_rejection(seed, q, n)


@pytest.mark.parametrize("moduli", [[1], [0], [1 << 64], [97, 97]])
def test_sampler_rejects_bad_moduli(moduli):
    with pytest.raises(ValueError):
        uniform_residues([5], moduli, 1)


def test_sampler_rejects_a_negative_count():
    with pytest.raises(ValueError, match="the number of residues must be at least 0, got -1"):
        uniform_residues([88, 3], [97, MODULI[4]], -1)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), chunk_words=st.integers(1, 200))
def test_many_lane_draws_equal_single_seed_draws(data, chunk_words):
    # A chunk bound far below the real one makes small draws span many chunks.
    lanes = data.draw(st.integers(1, 12), label="lanes")
    seeds = data.draw(st.lists(st.integers(0, ONES), min_size=lanes, max_size=lanes),
                      label="seeds")
    moduli = data.draw(st.lists(st.sampled_from(MODULI), min_size=lanes, max_size=lanes),
                       label="moduli")
    with mock.patch.object(trivium, "_CHUNK_WORDS", chunk_words):
        chunk = max(1, TriviumLanes(seeds).chunk_rounds // trivium.BLOCK_WORDS)   # blocks
        # a block yields at most 4096 // bitlen(q) residues of a lane, so n
        # takes every lane at least three chunks
        most = 3 * chunk * max(4096 // q.bit_length() for q in moduli)
        n = data.draw(st.integers(most, most + 60), label="n")
        m = data.draw(st.integers(0, 40), label="m")
        got = uniform_residues(seeds, moduli, n + m)
        for i, (seed, q) in enumerate(zip(seeds, moduli)):
            want = uniform_residues([seed], [q], n + m)
            assert got[i].tolist() == want[0].tolist(), f"lane {i}, q={q}"


def test_wide_draw_steps_at_most_one_chunk_at_a_time(monkeypatch):
    asked = []
    words = TriviumLanes.words

    def counting(self, rounds):
        asked.append(rounds * self.lanes)
        return words(self, rounds)

    monkeypatch.setattr(TriviumLanes, "words", counting)
    rng = random.Random(1000)
    seeds = [rng.getrandbits(64) for _ in range(1000)]
    moduli = [MODULI[i % len(MODULI)] for i in range(1000)]
    got = uniform_residues(seeds, moduli, 100)
    assert len(asked) >= 3 and max(asked) <= trivium._CHUNK_WORDS
    # a chunk is whole blocks: a full group's block must fit in one
    assert trivium._GROUP_LANES * trivium.BLOCK_WORDS <= trivium._CHUNK_WORDS
    for i in (0, 7, 8, 999):
        assert got[i].tolist() == uniform_residues([seeds[i]], [moduli[i]], 100)[0].tolist()


@pytest.mark.parametrize("call", [
    lambda: TriviumLanes([1]).words(-3), lambda: trivium_stream(5, -1),
    lambda: uniform_residues([5], [97], -1), lambda: TriviumLanes([1]).words(2.0),
    lambda: trivium_stream(5, True), lambda: uniform_residues([5], [97], 1.5)],
    ids=["words-negative", "stream-negative", "draw-negative", "words-float",
         "stream-bool", "draw-float"])
def test_counts_must_be_non_negative_integers(call):
    with pytest.raises(ValueError, match="must be at least 0|must be an integer"):
        call()


@pytest.mark.parametrize("call", [
    lambda: TriviumLanes([True]), lambda: TriviumLanes([1.0]),
    lambda: TriviumLanes([np.True_]), lambda: trivium_stream(2.0, 3),
    lambda: uniform_residues([1.0], [97], 1), lambda: uniform_residues([False], [97], 1),
    lambda: uniform_residues([1], [97.0], 1), lambda: uniform_residues([1], [True], 1),
    lambda: uniform_residues([1], [np.float64(97)], 1)],
    ids=["lanes-bool", "lanes-float", "lanes-np-bool", "stream-float", "sampler-float-seed",
         "sampler-bool-seed", "sampler-float-modulus", "sampler-bool-modulus",
         "sampler-np-float-modulus"])
def test_bool_and_float_seeds_and_moduli_are_refused(call):
    # True would be seed 1 and 97.0 a modulus; neither is an integer here
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_numpy_integer_seeds_and_moduli_are_taken():
    assert TriviumLanes([np.uint64(ONES)]).words(5)[:, 0].tolist() == trivium_stream(ONES, 5)
    assert trivium_stream(np.int64(7), 5) == trivium_stream(7, 5)
    got = uniform_residues([np.uint64(88), np.int32(3)], [np.uint64(97), np.int64(MODULI[4])], 30)
    assert got.tolist() == uniform_residues([88, 3], [97, MODULI[4]], 30).tolist()


def test_an_empty_sampler_is_refused():
    with pytest.raises(ValueError, match="at least one seed"):
        uniform_residues([], [], 1)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), group=st.integers(1, 5), chunk_words=st.integers(1, 64))
def test_grouped_draws_equal_scalar_draws(data, group, chunk_words):
    # Small groups and chunks make a few lanes span several groups and a short
    # draw several chunks; a draw of 0 is included.
    lanes = data.draw(st.integers(1, 14), label="lanes")
    seeds = data.draw(st.lists(st.sampled_from([0, ONES, 1, 88, 12345]), min_size=lanes,
                               max_size=lanes), label="seeds")
    moduli = data.draw(st.lists(st.sampled_from(MODULI), min_size=lanes, max_size=lanes),
                       label="moduli")
    n = data.draw(st.one_of(st.just(0), st.integers(1, 120)), label="n")
    with mock.patch.object(trivium, "_GROUP_LANES", group), \
            mock.patch.object(trivium, "_CHUNK_WORDS", chunk_words):
        with mock.patch.object(trivium, "TriviumLanes", wraps=TriviumLanes) as streams:
            got = uniform_residues(seeds, moduli, n)
        assert streams.call_count == -(-lanes // group)
    assert got.shape == (lanes, n)
    for i, (seed, q) in enumerate(zip(seeds, moduli)):
        want = _scalar_rejection(seed, q, n, stream=trivium_stream)
        assert got[i].tolist() == want, f"lane {i}"


@settings(max_examples=60, deadline=None)
@given(data=st.data(), group=st.integers(1, 4), chunk_words=st.integers(1, 1024))
def test_draws_at_any_width_equal_the_block_oracle(data, group, chunk_words):
    # every width from 2 to 64 bits, q anywhere in it; the oracle reads the
    # word-parallel stream, which other tests check against the bit-serial one
    lanes = data.draw(st.integers(1, 6), label="lanes")
    bits = data.draw(st.lists(st.integers(2, 64), min_size=lanes, max_size=lanes),
                     label="bits")
    moduli = [data.draw(st.integers(1 << b - 1, (1 << b) - 1), label=f"q{i}")
              for i, b in enumerate(bits)]
    seeds = data.draw(st.lists(st.integers(0, ONES), min_size=lanes, max_size=lanes),
                      label="seeds")
    n = data.draw(st.integers(0, 300), label="n")
    with mock.patch.object(trivium, "_GROUP_LANES", group), \
            mock.patch.object(trivium, "_CHUNK_WORDS", chunk_words):
        got = uniform_residues(seeds, moduli, n)
    for i, (seed, q) in enumerate(zip(seeds, moduli)):
        assert got[i].tolist() == _scalar_rejection(seed, q, n, stream=trivium_stream), \
            f"lane {i}, q={q}"


# s1..s93, s94..s177 and s178..s288: each register's length in bits
REGISTER_BITS = {"_a": 93, "_b": 84, "_c": 111}


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.one_of(st.sampled_from([0, ONES]), st.integers(0, ONES)),
                      min_size=1, max_size=9),
       rounds=st.integers(0, 40))
def test_lane_bits_above_each_register_stay_zero(seeds, rounds):
    gen = TriviumLanes(seeds)
    gen.words(rounds)
    for name, length in REGISTER_BITS.items():
        reg = getattr(gen, name)
        assert reg >> trivium.LANE_BITS * len(seeds) == 0, name
        for i in range(len(seeds)):
            above = reg >> trivium.LANE_BITS * i + length
            assert above & (1 << trivium.LANE_BITS - length) - 1 == 0, (name, i)
