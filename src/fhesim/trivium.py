"""Trivium keystream generator, 64 bits per round, many seeds at once.

The PRNG that regenerates the seed-expandable key-switching key half.  It
keeps the standard 288-bit Trivium register bank but is keyed by a single
64-bit seed: the seed is loaded into both the key and IV slots (the
remaining slots are zero except the customary trailing ones).  Because the
shortest tap distance exceeds 64, sixty-four steps can be evaluated at
once with word operations; initialization therefore takes 18 such rounds
(the usual 4*288 = 1152 warm-up clocks) and afterwards every round yields
one 64-bit word.

Register layout: each shift register is held as an int whose bit p stores
state bit s_(len-p), so new bits enter at the top and every tap is a
contiguous little-endian 64-bit window.  Bit t of an output word is the
keystream bit produced at step t of its round (earliest bit = LSB).

Lane layout: TriviumLanes steps one generator per seed together.  Each
register of all seeds is one int, and seed i owns the 128-bit lane of bits
[128*i, 128*(i+1)).  Every register is at most 111 bits long, so each
64-bit tap window (the highest ends at bit 108 of C) and each feedback
word shifted in at the top (ending at bit 110) stays inside its lane, and
one round of big-int word operations is the same word-parallel round for
every seed.  The invariant is that the bits of a lane above its register's
length stay zero in the registers; two masks keep it.  Every feedback term
is cut to the low 64 bits of each lane before it is shifted in, and the
64-bit shift-out, which moves the next lane's low word into the top of this
one, is cut the same way.  The output terms t1..t3 are not cut: their low
64 bits per lane are exact, the bits above carry the next lane's low bits,
and words keeps only each lane's low word.  A one-lane generator is the
single-seed Trivium, as in trivium_stream.

Streaming: LaneSampler.draw steps all its lanes in chunks of at most
_CHUNK_WORDS words (rounds times lanes), scatters each chunk's accepted
residues straight into its output and keeps what a lane draws beyond the
request for the next draw, so its working memory does not grow with the
lane count; TriviumLanes.words converts its packed rounds to uint64 in
chunks of the same bound.  Keygen draws the a limbs of all its switching
keys, every digit and base of each, in one such draw.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

_M64 = (1 << 64) - 1

INIT_ROUNDS = 18
WORD_BITS = 64
LANE_BITS = 128
# Words (rounds times lanes) stepped, converted and scattered at a time.
_CHUNK_WORDS = 1 << 15


def _lane_mask(lanes: int) -> int:
    """The low 64 bits of each of `lanes` 128-bit lanes."""
    return int.from_bytes(b"\xff" * 8 + b"\x00" * 8, "little") * sum(
        1 << LANE_BITS * i for i in range(lanes))


def _reversed64(seed: int) -> int:
    """seed with its 64 bits in reverse order (bit i moves to bit 63 - i)."""
    return int(f"{seed:064b}"[::-1], 2)


class TriviumLanes:
    """One 288-bit Trivium per seed, all stepped 64 clocks at a time."""

    def __init__(self, seeds: Sequence[int]):
        seeds = list(seeds)
        if not seeds:
            raise ValueError("at least one seed is needed")
        for seed in seeds:
            if not 0 <= seed < 1 << 64:
                raise ValueError(f"seed {seed} is not a 64-bit value")
        self.lanes = len(seeds)
        # Rounds of all lanes that make at most _CHUNK_WORDS words (at least one).
        self.chunk_rounds = max(1, _CHUNK_WORDS // self.lanes)
        self._mask = _lane_mask(self.lanes)
        # A: s1..s93, B: s94..s177, C: s178..s288 (bit p of A = s_(93-p), etc.):
        # the seed fills the key slots s1..s64 and the IV slots s94..s157.
        self._a = self._b = self._c = 0
        for i, seed in enumerate(seeds):
            lane = LANE_BITS * i
            rev = _reversed64(seed)
            self._a |= rev << lane + 29         # seed bit k -> bit 92 - k
            self._b |= rev << lane + 20         # seed bit k -> bit 83 - k
            self._c |= 0b111 << lane            # s286, s287, s288
        self._packed(INIT_ROUNDS)

    def _packed(self, rounds: int) -> bytearray:
        """Step `rounds` rounds; every round's output words of all lanes, as
        little-endian bytes, 128 bits per lane with the word in the low half."""
        a, b, c, m = self._a, self._b, self._c, self._mask
        width = LANE_BITS // 8 * self.lanes
        out = bytearray()
        for _ in range(rounds):
            t1 = a >> 27 ^ a                    # s66 ^ s93
            t2 = b >> 15 ^ b                    # s162 ^ s177
            t3 = c >> 45 ^ c                    # s243 ^ s288
            out += (t1 ^ t2 ^ t3).to_bytes(width, "little")
            f1 = (t1 ^ (a >> 2 & a >> 1) ^ b >> 6) & m    # + s91*s92 + s171
            f2 = (t2 ^ (b >> 2 & b >> 1) ^ c >> 24) & m   # + s175*s176 + s264
            f3 = (t3 ^ (c >> 2 & c >> 1) ^ a >> 24) & m   # + s286*s287 + s69
            a = (a >> 64 & m) | f3 << 29        # 93 - 64
            b = (b >> 64 & m) | f1 << 20        # 84 - 64
            c = (c >> 64 & m) | f2 << 47        # 111 - 64
        self._a, self._b, self._c = a, b, c
        return out

    def words(self, rounds: int) -> np.ndarray:
        """The next `rounds` output words as a (rounds, lanes) uint64 array."""
        out = np.empty((rounds, self.lanes), dtype=np.uint64)
        for start in range(0, rounds, self.chunk_rounds):
            step = min(self.chunk_rounds, rounds - start)
            raw = np.frombuffer(self._packed(step), dtype="<u8")
            out[start:start + step] = raw.reshape(step, self.lanes, 2)[:, :, 0]
        return out


def trivium_stream(seed: int, count: int) -> List[int]:
    """First `count` 64-bit keystream words for the given seed."""
    return TriviumLanes([seed]).words(count)[:, 0].tolist()


class LaneSampler:
    """Uniform residues mod q_i from the keystream of seed i, for all lanes at once.

    Lane i masks each keystream word down to bitlen(q_i) bits and rejects
    values >= q_i, so its residues are exactly uniform and are the ones a
    word-by-word rejection loop over the same keystream returns; for a
    w-bit modulus the masked candidate is below 2q and at most every second
    word is wasted.  A draw steps all lanes a chunk at a time: each chunk is
    the expected number of rounds the neediest lane still takes, plus a
    margin, capped at the stream's chunk_rounds.  The residues a lane has
    beyond the draw wait for the next one.
    """

    def __init__(self, seeds: Sequence[int], moduli: Sequence[int]):
        if len(seeds) != len(moduli):
            raise ValueError("one modulus per seed is needed")
        if any(not 2 <= q < 1 << 64 for q in moduli):
            raise ValueError("moduli must lie in [2, 2^64)")
        self._stream = TriviumLanes(seeds)
        self._q = np.array(moduli, dtype=np.uint64)[:, None]
        self._mask = np.array([(1 << q.bit_length()) - 1 for q in moduli], dtype=np.uint64)
        # Expected words per accepted residue, per lane.
        self._cost = np.array([(1 << q.bit_length()) / q for q in moduli])
        self._pending = [np.empty(0, dtype=np.uint64) for _ in moduli]

    def draw(self, n: int) -> np.ndarray:
        """The next n residues of every lane, as a (lanes, n) uint64 array."""
        if n < 0:
            raise ValueError(f"cannot draw {n} residues")
        lanes = len(self._pending)
        out = np.empty((lanes, n), dtype=np.uint64)
        # have[i]: residues lane i has produced for this draw, past n included.
        have = np.array([len(p) for p in self._pending])
        for row, p in zip(out, self._pending):
            row[:len(p)] = p[:n]
        rests = [p[n:] for p in self._pending]
        row_starts = np.arange(lanes)[:, None] * n
        over_lanes, over_words = [], []
        while True:
            expected = float(np.max(np.maximum(n - have, 0) * self._cost))
            if expected <= 0:
                break
            # The margin is about one standard deviation of the rounds a lane
            # needs when half its words are rejected.
            rounds = math.ceil(expected) + math.isqrt(math.ceil(expected)) + 1
            words = self._stream.words(min(rounds, self._stream.chunk_rounds))
            words &= self._mask
            words = words.T
            keep = words < self._q
            # Each accepted word's place in its lane's residues of this draw.
            pos = np.cumsum(keep, axis=1)
            pos += have[:, None] - 1
            have = pos[:, -1] + 1
            over = keep & (pos >= n)
            if over.any():
                over_lanes.append(np.nonzero(over)[0])
                over_words.append(words[over])
                keep &= ~over
            pos += row_starts
            out.reshape(-1)[pos[keep]] = words[keep]
        if over_lanes:
            # Stable by lane, so each lane's words stay in keystream order.
            lane = np.concatenate(over_lanes)
            order = np.argsort(lane, kind="stable")
            ends = np.cumsum(np.bincount(lane, minlength=lanes))[:-1]
            rests = [np.concatenate(pair) for pair in
                     zip(rests, np.split(np.concatenate(over_words)[order], ends))]
        self._pending = rests
        return out
