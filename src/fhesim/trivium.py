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
register of all seeds is one int, and seed i owns the 112-bit lane of bits
[112*i, 112*(i+1)).  Every register is at most 111 bits long, so each
64-bit tap window (the highest ends at bit 108 of C) and each feedback
word shifted in at the top (ending at bit 110) stays inside its lane, and
one round of big-int word operations is the same word-parallel round for
every seed.  The invariant is that the bits of a lane above its register's
length stay zero in the registers; two masks keep it.  Every feedback term
is cut to the low 64 bits of each lane before it is shifted in.  The 64-bit
shift-out moves the next lane's low 64 bits into bits 48..111 of this one,
so it is cut to the low 48 bits of each lane.  The output terms t1..t3 are
not cut: their low 64 bits per lane are exact, the bits above carry other
bits, and words reads only each lane's low word, through a strided view of
the packed bytes (14 per lane).  A one-lane generator is the single-seed
Trivium, as in trivium_stream.

Streaming: uniform_residues reads each lane's keystream as a bitstream,
BLOCK_WORDS words (4096 bits) at a time.  A modulus q of b = bitlen(q)
bits takes floor(4096/b) candidates of b bits from each block, read
little-endian from bit 0, and keeps those below q; no candidate straddles
two blocks, so a 45-bit residue costs 45 keystream bits, not a whole word.
It steps its lanes in groups of at most _GROUP_LANES, one TriviumLanes
each, and each group in chunks of whole blocks, at most _CHUNK_WORDS words
(rounds times lanes) each, so the working memory does not grow with the
lane count.  Per chunk it cuts the words of all lanes of one width into
candidates at once, compares them, compresses the accepted ones lane by
lane, and copies into each lane's output the slice it still lacks; what a
lane accepts beyond n is dropped.  TriviumLanes.words converts its packed
rounds to uint64 in chunks of the same bound.  Keygen draws the a limbs of
all its switching keys, every digit and base of each, in one such call.
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence

import numpy as np

from .opcount import check_integer

INIT_ROUNDS = 18
WORD_BITS = 64
_WORD_MAX = (1 << 64) - 1
LANE_BITS = 112
# Words (rounds times lanes) stepped, converted and accepted at a time.
_CHUNK_WORDS = 1 << 15
# Lanes uniform_residues steps together, in one TriviumLanes.  With
# _GROUP_LANES * BLOCK_WORDS <= _CHUNK_WORDS every chunk holds a whole block.
_GROUP_LANES = 256
# Words of one lane that uniform_residues cuts into candidates together.
BLOCK_WORDS = 64
_BLOCK_BITS = BLOCK_WORDS * WORD_BITS


def _lane_mask(lanes: int, bits: int) -> int:
    """The low `bits` bits of each of `lanes` lanes, bits a multiple of 8."""
    lane = b"\xff" * (bits // 8) + b"\x00" * ((LANE_BITS - bits) // 8)
    return int.from_bytes(lane * lanes, "little")


def _reversed64(seed: int) -> int:
    """seed with its 64 bits in reverse order (bit i moves to bit 63 - i)."""
    return int(f"{seed:064b}"[::-1], 2)


class TriviumLanes:
    """One 288-bit Trivium per seed, all stepped 64 clocks at a time."""

    def __init__(self, seeds: Sequence[int]):
        seeds = [check_integer(seed, "a seed", ValueError, 0, _WORD_MAX) for seed in seeds]
        if not seeds:
            raise ValueError("at least one seed is needed")
        self.lanes = len(seeds)
        # Rounds of all lanes that make at most _CHUNK_WORDS words (at least one).
        self.chunk_rounds = max(1, _CHUNK_WORDS // self.lanes)
        self._low64 = _lane_mask(self.lanes, 64)
        self._low48 = _lane_mask(self.lanes, 48)
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
        little-endian bytes, 112 bits per lane with the word in the low 64."""
        a, b, c, m, m48 = self._a, self._b, self._c, self._low64, self._low48
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
            a = (a >> 64 & m48) | f3 << 29      # 93 - 64
            b = (b >> 64 & m48) | f1 << 20      # 84 - 64
            c = (c >> 64 & m48) | f2 << 47      # 111 - 64
        self._a, self._b, self._c = a, b, c
        return out

    def words(self, rounds: int) -> np.ndarray:
        """The next `rounds` output words as a (rounds, lanes) uint64 array."""
        rounds = check_integer(rounds, "the number of rounds", ValueError, 0)
        lane_bytes = LANE_BITS // 8
        out = np.empty((rounds, self.lanes), dtype=np.uint64)
        for start in range(0, rounds, self.chunk_rounds):
            step = min(self.chunk_rounds, rounds - start)
            out[start:start + step] = np.ndarray(
                (step, self.lanes), dtype="<u8", buffer=self._packed(step),
                strides=(lane_bytes * self.lanes, lane_bytes))
        return out


def trivium_stream(seed: int, count: int) -> List[int]:
    """First `count` 64-bit keystream words for the given seed."""
    return TriviumLanes([seed]).words(count)[:, 0].tolist()


def _candidate_mask(q: int) -> int:
    """The low bitlen(q) bits: a candidate so masked is below 2q."""
    return (1 << q.bit_length()) - 1


@functools.cache
def _candidate_slots(bits: int) -> tuple:
    """Where each `bits`-bit candidate of a block lies: the word holding its
    low bits, the next word (the last word again at the block's end), the
    right shift of the first, and the left shift of the second less one."""
    start = np.arange(_BLOCK_BITS // bits) * bits
    word, shift = start // WORD_BITS, start % WORD_BITS
    slots = (word, np.minimum(word + 1, BLOCK_WORDS - 1),
             shift.astype(np.uint64), (WORD_BITS - 1 - shift).astype(np.uint64))
    for a in slots:
        a.setflags(write=False)
    return slots


def _candidates(blocks: np.ndarray, bits: int, mask: np.ndarray) -> np.ndarray:
    """The `bits`-bit candidates of (lanes, blocks, BLOCK_WORDS) words, each
    block's in bit order, as a (lanes, candidates) array masked by mask."""
    word, after, right, left = _candidate_slots(bits)
    # a candidate's bits past its first word come from the next one: shifted
    # left 1 + left, they start at bit 64 - right, and none stay when right = 0
    out = (blocks[..., word] >> right | blocks[..., after] << np.uint64(1) << left
           ).reshape(len(blocks), -1)
    out &= mask
    return out


def uniform_residues(seeds: Sequence[int], moduli: Sequence[int], n: int) -> np.ndarray:
    """The first n uniform residues mod q_i from the keystream of seed i, for
    all lanes at once, as a (lanes, n) uint64 array.

    Lane i cuts each block of its keystream into bitlen(q_i)-bit candidates
    (_candidate_slots, masked by _candidate_mask) and rejects those >= q_i:
    its residues are exactly uniform, and depend only on its seed and
    modulus.  Each group of lanes steps a chunk at a time: the most blocks
    any lane still takes, its expected candidates plus one standard
    deviation, plus one, capped at the whole blocks of the stream's
    chunk_rounds.
    """
    seeds = list(seeds)
    moduli = [check_integer(q, "a modulus", ValueError, 2, _WORD_MAX) for q in moduli]
    if not seeds:
        raise ValueError("at least one seed is needed")
    if len(seeds) != len(moduli):
        raise ValueError("one modulus per seed is needed")
    n = check_integer(n, "the number of residues", ValueError, 0)
    q = np.array(moduli, dtype=np.uint64)[:, None]
    mask = np.array([_candidate_mask(m) for m in moduli], dtype=np.uint64)[:, None]
    bits = [m.bit_length() for m in moduli]
    accept = [m / (1 << b) for m, b in zip(moduli, bits)]    # share of candidates kept
    per_block = [_BLOCK_BITS // b for b in bits]
    # The fewest groups of at most _GROUP_LANES lanes, of near-equal size (a
    # small group costs more per word), each with its own stream.
    groups = -(-len(seeds) // _GROUP_LANES)
    size = -(-len(seeds) // groups)
    streams = [(lo, TriviumLanes(seeds[lo:lo + size])) for lo in range(0, len(seeds), size)]
    out = np.empty((len(moduli), n), dtype=np.uint64)
    for lo, stream in streams:
        hi = lo + stream.lanes
        widths = {}     # bit width -> the group's lanes of that width
        for j, b in enumerate(bits[lo:hi]):
            widths.setdefault(b, []).append(j)
        widths = {b: np.array(lanes) for b, lanes in widths.items()}
        chunk_blocks = max(1, stream.chunk_rounds // BLOCK_WORDS)
        need = [n] * stream.lanes     # residues lane lo+j still lacks
        while any(need):
            # k residues at acceptance p take k/p candidates, with a standard
            # deviation of sqrt(k(1-p))/p (negative binomial).
            blocks = min(chunk_blocks, max(
                math.ceil(((k + math.sqrt(k * (1 - p))) / p + 1) / c)
                for k, p, c in zip(need, accept[lo:hi], per_block[lo:hi])))
            words = stream.words(blocks * BLOCK_WORDS).T
            for b, lanes in widths.items():
                cand = _candidates(words[lanes].reshape(len(lanes), blocks, BLOCK_WORDS), b,
                                   mask[lo + lanes])
                keep = cand < q[lo + lanes]
                # lane by lane, each in keystream order
                accepted = np.compress(keep.reshape(-1), cand.reshape(-1))
                start = 0
                for j, end in zip(lanes.tolist(),
                                  np.cumsum(np.count_nonzero(keep, axis=1)).tolist()):
                    k = min(need[j], end - start)
                    out[lo + j, n - need[j]:n - need[j] + k] = accepted[start:start + k]
                    need[j] -= k
                    start = end
    return out
