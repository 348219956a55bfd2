"""Closed-form micro-op censuses shared by the CKKS layer and the simulator.

Both sides count the same way, so the functional library's measured counts
and the simulator's expanded instruction streams can be cross-checked for
any (level, dnum, K).  Counts are per whole routine, all limbs included.

This module is also the one home of the vocabulary both halves share: the
census kinds (KINDS), which the CKKS census and the simulator's compute
ops use, the digit size K = ceil((L+1)/dnum) (digit_size), which the basis
and the key-storage formula use, and the key-switching digit partition
(digit_ranges), which the basis's digit count, keygen, both CKKS key
switches and both simulator digit flows use.  It also holds the one integer
check (check_integer) of every entry point of both halves that takes a
level, digit size, chiplet count, seed, rotation or modulus, and the one
check of a positive finite real (check_positive_finite): a scale, a clock
or a headroom.  Every closed form here passes its level, K and dnum through
check_integer, and refuses one outside its range as InvalidArgument.
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, List, Optional, Type

Census = Dict[str, int]

# The micro-op kinds a census counts: the compute ops of both halves.
KINDS = ("INTT", "NTT", "MAS", "AUT")


class InvalidArgument(ValueError):
    """A formula argument outside the range its closed form covers."""


def check_integer(value, what: str, error: Type[Exception], low: Optional[int] = None,
                  high: Optional[int] = None) -> int:
    """value as a Python int, if it is a Python or NumPy integer (a bool is
    not one) in [low, high]; otherwise error, with a message naming what."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if (low is not None and value < low) or (high is not None and value > high):
        bound = (f"at most {high}" if low is None else f"at least {low}" if high is None
                 else f"in [{low}, {high}]")
        raise error(f"{what} must be {bound}, got {value}")
    return value


def check_positive_finite(value, what: str, error: Type[Exception]):
    """value, a real number (a bool is not one) such as a scale or a clock,
    if it is positive and finite; otherwise error, with a message naming what."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not 0 < value < math.inf:
        raise error(f"{what} must be a positive finite number, got {value!r}")
    return value


def empty_census() -> Census:
    return dict.fromkeys(KINDS, 0)


def digit_size(levels: int, dnum: int) -> int:
    """K = ceil((L+1)/dnum): the limbs of a full key-switching digit, which is
    also the number of special bases."""
    levels = check_integer(levels, "L", InvalidArgument, 0)
    return -(-(levels + 1) // check_integer(dnum, "dnum", InvalidArgument, 1))


def digit_ranges(level: int, k: int) -> List[range]:
    """The limbs of each key-switching digit at the given level: runs of k
    consecutive limbs of q_0..q_level, the last one possibly shorter."""
    level = check_integer(level, "level", InvalidArgument, 0)
    k = check_integer(k, "K", InvalidArgument, 1)
    return [range(i, min(i + k, level + 1)) for i in range(0, level + 1, k)]


def moddown(level: int, k: int) -> Census:
    """One component dropped from PQ_l to Q_l."""
    level = check_integer(level, "level", InvalidArgument, 0)
    k = check_integer(k, "K", InvalidArgument, 1)
    c = empty_census()
    c["INTT"] = k
    c["NTT"] = level + 1
    # premultiply by hat inverses, base-conversion MACs, fused (d - t)*P^-1
    c["MAS"] = k + (level + 1) * k + (level + 1)
    return c


def keyswitch_full(level: int) -> Census:
    """dnum = L+1 (K = 1) key switch including both ModDowns."""
    l1 = check_integer(level, "level", InvalidArgument, 0) + 1
    c = empty_census()
    c["INTT"] = l1 + 2
    c["NTT"] = l1 * (l1 + 1) + 2 * l1
    # each ModDown's result is added back into its carrier component
    c["MAS"] = 2 * l1 * (l1 + 1) + 2 * (moddown(level, 1)["MAS"] + l1)
    return c


def keyswitch_generic(level: int, dnum: int, k: int) -> Census:
    """Arbitrary-dnum key switch (digit ModUp via base conversion).  The digits
    are digit_ranges(level, k); dnum is not read."""
    level = check_integer(level, "level", InvalidArgument, 0)
    k = check_integer(k, "K", InvalidArgument, 1)
    sizes = [len(d) for d in digit_ranges(level, k)]
    nb = level + 1 + k  # live bases of PQ_l
    c = empty_census()
    c["INTT"] = (level + 1) + 2 * k
    c["NTT"] = sum(nb - s for s in sizes) + 2 * (level + 1)
    mas = 0
    for s in sizes:
        mas += s                 # hat-inverse premultiplies
        mas += s * (nb - s)      # base-conversion accumulation
    mas += 2 * len(sizes) * nb   # key multiplication, two components
    mas += 2 * (len(sizes) - 1) * nb  # digit accumulation
    mas += 2 * (moddown(level, k)["MAS"] + level + 1)  # ModDowns, carrier adds
    c["MAS"] = mas
    return c


def rescale(level: int) -> Census:
    """Both ciphertext components, dropping base q_level."""
    level = check_integer(level, "level", InvalidArgument, 1)
    c = empty_census()
    c["INTT"] = 2
    c["NTT"] = 2 * level
    c["MAS"] = 2 * level
    return c


def hadd(level: int) -> Census:
    level = check_integer(level, "level", InvalidArgument, 0)
    c = empty_census()
    c["MAS"] = 2 * (level + 1)
    return c


def hmult(level: int) -> Census:
    level = check_integer(level, "level", InvalidArgument, 0)
    c = empty_census()
    c["MAS"] = 4 * (level + 1)
    return c


def rotate_perm(level: int) -> Census:
    """The Galois map of a rotation, both components: one AUT per limb, applied
    to the NTT-domain limbs in place of INTT -> AUT -> NTT (the simulator's
    ROTATE charges the same)."""
    level = check_integer(level, "level", InvalidArgument, 0)
    c = empty_census()
    c["AUT"] = 2 * (level + 1)
    return c
