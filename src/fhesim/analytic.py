"""Closed-form throughput, communication, bound, and storage formulas.

This is the oracle layer the simulator is validated against: every
quantity both sides can compute must agree exactly, so fractional
per-chiplet averages are returned as rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Tuple

from .opcount import (InvalidArgument, check_integer, check_positive_finite, digit_ranges,
                      digit_size)


def keyswitch_cycles(levels: int, n1: int, shadowed: bool = True) -> int:
    """ModUp+KeyMul cycles on one chiplet for dnum = L+1.

    Shadowed: the pair of MAS units runs under the NTT latency, leaving
    (L+1) INTTs and (L+1)(L+2) NTTs; unshadowed adds 2(L+1)(L+2) serial
    MAS passes.
    """
    levels = check_integer(levels, "L", InvalidArgument, 0)
    n1 = check_integer(n1, "n1", InvalidArgument, 1)
    l1 = levels + 1
    if shadowed:
        return l1 * (levels + 3) * n1
    return l1 * (1 + 3 * (levels + 2)) * n1


def keyswitch_throughput(levels: int, n1: int, f_hz: float,
                         shadowed: bool = True) -> float:
    """Key switches per second at clock f for the monolithic (r=1) flow."""
    f_hz = check_positive_finite(f_hz, "the clock in Hz", InvalidArgument)
    return f_hz / keyswitch_cycles(levels, n1, shadowed)


def shadowing_improvement(levels: int) -> float:
    """Cycle reduction from running MAS under NTT: 1 - (L+3)/(1+3(L+2)).

    Approaches 2/3 for large L (the headline ~66.7%); at L=30 the exact
    value is 64/97 = 65.98%, i.e. 66.0% to one decimal.
    """
    levels = check_integer(levels, "L", InvalidArgument, 0)
    return 1.0 - (levels + 3) / (1 + 3 * (levels + 2))


def comm_polynomials(technique: str, l: int, k: int | None = None,
                     r: int | None = None) -> Fraction:
    """Polynomials in communication for one KeySwitch.

    A/B/C/OURS are whole-package counts for the four distribution
    techniques; the digit-wise and limb-wise forms are per chiplet, over
    the dnum digits of opcount.digit_ranges(l, K)."""
    l = check_integer(l, "l", InvalidArgument, 0)
    technique = technique.upper()
    if technique == "A":
        return Fraction((l + 2) * (l + 3))
    if technique in ("B", "C"):
        return Fraction((l + 1) * (l + 4))
    if technique == "OURS":
        if r is None:
            raise InvalidArgument("OURS needs the chiplet count r")
        r = check_integer(r, "r", InvalidArgument, 1)
        return Fraction(0) if r == 1 else Fraction(r * (l + 3))
    if technique not in _DIGIT_TECHNIQUES:
        raise InvalidArgument(f"unknown technique {technique!r}")
    if k is None:
        raise InvalidArgument(f"{technique} needs K, which fixes its digit count dnum")
    k = check_integer(k, "K", InvalidArgument, 1)
    dnum = len(digit_ranges(l, k))
    if technique == "DIGITWISE":
        # ModDown handled inside each chiplet by duplicating the key-mult
        # results: a one-time exchange of the ciphertext limbs plus the base
        # conversion inputs
        return Fraction(2 * (dnum - 1) * (l + 1), dnum) + 2 * k
    if technique == "DIGITWISE_EXCH":
        # exchange of the extended limbs after ModUp instead
        return Fraction(2 * (dnum - 1) * (l + k + 1), dnum) + 2 * k
    if technique == "LIMBWISE":
        return Fraction(2 * (dnum - 1) * (l + k + 1))
    if technique == "LIMBWISE_EARLY":
        # distributing right after the NTT, before key multiplication
        return Fraction((dnum - 1) * (l + k + 1))
    return Fraction((dnum + 2) * (l + k + 1))           # COEFFWISE


_DIGIT_TECHNIQUES = ("DIGITWISE", "DIGITWISE_EXCH", "LIMBWISE", "LIMBWISE_EARLY",
                     "COEFFWISE")


def chiplet_bound(levels: int, k_ratio: float, u: float = 4.0) -> int:
    """Max chiplets r <= (L+2)/(u*k), k = HBM/C2C bandwidth ratio.

    u defaults to 4 (the utilization headroom chosen for the design);
    the count never exceeds L+2 regardless of how fast the links get.
    """
    check_positive_finite(u, "the headroom u", InvalidArgument)
    levels = check_integer(levels, "L", InvalidArgument, 0)
    if not 0 <= k_ratio < math.inf:
        raise InvalidArgument(f"k_ratio must be at least 0 and finite, got {k_ratio}")
    if k_ratio == 0:
        return levels + 2
    return min(int((levels + 2) / (u * k_ratio)), levels + 2)


def key_storage(levels: int, dnum: int, n: int, w: int, seeded: bool = False) -> int:
    """Bytes for one switching key: 2*(L+K+1) limb polynomials per digit,
    with K = ceil((L+1)/dnum) and the digits of opcount.digit_ranges(L, K).

    Seeded storage drops the expandable half to one 8-byte seed per limb,
    halving the footprint up to the seed overhead.
    """
    dnum = check_integer(dnum, "dnum", InvalidArgument, 1)
    levels = check_integer(levels, "L", InvalidArgument, 0)
    poly_bytes = _poly_bytes(n, w)
    k = digit_size(levels, dnum)
    limbs = len(digit_ranges(levels, k)) * (levels + k + 1)
    if seeded:
        return limbs * poly_bytes + limbs * 8
    return 2 * limbs * poly_bytes


def key_storage_per_digit_limb(n: int, w: int) -> int:
    """Bytes for one (digit, base) pair of key limbs (both halves).

    This is the per-entry reading of the ~1 MB on-chip figure: a single
    ksk0/ksk1 limb pair at N=2^16, w=54 is about 0.88 MB.
    """
    return 2 * _poly_bytes(n, w)


def _poly_bytes(n: int, w: int) -> int:
    """Bytes of one limb polynomial: n words of w bits, packed."""
    n = check_integer(n, "n", InvalidArgument, 1)
    w = check_integer(w, "w", InvalidArgument, 1)
    return -(-n * w // 8)


# (N1, N2) -> (total multipliers, TFG multipliers, TFG memory words,
#              memory words with stored tables, mul increase %, mem reduction %)
_TWIDDLE_TABLE: Dict[Tuple[int, int], Tuple[int, int, int, int, int, int]] = {
    (2048, 32): (432, 68, 222912, 4260320, 16, 95),
    (1024, 64): (832, 131, 310624, 4228064, 16, 93),
    (512, 128): (1600, 258, 486400, 4212704, 16, 88),
    (256, 256): (3072, 513, 707232, 4206560, 17, 83),
    (128, 512): (5888, 1024, 1149248, 4206560, 17, 73),
    (64, 1024): (11264, 2047, 1771488, 4212704, 18, 58),
}


def twiddle_tradeoff(n1: int, n2: int, tfg: bool) -> dict:
    """Multiplier and twiddle-memory cost of a configuration, with or
    without on-the-fly twiddle factor generation."""
    n1 = check_integer(n1, "n1", InvalidArgument)
    n2 = check_integer(n2, "n2", InvalidArgument)
    if (n1, n2) not in _TWIDDLE_TABLE:
        raise InvalidArgument(f"no twiddle table entry for n1={n1}, n2={n2}; the table "
                              f"covers {', '.join(f'{a}x{b}' for a, b in _TWIDDLE_TABLE)}")
    total, tfg_mul, tfg_mem, stored_mem, inc, red = _TWIDDLE_TABLE[(n1, n2)]
    return {
        "total_multipliers": total,
        "extra_multipliers": tfg_mul if tfg else 0,
        "memory_words": tfg_mem if tfg else stored_mem,
        "multiplier_increase_pct": inc if tfg else 0,
        "memory_reduction_pct": red if tfg else 0,
    }


def digits_census(l: int, k: int, r: int) -> Fraction:
    """Per-chiplet NTT-equivalent runtime of the dnum<L+1 key switch:
    (2(l+1+K) + (dnum+1)(l+1) + (r-3)K)/r, dnum the digit count of
    opcount.digit_ranges(l, K)."""
    l = check_integer(l, "l", InvalidArgument, 0)
    k = check_integer(k, "K", InvalidArgument, 1)
    r = check_integer(r, "r", InvalidArgument, 1)
    dnum = len(digit_ranges(l, k))
    return Fraction(2 * (l + 1 + k) + (dnum + 1) * (l + 1) + (r - 3) * k, r)
