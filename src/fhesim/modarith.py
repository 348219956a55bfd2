"""Exact modular arithmetic over NTT-friendly primes.

Every prime q used by the kernels satisfies q == 1 (mod 2N) so that a
primitive 2N-th root of unity psi exists (psi^N == -1 mod q).  Word size
is capped at 54 bits (q < 2^54, checked by PrimeModulus.create) so that a
product of two residues fits comfortably in double-word arithmetic on any
backend, and so that the uint64 NTT kernel's float64 quotient estimate
stays within its proven bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import List

from .opcount import digit_ranges, digit_size

MAX_WORD_BITS = 54

# Deterministic Miller-Rabin witnesses, valid for all candidates < 3.3e24
# (covers every < 64-bit modulus this library generates).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class NoPrimeFound(Exception):
    """Search space of the requested bit length is exhausted."""


class WordSizeExceeded(ValueError):
    """A modulus or prime bit length exceeds MAX_WORD_BITS."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def bit_reverse(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


@dataclass(frozen=True)
class PrimeModulus:
    """A prime q with a verified primitive 2N-th root of unity psi; 1/N and
    the Barrett constants are derived from q where they are used.  Immutable
    after construction; safe to share across workers."""

    q: int
    two_n: int
    psi: int

    @classmethod
    def create(cls, q: int, two_n: int, psi: int) -> "PrimeModulus":
        if q.bit_length() > MAX_WORD_BITS:
            raise WordSizeExceeded(f"modulus {q} exceeds the {MAX_WORD_BITS}-bit word size")
        if pow(psi, two_n, q) != 1 or pow(psi, two_n // 2, q) != q - 1:
            raise ValueError(f"psi={psi} is not a primitive {two_n}-th root mod {q}")
        return cls(q=q, two_n=two_n, psi=psi)

    @property
    def n(self) -> int:
        return self.two_n // 2


def mod_mul(a: int, b: int, m: PrimeModulus) -> int:
    """a*b mod q via Barrett reduction, k = bitlen(q) and mu = 2^(2k) // q:
    one 2w-bit product, fixed corrections.

    Operands must already be reduced. The quotient estimate is off by at
    most two, so two conditional subtractions always suffice.
    """
    q, t = m.q, a * b
    k = q.bit_length()
    qhat = ((t >> (k - 1)) * ((1 << (2 * k)) // q)) >> (k + 1)
    r = t - qhat * q
    if r >= q:
        r -= q
    if r >= q:
        r -= q
    return r


def mod_pow(base: int, exp: int, m: PrimeModulus) -> int:
    result = 1
    base %= m.q
    while exp > 0:
        if exp & 1:
            result = mod_mul(result, base, m)
        base = mod_mul(base, base, m)
        exp >>= 1
    return result


def _find_primitive_root(q: int, two_n: int) -> int:
    """Smallest generator-derived psi with multiplicative order exactly 2N.

    2N is a power of two, so psi has order 2N iff psi^N == -1 (mod q).
    """
    n = two_n // 2
    e = (q - 1) // two_n
    for g in range(2, q):
        psi = pow(g, e, q)
        if pow(psi, n, q) == q - 1:
            return psi
    raise NoPrimeFound(f"no primitive {two_n}-th root mod {q}")


def find_ntt_prime(bits: int, two_n: int, skip: int = 0) -> PrimeModulus:
    """(skip+1)-th largest prime of the given bit length with q == 1 (mod two_n)."""
    return find_ntt_primes(bits, two_n, 1, skip)[0]


def find_ntt_primes(bits: int, two_n: int, count: int, skip: int = 0) -> List[PrimeModulus]:
    """count primes of the given bit length with q == 1 (mod two_n), in
    descending order from the largest below 2^bits after skipping the first
    skip; one scan of the candidates.

    Primes just below 2^bits make a bits-bit keystream candidate a residue
    almost always (trivium.uniform_residues), as Microsoft SEAL's
    CoeffModulus::Create picks them."""
    if bits > MAX_WORD_BITS:
        raise WordSizeExceeded(f"bit length {bits} exceeds word size {MAX_WORD_BITS}")
    if two_n & (two_n - 1) != 0:
        raise ValueError("two_n must be a power of two")
    lo, hi = 1 << (bits - 1), 1 << bits
    # Largest candidate of this bit length congruent to 1 mod two_n.
    q = hi - 1 - (hi - 2) % two_n
    found: List[PrimeModulus] = []
    remaining = skip
    while q >= lo and len(found) < count:
        if is_prime(q):
            if remaining == 0:
                found.append(PrimeModulus.create(q, two_n, _find_primitive_root(q, two_n)))
            else:
                remaining -= 1
        q -= two_n
    if len(found) < count:
        raise NoPrimeFound(f"only {len(found)} of {count} {bits}-bit primes == 1 mod {two_n}"
                           f" after skipping {skip}")
    return found


class TwiddleSource:
    """Powers of psi from the model of the hardware's twiddle factor
    generator (TFG), and the stored table it is checked against.

    power() keeps one running product, steps it by one Barrett product to
    the next exponent and reaches other exponents by square-and-multiply.
    table() is built with Python-int products, so the two share no
    arithmetic.  The transforms all read the stored table, built in NumPy
    (polykernel._psi_powers), which table() is the pure-int oracle of;
    which source the hardware uses only changes its cost
    (analytic.twiddle_tradeoff).
    """

    def __init__(self, m: PrimeModulus):
        self.m = m
        self._table: List[int] | None = None
        # Running (exponent, value) pair for incremental generation.
        self._exp = 0
        self._val = 1

    def table(self) -> List[int]:
        """The stored table, [psi^e for e < 2N], built on first use."""
        if self._table is None:
            q, psi = self.m.q, self.m.psi
            table = [1] * self.m.two_n
            for i in range(1, len(table)):
                table[i] = table[i - 1] * psi % q
            self._table = table
        return self._table

    def power(self, exp: int) -> int:
        """psi^exp for 0 <= exp < 2N, as the generator produces it."""
        exp %= self.m.two_n
        if exp == self._exp + 1:
            self._val = mod_mul(self._val, self.m.psi, self.m)
        elif exp != self._exp:
            self._val = mod_pow(self.m.psi, exp, self.m)
        self._exp = exp
        return self._val


@dataclass(frozen=True)
class RnsBasis:
    """RNS bases for the ciphertext chain (q_i) and the special primes (p_i).

    The K special primes fix the key-switching digits,
    opcount.digit_ranges(L, K), so the digit count dnum is read from the
    primes, as the ring degree N is; the base-conversion constants (hats)
    are derived lazily by the CKKS layer.
    """

    q_list: tuple
    p_list: tuple

    def __post_init__(self):
        if not self.q_list or not self.p_list:
            raise ValueError("an RNS basis needs at least one q prime and one p prime")
        moduli = [m.q for m in self.q_list + self.p_list]
        if len(set(moduli)) != len(moduli):
            raise ValueError("RNS moduli must be pairwise distinct primes")
        for m in self.q_list + self.p_list:
            if m.two_n != 2 * self.n:
                raise ValueError("all moduli must support the ring degree")

    @property
    def n(self) -> int:
        return self.q_list[0].n

    @property
    def l_max(self) -> int:
        return len(self.q_list) - 1

    @property
    def k(self) -> int:
        return len(self.p_list)

    @property
    def dnum(self) -> int:
        """The key-switching digit count at the top level."""
        return len(digit_ranges(self.l_max, self.k))

    @property
    def p_product(self) -> int:
        return reduce(lambda x, y: x * y, (m.q for m in self.p_list), 1)

    def q_product(self, level: int) -> int:
        return reduce(lambda x, y: x * y, (m.q for m in self.q_list[: level + 1]), 1)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "dnum": self.dnum,
            "q": [str(m.q) for m in self.q_list],
            "p": [str(m.q) for m in self.p_list],
            "psi_q": [str(m.psi) for m in self.q_list],
            "psi_p": [str(m.psi) for m in self.p_list],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RnsBasis":
        """The basis a to_json_dict document describes; ValueError when a
        prime list and its psi list differ in length, or when its dnum is not
        the digit count its primes give."""
        n = int(doc["n"])
        q_list = tuple(
            PrimeModulus.create(int(q), 2 * n, int(psi))
            for q, psi in zip(doc["q"], doc["psi_q"], strict=True)
        )
        p_list = tuple(
            PrimeModulus.create(int(q), 2 * n, int(psi))
            for q, psi in zip(doc["p"], doc["psi_p"], strict=True)
        )
        basis = cls(q_list=q_list, p_list=p_list)
        if int(doc["dnum"]) != basis.dnum:
            raise ValueError(f"dnum {doc['dnum']} is not the digit count of L={basis.l_max}, "
                             f"K={basis.k}, which is {basis.dnum}")
        return basis


def make_basis(n: int, levels: int, dnum: int, bits: int, first_bits: int | None = None,
               p_bits: int | None = None) -> RnsBasis:
    """Generate an RNS basis: L+1 ciphertext primes plus K = ceil((L+1)/dnum)
    special primes.  The basis reports the digit count that K gives, which
    can be below the dnum asked for (L=4, dnum=4: K=2, three digits).

    Parameter sets produced here are for functional verification; nothing
    about the sizes chosen claims cryptographic security.
    """
    k = digit_size(levels, dnum)
    first = first_bits or bits
    p_bits = p_bits or bits
    if first == bits:
        q_primes = find_ntt_primes(bits, 2 * n, levels + 1)
    else:
        q_primes = find_ntt_primes(first, 2 * n, 1)
        q_primes += find_ntt_primes(bits, 2 * n, levels)
    # Special primes must not collide with the chain primes of equal size.
    skip = sum(1 for m in q_primes if m.q.bit_length() == p_bits)
    p_primes = find_ntt_primes(p_bits, 2 * n, k, skip=skip)
    return RnsBasis(q_list=tuple(q_primes), p_list=tuple(p_primes))
