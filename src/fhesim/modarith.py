"""Exact modular arithmetic over NTT-friendly primes.

Every prime q used by the kernels satisfies q == 1 (mod 2N) so that a
primitive 2N-th root of unity psi exists (psi^N == -1 mod q).  Word size
is capped at 54 bits (q < 2^54, checked by PrimeModulus.create) so that a
product of two residues fits comfortably in double-word arithmetic on any
backend, and so that the uint64 NTT kernel's float64 quotient estimate
stays within its proven bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import List

from .opcount import digit_size

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
    """A prime q with a verified primitive 2N-th root of unity.

    Immutable after construction; safe to share across workers.
    """

    q: int
    two_n: int
    psi: int
    psi_inv: int
    n_inv: int
    # Barrett constants: mu = floor(2^(2k) / q) with k = bitlen(q).
    barrett_k: int = field(repr=False, default=0)
    barrett_mu: int = field(repr=False, default=0)

    @classmethod
    def create(cls, q: int, two_n: int, psi: int) -> "PrimeModulus":
        if q.bit_length() > MAX_WORD_BITS:
            raise WordSizeExceeded(f"modulus {q} exceeds the {MAX_WORD_BITS}-bit word size")
        n = two_n // 2
        if pow(psi, two_n, q) != 1 or pow(psi, n, q) != q - 1:
            raise ValueError(f"psi={psi} is not a primitive {two_n}-th root mod {q}")
        k = q.bit_length()
        return cls(
            q=q,
            two_n=two_n,
            psi=psi,
            psi_inv=pow(psi, -1, q),
            n_inv=pow(n, -1, q),
            barrett_k=k,
            barrett_mu=(1 << (2 * k)) // q,
        )

    @property
    def n(self) -> int:
        return self.two_n // 2


def mod_mul(a: int, b: int, m: PrimeModulus) -> int:
    """a*b mod q via Barrett reduction: one 2w-bit product, fixed corrections.

    Operands must already be reduced. The quotient estimate is off by at
    most two, so two conditional subtractions always suffice.
    """
    q = m.q
    t = a * b
    k = m.barrett_k
    qhat = ((t >> (k - 1)) * m.barrett_mu) >> (k + 1)
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
    """(skip+1)-th prime of the given bit length with q == 1 (mod two_n)."""
    return find_ntt_primes(bits, two_n, 1, skip)[0]


def find_ntt_primes(bits: int, two_n: int, count: int, skip: int = 0) -> List[PrimeModulus]:
    """count primes of the given bit length with q == 1 (mod two_n), in
    ascending order after skipping the first skip; one scan of the candidates."""
    if bits > MAX_WORD_BITS:
        raise WordSizeExceeded(f"bit length {bits} exceeds word size {MAX_WORD_BITS}")
    if two_n & (two_n - 1) != 0:
        raise ValueError("two_n must be a power of two")
    lo, hi = 1 << (bits - 1), 1 << bits
    # Smallest candidate of this bit length congruent to 1 mod two_n.
    q = lo + 1 if lo % two_n == 0 else lo + (two_n - lo % two_n) + 1
    found: List[PrimeModulus] = []
    remaining = skip
    while q < hi and len(found) < count:
        if is_prime(q):
            if remaining == 0:
                found.append(PrimeModulus.create(q, two_n, _find_primitive_root(q, two_n)))
            else:
                remaining -= 1
        q += two_n
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

    K = ceil((L+1)/dnum) special primes back the key-switching digits; the
    base-conversion constants (hats) are derived lazily by the CKKS layer.
    """

    q_list: tuple
    p_list: tuple
    n: int
    dnum: int

    def __post_init__(self):
        moduli = [m.q for m in self.q_list + self.p_list]
        if len(set(moduli)) != len(moduli):
            raise ValueError("RNS moduli must be pairwise distinct primes")
        if self.k * self.dnum < self.l_max + 1:
            raise ValueError("dnum * K must cover the full modulus chain")
        for m in self.q_list + self.p_list:
            if m.two_n != 2 * self.n:
                raise ValueError("all moduli must support the ring degree")

    @property
    def l_max(self) -> int:
        return len(self.q_list) - 1

    @property
    def k(self) -> int:
        return len(self.p_list)

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
        n = int(doc["n"])
        q_list = tuple(
            PrimeModulus.create(int(q), 2 * n, int(psi))
            for q, psi in zip(doc["q"], doc["psi_q"])
        )
        p_list = tuple(
            PrimeModulus.create(int(q), 2 * n, int(psi))
            for q, psi in zip(doc["p"], doc["psi_p"])
        )
        return cls(q_list=q_list, p_list=p_list, n=n, dnum=int(doc["dnum"]))


def make_basis(n: int, levels: int, dnum: int, bits: int, first_bits: int | None = None,
               p_bits: int | None = None) -> RnsBasis:
    """Generate an RNS basis: L+1 ciphertext primes plus K special primes.

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
    return RnsBasis(q_list=tuple(q_primes), p_list=tuple(p_primes), n=n, dnum=dnum)
