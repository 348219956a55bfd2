"""Negacyclic polynomial kernels over RNS limbs: the forward/inverse NTT
(natural input, bit-reversed output and back), the hierarchical (N1, N2)
NTT, the automorphism (the direct map, its shuffle-tree realization and its
NTT-domain gather), and the triadic pointwise MAS unit.

The production kernels are NumPy rows kernels over (..., R, N) stacks of
limbs, row r over its own modulus, on integer residues in [0, q) (checked)
and moduli below 2^54.  ntt_rows and intt_rows walk the radix-2 stages on
signed int64 values, split at chunks of about sqrt(N) so that no NumPy
inner loop is short, and reduce only where _lazy_schedule needs it.
Products estimate their quotient in float64 (Shoup's trick).  ntt_reference,
intt_reference and mas are one-row calls on Polys, ntt_hybrid the same walk
split at N1.  The pure-int code is only the oracles ntt_oracle, intt_oracle
and automorphism_oracle, plus automorphism_shuffle (the AUT unit's dataflow).

Layout convention shared with the AUT unit: memory j holds the contiguous
chunk [j*N1, (j+1)*N1) of a ring element, so reading one address across all
N2 memories yields the stride-N1 row used by the first NTT phase and by the
automorphism.  The hardware never transposes; the NumPy walk makes one
transposed copy for the second phase's short butterflies.
"""

from __future__ import annotations

import functools
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence, Tuple

import numpy as np

from .modarith import PrimeModulus


class DomainError(Exception):
    """Operation applied to a polynomial in the wrong domain."""


class ResidueOutOfRange(ValueError):
    """A coefficient handed to the NTT/INTT kernel lies outside [0, q)."""


class LengthMismatch(ValueError):
    """Operands of a pointwise op have the wrong length, or a serialized buffer
    does not hold the layout its reader expects."""


class PlanMismatch(Exception):
    """NttPlan does not factor the polynomial length."""


class InvalidGalois(Exception):
    """Galois element must be odd and inside (0, 2N)."""


class ModulusMismatch(Exception):
    pass


class DomainMismatch(Exception):
    pass


class Domain(Enum):
    COEFF = 0
    NTT = 1


class _Coeffs:
    """Poly.coeffs: a list of Python ints, or a read-only uint64 row that
    becomes that list when it is first read.

    The read drops the row, so an edit of the list is what every later
    reader sees, kernels included (_words).  Any other array is read into a
    list at once: only a frozen row may be shared.
    """

    def __get__(self, p, owner=None):
        if p is None:
            # No class-level value: the dataclass field keeps no default.
            raise AttributeError("coeffs")
        value = vars(p)["coeffs"]
        if isinstance(value, np.ndarray):
            value = vars(p)["coeffs"] = value.tolist()
        return value

    def __set__(self, p, value):
        if isinstance(value, np.ndarray) and (value.flags.writeable
                                              or value.dtype != np.uint64):
            value = value.tolist()
        vars(p)["coeffs"] = value


@dataclass
class Poly:
    coeffs: List[int] = _Coeffs()
    modulus: PrimeModulus
    domain: Domain = Domain.COEFF

    @property
    def n(self) -> int:
        return len(_words(self))

    def copy(self) -> "Poly":
        """An independent limb; a frozen row is shared, not read into a list."""
        words = _words(self)
        return Poly(words if isinstance(words, np.ndarray) else list(words),
                    self.modulus, self.domain)


def _words(p: Poly):
    """p's residues as stored: its frozen uint64 row until p.coeffs is first
    read, the list after that."""
    return vars(p)["coeffs"]


def _unstack(x: np.ndarray, moduli: Sequence[PrimeModulus], domain: Domain) -> List[Poly]:
    """The rows of a (rows, N) result stack as row-backed limbs.

    Each limb holds a view of its row.  The stack is frozen, and so is the
    array it views, if any, so that no later write reaches a limb."""
    _frozen(*(a for a in (x, x.base) if isinstance(a, np.ndarray)))
    return [Poly(row, m, domain) for row, m in zip(x, moduli)]


@dataclass(frozen=True)
class NttPlan:
    """(N1, N2) factorization; the transform costs N1 cycles at N2 lanes."""

    n1: int
    n2: int

    def __post_init__(self):
        for side in (self.n1, self.n2):
            if side < 1 or side & (side - 1):
                raise PlanMismatch(f"plan sides must be powers of two, got {self}")

    @property
    def n(self) -> int:
        return self.n1 * self.n2

    def validate(self, n: int) -> None:
        if self.n != n:
            raise PlanMismatch(f"plan {self.n1}x{self.n2} does not cover N={n}")


# ---------------------------------------------------------------------------
# Twiddle tables, drawn from the stored psi-power table of their modulus and
# keyed by the whole modulus (one q can carry different roots psi), built once
# by a cached function and held read-only; the oracles take .tolist() copies.


def _bitrev_permutation(size: int) -> np.ndarray:
    """[bitrev(i, log2 size) for i < size], built by doubling: the reversal
    of i in k+1 bits is 2*rev_k(i) for i < 2^k and 2*rev_k(i - 2^k) + 1 above."""
    rev = np.zeros(1, dtype=np.int64)
    while rev.size < size:
        rev = np.concatenate((2 * rev, 2 * rev + 1))
    return rev


@functools.cache
def _psi_powers(m: PrimeModulus) -> np.ndarray:
    """[psi^e for e < 2N] of one modulus: the stored twiddle table, shared
    by every table drawn from it.  Built by doubling: the powers below 2h
    are those below h and those times psi^h, one _mulmod by a constant,
    exact for every q < 2^54 (TwiddleSource.table is the pure-int oracle)."""
    table, h, q = np.ones(m.two_n, dtype=np.uint64), 1, np.uint64(m.q)
    while h < m.two_n:
        w = pow(m.psi, h, m.q)
        table[h:2 * h] = _mulmod(table[:h], np.uint64(w), np.float64(w / m.q), q)
        h *= 2
    return _frozen(table)[0]


@functools.cache
def _psi_table_bitrev(m: PrimeModulus, size: int, stride_exp: int,
                      inverse: bool) -> np.ndarray:
    """[psi^(stride_exp * bitrev(i, log2 size)) for i < size], negated exponents
    when inverse."""
    two_n = m.two_n
    exps = stride_exp * _bitrev_permutation(size) % two_n
    if inverse:
        exps = (two_n - exps) % two_n
    return _frozen(_psi_powers(m)[exps])[0]


def _ring_stride(m: PrimeModulus, n: int) -> int:
    """Exponent stride mapping psi (a 2*m.n-th root) onto a 2n-th root."""
    if n < 1 or n & (n - 1):
        raise PlanMismatch(f"polynomial length {n} must be a power of two")
    if m.n % n:
        raise PlanMismatch(f"modulus supports 2N={m.two_n}, not length {n}")
    return m.n // n


# ---------------------------------------------------------------------------
# Core butterflies (in-place on raw lists)


def _ct_negacyclic(x: List[int], size: int, table: List[int], q: int) -> None:
    """Cooley-Tukey pass, natural order in, bit-reversed out.

    table[h + i] holds the butterfly constant of block i at half-size h,
    i.e. the 2*size-th roots in bit-reversed order.
    """
    t = size
    m = 1
    while m < size:
        t >>= 1
        for i in range(m):
            s = table[m + i]
            j1 = 2 * i * t
            for j in range(j1, j1 + t):
                u = x[j]
                v = x[j + t] * s % q
                x[j] = (u + v) % q
                x[j + t] = (u - v) % q
        m <<= 1


def _gs_inverse(x: List[int], size: int, table: List[int], q: int) -> None:
    """Gentleman-Sande pass, bit-reversed in, natural out (no 1/N scaling)."""
    t = 1
    m = size
    while m > 1:
        h = m >> 1
        j1 = 0
        for i in range(h):
            s = table[h + i]
            for j in range(j1, j1 + t):
                u = x[j]
                v = x[j + t]
                x[j] = (u + v) % q
                x[j + t] = (u - v) * s % q
            j1 += 2 * t
        t <<= 1
        m = h


# ---------------------------------------------------------------------------
# Oracle transforms: the pure-int butterflies, used only by verify and tests


def ntt_oracle(p: Poly) -> Poly:
    """Forward negacyclic NTT in Python integers; output in bit-reversed order."""
    if p.domain != Domain.COEFF:
        raise DomainError("ntt_oracle expects a coefficient-domain polynomial")
    m = p.modulus
    n = p.n
    table = _psi_table_bitrev(m, n, _ring_stride(m, n), inverse=False).tolist()
    x = list(p.coeffs)
    _ct_negacyclic(x, n, table, m.q)
    return Poly(x, m, Domain.NTT)


def intt_oracle(p: Poly) -> Poly:
    """Exact inverse of ntt_oracle, including the 1/N scaling."""
    if p.domain != Domain.NTT:
        raise DomainError("intt_oracle expects an NTT-domain polynomial")
    m = p.modulus
    n = p.n
    table = _psi_table_bitrev(m, n, _ring_stride(m, n), inverse=True).tolist()
    x = list(p.coeffs)
    _gs_inverse(x, n, table, m.q)
    n_inv = m.n_inv if n == m.n else pow(n, -1, m.q)
    q = m.q
    return Poly([c * n_inv % q for c in x], m, Domain.COEFF)


# ---------------------------------------------------------------------------
# Production kernels: word-exact uint64 NumPy, over stacks of limbs

# Multiples of q that _mulmod subtracts, in turn, to fold [0, 7q) into [0, q).
_PRODUCT_FOLDS = (4, 2, 1)
# _mulmod_vv adds _VV_OFFSET*q, then folds [0, 20q) into [0, q) by these.
_VV_OFFSET = 9
_VV_FOLDS = (16, 8, 4, 2, 1)


def _shoup_ratios(ws, q: int) -> np.ndarray:
    """fl(w/q) per twiddle w in [0, q), q < 2^54: bit-identical to Python's
    correctly rounded w / q, though w and q need not fit a float64.

    Scaled by 2^s into [q/2, q) (0 stays 0), w/q has the significand M =
    floor(w*2^53 / q), plus one where the remainder passes q/2: q is odd, so
    there is no tie.  fl(w) < 2^54 keeps the bit length of w, which gives s.
    The estimate m = fl(fl(w)/fl(q))*2^53 carries three roundings of at
    most 2^-53 relative, so |m - w*2^53/q| < 3.01 and w*2^53 - m*q lies in
    (-3.01q, 3.01q), exact in wrapping uint64 arithmetic read as int64: one
    floor division by q corrects m to M.
    """
    w = np.asarray(ws, dtype=np.uint64)
    s = (q.bit_length() - np.frexp(w.astype(np.float64))[1]).astype(np.uint64)
    s -= (w << s) >= q
    w = w << s
    m = (w.astype(np.float64) / q * 2.0 ** 53).astype(np.int64)
    rem = ((w << np.uint64(53)) - m.view(np.uint64) * np.uint64(q)).view(np.int64)
    k = rem // q
    m += k + (2 * (rem - k * q) > q)
    return np.ldexp(m.astype(np.float64), -53 - s.view(np.int64))


@functools.cache
def _twiddle_arrays(m: PrimeModulus, n: int, inverse: bool) -> Tuple[np.ndarray, np.ndarray]:
    """The _psi_table_bitrev table as uint64 twiddles and their w/q ratios.

    Slot 0 is never read by a butterfly.  For the inverse it holds 1/n, and
    slot 1, the last INTT stage's twiddle, is multiplied by 1/n, so that
    stage applies the scaling.  The forward table is _psi_table_bitrev's
    own array, not a copy.
    """
    q = m.q
    table = _psi_table_bitrev(m, n, _ring_stride(m, n), inverse)
    if inverse:
        n_inv = m.n_inv if n == m.n else pow(n, -1, q)
        table = table.copy()
        table[0] = n_inv
        if n > 1:
            table[1] = int(table[1]) * n_inv % q
    return _frozen(table, _shoup_ratios(table, q))


@functools.lru_cache(maxsize=256)
def modulus_columns(moduli: Tuple[PrimeModulus, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """q as an (R, 1) uint64 column and 1/q, correctly rounded, as float64."""
    return _frozen(np.array([m.q for m in moduli], dtype=np.uint64)[:, None],
                   np.array([1 / m.q for m in moduli], dtype=np.float64)[:, None])


def _frozen(*arrays: np.ndarray) -> tuple:
    """The arrays, read-only: cached tables are shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _mulmod_lazy(a: np.ndarray, w: np.ndarray, ratio: np.ndarray,
                 q: np.uint64) -> np.ndarray:
    """a*w mod q plus a multiple of q, in [0, 7q); a < 2^54, w in [0, q), q < 2^54.

    a need not be below q: base conversion multiplies residues of one
    modulus by constants of another, smaller one.  The quotient estimate
    is qhat = floor(fl(fl(a) * r)), with r = fl(w/q) correctly rounded.
    With Q = a*w/q:
      |fl(a) - a| <= 1 (exact below 2^53, spacing 2 up to 2^54), fl(a) <= 2^54;
      w/q < 1, so |r - w/q| <= 2^-54 and r <= 1, hence a*|r - w/q| < 1;
      fl(a)*r <= 2^54, so the product rounds by at most 1.
    Hence |fl(fl(a)*r) - Q| <= |fl(a) - a|*r + a*|r - w/q| + 1 < 1 + 1 + 1,
    and qhat - floor(Q) lies in [-3, 3].  Then a*w - qhat*q equals
    (a*w mod q) + k*q with k in [-3, 3], so adding 3q gives a value in
    [0, 7q), below 2^57: the wrapping uint64 arithmetic is exact.  Only
    a < 2^54 and w < q enter the three error terms, so the bound holds for
    every a below 2^54 whatever the modulus it is a residue of.
    """
    qhat = (a * ratio).astype(np.uint64)
    qhat *= q
    x = a * w
    x -= qhat
    x += np.uint64(3) * q
    return x


def _mulmod(a: np.ndarray, w: np.ndarray, ratio: np.ndarray, q: np.uint64) -> np.ndarray:
    """a*w mod q in [0, q), by _mulmod_lazy and branch-free folds.

    The operands broadcast against each other, and q may be an array too.
    """
    x = _mulmod_lazy(a, w, ratio, q)
    for k in _PRODUCT_FOLDS:
        _fold(x, np.uint64(k) * q)
    return x


def _mulmod_vv_lazy(a: np.ndarray, b: np.ndarray, q: np.ndarray,
                    qinv: np.ndarray) -> np.ndarray:
    """a*b mod q plus a multiple of q, in [0, 19q), for two varying operands.

    a, b in [0, q), q < 2^54, qinv = fl(1/q) correctly rounded; all four
    broadcast.  No table holds b/q here, so the ratio is formed per element,
    r = fl(fl(b) * qinv), and qhat = floor(s) with s = fl(fl(a) * r).  Let
    u = 2^-53 and Q = a*b/q < q < 2^54.  Each of fl(a), fl(b) is off by at
    most 1 (exact below 2^53, spacing 2 up to 2^54), and qinv and the two
    products each carry one relative rounding of at most u, so
      s = (a + ea)(b + eb)/q * (1 + E),  |ea|, |eb| <= 1,  |E| <= (1+u)^3 - 1.
    Then |(a + ea)(b + eb) - a*b| <= a + b + 1 < 2q, so
      |s - Q| < 2(1 + |E|) + Q*|E| < 2.01 + 2^54 * 3.01u < 8.1,
    and floor(Q) - qhat lies in [-9, 9].  a*b - qhat*q is therefore
    (a*b mod q) + k*q with k in [-9, 9]; adding 9q gives [0, 19q), below
    2^59, so the wrapping uint64 arithmetic is exact.  s >= 0, so the cast
    to uint64 is the floor.  A sum of m such products wraps only if
    19*m*q > 2^64: callers that reduce a sum once assert the bound.
    """
    ratio = b.astype(np.float64) * qinv
    qhat = (a.astype(np.float64) * ratio).astype(np.uint64)
    qhat *= q
    x = a * b
    x -= qhat
    x += np.uint64(_VV_OFFSET) * q
    return x


def _mulmod_vv(a: np.ndarray, b: np.ndarray, q: np.ndarray, qinv: np.ndarray,
               acc: np.ndarray | None = None) -> np.ndarray:
    """(acc +) a*b mod q in [0, q); _mulmod_vv_lazy then branch-free folds.

    acc, when given, lies in [0, q): the lazy value plus it stays below 20q,
    which the folds by 16q, 8q, 4q, 2q and q bring into [0, q).
    """
    x = _mulmod_vv_lazy(a, b, q, qinv)
    if acc is not None:
        x += acc
    for k in _VV_FOLDS:
        _fold(x, np.uint64(k) * q)
    return x


def _fold(x: np.ndarray, c: np.uint64) -> np.ndarray:
    """x in [0, 2c) -> x mod c, in place: below c, x - c wraps above x."""
    return np.minimum(x, x - c, out=x)


def _checked_rows(x, q: np.ndarray, copy: bool = True) -> np.ndarray:
    """The (..., R, N) stack x as uint64, every row r checked against q[r]: a
    fresh copy, or x itself if it is a uint64 array and copy is False."""
    refused = _refused_dtype(x)
    if refused is not None:
        raise ResidueOutOfRange(f"residues must be integers in [0, q), got dtype {refused}")
    try:
        x = np.array(x, dtype=np.uint64, copy=copy or None)
    except OverflowError:
        raise ResidueOutOfRange("coefficients must lie in [0, q) of their row") from None
    if x.ndim < 2 or x.shape[-2] != len(q):
        raise LengthMismatch(f"a stack of {len(q)} rows needs shape (..., {len(q)}, N), "
                             f"got {x.shape}")
    if x.size and (x.max(axis=-1, keepdims=True) >= q).any():
        raise ResidueOutOfRange("coefficients must lie in [0, q) of their row")
    return x


def _refused_dtype(x):
    """The dtype of the first row or array of x that NumPy holds in no integer
    kind, or None; ints past 2^64 are objects, left to the range check."""
    if isinstance(x, (list, tuple)) and x and isinstance(x[0], (list, tuple, np.ndarray)):
        return next((d for d in map(_refused_dtype, x) if d is not None), None)
    dtype = np.asarray(x).dtype
    return None if dtype.kind in "iuO" else dtype


def _stack(limbs: Sequence[Poly], domain: Domain | None = None) -> np.ndarray:
    """The residues of limbs, rows or read lists alike, as one fresh (rows, N)
    uint64 array, each checked to lie in [0, q) of its limb (_checked_rows)."""
    if domain is not None and any(p.domain != domain for p in limbs):
        raise DomainError(f"expected {domain.name}-domain limbs")
    q, _ = modulus_columns(tuple(p.modulus for p in limbs))
    return _checked_rows([_words(p) for p in limbs], q)


# _lazy_rows shifts (-2q, 2q) by 2q, then folds [0, 4q) into [0, q) by these.
_CANONICAL_FOLDS = (2, 1)


def _mulmod_signed(a: np.ndarray, w: np.ndarray, ratio: np.ndarray, q: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """a*w - trunc(fl(fl(a)*r))*q, r = fl(w/q): a*w mod q plus a signed
    multiple of q; int64 a, w, q with |a| <= 2^62, 0 <= w < q < 2^54.

    With u = 2^-53 and Q = a*w/q: fl(a) is within u|a| of a, fl(fl(a)*r)
    within u|a| of fl(a)*r (r <= 1), and r within u/2 of w/q < 1, so the
    quotient is off by less than 1 + 2.5*|a|*2^-53 and the result lies below
    q*(1 + 2.5u|a|) in magnitude: exact in wrapping int64 arithmetic where
    that is below 2^63.  out may be a.
    """
    qhat = np.empty(np.broadcast(a, ratio).shape, np.int64)
    np.multiply(a, ratio, out=qhat, casting="unsafe")
    qhat *= q
    out = np.multiply(a, w, out=out)
    out -= qhat
    return out


def _reduce_signed(x: np.ndarray, q: np.ndarray, qinv: np.ndarray) -> None:
    """x -= trunc(fl(fl(x)*qinv))*q in place, qinv = fl(1/q): _mulmod_signed
    at w = 1, but with all three roundings relative, |x| < q + 3.01*|x|*2^-53."""
    qhat = np.multiply(x, qinv, out=np.empty(x.shape, np.int64), casting="unsafe")
    qhat *= q
    x -= qhat


@functools.lru_cache(maxsize=256)
def _lazy_schedule(q: int, n: int, inverse: bool) -> Tuple[bool, ...]:
    """Whether _lazy_rows reduces the stack before each stage, over moduli
    up to q: only where a value could pass 2^62 otherwise.

    A stage maps a bound b on |x| to b + V(b) (Cooley-Tukey: u +- v*w) or to
    max(2b, V(2b)) (Gentleman-Sande: u + v and (u - v)*w; the last stage
    multiplies both), V(a) = q + (5*a*q >> 54) + 1 above _mulmod_signed's
    bound; a reduction first makes b R(b) = q + (b >> 51) + 1, above
    _reduce_signed's.  Up to 2^62 the int64 arithmetic and the casts are
    exact, and from there a reduced stage stays below 2^58.  The bounds grow
    with q, so every row keeps to them at its own q and ends at a B with
    (B >> 51) + 1 <= q (for q > 2^11 as B <= 2^62, below as q > 2N keeps B
    under q^2), which the closing reduction needs.
    """
    stages = n.bit_length() - 1
    plan, b = [], q
    for i in range(stages):
        for reduce in (False, True):
            a = q + (b >> 51) + 1 if reduce else b
            s = 2 * a if inverse else a
            v = q + (5 * s * q >> 54) + 1
            out = (v if i == stages - 1 else max(s, v)) if inverse else a + v
            if max(s, out) <= 1 << 62:
                break
        plan.append(reduce)
        b = out
    return tuple(plan)


# Bytes of stacked twiddles _stage_twiddles keeps, 16 per row and coefficient:
# 64 stacks of 30 rows at N = 2^10, or all 7 (41 MiB) of a key switch at
# N = 2^16, L = 7, but not the GBs a paper-size run could touch.
_STAGE_CACHE_BYTES = 1 << 28


def _lru_by_bytes(size_of):
    """A cache like functools.lru_cache, bounded by _STAGE_CACHE_BYTES in all:
    size_of(*args) is what one result holds.  The least recently used results
    go first; one larger than the bound is returned, not kept, and evicts
    nothing.  It is keyed by hash(args), computed once per call (a
    PrimeModulus hashes in Python), and a hit must hold equal arguments."""
    def decorate(fn):
        cache, lock = OrderedDict(), threading.Lock()

        @functools.wraps(fn)
        def cached(*args):
            key = hash(args)
            with lock:
                hit = cache.get(key)
                if hit is not None and hit[0] == args:
                    cache.move_to_end(key)
                    return hit[1]
            out, size = fn(*args), size_of(*args)
            with lock:
                if size <= _STAGE_CACHE_BYTES:
                    cache[key] = args, out, size
                    cache.move_to_end(key)
                while sum(entry[2] for entry in cache.values()) > _STAGE_CACHE_BYTES:
                    cache.popitem(last=False)
            return out
        cached.cache_clear = cache.clear
        return cached
    return decorate


@_lru_by_bytes(lambda moduli, n, *_: 16 * len(moduli) * n)
def _stage_twiddles(moduli: Tuple[PrimeModulus, ...], n: int, inverse: bool, chunk: int) -> tuple:
    """(blocks, twiddles, w/q ratios) of each _lazy_rows stage in walk order,
    from the moduli's _twiddle_arrays stacked once: slots [blocks, 2*blocks)
    as (R, blocks, 1, 1) on rows while blocks < c = n // chunk, then as
    (R, blocks // c, 1, c), stored transposed, on z: block a*(blocks // c) + l
    of a row is sub-block l of chunk a; the inverse's last stage reads slots 0, 1.
    """
    w, ratio = (np.stack(t) for t in zip(*(_twiddle_arrays(m, n, inverse) for m in moduli)))
    r, c, out = len(moduli), n // chunk, []
    for s in range(n.bit_length() - 1):
        blocks = n >> s + 1 if inverse else 1 << s
        k, shape = slice(blocks, 2 * blocks), (r, blocks, 1, 1)
        if blocks >= c:
            shape = (r, blocks // c, 1, c)
            for a in (w, ratio):
                a[:, k] = a[:, k].reshape(r, c, -1).transpose(0, 2, 1).reshape(r, -1)
        if inverse and blocks == 1:  # 1/N and w/N scale both halves
            k, shape = slice(0, 2), (r, 2, 1, 1)
        out.append((blocks, w.view(np.int64)[:, k].reshape(shape), ratio[:, k].reshape(shape)))
    _frozen(w, ratio, *(a for _, *pair in out for a in pair))
    return tuple(out)


def _lazy_rows(x, moduli: Sequence[PrimeModulus], inverse: bool, chunk: int = 0) -> np.ndarray:
    """ntt_rows or intt_rows split at chunks of `chunk` (n >> floor(log2(n)/2)
    by default): stages that mix the c = n // chunk chunks run on the rows,
    viewed (..., R, c, chunk), the others on z, a transposed copy (..., R,
    chunk, c).  The inverse makes z from its checked input, the forward
    writes z back with the shift by 2q, for which the closing reduction
    leaves |x| < 2q (_lazy_schedule), before _CANONICAL_FOLDS."""
    moduli = tuple(moduli)
    q, qinv = modulus_columns(moduli)
    x = _checked_rows(x, q, copy=not inverse)
    if not moduli:
        return x
    n, lead = x.shape[-1], x.shape[:-1]
    chunk = chunk or n >> (n.bit_length() - 1) // 2
    c, qs, qinv = n // chunk, q.view(np.int64)[:, :, None], qinv[:, :, None]
    z = np.empty((*lead, chunk, c), dtype=np.int64)
    if inverse:  # z from the input, and a new array for the output
        z[...] = x.view(np.int64).reshape(*lead, c, chunk).swapaxes(-1, -2)
        x = np.empty_like(x)
    rows = x.view(np.int64).reshape(*lead, c, chunk)
    live = z if inverse else rows
    for reduce, (blocks, w, ratio) in zip(_lazy_schedule(max(m.q for m in moduli), n, inverse),
                                          _stage_twiddles(moduli, n, inverse, chunk)):
        if (blocks >= c) != (live is z):  # the split: the other view takes over
            (rows if live is z else z)[...] = live.swapaxes(-1, -2)
            live = rows if live is z else z
        if reduce:
            _reduce_signed(live, qs, qinv)
        view = live.reshape(*lead, blocks // c or blocks, 2, -1, live.shape[-1])
        u, v = view[..., 0, :, :], view[..., 1, :, :]
        if not inverse:
            p = _mulmod_signed(v, w, ratio, qs[..., None])
            np.subtract(u, p, out=v)
            u += p
            continue
        d = u - v
        u += v
        if blocks == 1:  # scale both halves: slots 0 and 1 hold 1/N and w/N
            v[...] = d
            d = v = view[..., 0, :, :, :]
        _mulmod_signed(d, w, ratio, qs[..., None], out=v)
    _reduce_signed(live, qs, qinv)
    np.add(live.swapaxes(-1, -2) if live is z else live, _CANONICAL_FOLDS[0] * qs, out=rows)
    for k in _CANONICAL_FOLDS:
        _fold(x, np.uint64(k) * q)
    return x


def ntt_rows(x, moduli: Sequence[PrimeModulus]) -> np.ndarray:
    """Forward negacyclic NTT of every row of a (..., R, N) stack of residues.

    Row r, in every leading batch position, is a limb over moduli[r], and x
    any array-like of integers in [0, q) of their row (checked).  Returns a
    new uint64 stack in bit-reversed order, bit-identical to ntt_oracle.  The
    Cooley-Tukey stages that mix the c = 2^floor(log2(N) / 2) chunks of a row
    run on the rows, the rest on one transposed copy, on signed int64 values;
    only those _lazy_schedule names reduce first (none at 45 bits, N = 2^10).
    """
    return _lazy_rows(x, moduli, False)


def intt_rows(x, moduli: Sequence[PrimeModulus]) -> np.ndarray:
    """Exact inverse of ntt_rows, bit-identical to intt_oracle row by row.

    Gentleman-Sande stages, u + v and (u - v)*w, mirror the forward ones:
    inside the chunks on a transposed copy of the input, then across them on
    the rows.  The last stage multiplies by 1/N and w/N, so no pass scales.
    """
    return _lazy_rows(x, moduli, True)


def ntt_reference(p: Poly) -> Poly:
    """Forward negacyclic NTT of one limb: a one-row ntt_rows call."""
    if p.domain != Domain.COEFF:
        raise DomainError("ntt_reference expects a coefficient-domain polynomial")
    return _unstack(ntt_rows([_words(p)], (p.modulus,)), (p.modulus,), Domain.NTT)[0]


def intt_reference(p: Poly) -> Poly:
    """Inverse negacyclic NTT of one limb: a one-row intt_rows call."""
    if p.domain != Domain.NTT:
        raise DomainError("intt_reference expects an NTT-domain polynomial")
    return _unstack(intt_rows([_words(p)], (p.modulus,)), (p.modulus,), Domain.COEFF)[0]


def ntt_hybrid(p: Poly, plan: NttPlan) -> Poly:
    """Hierarchical NTT: ntt_reference's walk split at chunks of N1, the
    hardware's memories.  Its log2(N2) stages that mix chunks are phase one,
    the N1 size-N2 transforms of the stride-N1 columns; the rest are phase
    two, the N2 size-N1 transforms of the chunks, whose stage tables hold the
    interphase twiddles.  Each small transform writes bit-reversed order, so
    the output lands in the reference ordering."""
    if p.domain != Domain.COEFF:
        raise DomainError("ntt_hybrid expects a coefficient-domain polynomial")
    plan.validate(p.n)
    x = _lazy_rows([_words(p)], (p.modulus,), False, plan.n1)
    return _unstack(x, (p.modulus,), Domain.NTT)[0]


# ---------------------------------------------------------------------------
# Automorphism


def _check_gle(gle: int, two_n: int) -> None:
    if gle % 2 == 0 or not 0 < gle < two_n:
        raise InvalidGalois(f"galois element must be odd in (0, {two_n}), got {gle}")


def automorphism_oracle(p: Poly, gle: int) -> Poly:
    """Direct O(N) signed-permutation map x -> x^gle mod (x^N + 1)."""
    n = p.n
    two_n = 2 * n
    _check_gle(gle, two_n)
    q = p.modulus.q
    out = [0] * n
    for i, c in enumerate(p.coeffs):
        t = i * gle % two_n
        out[t % n] = c if t < n else (q - c) % q
    return Poly(out, p.modulus, p.domain)


@functools.lru_cache(maxsize=64)
def _aut_ntt_map(n: int, gle: int) -> np.ndarray:
    """The automorphism x -> x^gle on ntt_rows output, as a gather map.

    Slot i of the bit-reversed output holds the evaluation at psi^e with
    e = 2*brv(i) + 1.  a(X^gle) there is a(psi^(e*gle)), and e*gle mod 2N
    is odd again, the point of slot brv((e*gle mod 2N - 1) / 2): the map
    only permutes the slots, with no sign and no modulus.
    """
    _check_gle(gle, 2 * n)
    brv = _bitrev_permutation(n)
    e = (2 * brv + 1) * gle % (2 * n)
    return _frozen(brv[(e - 1) // 2])[0]


def automorphism_ntt_rows(x: np.ndarray, gle: int) -> np.ndarray:
    """ntt_rows . automorphism_oracle . intt_rows on every row of a (..., R, N)
    stack of NTT-domain limbs, as one gather through _aut_ntt_map.

    Returns a new stack.  The rows may carry any moduli: the map depends on
    N and gle only.
    """
    return x[..., _aut_ntt_map(x.shape[-1], gle)]


def _shuffle_tree(lanes: List[Tuple[int, int]], n2: int) -> List[int]:
    """Route (dest_lane, value) pairs through log2(N2) pairwise-merge stages.

    Each stage merges adjacent batches by one destination bit (an LSB-first
    radix pass), so after log2(N2) stages the lanes sit in destination
    order.  The stage count is the AUT unit's per-row pipeline depth.
    """
    batches = [[lane] for lane in lanes]
    bit = 1
    while len(batches) > 1:
        merged = []
        for k in range(0, len(batches), 2):
            pair = batches[k] + batches[k + 1]
            merged.append([e for e in pair if not e[0] & bit]
                          + [e for e in pair if e[0] & bit])
        batches = merged
        bit <<= 1
    out = [0] * n2
    for dest, value in batches[0]:
        out[dest] = value
    return out


def automorphism_shuffle(p: Poly, gle: int, plan: NttPlan) -> Poly:
    """Row-by-row automorphism through the lane shuffle network.

    For each source address l0 the N2 coefficients read across memories
    share one destination address l1 = l0*gle mod N1; only their lane
    order (and negacyclic signs) changes, handled by the shuffle tree.
    """
    n = p.n
    two_n = 2 * n
    _check_gle(gle, two_n)
    plan.validate(n)
    n1, n2 = plan.n1, plan.n2
    q = p.modulus.q
    coeffs = p.coeffs
    out = [0] * n
    for l0 in range(n1):
        index = l0 * gle
        l1 = index % n1
        lanes = []
        for j in range(n2):
            t = (index + j * n1 * gle) % two_n
            # Destination-address property: every lane of this row lands at l1.
            assert t % n % n1 == l1
            value = coeffs[l0 + j * n1]
            if t >= n:
                value = (q - value) % q
            lanes.append((t % n // n1, value))
        row = _shuffle_tree(lanes, n2)
        for j in range(n2):
            out[l1 + j * n1] = row[j]
    return Poly(out, p.modulus, p.domain)


# ---------------------------------------------------------------------------
# Triadic MAS unit


class MasOp(Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MAC = "mac"


def mas_rows(op: MasOp, a: np.ndarray, b: np.ndarray, moduli: Sequence[PrimeModulus],
             acc: np.ndarray | None = None) -> np.ndarray:
    """Pointwise MAS over (..., R, N) uint64 stacks of residues in [0, q).

    Row r is over moduli[r]; the operands broadcast.  ADD and SUB fold one
    sum or difference; MUL and MAC are one _mulmod_vv each.  Returns a new
    stack.
    """
    q, qinv = modulus_columns(tuple(moduli))
    if op == MasOp.ADD:
        return _fold(a + b, q)
    if op == MasOp.SUB:
        x = a - b
        x += q
        return _fold(x, q)
    if op == MasOp.MUL:
        return _mulmod_vv(a, b, q, qinv)
    if op == MasOp.MAC:
        if acc is None:
            raise ValueError("MAC requires an accumulator")
        return _mulmod_vv(a, b, q, qinv, acc)
    raise ValueError(f"unknown MAS op {op}")  # pragma: no cover


def mas(op: MasOp, a: Poly, b: Poly, acc: Poly | None = None) -> Poly:
    """Pointwise multiply/add/subtract or multiply-and-accumulate of one limb:
    a one-row mas_rows call.  Residues must lie in [0, q)."""
    if a.modulus.q != b.modulus.q:
        raise ModulusMismatch("operands use different moduli")
    if a.domain != b.domain:
        raise DomainMismatch("operands live in different domains")
    if a.n != b.n or (acc is not None and acc.n != a.n):
        raise LengthMismatch("MAS operands must have equal lengths")
    z = None
    if op == MasOp.MAC:
        if acc is None:
            raise ValueError("MAC requires an accumulator")
        if acc.modulus.q != a.modulus.q:
            raise ModulusMismatch("accumulator uses a different modulus")
        if acc.domain != a.domain:
            raise DomainMismatch("accumulator lives in a different domain")
        z = _stack([acc])
    out = mas_rows(op, _stack([a]), _stack([b]), (a.modulus,), z)
    return _unstack(out, (a.modulus,), a.domain)[0]


# ---------------------------------------------------------------------------
# Serialization: (N, modulus_id, domain) header + little-endian u64 residues


_HEADER = struct.Struct("<IIB")


def row_to_bytes(row, modulus_id: int, domain: Domain) -> bytes:
    """One limb, a uint64 row or a list of residues, in the poly_to_bytes format."""
    row = np.asarray(row, dtype="<u8")
    return _HEADER.pack(row.size, modulus_id, domain.value) + row.tobytes()


def poly_to_bytes(p: Poly, modulus_id: int) -> bytes:
    return row_to_bytes(_words(p), modulus_id, p.domain)


def poly_from_bytes(data: bytes, modulus: PrimeModulus) -> Tuple[Poly, int]:
    """One limb of the poly_to_bytes format, row-backed, and its modulus id."""
    row, modulus_id, domain, end = _limb_from_bytes(data, 0)
    if end != len(data):
        raise LengthMismatch(f"{len(data)}-byte buffer does not hold the header "
                             f"plus {row.size} words")
    return Poly(row, modulus, domain), modulus_id


def rows_from_bytes(data: bytes, offset: int, moduli: Sequence[PrimeModulus], n: int,
                    domain: Domain) -> Tuple[np.ndarray, int]:
    """len(moduli) consecutive limbs of the row_to_bytes format from data[offset:]
    as one (rows, n) uint64 stack, and the offset after the last.

    Limb t must carry n words, modulus id t and the domain; each residue is
    checked to lie in [0, q) of moduli[t] (ResidueOutOfRange otherwise).
    """
    rows = []
    for t in range(len(moduli)):
        row, modulus_id, dom, offset = _limb_from_bytes(data, offset)
        if (row.size, modulus_id, dom) != (n, t, domain):
            raise LengthMismatch(f"limb {t} has header ({row.size}, {modulus_id}, "
                                 f"{dom.name}), expected ({n}, {t}, {domain.name})")
        rows.append(row)
    return _checked_rows(rows, modulus_columns(tuple(moduli))[0]), offset


def _limb_from_bytes(data: bytes, offset: int) -> Tuple[np.ndarray, int, Domain, int]:
    """The limb at data[offset:]: its residues as a read-only view of data, its
    modulus id and domain, and the offset after it."""
    if len(data) < offset + _HEADER.size:
        raise LengthMismatch(f"{len(data)}-byte buffer ends inside the limb header "
                             f"at byte {offset}")
    n, modulus_id, dom = _HEADER.unpack_from(data, offset)
    start = offset + _HEADER.size
    if len(data) < start + 8 * n:
        raise LengthMismatch(f"{len(data)}-byte buffer ends inside the {n} words "
                             f"at byte {start}")
    row = np.frombuffer(data, dtype="<u8", count=n, offset=start)
    return row, modulus_id, Domain(dom), start + 8 * n
