"""RNS-CKKS routines built on the polynomial kernels.

Covers seeded key generation (half of every switching key is regenerated
from 64-bit seeds through the keystream core), Add/Mult/Rotate, key
switching for dnum = L+1 and for arbitrary dnum via base conversion,
ModDown/Rescale, and a canonical-embedding encoder good enough to verify
everything end to end.  Parameter sets produced here are test-grade:
nothing about them claims cryptographic security.

Inside every routine a ring element is one (rows, N) uint64 array, one row
per RNS limb, and each step runs on all its limbs in one call of the rows
kernels of polykernel: ntt_rows/intt_rows (rows may carry different
moduli), automorphism_ntt_rows, mas_rows and the base conversion below.
Every modular product is polykernel's one signed product, and every result
leaves through its one canonical end; where products are summed in int64
before that reduction (key multiplication, base conversion), _lazy_terms
bounds the terms, and a longer sum raises LazySumOverflow.
Switching keys are stored as arrays too: each KskDigit holds ksk0, and
once expanded ksk1, as one (bases, N) array; the keys of one keygen share
one (keys, digits, bases, N) ksk0 array, the single keystream draw of all
their a limbs.  keygen returns the relin key expanded, its ksk1 a kept copy
of its part of that draw, since every relinearization reads all of it; the
rotation keys leave seeded, as a server that holds many of them would keep
them, and expand on first use.  So are the secret key's s, one read-only
(PQ_L bases, N) stack, and mult's (d0, d1, d2), one read-only (3, rows, N)
stack; moddown and bconv_routine take and return (..., rows, N) stacks.
Ciphertext and plaintext limbs are NTT-domain Polys, each one uint64 row; a
limb a routine builds holds a read-only view of its result (_unstack).  No
type stores a level: an element's level is its limb count minus one, and
mult's stack's its row count minus one.  Every routine reads its level's
bases from the tuples the context builds once, through one check (_bases):
a level outside [0, l_max], that is no limbs or more than the basis has,
raises LevelOutOfRange.  An input must hold one limb or row per base of its
level, each residue in [0, q): limbs are stacked into one fresh array
(_rows), stacks are checked in place (_checked), so no kernel writes to a
limb and an edited copy of a limb is checked like any input.

Rotation never leaves the NTT domain: X -> X^g only permutes the
evaluation points, so the Galois map is one gather of the bit-reversed
evaluations (automorphism_ntt_rows), for ciphertexts as for the target
secret of a rotation key.  rotate runs array-native from the input
ciphertext through that gather into the key switch.  rotate and relinearize
pick the switch in one place (_switch): keyswitch_full_dnum at K = 1,
keyswitch_generic otherwise.  Both key switches are one body, _keyswitch,
on an ExtCiphertext's (d0, d1, d2) stack (rotate hands it the permuted
(c0, 0, c1)); they differ only in the ModUp it streams into the key
products one digit at a time: at K = 1 the digit's one limb reduced into
every live base and NTT-transformed, otherwise base conversion.

Every kernel invocation is routed through small wrappers so a census of
micro-ops (INTT/NTT/MAS/AUT) can be recorded and compared against the
closed forms in opcount, which the simulator uses for its instruction
streams.  The census counts limbs: a call on R rows ticks R.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import opcount
from .modarith import PrimeModulus, RnsBasis
from .polykernel import (Domain, DomainError, LengthMismatch, MasOp, Poly, _canonical,
                         _checked_rows, _element_ratios, _frozen, _mulmod_signed, _unstack,
                         automorphism_ntt_rows, intt_rows, mas_rows, modulus_columns, ntt_rows,
                         row_to_bytes, rows_from_bytes)
# The one-limb kernels stay importable from this module for callers and
# tracers that look them up here; the routines below use the rows kernels.
from .polykernel import automorphism_oracle, intt_reference, mas, ntt_reference  # noqa: F401
from .trivium import uniform_residues

NOISE_SIGMA = 3.2


class LevelMismatch(Exception):
    pass


class ScaleMismatch(Exception):
    pass


class LevelExhausted(Exception):
    pass


class LevelOutOfRange(ValueError):
    """A level outside [0, l_max] of the basis."""


class EncodeOverflow(ValueError):
    """A rounded plaintext coefficient reaches Q_l/2 in magnitude or is not a
    finite number."""


class InvalidScale(ValueError):
    """A scale or delta that is not a positive finite number."""


class InvalidInteger(ValueError):
    """A seed, seed path step or rotation index that is not an integer (a bool
    is not one), or a negative keygen seed."""


class KeyLevelTooLow(Exception):
    pass


class MissingRotationKey(Exception):
    pass


class SlotOverflow(Exception):
    pass


class LazySumOverflow(ValueError):
    """A lazy sum holds more products than the canonical end reduces exactly."""


# ---------------------------------------------------------------------------
# Micro-op census

_census_stack: List[Dict[str, int]] = []


@contextmanager
def count_ops():
    counts = opcount.empty_census()
    _census_stack.append(counts)
    try:
        yield counts
    finally:
        _census_stack.pop()


def _tick(kind: str, n: int = 1) -> None:
    for counts in _census_stack:
        counts[kind] += n


def _limbs_in(x: np.ndarray) -> int:
    """Limbs in a (..., rows, N) stack, batch positions included."""
    return x.size // x.shape[-1]


def _ntt(x: np.ndarray, moduli: Sequence[PrimeModulus]) -> np.ndarray:
    _tick("NTT", _limbs_in(x))
    return ntt_rows(x, moduli)


def _intt(x: np.ndarray, moduli: Sequence[PrimeModulus]) -> np.ndarray:
    _tick("INTT", _limbs_in(x))
    return intt_rows(x, moduli)


def _reduce_ntt(rows: np.ndarray, moduli: Tuple[PrimeModulus, ...]) -> np.ndarray:
    """Coefficient-domain (..., 1, N) rows reduced into every modulus and
    NTT-transformed in one call: a (..., moduli, N) stack."""
    return _ntt(rows % modulus_columns(moduli)[0], moduli)


def _mas(op: MasOp, a: np.ndarray, b: np.ndarray, moduli: Sequence[PrimeModulus],
         acc: np.ndarray | None = None) -> np.ndarray:
    out = mas_rows(op, a, b, moduli, acc)
    _tick("MAS", _limbs_in(out))
    return out


def _aut(x: np.ndarray, gle: int) -> np.ndarray:
    _tick("AUT", _limbs_in(x))
    return automorphism_ntt_rows(x, gle)


def _submul(a: np.ndarray, b: np.ndarray, scalars: Sequence[int],
            moduli: Sequence[PrimeModulus]) -> np.ndarray:
    """(a - b) * scalar_r mod q_r on every row r, one fused triadic pass per limb.

    The scalar is fixed per row, so its ratio s/q is correctly rounded; the
    difference, in (-q, q), goes into the signed product as it is."""
    q, qinv = modulus_columns(tuple(moduli))
    q = q.view(np.int64)
    w = [s % m.q for s, m in zip(scalars, moduli)]
    diff = a.view(np.int64) - b.view(np.int64)
    out = _canonical(_mulmod_signed(diff, np.array(w)[:, None],
                                    np.array([v / m.q for v, m in zip(w, moduli)])[:, None],
                                    q, out=diff), q, qinv)
    _tick("MAS", _limbs_in(out))
    return out


def _lazy_terms(moduli: Sequence[PrimeModulus], a_max: int = 0) -> int:
    """The most products of an operand below a_max (q by default) and one
    below q whose int64 sum the canonical end reduces exactly, over every q
    of moduli.  A product is below P = q + (6*a_max*q >> 53) + 1, above
    polykernel._mulmod_signed's q + 5.01u*a_max*q, and m of them need
    m*P <= min(2^63, q << 51), as polykernel._canonical takes.  With no
    moduli there is no sum to bound."""
    return min((min(1 << 63, m.q << 51) // (m.q + (6 * (a_max or m.q) * m.q >> 53) + 1)
                for m in moduli), default=1 << 63)


# ---------------------------------------------------------------------------
# Constants derived from the moduli alone, cached per process (like
# polykernel.modulus_columns) as read-only arrays: every context over the
# same moduli shares them


@functools.lru_cache(maxsize=256)
def _gadget(basis: RnsBasis, j: int) -> Tuple[np.ndarray, np.ndarray]:
    """P * Qhat_j * [Qhat_j^-1]_{D_j} over all PQ_L bases, for digit j of the
    top level, as the int64 (w, w/q) operand columns of the signed product."""
    q_mods = [m.q for m in basis.q_list]
    digit = opcount.digit_ranges(basis.l_max, basis.k)[j]
    d_j = reduce(lambda a, b: a * b, (q_mods[i] for i in digit))
    q_hat = reduce(lambda a, b: a * b, q_mods) // d_j
    g = basis.p_product * q_hat * pow(q_hat, -1, d_j)
    bases = basis.q_list + basis.p_list
    return _frozen(np.array([g % m.q for m in bases], dtype=np.int64)[:, None],
                   np.array([g % m.q / m.q for m in bases])[:, None])


@functools.lru_cache(maxsize=256)
def _bconv_plan(sources: Tuple[PrimeModulus, ...],
                targets: Tuple[PrimeModulus, ...]) -> tuple:
    """The constant multipliers of a base conversion, for S sources and T
    targets, as two int64 (w, w/q) operand pairs of the signed product:
    hat_inv mod q_s shaped (S, 1), and hat mod q_t shaped (T, S, 1).  Python's
    int division rounds each w/q correctly.  The S products into each target
    are summed before one reduction, so S may not pass _lazy_terms."""
    mods = [m.q for m in sources]
    t_mods = [m.q for m in targets]
    if len(mods) > _lazy_terms(targets, max(mods, default=0)):
        raise LazySumOverflow(f"a base conversion from {len(mods)} sources can wrap "
                              f"its int64 sum")
    d = reduce(lambda a, b: a * b, mods)
    hat = [d // q for q in mods]
    hat_inv = [pow(h, -1, q) for h, q in zip(hat, mods)]
    hat_mod_t = [[h % qt for h in hat] for qt in t_mods]
    return (
        _frozen(np.array(hat_inv, dtype=np.int64)[:, None],
                np.array([h / q for h, q in zip(hat_inv, mods)])[:, None]),
        _frozen(np.array(hat_mod_t, dtype=np.int64)[:, :, None],
                np.array([[h / qt for h in row] for row, qt in zip(hat_mod_t, t_mods)])
                [:, :, None]),
    )


# Below this magnitude a coefficient rounded to an integer fits int64.
_INT64_SAFE = 2.0 ** 62


def _rounded_residues(coeffs: np.ndarray, moduli: Tuple[PrimeModulus, ...]) -> np.ndarray:
    """Each coefficient rounded half to even, as round() does, reduced into
    every modulus: a (rows, N) uint64 array.

    When every coefficient is below 2^62 in magnitude np.rint rounds in
    float64, the results fit int64 and a floor-mod by the q column reduces
    them; otherwise the coefficients go through Python ints.
    """
    if np.max(np.abs(coeffs)) < _INT64_SAFE:
        q, _ = modulus_columns(moduli)
        return (np.rint(coeffs).astype(np.int64) % q.astype(np.int64)).astype(np.uint64)
    ints = [int(round(c)) for c in coeffs.tolist()]
    return np.array([[c % m.q for c in ints] for m in moduli], dtype=np.uint64)


# ---------------------------------------------------------------------------
# Seed derivation (splitmix64) for the per-limb keystream seeds


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & (1 << 64) - 1
    z = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & (1 << 64) - 1
    z = (z ^ z >> 27) * 0x94D049BB133111EB & (1 << 64) - 1
    return z ^ z >> 31


def derive_seed(master: int, *path: int) -> int:
    """The 64-bit seed at path below master; InvalidInteger unless master and
    every step are integers."""
    s = opcount.check_integer(master, "the master seed", InvalidInteger) & (1 << 64) - 1
    for step in path:
        s = _splitmix64(s ^ opcount.check_integer(step, "a seed path step", InvalidInteger))
    return s


# ---------------------------------------------------------------------------
# Data types


@dataclass
class RnsPoly:
    """One ring element as NTT-domain residue limbs, one per q base of its level."""

    limbs: List[Poly]
    scale: float = field(default=0.0, kw_only=True)    # set on encoded plaintexts

    @property
    def level(self) -> int:
        return len(self.limbs) - 1

    def copy(self) -> "RnsPoly":
        return RnsPoly([p.copy() for p in self.limbs], scale=self.scale)


@dataclass
class Ciphertext:
    c0: RnsPoly
    c1: RnsPoly
    scale: float = field(kw_only=True)

    @property
    def level(self) -> int:
        return self.c0.level


@dataclass(eq=False)
class ExtCiphertext:
    """Three-component ciphertext produced by Mult, consumed by KeySwitch."""

    rows: np.ndarray            # (3, level+1, N) uint64 stack of (d0, d1, d2), NTT domain
    scale: float = field(kw_only=True)

    @property
    def level(self) -> int:
        return len(self.rows[0]) - 1


@dataclass(eq=False)
class KskDigit:
    ksk0: np.ndarray            # (bases of PQ_L, N) uint64, NTT domain
    ksk1_seeds: List[int]       # one 64-bit seed per base
    _ksk1: Optional[np.ndarray] = field(default=None, repr=False)  # expanded, like ksk0


@dataclass
class KeySwitchKey:
    digits: List[KskDigit]
    dnum: int


@dataclass(eq=False)
class SecretKey:
    """The secret s; its ternary coefficients are the centred INTT of row 0."""

    s: np.ndarray                         # read-only (PQ_L bases, N) uint64, NTT domain


@dataclass
class KeySet:
    relin: KeySwitchKey
    rotation: Dict[int, KeySwitchKey]


def _level_rows(bases: Tuple[PrimeModulus, ...], n: int, comps: Dict[str, RnsPoly]
                ) -> np.ndarray:
    """Components of the level of `bases` as a fresh (components, rows, N)
    array.  Each holds one NTT-domain limb of N residues per base, in order
    (LengthMismatch, DomainError), each residue in [0, q) (ResidueOutOfRange)."""
    for name, c in comps.items():
        if tuple(p.modulus for p in c.limbs) != bases:
            raise LengthMismatch(f"{name} holds {len(c.limbs)} limbs, not the "
                                 f"{len(bases)} bases of level {len(bases) - 1} in order")
        for i, p in enumerate(c.limbs):
            if len(p.coeffs) != n:
                raise LengthMismatch(f"{name} limb {i} holds {len(p.coeffs)} "
                                     f"residues, not N = {n}")
            if p.domain != Domain.NTT:
                raise DomainError(f"{name} limb {i} is in the {p.domain.name} domain, not NTT")
    x = np.stack([p.coeffs for c in comps.values() for p in c.limbs])
    return _checked_rows(x.reshape(len(comps), -1, n), modulus_columns(bases)[0], copy=False)


# ---------------------------------------------------------------------------
# Context


class CkksContext:
    """Parameters plus the encode/encrypt layer and all homomorphic routines."""

    def __init__(self, basis: RnsBasis, delta: float = float(2 ** 40)):
        self.basis = basis
        self.delta = opcount.check_positive_finite(delta, "delta", InvalidScale)
        self.n = basis.n
        self.slots = basis.n // 2
        self._theta = [pow(5, j, 2 * self.n) for j in range(self.slots)]
        q, p = tuple(basis.q_list), tuple(basis.p_list)
        self._level_bases = [(q[: lv + 1], q[: lv + 1] + p) for lv in range(len(q))]

    # -- base bookkeeping ---------------------------------------------------

    def _bases(self, level: int) -> Tuple[Tuple[PrimeModulus, ...], Tuple[PrimeModulus, ...]]:
        """(Q_l, PQ_l) of a level: the one level check of every routine.
        LevelOutOfRange unless level is an int, not a bool, in [0, l_max]."""
        return self._level_bases[opcount.check_integer(level, "level", LevelOutOfRange,
                                                        0, self.basis.l_max)]

    def all_bases(self) -> Tuple[PrimeModulus, ...]:
        return self._level_bases[-1][1]

    def live_bases(self, level: int) -> Tuple[PrimeModulus, ...]:
        return self._bases(level)[1]

    def _q_bases(self, level: int) -> Tuple[PrimeModulus, ...]:
        return self._bases(level)[0]

    def _galois(self, rot: int) -> int:
        """The Galois element 5^rot mod 2N of a rotation by rot slots;
        InvalidInteger unless rot is an integer."""
        return pow(5, opcount.check_integer(rot, "the rotation", InvalidInteger), 2 * self.n)

    # -- limbs in and out at the public API ----------------------------------

    def _rows(self, level: int, **comps: RnsPoly) -> np.ndarray:
        """Components of one level as a fresh (components, rows, N) array
        (_level_rows)."""
        return _level_rows(self._q_bases(level), self.n, comps)

    def _checked(self, x: np.ndarray, name: str, bases: Tuple[PrimeModulus, ...],
                 of: str) -> np.ndarray:
        """x, a (..., rows, N) stack, checked in place to hold one row of N
        residues per base, each in [0, q) of its row: LengthMismatch or
        ResidueOutOfRange."""
        shape = np.shape(x)
        if shape[-2:-1] != (len(bases),):
            raise LengthMismatch(f"{name} holds {shape[-2] if len(shape) > 1 else 'no'} "
                                 f"limbs, not the {len(bases)} {of}")
        if shape[-1] != self.n:
            raise LengthMismatch(f"{name} holds rows of {shape[-1]} residues, not N = {self.n}")
        return _checked_rows(x, modulus_columns(bases)[0], copy=False)

    def _ext_rows(self, d: ExtCiphertext) -> np.ndarray:
        """d's (3, rows, N) stack, checked in place against the level its rows give."""
        if np.ndim(d.rows) != 3 or len(d.rows) != 3:
            raise LengthMismatch(f"d holds a stack of shape {np.shape(d.rows)}, not (3, rows, N)")
        return self._checked(d.rows, "d", self._q_bases(d.level), f"bases of level {d.level}")

    def _ciphertext(self, x: np.ndarray, scale: float) -> Ciphertext:
        """A (2, rows, N) NTT-domain stack as a ciphertext at level rows - 1."""
        moduli = self._q_bases(len(x[0]) - 1)
        return Ciphertext(RnsPoly(_unstack(x[0], moduli, Domain.NTT)),
                          RnsPoly(_unstack(x[1], moduli, Domain.NTT)), scale=scale)

    # -- encoding -----------------------------------------------------------

    def encode(self, values: Sequence[complex], level: int,
               scale: float | None = None) -> RnsPoly:
        """Canonical-embedding encode of up to N/2 complex slots.

        Raises EncodeOverflow when a rounded coefficient reaches Q_l/2 in
        magnitude, where it would wrap modulo Q_l, or is not finite, and
        InvalidScale when scale is not a positive finite number; None means
        delta.
        """
        moduli = self._q_bases(level)
        if len(values) > self.slots:
            raise SlotOverflow(f"at most {self.slots} slots, got {len(values)}")
        scale = (self.delta if scale is None
                 else opcount.check_positive_finite(scale, "scale", InvalidScale))
        n, two_n = self.n, 2 * self.n
        u = np.zeros(two_n, dtype=complex)
        vals = np.asarray(list(values) + [0] * (self.slots - len(values)), dtype=complex)
        idx = np.array(self._theta)
        u[idx] = vals
        u[two_n - idx] = np.conj(vals)
        with np.errstate(invalid="ignore", over="ignore"):     # refused just below
            coeffs = np.fft.fft(u).real[:n] / n * scale
        q_l = self.basis.q_product(level)
        # Rounded half to even, as by round(); int() of that float is exact.
        peak = np.max(np.abs(np.rint(coeffs)))
        if not np.isfinite(peak):
            raise EncodeOverflow("a coefficient is not a finite number; encode finite "
                                 "values at a scale that keeps them finite")
        if 2 * int(peak) >= q_l:
            raise EncodeOverflow(f"a coefficient reaches Q_{level}/2 = {q_l / 2:.3e}; "
                                 f"lower the scale or the values")
        x = _rounded_residues(coeffs, moduli)
        return RnsPoly(_unstack(ntt_rows(x, moduli), moduli, Domain.NTT), scale=scale)

    def decode(self, pt: RnsPoly, scale: float) -> np.ndarray:
        """Inverse of encode on a plaintext RnsPoly; DomainError for a limb
        not in the NTT domain, InvalidScale when scale is not a positive
        finite number."""
        moduli = self._q_bases(pt.level)
        scale = opcount.check_positive_finite(scale, "scale", InvalidScale)
        x = intt_rows(self._rows(pt.level, pt=pt)[0], moduli)
        mods = [m.q for m in moduli]
        big_q = reduce(lambda a, b: a * b, mods)
        # exact CRT: one object-array product, then centred into (-Q/2, Q/2]
        recon = np.array([big_q // m * pow(big_q // m, -1, m) for m in mods], dtype=object)
        v = recon @ x.astype(object) % big_q
        v[v > big_q // 2] -= big_q
        n, two_n = self.n, 2 * self.n
        centered = np.zeros(two_n)
        centered[:n] = v.astype(float)
        ev = np.fft.ifft(centered) * two_n
        return ev[np.array(self._theta)] / scale

    # -- randomness ---------------------------------------------------------

    def _gaussian_ints(self, rng: np.random.Generator) -> np.ndarray:
        return np.rint(rng.normal(0.0, NOISE_SIGMA, self.n)).astype(np.int64)

    def _small_ntt(self, ints: np.ndarray, moduli: Sequence[PrimeModulus]) -> np.ndarray:
        """Small signed integers, (..., N), reduced into every modulus and
        NTT-transformed in one call: a (..., moduli, N) stack."""
        moduli = tuple(moduli)
        q, _ = modulus_columns(moduli)
        return ntt_rows(np.asarray(ints, dtype=np.int64)[..., None, :] % q.astype(np.int64),
                        moduli)

    # -- key generation -----------------------------------------------------

    def make_keyswitch_keys(self, s: np.ndarray, master_seeds: Sequence[int],
                            targets: Iterable[np.ndarray], rng: np.random.Generator,
                            expanded: int = 0) -> List[KeySwitchKey]:
        """One switching key to s per master seed, from the matching target s',
        each a (PQ_L bases, N) NTT-domain stack: digits of (ksk0, ksk1).

        The a limbs of every key, digit j and base t come from one
        uniform_residues draw, seeded by (master_seed, j, t) and cut into
        bitlen(q_t)-bit candidates of 4096-bit keystream blocks, whose (keys,
        digits, bases, N) array becomes the keys' ksk0 storage: each digit
        then turns its a into e + g_j*s' - a*s in place.  The errors are
        drawn from rng key by key, digit by digit, and each key's are
        NTT-transformed in one call, so one call per key from the same rng
        builds the same keys.  targets is read one key at a time.

        The first `expanded` keys leave expanded: before ksk0 is formed, they
        keep a frozen copy of the a rows drawn for them as their ksk1, which
        is what their first switch would draw again.  The others leave
        seeded, ksk1 None until first use (_fill_ksk1).
        """
        bases = self.all_bases()
        of = f"bases of level {self.basis.l_max}"
        s = self._checked(s, "s", bases, of)
        q, qinv = modulus_columns(bases)
        q = q.view(np.int64)
        n_digits = self.basis.dnum
        seeds = [[[derive_seed(master, j, t) for t in range(len(bases))]
                  for j in range(n_digits)] for master in master_seeds]
        flat = [seed for key in seeds for digit in key for seed in digit]
        ksk0 = self._expand_ksk1(flat, bases * (len(seeds) * n_digits)).reshape(
            len(seeds), n_digits, len(bases), self.n)
        kept, = _frozen(ksk0[:expanded].copy())
        keys = []
        for i, (s_target, key_rows, key_seeds) in enumerate(zip(targets, ksk0, seeds)):
            s_target = self._checked(s_target, "target", bases, of)
            e = self._small_ntt([self._gaussian_ints(rng) for _ in key_rows], bases)
            for j, a in enumerate(key_rows):
                g_s = _canonical(_mulmod_signed(s_target.view(np.int64),
                                                *_gadget(self.basis, j), q), q, qinv)
                a[:] = mas_rows(MasOp.SUB, mas_rows(MasOp.ADD, e[j], g_s, bases),
                                mas_rows(MasOp.MUL, a, s, bases), bases)
            ksk1 = kept[i] if i < expanded else [None] * n_digits
            keys.append(KeySwitchKey(
                digits=[KskDigit(rows, d, k1) for rows, d, k1 in zip(key_rows, key_seeds, ksk1)],
                dnum=n_digits))
        return keys

    def _expand_ksk1(self, seeds: List[int], bases: Sequence[PrimeModulus]) -> np.ndarray:
        """Regenerate seed-expandable key limbs, all seeds stepped together,
        as one (len(seeds), N) array."""
        return uniform_residues(seeds, [m.q for m in bases], self.n)

    def expand_ksk1_limb(self, seed: int, m: PrimeModulus) -> Poly:
        """Regenerate one seed-expandable key limb (NTT domain by convention)."""
        return _unstack(self._expand_ksk1([seed], [m]), (m,), Domain.NTT)[0]

    def _fill_ksk1(self, key: KeySwitchKey, js: Iterable[int]) -> None:
        """Expand, in one batch, the ksk1 of every digit in js not yet expanded."""
        missing = [key.digits[j] for j in js if key.digits[j]._ksk1 is None]
        if missing:
            bases = self.all_bases()
            rows, = _frozen(self._expand_ksk1([s for d in missing for s in d.ksk1_seeds],
                                              bases * len(missing)))
            for d, digit_rows in zip(missing, np.split(rows, len(missing))):
                d._ksk1 = digit_rows

    def ksk1_limb(self, key: KeySwitchKey, j: int, t: int) -> Poly:
        self._fill_ksk1(key, (j,))
        return Poly(key.digits[j]._ksk1[t], self.all_bases()[t], Domain.NTT)

    def keygen(self, seed: int, rotations: Iterable[int] = ()) -> Tuple[SecretKey, KeySet]:
        """Secret key, relin key and one key per rotation (the last one wins
        for a repeated rotation), all switching keys built in one batch.

        The relin key leaves expanded: its ksk1 is the keystream keygen drew
        for it, kept, since every relinearization reads all of it.  Rotation
        keys leave seeded, ksk1 expanded on first use: bootstrapping needs
        dozens of them, each holding as much again in ksk1 (0.52 GB at
        N = 2^16, L = 30), and a server may hold them seeded throughout.
        InvalidInteger unless seed is a non-negative integer and every
        rotation an integer."""
        seed = opcount.check_integer(seed, "the seed", InvalidInteger, low=0)
        rotations = [opcount.check_integer(rot, "a rotation", InvalidInteger) for rot in rotations]
        rng = np.random.default_rng(seed)
        bases = self.all_bases()
        s, = _frozen(self._small_ntt(rng.integers(-1, 2, self.n), bases))
        sk = SecretKey(s)
        masters = [derive_seed(seed, 0xE)] + [derive_seed(seed, 0xA, rot) for rot in rotations]
        targets = itertools.chain([mas_rows(MasOp.MUL, s, s, bases)],
                                  (automorphism_ntt_rows(s, self._galois(rot))
                                   for rot in rotations))
        relin, *rot_keys = self.make_keyswitch_keys(s, masters, targets, rng, expanded=1)
        return sk, KeySet(relin=relin, rotation=dict(zip(rotations, rot_keys)))

    # -- encryption ---------------------------------------------------------

    def encrypt(self, pt: RnsPoly, sk: SecretKey, rng: np.random.Generator) -> Ciphertext:
        level = pt.level
        moduli = self._q_bases(level)
        e = self._small_ntt(self._gaussian_ints(rng), moduli)
        a = np.array([rng.integers(0, m.q, self.n) for m in moduli], dtype=np.uint64)
        c0 = mas_rows(MasOp.SUB, mas_rows(MasOp.ADD, self._rows(level, pt=pt)[0], e, moduli),
                      mas_rows(MasOp.MUL, a, sk.s[: level + 1], moduli), moduli)
        return self._ciphertext(np.stack([c0, a]), pt.scale or self.delta)

    def decrypt(self, ct: Ciphertext, sk: SecretKey) -> RnsPoly:
        moduli = self._q_bases(ct.level)
        c0, c1 = self._rows(ct.level, c0=ct.c0, c1=ct.c1)
        m = mas_rows(MasOp.MAC, c1, sk.s[: ct.level + 1], moduli, c0)
        return RnsPoly(_unstack(m, moduli, Domain.NTT))

    def decrypt_triple(self, d: ExtCiphertext, sk: SecretKey) -> RnsPoly:
        """Decrypt (d0, d1, d2) with (1, s, s^2) for pre-relinearization checks."""
        d0, d1, d2 = self._ext_rows(d)
        moduli = self._q_bases(d.level)
        s = sk.s[: d.level + 1]
        s2 = mas_rows(MasOp.MUL, s, s, moduli)
        m = mas_rows(MasOp.MAC, d2, s2, moduli, mas_rows(MasOp.MAC, d1, s, moduli, d0))
        return RnsPoly(_unstack(m, moduli, Domain.NTT))

    # -- linear ops ---------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        if a.level != b.level:
            raise LevelMismatch(f"levels {a.level} != {b.level}")
        if not math.isclose(a.scale, b.scale, rel_tol=1e-9):
            raise ScaleMismatch(f"scales {a.scale} != {b.scale}")
        out = _mas(MasOp.ADD, self._rows(a.level, c0=a.c0, c1=a.c1),
                   self._rows(b.level, c0=b.c0, c1=b.c1), self._q_bases(a.level))
        return self._ciphertext(out, a.scale)

    def mult(self, a: Ciphertext, b: Ciphertext) -> ExtCiphertext:
        if a.level != b.level:
            raise LevelMismatch(f"levels {a.level} != {b.level}")
        lvl = a.level
        moduli = self._q_bases(lvl)
        x, y = self._rows(lvl, c0=a.c0, c1=a.c1), self._rows(lvl, c0=b.c0, c1=b.c1)
        d = _mas(MasOp.MUL, x[[0, 0, 1]], y[[0, 1, 1]], moduli)   # (a0*b0, a0*b1, a1*b1)
        d[1] = _mas(MasOp.MAC, x[1], y[0], moduli, d[1])          # + a1*b0
        return ExtCiphertext(_frozen(d)[0], scale=a.scale * b.scale)

    def rotate_perm(self, ct: Ciphertext, rot: int) -> Ciphertext:
        """Apply the Galois map X -> X^(5^rot) to both components, in the NTT
        domain: one gather of their limbs, no INTT or NTT.

        The caller follows up with a key switch using the matching rotation
        key; until then the result decrypts under the rotated secret.
        """
        x = _aut(self._rows(ct.level, c0=ct.c0, c1=ct.c1), self._galois(rot))
        return self._ciphertext(x, ct.scale)

    # -- base conversion ----------------------------------------------------

    def bconv_routine(self, x: np.ndarray, sources: Sequence[PrimeModulus],
                      targets: Sequence[PrimeModulus]) -> np.ndarray:
        """Fast base conversion of a (..., sources, N) coefficient-domain stack
        into the target bases: a (..., targets, N) NTT-domain stack.  The
        result represents the source value plus a small multiple of the
        source-base product (the usual approximate-conversion slack).

        All rows go through the signed product at once: the source residues
        times hat_inv mod q_s, brought into [0, q_s) by the canonical end, then
        those (each below its own q_s, which may exceed q_t) times hat mod q_t,
        summed over the sources in int64 and reduced once per target.
        """
        sources, targets = tuple(sources), tuple(targets)
        x = self._checked(x, "x", sources, "sources")
        to_sources, to_targets = _bconv_plan(sources, targets)
        (q_s, qinv_s), (q_t, qinv_t) = modulus_columns(sources), modulus_columns(targets)
        q_s, q_t = q_s.view(np.int64), q_t.view(np.int64)
        _tick("MAS", _limbs_in(x))
        small = _canonical(_mulmod_signed(x.view(np.int64), *to_sources, q_s), q_s, qinv_s)
        _tick("MAS", len(targets) * _limbs_in(x))
        acc = _mulmod_signed(small.view(np.int64)[..., None, :, :], *to_targets,
                             q_t[:, :, None]).sum(axis=-2)
        return _ntt(_canonical(acc, q_t, qinv_t), targets)

    # -- key switching ------------------------------------------------------

    def _live_key_rows(self, rows: np.ndarray, level: int) -> np.ndarray:
        """The rows of a (PQ_L bases, N) key array that are live at `level`:
        q_0..q_level, then every p base."""
        if level == self.basis.l_max:
            return rows
        return np.concatenate([rows[: level + 1], rows[self.basis.l_max + 1:]])

    def _key_products(self, ys: Iterable[np.ndarray], digits: int, ksk: KeySwitchKey,
                      level: int) -> np.ndarray:
        """Sum over the first `digits` digits j of ys[j] * (ksk0_j, ksk1_j), over
        the live bases: a (2, bases, N) stack.

        Each product is the signed one, the ratio formed per element from
        y_j, summed in int64 and reduced once per component; more digits
        than _lazy_terms allows raise LazySumOverflow.  A digit ticks one MAS
        (a MAC) per live base and component.
        """
        live = self.live_bases(level)
        if digits > _lazy_terms(live):
            raise LazySumOverflow(f"a key product over {digits} digits can wrap its int64 sum")
        self._fill_ksk1(ksk, range(digits))
        q, qinv = modulus_columns(live)
        q = q.view(np.int64)
        acc = np.zeros((2, len(live), self.n), dtype=np.int64)
        for y, d in zip(ys, ksk.digits[:digits]):
            _tick("MAS", 2 * len(live))
            y = y.view(np.int64)
            ratio = _element_ratios(y, qinv)
            for half, key in zip(acc, (d.ksk0, d._ksk1)):
                half += _mulmod_signed(self._live_key_rows(key, level).view(np.int64), y, ratio, q)
        return _canonical(acc, q, qinv)

    def keyswitch_full_dnum(self, d: ExtCiphertext, ksk: KeySwitchKey) -> Ciphertext:
        """Alg-style dnum = L+1 key switch: per-limb NTT fan-out plus MACs."""
        if self.basis.k != 1:
            raise KeyLevelTooLow("full-dnum key switch requires K == 1")
        return self._keyswitch(d, ksk, self._modup_limb)

    def keyswitch_generic(self, d: ExtCiphertext, ksk: KeySwitchKey) -> Ciphertext:
        """Arbitrary-dnum key switch: digit ModUp via base conversion."""
        return self._keyswitch(d, ksk, self._modup_digit)

    def _keyswitch(self, d: ExtCiphertext, ksk: KeySwitchKey,
                   modup: Callable[..., np.ndarray]) -> Ciphertext:
        """Key switch of d's (d0, d1, d2) to a ciphertext: d2 leaves the NTT
        domain once, each digit's modup(d2, d2c, digit, level) feeds the key
        products as it is made, and ModDown of both sums is added to (d0, d1)."""
        x, level = self._ext_rows(d), d.level
        digits = opcount.digit_ranges(level, self.basis.k)
        if len(digits) > len(ksk.digits):
            raise KeyLevelTooLow("key has too few digits for this level")
        q_bases = self._q_bases(level)
        d2c = _intt(x[2], q_bases)
        ys = (modup(x[2], d2c, digit, level) for digit in digits)
        acc = self._key_products(ys, len(digits), ksk, level)
        out = _mas(MasOp.ADD, x[:2], self.moddown(acc, level), q_bases)
        return self._ciphertext(out, d.scale)

    def _modup_limb(self, d2: np.ndarray, d2c: np.ndarray, digit: range,
                    level: int) -> np.ndarray:
        """The ModUp of a one-limb digit (K = 1): its coefficient-domain limb
        reduced into every live base and NTT-transformed."""
        return _reduce_ntt(d2c[digit], self.live_bases(level))

    def _modup_digit(self, d2: np.ndarray, d2c: np.ndarray, digit: range,
                     level: int) -> np.ndarray:
        """One digit of d2 over every live base: its own limbs as they are, the
        others converted from its coefficient-domain limbs.  The digit-wise
        census adds each later digit's key products into the running sum as
        MAS ops of their own (opcount.keyswitch_generic), ticked here."""
        live = self.live_bases(level)
        own = list(digit)
        other = [t for t in range(len(live)) if t not in own]
        if digit.start:
            _tick("MAS", 2 * len(live))
        y = np.empty((len(live), self.n), dtype=np.uint64)
        y[own] = d2[own]
        y[other] = self.bconv_routine(d2c[own], [live[i] for i in own],
                                      [live[t] for t in other])
        return y

    # -- modulus maintenance -------------------------------------------------

    def moddown(self, x: np.ndarray, level: int) -> np.ndarray:
        """Drop the special bases of a (..., live bases, N) NTT-domain stack at
        level: (x - BConv_P->Ql([x]_P)) * P^-1, a (..., level+1, N) stack."""
        q_bases, live = self._bases(level)
        p_bases = live[level + 1:]
        x = self._checked(x, "x", live, f"bases of level {level}")
        r = self.bconv_routine(_intt(x[..., level + 1:, :], p_bases), p_bases, q_bases)
        p_inv = [pow(self.basis.p_product, -1, m.q) for m in q_bases]
        return _submul(x[..., : level + 1, :], r, p_inv, q_bases)

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Drop base q_level and divide the scale by it."""
        level = ct.level
        q_top = self._q_bases(level)[-1]
        if level == 0:
            raise LevelExhausted("no bases left to drop")
        lower = self._q_bases(level - 1)
        x = self._rows(level, c0=ct.c0, c1=ct.c1)
        t = _reduce_ntt(_intt(x[:, level:], (q_top,)), lower)
        out = _submul(x[:, :level], t, [pow(q_top.q, -1, m.q) for m in lower], lower)
        return self._ciphertext(out, ct.scale / q_top.q)

    # -- convenience pipelines ----------------------------------------------

    def _switch(self, d: ExtCiphertext, ksk: KeySwitchKey) -> Ciphertext:
        """The key switch K picks: the full-dnum one at K = 1, else the generic one."""
        if self.basis.k == 1:
            return self.keyswitch_full_dnum(d, ksk)
        return self.keyswitch_generic(d, ksk)

    def relinearize(self, d: ExtCiphertext, keys: KeySet) -> Ciphertext:
        return self._switch(d, keys.relin)

    def rotate(self, ct: Ciphertext, rot: int, keys: KeySet) -> Ciphertext:
        """Rotate the slots by rot: the rotate_perm gather, then a key switch
        of the permuted (c0, 0, c1) back to the secret, on one array stack."""
        g = self._galois(rot)
        if rot not in keys.rotation:
            raise MissingRotationKey(f"no key for rotation {rot}")
        level = ct.level
        x = np.zeros((3, len(self._q_bases(level)), self.n), dtype=np.uint64)
        x[[0, 2]] = _aut(self._rows(level, c0=ct.c0, c1=ct.c1), g)
        return self._switch(ExtCiphertext(x, scale=ct.scale), keys.rotation[rot])


# ---------------------------------------------------------------------------
# Serialization


_CT_HEAD = struct.Struct("<IiId")
_KSK_HEAD = struct.Struct("<II")


def ciphertext_to_bytes(ct: Ciphertext, basis: RnsBasis) -> bytes:
    """Image of a ciphertext over basis, whose N and dnum its header carries.

    LengthMismatch unless each component holds one limb of N residues per
    base of the ciphertext's level, in order; DomainError for a limb not in
    the NTT domain and ResidueOutOfRange for a residue outside [0, q), as
    every routine refuses them.  So ciphertext_from_bytes reads the image
    back over the same basis.
    """
    fits = 0 <= ct.level <= basis.l_max and all(
        tuple(p.modulus for p in comp.limbs) == basis.q_list[: ct.level + 1]
        and all(len(p.coeffs) == basis.n for p in comp.limbs) for comp in (ct.c0, ct.c1))
    if not fits:
        raise LengthMismatch(f"the ciphertext at level {ct.level} does not hold one limb of "
                             f"N={basis.n} residues per base of its level in the basis")
    rows = _level_rows(basis.q_list[: ct.level + 1], basis.n, {"c0": ct.c0, "c1": ct.c1})
    head = _CT_HEAD.pack(basis.n, ct.level, basis.dnum, ct.scale)
    return b"".join([head] + [row_to_bytes(row, t, Domain.NTT) for comp in rows
                              for t, row in enumerate(comp)])


def ciphertext_from_bytes(data: bytes, basis: RnsBasis) -> Ciphertext:
    """Inverse of ciphertext_to_bytes for a ciphertext over basis.

    LengthMismatch when the buffer is cut short or too long, or its headers
    disagree with the basis; ResidueOutOfRange for a residue outside [0, q).
    """
    if len(data) < _CT_HEAD.size:
        raise LengthMismatch(f"{len(data)}-byte buffer is shorter than the header")
    n, level, dnum, scale = _CT_HEAD.unpack_from(data)
    if n != basis.n or dnum != basis.dnum or not 0 <= level <= basis.l_max:
        raise LengthMismatch(f"header (N={n}, level {level}, dnum {dnum}) does not fit "
                             f"the basis (N={basis.n}, L={basis.l_max}, dnum {basis.dnum})")
    moduli = basis.q_list[: level + 1]
    c0, offset = rows_from_bytes(data, _CT_HEAD.size, moduli, n, Domain.NTT)
    c1, offset = rows_from_bytes(data, offset, moduli, n, Domain.NTT)
    _expect_end(data, offset)
    return Ciphertext(RnsPoly(_unstack(c0, moduli, Domain.NTT)),
                      RnsPoly(_unstack(c1, moduli, Domain.NTT)), scale=scale)


def ksk_to_bytes(key: KeySwitchKey, seeded: bool = True) -> bytes:
    """Switching-key image; the seeded form stores 8-byte seeds for ksk1."""
    out = [_KSK_HEAD.pack(len(key.digits), 1 if seeded else 0)]
    for digit in key.digits:
        out += [row_to_bytes(row, t, Domain.NTT) for t, row in enumerate(digit.ksk0)]
        if seeded:
            if not digit.ksk1_seeds:
                raise ValueError("the key was read in its unseeded form and holds no seeds")
            out += [struct.pack("<Q", s) for s in digit.ksk1_seeds]
        else:
            if digit._ksk1 is None:
                raise ValueError("expand ksk1 limbs before unseeded serialization")
            out += [row_to_bytes(row, t, Domain.NTT) for t, row in enumerate(digit._ksk1)]
    return b"".join(out)


def ksk_from_bytes(data: bytes, basis: RnsBasis) -> KeySwitchKey:
    """Inverse of ksk_to_bytes, seeded or not, for a key over basis.

    A seeded image gives digits whose ksk1 is regenerated on first use; an
    unseeded one gives ksk1 expanded and no seeds.  Errors as for
    ciphertext_from_bytes.
    """
    if len(data) < _KSK_HEAD.size:
        raise LengthMismatch(f"{len(data)}-byte buffer is shorter than the header")
    count, seeded = _KSK_HEAD.unpack_from(data)
    if count != basis.dnum or seeded not in (0, 1):
        raise LengthMismatch(f"header ({count} digits, seeded flag {seeded}) does not "
                             f"fit the basis ({basis.dnum} digits)")
    bases = basis.q_list + basis.p_list
    seed_block = struct.Struct(f"<{len(bases)}Q")
    offset = _KSK_HEAD.size
    digits = []
    for _ in range(count):
        ksk0, offset = rows_from_bytes(data, offset, bases, basis.n, Domain.NTT)
        if seeded:
            if len(data) < offset + seed_block.size:
                raise LengthMismatch(f"{len(data)}-byte buffer ends inside the seeds "
                                     f"at byte {offset}")
            digits.append(KskDigit(ksk0, list(seed_block.unpack_from(data, offset))))
            offset += seed_block.size
        else:
            ksk1, offset = rows_from_bytes(data, offset, bases, basis.n, Domain.NTT)
            digits.append(KskDigit(ksk0, [], _frozen(ksk1)[0]))
    _expect_end(data, offset)
    return KeySwitchKey(digits=digits, dnum=count)


def _expect_end(data: bytes, offset: int) -> None:
    if offset != len(data):
        raise LengthMismatch(f"{len(data) - offset} bytes follow the last limb")
