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
moduli), automorphism_ntt_rows, mas_rows (products of two varying operands
through _mulmod_vv, with its own quotient-error bound) and the base
conversion below.  Where products are summed before a single reduction
(key multiplication, base conversion) the no-wrap bound is asserted.
Switching keys are stored as arrays too: each KskDigit holds ksk0, and
once expanded ksk1, as one (bases, N) array; the keys of one keygen share
one (keys, digits, bases, N) ksk0 array, the single keystream draw of all
their a limbs.  keygen returns the relin key expanded, its ksk1 a kept copy
of its part of that draw, since every relinearization reads all of it; the
rotation keys leave seeded, as a server that holds many of them would keep
them, and expand on first use.  At the public API the limbs of
ciphertexts, plaintexts and secret keys are Polys, and a limb a routine
builds holds a read-only uint64 row of the routine's result stack
(_unstack): its Python-int list is built only when someone reads p.coeffs.
A routine stacks its inputs' rows, or the lists of limbs that were read,
into one fresh array, each residue checked to lie in [0, q) (_stack), so
no kernel writes to a limb and an edited list is checked like any input.

Rotation never leaves the NTT domain: X -> X^g only permutes the
evaluation points, so the Galois map is one gather of the bit-reversed
evaluations (automorphism_ntt_rows), for ciphertexts as for the target
secret of a rotation key.  rotate runs array-native from the input
ciphertext through that gather into the key switch: both key switches are
thin public wrappers over internals on a (d0, d1, d2) stack of
(3, rows, N), and rotate hands them the permuted (c0, 0, c1).

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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import opcount
from .modarith import PrimeModulus, RnsBasis
from .polykernel import (_VV_OFFSET, Domain, LengthMismatch, MasOp, Poly, _fold, _frozen,
                         _mulmod, _mulmod_lazy, _mulmod_vv_lazy, _stack, _unstack,
                         automorphism_ntt_rows, intt_rows, mas_rows, modulus_columns,
                         ntt_rows, poly_to_bytes, row_to_bytes, rows_from_bytes)
# The one-limb kernels stay importable from this module for callers and
# tracers that look them up here; the routines below use the rows kernels.
from .polykernel import automorphism_oracle, intt_reference, mas, ntt_reference  # noqa: F401
from .trivium import LaneSampler

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
    """A rounded plaintext coefficient reaches Q_l/2 in magnitude."""


class KeyLevelTooLow(Exception):
    pass


class MissingRotationKey(Exception):
    pass


class SlotOverflow(Exception):
    pass


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

    The scalar is fixed per row, so its ratio s/q is correctly rounded and
    _mulmod's bound applies."""
    q, _ = modulus_columns(tuple(moduli))
    w = [s % m.q for s, m in zip(scalars, moduli)]
    diff = a - b
    diff += q
    out = _mulmod(_fold(diff, q), np.array(w, dtype=np.uint64)[:, None],
                  np.array([v / m.q for v, m in zip(w, moduli)])[:, None], q)
    _tick("MAS", _limbs_in(out))
    return out


# ---------------------------------------------------------------------------
# Constants derived from the moduli alone, cached per process (like
# polykernel.modulus_columns) as read-only arrays: every context over the
# same moduli shares them


@functools.lru_cache(maxsize=256)
def _gadget(basis: RnsBasis, j: int) -> Tuple[np.ndarray, np.ndarray]:
    """P * Qhat_j * [Qhat_j^-1]_{D_j} over all PQ_L bases, for digit j of the
    top level, as the (w, w/q) operand columns of the product kernel."""
    q_mods = [m.q for m in basis.q_list]
    digit = opcount.digit_ranges(basis.l_max, basis.k)[j]
    d_j = reduce(lambda a, b: a * b, (q_mods[i] for i in digit))
    q_hat = reduce(lambda a, b: a * b, q_mods) // d_j
    g = basis.p_product * q_hat * pow(q_hat, -1, d_j)
    bases = basis.q_list + basis.p_list
    return _frozen(np.array([g % m.q for m in bases], dtype=np.uint64)[:, None],
                   np.array([g % m.q / m.q for m in bases])[:, None])


@functools.lru_cache(maxsize=256)
def _bconv_plan(sources: Tuple[PrimeModulus, ...],
                targets: Tuple[PrimeModulus, ...]) -> tuple:
    """The constant multipliers of a base conversion, for S sources and T
    targets, as two (w, w/q, q) operand triples of the product kernel: hat_inv mod
    q_s shaped (S, 1), and hat mod q_t shaped (T, S, 1) with q_t shaped
    (T, 1, 1).  Python's int division rounds each w/q correctly."""
    mods = [m.q for m in sources]
    t_mods = [m.q for m in targets]
    # Each lazy product into target q_t is below 7*q_t (_mulmod_lazy),
    # so the sum of one per source stays below 2^64 and a single
    # reduction of it is exact: at most 146 sources for q_t < 2^54.
    assert 7 * len(mods) * max(t_mods, default=0) <= 1 << 64, "BConv sum would wrap"
    d = reduce(lambda a, b: a * b, mods)
    hat = [d // q for q in mods]
    hat_inv = [pow(h, -1, q) for h, q in zip(hat, mods)]
    hat_mod_t = [[h % qt for h in hat] for qt in t_mods]
    return (
        _frozen(np.array(hat_inv, dtype=np.uint64)[:, None],
                np.array([h / q for h, q in zip(hat_inv, mods)])[:, None],
                np.array(mods, dtype=np.uint64)[:, None]),
        _frozen(np.array(hat_mod_t, dtype=np.uint64)[:, :, None],
                np.array([[h / qt for h in row] for row, qt in zip(hat_mod_t, t_mods)])
                [:, :, None],
                np.array(t_mods, dtype=np.uint64)[:, None, None]),
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
    s = master & (1 << 64) - 1
    for step in path:
        s = _splitmix64(s ^ step)
    return s


# ---------------------------------------------------------------------------
# Data types


@dataclass
class RnsPoly:
    """One ring element as residue limbs: the q bases of its level, or those
    plus the p bases where a routine (moddown) takes the extended form."""

    limbs: List[Poly]
    level: int
    scale: float = 0.0          # set on encoded plaintexts

    @property
    def domain(self) -> Domain:
        return self.limbs[0].domain

    def copy(self) -> "RnsPoly":
        return RnsPoly([p.copy() for p in self.limbs], self.level, self.scale)


@dataclass
class Ciphertext:
    c0: RnsPoly
    c1: RnsPoly
    level: int
    scale: float


@dataclass
class ExtCiphertext:
    """Three-component ciphertext produced by Mult, consumed by KeySwitch."""

    d0: RnsPoly
    d1: RnsPoly
    d2: RnsPoly
    level: int
    scale: float


@dataclass(eq=False)
class KskDigit:
    ksk0: np.ndarray            # (bases of PQ_L, N) uint64, NTT domain
    ksk1_seeds: List[int]       # one 64-bit seed per base
    _ksk1: Optional[np.ndarray] = field(default=None, repr=False)  # expanded, like ksk0


@dataclass
class KeySwitchKey:
    digits: List[KskDigit]
    dnum: int


@dataclass
class SecretKey:
    coeffs: List[int]                     # ternary, length N
    ntt_limbs: List[Poly]                 # over all PQ_L bases, NTT domain


@dataclass
class KeySet:
    relin: KeySwitchKey
    rotation: Dict[int, KeySwitchKey]


# ---------------------------------------------------------------------------
# Context


class CkksContext:
    """Parameters plus the encode/encrypt layer and all homomorphic routines."""

    def __init__(self, basis: RnsBasis, delta: float = float(2 ** 40)):
        self.basis = basis
        self.delta = delta
        self.n = basis.n
        self.slots = basis.n // 2
        self._theta = [pow(5, j, 2 * self.n) for j in range(self.slots)]

    # -- base bookkeeping ---------------------------------------------------

    def all_bases(self) -> List[PrimeModulus]:
        return list(self.basis.q_list) + list(self.basis.p_list)

    def live_bases(self, level: int) -> List[PrimeModulus]:
        return list(self.basis.q_list[: level + 1]) + list(self.basis.p_list)

    def _q_bases(self, level: int) -> Tuple[PrimeModulus, ...]:
        return tuple(self.basis.q_list[: level + 1])

    def _galois(self, rot: int) -> int:
        """The Galois element 5^rot mod 2N of a rotation by rot slots."""
        return pow(5, rot, 2 * self.n)

    # -- limbs in and out at the public API ----------------------------------

    def _rows(self, *comps: RnsPoly) -> np.ndarray:
        """NTT-domain components of one level as a (components, rows, N) array."""
        x = _stack([p for c in comps for p in c.limbs], Domain.NTT)
        return x.reshape(len(comps), -1, self.n)

    def _ciphertext(self, x: np.ndarray, level: int, scale: float) -> Ciphertext:
        moduli = self._q_bases(level)
        return Ciphertext(RnsPoly(_unstack(x[0], moduli, Domain.NTT), level),
                          RnsPoly(_unstack(x[1], moduli, Domain.NTT), level),
                          level, scale)

    # -- encoding -----------------------------------------------------------

    def encode(self, values: Sequence[complex], level: int,
               scale: float | None = None) -> RnsPoly:
        """Canonical-embedding encode of up to N/2 complex slots.

        Raises EncodeOverflow when a rounded coefficient reaches Q_l/2 in
        magnitude, where it would wrap modulo Q_l.
        """
        if len(values) > self.slots:
            raise SlotOverflow(f"at most {self.slots} slots, got {len(values)}")
        if not 0 <= level <= self.basis.l_max:
            raise LevelOutOfRange(f"level {level} is outside [0, {self.basis.l_max}]")
        scale = scale or self.delta
        n, two_n = self.n, 2 * self.n
        u = np.zeros(two_n, dtype=complex)
        vals = np.asarray(list(values) + [0] * (self.slots - len(values)), dtype=complex)
        idx = np.array(self._theta)
        u[idx] = vals
        u[two_n - idx] = np.conj(vals)
        coeffs = np.fft.fft(u).real[:n] / n * scale
        q_l = self.basis.q_product(level)
        # Rounded half to even, as by round(); int() of that float is exact.
        if 2 * int(np.max(np.abs(np.rint(coeffs)))) >= q_l:
            raise EncodeOverflow(f"a coefficient reaches Q_{level}/2 = {q_l / 2:.3e}; "
                                 f"lower the scale or the values")
        moduli = self._q_bases(level)
        x = _rounded_residues(coeffs, moduli)
        return RnsPoly(_unstack(ntt_rows(x, moduli), moduli, Domain.NTT), level, scale=scale)

    def decode(self, pt: RnsPoly, scale: float) -> np.ndarray:
        """Inverse of encode on a plaintext RnsPoly (NTT or coeff domain)."""
        moduli = [p.modulus for p in pt.limbs]
        x = _stack(pt.limbs)
        if pt.domain == Domain.NTT:
            x = intt_rows(x, moduli)
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

    def make_keyswitch_key(self, sk: SecretKey, target_ntt: List[Poly],
                           master_seed: int, rng: np.random.Generator) -> KeySwitchKey:
        """Key switching from `target` to sk: digits of (ksk0, seed-expandable ksk1).

        target_ntt holds the switched-from secret s' over all PQ_L bases.
        Per digit j and base t: ksk0 = -a*s + e + gadget_j*s' with a drawn
        from the keystream seeded by (master_seed, j, t).  This is a one-key
        call of the builder keygen runs on all its keys at once, so it gives
        the key keygen builds from the same rng state.
        """
        key, = self._make_keyswitch_keys(_stack(sk.ntt_limbs, Domain.NTT), [master_seed],
                                         [_stack(target_ntt, Domain.NTT)], rng)
        return key

    def _make_keyswitch_keys(self, s: np.ndarray, master_seeds: Sequence[int],
                             targets: Iterable[np.ndarray], rng: np.random.Generator,
                             expanded: int = 0) -> List[KeySwitchKey]:
        """One switching key to s per master seed, from the matching target s'.

        The a limbs of every key, digit and base come from one LaneSampler
        draw, whose (keys, digits, bases, N) array becomes the keys' ksk0
        storage: each digit then turns its a into e + g_j*s' - a*s in place.
        The errors are drawn from rng key by key, digit by digit, and each
        key's are NTT-transformed in one call.  targets is read one key at a
        time.

        The first `expanded` keys leave expanded: before ksk0 is formed, they
        keep a frozen copy of the a rows drawn for them as their ksk1, which
        is what their first switch would draw again.  The others leave
        seeded, ksk1 None until first use (_fill_ksk1).
        """
        bases = tuple(self.all_bases())
        q, _ = modulus_columns(bases)
        n_digits = len(opcount.digit_ranges(self.basis.l_max, self.basis.k))
        seeds = [[[derive_seed(master, j, t) for t in range(len(bases))]
                  for j in range(n_digits)] for master in master_seeds]
        flat = [seed for key in seeds for digit in key for seed in digit]
        ksk0 = self._expand_ksk1(flat, bases * (len(seeds) * n_digits)).reshape(
            len(seeds), n_digits, len(bases), self.n)
        kept, = _frozen(ksk0[:expanded].copy())
        keys = []
        for i, (s_target, key_rows, key_seeds) in enumerate(zip(targets, ksk0, seeds)):
            e = self._small_ntt([self._gaussian_ints(rng) for _ in key_rows], bases)
            for j, a in enumerate(key_rows):
                g_s = _mulmod(s_target, *_gadget(self.basis, j), q)
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
        return LaneSampler(seeds, [m.q for m in bases]).draw(self.n)

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
        N = 2^16, L = 30), and a server may hold them seeded throughout."""
        rng = np.random.default_rng(seed)
        s_ints = rng.integers(-1, 2, self.n)
        bases = tuple(self.all_bases())
        s = self._small_ntt(s_ints, bases)
        sk = SecretKey(coeffs=s_ints.tolist(), ntt_limbs=_unstack(s, bases, Domain.NTT))
        rotations = list(rotations)
        masters = [derive_seed(seed, 0xE)] + [derive_seed(seed, 0xA, rot) for rot in rotations]
        targets = itertools.chain([mas_rows(MasOp.MUL, s, s, bases)],
                                  (automorphism_ntt_rows(s, self._galois(rot))
                                   for rot in rotations))
        relin, *rot_keys = self._make_keyswitch_keys(s, masters, targets, rng, expanded=1)
        return sk, KeySet(relin=relin, rotation=dict(zip(rotations, rot_keys)))

    # -- encryption ---------------------------------------------------------

    def encrypt(self, pt: RnsPoly, sk: SecretKey, rng: np.random.Generator) -> Ciphertext:
        level = pt.level
        moduli = self._q_bases(level)
        e = self._small_ntt(self._gaussian_ints(rng), moduli)
        a = np.array([rng.integers(0, m.q, self.n) for m in moduli], dtype=np.uint64)
        s = _stack(sk.ntt_limbs[: level + 1], Domain.NTT)
        c0 = mas_rows(MasOp.SUB, mas_rows(MasOp.ADD, _stack(pt.limbs, Domain.NTT), e, moduli),
                      mas_rows(MasOp.MUL, a, s, moduli), moduli)
        return self._ciphertext(np.stack([c0, a]), level, pt.scale or self.delta)

    def decrypt(self, ct: Ciphertext, sk: SecretKey) -> RnsPoly:
        moduli = self._q_bases(ct.level)
        c0, c1 = self._rows(ct.c0, ct.c1)
        s = _stack(sk.ntt_limbs[: ct.level + 1], Domain.NTT)
        m = mas_rows(MasOp.MAC, c1, s, moduli, c0)
        return RnsPoly(_unstack(m, moduli, Domain.NTT), ct.level)

    def decrypt_triple(self, d: ExtCiphertext, sk: SecretKey) -> RnsPoly:
        """Decrypt (d0, d1, d2) with (1, s, s^2) for pre-relinearization checks."""
        moduli = self._q_bases(d.level)
        d0, d1, d2 = self._rows(d.d0, d.d1, d.d2)
        s = _stack(sk.ntt_limbs[: d.level + 1], Domain.NTT)
        s2 = mas_rows(MasOp.MUL, s, s, moduli)
        m = mas_rows(MasOp.MAC, d2, s2, moduli, mas_rows(MasOp.MAC, d1, s, moduli, d0))
        return RnsPoly(_unstack(m, moduli, Domain.NTT), d.level)

    # -- linear ops ---------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        if a.level != b.level:
            raise LevelMismatch(f"levels {a.level} != {b.level}")
        if not math.isclose(a.scale, b.scale, rel_tol=1e-9):
            raise ScaleMismatch(f"scales {a.scale} != {b.scale}")
        out = _mas(MasOp.ADD, self._rows(a.c0, a.c1), self._rows(b.c0, b.c1),
                   self._q_bases(a.level))
        return self._ciphertext(out, a.level, a.scale)

    def mult(self, a: Ciphertext, b: Ciphertext) -> ExtCiphertext:
        if a.level != b.level:
            raise LevelMismatch(f"levels {a.level} != {b.level}")
        lvl = a.level
        moduli = self._q_bases(lvl)
        x, y = self._rows(a.c0, a.c1), self._rows(b.c0, b.c1)
        d02 = _mas(MasOp.MUL, x, y, moduli)          # (a0*b0, a1*b1)
        d1 = _mas(MasOp.MAC, x[1], y[0], moduli, _mas(MasOp.MUL, x[0], y[1], moduli))
        d0, d1, d2 = (RnsPoly(_unstack(z, moduli, Domain.NTT), lvl)
                      for z in (d02[0], d1, d02[1]))
        return ExtCiphertext(d0, d1, d2, lvl, a.scale * b.scale)

    def rotate_perm(self, ct: Ciphertext, rot: int) -> Ciphertext:
        """Apply the Galois map X -> X^(5^rot) to both components, in the NTT
        domain: one gather of their limbs, no INTT or NTT.

        The caller follows up with a key switch using the matching rotation
        key; until then the result decrypts under the rotated secret.
        """
        x = _aut(self._rows(ct.c0, ct.c1), self._galois(rot))
        return self._ciphertext(x, ct.level, ct.scale)

    # -- base conversion ----------------------------------------------------

    def bconv_routine(self, limbs: List[Poly], targets: List[PrimeModulus]) -> List[Poly]:
        """Fast base conversion of coefficient-domain limbs into target bases.

        Returns one NTT-domain limb per target.  The result represents the
        source value plus a small multiple of the source-base product (the
        usual approximate-conversion slack).
        """
        out = self._bconv(_stack(limbs, Domain.COEFF), tuple(p.modulus for p in limbs),
                          tuple(targets))
        return _unstack(out, targets, Domain.NTT)

    def _bconv(self, x: np.ndarray, sources: Tuple[PrimeModulus, ...],
               targets: Tuple[PrimeModulus, ...]) -> np.ndarray:
        """bconv_routine on a (..., sources, N) stack, returning (..., targets, N).

        All rows go through the uint64 product kernel at once: the source
        residues times hat_inv mod q_s, reduced, then those (each below its
        own q_s, which may exceed q_t) times hat mod q_t, left lazy, summed
        over the sources and reduced once per target.
        """
        to_sources, to_targets = _bconv_plan(sources, targets)
        _tick("MAS", _limbs_in(x))
        small = _mulmod(x, *to_sources)
        _tick("MAS", len(targets) * _limbs_in(x))
        acc = _mulmod_lazy(small[..., None, :, :], *to_targets).sum(axis=-2, dtype=np.uint64)
        acc %= to_targets[2][:, 0]
        return _ntt(acc, targets)

    # -- key switching ------------------------------------------------------

    def _base_index(self, level: int, idx_in_live: int) -> int:
        """Map an index over live PQ_l bases to the full PQ_L base list."""
        if idx_in_live <= level:
            return idx_in_live
        return self.basis.l_max + 1 + (idx_in_live - (level + 1))

    def _live_key_rows(self, rows: np.ndarray, level: int) -> np.ndarray:
        """The rows of a (PQ_L bases, N) key array that are live at `level`."""
        if level == self.basis.l_max:
            return rows
        nb = len(self.live_bases(level))
        return rows[[self._base_index(level, t) for t in range(nb)]]

    def _key_products(self, ys: Iterable[np.ndarray], digits: int, ksk: KeySwitchKey,
                      level: int) -> np.ndarray:
        """Sum over the first `digits` digits j of ys[j] * (ksk0_j, ksk1_j), over
        the live bases: a (2, bases, N) stack.

        The products are _mulmod_vv_lazy values, each below
        (2*_VV_OFFSET + 1)q, added up and reduced once per component.
        """
        live = tuple(self.live_bases(level))
        # The sums stay below 2^64, so the single reduction is exact: at most
        # 53 digits for q < 2^54.
        assert (2 * _VV_OFFSET + 1) * digits * max(m.q for m in live) <= 1 << 64, \
            "key-product sum would wrap"
        self._fill_ksk1(ksk, range(digits))
        q, qinv = modulus_columns(live)
        acc = np.zeros((2, len(live), self.n), dtype=np.uint64)
        for y, d in zip(ys, ksk.digits[:digits]):
            acc[0] += _mulmod_vv_lazy(y, self._live_key_rows(d.ksk0, level), q, qinv)
            acc[1] += _mulmod_vv_lazy(y, self._live_key_rows(d._ksk1, level), q, qinv)
        acc %= q
        return acc

    def keyswitch_full_dnum(self, d: ExtCiphertext, ksk: KeySwitchKey) -> Ciphertext:
        """Alg-style dnum = L+1 key switch: per-base NTT fan-out plus MACs."""
        out = self._keyswitch_full_dnum(self._rows(d.d0, d.d1, d.d2), ksk, d.level)
        return self._ciphertext(out, d.level, d.scale)

    def _keyswitch_full_dnum(self, x: np.ndarray, ksk: KeySwitchKey,
                             level: int) -> np.ndarray:
        """keyswitch_full_dnum on a (3, rows, N) stack (d0, d1, d2), returning
        the switched (2, rows, N) stack."""
        if self.basis.k != 1:
            raise KeyLevelTooLow("full-dnum key switch requires K == 1")
        if len(ksk.digits) < level + 1:
            raise KeyLevelTooLow("key has fewer digits than ciphertext limbs")
        live = tuple(self.live_bases(level))
        d2c = _intt(x[2], self._q_bases(level))
        _tick("MAS", 2 * (level + 1) * len(live))
        # every limb reduced into every live base, all NTT-transformed in one call
        fan_out = _ntt(d2c[:, None, :] % modulus_columns(live)[0], live)
        acc = self._key_products(fan_out, level + 1, ksk, level)
        return self._finish_keyswitch(x[:2], acc, level)

    def _modup_digit(self, d2: np.ndarray, d2c: np.ndarray, digit: range,
                     level: int) -> np.ndarray:
        """One digit of d2 over every live base: its own limbs as they are, the
        others converted from its coefficient-domain limbs."""
        live = tuple(self.live_bases(level))
        own = list(digit)
        other = [t for t in range(len(live)) if t not in own]
        y = np.empty((len(live), self.n), dtype=np.uint64)
        y[own] = d2[own]
        y[other] = self._bconv(d2c[own], tuple(live[i] for i in own),
                               tuple(live[t] for t in other))
        return y

    def keyswitch_generic(self, d: ExtCiphertext, ksk: KeySwitchKey) -> Ciphertext:
        """Arbitrary-dnum key switch: digit ModUp via base conversion."""
        out = self._keyswitch_generic(self._rows(d.d0, d.d1, d.d2), ksk, d.level)
        return self._ciphertext(out, d.level, d.scale)

    def _keyswitch_generic(self, x: np.ndarray, ksk: KeySwitchKey,
                           level: int) -> np.ndarray:
        """keyswitch_generic on a (3, rows, N) stack (d0, d1, d2), returning
        the switched (2, rows, N) stack."""
        digits = opcount.digit_ranges(level, self.basis.k)
        if len(digits) > len(ksk.digits):
            raise KeyLevelTooLow("key has too few digits for this level")
        nb = len(self.live_bases(level))
        d2c = _intt(x[2], self._q_bases(level))
        # key multiplication, then accumulation over the digits
        _tick("MAS", 2 * nb * len(digits) + 2 * nb * (len(digits) - 1))
        ys = (self._modup_digit(x[2], d2c, digit, level) for digit in digits)
        acc = self._key_products(ys, len(digits), ksk, level)
        return self._finish_keyswitch(x[:2], acc, level)

    def _finish_keyswitch(self, carriers: np.ndarray, acc: np.ndarray,
                          level: int) -> np.ndarray:
        """ModDown both accumulated components and add them to (d0, d1)."""
        return _mas(MasOp.ADD, carriers, self._moddown(acc, level), self._q_bases(level))

    # -- modulus maintenance -------------------------------------------------

    def moddown(self, ext: RnsPoly) -> RnsPoly:
        """Drop the special bases: (x - BConv_P->Ql([x]_P)) * P^-1."""
        level = ext.level
        out = self._moddown(_stack(ext.limbs, Domain.NTT), level)
        return RnsPoly(_unstack(out, self._q_bases(level), Domain.NTT), level)

    def _moddown(self, x: np.ndarray, level: int) -> np.ndarray:
        """moddown on a (..., live bases, N) stack."""
        k = self.basis.k
        assert x.shape[-2] == level + 1 + k, "moddown needs the extended limbs"
        q_bases = self._q_bases(level)
        p_bases = tuple(self.basis.p_list)
        r = self._bconv(_intt(x[..., level + 1:, :], p_bases), p_bases, q_bases)
        p_inv = [pow(self.basis.p_product, -1, m.q) for m in q_bases]
        return _submul(x[..., : level + 1, :], r, p_inv, q_bases)

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Drop base q_level and divide the scale by it."""
        if ct.level == 0:
            raise LevelExhausted("no bases left to drop")
        level = ct.level
        q_top = self.basis.q_list[level]
        lower = self._q_bases(level - 1)
        q_lower, _ = modulus_columns(lower)
        x = self._rows(ct.c0, ct.c1)
        top = _intt(x[:, level:], (q_top,))
        t = _ntt(top % q_lower, lower)
        out = _submul(x[:, :level], t, [pow(q_top.q, -1, m.q) for m in lower], lower)
        return self._ciphertext(out, level - 1, ct.scale / q_top.q)

    # -- convenience pipelines ----------------------------------------------

    def relinearize(self, d: ExtCiphertext, keys: KeySet) -> Ciphertext:
        if self.basis.k == 1:
            return self.keyswitch_full_dnum(d, keys.relin)
        return self.keyswitch_generic(d, keys.relin)

    def rotate(self, ct: Ciphertext, rot: int, keys: KeySet) -> Ciphertext:
        """Rotate the slots by rot: the rotate_perm gather, then a key switch
        of the permuted (c0, 0, c1) back to the secret, on one array stack."""
        if rot not in keys.rotation:
            raise MissingRotationKey(f"no key for rotation {rot}")
        level = ct.level
        x = np.zeros((3, level + 1, self.n), dtype=np.uint64)
        x[[0, 2]] = _aut(self._rows(ct.c0, ct.c1), self._galois(rot))
        switch = self._keyswitch_full_dnum if self.basis.k == 1 else self._keyswitch_generic
        return self._ciphertext(switch(x, keys.rotation[rot], level), level, ct.scale)


# ---------------------------------------------------------------------------
# Serialization


_CT_HEAD = struct.Struct("<IiId")
_KSK_HEAD = struct.Struct("<II")


def ciphertext_to_bytes(ct: Ciphertext, n: int, dnum: int) -> bytes:
    head = _CT_HEAD.pack(n, ct.level, dnum, ct.scale)
    return b"".join([head] + [poly_to_bytes(p, t) for comp in (ct.c0, ct.c1)
                              for t, p in enumerate(comp.limbs)])


def ciphertext_from_bytes(data: bytes, basis: RnsBasis) -> Ciphertext:
    """Inverse of ciphertext_to_bytes for a ciphertext over basis, with
    row-backed limbs.

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
    return Ciphertext(RnsPoly(_unstack(c0, moduli, Domain.NTT), level),
                      RnsPoly(_unstack(c1, moduli, Domain.NTT), level), level, scale)


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
    want = len(opcount.digit_ranges(basis.l_max, basis.k))
    if count != want or seeded not in (0, 1):
        raise LengthMismatch(f"header ({count} digits, seeded flag {seeded}) does not "
                             f"fit the basis ({want} digits)")
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
