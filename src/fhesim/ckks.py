"""RNS-CKKS routines built on the polynomial kernels.

Covers seeded key generation (half of every switching key is regenerated
from 64-bit seeds through the keystream core), Add/Mult/Rotate, key
switching for dnum = L+1 and for arbitrary dnum via base conversion,
ModDown/Rescale, and a canonical-embedding encoder good enough to verify
everything end to end.  Parameter sets produced here are test-grade:
nothing about them claims cryptographic security.

Every kernel invocation is routed through small wrappers so a census of
micro-ops (INTT/NTT/MAS/AUT) can be recorded and compared against the
closed forms in opcount, which the simulator uses for its instruction
streams.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import opcount
from .modarith import PrimeModulus, RnsBasis
from .polykernel import (Domain, LengthMismatch, MasOp, Poly, _mulmod, _mulmod_lazy,
                         automorphism_oracle, intt_reference, mas, ntt_reference,
                         poly_to_bytes)
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
    counts = {"INTT": 0, "NTT": 0, "MAS": 0, "AUT": 0}
    _census_stack.append(counts)
    try:
        yield counts
    finally:
        _census_stack.pop()


def _tick(kind: str, n: int = 1) -> None:
    for counts in _census_stack:
        counts[kind] += n


def _ntt(p: Poly) -> Poly:
    _tick("NTT")
    return ntt_reference(p)


def _intt(p: Poly) -> Poly:
    _tick("INTT")
    return intt_reference(p)


def _mas(op: MasOp, a: Poly, b: Poly, acc: Poly | None = None) -> Poly:
    _tick("MAS")
    return mas(op, a, b, acc)


def _aut(p: Poly, gle: int) -> Poly:
    _tick("AUT")
    return automorphism_oracle(p, gle)


def _scalar_poly(value: int, m: PrimeModulus, n: int, domain: Domain) -> Poly:
    return Poly([value % m.q] * n, m, domain)


def _mas_submul(a: Poly, b: Poly, scalar: int) -> Poly:
    """(a - b) * scalar, one fused triadic pass."""
    if a.n != b.n:
        raise LengthMismatch("MAS operands must have equal lengths")
    _tick("MAS")
    q = a.modulus.q
    s = scalar % q
    return Poly([(x - y) * s % q for x, y in zip(a.coeffs, b.coeffs)], a.modulus, a.domain)


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
    """One ring element as residue limbs, optionally extended by the p bases."""

    limbs: List[Poly]
    level: int
    extended: bool = False
    scale: float = 0.0          # set on encoded plaintexts

    @property
    def domain(self) -> Domain:
        return self.limbs[0].domain

    def copy(self) -> "RnsPoly":
        return RnsPoly([p.copy() for p in self.limbs], self.level, self.extended)


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


@dataclass
class KskDigit:
    ksk0: List[Poly]            # one limb per live base of PQ_L, NTT domain
    ksk1_seeds: List[int]       # one 64-bit seed per base
    _ksk1: List[Optional[Poly]] = field(default=None, repr=False)


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
        self._bconv_cache: Dict[tuple, tuple] = {}
        self._gadget_cache: Dict[tuple, List[int]] = {}

    # -- base bookkeeping ---------------------------------------------------

    def all_bases(self) -> List[PrimeModulus]:
        return list(self.basis.q_list) + list(self.basis.p_list)

    def live_bases(self, level: int) -> List[PrimeModulus]:
        return list(self.basis.q_list[: level + 1]) + list(self.basis.p_list)

    def _digit_range(self, j: int, level: int) -> range:
        k = self.basis.k
        return range(j * k, min((j + 1) * k, level + 1))

    def digit_count(self, level: int) -> int:
        return -(-(level + 1) // self.basis.k)

    # -- encoding -----------------------------------------------------------

    def encode(self, values: Sequence[complex], level: int,
               scale: float | None = None) -> RnsPoly:
        """Canonical-embedding encode of up to N/2 complex slots."""
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
        ints = [int(round(c)) for c in coeffs]
        limbs = [
            Poly([c % m.q for c in ints], m, Domain.COEFF)
            for m in self.basis.q_list[: level + 1]
        ]
        limbs = [ntt_reference(p) for p in limbs]
        return RnsPoly(limbs, level, scale=scale)

    def decode(self, pt: RnsPoly, scale: float) -> np.ndarray:
        """Inverse of encode on a plaintext RnsPoly (NTT or coeff domain)."""
        limbs = pt.limbs
        if limbs[0].domain == Domain.NTT:
            limbs = [intt_reference(p) for p in limbs]
        moduli = [p.modulus.q for p in limbs]
        big_q = reduce(lambda a, b: a * b, moduli)
        recon = []
        for m in moduli:
            hat = big_q // m
            recon.append(hat * pow(hat, -1, m))
        n, two_n = self.n, 2 * self.n
        centered = np.zeros(two_n)
        for i in range(n):
            x = sum(limbs[t].coeffs[i] * recon[t] for t in range(len(limbs))) % big_q
            if x > big_q // 2:
                x -= big_q
            centered[i] = float(x)
        ev = np.fft.ifft(centered) * two_n
        return ev[np.array(self._theta)] / scale

    # -- randomness ---------------------------------------------------------

    def _gaussian_ints(self, rng: np.random.Generator) -> List[int]:
        return [int(x) for x in np.rint(rng.normal(0.0, NOISE_SIGMA, self.n))]

    def _reduce_ntt(self, ints: Sequence[int], m: PrimeModulus) -> Poly:
        return ntt_reference(Poly([c % m.q for c in ints], m, Domain.COEFF))

    # -- key generation -----------------------------------------------------

    def _gadget(self, j: int) -> List[int]:
        """P * Qhat_j * [Qhat_j^-1]_{D_j} as residues over all PQ_L bases."""
        key = ("gadget", j)
        if key not in self._gadget_cache:
            q_mods = [m.q for m in self.basis.q_list]
            digit = list(self._digit_range(j, self.basis.l_max))
            d_j = reduce(lambda a, b: a * b, (q_mods[i] for i in digit))
            q_full = reduce(lambda a, b: a * b, q_mods)
            q_hat = q_full // d_j
            g = self.basis.p_product * q_hat * pow(q_hat, -1, d_j)
            self._gadget_cache[key] = [g % m.q for m in self.all_bases()]
        return self._gadget_cache[key]

    def make_keyswitch_key(self, sk: SecretKey, target_ntt: List[Poly],
                           master_seed: int, rng: np.random.Generator) -> KeySwitchKey:
        """Key switching from `target` to sk: digits of (ksk0, seed-expandable ksk1).

        target_ntt holds the switched-from secret s' over all PQ_L bases.
        Per digit j and base t: ksk0 = -a*s + e + gadget_j*s' with a drawn
        from the keystream seeded by (master_seed, j, t); the a limbs of a
        digit are drawn in one batch.
        """
        bases = self.all_bases()
        digits = []
        for j in range(self.basis.dnum):
            gadget = self._gadget(j)
            e_ints = self._gaussian_ints(rng)
            seeds = [derive_seed(master_seed, j, t) for t in range(len(bases))]
            ksk0: List[Poly] = []
            for t, (m, a) in enumerate(zip(bases, self._expand_ksk1(seeds, bases))):
                e = self._reduce_ntt(e_ints, m)
                s = sk.ntt_limbs[t]
                sp = target_ntt[t]
                g = gadget[t]
                q = m.q
                coeffs = [
                    (-(av * sv) + ev + g * pv) % q
                    for av, sv, ev, pv in zip(a.coeffs, s.coeffs, e.coeffs, sp.coeffs)
                ]
                ksk0.append(Poly(coeffs, m, Domain.NTT))
            digits.append(KskDigit(ksk0=ksk0, ksk1_seeds=seeds))
        return KeySwitchKey(digits=digits, dnum=self.basis.dnum)

    def _expand_ksk1(self, seeds: List[int], bases: List[PrimeModulus]) -> List[Poly]:
        """Regenerate seed-expandable key limbs, all seeds stepped together."""
        rows = LaneSampler(seeds, [m.q for m in bases]).draw(self.n)
        return [Poly(row.tolist(), m, Domain.NTT) for row, m in zip(rows, bases)]

    def expand_ksk1_limb(self, seed: int, m: PrimeModulus) -> Poly:
        """Regenerate one seed-expandable key limb (NTT domain by convention)."""
        return self._expand_ksk1([seed], [m])[0]

    def _fill_ksk1(self, key: KeySwitchKey, j: int, ts: Iterable[int]) -> None:
        """Expand, in one batch, the ksk1 limbs ts of digit j that are not cached."""
        digit = key.digits[j]
        if digit._ksk1 is None:
            digit._ksk1 = [None] * len(digit.ksk1_seeds)
        missing = [t for t in ts if digit._ksk1[t] is None]
        if missing:
            bases = self.all_bases()
            limbs = self._expand_ksk1([digit.ksk1_seeds[t] for t in missing],
                                      [bases[t] for t in missing])
            for t, limb in zip(missing, limbs):
                digit._ksk1[t] = limb

    def ksk1_limb(self, key: KeySwitchKey, j: int, t: int) -> Poly:
        self._fill_ksk1(key, j, (t,))
        return key.digits[j]._ksk1[t]

    def keygen(self, seed: int, rotations: Iterable[int] = ()) -> Tuple[SecretKey, KeySet]:
        rng = np.random.default_rng(seed)
        s_ints = [int(x) for x in rng.integers(-1, 2, self.n)]
        bases = self.all_bases()
        sk = SecretKey(
            coeffs=s_ints,
            ntt_limbs=[self._reduce_ntt(s_ints, m) for m in bases],
        )
        s2 = [Poly([a * a % p.modulus.q for a in p.coeffs], p.modulus, Domain.NTT)
              for p in sk.ntt_limbs]
        relin = self.make_keyswitch_key(sk, s2, derive_seed(seed, 0xE), rng)
        rot_keys = {}
        for rot in rotations:
            gle = pow(5, rot, 2 * self.n)
            s_rot = _secret_automorphism(s_ints, gle)
            s_rot_ntt = [self._reduce_ntt(s_rot, m) for m in bases]
            rot_keys[rot] = self.make_keyswitch_key(
                sk, s_rot_ntt, derive_seed(seed, 0xA, rot), rng)
        return sk, KeySet(relin=relin, rotation=rot_keys)

    # -- encryption ---------------------------------------------------------

    def encrypt(self, pt: RnsPoly, sk: SecretKey, rng: np.random.Generator) -> Ciphertext:
        level = pt.level
        e_ints = self._gaussian_ints(rng)
        c0_limbs, c1_limbs = [], []
        for t, m in enumerate(self.basis.q_list[: level + 1]):
            a = Poly([int(x) for x in rng.integers(0, m.q, self.n)], m, Domain.NTT)
            e = self._reduce_ntt(e_ints, m)
            s = sk.ntt_limbs[t]
            q = m.q
            c0 = [
                (-(av * sv) + mv + ev) % q
                for av, sv, mv, ev in zip(a.coeffs, s.coeffs, pt.limbs[t].coeffs, e.coeffs)
            ]
            c0_limbs.append(Poly(c0, m, Domain.NTT))
            c1_limbs.append(a)
        return Ciphertext(RnsPoly(c0_limbs, level), RnsPoly(c1_limbs, level),
                          level, pt.scale or self.delta)

    def decrypt(self, ct: Ciphertext, sk: SecretKey) -> RnsPoly:
        limbs = []
        for t in range(ct.level + 1):
            m = self.basis.q_list[t]
            s = sk.ntt_limbs[t]
            q = m.q
            limbs.append(Poly(
                [(c0 + c1 * sv) % q for c0, c1, sv in
                 zip(ct.c0.limbs[t].coeffs, ct.c1.limbs[t].coeffs, s.coeffs)],
                m, Domain.NTT))
        return RnsPoly(limbs, ct.level)

    def decrypt_triple(self, d: ExtCiphertext, sk: SecretKey) -> RnsPoly:
        """Decrypt (d0, d1, d2) with (1, s, s^2) for pre-relinearization checks."""
        limbs = []
        for t in range(d.level + 1):
            m = self.basis.q_list[t]
            s = sk.ntt_limbs[t].coeffs
            q = m.q
            limbs.append(Poly(
                [(a + b * sv + c * sv * sv) % q for a, b, c, sv in
                 zip(d.d0.limbs[t].coeffs, d.d1.limbs[t].coeffs,
                     d.d2.limbs[t].coeffs, s)],
                m, Domain.NTT))
        return RnsPoly(limbs, d.level)

    # -- linear ops ---------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        if a.level != b.level:
            raise LevelMismatch(f"levels {a.level} != {b.level}")
        if not math.isclose(a.scale, b.scale, rel_tol=1e-9):
            raise ScaleMismatch(f"scales {a.scale} != {b.scale}")
        c0 = [_mas(MasOp.ADD, x, y) for x, y in zip(a.c0.limbs, b.c0.limbs)]
        c1 = [_mas(MasOp.ADD, x, y) for x, y in zip(a.c1.limbs, b.c1.limbs)]
        return Ciphertext(RnsPoly(c0, a.level), RnsPoly(c1, a.level), a.level, a.scale)

    def mult(self, a: Ciphertext, b: Ciphertext) -> ExtCiphertext:
        if a.level != b.level:
            raise LevelMismatch(f"levels {a.level} != {b.level}")
        d0 = [_mas(MasOp.MUL, x, y) for x, y in zip(a.c0.limbs, b.c0.limbs)]
        d2 = [_mas(MasOp.MUL, x, y) for x, y in zip(a.c1.limbs, b.c1.limbs)]
        d1 = [_mas(MasOp.MUL, x, y) for x, y in zip(a.c0.limbs, b.c1.limbs)]
        d1 = [_mas(MasOp.MAC, x, y, acc) for x, y, acc in
              zip(a.c1.limbs, b.c0.limbs, d1)]
        lvl = a.level
        return ExtCiphertext(RnsPoly(d0, lvl), RnsPoly(d1, lvl), RnsPoly(d2, lvl),
                             lvl, a.scale * b.scale)

    def rotate_perm(self, ct: Ciphertext, rot: int) -> Ciphertext:
        """Apply the Galois map to both components (through coefficient domain).

        The caller follows up with a key switch using the matching rotation
        key; until then the result decrypts under the rotated secret.
        """
        gle = pow(5, rot, 2 * self.n)
        out = []
        for comp in (ct.c0, ct.c1):
            limbs = []
            for p in comp.limbs:
                limbs.append(_ntt(_aut(_intt(p), gle)))
            out.append(RnsPoly(limbs, ct.level))
        return Ciphertext(out[0], out[1], ct.level, ct.scale)

    # -- base conversion ----------------------------------------------------

    def _bconv_plan(self, sources: Tuple[PrimeModulus, ...],
                    targets: Tuple[PrimeModulus, ...]) -> tuple:
        """The constant multipliers of a base conversion, for S sources and T
        targets, as two (w, w/q, q) operand triples of the product kernel: hat_inv mod
        q_s shaped (S, 1), and hat mod q_t shaped (T, S, 1) with q_t shaped
        (T, 1, 1).  Python's int division rounds each w/q correctly."""
        key = (tuple(m.q for m in sources), tuple(m.q for m in targets))
        if key not in self._bconv_cache:
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
            self._bconv_cache[key] = (
                (np.array(hat_inv, dtype=np.uint64)[:, None],
                 np.array([h / q for h, q in zip(hat_inv, mods)])[:, None],
                 np.array(mods, dtype=np.uint64)[:, None]),
                (np.array(hat_mod_t, dtype=np.uint64)[:, :, None],
                 np.array([[h / qt for h in row] for row, qt in zip(hat_mod_t, t_mods)])
                 [:, :, None],
                 np.array(t_mods, dtype=np.uint64)[:, None, None]),
            )
        return self._bconv_cache[key]

    def bconv_routine(self, limbs: List[Poly], targets: List[PrimeModulus],
                      emit_ntt: bool = True) -> List[Poly]:
        """Fast base conversion of coefficient-domain limbs into target bases.

        Returns one limb per target, NTT-transformed when emit_ntt is set.
        The result represents the source value plus a small multiple of the
        source-base product (the usual approximate-conversion slack).  All
        rows go through the uint64 product kernel at once: the source
        residues times hat_inv mod q_s, reduced, then those (each below its
        own q_s, which may exceed q_t) times hat mod q_t, left lazy, summed
        over the sources and reduced once per target.
        """
        to_sources, to_targets = self._bconv_plan(tuple(p.modulus for p in limbs),
                                                  tuple(targets))
        _tick("MAS", len(limbs))
        x = np.array([p.coeffs for p in limbs], dtype=np.uint64)
        small = _mulmod(x, *to_sources)
        _tick("MAS", len(targets) * len(limbs))
        acc = _mulmod_lazy(small[None], *to_targets).sum(axis=1, dtype=np.uint64)
        acc %= to_targets[2][:, 0]
        out = []
        for row, tm in zip(acc, targets):
            limb = Poly(row.tolist(), tm, Domain.COEFF)
            out.append(_ntt(limb) if emit_ntt else limb)
        return out

    # -- key switching ------------------------------------------------------

    def _base_index(self, level: int, idx_in_live: int) -> int:
        """Map an index over live PQ_l bases to the full PQ_L base list."""
        if idx_in_live <= level:
            return idx_in_live
        return self.basis.l_max + 1 + (idx_in_live - (level + 1))

    def _expand_switch_ksk1(self, ksk: KeySwitchKey, digits: int, level: int) -> None:
        """Expand, one batch per digit, the missing ksk1 limbs that a switch at
        `level` reads: those of the first `digits` digits over the live bases."""
        reads = [self._base_index(level, t) for t in range(len(self.live_bases(level)))]
        for j in range(digits):
            self._fill_ksk1(ksk, j, reads)

    def keyswitch_full_dnum(self, d: ExtCiphertext, ksk: KeySwitchKey) -> Ciphertext:
        """Alg-style dnum = L+1 key switch: per-base NTT fan-out plus MACs."""
        if self.basis.k != 1:
            raise KeyLevelTooLow("full-dnum key switch requires K == 1")
        level = d.level
        if len(ksk.digits) < level + 1:
            raise KeyLevelTooLow("key has fewer digits than ciphertext limbs")
        live = self.live_bases(level)
        self._expand_switch_ksk1(ksk, level + 1, level)
        d2c = [_intt(p) for p in d.d2.limbs]
        acc0: List[Poly] = []
        acc1: List[Poly] = []
        for jt, tm in enumerate(live):
            t_full = self._base_index(level, jt)
            a0 = _scalar_poly(0, tm, self.n, Domain.NTT)
            a1 = _scalar_poly(0, tm, self.n, Domain.NTT)
            q = tm.q
            for i in range(level + 1):
                r = _ntt(Poly([c % q for c in d2c[i].coeffs], tm, Domain.COEFF))
                a0 = _mas(MasOp.MAC, r, ksk.digits[i].ksk0[t_full], a0)
                a1 = _mas(MasOp.MAC, r, self.ksk1_limb(ksk, i, t_full), a1)
            acc0.append(a0)
            acc1.append(a1)
        return self._finish_keyswitch(d, acc0, acc1)

    def keyswitch_generic(self, d: ExtCiphertext, ksk: KeySwitchKey) -> Ciphertext:
        """Arbitrary-dnum key switch: digit ModUp via base conversion."""
        level = d.level
        k = self.basis.k
        if self.digit_count(level) > len(ksk.digits):
            raise KeyLevelTooLow("key has too few digits for this level")
        live = self.live_bases(level)
        nb = len(live)
        self._expand_switch_ksk1(ksk, self.digit_count(level), level)
        d2c = [_intt(p) for p in d.d2.limbs]
        acc0 = [_scalar_poly(0, m, self.n, Domain.NTT) for m in live]
        acc1 = [_scalar_poly(0, m, self.n, Domain.NTT) for m in live]
        first = True
        for j in range(self.digit_count(level)):
            own = list(self._digit_range(j, level))
            other_idx = [t for t in range(nb) if t not in own]
            converted = self.bconv_routine([d2c[i] for i in own],
                                           [live[t] for t in other_idx])
            y: List[Optional[Poly]] = [None] * nb
            for i in own:
                y[i] = d.d2.limbs[i]
            for t, limb in zip(other_idx, converted):
                y[t] = limb
            for t in range(nb):
                t_full = self._base_index(level, t)
                prod0 = _mas(MasOp.MUL, y[t], ksk.digits[j].ksk0[t_full])
                prod1 = _mas(MasOp.MUL, y[t], self.ksk1_limb(ksk, j, t_full))
                if first:
                    acc0[t], acc1[t] = prod0, prod1
                else:
                    acc0[t] = _mas(MasOp.ADD, acc0[t], prod0)
                    acc1[t] = _mas(MasOp.ADD, acc1[t], prod1)
            first = False
        return self._finish_keyswitch(d, acc0, acc1)

    def _finish_keyswitch(self, d: ExtCiphertext, acc0: List[Poly],
                          acc1: List[Poly]) -> Ciphertext:
        level = d.level
        out = []
        for carrier, acc in ((d.d0, acc0), (d.d1, acc1)):
            down = self.moddown(RnsPoly(acc, level, extended=True))
            limbs = [_mas(MasOp.ADD, c, m) for c, m in zip(carrier.limbs, down.limbs)]
            out.append(RnsPoly(limbs, level))
        return Ciphertext(out[0], out[1], level, d.scale)

    # -- modulus maintenance -------------------------------------------------

    def moddown(self, ext: RnsPoly) -> RnsPoly:
        """Drop the special bases: (x - BConv_P->Ql([x]_P)) * P^-1."""
        level = ext.level
        k = self.basis.k
        q_part = ext.limbs[: level + 1]
        p_part = ext.limbs[level + 1:]
        assert len(p_part) == k, "moddown needs the extended limbs"
        p_coeff = [_intt(p) for p in p_part]
        r = self.bconv_routine(p_coeff, list(self.basis.q_list[: level + 1]))
        p_inv = [pow(self.basis.p_product, -1, m.q) for m in self.basis.q_list[: level + 1]]
        limbs = [
            _mas_submul(x, t, inv)
            for x, t, inv in zip(q_part, r, p_inv)
        ]
        return RnsPoly(limbs, level)

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Drop base q_level and divide the scale by it."""
        if ct.level == 0:
            raise LevelExhausted("no bases left to drop")
        level = ct.level
        q_top = self.basis.q_list[level]
        out = []
        for comp in (ct.c0, ct.c1):
            t = _intt(comp.limbs[level])
            limbs = []
            for i in range(level):
                m = self.basis.q_list[i]
                tq = _ntt(Poly([c % m.q for c in t.coeffs], m, Domain.COEFF))
                limbs.append(_mas_submul(comp.limbs[i], tq, pow(q_top.q, -1, m.q)))
            out.append(RnsPoly(limbs, level - 1))
        return Ciphertext(out[0], out[1], level - 1, ct.scale / q_top.q)

    # -- convenience pipelines ----------------------------------------------

    def relinearize(self, d: ExtCiphertext, keys: KeySet) -> Ciphertext:
        if self.basis.k == 1:
            return self.keyswitch_full_dnum(d, keys.relin)
        return self.keyswitch_generic(d, keys.relin)

    def rotate(self, ct: Ciphertext, rot: int, keys: KeySet) -> Ciphertext:
        if rot not in keys.rotation:
            raise MissingRotationKey(f"no key for rotation {rot}")
        perm = self.rotate_perm(ct, rot)
        zero = RnsPoly(
            [_scalar_poly(0, p.modulus, self.n, Domain.NTT) for p in perm.c1.limbs],
            ct.level)
        d = ExtCiphertext(perm.c0, zero, perm.c1, ct.level, ct.scale)
        key = keys.rotation[rot]
        if self.basis.k == 1:
            return self.keyswitch_full_dnum(d, key)
        return self.keyswitch_generic(d, key)


def _secret_automorphism(coeffs: List[int], gle: int) -> List[int]:
    """Galois map on the raw integer secret (signs folded directly)."""
    n = len(coeffs)
    two_n = 2 * n
    out = [0] * n
    for i, c in enumerate(coeffs):
        t = i * gle % two_n
        out[t % n] = c if t < n else -c
    return out


# ---------------------------------------------------------------------------
# Serialization


def ciphertext_to_bytes(ct: Ciphertext, n: int, dnum: int) -> bytes:
    head = struct.pack("<IiId", n, ct.level, dnum, ct.scale)
    body = b""
    for comp in (ct.c0, ct.c1):
        for t, p in enumerate(comp.limbs):
            body += poly_to_bytes(p, t)
    return head + body


def ksk_to_bytes(key: KeySwitchKey, seeded: bool = True) -> bytes:
    """Switching-key image; the seeded form stores 8-byte seeds for ksk1."""
    out = [struct.pack("<II", len(key.digits), 1 if seeded else 0)]
    for j, digit in enumerate(key.digits):
        for t, p in enumerate(digit.ksk0):
            out.append(poly_to_bytes(p, t))
        if seeded:
            for s in digit.ksk1_seeds:
                out.append(struct.pack("<Q", s))
        else:
            if digit._ksk1 is None or any(x is None for x in digit._ksk1):
                raise ValueError("expand ksk1 limbs before unseeded serialization")
            for t, p in enumerate(digit._ksk1):
                out.append(poly_to_bytes(p, t))
    return b"".join(out)
