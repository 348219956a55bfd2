import hashlib
import math
import random
import struct
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fhesim import ckks, opcount
from fhesim.chipletsim import ChipletConfig, run_workload
from fhesim.ckks import (Ciphertext, CkksContext, EncodeOverflow, ExtCiphertext,
                         InvalidInteger, InvalidScale, KeySwitchKey, LazySumOverflow,
                         LevelExhausted, LevelMismatch, LevelOutOfRange, MissingRotationKey,
                         RnsPoly, ScaleMismatch, SlotOverflow, _bconv_plan, _gadget, _lazy_terms,
                         _rounded_residues, _submul,
                         ciphertext_from_bytes, ciphertext_to_bytes, count_ops, derive_seed,
                         ksk_from_bytes, ksk_to_bytes)
from fhesim.modarith import RnsBasis, find_ntt_prime, find_ntt_primes, make_basis
from fhesim.polykernel import (Domain, DomainError, LengthMismatch, Poly, ResidueOutOfRange,
                               _unstack, automorphism_ntt_rows, intt_reference, intt_rows,
                               ntt_reference, ntt_rows)
from fhesim.trivium import TriviumLanes, uniform_residues
from fhesim.verify import block_sampled, trivium_bit_serial

BASIS = make_basis(n=1024, levels=4, dnum=5, bits=40, first_bits=45, p_bits=45)
BASIS3 = make_basis(n=1024, levels=4, dnum=2, bits=40, first_bits=45, p_bits=45)
# dnum does not divide L+1 = 5: K = 2 and digits of 2, 2 and 1 limbs
DNUM4 = make_basis(n=1024, levels=4, dnum=4, bits=40, first_bits=45, p_bits=45)
# its first five q bases are BASIS's
BIG = make_basis(n=1024, levels=7, dnum=8, bits=40, first_bits=45, p_bits=45)


@pytest.fixture(scope="module")
def ctx():
    return CkksContext(BASIS)


@pytest.fixture(scope="module")
def keyed(ctx):
    sk, keys = ctx.keygen(seed=123, rotations=(1, 2))
    return sk, keys


@pytest.fixture(scope="module")
def ctx3():
    return CkksContext(BASIS3)


@pytest.fixture(scope="module")
def keyed3(ctx3):
    sk, keys = ctx3.keygen(seed=321, rotations=(1,))
    return sk, keys


def rng():
    return np.random.default_rng(77)


def slots_vec(ctx, kind="lin"):
    if kind == "lin":
        return np.linspace(0.1, 1.0, ctx.slots)
    return np.linspace(1.0, 2.0, ctx.slots)


def rel_err(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-9)))


def test_encode_decode_roundtrip(ctx):
    v = np.array([0.5 + 0.25j, -1.0, 2.0, 3.14] + [0.0] * (ctx.slots - 4))
    pt = ctx.encode(v, level=BASIS.l_max)
    back = ctx.decode(pt, ctx.delta)
    # relative to the scale, the roundtrip error stays below 2^-20
    assert float(np.max(np.abs(back - v))) < 2 ** -20


def test_decode_is_the_centred_exact_crt(ctx):
    # decode reads each coefficient as the exact CRT of its residues, centred
    # into (-Q/2, Q/2]; the reference here is a Python CRT per coefficient.
    # Random residues put about half the coefficients above Q/2.
    r = np.random.default_rng(11)
    v = r.normal(size=ctx.slots) + 1j * r.normal(size=ctx.slots)
    for level in (0, BASIS.l_max):
        pt = ctx.encode(v, level)
        moduli = [p.modulus for p in pt.limbs]
        qs = [m.q for m in moduli]
        big_q = math.prod(qs)
        encoded = intt_rows([p.coeffs for p in pt.limbs], moduli)
        uniform = np.array([r.integers(0, q, ctx.n, dtype=np.uint64) for q in qs])
        # the centring edges: Q//2 and 0 stay, Q//2 + 1 and Q - 1 wrap
        for i, c in enumerate((big_q // 2, big_q // 2 + 1, big_q - 1, 0)):
            uniform[:, i] = [c % q for q in qs]
        for rows in (encoded, uniform):
            centred = []
            for column in rows.T.tolist():
                c = sum(x * (big_q // q) * pow(big_q // q, -1, q)
                        for x, q in zip(column, qs)) % big_q
                centred.append(float(c - big_q if c > big_q // 2 else c))
            ev = np.fft.ifft(np.array(centred + [0.0] * ctx.n)) * (2 * ctx.n)
            want = ev[np.array(ctx._theta)] / ctx.delta
            pt = RnsPoly(_unstack(ntt_rows(rows, moduli), moduli, Domain.NTT), scale=ctx.delta)
            assert np.array_equal(ctx.decode(pt, ctx.delta), want), level


def test_encode_zero_vector_is_zero_polynomial(ctx):
    pt = ctx.encode(np.zeros(ctx.slots), level=1)
    assert all(c == 0 for limb in pt.limbs for c in limb.coeffs.tolist())


def test_encode_slot_overflow(ctx):
    with pytest.raises(SlotOverflow):
        ctx.encode(np.zeros(ctx.slots + 1), level=1)


def test_encode_coefficient_overflow(ctx):
    # a constant slot vector v encodes to the single coefficient v*scale,
    # which used to wrap silently once it reached Q_l/2
    q0 = BASIS.q_list[0].q
    with pytest.raises(EncodeOverflow):
        ctx.encode([1.0] * ctx.slots, level=0, scale=float(q0))
    with pytest.raises(EncodeOverflow):
        ctx.encode([-1.0] * ctx.slots, level=0, scale=float(q0 // 2 + 1))
    with pytest.raises(EncodeOverflow):
        ctx.encode([1.0] * ctx.slots, level=1, scale=float(q0 * BASIS.q_list[1].q))
    pt = ctx.encode([1.0] * ctx.slots, level=0, scale=float(q0 // 2 - 1))
    assert intt_reference(pt.limbs[0]).coeffs[0] == q0 // 2 - 1
    pt = ctx.encode([1.0] * ctx.slots, level=1, scale=float(q0))
    assert intt_reference(pt.limbs[0]).coeffs[0] == 0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e300, complex(0, math.nan)])
def test_encode_refuses_values_that_give_no_finite_coefficient(ctx, value):
    # NaN and infinite slots used to raise a bare ValueError, 1e300 (whose
    # coefficients overflow to inf at the scale) a bare OverflowError
    with pytest.raises(EncodeOverflow, match="not a finite number"):
        ctx.encode([value], level=1)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, "2", True])
def test_encode_and_context_refuse_a_scale_that_is_not_positive_and_finite(ctx, scale):
    # scale=0.0 used to encode at delta through `scale or self.delta`, a
    # negative or NaN delta was accepted, and a delta of True was kept, as
    # was a scale of True, whose slots decoded to 0j
    with pytest.raises(InvalidScale, match="positive finite number"):
        ctx.encode([1.0], level=1, scale=scale)
    with pytest.raises(InvalidScale, match="delta must be a positive finite number"):
        CkksContext(BASIS, delta=scale)
    assert issubclass(InvalidScale, ValueError)
    assert ctx.encode([1.0], level=1, scale=None).scale == ctx.delta


def _python_residues(coeffs, moduli) -> np.ndarray:
    ints = [int(round(c)) for c in coeffs]
    return np.array([[c % m.q for c in ints] for m in moduli], dtype=np.uint64)


def test_encode_numpy_reduction_matches_python_ints(ctx, monkeypatch):
    gen = np.random.default_rng(17)
    vecs = [gen.uniform(-1, 1, ctx.slots) + 1j * gen.uniform(-1, 1, ctx.slots)
            for _ in range(3)] + [-np.linspace(1.0, 2.0, ctx.slots)]
    fast = [ctx.encode(v, level) for v in vecs for level in (0, BASIS.l_max)]
    monkeypatch.setattr(ckks, "_INT64_SAFE", 0.0)      # every encode on Python ints
    assert fast == [ctx.encode(v, level) for v in vecs for level in (0, BASIS.l_max)]


@pytest.mark.parametrize("coeffs", [
    [0.0, -0.5, 0.5, 1.5, -1.5, 2.5, -2.5, -1.0, -7.4e11, 3.3e11],   # half to even, negative
    [2.0 ** 62 - 512, -(2.0 ** 62 - 512), -3.5, -(2.0 ** 40) - 0.5],  # just below 2^62
    [2.0 ** 62, -(2.0 ** 62), 2.0 ** 62 + 1024, 5.5],                 # from 2^62 up
    [2.0 ** 63, -(2.0 ** 63 + 2048), 1.5],
    [3.0 * 2 ** 70, -1.0, 2.0 ** 61],
], ids=["small", "below-2^62", "from-2^62", "from-2^63", "from-2^70"])
def test_rounded_residues_match_python_ints(coeffs):
    moduli = tuple(BASIS.q_list)
    x = np.array(coeffs)
    assert _rounded_residues(x, moduli).tolist() == _python_residues(coeffs, moduli).tolist()


@pytest.mark.parametrize("level", [-1, BASIS.l_max + 1])
def test_encode_rejects_level_outside_basis(ctx, level):
    with pytest.raises(LevelOutOfRange):
        ctx.encode([1.0], level)


@pytest.mark.parametrize("level", [BASIS.l_max + 1, 7, -1, True])
@pytest.mark.parametrize("routine", ["encode", "decode", "encrypt", "decrypt", "decrypt_triple",
                                     "add", "mult", "rotate_perm", "rotate", "rescale",
                                     "relinearize", "keyswitch_full_dnum",
                                     "keyswitch_generic", "moddown"])
def test_every_routine_refuses_a_level_outside_the_basis(ctx, keyed, routine, level):
    # a level is read from the limbs: at levels 5 and 7 each input holds a
    # level-4 ciphertext's limbs and the next bases of a larger basis, at -1
    # none, so only the level check can refuse it.  When the level was
    # stored beside the limbs, add of a level-7 ciphertext returned a level-7
    # ciphertext, decrypt and rotate raised NumPy errors, rescale and
    # moddown(-1) an IndexError, relinearize KeyLevelTooLow, and encode took
    # level=True
    sk, keys = keyed
    held = 1 if level is True else BASIS.l_max
    pt = ctx.encode(slots_vec(ctx), held)
    ct = ctx.encrypt(pt, sk, rng())
    live = np.zeros((len(ctx.live_bases(held)), ctx.n), dtype=np.uint64)
    if level is True and routine not in ("encode", "moddown"):
        # only encode and moddown take a level; the stamped input the others
        # were handed no longer builds, rather than taking True as its scale
        with pytest.raises(TypeError):
            if routine in ("decode", "encrypt"):
                RnsPoly(pt.limbs, True, pt.scale)
            elif routine in ("add", "mult", "decrypt", "rotate_perm", "rotate", "rescale"):
                Ciphertext(ct.c0, ct.c1, True, ct.scale)
            else:
                ExtCiphertext(ctx.mult(ct, ct).rows, True, ct.scale)
        return
    extra = [Poly(np.zeros(ctx.n, dtype=np.uint64), m, Domain.NTT)
             for m in BIG.q_list[BASIS.l_max + 1: level + 1]]
    bad_pt = RnsPoly(pt.limbs + extra if level >= 0 else [], scale=pt.scale)
    bad = Ciphertext(*(RnsPoly(c.limbs + extra if level >= 0 else []) for c in (ct.c0, ct.c1)),
                     scale=ct.scale)
    ext = ExtCiphertext(np.zeros((3, level + 1, ctx.n), dtype=np.uint64), scale=ct.scale ** 2)
    call = {"encode": lambda: ctx.encode(slots_vec(ctx), level),
            "decode": lambda: ctx.decode(bad_pt, pt.scale),
            "encrypt": lambda: ctx.encrypt(bad_pt, sk, rng()),
            "decrypt": lambda: ctx.decrypt(bad, sk),
            "decrypt_triple": lambda: ctx.decrypt_triple(ext, sk),
            "add": lambda: ctx.add(bad, bad), "mult": lambda: ctx.mult(bad, bad),
            "rotate_perm": lambda: ctx.rotate_perm(bad, 1),
            "rotate": lambda: ctx.rotate(bad, 1, keys), "rescale": lambda: ctx.rescale(bad),
            "relinearize": lambda: ctx.relinearize(ext, keys),
            "keyswitch_full_dnum": lambda: ctx.keyswitch_full_dnum(ext, keys.relin),
            "keyswitch_generic": lambda: ctx.keyswitch_generic(ext, keys.relin),
            "moddown": lambda: ctx.moddown(live, level)}[routine]
    named = rf"level must be (an integer|in \[0, {BASIS.l_max}\]), got {level!r}"
    with pytest.raises(LevelOutOfRange, match=named):
        call()


@pytest.mark.parametrize("scale", [0.0, "-delta", math.nan, math.inf])
def test_decode_refuses_a_scale_that_is_not_positive_and_finite(ctx, scale):
    # a zero scale decoded to inf slots, a negative one to negated slots
    pt = ctx.encode(slots_vec(ctx), 1)
    with pytest.raises(InvalidScale, match="scale must be a positive finite number"):
        ctx.decode(pt, -ctx.delta if scale == "-delta" else scale)


def test_encrypt_decrypt(ctx, keyed):
    sk, _ = keyed
    v = slots_vec(ctx)
    ct = ctx.encrypt(ctx.encode(v, BASIS.l_max), sk, rng())
    out = ctx.decode(ctx.decrypt(ct, sk), ct.scale)
    assert rel_err(out, v) < 1e-6


def test_add_and_identities(ctx, keyed):
    sk, _ = keyed
    v = slots_vec(ctx)
    ct = ctx.encrypt(ctx.encode(v, BASIS.l_max), sk, rng())
    zero = ctx.encrypt(ctx.encode(np.zeros(ctx.slots), BASIS.l_max), sk, rng())
    out = ctx.decode(ctx.decrypt(ctx.add(ct, zero), sk), ct.scale)
    assert rel_err(out, v) < 1e-6
    out2 = ctx.decode(ctx.decrypt(ctx.add(ct, ct), sk), ct.scale)
    assert rel_err(out2, 2 * v) < 1e-6


def test_add_level_and_scale_checks(ctx, keyed):
    sk, _ = keyed
    v = slots_vec(ctx)
    a = ctx.encrypt(ctx.encode(v, BASIS.l_max), sk, rng())
    b = ctx.encrypt(ctx.encode(v, BASIS.l_max - 1), sk, rng())
    with pytest.raises(LevelMismatch):
        ctx.add(a, b)
    c = ctx.encrypt(ctx.encode(v, BASIS.l_max), sk, rng())
    c.scale *= 2
    with pytest.raises(ScaleMismatch):
        ctx.add(a, c)


@pytest.mark.parametrize("residue", ["q", "negative"])
def test_public_routines_reject_out_of_range_residues(ctx, keyed, residue):
    sk, keys = keyed
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), BASIS.l_max), sk, rng())
    limb = ct.c0.limbs[1]
    coeffs = limb.coeffs.tolist()
    coeffs[3] = limb.modulus.q if residue == "q" else -1
    if residue == "negative":  # refused where the limb is built
        with pytest.raises(ResidueOutOfRange):
            Poly(coeffs, limb.modulus, limb.domain)
        coeffs[3] = (1 << 64) - 1  # -1 as a uint64 word
    ct.c0.limbs[1] = Poly(coeffs, limb.modulus, limb.domain)
    with pytest.raises(ResidueOutOfRange):
        ctx.add(ct, ct)
    with pytest.raises(ResidueOutOfRange):
        ctx.mult(ct, ct)
    with pytest.raises(ResidueOutOfRange):
        ctx.decrypt(ct, sk)
    # stacks are checked in place where they enter, in rows no kernel reads first
    word = coeffs[3] if residue == "q" else (1 << 64) - 1
    level, q1 = BASIS.l_max, (BASIS.q_list[1],)
    ext = np.zeros((3, level + 1, ctx.n), dtype=np.uint64)
    ext[0, 1, 3] = word
    with pytest.raises(ResidueOutOfRange):
        ctx.keyswitch_full_dnum(ExtCiphertext(ext, scale=ctx.delta), keys.relin)
    live = np.zeros((len(ctx.live_bases(level)), ctx.n), dtype=np.uint64)
    live[1, 3] = word
    with pytest.raises(ResidueOutOfRange):
        ctx.moddown(live, level)
    with pytest.raises(ResidueOutOfRange):
        ctx.bconv_routine(live[1:2], q1, BASIS.p_list)


def test_mult_cross_term_symmetry_and_zero(ctx, keyed):
    sk, _ = keyed
    v = slots_vec(ctx)
    a = ctx.encrypt(ctx.encode(v, BASIS.l_max), sk, rng())
    b = ctx.encrypt(ctx.encode(slots_vec(ctx, "b"), BASIS.l_max), sk, rng())
    d_ab = ctx.mult(a, b)
    d_ba = ctx.mult(b, a)
    assert np.array_equal(d_ab.rows[1], d_ba.rows[1])
    # enc(0) * ct decrypts (with 1, s, s^2) to about zero
    zero = ctx.encrypt(ctx.encode(np.zeros(ctx.slots), BASIS.l_max), sk, rng())
    d = ctx.mult(zero, a)
    out = ctx.decode(ctx.decrypt_triple(d, sk), d.scale)
    assert float(np.max(np.abs(out))) < 1e-4


def test_mult_keyswitch_rescale_pipeline(ctx, keyed):
    sk, keys = keyed
    a = slots_vec(ctx)
    b = slots_vec(ctx, "b")
    ca = ctx.encrypt(ctx.encode(a, BASIS.l_max), sk, rng())
    cb = ctx.encrypt(ctx.encode(b, BASIS.l_max), sk, rng())
    ks = ctx.keyswitch_full_dnum(ctx.mult(ca, cb), keys.relin)
    rs = ctx.rescale(ks)
    assert rs.level == BASIS.l_max - 1
    assert math.isclose(rs.scale, ks.scale / BASIS.q_list[BASIS.l_max].q)
    out = ctx.decode(ctx.decrypt(rs, sk), rs.scale)
    assert rel_err(out, a * b) < 1e-4


def test_keyswitch_census_matches_closed_form(ctx, keyed):
    sk, keys = keyed
    a = ctx.encrypt(ctx.encode(slots_vec(ctx), BASIS.l_max), sk, rng())
    b = ctx.encrypt(ctx.encode(slots_vec(ctx, "b"), BASIS.l_max), sk, rng())
    d = ctx.mult(a, b)
    with count_ops() as census:
        ctx.keyswitch_full_dnum(d, keys.relin)
    want = opcount.keyswitch_full(BASIS.l_max)
    assert census["INTT"] == want["INTT"]
    assert census["NTT"] == want["NTT"]
    assert census["MAS"] == want["MAS"]


@pytest.mark.parametrize("level", range(BASIS.l_max + 1))
def test_generic_degenerates_bit_exactly(ctx, keyed, level):
    # below the top level both switches read the live rows gathered from the key
    sk, keys = keyed
    a = ctx.encrypt(ctx.encode(slots_vec(ctx), level), sk, rng())
    b = ctx.encrypt(ctx.encode(slots_vec(ctx, "b"), level), sk, rng())
    d = ctx.mult(a, b)
    full = ctx.keyswitch_full_dnum(d, keys.relin)
    gen = ctx.keyswitch_generic(d, keys.relin)
    for fc, gc in ((full.c0, gen.c0), (full.c1, gen.c1)):
        for f, g in zip(fc.limbs, gc.limbs):
            assert f == g


def test_k1_switches_stream_the_modup_one_digit_at_a_time(ctx, keyed, monkeypatch):
    # The K=1 ModUp transforms one limb's l+2 rows over the live bases per
    # NTT call; it used to transform all (l+1)(l+2) rows of the fan-out in
    # one call.  ModDown's one call into Q_l holds both components' l+1 rows.
    sk, keys = keyed
    calls = []
    ntt = ckks.ntt_rows

    def spy(x, moduli):
        calls.append((x.size // x.shape[-1], len(moduli)))
        return ntt(x, moduli)

    monkeypatch.setattr(ckks, "ntt_rows", spy)
    for level in range(BASIS.l_max + 1):
        ct = ctx.encrypt(ctx.encode(slots_vec(ctx), level), sk, rng())
        d = ctx.mult(ct, ct)
        for switch in (lambda: ctx.keyswitch_full_dnum(d, keys.relin),
                       lambda: ctx.relinearize(d, keys), lambda: ctx.rotate(ct, 1, keys)):
            calls.clear()
            switch()
            modup = [rows for rows, bases in calls if bases == level + 2]
            assert modup == [level + 2] * (level + 1), level
            assert calls[len(modup):] == [(2 * (level + 1), level + 1)], level


def test_generic_dnum_pipeline_and_census(ctx3, keyed3):
    sk, keys = keyed3
    a = slots_vec(ctx3)
    b = slots_vec(ctx3, "b")
    ca = ctx3.encrypt(ctx3.encode(a, BASIS3.l_max), sk, rng())
    cb = ctx3.encrypt(ctx3.encode(b, BASIS3.l_max), sk, rng())
    with count_ops() as census:
        d = ctx3.mult(ca, cb)
        ks = ctx3.keyswitch_generic(d, keys.relin)
    rs = ctx3.rescale(ks)
    out = ctx3.decode(ctx3.decrypt(rs, sk), rs.scale)
    assert rel_err(out, a * b) < 1e-4
    want = opcount.keyswitch_generic(BASIS3.l_max, BASIS3.dnum, BASIS3.k)
    assert census["INTT"] == want["INTT"]
    assert census["NTT"] == want["NTT"]
    assert census["MAS"] == want["MAS"] + opcount.hmult(BASIS3.l_max)["MAS"]


def test_keygen_follows_the_digit_partition_when_dnum_does_not_divide():
    # L+1 = 5 limbs at dnum = 4 gives K = 2 and digits of 2, 2 and 1 limbs:
    # keygen used to ask for a fourth, empty digit and failed in reduce()
    basis = make_basis(n=1024, levels=4, dnum=4, bits=40, first_bits=45, p_bits=45)
    ctx4 = CkksContext(basis)
    sk, keys = ctx4.keygen(seed=11)
    assert [len(d) for d in opcount.digit_ranges(4, basis.k)] == [2, 2, 1]
    assert keys.relin.dnum == len(keys.relin.digits) == 3
    # the basis reports the digit count of its primes, not the dnum asked for,
    # and so do the ciphertext header word and the key image's digit count
    assert basis.dnum == 3
    assert struct.unpack_from("<II", ksk_to_bytes(keys.relin))[0] == 3
    a, b = slots_vec(ctx4), slots_vec(ctx4, "b")
    ca = ctx4.encrypt(ctx4.encode(a, 4), sk, rng())
    cb = ctx4.encrypt(ctx4.encode(b, 4), sk, rng())
    out_ct = ctx4.rescale(ctx4.relinearize(ctx4.mult(ca, cb), keys))
    assert rel_err(ctx4.decode(ctx4.decrypt(out_ct, sk), out_ct.scale), a * b) < 1e-4
    assert struct.unpack_from("<IiId", ciphertext_to_bytes(out_ct, basis))[2] == 3


@pytest.mark.parametrize("basis", [BASIS, BASIS3, DNUM4], ids=["dnum5", "dnum2", "dnum4"])
def test_keygen_batch_equals_keys_built_one_at_a_time(basis):
    # keygen draws every key's a limbs in one batch; make_keyswitch_keys here
    # builds one key per call, so the same rng sequence must give the same keys
    ctx_b = CkksContext(basis)
    seed, rotations = 77, (3, 1, 3)
    sk, keys = ctx_b.keygen(seed, rotations)
    gen = np.random.default_rng(seed)
    bases = tuple(ctx_b.all_bases())
    q = np.array([m.q for m in bases], dtype=np.int64)[:, None]
    assert np.array_equal(sk.s, ntt_rows(gen.integers(-1, 2, ctx_b.n) % q, bases))
    s = sk.s
    square = np.array([[v * v % m.q for v in row] for row, m in zip(s.tolist(), bases)],
                      dtype=np.uint64)
    want = {"relin": ctx_b.make_keyswitch_keys(s, [derive_seed(seed, 0xE)], [square], gen)[0]}
    for rot in rotations:
        rotated = automorphism_ntt_rows(s, pow(5, rot, 2 * ctx_b.n))
        want[rot], = ctx_b.make_keyswitch_keys(s, [derive_seed(seed, 0xA, rot)], [rotated], gen)
    got = {"relin": keys.relin, **keys.rotation}
    assert got.keys() == want.keys()
    for name, key in got.items():
        assert key.dnum == want[name].dnum == len(opcount.digit_ranges(4, basis.k))
        for d, w in zip(key.digits, want[name].digits, strict=True):
            assert d.ksk1_seeds == w.ksk1_seeds
            assert np.array_equal(d.ksk0, w.ksk0), name


def test_cached_constants_are_shared_read_only_arrays(ctx):
    bases = tuple(ctx.all_bases())
    for j in range(len(opcount.digit_ranges(BASIS.l_max, BASIS.k))):
        assert _gadget(BASIS, j) is _gadget(BASIS, j)
        assert all(not t.flags.writeable for t in _gadget(BASIS, j))
    plan = _bconv_plan(bases[:2], bases[2:])
    assert _bconv_plan(bases[:2], bases[2:]) is plan
    assert all(isinstance(t, np.ndarray) and not t.flags.writeable
               for triple in plan for t in triple)


def test_rotation_pipeline_shifts_slots(ctx, keyed):
    sk, keys = keyed
    v = np.arange(1, ctx.slots + 1, dtype=float)
    ct = ctx.encrypt(ctx.encode(v, BASIS.l_max), sk, rng())
    for rot in (1, 2):
        out = ctx.decode(ctx.decrypt(ctx.rotate(ct, rot, keys), sk), ct.scale)
        assert rel_err(out, np.roll(v, -rot)) < 1e-4


def test_rotate_perm_composition(ctx, keyed):
    sk, _ = keyed
    v = slots_vec(ctx)
    ct = ctx.encrypt(ctx.encode(v, BASIS.l_max), sk, rng())
    once = ctx.rotate_perm(ctx.rotate_perm(ct, 1), 2)
    with count_ops() as census:
        combined = ctx.rotate_perm(ct, 3)
    # one gather per limb in the NTT domain, no INTT/NTT round trip
    assert census == opcount.rotate_perm(BASIS.l_max)
    assert census["INTT"] == census["NTT"] == 0
    for a, b in zip(once.c0.limbs + once.c1.limbs,
                    combined.c0.limbs + combined.c1.limbs):
        assert a == b


@pytest.mark.parametrize("level", [2, 4])
def test_rotate_census_matches_simulator(ctx, keyed, level):
    # K=1: the functional rotate and the simulator's ROTATE both charge one
    # AUT per limb and a full-dnum key switch, with no INTT/NTT round trip
    sk, keys = keyed
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), level), sk, rng())
    with count_ops() as census:
        ctx.rotate(ct, 1, keys)
    perm, switch = opcount.rotate_perm(level), opcount.keyswitch_full(level)
    assert census == {kind: perm[kind] + switch[kind] for kind in census}
    for r in (1, 4):
        rep = run_workload(ChipletConfig(exact=True, r=r), [{"op": "ROTATE", "l": level}])
        assert {kind: rep.op_counts.get(kind, 0) for kind in census} == census, r


def _random_ext(ctx, level, seed):
    """A random NTT-domain polynomial over the live PQ_level bases."""
    rs = np.random.default_rng(seed)
    return np.array([rs.integers(0, m.q, ctx.n) for m in ctx.live_bases(level)],
                    dtype=np.uint64)


def _functional_census(op, ctx, sk, keys, level):
    """count_ops() around the functional routine of one simulator step."""
    a = ctx.encrypt(ctx.encode(slots_vec(ctx), level), sk, rng())
    b = ctx.encrypt(ctx.encode(slots_vec(ctx, "b"), level), sk, rng())
    d = ctx.mult(a, b) if op == "KEYSWITCH" else None
    with count_ops() as census:
        if op == "HADD":
            ctx.add(a, b)
        elif op == "HMULT":
            ctx.mult(a, b)
        elif op == "RESCALE":
            ctx.rescale(a)
        elif op == "KEYSWITCH":
            ctx.relinearize(d, keys)
        elif op == "ROTATE":
            ctx.rotate(a, 1, keys)
        else:   # MODDOWN
            ctx.moddown(_random_ext(ctx, level, 1), level)
    return census


@pytest.mark.parametrize("op, k", [
    *((op, k) for op in ("HADD", "HMULT", "RESCALE", "KEYSWITCH", "ROTATE")
      for k in (1, 3)),
    ("MODDOWN", 1),    # the ModDown flow models K = 1
])
def test_census_matches_simulator(op, k, request):
    # Both halves pick the key switch by K alone, so the functional census of
    # every macro op equals the op_counts of its simulator step, at every
    # level of an L=4 chain and for any chiplet count.  The simulator's
    # MODDOWN drops both components, where ctx.moddown drops one.
    basis = BASIS if k == 1 else BASIS3
    assert basis.k == k
    ctx = request.getfixturevalue("ctx" if k == 1 else "ctx3")
    sk, keys = request.getfixturevalue("keyed" if k == 1 else "keyed3")
    lowest = 1 if op == "RESCALE" else 0
    for level in range(lowest, basis.l_max + 1):
        census = _functional_census(op, ctx, sk, keys, level)
        want = {kind: (2 if op == "MODDOWN" else 1) * n for kind, n in census.items()}
        for r in (1, 4):
            cfg = ChipletConfig(exact=True, r=r)
            rep = run_workload(cfg, [{"op": op, "l": level, "k": k}])
            got = {kind: rep.op_counts.get(kind, 0) for kind in opcount.KINDS}
            assert got == want, (op, k, level, r)


def test_copied_plaintext_keeps_its_scale(ctx, keyed):
    sk, _ = keyed
    v = slots_vec(ctx)
    pt = ctx.encode(v, BASIS.l_max, scale=2.0 ** 30)
    copy = pt.copy()
    assert copy.scale == pt.scale == 2.0 ** 30
    ct = ctx.encrypt(copy, sk, rng())
    assert ct.scale == 2.0 ** 30
    assert rel_err(ctx.decode(ctx.decrypt(ct, sk), ct.scale), v) < 1e-4


def test_missing_rotation_key(ctx, keyed):
    sk, keys = keyed
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), BASIS.l_max), sk, rng())
    with pytest.raises(MissingRotationKey):
        ctx.rotate(ct, 5, keys)


def test_keygen_and_rotate_take_numpy_integers(ctx, keyed):
    small = CkksContext(make_basis(n=64, levels=2, dnum=3, bits=30))
    _, keys = small.keygen(seed=3, rotations=[3])
    _, np_keys = small.keygen(seed=np.int64(3), rotations=[np.int64(3)])
    assert list(np_keys.rotation) == [3] and type(next(iter(np_keys.rotation))) is int
    for a, b in ((keys.relin, np_keys.relin), (keys.rotation[3], np_keys.rotation[3])):
        assert ksk_to_bytes(a) == ksk_to_bytes(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, wide = small.keygen(seed=np.uint64((1 << 64) - 1), rotations=[np.uint8(3)])
    _, keys = small.keygen(seed=(1 << 64) - 1, rotations=[3])
    assert ksk_to_bytes(wide.rotation[3]) == ksk_to_bytes(keys.rotation[3])
    sk, keys = keyed
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), BASIS.l_max), sk, rng())
    assert ctx.rotate(ct, np.int64(1), keys) == ctx.rotate(ct, 1, keys)
    assert ctx.rotate_perm(ct, np.int32(2)) == ctx.rotate_perm(ct, 2)


@pytest.mark.parametrize("seed, rotations", [
    (True, ()), (1.0, ()), ("3", ()), (None, ()), (-1, ()), (np.int64(-1), ()),
    (3, [True]), (3, [1.0]), (3, ["1"]), (3, [None]), (3, [np.bool_(True)])],
    ids=["bool-seed", "float-seed", "str-seed", "none-seed", "negative-seed",
         "np-negative-seed", "bool-rotation", "float-rotation", "str-rotation",
         "none-rotation", "np-bool-rotation"])
def test_keygen_refuses_seeds_and_rotations_that_are_not_integers(seed, rotations):
    small = CkksContext(make_basis(n=64, levels=2, dnum=3, bits=30))
    with pytest.raises(InvalidInteger, match="must be an integer|the seed must be at least 0"):
        small.keygen(seed=seed, rotations=rotations)
    assert issubclass(InvalidInteger, ValueError)


def test_derive_seed_and_make_keyswitch_keys_take_numpy_integers():
    # a NumPy master seed used to raise OverflowError in derive_seed's mask
    assert derive_seed(np.int64(3), 1) == derive_seed(3, 1)
    assert derive_seed(np.uint64((1 << 64) - 1), np.int32(-1)) == derive_seed((1 << 64) - 1, -1)
    small = CkksContext(make_basis(n=64, levels=2, dnum=3, bits=30))
    sk, _ = small.keygen(seed=3)
    plain, wide = (small.make_keyswitch_keys(sk.s, [master], [sk.s], np.random.default_rng(1))[0]
                   for master in (3, np.int64(3)))
    assert ksk_to_bytes(plain) == ksk_to_bytes(wide)
    assert type(wide.digits[0].ksk1_seeds[0]) is int
    for bad in ((True,), (3, True), (3.0,), (3, np.bool_(True)), (None, 1)):
        with pytest.raises(InvalidInteger, match="must be an integer"):
            derive_seed(*bad)
    with pytest.raises(InvalidInteger, match="must be an integer"):
        small.make_keyswitch_keys(sk.s, [True], [sk.s], np.random.default_rng(1))


@pytest.mark.parametrize("rot", [True, 1.0, "1", None])
def test_rotate_refuses_a_rotation_that_is_not_an_integer(ctx, keyed, rot):
    sk, keys = keyed
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), BASIS.l_max), sk, rng())
    with pytest.raises(InvalidInteger, match="must be an integer"):
        ctx.rotate(ct, rot, keys)
    with pytest.raises(InvalidInteger, match="must be an integer"):
        ctx.rotate_perm(ct, rot)


def test_identity_keyswitch_preserves_plaintext(ctx, keyed):
    # switching from s to s with a key for s itself
    sk, _ = keyed
    v = slots_vec(ctx)
    ct = ctx.encrypt(ctx.encode(v, BASIS.l_max), sk, rng())
    ident, = ctx.make_keyswitch_keys(sk.s, [derive_seed(9, 9)], [sk.s],
                                     np.random.default_rng(5))
    c0, c1 = ([p.coeffs for p in c.limbs] for c in (ct.c0, ct.c1))
    d = ExtCiphertext(np.array([c0, np.zeros_like(c0), c1]), scale=ct.scale)
    out_ct = ctx.keyswitch_full_dnum(d, ident)
    out = ctx.decode(ctx.decrypt(out_ct, sk), out_ct.scale)
    assert rel_err(out, v) < 1e-4


def test_keygen_verification_identity(ctx, keyed):
    # ksk0 + ksk1*s - gadget*s' must be the same small error in every base
    sk, keys = keyed
    key = keys.relin
    s2 = [[a * a % m.q for a in row] for row, m in zip(sk.s.tolist(), ctx.all_bases())]
    for j in (0, len(key.digits) - 1):
        gadget = _gadget(BASIS, j)[0][:, 0].tolist()
        err_polys = []
        for t, m in enumerate(ctx.all_bases()):
            a = ctx.ksk1_limb(key, j, t)
            q = m.q
            coeffs = [
                (k0 + av * sv - g * pv) % q
                for k0, av, sv, pv in zip(key.digits[j].ksk0[t].tolist(), a.coeffs.tolist(),
                                          sk.s[t].tolist(), s2[t])
                for g in (gadget[t],)
            ]
            e = intt_reference(Poly(coeffs, m, Domain.NTT))
            centered = [c if c <= q // 2 else c - q for c in e.coeffs.tolist()]
            assert max(abs(c) for c in centered) < 64  # small gaussian error
            err_polys.append(centered)
        for other in err_polys[1:]:
            assert other == err_polys[0]


def test_ksk1_seed_expansion_referentially_transparent(ctx, keyed):
    sk, keys = keyed
    key = keys.relin
    limb = ctx.ksk1_limb(key, 0, 0)
    # drop the cached limb and regenerate mid-computation
    key.digits[0]._ksk1 = None
    again = ctx.ksk1_limb(key, 0, 0)
    assert limb == again


def test_seeded_key_storage_ratio(ctx, keyed):
    _, keys = keyed
    key = keys.relin
    for j, dg in enumerate(key.digits):
        for t in range(len(dg.ksk0)):
            ctx.ksk1_limb(key, j, t)
    seeded = len(ksk_to_bytes(key, seeded=True))
    expanded = len(ksk_to_bytes(key, seeded=False))
    assert 0.5 <= seeded / expanded < 0.52


def test_rescale_level_exhausted(ctx, keyed):
    sk, _ = keyed
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), 0), sk, rng())
    with pytest.raises(LevelExhausted):
        ctx.rescale(ct)


def test_rescale_composes(ctx, keyed):
    # encode aligned with the two moduli to be dropped, rescale twice
    sk, _ = keyed
    v = slots_vec(ctx)
    lmax = BASIS.l_max
    scale = ctx.delta * BASIS.q_list[lmax].q * BASIS.q_list[lmax - 1].q
    ct = ctx.encrypt(ctx.encode(v, lmax, scale=scale), sk, rng())
    once = ctx.rescale(ctx.rescale(ct))
    assert once.level == lmax - 2
    assert math.isclose(once.scale, ctx.delta)
    out = ctx.decode(ctx.decrypt(once, sk), once.scale)
    assert rel_err(out, v) < 1e-3


def test_rescale_of_product_aligns_scale(ctx, keyed):
    sk, _ = keyed
    v = slots_vec(ctx)
    pt = ctx.encode(v, BASIS.l_max, scale=ctx.delta * BASIS.q_list[BASIS.l_max].q)
    rs = ctx.rescale(ctx.encrypt(pt, sk, rng()))
    out = ctx.decode(ctx.decrypt(rs, sk), rs.scale)
    assert math.isclose(rs.scale, ctx.delta)
    assert rel_err(out, v) < 1e-4


def test_a_depth_chain_keeps_its_scale():
    # Each rescale divides the scale by a prime just below 2^40 = delta, so
    # the scale stays at delta down to level 0.
    basis = make_basis(n=1024, levels=8, dnum=3, bits=40, first_bits=45, p_bits=45)
    ctx = CkksContext(basis)
    sk, keys = ctx.keygen(seed=8)
    gen = np.random.default_rng(8)
    want = gen.uniform(0.5, 1.5, ctx.slots)
    ct = ctx.encrypt(ctx.encode(want, basis.l_max), sk, gen)
    for level in range(basis.l_max, 0, -1):
        values = gen.uniform(0.5, 1.5, ctx.slots)
        fresh = ctx.encrypt(ctx.encode(values, level), sk, gen)
        ct = ctx.rescale(ctx.relinearize(ctx.mult(ct, fresh), keys))
        want = want * values
        assert ct.level == level - 1
        assert math.isclose(ct.scale, ctx.delta, rel_tol=1e-6), (level, math.log2(ct.scale))
        got = ctx.decode(ctx.decrypt(ct, sk), ct.scale)
        assert np.max(np.abs(got - want)) < 1e-4, level


@pytest.fixture
def stepped(monkeypatch):
    """The keystream words (rounds times lanes) each TriviumLanes.words call
    steps from here on."""
    counts = []
    words = TriviumLanes.words

    def counting(self, rounds):
        counts.append(rounds * self.lanes)
        return words(self, rounds)

    monkeypatch.setattr(TriviumLanes, "words", counting)
    return counts


@pytest.mark.parametrize("basis", [BASIS, BASIS3], ids=["dnum5", "dnum2"])
def test_one_ksk1_expansion_steps_few_keystream_words_per_residue(basis, stepped):
    ctx = CkksContext(basis)
    _, keys = ctx.keygen(seed=5, rotations=(1,))
    key = keys.rotation[1]
    assert key.digits[0]._ksk1 is None
    stepped.clear()
    ctx.ksk1_limb(key, 0, 0)
    residues = len(ctx.all_bases()) * ctx.n
    # 0.75 here: 12 blocks of 91 45-bit candidates (or 102 of 40 bits) cover
    # 1024 residues; 1.5 with primes just above 2^b, which reject about half.
    assert sum(stepped) <= 0.76 * residues


def test_params_main_moduli_accept_almost_every_keystream_word(stepped):
    basis = make_basis(n=2 ** 16, levels=30, dnum=31, bits=54)
    moduli = basis.q_list + basis.p_list
    # 31 digits of 54-bit products sum in int64 before one reduction
    assert _lazy_terms(moduli) >= basis.dnum
    n = 4096
    uniform_residues(range(len(moduli)), [m.q for m in moduli], n)
    # 0.859: a block holds 75 54-bit candidates, 64/75 = 0.853 words each
    assert sum(stepped) <= 0.87 * len(moduli) * n


def test_moddown_exact_on_divisible_input(ctx):
    level = BASIS.l_max
    live = ctx.live_bases(level)
    p_prod = BASIS.p_product
    vals = [v * p_prod for v in range(ctx.n)]
    x = np.array([ntt_reference(Poly([v % m.q for v in vals], m, Domain.COEFF)).coeffs
                  for m in live])
    down = ctx.moddown(x, level)
    out = intt_reference(Poly(down[0], live[0], Domain.NTT))
    q0 = BASIS.q_list[0].q
    assert out.coeffs.tolist() == [v % q0 for v in range(ctx.n)]


def test_moddown_crt_oracle(ctx):
    level = BASIS.l_max
    live = ctx.live_bases(level)
    p_prod = BASIS.p_product
    rs = np.random.default_rng(3)
    vals = [int(x) for x in rs.integers(0, 1 << 62, ctx.n)]
    x = np.array([ntt_reference(Poly([v % m.q for v in vals], m, Domain.COEFF)).coeffs
                  for m in live])
    out = intt_rows(ctx.moddown(x, level), live[: level + 1]).tolist()
    mods = [m.q for m in BASIS.q_list[: level + 1]]
    big_q = reduce(lambda a, b: a * b, mods)
    recon = [(big_q // m) * pow(big_q // m, -1, m) for m in mods]
    for i in range(0, ctx.n, 61):
        got = sum(out[t][i] * recon[t] for t in range(level + 1)) % big_q
        if got > big_q // 2:
            got -= big_q
        want = (vals[i] - vals[i] % p_prod) // p_prod
        assert abs(got - want) <= BASIS.k


def _bconv(ctx, rows, sources, targets) -> list:
    """bconv_routine of coefficient-domain rows, its output brought back to
    the coefficient domain, as lists."""
    x = np.array(rows, dtype=np.uint64)
    return intt_rows(ctx.bconv_routine(x, sources, targets), targets).tolist()


def test_bconv_zero_and_exact_small(ctx):
    src = [BASIS.p_list[0]]
    targets = list(BASIS.q_list[:2])
    out = _bconv(ctx, [[0] * ctx.n], src, targets)
    assert all(c == 0 for row in out for c in row)
    out = _bconv(ctx, [[i % 1000 for i in range(ctx.n)]], src, targets)
    for row, m in zip(out, targets):
        assert row == [i % 1000 % m.q for i in range(ctx.n)]


def test_bconv_slack_is_multiple_of_source_product(ctx3):
    # fast conversion P -> Q_l returns y + alpha*P with 0 <= alpha < K,
    # verified against a wide-integer CRT reconstruction
    rngl = random.Random(5)
    basis = BASIS3
    src = list(basis.p_list)
    p_prod = basis.p_product
    targets = list(basis.q_list)
    vals = [rngl.randrange(p_prod) for _ in range(ctx3.n)]
    out = _bconv(ctx3, [[v % m.q for v in vals] for m in src], src, targets)
    mods = [m.q for m in targets]
    big_q = reduce(lambda a, b: a * b, mods)
    recon = [(big_q // m) * pow(big_q // m, -1, m) for m in mods]
    for i in range(0, ctx3.n, 113):
        got = sum(out[t][i] * recon[t] for t in range(len(mods))) % big_q
        diff = got - vals[i]
        assert diff % p_prod == 0
        assert 0 <= diff // p_prod < basis.k


def test_lazy_sums_refuse_one_term_past_the_limit(ctx):
    # BConv sums one product per source before its one reduction, KeyMul one
    # per digit: at _lazy_terms they go ahead, one term more raises.
    *sources, target = find_ntt_primes(54, 8, 150)
    limit = _lazy_terms((target,), sources[-1].q)
    assert limit == _lazy_terms((target,), sources[0].q) < len(sources)
    _bconv_plan(tuple(sources[:limit]), (target,))
    with pytest.raises(LazySumOverflow):
        _bconv_plan(tuple(sources[:limit + 1]), (target,))
    level = BASIS.l_max
    digits = _lazy_terms(tuple(ctx.live_bases(level))) + 1
    with pytest.raises(LazySumOverflow):
        ctx._key_products(iter(()), digits, None, level)


def test_bconv_cross_modulus_matches_wide_integers():
    # 45-bit residues into 40-bit targets and back: operands of the second
    # product exceed the target modulus, as the signed product's bound allows.
    basis = make_basis(n=256, levels=3, dnum=2, bits=40, first_bits=45, p_bits=45)
    ctx = CkksContext(basis)
    rngl = random.Random(11)
    wide, narrow = [basis.q_list[0]] + list(basis.p_list), list(basis.q_list[1:])
    for sources, targets in ((wide, narrow), (narrow, wide)):
        limbs = [[m.q - 1 - i % 3 if i < 8 else rngl.randrange(m.q)
                  for i in range(ctx.n)] for m in sources]
        out = _bconv(ctx, limbs, sources, targets)
        mods = [m.q for m in sources]
        d = reduce(lambda a, b: a * b, mods)
        hat = [d // q for q in mods]
        for tm, got in zip(targets, out):
            want = [sum(p[i] * pow(h, -1, q) % q * h
                        for p, h, q in zip(limbs, hat, mods)) % tm.q
                    for i in range(ctx.n)]
            assert got == want


def test_submul_one_row_matches_integers():
    m = find_ntt_prime(20, 64)
    rngl = random.Random(2)
    a = [rngl.randrange(m.q) for _ in range(32)]
    b = [m.q - 1 - i for i in range(16)] + [rngl.randrange(m.q) for _ in range(16)]
    x, y = (np.array([v], dtype=np.uint64) for v in (a, b))
    assert _submul(x, x, [3], (m,)).tolist() == [[0] * 32]
    for scalar in (3, m.q - 1, -5, 1 << 70):   # reduced mod q first
        assert _submul(x, y, [scalar], (m,)).tolist() == \
            [[(u - v) * scalar % m.q for u, v in zip(a, b)]], scalar


# SHA-256 of keys and ciphertexts whose a limbs each lane's keystream gives
# 4096 bits at a time, cut into bitlen(q)-bit candidates (a test below derives
# one key's from the bit-serial keystream); their base conversion was pinned
# against the pure-int one before it was batched.  They were pinned over the
# primes just above 2^44 and 2^39 that
# make_basis(n=256, levels=2, dnum=2, bits=40, first_bits=45, p_bits=45)
# gave while find_ntt_primes scanned upward; that basis is frozen here.
PINNED_SHA256 = {
    "relin": "78fa3ae19825a08be25b7488bfff0ec784008d2379dadfdd970d36394544d4e2",
    "rotation": "0e02099593a1329a87ae7c1d1b39b5c11542476509fcb6b801be24d5ee076b46",
    "rotated": "a505983630b93c85ac64843a97bb78df0070a4ba32c2c055d1d3794ac353e8ed",
    "relinearized": "0cd59ad21890a0751665636f07735979082a1a3c75a387220be741df26945a5d",
}
PINNED_BASIS_ABOVE = RnsBasis.from_json_dict({
    "n": 256, "dnum": 2,
    "q": ["17592186045953", "549755829761", "549755838977"],
    "p": ["17592186047489", "17592186048001"],
    "psi_q": ["14569661073997", "262226440938", "388422791247"],
    "psi_p": ["1792409676692", "11585370009838"],
})
# The same objects over the primes that call gives now, the largest below
# 2^45 and 2^40.
PINNED_SHA256_BELOW = {
    "relin": "e1b2746d6c7e883ba0a9647fec0630d2a931f517efca97c42c7cc889a40b831c",
    "rotation": "e29394fbd95bad752dfbfb1dd9345320ae7e5e8bb8a5103d8e900e2c03861bdd",
    "rotated": "3fcf1d820c3e73b22dc4d32c58b1937f934b1af33be5689ca743f52414c15497",
    "relinearized": "7e6ddb39c6825acda0d8642fa4bdeffa1bb300775d796c9fe11c7d0132896ba1",
}
PINNED = (
    (PINNED_BASIS_ABOVE, PINNED_SHA256),
    (make_basis(n=256, levels=2, dnum=2, bits=40, first_bits=45, p_bits=45),
     PINNED_SHA256_BELOW),
)


def _pinned_objects(basis):
    """The context, and by name the keys (ksk1 expanded) and the ciphertexts
    pinned for basis."""
    ctx = CkksContext(basis)
    sk, keys = ctx.keygen(seed=2024, rotations=(1,))
    objects = {"relin": keys.relin, "rotation": keys.rotation[1]}
    for key in objects.values():
        for j, d in enumerate(key.digits):
            for t in range(len(d.ksk1_seeds)):
                ctx.ksk1_limb(key, j, t)
    # a second key set whose ksk1 halves the switches expand themselves
    _, fresh = ctx.keygen(seed=2024, rotations=(1,))
    ct = ctx.encrypt(ctx.encode(np.linspace(0.1, 1.0, ctx.slots), basis.l_max), sk,
                     np.random.default_rng(5))
    objects["rotated"] = ctx.rotate(ct, 1, fresh)
    objects["relinearized"] = ctx.rescale(ctx.relinearize(ctx.mult(ct, ct), fresh))
    return ctx, objects


def _frozen_row(p: Poly) -> bool:
    return p.coeffs.dtype == np.uint64 and not p.coeffs.flags.writeable


def _limbs(*objs) -> list:
    """Every limb of RnsPolys and ciphertexts, in order."""
    comps = [c for x in objs for c in ((x,) if isinstance(x, RnsPoly) else (x.c0, x.c1))]
    return [p for c in comps for p in c.limbs]


def _expand_ksk1(ctx, key):
    for j in range(len(key.digits)):
        ctx.ksk1_limb(key, j, 0)


def _to_bytes(ctx, obj) -> bytes:
    if isinstance(obj, KeySwitchKey):
        return ksk_to_bytes(obj, seeded=False)
    return ciphertext_to_bytes(obj, ctx.basis)


def test_a_pinned_key_draws_its_a_limbs_as_the_bit_serial_block_oracle():
    # the digests above rest on the sampler; this key's a limbs (its ksk1) come
    # from the bit-serial keystream and the pure-int block reader instead
    basis = PINNED[1][0]
    ctx = CkksContext(basis)
    _, keys = ctx.keygen(seed=2024)
    for j, digit in enumerate(keys.relin.digits):
        for t, (seed, m) in enumerate(zip(digit.ksk1_seeds, ctx.all_bases())):
            words = 64
            while len(want := block_sampled(trivium_bit_serial(seed, words), m.q)) < ctx.n:
                words += 64
            assert ctx.ksk1_limb(keys.relin, j, t).coeffs.tolist() == want[:ctx.n], (j, t)


def test_keys_and_ciphertexts_match_pinned_digests():
    for basis, pinned in PINNED:
        ctx, objects = _pinned_objects(basis)
        digest = {name: hashlib.sha256(_to_bytes(ctx, obj)).hexdigest()
                  for name, obj in objects.items()}
        assert digest == pinned


def test_pinned_objects_round_trip_through_bytes():
    for basis, pinned in PINNED:
        ctx, objects = _pinned_objects(basis)
        for name, obj in objects.items():
            blob = _to_bytes(ctx, obj)
            read = ksk_from_bytes if isinstance(obj, KeySwitchKey) else ciphertext_from_bytes
            assert _to_bytes(ctx, read(blob, ctx.basis)) == blob, name
        # the seeded image of a key regenerates the same ksk1 halves
        for name in ("relin", "rotation"):
            key = ksk_from_bytes(ksk_to_bytes(objects[name], seeded=True), ctx.basis)
            assert all(d._ksk1 is None for d in key.digits)
            _expand_ksk1(ctx, key)
            assert hashlib.sha256(_to_bytes(ctx, key)).hexdigest() == pinned[name]


def test_ciphertext_from_bytes_gives_checked_row_backed_limbs(ctx, keyed):
    sk, _ = keyed
    for level in (0, BASIS.l_max):
        ct = ctx.encrypt(ctx.encode(slots_vec(ctx), level), sk, rng())
        blob = ciphertext_to_bytes(ct, BASIS)
        back = ciphertext_from_bytes(blob, BASIS)
        assert all(_frozen_row(p) for p in _limbs(back))
        assert (back.level, back.scale) == (level, ct.scale)
        assert back == ct


def test_from_bytes_rejects_bad_buffers(ctx, keyed):
    sk, keys = keyed
    level, n = 2, ctx.n
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), level), sk, rng())
    blob = ciphertext_to_bytes(ct, BASIS)
    heads = [(2 * n, level, BASIS.dnum), (n, BASIS.l_max + 1, BASIS.dnum),
             (n, -1, BASIS.dnum), (n, level, BASIS.dnum + 1)]
    bad = [blob[:10], blob[:-1], blob + b"\0"]
    bad += [struct.pack("<IiId", *h, ct.scale) + blob[20:] for h in heads]
    # limb 1 of c0 claims modulus id 0
    limb1 = 20 + 9 + 8 * n
    bad.append(blob[:limb1 + 4] + struct.pack("<I", 0) + blob[limb1 + 8:])
    for data in bad:
        with pytest.raises(LengthMismatch):
            ciphertext_from_bytes(data, BASIS)
    # residue 3 of limb 1 of c0 set to q, then to 2^64 - 1
    at = limb1 + 9 + 8 * 3
    for word in (BASIS.q_list[1].q, (1 << 64) - 1):
        with pytest.raises(ResidueOutOfRange):
            ciphertext_from_bytes(blob[:at] + struct.pack("<Q", word) + blob[at + 8:], BASIS)

    key = keys.relin
    _expand_ksk1(ctx, key)
    for seeded in (True, False):
        kblob = ksk_to_bytes(key, seeded=seeded)
        for data in (kblob[:7], kblob[:-1], kblob + b"\0",
                     struct.pack("<II", len(key.digits) + 1, int(seeded)) + kblob[8:],
                     struct.pack("<II", len(key.digits), 2) + kblob[8:]):
            with pytest.raises(LengthMismatch):
                ksk_from_bytes(data, BASIS)
        at = 8 + 9 + 8 * 5            # residue 5 of ksk0 limb 0 of digit 0
        with pytest.raises(ResidueOutOfRange):
            ksk_from_bytes(kblob[:at] + struct.pack("<Q", BASIS.q_list[0].q)
                           + kblob[at + 8:], BASIS)


def test_unseeded_key_image_switches_like_its_source(ctx, keyed):
    sk, keys = keyed
    _expand_ksk1(ctx, keys.relin)
    read = ksk_from_bytes(ksk_to_bytes(keys.relin, seeded=False), BASIS)
    assert all(d.ksk1_seeds == [] for d in read.digits)
    with pytest.raises(ValueError):
        ksk_to_bytes(read, seeded=True)
    a = ctx.encrypt(ctx.encode(slots_vec(ctx), BASIS.l_max), sk, rng())
    d = ctx.mult(a, a)
    assert ctx.keyswitch_full_dnum(d, read) == ctx.keyswitch_full_dnum(d, keys.relin)


def test_ciphertext_serialization_shape(ctx, keyed):
    sk, _ = keyed
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), 2), sk, rng())
    blob = ciphertext_to_bytes(ct, BASIS)
    # header + 2 components x 3 limbs x (9-byte poly header + residues)
    assert len(blob) == 20 + 2 * 3 * (9 + 8 * ctx.n)
    # N and dnum come from the basis
    assert struct.unpack_from("<IiI", blob) == (ctx.n, 2, BASIS.dnum)


def test_ciphertext_to_bytes_refuses_a_basis_or_level_it_does_not_fit():
    # with dnum passed in, a ciphertext at N=64, L=2 (three digits) written
    # with dnum 2 gave a buffer its own basis refused; now every header word
    # comes from the basis, and a ciphertext that does not fit it is refused
    basis = make_basis(n=64, levels=2, dnum=3, bits=30)
    small = CkksContext(basis)
    sk, _ = small.keygen(seed=3)
    ct = small.encrypt(small.encode(slots_vec(small), 2), sk, rng())
    assert ciphertext_from_bytes(ciphertext_to_bytes(ct, basis), basis) == ct
    short = Ciphertext(RnsPoly([Poly(p.coeffs[:32], p.modulus, p.domain)
                                for p in ct.c0.limbs]), ct.c1, scale=ct.scale)
    for other, bad in ((make_basis(n=64, levels=2, dnum=3, bits=31), ct),
                       (make_basis(n=128, levels=2, dnum=3, bits=30), ct),
                       (make_basis(n=64, levels=1, dnum=2, bits=30), ct),
                       (basis, short)):
        with pytest.raises(LengthMismatch, match="does not hold"):
            ciphertext_to_bytes(bad, other)


@pytest.mark.parametrize("fault", ["residue", "domain"])
def test_ciphertext_to_bytes_refuses_a_limb_its_reader_refuses(fault):
    # such a limb was written, and ciphertext_from_bytes then refused the
    # image (a residue of q + 5, or a COEFF header where NTT is expected);
    # the writer now refuses it as every routine does
    basis = make_basis(n=64, levels=2, dnum=3, bits=30)
    small = CkksContext(basis)
    sk, _ = small.keygen(seed=3)
    ct = small.encrypt(small.encode(slots_vec(small), 2), sk, rng())
    limb = ct.c0.limbs[1]
    if fault == "residue":
        coeffs = np.array(limb.coeffs, dtype=np.uint64)
        coeffs[7] = limb.modulus.q + 5
        bad = Poly(coeffs, limb.modulus, limb.domain)
        error, match = ResidueOutOfRange, r"must lie in \[0, q\)"
    else:
        bad = intt_reference(limb)
        error, match = DomainError, "c0 limb 1 is in the COEFF domain, not NTT"
    limbs = list(ct.c0.limbs)
    limbs[1] = bad
    with pytest.raises(error, match=match):
        ciphertext_to_bytes(Ciphertext(RnsPoly(limbs), ct.c1, scale=ct.scale), basis)


def test_census_context_nesting(ctx, keyed):
    sk, keys = keyed
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), BASIS.l_max), sk, rng())
    with count_ops() as outer:
        ctx.rescale(ct)
        with count_ops() as inner:
            ctx.rescale(ct)
    want = opcount.rescale(BASIS.l_max)
    assert inner["INTT"] == want["INTT"] and inner["NTT"] == want["NTT"]
    assert outer["NTT"] == 2 * want["NTT"]


# ---------------------------------------------------------------------------
# A limb is one uint64 row: routine outputs hold read-only views, a copy holds
# its own writable row, and every routine checks what it reads


def test_routine_outputs_keep_their_rows(ctx, keyed):
    # encode -> encrypt -> mult -> relinearize -> rescale -> rotate -> decrypt:
    # every output limb holds a read-only row of its routine's result
    sk, keys = keyed
    a, b = slots_vec(ctx), slots_vec(ctx, "b")
    pts = [ctx.encode(v, BASIS.l_max) for v in (a, b)]
    cts = [ctx.encrypt(pt, sk, rng()) for pt in pts]
    d = ctx.mult(*cts)
    rl = ctx.relinearize(d, keys)
    rs = ctx.rescale(rl)
    rot = ctx.rotate(rs, 1, keys)
    m = ctx.decrypt(rot, sk)
    assert rel_err(ctx.decode(m, rot.scale), np.roll(a * b, -1)) < 1e-4
    limbs = _limbs(*pts, *cts, rl, rs, rot, m)
    # plaintexts, ciphertexts, relin, rescale, rotate, message
    assert len(limbs) == 2 * 5 + 2 * 10 + 10 + 8 + 8 + 4
    assert all(_frozen_row(p) for p in limbs)
    # mult's (d0, d1, d2) and the secret over the PQ_L bases are one stack each
    for x, shape in ((d.rows, (3, 5, ctx.n)), (sk.s, (len(ctx.all_bases()), ctx.n))):
        assert x.shape == shape and x.dtype == np.uint64 and not x.flags.writeable


def test_an_edited_copy_reaches_the_next_routine(ctx, keyed):
    sk, _ = keyed
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), BASIS.l_max), sk, rng())
    before = ctx.decrypt(ct, sk).limbs[0].coeffs.tolist()
    limb = ct.c0.limbs[0] = ct.c0.limbs[0].copy()
    q = limb.modulus.q
    limb.coeffs[7] = (limb.coeffs[7] + q // 2) % q
    after = ctx.decrypt(ct, sk).limbs[0].coeffs.tolist()
    assert after[7] == (before[7] + q // 2) % q
    assert after[:7] + after[8:] == before[:7] + before[8:]


def test_row_and_list_limbs_with_equal_residues_compare_equal(ctx, keyed):
    sk, _ = keyed
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), BASIS.l_max), sk, rng())
    row = ct.c1.limbs[2]
    lst = Poly(row.coeffs.tolist(), row.modulus, row.domain)
    assert _frozen_row(row) and lst.coeffs.flags.writeable
    assert row == lst and lst == row
    lst.coeffs[0] = (lst.coeffs[0] + 1) % row.modulus.q
    assert row != lst


def test_decode_refuses_limbs_of_mixed_domains(ctx):
    # decode picked INTT or not by limb 0 alone: limb 1 in COEFF decoded to
    # slot errors near 1e26.  decode takes NTT limbs like every routine, so
    # a plaintext of COEFF limbs, which it used to decode, is refused too
    pt = ctx.encode(slots_vec(ctx), 2)
    mixed = RnsPoly([pt.limbs[0], intt_reference(pt.limbs[1]), pt.limbs[2]], scale=pt.scale)
    coeff = RnsPoly([intt_reference(p) for p in pt.limbs], scale=pt.scale)
    for bad, limb in ((mixed, 1), (coeff, 0)):
        with pytest.raises(DomainError, match=f"pt limb {limb} is in the COEFF domain, not NTT"):
            ctx.decode(bad, pt.scale)


@pytest.mark.parametrize("routine", ["add", "mult", "decrypt", "rescale", "rotate",
                                     "relinearize", "moddown", "encrypt", "decode"])
def test_routines_refuse_limbs_that_do_not_match_the_level(ctx, keyed, routine):
    # a level-4 ciphertext holding 3 limbs per component used to fail with
    # a NumPy broadcast error, a misleading stack shape or a bare assert.
    # Now c0's limbs give the level, so a c1 shorter than c0 is what can
    # still contradict it; a plaintext's limbs give its level, so 3 of them
    # are a level-2 plaintext
    sk, keys = keyed
    level = BASIS.l_max
    v = slots_vec(ctx)
    pt = ctx.encode(v, level)
    ct = ctx.encrypt(pt, sk, rng())
    short = Ciphertext(ct.c0, RnsPoly(ct.c1.limbs[:3]), scale=ct.scale)
    c1 = intt_rows([p.coeffs for p in ct.c1.limbs], BASIS.q_list)
    ext = np.concatenate([[p.coeffs for p in ct.c0.limbs[:3]],
                          ctx.bconv_routine(c1, BASIS.q_list, BASIS.p_list)])
    if routine in ("encrypt", "decode"):
        three = RnsPoly(pt.limbs[:3], scale=pt.scale)
        assert three.level == 2 and three == ctx.encode(v, 2)
        # a plaintext with no limbs made decode fail on its domain with an
        # IndexError, then was refused as LengthMismatch; it is at level -1
        empty = RnsPoly([], scale=pt.scale)
        call = {"encrypt": lambda: ctx.encrypt(empty, sk, rng()),
                "decode": lambda: ctx.decode(empty, pt.scale)}[routine]
        with pytest.raises(LevelOutOfRange, match=rf"level must be in \[0, {level}\], got -1"):
            call()
        return
    call = {"add": lambda: ctx.add(ct, short), "mult": lambda: ctx.mult(short, ct),
            "decrypt": lambda: ctx.decrypt(short, sk), "rescale": lambda: ctx.rescale(short),
            "rotate": lambda: ctx.rotate(short, 1, keys),
            "relinearize": lambda: ctx.relinearize(ctx.mult(short, short), keys),
            "moddown": lambda: ctx.moddown(ext, level)}[routine]
    named = rf"holds [34] limbs, not the \d+ bases of level {level}"
    with pytest.raises(LengthMismatch, match=named):
        call()


@pytest.mark.parametrize("routine", ["add", "mult", "decrypt", "rescale", "rotate_perm",
                                     "rotate"])
def test_routines_refuse_limbs_shorter_than_n(ctx, keyed, routine):
    # limbs of N/2 residues used to fail with a NumPy broadcast or shape
    # error, a misleading stack shape, or pass rotate_perm unnoticed
    sk, keys = keyed
    level = BASIS.l_max
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), level), sk, rng())

    def halved(c):
        return RnsPoly([Poly(p.coeffs[: ctx.n // 2], p.modulus, p.domain) for p in c.limbs])

    # one short component, then both, whose stack still reshapes into rows of N
    for short, named in ((Ciphertext(ct.c0, halved(ct.c1), scale=ct.scale), "c1"),
                         (Ciphertext(halved(ct.c0), halved(ct.c1), scale=ct.scale), "c0")):
        call = {"add": lambda: ctx.add(ct, short), "mult": lambda: ctx.mult(ct, short),
                "decrypt": lambda: ctx.decrypt(short, sk),
                "rescale": lambda: ctx.rescale(short),
                "rotate_perm": lambda: ctx.rotate_perm(short, 1),
                "rotate": lambda: ctx.rotate(short, 1, keys)}[routine]
        with pytest.raises(LengthMismatch, match=rf"{named} limb 0 holds {ctx.n // 2} "
                                                 rf"residues, not N = {ctx.n}"):
            call()


def test_stacks_of_the_wrong_shape_are_refused(ctx, keyed):
    # rows of N/2 residues ran through moddown into a result of N/2 columns,
    # and a (d0, d1) stack would fail inside the key switch with an IndexError
    _, keys = keyed
    level = BASIS.l_max
    half = np.zeros((len(ctx.live_bases(level)), ctx.n // 2), dtype=np.uint64)
    pair = ExtCiphertext(np.zeros((2, level + 1, ctx.n), dtype=np.uint64), scale=ctx.delta)
    for call in (lambda: ctx.moddown(half, level),
                 lambda: ctx.bconv_routine(half[:1], BASIS.q_list[:1], BASIS.p_list),
                 lambda: ctx.keyswitch_full_dnum(pair, keys.relin)):
        with pytest.raises(LengthMismatch, match="N = 1024|not \\(3, rows, N\\)"):
            call()


BCONV_BASIS = make_basis(n=256, levels=4, dnum=2, bits=40, first_bits=45, p_bits=45)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bconv_slack_property(data):
    # over generated residues and disjoint source/target sets, fast conversion
    # returns y + k*P for the source product P and some 0 <= k < #sources
    ctx = CkksContext(BCONV_BASIS)
    bases = list(BCONV_BASIS.q_list + BCONV_BASIS.p_list)
    order = data.draw(st.permutations(range(len(bases))))
    s = data.draw(st.integers(1, len(bases) - 1))
    t = data.draw(st.integers(1, len(bases) - s))
    sources, targets = [bases[i] for i in order[:s]], [bases[i] for i in order[s:s + t]]
    q = np.array([m.q for m in sources], dtype=np.uint64)[:, None]
    x = data.draw(arrays(np.uint64, (s, ctx.n))) % q
    if data.draw(st.booleans()):
        x = q - 1 - x
    got = intt_rows(ctx.bconv_routine(x, sources, targets), targets)
    mods = [m.q for m in sources]
    p_prod = reduce(lambda u, v: u * v, mods)
    recon = [(p_prod // m) * pow(p_prod // m, -1, m) for m in mods]
    for i, (column, outs) in enumerate(zip(x.T.tolist(), got.T.tolist())):
        y = sum(c * r for c, r in zip(column, recon)) % p_prod
        assert any(all((y + k * p_prod) % m.q == o for m, o in zip(targets, outs))
                   for k in range(s)), i


def test_keygen_leaves_the_relin_key_expanded_and_rotation_keys_seeded():
    # The relin key keeps the keystream keygen drew for it, frozen, equal to
    # its re-expansion from the seeds; rotation keys expand on first use.
    ctx_k = CkksContext(BASIS3)
    _, keys = ctx_k.keygen(seed=31, rotations=(1, 5))
    bases = ctx_k.all_bases()
    for d in keys.relin.digits:
        assert not d._ksk1.flags.writeable
        assert np.array_equal(d._ksk1, ctx_k._expand_ksk1(d.ksk1_seeds, bases))
    assert all(d._ksk1 is None for key in keys.rotation.values() for d in key.digits)
    # the unseeded image needs no expansion first, and holds the same bytes
    image = ksk_to_bytes(keys.relin, seeded=False)
    for d in keys.relin.digits:
        d._ksk1 = None
    _expand_ksk1(ctx_k, keys.relin)
    assert ksk_to_bytes(keys.relin, seeded=False) == image
