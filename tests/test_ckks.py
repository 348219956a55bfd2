import hashlib
import math
import random
import struct
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fhesim import ckks, opcount
from fhesim.chipletsim import ChipletConfig, run_workload, schedule_moddown_ring
from fhesim.ckks import (Ciphertext, CkksContext, EncodeOverflow, ExtCiphertext,
                         KeySwitchKey, LevelExhausted, LevelMismatch, LevelOutOfRange,
                         MissingRotationKey, RnsPoly, ScaleMismatch, SlotOverflow,
                         _bconv_plan, _gadget, _rounded_residues, _submul,
                         ciphertext_from_bytes, ciphertext_to_bytes, count_ops, derive_seed,
                         ksk_from_bytes, ksk_to_bytes)
from fhesim.modarith import find_ntt_prime, make_basis
from fhesim.polykernel import (Domain, LengthMismatch, Poly, ResidueOutOfRange, _unstack,
                               _words, automorphism_ntt_rows, intt_reference, intt_rows,
                               ntt_reference, ntt_rows)
from fhesim.verify import _limbs, listed_copy, routine_outputs

BASIS = make_basis(n=1024, levels=4, dnum=5, bits=40, first_bits=45, p_bits=45)
BASIS3 = make_basis(n=1024, levels=4, dnum=2, bits=40, first_bits=45, p_bits=45)
# dnum does not divide L+1 = 5: K = 2 and digits of 2, 2 and 1 limbs
DNUM4 = make_basis(n=1024, levels=4, dnum=4, bits=40, first_bits=45, p_bits=45)


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
        encoded = intt_rows([_words(p) for p in pt.limbs], moduli)
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
            for domain, limbs in ((Domain.COEFF, rows), (Domain.NTT, ntt_rows(rows, moduli))):
                pt = RnsPoly(_unstack(limbs.copy(), moduli, domain), level, ctx.delta)
                assert np.array_equal(ctx.decode(pt, ctx.delta), want), (level, domain)


def test_encode_zero_vector_is_zero_polynomial(ctx):
    pt = ctx.encode(np.zeros(ctx.slots), level=1)
    assert all(c == 0 for limb in pt.limbs for c in limb.coeffs)


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
    sk, _ = keyed
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), BASIS.l_max), sk, rng())
    limb = ct.c0.limbs[1]
    limb.coeffs[3] = limb.modulus.q if residue == "q" else -1
    with pytest.raises(ResidueOutOfRange):
        ctx.add(ct, ct)
    with pytest.raises(ResidueOutOfRange):
        ctx.mult(ct, ct)
    with pytest.raises(ResidueOutOfRange):
        ctx.decrypt(ct, sk)


def test_mult_cross_term_symmetry_and_zero(ctx, keyed):
    sk, _ = keyed
    v = slots_vec(ctx)
    a = ctx.encrypt(ctx.encode(v, BASIS.l_max), sk, rng())
    b = ctx.encrypt(ctx.encode(slots_vec(ctx, "b"), BASIS.l_max), sk, rng())
    d_ab = ctx.mult(a, b)
    d_ba = ctx.mult(b, a)
    assert all(x.coeffs == y.coeffs for x, y in zip(d_ab.d1.limbs, d_ba.d1.limbs))
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


def test_generic_degenerates_bit_exactly(ctx, keyed):
    sk, keys = keyed
    a = ctx.encrypt(ctx.encode(slots_vec(ctx), BASIS.l_max), sk, rng())
    b = ctx.encrypt(ctx.encode(slots_vec(ctx, "b"), BASIS.l_max), sk, rng())
    d = ctx.mult(a, b)
    full = ctx.keyswitch_full_dnum(d, keys.relin)
    gen = ctx.keyswitch_generic(d, keys.relin)
    for fc, gc in ((full.c0, gen.c0), (full.c1, gen.c1)):
        for f, g in zip(fc.limbs, gc.limbs):
            assert f.coeffs == g.coeffs


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
    a, b = slots_vec(ctx4), slots_vec(ctx4, "b")
    ca = ctx4.encrypt(ctx4.encode(a, 4), sk, rng())
    cb = ctx4.encrypt(ctx4.encode(b, 4), sk, rng())
    out_ct = ctx4.rescale(ctx4.relinearize(ctx4.mult(ca, cb), keys))
    assert rel_err(ctx4.decode(ctx4.decrypt(out_ct, sk), out_ct.scale), a * b) < 1e-4


@pytest.mark.parametrize("basis", [BASIS, BASIS3, DNUM4], ids=["dnum5", "dnum2", "dnum4"])
def test_keygen_batch_equals_keys_built_one_at_a_time(basis):
    # keygen draws every key's a limbs in one batch; make_keyswitch_key builds
    # one key, so the same rng sequence must give the same keys one by one
    ctx_b = CkksContext(basis)
    seed, rotations = 77, (3, 1, 3)
    sk, keys = ctx_b.keygen(seed, rotations)
    gen = np.random.default_rng(seed)
    assert gen.integers(-1, 2, ctx_b.n).tolist() == sk.coeffs
    bases = tuple(ctx_b.all_bases())
    s = np.array([p.coeffs for p in sk.ntt_limbs], dtype=np.uint64)
    square = [Poly([v * v % m.q for v in row], m, Domain.NTT)
              for row, m in zip(s.tolist(), bases)]
    want = {"relin": ctx_b.make_keyswitch_key(sk, square, derive_seed(seed, 0xE), gen)}
    for rot in rotations:
        rotated = _unstack(automorphism_ntt_rows(s, pow(5, rot, 2 * ctx_b.n)), bases, Domain.NTT)
        want[rot] = ctx_b.make_keyswitch_key(sk, rotated, derive_seed(seed, 0xA, rot), gen)
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
        assert a.coeffs == b.coeffs


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
    return RnsPoly([Poly([int(v) for v in rs.integers(0, m.q, ctx.n)], m, Domain.NTT)
                    for m in ctx.live_bases(level)], level)


def _functional_census(op, ctx, sk, keys, level):
    """count_ops() around the functional routine of one simulator step."""
    a = ctx.encrypt(ctx.encode(slots_vec(ctx), level), sk, rng())
    b = ctx.encrypt(ctx.encode(slots_vec(ctx, "b"), level), sk, rng())
    d = ctx.mult(a, b) if op == "KEYSWITCH" else None
    ext = (_random_ext(ctx, level, 1), _random_ext(ctx, level, 2))
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
        elif op == "MODDOWN":
            ctx.moddown(ext[0])
        else:   # FUSED_RESCALE: ModDown both components, then rescale them
            down = [ctx.moddown(x) for x in ext]
            ctx.rescale(Ciphertext(down[0], down[1], level, ctx.delta))
    return census


@pytest.mark.parametrize("op, k", [
    *((op, k) for op in ("HADD", "HMULT", "RESCALE", "KEYSWITCH", "ROTATE")
      for k in (1, 3)),
    ("MODDOWN", 1), ("FUSED_RESCALE", 1),    # the ModDown flow models K = 1
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
    lowest = 1 if op in ("RESCALE", "FUSED_RESCALE") else 0
    for level in range(lowest, basis.l_max + 1):
        census = _functional_census(op, ctx, sk, keys, level)
        want = {kind: (2 if op == "MODDOWN" else 1) * n for kind, n in census.items()}
        if op == "FUSED_RESCALE":
            assert census == {kind: 2 * opcount.moddown(level, 1)[kind]
                              + opcount.rescale(level)[kind] for kind in census}
        for r in (1, 4):
            cfg = ChipletConfig(exact=True, r=r)
            if op == "FUSED_RESCALE":
                rep = schedule_moddown_ring(cfg, level, fused_rescale=True)
            else:
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


def test_identity_keyswitch_preserves_plaintext(ctx, keyed):
    # switching from s to s with a key for s itself
    sk, _ = keyed
    v = slots_vec(ctx)
    ct = ctx.encrypt(ctx.encode(v, BASIS.l_max), sk, rng())
    ident = ctx.make_keyswitch_key(sk, sk.ntt_limbs, derive_seed(9, 9),
                                   np.random.default_rng(5))
    zero = RnsPoly([Poly([0] * ctx.n, p.modulus, Domain.NTT)
                    for p in ct.c1.limbs], ct.level)
    d = ExtCiphertext(ct.c0, zero, ct.c1, ct.level, ct.scale)
    out_ct = ctx.keyswitch_full_dnum(d, ident)
    out = ctx.decode(ctx.decrypt(out_ct, sk), out_ct.scale)
    assert rel_err(out, v) < 1e-4


def test_keygen_verification_identity(ctx, keyed):
    # ksk0 + ksk1*s - gadget*s' must be the same small error in every base
    sk, keys = keyed
    key = keys.relin
    s2 = [Poly([a * a % p.modulus.q for a in p.coeffs], p.modulus, Domain.NTT)
          for p in sk.ntt_limbs]
    for j in (0, len(key.digits) - 1):
        gadget = _gadget(BASIS, j)[0][:, 0].tolist()
        err_polys = []
        for t, m in enumerate(ctx.all_bases()):
            a = ctx.ksk1_limb(key, j, t)
            q = m.q
            coeffs = [
                (k0 + av * sv - g * pv) % q
                for k0, av, sv, pv in zip(key.digits[j].ksk0[t].tolist(), a.coeffs,
                                          sk.ntt_limbs[t].coeffs, s2[t].coeffs)
                for g in (gadget[t],)
            ]
            e = intt_reference(Poly(coeffs, m, Domain.NTT))
            centered = [c if c <= q // 2 else c - q for c in e.coeffs]
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
    assert limb.coeffs == again.coeffs


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


def test_moddown_exact_on_divisible_input(ctx):
    level = BASIS.l_max
    live = ctx.live_bases(level)
    p_prod = BASIS.p_product
    vals = [v * p_prod for v in range(ctx.n)]
    limbs = [ntt_reference(Poly([v % m.q for v in vals], m, Domain.COEFF))
             for m in live]
    down = ctx.moddown(RnsPoly(limbs, level))
    out = intt_reference(down.limbs[0])
    q0 = BASIS.q_list[0].q
    assert out.coeffs == [v % q0 for v in range(ctx.n)]


def test_moddown_crt_oracle(ctx):
    level = BASIS.l_max
    live = ctx.live_bases(level)
    p_prod = BASIS.p_product
    rs = np.random.default_rng(3)
    vals = [int(x) for x in rs.integers(0, 1 << 62, ctx.n)]
    limbs = [ntt_reference(Poly([v % m.q for v in vals], m, Domain.COEFF))
             for m in live]
    down = ctx.moddown(RnsPoly(limbs, level))
    out = [intt_reference(p).coeffs for p in down.limbs]
    mods = [m.q for m in BASIS.q_list[: level + 1]]
    big_q = reduce(lambda a, b: a * b, mods)
    recon = [(big_q // m) * pow(big_q // m, -1, m) for m in mods]
    for i in range(0, ctx.n, 61):
        got = sum(out[t][i] * recon[t] for t in range(level + 1)) % big_q
        if got > big_q // 2:
            got -= big_q
        want = (vals[i] - vals[i] % p_prod) // p_prod
        assert abs(got - want) <= BASIS.k


def test_bconv_zero_and_exact_small(ctx):
    src = [BASIS.p_list[0]]
    targets = list(BASIS.q_list[:2])
    zero = [Poly([0] * ctx.n, src[0], Domain.COEFF)]
    out = [intt_reference(p) for p in ctx.bconv_routine(zero, targets)]
    assert all(c == 0 for p in out for c in p.coeffs)
    small = [Poly([i % 1000 for i in range(ctx.n)], src[0], Domain.COEFF)]
    out = [intt_reference(p) for p in ctx.bconv_routine(small, targets)]
    for p in out:
        assert p.coeffs == [i % 1000 % p.modulus.q for i in range(ctx.n)]


def test_bconv_slack_is_multiple_of_source_product(ctx3):
    # fast conversion P -> Q_l returns y + alpha*P with 0 <= alpha < K,
    # verified against a wide-integer CRT reconstruction
    rngl = random.Random(5)
    basis = BASIS3
    src = list(basis.p_list)
    p_prod = basis.p_product
    targets = list(basis.q_list)
    vals = [rngl.randrange(p_prod) for _ in range(ctx3.n)]
    limbs = [Poly([v % m.q for v in vals], m, Domain.COEFF) for m in src]
    out = [intt_reference(p) for p in ctx3.bconv_routine(limbs, targets)]
    mods = [m.q for m in targets]
    big_q = reduce(lambda a, b: a * b, mods)
    recon = [(big_q // m) * pow(big_q // m, -1, m) for m in mods]
    for i in range(0, ctx3.n, 113):
        got = sum(out[t].coeffs[i] * recon[t] for t in range(len(mods))) % big_q
        diff = got - vals[i]
        assert diff % p_prod == 0
        assert 0 <= diff // p_prod < basis.k


def test_bconv_cross_modulus_matches_wide_integers():
    # 45-bit residues into 40-bit targets and back: operands of the second
    # product exceed the target modulus, as the _mulmod_lazy bound allows.
    basis = make_basis(n=256, levels=3, dnum=2, bits=40, first_bits=45, p_bits=45)
    ctx = CkksContext(basis)
    rngl = random.Random(11)
    wide, narrow = [basis.q_list[0]] + list(basis.p_list), list(basis.q_list[1:])
    for sources, targets in ((wide, narrow), (narrow, wide)):
        limbs = [Poly([m.q - 1 - i % 3 if i < 8 else rngl.randrange(m.q)
                       for i in range(ctx.n)], m, Domain.COEFF) for m in sources]
        out = [intt_reference(p) for p in ctx.bconv_routine(limbs, targets)]
        mods = [m.q for m in sources]
        d = reduce(lambda a, b: a * b, mods)
        hat = [d // q for q in mods]
        for tm, got in zip(targets, out):
            want = [sum(p.coeffs[i] * pow(h, -1, q) % q * h
                        for p, h, q in zip(limbs, hat, mods)) % tm.q
                    for i in range(ctx.n)]
            assert got.coeffs == want


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


# SHA-256 of keys and ciphertexts made by the pure-int keystream and base
# conversion, before both were batched: the batched paths are byte-identical.
PINNED_SHA256 = {
    "relin": "e68cbb4a06ae5ed7271d79ae1e2c8413ec20f4fc4611be9c957d5049a3ef7d23",
    "rotation": "1e0ba453331b12f71ca2a9778fca3606d3e723b24485d853b2a6eab97477e18a",
    "rotated": "502e38728fcf2bf313e4920e2a8f1e8bec0a144fe3d69343de3402bc9f7ae046",
    "relinearized": "4a9f46f144227a67411ca40f80e019fce639fe90b4121a07c8fc6557a905f9a7",
}


def _pinned_objects():
    """The context, and by name the keys (ksk1 expanded) and the ciphertexts
    behind PINNED_SHA256."""
    basis = make_basis(n=256, levels=2, dnum=2, bits=40, first_bits=45, p_bits=45)
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


def _holds_row(p: Poly) -> bool:
    return isinstance(_words(p), np.ndarray)


def _expand_ksk1(ctx, key):
    for j in range(len(key.digits)):
        ctx.ksk1_limb(key, j, 0)


def _to_bytes(ctx, obj) -> bytes:
    if isinstance(obj, KeySwitchKey):
        return ksk_to_bytes(obj, seeded=False)
    return ciphertext_to_bytes(obj, ctx.n, ctx.basis.dnum)


def test_keys_and_ciphertexts_match_pinned_digests():
    ctx, objects = _pinned_objects()
    digest = {name: hashlib.sha256(_to_bytes(ctx, obj)).hexdigest()
              for name, obj in objects.items()}
    assert digest == PINNED_SHA256


def test_pinned_objects_round_trip_through_bytes():
    ctx, objects = _pinned_objects()
    for name, obj in objects.items():
        blob = _to_bytes(ctx, obj)
        read = ksk_from_bytes if isinstance(obj, KeySwitchKey) else ciphertext_from_bytes
        assert _to_bytes(ctx, read(blob, ctx.basis)) == blob, name
    # the seeded image of a key regenerates the same ksk1 halves
    for name in ("relin", "rotation"):
        key = ksk_from_bytes(ksk_to_bytes(objects[name], seeded=True), ctx.basis)
        assert all(d._ksk1 is None for d in key.digits)
        _expand_ksk1(ctx, key)
        assert hashlib.sha256(_to_bytes(ctx, key)).hexdigest() == PINNED_SHA256[name]


def test_ciphertext_from_bytes_gives_checked_row_backed_limbs(ctx, keyed):
    sk, _ = keyed
    for level in (0, BASIS.l_max):
        ct = ctx.encrypt(ctx.encode(slots_vec(ctx), level), sk, rng())
        blob = ciphertext_to_bytes(ct, ctx.n, BASIS.dnum)
        back = ciphertext_from_bytes(blob, BASIS)
        assert all(_holds_row(p) for p in _limbs(back))
        assert (back.level, back.scale) == (level, ct.scale)
        assert back == ct


def test_from_bytes_rejects_bad_buffers(ctx, keyed):
    sk, keys = keyed
    level, n = 2, ctx.n
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), level), sk, rng())
    blob = ciphertext_to_bytes(ct, n, BASIS.dnum)
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
    blob = ciphertext_to_bytes(ct, ctx.n, BASIS.dnum)
    # header + 2 components x 3 limbs x (9-byte poly header + residues)
    assert len(blob) == 20 + 2 * 3 * (9 + 8 * ctx.n)


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
# Limbs hold uint64 rows between routines; a read builds the Python-int list


def test_routine_outputs_keep_their_rows(ctx, keyed):
    # encode -> encrypt -> mult -> relinearize -> rescale -> rotate -> decrypt:
    # no routine reads a limb's list, so every output limb still holds its row
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
    limbs = _limbs(pts + cts + [d, rl, rs, rot, m])
    # plaintexts, ciphertexts, (d0, d1, d2), relin, rescale, rotate, message
    assert len(limbs) == 2 * 5 + 2 * 10 + 15 + 10 + 8 + 8 + 4
    assert all(_holds_row(p) and not _words(p).flags.writeable for p in limbs)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), level=st.integers(1, BASIS.l_max),
       generic=st.booleans())
def test_row_and_list_inputs_give_identical_outputs(ctx, keyed, ctx3, keyed3, seed, level,
                                                    generic):
    c, (sk, keys) = (ctx3, keyed3) if generic else (ctx, keyed)
    rs = np.random.default_rng(seed)
    a, b = (c.encrypt(c.encode(rs.uniform(-1, 1, c.slots), level), sk, rs) for _ in "ab")
    assert all(_holds_row(p) for p in _limbs([a, b]))
    assert not any(_holds_row(p) for p in _limbs(listed_copy([a, b])))
    assert routine_outputs(c, sk, keys, a, b) == routine_outputs(c, sk, keys, a, b,
                                                                 listed=True)


def test_read_coeffs_are_ints_and_an_edit_reaches_the_next_routine(ctx, keyed):
    sk, _ = keyed
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), BASIS.l_max), sk, rng())
    limb = ct.c0.limbs[0]
    q = limb.modulus.q
    before = ctx.decrypt(ct, sk).limbs[0].coeffs
    twin = limb.copy()
    coeffs = limb.coeffs
    assert type(coeffs) is list and all(type(v) is int for v in coeffs)
    assert limb.coeffs is coeffs and not _holds_row(limb) and _holds_row(twin)
    coeffs[7] = (coeffs[7] + q // 2) % q
    after = ctx.decrypt(ct, sk).limbs[0].coeffs
    assert after[7] == (before[7] + q // 2) % q
    assert after[:7] + after[8:] == before[:7] + before[8:]
    # a copy is independent of its source, row-backed or not
    assert twin.coeffs[7] == (coeffs[7] - q // 2) % q
    again = limb.copy()
    again.coeffs[0] = (coeffs[0] + 1) % q
    assert limb.coeffs[0] != again.coeffs[0] and limb.coeffs is coeffs


def test_row_and_list_limbs_with_equal_residues_compare_equal(ctx, keyed):
    sk, _ = keyed
    ct = ctx.encrypt(ctx.encode(slots_vec(ctx), BASIS.l_max), sk, rng())
    row = ct.c1.limbs[2]
    lst = Poly([int(v) for v in _words(row)], row.modulus, row.domain)
    assert _holds_row(row) and not _holds_row(lst)
    assert row == lst and lst == row
    lst.coeffs[0] = (lst.coeffs[0] + 1) % row.modulus.q
    assert row != lst


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
    out = ctx.bconv_routine(_unstack(x, sources, Domain.COEFF), targets)
    got = intt_rows([_words(p) for p in out], targets)
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
