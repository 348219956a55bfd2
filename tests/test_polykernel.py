import dataclasses
import functools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fhesim.modarith import (NoPrimeFound, PrimeModulus, TwiddleSource,
                             _find_primitive_root, bit_reverse, find_ntt_prime, is_prime,
                             make_basis)
from fhesim.polykernel import (_VV_OFFSET, Domain, DomainError, InvalidGalois,
                               LengthMismatch, MasOp, ModulusMismatch, NttPlan,
                               PlanMismatch, Poly, ResidueOutOfRange, _mulmod,
                               _mulmod_lazy, _mulmod_vv, _mulmod_vv_lazy,
                               _aut_ntt_map, _interphase_table, _omega_table,
                               _psi_powers, _psi_table_bitrev, _shoup_ratios,
                               _twiddle_arrays, _words, automorphism_ntt_rows,
                               automorphism_oracle, automorphism_shuffle, intt_oracle,
                               intt_reference, intt_rows, mas, mas_rows, modulus_columns,
                               ntt_hybrid, ntt_oracle, ntt_reference, ntt_rows,
                               poly_from_bytes, poly_to_bytes)
from fhesim.verify import schoolbook_negacyclic

RNG = random.Random(7)


def rand_poly(m, n):
    return Poly([RNG.randrange(m.q) for _ in range(n)], m, Domain.COEFF)


def test_ntt_delta_is_all_ones():
    m = find_ntt_prime(14, 64)
    p = Poly([1] + [0] * 31, m)
    out = ntt_reference(p)
    assert out.domain == Domain.NTT
    assert all(c == 1 for c in out.coeffs)


def test_intt_of_ones_is_delta_and_zero_is_zero():
    m = find_ntt_prime(14, 64)
    ones = Poly([1] * 32, m, Domain.NTT)
    assert intt_reference(ones).coeffs == [1] + [0] * 31
    zero = Poly([0] * 32, m, Domain.NTT)
    assert intt_reference(zero).coeffs == [0] * 32


def test_roundtrip_exact():
    m = find_ntt_prime(14, 2048)
    for _ in range(100):
        p = rand_poly(m, 1024)
        assert intt_reference(ntt_reference(p)).coeffs == p.coeffs


def test_domain_errors():
    m = find_ntt_prime(14, 64)
    p = rand_poly(m, 32)
    with pytest.raises(DomainError):
        intt_reference(p)
    with pytest.raises(DomainError):
        ntt_reference(ntt_reference(p))


def test_pointwise_product_equals_schoolbook():
    m = find_ntt_prime(7, 32)  # N=16, q=97
    for _ in range(20):
        a = rand_poly(m, 16)
        b = rand_poly(m, 16)
        prod = mas(MasOp.MUL, ntt_reference(a), ntt_reference(b))
        assert intt_reference(prod).coeffs == \
            schoolbook_negacyclic(a.coeffs, b.coeffs, m.q)


def test_pointwise_product_exhaustive_tiny():
    m = find_ntt_prime(5, 8)  # N=4, q=17
    n = 4
    for a0 in range(3):
        for b0 in range(3):
            a = Poly([a0, 1, 0, 2], m)
            b = Poly([b0, 0, 1, 1], m)
            prod = mas(MasOp.MUL, ntt_reference(a), ntt_reference(b))
            assert intt_reference(prod).coeffs == \
                schoolbook_negacyclic(a.coeffs, b.coeffs, m.q)


def test_hybrid_equals_reference_across_plans():
    for n, bits in ((256, 14), (1024, 14)):
        m = find_ntt_prime(bits, 2 * n)
        n2 = 1
        while n2 <= 64:
            plan = NttPlan(n // n2, n2)
            for _ in range(10):
                p = rand_poly(m, n)
                assert ntt_hybrid(p, plan).coeffs == ntt_reference(p).coeffs, \
                    f"plan {plan.n1}x{plan.n2}"
            n2 *= 2


def test_twiddle_tables_follow_the_root():
    m1 = find_ntt_prime(14, 64)
    m3 = PrimeModulus.create(m1.q, 64, pow(m1.psi, 3, m1.q))
    x = [0, 1] + [0] * 30
    for ntt in (ntt_reference, ntt_oracle):
        assert ntt(Poly(x, m1)).coeffs[0] == m1.psi
        assert ntt(Poly(x, m3)).coeffs[0] == m3.psi


def test_hybrid_degenerate_plan_is_reference():
    m = find_ntt_prime(14, 512)
    p = rand_poly(m, 256)
    assert ntt_hybrid(p, NttPlan(256, 1)).coeffs == ntt_reference(p).coeffs


def test_hybrid_delta_all_ones():
    m = find_ntt_prime(14, 2048)
    p = Poly([1] + [0] * 1023, m)
    assert all(c == 1 for c in ntt_hybrid(p, NttPlan(16, 64)).coeffs)


# every cached twiddle-table builder
TWIDDLE_TABLES = (_psi_powers, _psi_table_bitrev, _omega_table, _interphase_table,
                  _twiddle_arrays)


def test_twiddle_modes_agree_for_every_modulus_of_a_basis():
    # The on-the-fly generator equals the stored table at every exponent, in
    # order (its Barrett step) and out of order (square-and-multiply), and
    # every transform's table is the stored psi powers it should index.  The
    # tables start cold here.
    basis = make_basis(n=64, levels=3, dnum=2, bits=40, first_bits=45, p_bits=54)
    for m in basis.q_list + basis.p_list:
        for table in TWIDDLE_TABLES:
            table.cache_clear()
        otf = TwiddleSource(m)
        stored = otf.table()
        assert [otf.power(e) for e in range(m.two_n)] == stored, m.q
        assert [otf.power(e) for e in range(m.two_n - 1, -1, -3)] == \
            stored[::-1][::3], m.q
        assert stored == [pow(m.psi, e, m.q) for e in range(m.two_n)], m.q
        for size in (1, 2, 64):
            stride = m.n // size
            for inverse in (False, True):
                want = [stored[(-1 if inverse else 1) * stride * e % m.two_n]
                        for e in range(size)]
                perm = [bit_reverse(i, size.bit_length() - 1) for i in range(size)]
                assert _psi_table_bitrev(m, size, stride, inverse).tolist() == \
                    [want[i] for i in perm], (m.q, size)
        p = rand_poly(m, 64)
        assert ntt_hybrid(p, NttPlan(8, 8)).coeffs == ntt_oracle(p).coeffs


def test_cached_tables_are_read_only_arrays():
    # Every cached table is built once, held as a uint64 (or float64 ratio)
    # ndarray, and shared read-only by every caller: no Python-int copies.
    m = find_ntt_prime(40, 128)
    p = rand_poly(m, 64)
    assert ntt_hybrid(p, NttPlan(8, 8)).coeffs == ntt_oracle(p).coeffs
    assert intt_oracle(ntt_reference(p)).coeffs == p.coeffs
    calls = [(_psi_powers, (m,)), (_psi_table_bitrev, (m, 64, 1, False)),
             (_psi_table_bitrev, (m, 64, 1, True)), (_omega_table, (m, 8, 16)),
             (_interphase_table, (m, NttPlan(8, 8), 1)),
             (_twiddle_arrays, (m, 64, False)), (_twiddle_arrays, (m, 64, True)),
             (modulus_columns, ((m,),)), (_aut_ntt_map, (64, 5))]
    assert {fn for fn, _ in calls} >= set(TWIDDLE_TABLES)
    for fn, args in calls:
        got = fn(*args)
        assert fn(*args) is got, fn.__name__
        for table in got if isinstance(got, tuple) else (got,):
            assert isinstance(table, np.ndarray), fn.__name__
            assert table.dtype in (np.uint64, np.int64, np.float64), fn.__name__
            assert not table.flags.writeable, fn.__name__
            with pytest.raises(ValueError):
                table[0] = 0
    # the forward production table is the oracle table itself, not a copy
    assert _twiddle_arrays(m, 64, False)[0] is _psi_table_bitrev(m, 64, 1, False)


def test_plan_mismatch():
    m = find_ntt_prime(14, 512)
    p = rand_poly(m, 256)
    with pytest.raises(PlanMismatch):
        ntt_hybrid(p, NttPlan(16, 64))
    with pytest.raises(PlanMismatch):
        NttPlan(3, 5)


# ---------------------------------------------------------------------------
# automorphism


def test_automorphism_identity():
    m = find_ntt_prime(14, 512)
    p = rand_poly(m, 256)
    assert automorphism_oracle(p, 1).coeffs == p.coeffs
    assert automorphism_shuffle(p, 1, NttPlan(16, 16)).coeffs == p.coeffs


def test_automorphism_hand_cases_n8():
    m = find_ntt_prime(7, 16)  # N=8
    x1 = Poly([0, 1, 0, 0, 0, 0, 0, 0], m)
    out = automorphism_oracle(x1, 3)
    assert out.coeffs == [0, 0, 0, 1, 0, 0, 0, 0]          # x -> x^3
    x3 = Poly([0, 0, 0, 1, 0, 0, 0, 0], m)
    out = automorphism_oracle(x3, 3)
    assert out.coeffs == [0, m.q - 1, 0, 0, 0, 0, 0, 0]    # x^3 -> -x^1


def test_shuffle_matches_oracle_exhaustive_small():
    n = 64
    m = find_ntt_prime(14, 2 * n)
    for plan in (NttPlan(8, 8), NttPlan(4, 16), NttPlan(64, 1)):
        for gle in range(1, 2 * n, 2):
            p = rand_poly(m, n)
            assert automorphism_shuffle(p, gle, plan).coeffs == \
                automorphism_oracle(p, gle).coeffs


def test_shuffle_matches_oracle_power_of_five():
    n = 1024
    m = find_ntt_prime(14, 2 * n)
    plan = NttPlan(64, 16)
    for rot in (1, 7, n // 4):
        gle = pow(5, rot, 2 * n)
        p = rand_poly(m, n)
        assert automorphism_shuffle(p, gle, plan).coeffs == \
            automorphism_oracle(p, gle).coeffs


def test_automorphism_composition_law():
    n = 256
    m = find_ntt_prime(14, 2 * n)
    for _ in range(20):
        g1 = RNG.randrange(1, 2 * n) | 1
        g2 = RNG.randrange(1, 2 * n) | 1
        p = rand_poly(m, n)
        lhs = automorphism_oracle(automorphism_oracle(p, g2), g1)
        rhs = automorphism_oracle(p, g1 * g2 % (2 * n))
        assert lhs.coeffs == rhs.coeffs


@settings(max_examples=100, deadline=None)
@given(logn=st.integers(0, 12), data=st.data())
def test_ntt_domain_automorphism_group_law(logn, data):
    # gather(g1) . gather(g2) == gather(g1*g2 mod 2N), and gather(g^-1)
    # undoes gather(g): the maps form the group (Z/2N)^*
    n = 1 << logn
    odd = st.integers(0, n - 1).map(lambda k: 2 * k + 1)
    g1, g2 = data.draw(odd), data.draw(odd)
    x = np.arange(3 * n, dtype=np.uint64).reshape(3, n)
    both = automorphism_ntt_rows(automorphism_ntt_rows(x, g2), g1)
    assert (both == automorphism_ntt_rows(x, g1 * g2 % (2 * n))).all()
    back = automorphism_ntt_rows(automorphism_ntt_rows(x, g1), pow(g1, -1, 2 * n))
    assert (back == x).all()


def test_automorphism_is_signed_permutation():
    n = 128
    m = find_ntt_prime(14, 2 * n)
    p = rand_poly(m, n)
    for gle in (3, 5, 2 * n - 1):
        out = automorphism_oracle(p, gle)
        mags = sorted(min(c, m.q - c) for c in p.coeffs)
        assert sorted(min(c, m.q - c) for c in out.coeffs) == mags


def test_destination_address_property():
    # all N2 lanes of a row land at one common address
    n = 256
    n1, n2 = 16, 16
    for gle in range(1, 2 * n, 17):
        if gle % 2 == 0:
            continue
        for l0 in range(n1):
            dests = {(l0 + j * n1) * gle % (2 * n) % n % n1 for j in range(n2)}
            assert len(dests) == 1


def test_invalid_galois():
    m = find_ntt_prime(14, 512)
    p = rand_poly(m, 256)
    with pytest.raises(InvalidGalois):
        automorphism_oracle(p, 2)
    with pytest.raises(InvalidGalois):
        automorphism_shuffle(p, 512, NttPlan(16, 16))
    with pytest.raises(InvalidGalois):
        automorphism_ntt_rows(np.zeros((1, 256), dtype=np.uint64), 2)


# ---------------------------------------------------------------------------
# MAS


def test_mas_identities():
    m = find_ntt_prime(14, 512)
    a = rand_poly(m, 256)
    zero = Poly([0] * 256, m)
    ones = Poly([1] * 256, m)
    assert mas(MasOp.ADD, a, zero).coeffs == a.coeffs
    assert mas(MasOp.MUL, a, ones).coeffs == a.coeffs
    assert mas(MasOp.SUB, a, a).coeffs == [0] * 256


def test_mac_chain_equals_mul_add_fold():
    m = find_ntt_prime(14, 512)
    acc = Poly([0] * 256, m)
    expect = [0] * 256
    for _ in range(3):
        a = rand_poly(m, 256)
        b = rand_poly(m, 256)
        acc = mas(MasOp.MAC, a, b, acc)
        expect = [(e + x * y) % m.q for e, x, y in zip(expect, a.coeffs, b.coeffs)]
    assert acc.coeffs == expect


def test_mas_mismatches():
    m1 = find_ntt_prime(14, 512)
    m2 = find_ntt_prime(15, 512)
    a = rand_poly(m1, 256)
    b = rand_poly(m2, 256)
    with pytest.raises(ModulusMismatch):
        mas(MasOp.ADD, a, b)
    c = rand_poly(m1, 256)
    c.domain = Domain.NTT
    from fhesim.polykernel import DomainMismatch
    with pytest.raises(DomainMismatch):
        mas(MasOp.ADD, a, c)


def test_row_backed_poly_keeps_the_dataclass_shape():
    m = find_ntt_prime(14, 512)
    f = ntt_reference(rand_poly(m, 256))
    row = _words(f)
    assert isinstance(row, np.ndarray) and not row.flags.writeable
    assert dataclasses.fields(Poly)[0].default is dataclasses.MISSING
    with pytest.raises(TypeError):
        Poly(modulus=m)
    # length, copies, a one-row kernel and serialization build no list
    twin = f.copy()
    assert f.n == 256 and _words(twin) is row
    mas(MasOp.ADD, f, twin)
    back, _ = poly_from_bytes(poly_to_bytes(f, 0), m)
    assert all(isinstance(_words(p), np.ndarray) for p in (f, twin, back))
    listed = Poly(row.tolist(), m, Domain.NTT)
    assert repr(twin) == repr(listed) and back == listed
    assert dataclasses.replace(f, domain=Domain.COEFF) == Poly(row.tolist(), m)
    # a writeable array could change under the limb: it is read at once
    assert isinstance(_words(Poly(np.array(row), m)), list)


def test_poly_serialization_roundtrip():
    m = find_ntt_prime(14, 512)
    p = rand_poly(m, 256)
    blob = poly_to_bytes(p, modulus_id=3)
    back, mid = poly_from_bytes(blob, m)
    assert mid == 3
    assert back.coeffs == p.coeffs
    assert back.domain == p.domain
    assert len(blob) == 9 + 8 * 256  # header + 8-byte residues


# ---------------------------------------------------------------------------
# uint64 kernel vs pure-int oracle


@functools.lru_cache(maxsize=None)
def largest_ntt_prime(bits, two_n):
    """The largest prime below 2^bits with q == 1 (mod two_n)."""
    q = (1 << bits) - two_n + 1
    while not is_prime(q):
        q -= two_n
    return PrimeModulus.create(q, two_n, _find_primitive_root(q, two_n))


def smallest_ntt_prime(min_bits, two_n):
    for bits in range(min_bits, 55):
        try:
            return find_ntt_prime(bits, two_n)
        except NoPrimeFound:
            continue
    raise NoPrimeFound(two_n)


def kernel_primes(n):
    """q=97, the smallest prime of 14+ bits, 40, 45 and the largest 54-bit ones."""
    two_n = 2 * n
    primes = []
    if 96 % two_n == 0:
        primes.append(PrimeModulus.create(97, two_n, _find_primitive_root(97, two_n)))
    primes.append(smallest_ntt_prime(14, two_n))
    primes += [find_ntt_prime(40, two_n), find_ntt_prime(45, two_n)]
    primes += [largest_ntt_prime(54, two_n)]
    return primes


def kernel_inputs(m, n):
    return {"zeros": [0] * n, "delta": [1] + [0] * (n - 1), "q-1": [m.q - 1] * n,
            "random": [RNG.randrange(m.q) for _ in range(n)]}


@pytest.mark.parametrize("logn", range(1, 13))
def test_kernel_equals_oracle_every_size(logn):
    n = 1 << logn
    for m in kernel_primes(n):
        for label, coeffs in kernel_inputs(m, n).items():
            case = f"N={n} q={m.q} {label}"
            p = Poly(coeffs, m, Domain.COEFF)
            assert ntt_reference(p).coeffs == ntt_oracle(p).coeffs, case
            p = Poly(coeffs, m, Domain.NTT)
            assert intt_reference(p).coeffs == intt_oracle(p).coeffs, case


def test_kernel_equals_oracle_n65536():
    n = 1 << 16
    m = largest_ntt_prime(54, 2 * n)
    p = rand_poly(m, n)
    out = ntt_reference(p)
    assert out.coeffs == ntt_oracle(p).coeffs
    assert intt_reference(out).coeffs == intt_oracle(out).coeffs == p.coeffs


def test_lazy_product_remainder_bound():
    # _mulmod_lazy's docstring proves a*w - qhat*q + 3q in [0, 7q); operands
    # near q-1 and around 2^53 stress the float rounding most at 54 bits.
    for two_n in (8, 1 << 11, 1 << 17):
        m = largest_ntt_prime(54, two_n)
        q = m.q
        ops = ([q - 1 - i for i in range(64)] + [(1 << 53) + d for d in range(-2, 3)]
               + [RNG.randrange(q) for _ in range(64)])
        a = np.array(ops, dtype=np.uint64)[:, None]
        w = np.array(ops, dtype=np.uint64)[None, :]
        lazy = _mulmod_lazy(a, w, _shoup_ratios(ops, q)[None, :], np.uint64(q))
        exact = [[x * y % q for y in ops] for x in ops]
        assert int(lazy.max()) < 7 * q
        assert (lazy % np.uint64(q)).tolist() == exact
        assert _mulmod(a, w, _shoup_ratios(ops, q)[None, :], np.uint64(q)).tolist() == exact


def test_lazy_product_bound_for_cross_modulus_operands():
    # Base conversion multiplies residues of one modulus by constants of
    # another: a < 2^54 but not below q.  The bound is still [0, 7q).
    a_ops = ([(1 << 54) - 1 - i for i in range(32)]
             + [(1 << 53) + d for d in range(-2, 3)]
             + [RNG.randrange(1 << 53, 1 << 54) for _ in range(200)])
    a = np.array(a_ops, dtype=np.uint64)[:, None]
    for bits in (20, 30, 40, 45, 53, 54):
        for skip in (0, 3):
            q = find_ntt_prime(bits, 64, skip).q
            w_ops = [q - 1, q - 2, 1, 0] + [RNG.randrange(q) for _ in range(28)]
            w = np.array(w_ops, dtype=np.uint64)[None, :]
            ratio = _shoup_ratios(w_ops, q)[None, :]
            lazy = _mulmod_lazy(a, w, ratio, np.uint64(q))
            exact = [[x * y % q for y in w_ops] for x in a_ops]
            assert int(lazy.max()) < 7 * q, f"{bits}-bit q"
            assert (lazy % np.uint64(q)).tolist() == exact
            assert _mulmod(a, w, ratio, np.uint64(q)).tolist() == exact


@settings(max_examples=60, deadline=None)
@given(logn=st.integers(1, 6), bits=st.integers(10, 54), skip=st.integers(0, 3),
       data=st.data())
def test_kernel_properties_random_rings(logn, bits, skip, data):
    n = 1 << logn
    try:
        m = find_ntt_prime(bits, 2 * n, skip)
    except NoPrimeFound:
        assume(False)
    residues = st.lists(st.integers(0, m.q - 1), min_size=n, max_size=n)
    a = Poly(data.draw(residues), m)
    b = Poly(data.draw(residues), m)
    assert intt_reference(ntt_reference(a)).coeffs == a.coeffs
    total = ntt_reference(mas(MasOp.ADD, a, b))
    assert total.coeffs == mas(MasOp.ADD, ntt_reference(a), ntt_reference(b)).coeffs
    prod = mas(MasOp.MUL, ntt_reference(a), ntt_reference(b))
    assert intt_reference(prod).coeffs == schoolbook_negacyclic(a.coeffs, b.coeffs, m.q)


@pytest.mark.parametrize("bad", [-1, "q", 1 << 64])
def test_kernel_rejects_residues_outside_range(bad):
    m = find_ntt_prime(14, 64)
    coeffs = [1] * 32
    coeffs[5] = m.q if bad == "q" else bad
    with pytest.raises(ResidueOutOfRange):
        ntt_reference(Poly(coeffs, m, Domain.COEFF))
    with pytest.raises(ResidueOutOfRange):
        intt_reference(Poly(coeffs, m, Domain.NTT))


def test_mas_rejects_length_mismatch():
    m = find_ntt_prime(14, 512)
    a = rand_poly(m, 256)
    short = rand_poly(m, 255)
    with pytest.raises(LengthMismatch):
        mas(MasOp.ADD, a, short)
    with pytest.raises(LengthMismatch):
        mas(MasOp.MAC, a, a, short)


def test_poly_from_bytes_checks_length():
    m = find_ntt_prime(14, 512)
    blob = poly_to_bytes(rand_poly(m, 256), modulus_id=0)
    for bad in (blob[:5], blob[:-1], blob + b"\0"):
        with pytest.raises(LengthMismatch):
            poly_from_bytes(bad, m)


# ---------------------------------------------------------------------------
# rows kernels and the two-operand product


def _prime_near(x, bits):
    """The first prime at or above x inside the bit length, else below it."""
    q = x | 1
    while q < 1 << bits and not is_prime(q):
        q += 2
    if q >= 1 << bits:
        q = x - 1 | 1
        while not is_prime(q):
            q -= 2
    return q


@st.composite
def primes_14_to_54(draw):
    bits = draw(st.integers(14, 54))
    where = draw(st.sampled_from(["low", "high", "any"]))
    x = {"low": 1 << (bits - 1), "high": (1 << bits) - 2,
         "any": draw(st.integers(1 << (bits - 1), (1 << bits) - 1))}[where]
    return _prime_near(x, bits)


@settings(max_examples=200, deadline=None)
@given(q=primes_14_to_54(), data=st.data())
def test_two_operand_product_property(q, data):
    residue = st.one_of(st.integers(0, q - 1), st.sampled_from([0, 1, q - 2, q - 1]))
    length = data.draw(st.integers(1, 16))
    a, b, c = (data.draw(st.lists(residue, min_size=length, max_size=length))
               for _ in range(3))
    qa, qinv = np.array([[q]], dtype=np.uint64), np.array([[1 / q]])
    x, y, z = (np.array([v], dtype=np.uint64) for v in (a, b, c))
    assert _mulmod_vv(x, y, qa, qinv)[0].tolist() == [u * v % q for u, v in zip(a, b)]
    assert _mulmod_vv(x, y, qa, qinv, z)[0].tolist() == \
        [(w + u * v) % q for u, v, w in zip(a, b, c)]


def test_two_operand_quotient_error_extremes():
    # _mulmod_vv_lazy's docstring proves floor(a*b/q) - qhat in [-9, 9].  The
    # extremes observed on these fixed operands (q-1 edges, operands around
    # 2^53, 2000 random residues) are pinned per width: the float estimate
    # only strays once operands pass 2^53.
    rng = random.Random(1)
    observed = {}
    for bits in (14, 40, 45, 53, 54):
        q = largest_ntt_prime(bits, 8).q
        ops = [q - 1 - i for i in range(64)] + [rng.randrange(q) for _ in range(2000)]
        ops += [(1 << 53) + d for d in range(-2, 3) if (1 << 53) + d < q]
        a = np.array(ops, dtype=np.uint64)[:, None]
        b = np.array(ops, dtype=np.uint64)[None, :]
        lazy = _mulmod_vv_lazy(a, b, np.uint64(q), np.float64(1 / q))
        assert int(lazy.max()) < (2 * _VV_OFFSET + 1) * q
        exact = np.array([[x * y % q for y in ops] for x in ops], dtype=np.uint64)
        k = (lazy - exact) // np.uint64(q)
        assert ((lazy - exact) % np.uint64(q) == 0).all()
        observed[bits] = (int(k.min()) - _VV_OFFSET, int(k.max()) - _VV_OFFSET)
        assert -9 <= observed[bits][0] <= observed[bits][1] <= 9
    assert observed == {14: (0, 0), 40: (-1, 0), 45: (-1, 1), 53: (-2, 0), 54: (-5, 2)}


def mixed_stack(n):
    """kernel_primes(n) as one stack: q=97 where it exists, 14-, 40-, 45-bit
    and the largest 54-bit primes, each row with its own modulus."""
    return tuple(kernel_primes(n))


def stack_inputs(moduli, n):
    """A (2, rows, N) stack: random rows, then zeros, delta and q-1 by turns."""
    edges = [[0] * n, [1] + [0] * (n - 1), None]
    rand = [[RNG.randrange(m.q) for _ in range(n)] for m in moduli]
    edge = [edges[r % 3] or [m.q - 1] * n for r, m in enumerate(moduli)]
    return [rand, edge]


@pytest.mark.parametrize("logn", range(1, 13))
def test_rows_kernels_equal_oracles_on_mixed_stacks(logn):
    n = 1 << logn
    moduli = mixed_stack(n)
    batch = stack_inputs(moduli, n)
    x = np.array(batch, dtype=np.uint64)
    fwd = ntt_rows(x, moduli)
    inv = intt_rows(x, moduli)
    for rows, f_rows, i_rows in zip(batch, fwd.tolist(), inv.tolist()):
        for coeffs, m, f, i in zip(rows, moduli, f_rows, i_rows):
            assert f == ntt_oracle(Poly(coeffs, m)).coeffs, (n, m.q)
            assert i == intt_oracle(Poly(coeffs, m, Domain.NTT)).coeffs, (n, m.q)
    for gle in {1, 2 * n - 1, pow(5, 3, 2 * n), RNG.randrange(1, 2 * n) | 1}:
        want = ntt_rows([[automorphism_oracle(Poly(coeffs, m), gle).coeffs
                          for coeffs, m in zip(rows, moduli)] for rows in batch], moduli)
        assert (automorphism_ntt_rows(fwd, gle) == want).all(), (n, gle)
    y = x[::-1]
    for op, want in ((MasOp.ADD, lambda a, b, q: (a + b) % q),
                     (MasOp.SUB, lambda a, b, q: (a - b) % q),
                     (MasOp.MUL, lambda a, b, q: a * b % q),
                     (MasOp.MAC, lambda a, b, q: (b + a * b) % q)):
        got = mas_rows(op, x, y, moduli, y if op == MasOp.MAC else None).tolist()
        for xr, yr, gr in zip(x.tolist(), y.tolist(), got):
            for a_row, b_row, g_row, m in zip(xr, yr, gr, moduli):
                assert g_row == [want(a, b, m.q) for a, b in zip(a_row, b_row)], op


def test_rows_kernels_reject_residues_outside_their_row():
    moduli = mixed_stack(16)
    x = np.zeros((len(moduli), 16), dtype=np.uint64)
    x[0, 3] = moduli[0].q            # in range for every other row, not row 0
    with pytest.raises(ResidueOutOfRange):
        ntt_rows(x, moduli)
    with pytest.raises(ResidueOutOfRange):
        intt_rows(x, moduli)
    with pytest.raises(LengthMismatch):
        ntt_rows(x[0], moduli[:1])           # one limb needs a (1, N) stack
    with pytest.raises(LengthMismatch):
        intt_rows(x[1:], moduli)             # one modulus per row


def test_modulus_columns_hold_correctly_rounded_inverses():
    moduli = mixed_stack(16)
    q, qinv = modulus_columns(moduli)
    assert q[:, 0].tolist() == [m.q for m in moduli]
    assert qinv[:, 0].tolist() == [1 / m.q for m in moduli]
