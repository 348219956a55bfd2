import dataclasses
import functools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fhesim import polykernel
from fhesim.modarith import (NoPrimeFound, PrimeModulus, TwiddleSource,
                             _find_primitive_root, bit_reverse, find_ntt_prime, is_prime,
                             make_basis)
from fhesim.polykernel import (_VV_OFFSET, Domain, DomainError, InvalidGalois,
                               LengthMismatch, MasOp, ModulusMismatch, NttPlan,
                               PlanMismatch, Poly, ResidueOutOfRange, _lazy_schedule,
                               _mulmod, _mulmod_lazy, _mulmod_signed, _mulmod_vv,
                               _mulmod_vv_lazy, _aut_ntt_map, _stage_twiddles,
                               _psi_powers, _reduce_signed,
                               _psi_table_bitrev, _shoup_ratios,
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
    # 54 bits is the edge of _mulmod's bound, which the hybrid's twiddle pass
    # reaches; N=4096 is a larger ring than the verify suites use.
    for n, bits, reps in ((256, 14, 10), (1024, 14, 10), (1024, 54, 3), (4096, 18, 2)):
        m = find_ntt_prime(bits, 2 * n)
        n2 = 1
        while n2 <= 64:
            plan = NttPlan(n // n2, n2)
            for _ in range(reps):
                p = rand_poly(m, n)
                assert ntt_hybrid(p, plan).coeffs == ntt_reference(p).coeffs \
                    == ntt_oracle(p).coeffs, f"plan {plan.n1}x{plan.n2}"
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
TWIDDLE_TABLES = (_psi_powers, _psi_table_bitrev, _twiddle_arrays, _stage_twiddles)


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
             (_psi_table_bitrev, (m, 64, 1, True)),
             (_twiddle_arrays, (m, 64, False)), (_twiddle_arrays, (m, 64, True)),
             (_stage_twiddles, ((m,), 64, False, 8)), (_stage_twiddles, ((m,), 64, True, 8)),
             (modulus_columns, ((m,),)), (_aut_ntt_map, (64, 5))]
    assert {fn for fn, _ in calls} >= set(TWIDDLE_TABLES)
    for fn, args in calls:
        got = fn(*args)
        assert fn(*args) is got, fn.__name__
        if fn is _stage_twiddles:  # (blocks, twiddles, ratios) per stage
            got = tuple(a for _, *pair in got for a in pair)
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
            "alternating 0/q-1": [0, m.q - 1] * (n // 2),
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


def lazy_walk(schedule, q, inverse):
    """The bound on |x| that the closing reduction of a lazy transform over q
    leaves, walked through the schedule with the proven (real) bounds of
    _mulmod_signed and _reduce_signed.  Every value must stay at or below
    2^62, where the float quotients cast exactly, so every sum and product
    is also below 2^63, where the int64 arithmetic is exact."""
    u = Fraction(1, 1 << 53)
    b = Fraction(q)
    for i, reduce in enumerate(schedule):
        if reduce:
            b = q + Fraction(301, 100) * u * b
        a = 2 * b if inverse else b                  # the quotient's operand
        assert a <= 1 << 62, (q, i)
        p = q * (1 + Fraction(5, 2) * u * a)
        b = (p if i == len(schedule) - 1 else max(a, p)) if inverse else b + p
        assert b <= 1 << 62, (q, i)
    return q + Fraction(301, 100) * u * b


def test_lazy_schedule_keeps_every_bound():
    # Every modulus size and ring size the word allows, in both directions:
    # the schedule is drawn from q = 2^bits - 1, which bounds every modulus
    # of that size.  A row over a smaller modulus of the same call takes the
    # same schedule, so the closing reduction's |x| < 2q is checked for the
    # smallest modulus of the ring and one just past 2^11 too.
    for bits in range(10, 55):
        q = (1 << bits) - 1
        for logn in range(1, 18):
            n = 1 << logn
            for inverse in (False, True):
                schedule = _lazy_schedule(q, n, inverse)
                assert len(schedule) == logn
                for row_q in {q, 2 * n + 1, max(2 * n + 1, (1 << 11) + 1)}:
                    if row_q <= q:
                        assert lazy_walk(schedule, row_q, inverse) <= 2 * row_q, \
                            (bits, logn, inverse, row_q)
    # At the benchmark's moduli and ring, no stage reduces; at 54 bits some do.
    for bits in (40, 45):
        assert not any(_lazy_schedule(find_ntt_prime(bits, 2048).q, 1024, False))
        assert not any(_lazy_schedule(find_ntt_prime(bits, 2048).q, 1024, True))
    assert any(_lazy_schedule(largest_ntt_prime(54, 2048).q, 1024, False))


def test_signed_product_and_reduction_at_extreme_operands():
    # _mulmod_signed's docstring bounds |a*w - qhat*q| by q*(1 + 2.5*|a|*2^-53),
    # _reduce_signed's |x - qhat*q| by q + 3.01*|x|*2^-53.  Operands, of both
    # signs: runs of q-1, 2^53 +- 2, alternating 0/q-1, random ones, and the
    # largest whose product bound stays below 2^63 (at most 2^62).
    rng = random.Random(5)
    for bits in (14, 40, 45, 53, 54):
        q = largest_ntt_prime(bits, 8).q
        top = min(1 << 62, ((1 << 63) // q - 1) * (1 << 54) // 5)
        ops = ([q - 1 - i for i in range(16)] + [(1 << 53) + d for d in range(-2, 3)]
               + [0, q - 1] * 8 + [top - i for i in range(8)]
               + [rng.randrange(top) for _ in range(64)])
        ops += [-a for a in ops]
        ws = [q - 1, q - 2, 1, 0] + [rng.randrange(q) for _ in range(28)]
        got = _mulmod_signed(np.array(ops, dtype=np.int64)[:, None],
                             np.array(ws, dtype=np.int64)[None, :],
                             _shoup_ratios(ws, q)[None, :], np.int64(q))
        for a, row in zip(ops, got.tolist()):
            for w, v in zip(ws, row):
                assert (v - a * w) % q == 0, (bits, a, w)
                assert abs(v) << 54 < q * ((1 << 54) + 5 * abs(a)), (bits, a, w)
        x = np.array(ops, dtype=np.int64)
        _reduce_signed(x, np.int64(q), np.float64(1 / q))
        for a, r in zip(ops, x.tolist()):
            assert (r - a) % q == 0, (bits, a)
            assert 100 * abs(r) << 53 < (100 * q << 53) + 301 * abs(a), (bits, a)


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
    with pytest.raises(ResidueOutOfRange):
        ntt_hybrid(Poly(coeffs, m, Domain.COEFF), NttPlan(4, 8))


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


def test_rows_kernels_pass_an_empty_stack_through():
    for x in (np.zeros((0, 8), np.uint64), np.zeros((3, 0, 8), np.uint64)):
        for kernel in (ntt_rows, intt_rows):
            out = kernel(x, ())
            assert out.shape == x.shape and out.dtype == np.uint64


def test_modulus_columns_hold_correctly_rounded_inverses():
    moduli = mixed_stack(16)
    q, qinv = modulus_columns(moduli)
    assert q[:, 0].tolist() == [m.q for m in moduli]
    assert qinv[:, 0].tolist() == [1 / m.q for m in moduli]


@pytest.mark.parametrize("bad", [
    [[1.5] * 16], np.full((1, 16), 2.7), np.full((1, 16), 2, dtype=np.float32),
    [[True] * 16], np.ones((1, 16), dtype=bool), np.ones((1, 16), dtype=np.complex128),
    [np.zeros(16, dtype=np.uint64), [0.5] * 16]],
    ids=["float-list", "float64-array", "float32-array", "bool-list", "bool-array",
         "complex-array", "row-beside-float-list"])
def test_rows_kernels_refuse_non_integer_input(bad):
    # a cast to uint64 would read 1.5 as 1, 2.7 as 2 and True as 1
    m = find_ntt_prime(40, 32)
    moduli = (m,) * len(bad)
    dtype = str(np.asarray(bad[-1]).dtype)
    for kernel in (ntt_rows, intt_rows):
        with pytest.raises(ResidueOutOfRange, match=f"dtype {dtype}"):
            kernel(bad, moduli)
    with pytest.raises(ResidueOutOfRange, match=f"dtype {dtype}"):
        mas(MasOp.ADD, Poly(list(np.asarray(bad[-1])), m), Poly([0] * 16, m))


def test_rows_kernels_take_integers_in_every_form():
    m = find_ntt_prime(40, 32)
    ints = [RNG.randrange(m.q) for _ in range(16)]
    want = ntt_rows(np.array([ints], dtype=np.uint64), (m,))
    for x in ([ints], (tuple(ints),), np.array([ints], dtype=np.int64),
              [np.array(ints, dtype=np.uint64)], np.array([ints], dtype=object)):
        assert (ntt_rows(x, (m,)) == want).all()
    # NumPy alone makes a row beside a list float64; each is integers
    assert (ntt_rows([np.array(ints, dtype=np.uint64), ints], (m, m)) == want[[0, 0]]).all()
    # Python ints from 2^63 up are integers too, range-checked
    for big in (1 << 63, (1 << 64) - 1, 1 << 64, 1 << 70):
        for x in ([[big] * 16], [[big] + ints[1:]], [ints[1:] + [big]]):
            with pytest.raises(ResidueOutOfRange):
                ntt_rows(x, (m,))


def test_rows_kernels_stack_their_twiddles_once_per_moduli_tuple():
    moduli = mixed_stack(64)
    x = np.array(stack_inputs(moduli, 64), dtype=np.uint64)
    want = ntt_rows(x, moduli), intt_rows(x, moduli)
    lookups = _twiddle_arrays.cache_info()
    assert (ntt_rows(x, moduli) == want[0]).all() and (intt_rows(x, moduli) == want[1]).all()
    assert _twiddle_arrays.cache_info() == lookups


@settings(max_examples=60, deadline=None)
@given(logn=st.integers(1, 12), lead=st.lists(st.integers(1, 2), max_size=2),
       bits=st.lists(st.integers(10, 54), min_size=1, max_size=4),
       skip=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_split_rows_kernels_equal_oracles(logn, lead, bits, skip, seed):
    # N = 2 and 4 split degenerately, odd log2 N unevenly; every leading
    # batch dimension crosses the transpose, and small and 54-bit rows share
    # the reductions of the transposed stages.
    n = 1 << logn
    try:
        moduli = [find_ntt_prime(max(b, logn + 8), 2 * n, skip) for b in bits]
    except NoPrimeFound:
        assume(False)
    q = np.array([m.q for m in moduli], dtype=np.uint64)[:, None]
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 1 << 63, size=(*lead, len(moduli), n), dtype=np.uint64) % q
    fwd, inv = ntt_rows(x, moduli), intt_rows(x, moduli)
    for at in np.ndindex(*lead, len(moduli)):
        m, coeffs = moduli[at[-1]], x[at].tolist()
        assert fwd[at].tolist() == ntt_oracle(Poly(coeffs, m)).coeffs, (n, m.q, at)
        assert inv[at].tolist() == intt_oracle(Poly(coeffs, m, Domain.NTT)).coeffs, (n, m.q, at)
    assert (intt_rows(fwd, moduli) == x).all() and (ntt_rows(inv, moduli) == x).all()


@settings(max_examples=40, deadline=None)
@given(logn=st.integers(1, 16), bits=st.integers(10, 54), skip=st.integers(0, 2))
def test_numpy_twiddle_tables_equal_the_pure_int_construction(logn, bits, skip):
    # The psi powers by _mulmod doubling and the w/q ratios by the corrected
    # float quotient are bit-identical to Python-int products and Python's
    # correctly rounded division, for every table the transforms read.
    two_n = 2 << logn
    try:
        m = find_ntt_prime(max(bits, two_n.bit_length() + 1), two_n, skip)
    except NoPrimeFound:
        assume(False)
    for table in TWIDDLE_TABLES:
        table.cache_clear()
    stored = TwiddleSource(m).table()
    assert _psi_powers(m).tolist() == stored
    assert _shoup_ratios(stored, m.q).tolist() == [w / m.q for w in stored]
    for inverse in (False, True):
        w, ratio = _twiddle_arrays(m, m.n, inverse)
        assert ratio.tolist() == [v / m.q for v in w.tolist()], (m.q, inverse)


@pytest.mark.parametrize("bits", [53, 54])
def test_numpy_twiddle_tables_are_exact_at_full_word_width(bits):
    # At 54 bits neither w nor q fits a float64; at 53 bits both just do.
    # The largest and smallest such primes at N = 2^16, every table entry,
    # plus edge operands: 0, 1, q-1, 2^53 +- d, powers of two and 2^k - 1.
    two_n = 1 << 17
    for m in (largest_ntt_prime(bits, two_n), find_ntt_prime(bits, two_n)):
        for table in TWIDDLE_TABLES:
            table.cache_clear()
        stored = TwiddleSource(m).table()
        assert _psi_powers(m).tolist() == stored, m.q
        q = m.q
        edges = [0, 1, 2, q - 1, q - 2, q // 2, q // 2 + 1]
        edges += [v for d in range(-3, 4) if 0 <= (v := (1 << 53) + d) < q]
        edges += [v for k in range(bits) for v in (1 << k, (1 << k) - 1) if v < q]
        ws = stored + edges + [RNG.randrange(q) for _ in range(1 << 14)]
        assert _shoup_ratios(ws, q).tolist() == [w / q for w in ws], q
        assert _shoup_ratios(np.array(ws, dtype=np.uint64), q).tolist() == \
            [w / q for w in ws], q


def test_stage_twiddle_cache_is_bounded_by_bytes(monkeypatch):
    # 16 bytes per row and coefficient per stack; the least recently used
    # stacks go first, and a stack larger than the bound is not kept.
    moduli = mixed_stack(64)
    keys = [(moduli[:r], 64, False, 8) for r in (1, 2, 3)]
    _stage_twiddles.cache_clear()
    monkeypatch.setattr(polykernel, "_STAGE_CACHE_BYTES", 16 * 64 * 4)
    one, two = _stage_twiddles(*keys[0]), _stage_twiddles(*keys[1])
    assert _stage_twiddles(*keys[0]) is one
    three = _stage_twiddles(*keys[2])           # 1 + 2 + 3 rows: evicts two
    assert _stage_twiddles(*keys[0]) is one
    assert _stage_twiddles(*keys[2]) is three
    again = _stage_twiddles(*keys[1])            # rebuilt: evicts one, then three
    assert again is not two
    assert [a.tolist() for _, *pair in again for a in pair] == \
        [a.tolist() for _, *pair in two for a in pair]
    assert _stage_twiddles(*keys[0]) is not one
    big = (moduli * 2, 64, False, 8)
    assert _stage_twiddles(*big) is not _stage_twiddles(*big)
    assert _stage_twiddles(*keys[1]) is again   # and evicts nothing
    # the default bound keeps 64 stacks of 30 rows at N = 2^10
    monkeypatch.undo()
    assert polykernel._STAGE_CACHE_BYTES >= 64 * 16 * 30 * 1024
    _stage_twiddles.cache_clear()
