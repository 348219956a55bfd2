import dataclasses
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
from fhesim.ckks import _lazy_terms
from fhesim.polykernel import (Domain, DomainError, InvalidGalois,
                               LengthMismatch, MasOp, ModulusMismatch, NttPlan,
                               PlanMismatch, Poly, ResidueOutOfRange, _lazy_schedule,
                               _canonical, _element_ratios, _mulmod_signed,
                               _aut_ntt_map, _stage_twiddles,
                               _psi_powers, _reduce_signed,
                               _psi_table_bitrev, _shoup_ratios,
                               _twiddle_arrays, automorphism_ntt_rows,
                               automorphism_oracle, automorphism_shuffle, intt_oracle,
                               intt_reference, intt_rows, mas, mas_rows, modulus_columns,
                               ntt_hybrid, ntt_oracle, ntt_reference, ntt_rows,
                               row_to_bytes, rows_from_bytes)
from fhesim.verify import lowest_ntt_prime, schoolbook_negacyclic

RNG = random.Random(7)


def rand_poly(m, n):
    return Poly([RNG.randrange(m.q) for _ in range(n)], m, Domain.COEFF)


def test_ntt_delta_is_all_ones():
    m = find_ntt_prime(14, 64)
    p = Poly([1] + [0] * 31, m)
    out = ntt_reference(p)
    assert out.domain == Domain.NTT
    assert out.coeffs.tolist() == [1] * 32


def test_intt_of_ones_is_delta_and_zero_is_zero():
    m = find_ntt_prime(14, 64)
    ones = Poly([1] * 32, m, Domain.NTT)
    assert intt_reference(ones).coeffs.tolist() == [1] + [0] * 31
    zero = Poly([0] * 32, m, Domain.NTT)
    assert intt_reference(zero).coeffs.tolist() == [0] * 32


def test_roundtrip_exact():
    m = find_ntt_prime(14, 2048)
    for _ in range(100):
        p = rand_poly(m, 1024)
        assert intt_reference(ntt_reference(p)) == p


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
        assert intt_reference(prod).coeffs.tolist() == schoolbook_negacyclic(a, b)


def test_pointwise_product_exhaustive_tiny():
    m = find_ntt_prime(5, 8)  # N=4, q=17
    n = 4
    for a0 in range(3):
        for b0 in range(3):
            a = Poly([a0, 1, 0, 2], m)
            b = Poly([b0, 0, 1, 1], m)
            prod = mas(MasOp.MUL, ntt_reference(a), ntt_reference(b))
            assert intt_reference(prod).coeffs.tolist() == schoolbook_negacyclic(a, b)


def test_hybrid_equals_reference_across_plans():
    # 54 bits is the edge of _mulmod_signed's bound, which the hybrid's twiddle pass
    # reaches; N=4096 is a larger ring than the verify suites use.
    for n, bits, reps in ((256, 14, 10), (1024, 14, 10), (1024, 54, 3), (4096, 18, 2)):
        m = find_ntt_prime(bits, 2 * n)
        n2 = 1
        while n2 <= 64:
            plan = NttPlan(n // n2, n2)
            for _ in range(reps):
                p = rand_poly(m, n)
                assert ntt_hybrid(p, plan) == ntt_reference(p) == ntt_oracle(p), \
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
    assert ntt_hybrid(p, NttPlan(256, 1)) == ntt_reference(p)


def test_hybrid_delta_all_ones():
    m = find_ntt_prime(14, 2048)
    p = Poly([1] + [0] * 1023, m)
    assert ntt_hybrid(p, NttPlan(16, 64)).coeffs.tolist() == [1] * 1024


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
        assert ntt_hybrid(p, NttPlan(8, 8)) == ntt_oracle(p)


def test_cached_tables_are_read_only_arrays():
    # Every cached table is built once, held as a uint64 (or float64 ratio)
    # ndarray, and shared read-only by every caller: no Python-int copies.
    m = find_ntt_prime(40, 128)
    p = rand_poly(m, 64)
    assert ntt_hybrid(p, NttPlan(8, 8)) == ntt_oracle(p)
    assert intt_oracle(ntt_reference(p)) == p
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
    assert automorphism_oracle(p, 1) == p
    assert automorphism_shuffle(p, 1, NttPlan(16, 16)) == p


def test_automorphism_hand_cases_n8():
    m = find_ntt_prime(7, 16)  # N=8
    x1 = Poly([0, 1, 0, 0, 0, 0, 0, 0], m)
    out = automorphism_oracle(x1, 3)
    assert out.coeffs.tolist() == [0, 0, 0, 1, 0, 0, 0, 0]          # x -> x^3
    x3 = Poly([0, 0, 0, 1, 0, 0, 0, 0], m)
    out = automorphism_oracle(x3, 3)
    assert out.coeffs.tolist() == [0, m.q - 1, 0, 0, 0, 0, 0, 0]    # x^3 -> -x^1


def test_shuffle_matches_oracle_exhaustive_small():
    n = 64
    m = find_ntt_prime(14, 2 * n)
    for plan in (NttPlan(8, 8), NttPlan(4, 16), NttPlan(64, 1)):
        for gle in range(1, 2 * n, 2):
            p = rand_poly(m, n)
            assert automorphism_shuffle(p, gle, plan) == automorphism_oracle(p, gle)


def test_shuffle_matches_oracle_power_of_five():
    n = 1024
    m = find_ntt_prime(14, 2 * n)
    plan = NttPlan(64, 16)
    for rot in (1, 7, n // 4):
        gle = pow(5, rot, 2 * n)
        p = rand_poly(m, n)
        assert automorphism_shuffle(p, gle, plan) == automorphism_oracle(p, gle)


def test_automorphism_composition_law():
    n = 256
    m = find_ntt_prime(14, 2 * n)
    for _ in range(20):
        g1 = RNG.randrange(1, 2 * n) | 1
        g2 = RNG.randrange(1, 2 * n) | 1
        p = rand_poly(m, n)
        lhs = automorphism_oracle(automorphism_oracle(p, g2), g1)
        rhs = automorphism_oracle(p, g1 * g2 % (2 * n))
        assert lhs == rhs


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
        mags = sorted(min(c, m.q - c) for c in p.coeffs.tolist())
        assert sorted(min(c, m.q - c) for c in out.coeffs.tolist()) == mags


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
    assert mas(MasOp.ADD, a, zero) == a
    assert mas(MasOp.MUL, a, ones) == a
    assert mas(MasOp.SUB, a, a).coeffs.tolist() == [0] * 256


def test_mac_chain_equals_mul_add_fold():
    m = find_ntt_prime(14, 512)
    acc = Poly([0] * 256, m)
    expect = [0] * 256
    for _ in range(3):
        a = rand_poly(m, 256)
        b = rand_poly(m, 256)
        acc = mas(MasOp.MAC, a, b, acc)
        expect = [(e + x * y) % m.q
                  for e, x, y in zip(expect, a.coeffs.tolist(), b.coeffs.tolist())]
    assert acc.coeffs.tolist() == expect


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
    row = f.coeffs
    assert row.dtype == np.uint64 and not row.flags.writeable
    assert dataclasses.fields(Poly)[0].default is dataclasses.MISSING
    with pytest.raises(TypeError):
        Poly(modulus=m)
    # a copy holds a private writable row; kernels and serialization take rows
    twin = f.copy()
    assert f.n == 256 and twin.coeffs.flags.writeable
    assert not np.shares_memory(twin.coeffs, row)
    mas(MasOp.ADD, f, twin)
    back = Poly(rows_from_bytes(row_to_bytes(row, 0, f.domain), 0, [m], 256, f.domain)[0][0],
                m, Domain.NTT)
    listed = Poly(row.tolist(), m, Domain.NTT)
    assert repr(twin) == repr(listed) and back == listed
    assert dataclasses.replace(f, domain=Domain.COEFF) == Poly(row.tolist(), m)
    # a writeable array could change under the limb: it is copied at once,
    # and so is an array assigned later
    mine = np.array(row)
    assert not np.shares_memory(Poly(mine, m).coeffs, mine)
    twin.coeffs = mine
    assert not np.shares_memory(twin.coeffs, mine)
    with pytest.raises(LengthMismatch):
        Poly([row.tolist()], m)


@settings(max_examples=60, deadline=None)
@given(logn=st.integers(0, 6), bits=st.integers(10, 54), skip=st.integers(0, 3),
       domain=st.sampled_from(Domain), data=st.data())
def test_poly_holds_one_uint64_row(logn, bits, skip, domain, data):
    n = 1 << logn
    try:
        m = find_ntt_prime(bits, 2 * n, skip)
    except NoPrimeFound:
        assume(False)
    residues = data.draw(st.lists(st.integers(0, m.q - 1), min_size=n, max_size=n))
    frozen = np.array(residues, dtype=np.uint64)
    frozen.setflags(write=False)
    row, listed = Poly(frozen, m, domain), Poly(residues, m, domain)
    # a read-only uint64 row is kept, a list becomes a writable row of its own
    assert row.coeffs is frozen and listed.coeffs.dtype == np.uint64
    assert listed.coeffs.flags.writeable and listed.coeffs.tolist() == residues
    assert listed == row and row == listed
    blob = row_to_bytes(listed.coeffs, 0, domain)
    back, end = rows_from_bytes(blob, 0, [m], n, domain)
    assert blob == row_to_bytes(row.coeffs, 0, domain) and end == len(blob)
    assert Poly(back[0], m, domain) == row
    # a copy is independent of its source, and its source of it
    twin, other = row.copy(), listed.copy()
    at = data.draw(st.integers(0, n - 1))
    twin.coeffs[at] = other.coeffs[at] = (residues[at] + 1) % m.q
    listed.coeffs[at] = (residues[at] + 2) % m.q
    assert row.coeffs.tolist() == residues and twin != row
    assert twin == other and other.coeffs[at] != listed.coeffs[at]
    # an output limb refuses writes
    out = mas(MasOp.ADD, row, row)
    with pytest.raises(ValueError):
        out.coeffs[at] = 0
    # a word from 2^63 up beside small ones is kept (NumPy alone makes them float64);
    # floats, bools, negatives and values from 2^64 up are refused at once
    word = residues[:at] + [(1 << 64) - 1 - at] + residues[at + 1:]
    assert Poly(word, m, domain).coeffs.tolist() == word
    bad = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=1 << 64)))
    for refused in ([float(v) for v in residues], np.array(residues, dtype=np.float64),
                    [bool(v & 1) for v in residues], np.array(residues) - (1 << 60),
                    residues[:at] + [bad] + residues[at + 1:]):
        with pytest.raises(ResidueOutOfRange):
            Poly(refused, m, domain)


def test_poly_serialization_roundtrip():
    m = find_ntt_prime(14, 512)
    p = rand_poly(m, 256)
    blob = row_to_bytes(p.coeffs, 0, p.domain)
    rows, end = rows_from_bytes(blob, 0, [m], 256, p.domain)
    assert end == len(blob)
    assert Poly(rows[0], m, p.domain) == p
    assert len(blob) == 9 + 8 * 256  # header + 8-byte residues
    # the header's modulus id and domain must be the reader's
    for bad in (row_to_bytes(p.coeffs, 3, p.domain), row_to_bytes(p.coeffs, 0, Domain.NTT)):
        with pytest.raises(LengthMismatch):
            rows_from_bytes(bad, 0, [m], 256, p.domain)


# ---------------------------------------------------------------------------
# uint64 kernel vs pure-int oracle


def smallest_ntt_prime(min_bits, two_n):
    for bits in range(min_bits, 55):
        try:
            return lowest_ntt_prime(bits, two_n)
        except NoPrimeFound:
            continue
    raise NoPrimeFound(two_n)


def ntt_prime_at(bits, two_n, pick):
    """pick >= 0: the (pick+1)-th largest prime of the width; -1: the smallest."""
    return lowest_ntt_prime(bits, two_n) if pick < 0 else find_ntt_prime(bits, two_n, pick)


def kernel_primes(n):
    """q=97, the smallest prime of 14+ bits, 40, 45 and the largest 54-bit ones."""
    two_n = 2 * n
    primes = []
    if 96 % two_n == 0:
        primes.append(PrimeModulus.create(97, two_n, _find_primitive_root(97, two_n)))
    primes.append(smallest_ntt_prime(14, two_n))
    primes += [find_ntt_prime(bits, two_n) for bits in (40, 45, 54)]
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
            assert ntt_reference(p) == ntt_oracle(p), case
            p = Poly(coeffs, m, Domain.NTT)
            assert intt_reference(p) == intt_oracle(p), case


def test_kernel_equals_oracle_n65536():
    n = 1 << 16
    m = find_ntt_prime(54, 2 * n)
    p = rand_poly(m, n)
    out = ntt_reference(p)
    assert out == ntt_oracle(p)
    assert intt_reference(out) == intt_oracle(out) == p


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
    assert any(_lazy_schedule(find_ntt_prime(54, 2048).q, 1024, False))


def test_signed_product_and_reduction_at_extreme_operands():
    # _mulmod_signed's docstring bounds |a*w - qhat*q| by q*(1 + 2.5*|a|*2^-53),
    # _reduce_signed's |x - qhat*q| by q + 3.01*|x|*2^-53.  Operands, of both
    # signs: runs of q-1, 2^53 +- 2, alternating 0/q-1, random ones, and the
    # largest whose product bound stays below 2^63 (at most 2^62).
    rng = random.Random(5)
    for bits in (14, 40, 45, 53, 54):
        q = find_ntt_prime(bits, 8).q
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
@given(logn=st.integers(1, 6), bits=st.integers(10, 54), pick=st.integers(-1, 3),
       data=st.data())
def test_kernel_properties_random_rings(logn, bits, pick, data):
    n = 1 << logn
    try:
        m = ntt_prime_at(bits, 2 * n, pick)
    except NoPrimeFound:
        assume(False)
    residues = st.lists(st.integers(0, m.q - 1), min_size=n, max_size=n)
    a = Poly(data.draw(residues), m)
    b = Poly(data.draw(residues), m)
    assert intt_reference(ntt_reference(a)) == a
    total = ntt_reference(mas(MasOp.ADD, a, b))
    assert total == mas(MasOp.ADD, ntt_reference(a), ntt_reference(b))
    prod = mas(MasOp.MUL, ntt_reference(a), ntt_reference(b))
    assert intt_reference(prod).coeffs.tolist() == schoolbook_negacyclic(a, b)


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


def test_rows_from_bytes_checks_length():
    m = find_ntt_prime(14, 512)
    blob = row_to_bytes(rand_poly(m, 256).coeffs, 0, Domain.COEFF)
    for bad in (blob[:5], blob[:-1]):
        with pytest.raises(LengthMismatch):
            rows_from_bytes(bad, 0, [m], 256, Domain.COEFF)
    # a byte past the limb is the caller's to refuse: the returned offset stops short
    assert rows_from_bytes(blob + b"\0", 0, [m], 256, Domain.COEFF)[1] == len(blob)


def test_rows_from_bytes_refuses_a_residue_from_q_up():
    # the removed one-limb reader kept a read-only view of such a blob, so q + 5
    # came back as a residue
    m = find_ntt_prime(14, 512)
    for bad in (m.q, m.q + 5, (1 << 64) - 1):
        residues = rand_poly(m, 256).coeffs.tolist()
        residues[17] = bad
        with pytest.raises(ResidueOutOfRange):
            rows_from_bytes(row_to_bytes(residues, 0, Domain.COEFF), 0, [m], 256, Domain.COEFF)


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
def primes_10_to_54(draw):
    bits = draw(st.integers(10, 54))
    where = draw(st.sampled_from(["low", "high", "any"]))
    x = {"low": 1 << (bits - 1), "high": (1 << bits) - 2,
         "any": draw(st.integers(1 << (bits - 1), (1 << bits) - 1))}[where]
    return _prime_near(x, bits)


U = Fraction(1, 1 << 53)


def near_2_53(below):
    return [v for d in range(-2, 3) if 0 <= (v := (1 << 53) + d) < below]


def operands(data, lo, hi, edges):
    """1 to 16 integers in [lo, hi), the edges forced in among them."""
    value = st.one_of(st.integers(lo, hi - 1), st.sampled_from(edges))
    return data.draw(st.lists(value, min_size=1, max_size=16))


def residues(data, q):
    return operands(data, 0, q, [0, 1, q - 2, q - 1] + near_2_53(q))


def signed(values):
    return np.array(values, dtype=np.int64)


def check_product(q, a, w, per_element=False):
    """_mulmod_signed over the outer product of a and w, with w's ratios from
    a table or formed per element: congruent to a*w, below q + 3.01u|a*w|
    and q*(1 + 2.5u|a|) or below q + 5.01u|a*w|, and a*w mod q after
    _canonical."""
    if per_element:
        ratio, err = _element_ratios(signed(w), np.float64(1 / q)), Fraction(501, 100)
    else:
        ratio, err = _shoup_ratios(w, q), Fraction(301, 100)
    got = _mulmod_signed(signed(a)[:, None], signed(w)[None, :], ratio[None, :], np.int64(q))
    for u, row in zip(a, got.tolist()):
        for v, g in zip(w, row):
            assert (g - u * v) % q == 0 and abs(g) < q + err * U * abs(u * v), (q, u, v)
            assert per_element or abs(g) << 54 < q * ((1 << 54) + 5 * abs(u)), (q, u, v)
    assert _canonical(got, np.int64(q), np.float64(1 / q)).tolist() == \
        [[u * v % q for v in w] for u in a]


@settings(max_examples=150, deadline=None)
@given(q=primes_10_to_54(), data=st.data())
def test_one_product_on_residues(q, data):
    # Both ratio forms on residues, q-1 and operands next to 2^53 forced: a
    # table's w/q (twiddles, gadget and BConv constants) and one formed per
    # element (MAS, KeyMul), then MUL and MAC through mas_rows.
    a, w, c = residues(data, q), residues(data, q), residues(data, q)
    check_product(q, a, w)
    check_product(q, a, w, per_element=True)
    m = PrimeModulus.create(q, 2, q - 1)
    size = min(len(a), len(w), len(c))
    x, y, z = (np.array([v[:size]], dtype=np.uint64) for v in (a, w, c))
    assert mas_rows(MasOp.MUL, x, y, (m,))[0].tolist() == \
        [u * v % q for u, v in zip(a, w)][:size]
    assert mas_rows(MasOp.MAC, x, y, (m,), z)[0].tolist() == \
        [(t + u * v) % q for u, v, t in zip(a, w, c)][:size]


@settings(max_examples=100, deadline=None)
@given(q=primes_10_to_54(), data=st.data())
def test_one_product_on_cross_modulus_operands(q, data):
    # BConv multiplies residues of its sources, up to 2^54 whatever q is, by
    # table constants of a target q.
    top = 1 << 54
    a = operands(data, 0, top, [top - 1, top - 2, q - 1, q, q + 1] + near_2_53(top))
    w = residues(data, q)
    check_product(q, a, w)


@settings(max_examples=100, deadline=None)
@given(q=primes_10_to_54(), data=st.data())
def test_one_product_on_signed_differences(q, data):
    # _submul's a - b, in (-q, q), goes into the product without a pre-fold.
    edges = [0, 1, -1, q - 1, 1 - q] + [s * v for v in near_2_53(q) for s in (1, -1)]
    a = operands(data, 1 - q, q, edges)
    w = residues(data, q)
    check_product(q, a, w)


@settings(max_examples=100, deadline=None)
@given(q=primes_10_to_54(), cross=st.booleans(), data=st.data())
def test_lazy_sum_at_the_derived_limit(q, cross, data):
    # A sum of as many products as _lazy_terms allows: KeyMul's residue
    # products with per-element ratios, or BConv's operands up to 2^54 with
    # table ratios.  Its m terms repeat one to 16 products, so m may be huge;
    # _canonical still returns the sum mod q.
    a_max = (1 << 54) - 1 if cross else q
    m = _lazy_terms((PrimeModulus.create(q, 2, q - 1),), a_max)
    a = operands(data, 0, a_max, [a_max - 1] + near_2_53(a_max))
    w = residues(data, q)[:len(a)]
    a = a[:len(w)]
    ratio = _shoup_ratios(w, q) if cross else _element_ratios(signed(w), np.float64(1 / q))
    terms = _mulmod_signed(signed(a), signed(w), ratio, np.int64(q)).tolist()
    counts = [m // len(terms) + (i < m % len(terms)) for i in range(len(terms))]
    total = sum(k * t for k, t in zip(counts, terms))
    assert abs(total) < 1 << 63
    got = _canonical(np.array([total], dtype=np.int64), np.int64(q), np.float64(1 / q))
    assert got.tolist() == [sum(k * u * v for k, u, v in zip(counts, a, w)) % q]


def test_lazy_sum_limit_and_one_past_it():
    # _lazy_terms is the largest m whose integer bound m*P fits what
    # _canonical takes, and at that m the proven bound, 5.01u, fits too.
    for bits in (10, 14, 30, 45, 53, 54):
        mod = find_ntt_prime(bits, 8)
        q = mod.q
        for a_max in (q, (1 << 54) - 1):
            m = _lazy_terms((mod,), a_max)
            room = min(1 << 63, q << 51)
            p = q + (6 * a_max * q >> 53) + 1
            assert m * p <= room < (m + 1) * p, (bits, a_max)
            assert m * (q + Fraction(501, 100) * U * a_max * q) < room, (bits, a_max)
    # the full-dnum key switch of a paper-size basis sums 31 digits
    assert _lazy_terms((find_ntt_prime(54, 8),)) >= 31


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
            assert f == ntt_oracle(Poly(coeffs, m)).coeffs.tolist(), (n, m.q)
            assert i == intt_oracle(Poly(coeffs, m, Domain.NTT)).coeffs.tolist(), (n, m.q)
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


@pytest.mark.parametrize("flag", [True, False, np.True_], ids=["True", "False", "np.True_"])
def test_a_bool_among_ints_is_refused(flag):
    # NumPy holds [3, True, 0, ...] as int64, which would read True as 1
    m = find_ntt_prime(40, 32)
    row = [3, flag] + [0, 1] * 7
    with pytest.raises(ResidueOutOfRange, match="got dtype bool"):
        Poly(row, m)
    for kernel in (ntt_rows, intt_rows):
        with pytest.raises(ResidueOutOfRange, match="got dtype bool"):
            kernel([row], (m,))
        with pytest.raises(ResidueOutOfRange, match="got dtype bool"):
            kernel([np.zeros(16, dtype=np.uint64), tuple(row)], (m, m))


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
       pick=st.integers(-1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_split_rows_kernels_equal_oracles(logn, lead, bits, pick, seed):
    # N = 2 and 4 split degenerately, odd log2 N unevenly; every leading
    # batch dimension crosses the transpose, and small and 54-bit rows share
    # the reductions of the transposed stages.
    n = 1 << logn
    try:
        moduli = [ntt_prime_at(max(b, logn + 8), 2 * n, pick) for b in bits]
    except NoPrimeFound:
        assume(False)
    q = np.array([m.q for m in moduli], dtype=np.uint64)[:, None]
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 1 << 63, size=(*lead, len(moduli), n), dtype=np.uint64) % q
    fwd, inv = ntt_rows(x, moduli), intt_rows(x, moduli)
    for at in np.ndindex(*lead, len(moduli)):
        m, coeffs = moduli[at[-1]], x[at].tolist()
        assert fwd[at].tolist() == ntt_oracle(Poly(coeffs, m)).coeffs.tolist(), (n, m.q, at)
        assert inv[at].tolist() == intt_oracle(Poly(coeffs, m, Domain.NTT)).coeffs.tolist(), \
            (n, m.q, at)
    assert (intt_rows(fwd, moduli) == x).all() and (ntt_rows(inv, moduli) == x).all()


@settings(max_examples=40, deadline=None)
@given(logn=st.integers(1, 16), bits=st.integers(10, 54), pick=st.integers(-1, 2))
def test_numpy_twiddle_tables_equal_the_pure_int_construction(logn, bits, pick):
    # The psi powers by _mulmod_signed doubling and the w/q ratios by the corrected
    # float quotient are bit-identical to Python-int products and Python's
    # correctly rounded division, for every table the transforms read.
    two_n = 2 << logn
    try:
        m = ntt_prime_at(max(bits, two_n.bit_length() + 1), two_n, pick)
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
    for m in (find_ntt_prime(bits, two_n), lowest_ntt_prime(bits, two_n)):
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
