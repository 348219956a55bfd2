import json
import random
from dataclasses import fields
from importlib import resources

import pytest

from fhesim.modarith import (NoPrimeFound, PrimeModulus, RnsBasis, TwiddleSource,
                             WordSizeExceeded, _find_primitive_root, bit_reverse,
                             find_ntt_prime, find_ntt_primes, is_prime, make_basis, mod_mul,
                             mod_pow)
from fhesim.opcount import digit_ranges, digit_size


def test_mod_mul_small_cases():
    m = find_ntt_prime(5, 16)
    assert m.q == 17
    assert mod_mul(3, 5, m) == 15
    assert mod_mul(m.q - 1, m.q - 1, m) == 1  # (-1)^2


def test_mod_mul_matches_wide_integer_oracle():
    m = find_ntt_prime(54, 1 << 17)
    rng = random.Random(0)
    for _ in range(2000):
        a = rng.randrange(m.q)
        b = rng.randrange(m.q)
        assert mod_mul(a, b, m) == a * b % m.q
    # identity and commutativity
    for _ in range(100):
        a = rng.randrange(m.q)
        b = rng.randrange(m.q)
        assert mod_mul(a, 1, m) == a
        assert mod_mul(a, b, m) == mod_mul(b, a, m)


def test_find_ntt_prime_examples():
    assert find_ntt_prime(5, 16).q == 17
    assert find_ntt_prime(7, 16).q == 113     # the largest below 2^7
    assert find_ntt_prime(7, 16, skip=1).q == 97
    # skip picks the next one down
    q0 = find_ntt_prime(14, 256).q
    q1 = find_ntt_prime(14, 256, skip=1).q
    assert q0 > q1 >= 1 << 13 and q1 % 256 == 1 and is_prime(q1)


def test_psi_has_exact_order_two_n():
    for bits, two_n in ((14, 2048), (20, 256), (30, 1 << 13)):
        m = find_ntt_prime(bits, two_n)
        assert pow(m.psi, two_n, m.q) == 1
        assert pow(m.psi, two_n // 2, m.q) == m.q - 1  # psi^N == -1


def test_no_prime_found():
    with pytest.raises(NoPrimeFound):
        find_ntt_prime(6, 16)  # 33 and 49 are composite


def test_bad_psi_rejected():
    with pytest.raises(ValueError):
        PrimeModulus.create(17, 16, psi=2)  # 2 has order 8 mod 17


def test_twiddle_endpoints_and_sweep():
    m = find_ntt_prime(14, 2048)
    n = m.n
    assert TwiddleSource(m).power(0) == 1
    assert TwiddleSource(m).power(n) == m.q - 1  # psi^N == -1
    stored = TwiddleSource(m).table()
    otf = TwiddleSource(m)
    assert all(stored[e] == otf.power(e) for e in range(2 * n))
    # bit-reversed exponents agree with the stored table as well
    width = (2 * n).bit_length() - 1
    assert all(stored[bit_reverse(i, width)]
               == TwiddleSource(m).power(bit_reverse(i, width))
               for i in range(0, 2 * n, 7))


def test_twiddle_random_access_on_the_fly():
    m = find_ntt_prime(14, 2048)
    otf = TwiddleSource(m)
    rng = random.Random(1)
    for _ in range(200):
        e = rng.randrange(2 * m.n)
        assert otf.power(e) == mod_pow(m.psi, e, m)


def test_find_ntt_primes_batch_unique():
    primes = find_ntt_primes(20, 256, 5)
    values = [m.q for m in primes]
    assert len(set(values)) == 5
    assert values == sorted(values, reverse=True)
    # no prime == 1 (mod 256) lies between 2^20 and the first one found
    assert not any(is_prime(q) for q in range(values[0] + 256, 1 << 20, 256))


def test_make_basis_and_json_roundtrip():
    basis = make_basis(n=64, levels=4, dnum=2, bits=20, first_bits=22, p_bits=21)
    assert basis.l_max == 4
    assert basis.k == 3  # ceil(5/2) but p count is ceil((L+1)/dnum)
    assert basis.k * basis.dnum >= basis.l_max + 1
    moduli = [m.q for m in basis.q_list + basis.p_list]
    assert len(set(moduli)) == len(moduli)
    doc = basis.to_json_dict()
    back = RnsBasis.from_json_dict(doc)
    assert [m.q for m in back.q_list] == [m.q for m in basis.q_list]
    assert [m.psi for m in back.p_list] == [m.psi for m in basis.p_list]
    assert back == basis and back.to_json_dict() == doc


def test_basis_keeps_only_its_primes_and_reads_dnum_from_them():
    assert [f.name for f in fields(RnsBasis)] == ["q_list", "p_list"]
    # L+1 = 5 limbs at dnum 4 need K = 2, which makes three digits
    basis = make_basis(n=64, levels=4, dnum=4, bits=30)
    assert (basis.n, basis.k, basis.dnum) == (64, 2, 3)
    assert basis.to_json_dict()["dnum"] == 3


def test_basis_json_refuses_a_dnum_its_primes_do_not_give_and_empty_lists():
    doc = make_basis(n=64, levels=4, dnum=4, bits=30).to_json_dict()
    for dnum in (4, 2, 0):
        with pytest.raises(ValueError, match="digit count"):
            RnsBasis.from_json_dict({**doc, "dnum": dnum})
    for side in ("p", "q"):
        with pytest.raises(ValueError, match="at least one q prime and one p prime"):
            RnsBasis.from_json_dict({**doc, side: [], f"psi_{side}": []})
        # a short psi list used to cut the prime list to its length silently
        with pytest.raises(ValueError):
            RnsBasis.from_json_dict({**doc, f"psi_{side}": doc[f"psi_{side}"][:1]})


def test_bundled_parameter_presets_give_the_dnum_their_basis_reports():
    # make_basis takes K = digit_size(levels, dnum) special primes, and the
    # basis reports the digit count of that K; no prime is searched here
    presets = [path for path in resources.files("fhesim.presets").iterdir()
               if path.name.startswith("params_") and path.name.endswith(".json")]
    assert {path.name for path in presets} >= {"params_main.json", "params_toy.json"}
    for path in presets:
        doc = json.loads(path.read_text())
        levels, dnum = doc["levels"], doc["dnum"]
        assert dnum == len(digit_ranges(levels, digit_size(levels, dnum))), path.name


def _ntt_prime_above(lo, two_n):
    q = lo - lo % two_n + 1
    while q < lo or not is_prime(q):
        q += two_n
    return q


def test_word_cap_in_prime_search():
    with pytest.raises(WordSizeExceeded):
        find_ntt_primes(60, 32, 3)
    with pytest.raises(WordSizeExceeded):
        find_ntt_prime(55, 32)
    with pytest.raises(ValueError):
        find_ntt_primes(20, 24, 1)  # two_n not a power of two


def test_word_cap_in_make_basis():
    with pytest.raises(WordSizeExceeded):
        make_basis(n=16, levels=1, dnum=2, bits=60)


def test_word_cap_in_prime_modulus():
    q = _ntt_prime_above(1 << 54, 32)
    with pytest.raises(WordSizeExceeded):
        PrimeModulus.create(q, 32, _find_primitive_root(q, 32))


def test_word_cap_in_basis_json():
    doc = make_basis(n=16, levels=1, dnum=2, bits=20).to_json_dict()
    q = _ntt_prime_above(1 << 59, 32)
    doc["p"][0] = str(q)
    doc["psi_p"][0] = str(_find_primitive_root(q, 32))
    with pytest.raises(WordSizeExceeded):
        RnsBasis.from_json_dict(doc)
