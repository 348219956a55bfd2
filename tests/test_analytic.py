import functools
from fractions import Fraction

import numpy as np
import pytest

from fhesim import analytic, opcount
from fhesim.chipletsim import ChipletConfig, ProgramError
from fhesim.chipletsim.schedules import parse_program, schedule_keyswitch_digits
from fhesim.ckks import (CkksContext, InvalidInteger, LevelOutOfRange, ciphertext_to_bytes,
                         derive_seed, ksk_to_bytes)
from fhesim.modarith import make_basis
from fhesim.trivium import TriviumLanes, uniform_residues


def test_keyswitch_throughput_values():
    f = 1.5e9
    # 1.5e9 / (31*33*1024) ~ 1432 switches per second
    assert abs(analytic.keyswitch_throughput(30, 1024, f) - 1431.9) < 0.1
    naive = analytic.keyswitch_throughput(30, 1024, f, shadowed=False)
    assert abs(naive - f / (31 * 97 * 1024)) < 1e-9


def test_shadowing_improvement():
    # exactly 64/97 at L=30: 66.0% to one decimal, approaching 2/3 for large L
    imp = analytic.shadowing_improvement(30)
    assert abs(imp - 64 / 97) < 1e-12
    assert round(imp * 100, 1) == 66.0
    assert abs(analytic.shadowing_improvement(10 ** 6) - 2 / 3) < 1e-5


def test_degenerate_n1():
    assert analytic.keyswitch_cycles(30, 1) == 31 * 33


def test_comm_polynomials_table():
    assert analytic.comm_polynomials("OURS", 30, r=4) == 132       # 4*(l+3)
    assert analytic.comm_polynomials("B", 30) == 31 * 34           # 1054
    assert analytic.comm_polynomials("C", 30) == 31 * 34
    assert analytic.comm_polynomials("A", 30) == 32 * 33
    assert analytic.comm_polynomials("OURS", 30, r=1) == 0


def test_comm_polynomials_digitwise():
    # 2*2*23/3 + 16 per chiplet at dnum=3, K=8, l=22 (about 46.7)
    got = analytic.comm_polynomials("DIGITWISE", 22, k=8)
    assert got == Fraction(2 * 2 * 23, 3) + 16
    assert abs(float(got) - 46.67) < 0.01
    exch = analytic.comm_polynomials("DIGITWISE_EXCH", 22, k=8)
    assert exch == Fraction(2 * 2 * 31, 3) + 16
    early = analytic.comm_polynomials("LIMBWISE_EARLY", 22, k=8)
    assert early == 2 * 31
    assert analytic.comm_polynomials("LIMBWISE", 22, k=8) == 4 * 31
    assert analytic.comm_polynomials("COEFFWISE", 22, k=8) == 5 * 31


def test_chiplet_bound():
    k = 1200 / 630
    assert analytic.chiplet_bound(30, k) == 4
    assert analytic.chiplet_bound(30, 0.0) == 32            # free links
    # u = (L+2)/k collapses the package to one chip
    assert analytic.chiplet_bound(30, k, u=32 / k) == 1


def test_key_storage():
    # dnum=3, L=22, K=8: tens of MB, within 2x of the quoted 91 MB
    b = analytic.key_storage(22, 3, 1 << 16, 54)
    assert 91e6 / 2 <= b <= 91e6 * 2
    seeded = analytic.key_storage(22, 3, 1 << 16, 54, seeded=True)
    ratio = seeded / b
    assert 0.5 <= ratio < 0.51
    # linear in N
    assert analytic.key_storage(22, 3, 1 << 17, 54) == 2 * b
    # the per-(digit, base) pair reading of the ~1 MB on-chip figure
    assert abs(analytic.key_storage_per_digit_limb(1 << 16, 54) - 884736) < 1
    # L+1 = 5 limbs at dnum = 4: K = 2, so 3 digits of 4+2+1 bases, 21 limb
    # pairs (the key keygen makes), not 4 digits' 28
    assert analytic.key_storage(4, 4, 1 << 16, 54) == \
        21 * analytic.key_storage_per_digit_limb(1 << 16, 54)


def test_twiddle_tradeoff_table():
    t = analytic.twiddle_tradeoff(1024, 64, tfg=True)
    assert t["extra_multipliers"] == 131
    assert t["total_multipliers"] == 832
    assert t["memory_words"] == 310624
    t = analytic.twiddle_tradeoff(1024, 64, tfg=False)
    assert t["extra_multipliers"] == 0
    assert t["memory_words"] == 4228064
    assert analytic.twiddle_tradeoff(1024, 64, tfg=True)["memory_reduction_pct"] == 93
    assert analytic.twiddle_tradeoff(512, 128, tfg=True)["multiplier_increase_pct"] == 16
    with pytest.raises(analytic.InvalidArgument):
        analytic.twiddle_tradeoff(4096, 16, tfg=True)


def test_digits_census_formula():
    # (2*31 + 4*23 + 8)/4 = 40.5 at l=22, K=8, dnum=3, r=4
    assert analytic.digits_census(22, 8, 4) == Fraction(81, 2)


# The checks that test_cli.py's test_analyze_rejects_bad_arguments does not
# reach; three of them the analyze command never reaches, as an earlier
# check refuses the argument first.
@pytest.mark.parametrize("call", [
    lambda: analytic.shadowing_improvement(-1),
    lambda: analytic.comm_polynomials("LIMBWISE", 22, k=0),
    lambda: analytic.chiplet_bound(-1, 1.0),
    lambda: analytic.key_storage(-1, 3, 1 << 16, 54),
    lambda: analytic.key_storage_per_digit_limb(0, 54),
    lambda: analytic.digits_census(-1, 8, 4),
    lambda: analytic.chiplet_bound(30, 1.0, u=True),    # returned 32: True is no headroom
])
def test_formulas_refuse_arguments_outside_their_range(call):
    with pytest.raises(analytic.InvalidArgument):
        call()


@pytest.mark.parametrize("call, named", [
    (lambda: opcount.keyswitch_full(-3), "level must be at least 0"),   # negative counts
    (lambda: opcount.keyswitch_generic(-1, 2, 3), "level must be at least 0"),
    (lambda: opcount.keyswitch_generic(8, 3, 0), "K must be at least 1"),
    (lambda: opcount.moddown(-1, 1), "level must be at least 0"),
    (lambda: opcount.moddown(8, 0), "K must be at least 1"),
    (lambda: opcount.rescale(0), "level must be at least 1"),    # a census of nothing to drop
    (lambda: opcount.hadd(-1), "level must be at least 0"),
    (lambda: opcount.hmult(-2), "level must be at least 0"),
    (lambda: opcount.rotate_perm(-1), "level must be at least 0"),
    (lambda: opcount.digit_size(-2, 3), "L must be at least 0"),
    (lambda: opcount.digit_size(4, 0), "dnum must be at least 1"),     # a ZeroDivisionError
    (lambda: opcount.digit_ranges(-1, 1), "level must be at least 0"),
    (lambda: opcount.digit_ranges(4, 0), "K must be at least 1"),      # a bare ValueError
])
def test_closed_forms_refuse_a_level_k_or_dnum_below_their_range(call, named):
    # the census forms counted any level: keyswitch_full(-3) gave negative
    # counts and rescale(0) a census of a rescale with no base to drop
    assert opcount.InvalidArgument is analytic.InvalidArgument
    with pytest.raises(opcount.InvalidArgument, match=named):
        call()


@functools.cache
def _keyed():
    """A small context, its keys (one rotation key, by 1) and a ciphertext."""
    ctx = CkksContext(make_basis(n=64, levels=2, dnum=3, bits=30))
    sk, keys = ctx.keygen(seed=3, rotations=[1])
    ct = ctx.encrypt(ctx.encode([0.5] * ctx.slots, 2), sk, np.random.default_rng(1))
    return ctx, keys, ct


def _rotated(rot):
    ctx, keys, ct = _keyed()
    return ciphertext_to_bytes(ctx.rotate(ct, rot, keys), ctx.basis)


_CFG = ChipletConfig(n1=1024, n2=64, r=4)
# entry point -> (its named error, an integer it takes, the call on a value)
_INTEGER_ENTRY_POINTS = {
    "keygen-seed": (InvalidInteger, 3,
                    lambda x: ksk_to_bytes(_keyed()[0].keygen(seed=x)[1].relin)),
    "keygen-rotation": (InvalidInteger, 1, lambda x: {
        rot: ksk_to_bytes(key) for rot, key in _keyed()[0].keygen(3, [x])[1].rotation.items()}),
    "derive_seed-master": (InvalidInteger, 5, lambda x: derive_seed(x, 1)),
    "derive_seed-step": (InvalidInteger, 1, lambda x: derive_seed(5, x)),
    "rotate": (InvalidInteger, 1, _rotated),
    "level": (LevelOutOfRange, 1,
              lambda x: [p.coeffs.tolist() for p in _keyed()[0].encode([0.5], x).limbs]),
    "uniform_residues-seed": (ValueError, 5, lambda x: uniform_residues([x], [97], 8).tolist()),
    "uniform_residues-modulus": (ValueError, 97,
                                 lambda x: uniform_residues([5], [x], 8).tolist()),
    "uniform_residues-n": (ValueError, 8, lambda x: uniform_residues([5], [97], x).tolist()),
    "TriviumLanes-seed": (ValueError, 5, lambda x: TriviumLanes([x]).words(4).tolist()),
    "TriviumLanes-rounds": (ValueError, 4, lambda x: TriviumLanes([5]).words(x).tolist()),
    "schedule_keyswitch_digits-l": (ProgramError, 8,
                                    lambda x: schedule_keyswitch_digits(_CFG, x, 3).to_json()),
    "schedule_keyswitch_digits-k": (ProgramError, 3,
                                    lambda x: schedule_keyswitch_digits(_CFG, 8, x).to_json()),
    "parse_program": (ProgramError, 3, lambda x: parse_program([{"op": "HADD", "l": x}])),
    "keyswitch_cycles-L": (analytic.InvalidArgument, 30,
                           lambda x: analytic.keyswitch_cycles(x, 1024)),
    "keyswitch_cycles-n1": (analytic.InvalidArgument, 1024,
                            lambda x: analytic.keyswitch_cycles(30, x)),
    "shadowing_improvement": (analytic.InvalidArgument, 30, analytic.shadowing_improvement),
    "comm_polynomials-l": (analytic.InvalidArgument, 30,
                           lambda x: analytic.comm_polynomials("A", x)),
    "comm_polynomials-r": (analytic.InvalidArgument, 4,
                           lambda x: analytic.comm_polynomials("OURS", 4, r=x)),
    "comm_polynomials-k": (analytic.InvalidArgument, 3,
                           lambda x: analytic.comm_polynomials("DIGITWISE", 8, k=x)),
    "digits_census-l": (analytic.InvalidArgument, 22, lambda x: analytic.digits_census(x, 8, 4)),
    "digits_census-k": (analytic.InvalidArgument, 8, lambda x: analytic.digits_census(22, x, 4)),
    "digits_census-r": (analytic.InvalidArgument, 4, lambda x: analytic.digits_census(22, 8, x)),
    "key_storage-L": (analytic.InvalidArgument, 4,
                      lambda x: analytic.key_storage(x, 2, 1024, 54)),
    "key_storage-dnum": (analytic.InvalidArgument, 2,
                         lambda x: analytic.key_storage(4, x, 1024, 54)),
    "key_storage-n": (analytic.InvalidArgument, 1024,
                      lambda x: analytic.key_storage(4, 2, x, 54)),
    "key_storage-w": (analytic.InvalidArgument, 54,
                      lambda x: analytic.key_storage(4, 2, 1024, x)),
    "twiddle_tradeoff-n1": (analytic.InvalidArgument, 1024,
                            lambda x: analytic.twiddle_tradeoff(x, 64, tfg=True)),
    "twiddle_tradeoff-n2": (analytic.InvalidArgument, 64,
                            lambda x: analytic.twiddle_tradeoff(1024, x, tfg=True)),
    # keyswitch_full(2.5) returned fractional counts, rescale(True) a level-1 census
    "keyswitch_full": (opcount.InvalidArgument, 8, opcount.keyswitch_full),
    "keyswitch_generic-level": (opcount.InvalidArgument, 8,
                                lambda x: opcount.keyswitch_generic(x, 3, 3)),
    "keyswitch_generic-k": (opcount.InvalidArgument, 3,
                            lambda x: opcount.keyswitch_generic(8, 3, x)),
    "moddown-level": (opcount.InvalidArgument, 8, lambda x: opcount.moddown(x, 3)),
    "moddown-k": (opcount.InvalidArgument, 3, lambda x: opcount.moddown(8, x)),
    "rescale": (opcount.InvalidArgument, 8, opcount.rescale),
    "hadd": (opcount.InvalidArgument, 8, opcount.hadd),
    "hmult": (opcount.InvalidArgument, 8, opcount.hmult),
    "rotate_perm": (opcount.InvalidArgument, 8, opcount.rotate_perm),
    "digit_size-L": (opcount.InvalidArgument, 30, lambda x: opcount.digit_size(x, 4)),
    "digit_size-dnum": (opcount.InvalidArgument, 4, lambda x: opcount.digit_size(30, x)),
    "digit_ranges-level": (opcount.InvalidArgument, 8, lambda x: opcount.digit_ranges(x, 3)),
    "digit_ranges-k": (opcount.InvalidArgument, 3, lambda x: opcount.digit_ranges(8, x)),
}


@pytest.mark.parametrize("entry", list(_INTEGER_ENTRY_POINTS))
def test_entry_points_take_integers_and_only_integers(entry):
    # keyswitch_cycles(2.5, 1024) returned 19712.0 and (True, 1024) 8192, and
    # comm_polynomials("A", 2.5) returned 99/4; digits_census(2.5, 2, 4) and
    # key_storage(4, 2.5, 1024, 54) raised a bare TypeError
    error, good, call = _INTEGER_ENTRY_POINTS[entry]
    for bad in (True, 2.5):
        with pytest.raises(error, match="must be an integer, got"):
            call(bad)
    want = call(good)
    got = call(np.int64(good))
    assert got == want and type(got) is type(want)
