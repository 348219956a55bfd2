"""Oracle-differential verification suites.

Each suite runs a batch of randomized cases comparing the optimized paths
against independent oracles (the pure-int NTT butterflies, schoolbook
negacyclic products, the direct automorphism map, a bit-serial keystream,
wide-integer CRT arithmetic) and returns a summary with the number of
elementwise comparisons made.  Deliberate-fault modes perturb the shuffle
addressing or the NTT-domain automorphism's index map, drop a correction
fold from the uint64 NTT kernel or from the two-operand MAS product, skew
one doubling step of the psi-power table, drop one lane's mask from the
lane-packed keystream, or keep serving a limb's row to the kernels after
its list was read and edited, so the harness itself can be shown to catch
regressions.

Every transform reads the stored twiddle table of its modulus, built in
NumPy.  TwiddleSource.power, the model of the hardware's on-the-fly twiddle
factor generator (TFG), is checked against that table, against the pure-int
TwiddleSource.table, and against each transform's bit-reversed twiddles and
their w/q ratios (Python's correctly rounded division) for every exponent of
every modulus of the mixed-modulus stack.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import fields, replace
from typing import Dict, List, Optional

import numpy as np

from . import opcount, polykernel, trivium
from .ckks import CkksContext, RnsPoly, count_ops, ksk_to_bytes
from .modarith import (PrimeModulus, TwiddleSource, bit_reverse, find_ntt_prime,
                       make_basis)
from .polykernel import (Domain, MasOp, NttPlan, Poly, ResidueOutOfRange,
                         automorphism_ntt_rows, automorphism_oracle, automorphism_shuffle,
                         intt_oracle, intt_reference, intt_rows, mas, mas_rows,
                         ntt_hybrid, ntt_oracle, ntt_reference, ntt_rows)
from .trivium import TriviumLanes, trivium_stream


# ---------------------------------------------------------------------------
# Independent oracles


def schoolbook_negacyclic(a: List[int], b: List[int], q: int) -> List[int]:
    """O(N^2) product mod x^N + 1; the ground truth for NTT multiplication."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            k = i + j
            v = x * y
            if k >= n:
                out[k - n] = (out[k - n] - v) % q
            else:
                out[k] = (out[k] + v) % q
    return out


def trivium_bit_serial(seed: int, count: int) -> List[int]:
    """Reference keystream, one bit per step, packed little-endian in time."""
    s = [0] * 289  # 1-indexed registers
    for i in range(64):
        bit = seed >> i & 1
        s[1 + i] = bit
        s[94 + i] = bit
    s[286] = s[287] = s[288] = 1
    words: List[int] = []
    bits: List[int] = []
    for step in range(1152 + count * 64):
        t1 = s[66] ^ s[93]
        t2 = s[162] ^ s[177]
        t3 = s[243] ^ s[288]
        z = t1 ^ t2 ^ t3
        t1 ^= (s[91] & s[92]) ^ s[171]
        t2 ^= (s[175] & s[176]) ^ s[264]
        t3 ^= (s[286] & s[287]) ^ s[69]
        s[2:94] = s[1:93]
        s[1] = t3
        s[95:178] = s[94:177]
        s[94] = t1
        s[179:289] = s[178:288]
        s[178] = t2
        if step >= 1152:
            bits.append(z)
            if len(bits) == 64:
                words.append(sum(b << i for i, b in enumerate(bits)))
                bits = []
    return words


# ---------------------------------------------------------------------------
# Fault injection (mutation-testing hook for the harness itself)


def _shuffle_offby1(original):
    def faulty(lanes, n2):
        out = original(lanes, n2)
        return out[1:] + out[:1] if n2 > 1 else out
    return faulty


def _roll_index_map(original):
    """The NTT-domain automorphism map rolled by one slot."""
    def faulty(n, gle):
        return np.roll(original(n, gle), 1)
    return faulty


def _drop_lane_mask(original):
    """The lane mask without lane 1's word: one lane alone is unaffected."""
    def faulty(lanes):
        return original(lanes) & ~(trivium._M64 << trivium.LANE_BITS)
    return faulty


def _serve_stale_row(original):
    """Poly.coeffs that builds its list but keeps the row the kernels read, so
    an edit of the list never reaches them."""
    def faulty(descriptor, p, owner=None):
        row = None if p is None else vars(p)["coeffs"]
        if not isinstance(row, np.ndarray):
            return original(descriptor, p, owner)
        return vars(p).setdefault("stale", row.tolist())
    return faulty


def _untransposed_columns(original):
    """The twiddles of the NTT stages that run on the transposed chunks, served
    in row order: (R, c, lb) slots read as (R, lb, c) without the transpose."""
    def faulty(*args):
        return tuple((blocks, *(a.swapaxes(1, 3).reshape(a.shape) for a in pair))
                     for blocks, *pair in original(*args))
    return faulty


def _skewed_doubling(original):
    """_psi_powers whose last doubling step multiplies by psi^(N+1), not psi^N:
    the upper half of the table is one power too high."""
    def faulty(m):
        table = original(m).copy()
        table[m.n:] = [v * m.psi % m.q for v in table[m.n:].tolist()]
        return table
    return faulty


# fault name -> (the suite whose checks it breaks, module or class, attribute,
# function from its original to the fault)
FAULTS = {
    "shuffle-offby1": ("kernels", polykernel, "_shuffle_tree", _shuffle_offby1),
    "aut-ntt-index": ("kernels", polykernel, "_aut_ntt_map", _roll_index_map),
    "ntt-fold": ("kernels", polykernel, "_CANONICAL_FOLDS", lambda folds: folds[:-1]),
    "ntt-split": ("kernels", polykernel, "_stage_twiddles", _untransposed_columns),
    "twiddle-table": ("kernels", polykernel, "_psi_powers", _skewed_doubling),
    "mas-fold": ("kernels", polykernel, "_VV_FOLDS", lambda folds: folds[:-1]),
    "trivium-lane": ("kernels", trivium, "_lane_mask", _drop_lane_mask),
    "stale-row": ("ckks", polykernel._Coeffs, "__get__", _serve_stale_row),
}


@contextmanager
def inject_fault(name: Optional[str], suite: str):
    """Fault `name` in place for the length of the block, when it is one that
    breaks the checks of `suite`."""
    if name is not None and name not in FAULTS:
        raise ValueError(f"unknown fault {name!r}")
    if name is None or FAULTS[name][0] != suite:
        yield
        return
    _, owner, attr, corrupt = FAULTS[name]
    original = getattr(owner, attr)
    _drop_cached_tables()
    setattr(owner, attr, corrupt(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)
        _drop_cached_tables()


def _drop_cached_tables() -> None:
    """Empty the kernels' twiddle-table caches: a fault then reaches tables
    built before it, and no table built under a fault outlives it."""
    for table in (polykernel._psi_powers, polykernel._psi_table_bitrev,
                  polykernel._twiddle_arrays, polykernel._stage_twiddles):
        table.cache_clear()


# ---------------------------------------------------------------------------
# Suites


class SuiteResult:
    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.comparisons = 0
        self.failures: List[str] = []

    def check(self, label: str, ok: bool, comparisons: int = 1) -> None:
        self.cases += 1
        self.comparisons += comparisons
        if not ok:
            self.failures.append(label)

    def to_dict(self) -> dict:
        return {"suite": self.name, "cases": self.cases,
                "comparisons": self.comparisons, "failures": self.failures}


def _agrees(kernel_output, want) -> bool:
    """kernel_output() == want; a kernel that rejects its input, as it does
    the out-of-range residues of a broken kernel, counts as a mismatch."""
    try:
        return kernel_output() == want
    except ResidueOutOfRange:
        return False


def _rand_poly(rng: random.Random, m: PrimeModulus, n: int) -> Poly:
    return Poly([rng.randrange(m.q) for _ in range(n)], m, Domain.COEFF)


def suite_kernels(size: str = "toy", seed: int = 0) -> SuiteResult:
    res = SuiteResult("kernels")
    rng = random.Random(seed)
    if size == "toy":
        n, reps, gle_all = 256, 20, True
        splits = (1, 4, 16)
    else:
        n, reps, gle_all = 1024, 30, False
        splits = (1, 4, 16, 64)
    m = find_ntt_prime(_suite_prime_bits(n), 2 * n)

    # uint64 kernel vs pure-int oracle on edge and random inputs
    edges = [[0] * n, [1] + [0] * (n - 1), [m.q - 1] * n]
    for coeffs in edges + [_rand_poly(rng, m, n).coeffs for _ in range(reps)]:
        p = Poly(coeffs, m, Domain.COEFF)
        res.check("ntt kernel == oracle",
                  ntt_reference(p).coeffs == ntt_oracle(p).coeffs, comparisons=n)
        p = Poly(coeffs, m, Domain.NTT)
        res.check("intt kernel == oracle",
                  intt_reference(p).coeffs == intt_oracle(p).coeffs, comparisons=n)

    # hybrid NTT vs kernel and oracle, all requested splits
    for n2 in splits:
        plan = NttPlan(n // n2, n2)
        for _ in range(reps):
            p = _rand_poly(rng, m, n)
            res.check(f"hybrid {plan.n1}x{plan.n2}",
                      _agrees(lambda: ntt_hybrid(p, plan).coeffs
                              == ntt_reference(p).coeffs == ntt_oracle(p).coeffs, True),
                      comparisons=2 * n)

    # roundtrip and pointwise-product oracle
    for _ in range(reps):
        p = _rand_poly(rng, m, n)
        res.check("ntt roundtrip",
                  _agrees(lambda: intt_reference(ntt_reference(p)).coeffs, p.coeffs),
                  comparisons=n)
    for _ in range(5):
        a = _rand_poly(rng, m, n)
        b = _rand_poly(rng, m, n)
        res.check("negacyclic product",
                  _agrees(lambda: intt_reference(
                      mas(MasOp.MUL, ntt_reference(a), ntt_reference(b))).coeffs,
                          schoolbook_negacyclic(a.coeffs, b.coeffs, m.q)),
                  comparisons=n)

    # rows kernels on a mixed-modulus stack vs the per-limb oracles
    moduli = _mixed_moduli(n)
    for _ in range(max(1, reps // 4)):
        rows = [_rand_poly(rng, mm, n).coeffs for mm in moduli]
        x = np.array(rows, dtype=np.uint64)
        res.check("ntt rows == oracle",
                  _agrees(lambda: ntt_rows(x, moduli).tolist(),
                          [ntt_oracle(Poly(r, mm)).coeffs
                           for r, mm in zip(rows, moduli)]),
                  comparisons=n * len(moduli))
        res.check("intt rows == oracle",
                  _agrees(lambda: intt_rows(x, moduli).tolist(),
                          [intt_oracle(Poly(r, mm, Domain.NTT)).coeffs
                           for r, mm in zip(rows, moduli)]),
                  comparisons=n * len(moduli))
    # NTT-domain automorphism == NTT . oracle . INTT on the same stack
    gles = {1, 2 * n - 1} | {pow(5, k, 2 * n) for k in (1, 2, 3, n // 2 - 1)}
    gles |= {rng.randrange(1, 2 * n) | 1 for _ in range(4)}
    for gle in sorted(gles):
        x = np.array([_rand_poly(rng, mm, n).coeffs for mm in moduli], dtype=np.uint64)

        def gather_matches():
            coeffs = intt_rows(x, moduli).tolist()
            want = ntt_rows([automorphism_oracle(Poly(r, mm), gle).coeffs
                             for r, mm in zip(coeffs, moduli)], moduli)
            return automorphism_ntt_rows(x, gle).tolist() == want.tolist()
        res.check(f"automorphism ntt gather gle={gle}", _agrees(gather_matches, True),
                  comparisons=n * len(moduli))

    # two-operand products and MAC vs Python integers, q-1 edges included
    for mm in moduli:
        q = mm.q
        edges = [q - 1 - i % 4 for i in range(n)]
        cases = [(edges, edges, edges), (edges, _rand_poly(rng, mm, n).coeffs, edges)]
        cases += [tuple(_rand_poly(rng, mm, n).coeffs for _ in range(3))
                  for _ in range(max(1, reps // 4))]
        for a, b, c in cases:
            x, y, z = (np.array([v], dtype=np.uint64) for v in (a, b, c))
            res.check(f"mas mul/mac == ints q={q}",
                      mas_rows(MasOp.MUL, x, y, (mm,))[0].tolist()
                      == [u * v % q for u, v in zip(a, b)]
                      and mas_rows(MasOp.MAC, x, y, (mm,), z)[0].tolist()
                      == [(w + u * v) % q for u, v, w in zip(a, b, c)],
                      comparisons=2 * n)

    # automorphism shuffle vs direct map
    plan = NttPlan(n // 16, 16)
    gles = (range(1, 2 * n, 2) if gle_all
            else [rng.randrange(1, 2 * n) | 1 for _ in range(64)])
    for gle in gles:
        p = _rand_poly(rng, m, n)
        res.check(f"automorphism gle={gle}",
                  automorphism_shuffle(p, gle, plan).coeffs ==
                  automorphism_oracle(p, gle).coeffs,
                  comparisons=n)
    # composition law
    for _ in range(10):
        g1 = rng.randrange(1, 2 * n) | 1
        g2 = rng.randrange(1, 2 * n) | 1
        p = _rand_poly(rng, m, n)
        lhs = automorphism_oracle(automorphism_oracle(p, g2), g1)
        rhs = automorphism_oracle(p, g1 * g2 % (2 * n))
        res.check("automorphism composition", lhs.coeffs == rhs.coeffs,
                  comparisons=n)

    # the on-the-fly twiddle generator (TFG model) against the pure-int table
    # and the NumPy-built tables every transform reads, for every exponent of
    # every modulus: the psi powers, and the bit-reversed twiddles with their
    # w/q ratios in both directions, the inverse's 1/N slots included
    width = n.bit_length() - 1
    for mm in moduli:
        otf = TwiddleSource(mm)
        powers = [otf.power(e) for e in range(2 * n)]
        res.check(f"twiddle stored == on-the-fly q={mm.q}",
                  powers == otf.table() == polykernel._psi_powers(mm).tolist(),
                  comparisons=4 * n)
        for sign in (1, -1):
            want = [powers[sign * bit_reverse(i, width) % (2 * n)] for i in range(n)]
            if sign < 0:
                want[0], want[1] = mm.n_inv, want[1] * mm.n_inv % mm.q
            w, ratio = polykernel._twiddle_arrays(mm, n, sign < 0)
            res.check(f"twiddle table {'inverse' if sign < 0 else 'forward'} q={mm.q}",
                      w.tolist() == want and ratio.tolist() == [v / mm.q for v in want],
                      comparisons=2 * n)

    # keystream vs bit-serial oracle
    words = 200 if size == "toy" else 1000
    for s in range(3):
        sd = rng.getrandbits(64)
        res.check(f"trivium seed={sd:#x}",
                  trivium_stream(sd, words) == trivium_bit_serial(sd, words),
                  comparisons=words)
    # lane-packed keystream: all-ones seeds next to all-zero and random ones
    # show any bit that crosses a lane boundary
    ones = (1 << 64) - 1
    seeds = [ones, 0, ones, rng.getrandbits(64), 1, ones]
    lanes = TriviumLanes(seeds).words(words)
    for i, sd in enumerate(seeds):
        res.check(f"trivium lane {i} of {len(seeds)} seed={sd:#x}",
                  lanes[:, i].tolist() == trivium_bit_serial(sd, words),
                  comparisons=words)
    return res


def _mixed_moduli(n: int) -> tuple:
    """One stack of moduli for ring degree n: the suite prime and 40-, 45-
    and 54-bit primes, so one call mixes small and full-width words."""
    return tuple([find_ntt_prime(_suite_prime_bits(n), 2 * n)]
                 + [find_ntt_prime(bits, 2 * n) for bits in (40, 45, 54)])


def _suite_prime_bits(n: int) -> int:
    """Smallest workable prime size for ring degree n in the suites."""
    return max(14, (2 * n).bit_length() + 2)


def listed_copy(x):
    """A copy of a limb, a list of limbs or a dataclass of RnsPolys whose limbs
    hold Python-int lists: each limb is copied, then read."""
    if isinstance(x, Poly):
        p = x.copy()
        p.coeffs
        return p
    if isinstance(x, list):
        return [listed_copy(p) for p in x]
    return replace(x, **{f.name: listed_copy(v) for f in fields(x)
                         if isinstance(v := getattr(x, f.name), (list, RnsPoly))})


def _limbs(x) -> List[Poly]:
    """Every limb of a limb, a list or a dataclass of RnsPolys, in order."""
    if isinstance(x, Poly):
        return [x]
    if isinstance(x, list):
        return [p for v in x for p in _limbs(v)]
    return [p for f in fields(x) if isinstance(v := getattr(x, f.name), (list, RnsPoly))
            for p in _limbs(v)]


def routine_outputs(ctx: CkksContext, sk, keys, a, b, listed: bool = False) -> list:
    """Outputs of add, mult, relinearize, rescale, rotate by 1, moddown,
    bconv_routine and decrypt on inputs made from ciphertexts a and b, of one
    level of at least 1, with a rotation key for 1 in keys.

    The inputs are routine outputs, so their limbs hold rows; with listed,
    each routine gets a listed_copy of them instead.
    """
    given = listed_copy if listed else (lambda x: x)
    p_bases = list(ctx.basis.p_list)
    coeff = [intt_reference(p) for p in a.c1.limbs]
    ext = RnsPoly(a.c0.limbs + ctx.bconv_routine(coeff, p_bases), a.level)
    return [ctx.add(given(a), given(b)), ctx.mult(given(a), given(b)),
            ctx.relinearize(given(ctx.mult(a, b)), keys), ctx.rescale(given(a)),
            ctx.rotate(given(a), 1, keys), ctx.moddown(given(ext)),
            ctx.bconv_routine(given(coeff), p_bases), ctx.decrypt(given(a), sk)]


def suite_ckks(size: str = "toy", seed: int = 0) -> SuiteResult:
    res = SuiteResult("ckks")
    if size == "toy":
        basis = make_basis(n=1024, levels=4, dnum=5, bits=40, first_bits=45, p_bits=45)
        basis_d = make_basis(n=1024, levels=4, dnum=2, bits=40, first_bits=45, p_bits=45)
    else:
        basis = make_basis(n=4096, levels=8, dnum=9, bits=40, first_bits=45, p_bits=45)
        basis_d = make_basis(n=4096, levels=8, dnum=3, bits=40, first_bits=45, p_bits=45)
    rng = np.random.default_rng(seed)
    levels = basis.l_max

    ctx = CkksContext(basis)
    sk, keys = ctx.keygen(seed=seed + 1, rotations=(1,))
    # keygen keeps the keystream it drew for the relin key as its ksk1
    bases = ctx.all_bases()
    for j, dg in enumerate(keys.relin.digits):
        res.check(f"relin digit {j} keeps its keystream",
                  dg._ksk1 is not None and not dg._ksk1.flags.writeable
                  and np.array_equal(dg._ksk1, ctx._expand_ksk1(dg.ksk1_seeds, bases)),
                  comparisons=len(bases) * ctx.n)
    a = np.linspace(0.1, 1.0, ctx.slots)
    b = np.linspace(1.0, 2.0, ctx.slots)
    cta = ctx.encrypt(ctx.encode(a, levels), sk, rng)
    ctb = ctx.encrypt(ctx.encode(b, levels), sk, rng)

    dec = ctx.decode(ctx.decrypt(cta, sk), cta.scale)
    res.check("enc/dec roundtrip", float(np.max(np.abs(dec - a))) < 1e-6,
              comparisons=ctx.slots)

    csum = ctx.add(cta, ctb)
    dec = ctx.decode(ctx.decrypt(csum, sk), csum.scale)
    res.check("hadd", float(np.max(np.abs(dec - (a + b)))) < 1e-6,
              comparisons=ctx.slots)

    with count_ops() as census:
        d = ctx.mult(cta, ctb)
        ks_full = ctx.keyswitch_full_dnum(d, keys.relin)
    want = opcount.keyswitch_full(levels)
    want["MAS"] += opcount.hmult(levels)["MAS"]
    res.check("census matches closed form", census == want, comparisons=len(want))

    rs = ctx.rescale(ks_full)
    dec = ctx.decode(ctx.decrypt(rs, sk), rs.scale)
    rel = float(np.max(np.abs(dec - a * b) / np.maximum(np.abs(a * b), 1e-9)))
    res.check("mult/keyswitch/rescale", rel < 1e-4, comparisons=ctx.slots)

    ks_gen = ctx.keyswitch_generic(d, keys.relin)
    same = all(f.coeffs == g.coeffs
               for fc, gc in ((ks_full.c0, ks_gen.c0), (ks_full.c1, ks_gen.c1))
               for f, g in zip(fc.limbs, gc.limbs))
    res.check("generic dnum degeneration bit-exact", same,
              comparisons=2 * (levels + 1) * ctx.n)

    rot = ctx.rotate(cta, 1, keys)
    dec = ctx.decode(ctx.decrypt(rot, sk), rot.scale)
    want_slots = np.roll(a, -1)
    rel = float(np.max(np.abs(dec - want_slots) / np.maximum(np.abs(want_slots), 1e-9)))
    res.check("rotation pipeline", rel < 1e-4, comparisons=ctx.slots)

    # row-backed limbs against read lists, and an edit of a read list
    rows = routine_outputs(ctx, sk, keys, cta, ctb)
    lists = routine_outputs(ctx, sk, keys, cta, ctb, listed=True)
    res.check("row-backed and list-backed inputs agree", rows == lists,
              comparisons=ctx.n * len(_limbs(rows)))
    edited = listed_copy(cta)
    limb = edited.c0.limbs[0]
    q = limb.modulus.q
    limb.coeffs[0] = (limb.coeffs[0] + q // 2) % q
    want = ctx.decrypt(cta, sk).limbs[0].coeffs
    want[0] = (want[0] + q // 2) % q
    res.check("an edited limb reaches the next routine",
              ctx.decrypt(edited, sk).limbs[0].coeffs == want, comparisons=ctx.n)

    # seeded key half: re-expansion determinism and storage accounting
    digit = keys.relin.digits[0]
    limb0 = ctx.expand_ksk1_limb(digit.ksk1_seeds[0], ctx.all_bases()[0])
    limb1 = ctx.expand_ksk1_limb(digit.ksk1_seeds[0], ctx.all_bases()[0])
    res.check("ksk1 re-expansion deterministic", limb0.coeffs == limb1.coeffs,
              comparisons=ctx.n)
    for j, dg in enumerate(keys.relin.digits):
        for t in range(len(dg.ksk0)):
            ctx.ksk1_limb(keys.relin, j, t)
    seeded = len(ksk_to_bytes(keys.relin, seeded=True))
    expanded = len(ksk_to_bytes(keys.relin, seeded=False))
    ratio = seeded / expanded
    res.check("seeded key is half the footprint", 0.5 <= ratio < 0.52,
              comparisons=1)

    # generic dnum end to end on the second basis
    ctx_d = CkksContext(basis_d)
    sk_d, keys_d = ctx_d.keygen(seed=seed + 2)
    ca = ctx_d.encrypt(ctx_d.encode(a[: ctx_d.slots], levels), sk_d, rng)
    cb = ctx_d.encrypt(ctx_d.encode(b[: ctx_d.slots], levels), sk_d, rng)
    with count_ops() as census_d:
        ksd = ctx_d.keyswitch_generic(ctx_d.mult(ca, cb), keys_d.relin)
    rsd = ctx_d.rescale(ksd)
    dec = ctx_d.decode(ctx_d.decrypt(rsd, sk_d), rsd.scale)
    rel = float(np.max(np.abs(dec - a * b) / np.maximum(np.abs(a * b), 1e-9)))
    res.check("dnum<L+1 pipeline", rel < 1e-4, comparisons=ctx_d.slots)
    want_d = opcount.keyswitch_generic(levels, basis_d.dnum, basis_d.k)
    want_d["MAS"] += opcount.hmult(levels)["MAS"]
    res.check("generic census matches closed form", census_d == want_d,
              comparisons=len(want_d))
    return res


def run_verify(scope: str = "all", size: str = "toy", seed: int = 0,
               fault: Optional[str] = None) -> Dict:
    suites: List[SuiteResult] = []
    for name, suite in (("kernels", suite_kernels), ("ckks", suite_ckks)):
        if scope in (name, "all"):
            with inject_fault(fault, name):
                suites.append(suite(size, seed))
    return {
        "scope": scope,
        "size": size,
        "seed": seed,
        "fault": fault,
        "suites": [s.to_dict() for s in suites],
        "cases": sum(s.cases for s in suites),
        "comparisons": sum(s.comparisons for s in suites),
        "failures": [f"{s.name}: {f}" for s in suites for f in s.failures],
    }
