"""The benchmark's contract with the package.

perfbench/ wraps named functions of fhesim for its per-layer spans and runs
its workloads through the public routines.  A rename or deletion there
would surface only when the benchmark runs; these tests surface it here.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fhesim.ckks import CkksContext
from fhesim.modarith import make_basis

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    # The constructor reads owner.__dict__[attr] for every target; it
    # installs nothing.
    tracer = spans.Tracer()
    assert len(tracer._originals) == len(spans.TARGETS)


def test_benchmark_selftest_catches_every_corruption(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    assert selftest.main() == 0


def _counted(monkeypatch, owner, attr, counts):
    """Replace owner.attr with a wrapper that counts its calls, as the
    benchmark's tracer wraps it."""
    original = owner.__dict__[attr]

    def counting(*args, **kwargs):
        counts[attr] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, attr, counting)


_SWITCHES = ("keyswitch_full_dnum", "keyswitch_generic")


@pytest.mark.parametrize("dnum, switch, want", [
    (5, "relinearize", {"moddown": 1, "bconv_routine": 1,       # K = 1
                        "keyswitch_full_dnum": 1}),
    (2, "rotate", {"moddown": 1, "bconv_routine": 3,            # K = 3: two digits
                   "keyswitch_generic": 1}),
])
def test_key_switch_reaches_the_wrapped_names(dnum, switch, want, monkeypatch):
    # The spans ckks.moddown, ckks.bconv and ckks.keyswitch time these names;
    # a key switch that went round them would leave those spans at 0.  Both
    # switch names are counted, so a call of the other one shows too.
    ctx = CkksContext(make_basis(n=256, levels=4, dnum=dnum, bits=40, first_bits=45,
                                 p_bits=45))
    sk, keys = ctx.keygen(seed=5, rotations=(1,))
    ct = ctx.encrypt(ctx.encode(np.ones(ctx.slots), 4), sk, np.random.default_rng(1))
    counts = Counter()
    for attr in set(want) | set(_SWITCHES):
        _counted(monkeypatch, CkksContext, attr, counts)
    if switch == "relinearize":
        ctx.relinearize(ctx.mult(ct, ct), keys)
    else:
        ctx.rotate(ct, 1, keys)
    assert counts == want
