"""The benchmark's contract with the package.

perfbench/ wraps named functions of fhesim for its per-layer spans and runs
its workloads through the public routines.  A rename or deletion there
would surface only when the benchmark runs; these tests surface it here.
"""

from pathlib import Path

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
