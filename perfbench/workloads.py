"""The three benchmark workloads.

Each workload is one closed-loop client: `setup()` pays everything that is
paid once per session, `op(i)` is the timed routine and costs the same for
every i, and `check(i, out)` verifies the op's output outside its timed
interval.  Inputs come only from the seed given to the constructor.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from fhesim import modarith, opcount
from fhesim.ckks import CkksContext, KeySet, KeySwitchKey, KskDigit, count_ops
from fhesim.chipletsim import ChipletConfig, Engine, sweep_chiplets

PINNED = Path(__file__).resolve().parent / "pinned.json"

# Acceptance tolerance of the CKKS pipeline: maximum relative slot error.
SLOT_TOLERANCE = 1e-4
# Ciphertexts (or ciphertext pairs) in the input pool; op i uses entry i % POOL.
POOL = 4
ROTATIONS = 8


def _census_sum(*parts):
    total = {"INTT": 0, "NTT": 0, "MAS": 0, "AUT": 0}
    for part in parts:
        for kind, n in part.items():
            total[kind] += n
    return total


def _rel_error(got, want) -> float:
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-9)))


class _CkksWorkload:
    """Shared parts of the two CKKS workloads (N=2^10, L=4, the toy basis)."""

    dnum: int

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def _context(self) -> None:
        basis = modarith.make_basis(n=1024, levels=4, dnum=self.dnum, bits=40,
                                    first_bits=45, p_bits=45)
        self.ctx = CkksContext(basis)
        self.level = basis.l_max

    def _slots(self) -> np.ndarray:
        return self.rng.uniform(0.5, 1.5, self.ctx.slots)

    def _encrypt(self, values: np.ndarray):
        return self.ctx.encrypt(self.ctx.encode(values, self.level), self.sk, self.rng)

    def _key_seed(self) -> int:
        return int(self.rng.integers(1, 1 << 62))

    def census(self, out) -> dict:
        return out[1]

    def check(self, i: int, out) -> bool:
        ct, census = out
        want = self.expected(i)
        got = self.ctx.decode(self.ctx.decrypt(ct, self.sk), ct.scale)
        return _rel_error(got, want) < SLOT_TOLERANCE and census == self.census_want


class RelinFullDnum(_CkksWorkload):
    """HMULT -> relinearize -> rescale at the top level, dnum = L+1 (K=1)."""

    name = "ckks-relin-fulldnum"
    op_name = "ckks.relin_op"
    dnum = 5

    def setup(self) -> None:
        self._context()
        self.sk, self.keys = self.ctx.keygen(seed=self._key_seed())
        self.pool = []
        for _ in range(POOL):
            a, b = self._slots(), self._slots()
            self.pool.append((self._encrypt(a), self._encrypt(b), a * b))
        lvl = self.level
        self.census_want = _census_sum(opcount.hmult(lvl), opcount.keyswitch_full(lvl),
                                       opcount.rescale(lvl))

    def op(self, i: int):
        ca, cb, _ = self.pool[i % POOL]
        ctx = self.ctx
        with count_ops() as census:
            out = ctx.rescale(ctx.relinearize(ctx.mult(ca, cb), self.keys))
        return out, census

    def expected(self, i: int) -> np.ndarray:
        return self.pool[i % POOL][2]


class RotateSeeded(_CkksWorkload):
    """Rotation by one of 8 seeded indices, dnum=2 (K=3), seeded key per op."""

    name = "ckks-rotate-seeded"
    op_name = "ckks.rotate_op"
    dnum = 2

    def setup(self) -> None:
        self._context()
        slots = self.ctx.slots
        self.rotations = [int(r) for r in
                          self.rng.choice(np.arange(1, slots), ROTATIONS, replace=False)]
        self.sk, self.keys = self.ctx.keygen(seed=self._key_seed(), rotations=self.rotations)
        self.pool = []
        for _ in range(POOL):
            a = self._slots()
            self.pool.append((self._encrypt(a), a))
        lvl, basis = self.level, self.ctx.basis
        self.census_want = _census_sum(opcount.rotate_perm(lvl),
                                       opcount.keyswitch_generic(lvl, basis.dnum, basis.k))

    def _seeded_keys(self, rot: int) -> KeySet:
        # The server holds only (ksk0, seeds); ksk1 is regenerated on every use.
        key = self.keys.rotation[rot]
        digits = [KskDigit(ksk0=d.ksk0, ksk1_seeds=d.ksk1_seeds) for d in key.digits]
        return KeySet(relin=self.keys.relin,
                      rotation={rot: KeySwitchKey(digits=digits, dnum=key.dnum)})

    def op(self, i: int):
        ct = self.pool[i % POOL][0]
        rot = self.rotations[i % ROTATIONS]
        with count_ops() as census:
            out = self.ctx.rotate(ct, rot, self._seeded_keys(rot))
        return out, census

    def expected(self, i: int) -> np.ndarray:
        return np.roll(self.pool[i % POOL][1], -self.rotations[i % ROTATIONS])


@contextmanager
def engine_reports():
    """Collect, by chiplet count, the model outputs of every Engine.run in the block.

    This wraps Engine.run for the length of the block, in every run, so that
    the op's own CycleReports can be checked; the wrapper costs one extra
    Python call per simulation.
    """
    reports: dict = {}
    run = Engine.__dict__["run"]

    def collecting(engine, *args, **kwargs):
        report = run(engine, *args, **kwargs)
        reports[str(engine.cfg.r)] = {
            "total_cycles": report.total_cycles,
            "polynomials_transferred": report.polynomials_transferred,
            "op_counts": dict(report.op_counts),
        }
        return report

    Engine.run = collecting
    try:
        yield reports
    finally:
        Engine.run = run


class SimSweep:
    """sweep_chiplets over r=4 and r=32 on the chiplet_1024x64 preset.

    The swept program is fixed, so every op is identical and the seed changes
    nothing; the returned rows and the model outputs of each simulation
    (cycles, polynomials transferred, micro-op counts) are compared with the
    values pinned in pinned.json.
    """

    name = "sim-sweep-r4-32"
    op_name = "chipletsim.sweep_chiplets"

    def __init__(self, seed: int):
        pass

    def setup(self) -> None:
        doc = json.loads((resources.files("fhesim.presets") / "chiplet_1024x64.json")
                         .read_text())
        self.cfg = replace(ChipletConfig.from_json_dict(doc), r=4)
        self.pinned = json.loads(PINNED.read_text())[self.name]

    def census(self, out) -> None:
        return None

    def op(self, i: int):
        with engine_reports() as reports:
            rows = sweep_chiplets(self.cfg, [4, 32], l=30)
        return rows, reports

    def check(self, i: int, out) -> bool:
        rows, reports = out
        return rows == self.pinned["rows"] and reports == self.pinned["reports"]


WORKLOADS = {w.name: w for w in (RelinFullDnum, RotateSeeded, SimSweep)}
