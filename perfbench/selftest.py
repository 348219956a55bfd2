"""Self-test of the benchmark's output checks.

For each kind of check, runs a few ops through the benchmark's own loop with
one op's output corrupted, and shows that exactly that op is counted as
failed while the others pass:

  * a CKKS result with one residue of one output limb changed;
  * a CKKS result whose micro-op census has one NTT too many;
  * a simulator sweep with one model value of its rows off by one;
  * a simulator sweep with one pinned transfer count off by one.

Run from the repository root; exits 0 when every corruption is caught:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

CORRUPT_OP = 2
OPS = 3


def flip_limb(i, out):
    ct, census = out
    limb = ct.c0.limbs[0].copy()
    limb.coeffs[0] = (limb.coeffs[0] + limb.modulus.q // 2) % limb.modulus.q
    c0 = replace(ct.c0, limbs=[limb] + ct.c0.limbs[1:])
    return replace(ct, c0=c0), census


def extra_ntt(i, out):
    ct, census = out
    return ct, {**census, "NTT": census["NTT"] + 1}


def off_by_one_row(i, out):
    rows, reports = out
    return rows[:-1] + [{**rows[-1], "total_cycles": rows[-1]["total_cycles"] + 1}], reports


def off_by_one_transfer(i, out):
    rows, reports = out
    r32 = reports["32"]
    return rows, {**reports, "32": {**r32, "polynomials_transferred":
                                    r32["polynomials_transferred"] + 1}}


CASES = [
    ("ckks-relin-fulldnum", "output limb residue", flip_limb),
    ("ckks-relin-fulldnum", "census NTT count", extra_ntt),
    ("ckks-rotate-seeded", "output limb residue", flip_limb),
    ("sim-sweep-r4-32", "pinned sweep row", off_by_one_row),
    ("sim-sweep-r4-32", "pinned transfer count", off_by_one_transfer),
]


def main() -> int:
    run._import_package()
    caught = 0
    for workload, what, corrupt in CASES:
        _, loop, _ = run.setup_workload(workload, seed=1)
        for i in range(1, OPS + 1):
            loop.run_op(i, corrupt=lambda j, out: corrupt(j, out) if j == CORRUPT_OP else out)
        want = {i: i != CORRUPT_OP for i in range(OPS + 1)}
        ok = loop.passed == want and loop.failed == 1
        caught += ok
        print(f"{'PASS' if ok else 'FAIL'} {workload}: corrupted {what} in op {CORRUPT_OP}; "
              f"attempted {loop.attempted}, failed {loop.failed}")
    print(f"{caught}/{len(CASES)} corruptions counted as failed")
    return 0 if caught == len(CASES) else 1


if __name__ == "__main__":
    sys.exit(main())
