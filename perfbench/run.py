"""fhesim benchmark: one closed-loop client per workload, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload ckks-relin-fulldnum --seed 1 --seconds 36 --trace 0

With --trace 0 the run reports the end-to-end metrics (setup_s, ops_per_s,
op_ms_p50, op_ms_p90, peak_rss_mb).  Times are scaled to a reference host
speed with the calibration kernel of calibrate.py, timed after every op.  With --trace 1 it rebinds the package's
layer entry points to span recorders, times every other op traced, and
reports the per-layer metrics; the spans are written as Chrome Trace Event
JSON next to a per-layer table under perfbench/results/.  The last line of
standard output is always one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md for how to read it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import calibrate_ms, scale_to_ref

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# The p90 needs ten samples above it: a run keeps going past --seconds until
# it has timed this many ops, but never past HARD_CAP x --seconds.
MIN_OPS = 100
HARD_CAP = 1.4
# Cold set-ups per run (one in this process, the rest in fresh processes);
# setup_s is their median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# Calibration runs just before and just after each set-up.
SETUP_CAL_RUNS = 3


def _import_package() -> None:
    """Put the checkout's src/ first on the path; fail if it is missing."""
    pkg = SRC / "fhesim" / "__init__.py"
    if not pkg.is_file():
        raise SystemExit(f"error: fhesim sources not found at {pkg.parent}")
    sys.path.insert(0, str(SRC))
    import fhesim
    if Path(fhesim.__file__).resolve() != pkg.resolve():
        raise SystemExit(f"error: imported fhesim from {fhesim.__file__}, not {pkg}")


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fhesim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return res.stdout.strip() if res.returncode == 0 else None


def run_meta(workload: str, seed: int, seconds: int, trace: int) -> dict:
    uname = platform.uname()
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": f"{uname.system} {uname.release} {uname.machine}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }


class Loop:
    """Outcome counters of a closed loop: one op at a time, checked after."""

    def __init__(self, wl):
        self.wl = wl
        self.latency_ms: dict = {}
        self.cal_ms: dict = {}
        self.passed: dict = {}
        self.censuses: dict = {}
        # Warm-up ops of the cold set-ups run in child processes.
        self.child_attempted = 0
        self.child_failed = 0

    @property
    def attempted(self) -> int:
        return len(self.passed) + self.child_attempted

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.passed.values() if not ok) + self.child_failed

    def ref_latency_ms(self, i: int) -> float:
        """Latency of op i scaled to the reference host speed.

        The host speed is the one the calibration kernel saw just before
        (after op i-1) and just after op i.
        """
        cal = [self.cal_ms[j] for j in (i - 1, i) if j in self.cal_ms]
        return self.latency_ms[i] * scale_to_ref(cal)

    def run_op(self, i: int, tracer=None, corrupt=None) -> None:
        """Time op i, then check it outside the timed interval."""
        gc.collect()   # every op starts from the same heap state
        out = None
        if tracer is not None:
            tracer.install()
            tracer.begin_op(i, self.wl.op_name)
        t0 = time.perf_counter_ns()
        try:
            out = self.wl.op(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        finally:
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.end_op()
                tracer.uninstall()
        self.latency_ms[i] = (t1 - t0) / 1e6
        if out is not None and corrupt is not None:
            out = corrupt(i, out)
        self.passed[i] = out is not None and self._passes(i, out)
        self.cal_ms[i] = calibrate_ms()

    def _passes(self, i: int, out) -> bool:
        try:
            census = self.wl.census(out)
            if census is not None:
                self.censuses[i] = dict(census)
            return bool(self.wl.check(i, out))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False

    def timed(self, seconds: float, tracer_for=None) -> None:
        """Run ops 1, 2, ... for --seconds and until MIN_OPS ops were timed."""
        begin = time.perf_counter()
        i = 1
        while True:
            elapsed = time.perf_counter() - begin
            if (elapsed >= seconds and i > MIN_OPS) or elapsed >= HARD_CAP * seconds:
                break
            self.run_op(i, tracer=tracer_for(i) if tracer_for else None)
            i += 1


def setup_workload(name: str, seed: int):
    """Everything paid once per session: set-up plus one checked warm-up op.

    Returns the workload, its loop, and the set-up time in seconds both as
    measured and scaled to the reference host speed.
    """
    from workloads import WORKLOADS
    wl = WORKLOADS[name](seed)
    cal = [calibrate_ms() for _ in range(SETUP_CAL_RUNS)]
    t0 = time.perf_counter()
    wl.setup()
    loop = Loop(wl)
    loop.run_op(0)
    # run_op also ran the calibration kernel after the op: that is not set-up.
    setup_s = time.perf_counter() - t0 - loop.cal_ms[0] / 1e3
    cal += [calibrate_ms() for _ in range(SETUP_CAL_RUNS)]
    return wl, loop, {"raw": setup_s, "ref": setup_s * scale_to_ref(cal)}


def _cold_setup(name: str, seed: int, loop: Loop) -> dict:
    """Set up in a fresh process; its warm-up op counts in this loop's totals."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=SETUP_TIMEOUT_S)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit(f"error: cold set-up exited with {res.returncode}")
    child = json.loads(res.stdout.strip().splitlines()[-1])
    loop.child_attempted += child["attempted"]
    loop.child_failed += child["failed"]
    return child["setup_s"]


def timed_run(name: str, seed: int, seconds: int) -> tuple:
    wl, loop, setup = setup_workload(name, seed)
    setups = [_cold_setup(name, seed, loop) for _ in range(SETUP_SAMPLES - 1)] + [setup]
    loop.timed(seconds)
    timed = [i for i in loop.latency_ms if i > 0]
    lat = [loop.ref_latency_ms(i) for i in timed]
    passed = sum(1 for i in timed if loop.passed[i])
    metrics = {
        "setup_s": (statistics.median(s["ref"] for s in setups), "s"),
        "ops_per_s": (passed / (sum(lat) / 1e3), "1/s"),
        "op_ms_p50": (statistics.median(lat), "ms"),
        "op_ms_p90": (statistics.quantiles(lat, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"timed_ops": len(lat), "setup_samples_s": setups,
             "latency_ms": lat, "latency_ms_measured": [loop.latency_ms[i] for i in timed],
             "calibration_ms": [loop.cal_ms[i] for i in sorted(loop.cal_ms)]}
    return loop, metrics, extra


def traced_run(name: str, seed: int, seconds: int, stem: str, meta: dict) -> tuple:
    from spans import Tracer, layer_metrics, write_chrome_trace
    tracer = Tracer()
    tracer.install()
    wl, loop, _ = setup_workload(name, seed)
    tracer.uninstall()
    # Odd ops are traced, even ops are not: their medians give the overhead.
    loop.timed(seconds, tracer_for=lambda i: tracer if i % 2 else None)
    traced = [i for i in loop.latency_ms if i % 2]
    untraced = [i for i in loop.latency_ms if i > 0 and i % 2 == 0]
    census_want = getattr(wl, "census_want", None)
    layers = layer_metrics(tracer, traced, loop.censuses, census_want,
                           [loop.ref_latency_ms(i) for i in traced],
                           [loop.ref_latency_ms(i) for i in untraced],
                           [loop.cal_ms[i] for i in sorted(loop.cal_ms)])
    write_chrome_trace(tracer, RESULTS / f"{stem}.trace.json", meta)
    table = ["%-36s %16s  %s" % ("metric", "value", "unit")]
    table += ["%-36s %16.6g  %s" % (k, v["value"], v["unit"]) for k, v in layers.items()]
    (RESULTS / f"{stem}.layers.txt").write_text("\n".join(table) + "\n")
    print("\n".join(table))
    metrics = {k: (v["value"], v["unit"]) for k, v in layers.items()}
    extra = {"traced_ops": len(traced), "untraced_ops": len(untraced),
             "spans": len(tracer.spans)}
    return loop, metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once in this process and print setup_s only")
    args = ap.parse_args(argv)
    _import_package()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")

    if args.setup_only:
        _, loop, setup = setup_workload(args.workload, args.seed)
        print(json.dumps({"setup_s": setup, "attempted": loop.attempted,
                          "failed": loop.failed}))
        return 0

    meta = run_meta(args.workload, args.seed, args.seconds, args.trace)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        loop, metrics, extra = traced_run(args.workload, args.seed, args.seconds, stem, meta)
    else:
        loop, metrics, extra = timed_run(args.workload, args.seed, args.seconds)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({"meta": meta, **extra, **result}, indent=2) + "\n")
    print("meta: " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
