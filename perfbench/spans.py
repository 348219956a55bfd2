"""Span recording for the traced run, and the per-layer metrics built from it.

The tracer rebinds names of the fhesim package, in the traced process only,
to wrappers that record a span per call: name, start, end, parent span, op
id and thread.  Spans stay in memory and are written out as Chrome Trace
Event JSON when the run ends.  A span's self time is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

from fhesim import ckks, modarith
from fhesim.chipletsim import Engine

SETUP = "setup"


def _observe_engine_run(tracer, args, report) -> None:
    ops = args[1]
    tracer.add_counts({
        "micro_ops": len(ops),
        "shadow_mas": sum(1 for op in ops if op.kind == "MAS" and op.duration == 0),
        "model.total_cycles": report.total_cycles,
        "model.polynomials_transferred": report.polynomials_transferred,
        "model.ntt_utilization": report.ntt_utilization,
        "engine_reports": 1,
    })


# (owner, attribute, span name, observer of (tracer, args, result))
TARGETS = [
    (modarith, "make_basis", "modarith.make_basis", None),
    (ckks, "ntt_reference", "polykernel.ntt", None),
    (ckks, "intt_reference", "polykernel.intt", None),
    (ckks, "mas", "polykernel.mas", None),
    (ckks, "automorphism_oracle", "polykernel.aut", None),
    (ckks.CkksContext, "keyswitch_full_dnum", "ckks.keyswitch", None),
    (ckks.CkksContext, "keyswitch_generic", "ckks.keyswitch", None),
    (ckks.CkksContext, "bconv_routine", "ckks.bconv", None),
    (ckks.CkksContext, "moddown", "ckks.moddown", None),
    (ckks.CkksContext, "rescale", "ckks.rescale", None),
    (ckks.CkksContext, "rotate_perm", "ckks.rotate_perm", None),
    (ckks.CkksContext, "mult", "ckks.mult", None),
    (ckks.CkksContext, "ksk1_limb", "ckks.ksk1_limb", None),
    (ckks.CkksContext, "expand_ksk1_limb", "trivium.expand", None),
    (ckks.CkksContext, "keygen", "ckks.keygen", None),
    (Engine, "run", "chipletsim.engine.run", _observe_engine_run),
    (Engine, "_report", "chipletsim.engine.report", None),
]


class Tracer:
    def __init__(self):
        # span: [name, start_ns, end_ns, parent index or -1, op id, thread id]
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.op = SETUP
        self._root = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals = [(owner, attr, owner.__dict__[attr])
                           for owner, attr, _, _ in TARGETS]
        self._wrappers = [(owner, attr, self._wrap(orig, name, observe))
                          for (owner, attr, name, observe), (_, _, orig)
                          in zip(TARGETS, self._originals)]

    # -- rebinding ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, fn in self._wrappers:
            setattr(owner, attr, fn)

    def uninstall(self) -> None:
        for owner, attr, fn in self._originals:
            setattr(owner, attr, fn)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        # A worker thread's first span hangs under the op that started it.
        parent = stack[-1] if stack else self._root
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op,
                               threading.get_ident()])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack().pop()

    def _wrap(self, fn, name: str, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                # A span of its own keeps the observer's cost out of its parent's self time.
                obs = self._open("bench.observe")
                try:
                    observe(self, args, result)
                finally:
                    self._close(obs)
            return result
        return traced

    def add_counts(self, values: dict) -> None:
        with self._lock:
            for key, v in values.items():
                self.counts[self.op][key] += v

    # -- op boundaries ------------------------------------------------------

    def begin_op(self, op_id: int, name: str) -> None:
        self.op = op_id
        self._root = -1
        self._root = self._open(name)

    def end_op(self) -> None:
        self._close(self._root)
        self._root = -1
        self.op = None

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span in ns: duration minus the union of children."""
        children = defaultdict(list)
        for idx, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(idx)
        out = []
        for idx, (_, start, end, *_rest) in enumerate(self.spans):
            covered, cur_start, cur_end = 0, None, None
            for s, e in sorted((max(self.spans[c][1], start), min(self.spans[c][2], end))
                               for c in children.get(idx, ())):
                if cur_end is None or s > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = s, e
                else:
                    cur_end = max(cur_end, e)
            if cur_end is not None:
                covered += cur_end - cur_start
            out.append(end - start - covered)
        return out

    def chrome_trace(self, meta: dict) -> dict:
        tids = {}
        events = []
        for idx, (name, start, end, parent, op, tid) in enumerate(self.spans):
            events.append({
                "name": name, "ph": "X", "pid": 1,
                "tid": tids.setdefault(tid, len(tids) + 1),
                "ts": start / 1e3, "dur": (end - start) / 1e3,
                "args": {"span": idx, "parent": parent, "op": op},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}


# Per-layer metrics, name -> unit, as BENCHMARK.json lists them.  Timings and
# counts are means per traced op unless the name is a set-up metric.
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def per_layer_units() -> dict:
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_ops: list, censuses: dict, census_want,
                  traced_ms: list, untraced_ms: list, cal_ms: list) -> dict:
    """Per-layer metrics from the spans of the traced ops.

    `censuses` maps every op id to its count_ops() census, and `census_want`
    is the opcount closed form (None for simulator workloads).  Span times
    are as measured; `cal_ms`, the calibration kernel's times, tells how
    fast the host ran meanwhile.
    """
    self_ns = tracer.self_times()
    per_op = set(traced_ops)
    calls = defaultdict(int)
    total_ns = defaultdict(int)
    own_ns = defaultdict(int)
    setup_ns = defaultdict(int)
    root_self_ns = 0
    for idx, (name, start, end, parent, op, _tid) in enumerate(tracer.spans):
        if op == SETUP:
            setup_ns[name] += end - start
        elif op in per_op:
            if parent < 0:
                root_self_ns += self_ns[idx]
                continue
            calls[name] += 1
            total_ns[name] += end - start
            own_ns[name] += self_ns[idx]
    n = len(per_op) or 1

    def ms(table, name):
        return table[name] / 1e6 / n

    counts = defaultdict(float)
    for op in per_op:
        for key, v in tracer.counts[op].items():
            counts[key] += v
    reports = counts["engine_reports"]
    # Model outputs are behaviour: take them from one op so they repeat exactly.
    model = tracer.counts[min(per_op)] if per_op else {}
    first_census = next(iter(censuses.values()), None)
    mismatch = 0
    if census_want is not None:
        mismatch = sum(1 for c in censuses.values() if c != census_want)
    ksk1 = calls["ckks.ksk1_limb"]
    expanded = calls["trivium.expand"]
    engine_run_ns = own_ns["chipletsim.engine.run"]
    values = {
        "polykernel.ntt.calls": calls["polykernel.ntt"] / n,
        "polykernel.ntt.ms": ms(total_ns, "polykernel.ntt"),
        "polykernel.intt.calls": calls["polykernel.intt"] / n,
        "polykernel.intt.ms": ms(total_ns, "polykernel.intt"),
        "polykernel.ntt.us_per_limb": _ratio(total_ns["polykernel.ntt"] / 1e3,
                                             calls["polykernel.ntt"]),
        "polykernel.mas.calls": calls["polykernel.mas"] / n,
        "polykernel.mas.ms": ms(total_ns, "polykernel.mas"),
        "polykernel.aut.calls": calls["polykernel.aut"] / n,
        "polykernel.aut.ms": ms(total_ns, "polykernel.aut"),
        "ckks.keyswitch.ms": ms(total_ns, "ckks.keyswitch"),
        "ckks.keyswitch.self_ms": ms(own_ns, "ckks.keyswitch"),
        "ckks.bconv.self_ms": ms(own_ns, "ckks.bconv"),
        "ckks.moddown.self_ms": ms(own_ns, "ckks.moddown"),
        "ckks.rescale.self_ms": ms(own_ns, "ckks.rescale"),
        "ckks.rotate_perm.self_ms": ms(own_ns, "ckks.rotate_perm"),
        "ckks.mult.ms": ms(total_ns, "ckks.mult"),
        "opcount.census_mismatch": mismatch,
        "trivium.limbs_expanded": expanded / n,
        "trivium.ms": ms(total_ns, "trivium.expand"),
        "trivium.us_per_limb": _ratio(total_ns["trivium.expand"] / 1e3, expanded),
        "ckks.ksk1_hit_ratio": _ratio(ksk1 - expanded, ksk1),
        "ckks.keygen.ms": setup_ns["ckks.keygen"] / 1e6,
        "modarith.make_basis.ms": setup_ns["modarith.make_basis"] / 1e6,
        # The op span is the sweep_chiplets call itself: its self
        # time is DAG building outside Engine.run.
        "chipletsim.schedules.build_ms": root_self_ns / 1e6 / n if reports else 0.0,
        "chipletsim.schedules.micro_ops": counts["micro_ops"] / n,
        "chipletsim.schedules.shadow_mas": counts["shadow_mas"] / n,
        "chipletsim.engine.run_ms": engine_run_ns / 1e6 / n,
        "chipletsim.engine.us_per_micro_op": _ratio(engine_run_ns / 1e3,
                                                    counts["micro_ops"]),
        "chipletsim.engine.report_ms": ms(total_ns, "chipletsim.engine.report"),
        "model.total_cycles": model.get("model.total_cycles", 0),
        "model.polynomials_transferred": model.get("model.polynomials_transferred", 0),
        "model.ntt_utilization": _ratio(model.get("model.ntt_utilization", 0),
                                        model.get("engine_reports", 0)),
        "trace.overhead_ratio": _ratio(statistics.median(traced_ms),
                                       statistics.median(untraced_ms)),
        "bench.calibration_ms": statistics.median(cal_ms),
    }
    for kind in ("NTT", "INTT", "MAS", "AUT"):
        values[f"ckks.census.{kind}"] = first_census[kind] if first_census else 0
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_units().items()}


def write_chrome_trace(tracer: Tracer, path, meta: dict) -> None:
    with open(path, "w") as fh:
        json.dump(tracer.chrome_trace(meta), fh)
