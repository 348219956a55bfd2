"""Deterministic event engine for micro-op DAGs on a multi-chiplet package.

Micro-ops occupy one resource each: a compute unit (one NTT/INTT pipeline,
a pair of MAS units, a pair of AUT units per chiplet) or a link (one C2C
egress per chiplet in a unidirectional ring, one HBM port per chiplet, one
host link).  Transform durations are N1 cycles plus a configurable
pipeline-fill constant; transfers are quantized by the link's bytes per
cycle, or to N/N2 beats in exactness mode.

Two transfer semantics exist because the dataflows differ:
  * registered sends (the ModUp ring) start only after their data dep
    finishes: the algorithm holds a received limb in a register for one
    full pass before relaying it;
  * streamed sends (feed-forward broadcasts) may start with the producing
    op and chain hop to hop, but can never finish before their upstream
    stream finishes.

Determinism contract: identical config and op list give identical reports;
ties are broken by each op's priority tuple then uid.

Event loop.  Resources get dense ids in the order of their first enqueued
op.  At each event time the engine runs passes until no op can start.  A
pass visits, in id order, only the resources that have a queued op and a
free slot, and starts on each the highest-priority queued ops its free
slots allow.  The stream dependents of the ops a pass started are
released after the pass, latest-started first, so an op they make ready
starts in the next pass at the same time.  Then the engine advances to the
next finish time, frees the finished ops' slots and enqueues the
dependents they release.  Report, event loop and DAG building are each
linear in the number of ops, apart from heap and sort logarithms.

Same-time priority inversion: an op that becomes ready later at the same
time, after a pass releases it or a BARRIER retires, cannot take a slot
that a lower-priority op took earlier at that time.  BARRIER is the only
zero-duration op the builders emit: a shadowed MAS burst is a count on the
op it hides behind (`MicroOp.mas`), retires with that op and so never
holds back a same-time choice.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from ..opcount import KINDS as COMPUTE_KINDS

LINK_KINDS = ("SEND", "HBM_RD", "HBM_WR", "HOST_RD")


class DeadlockDetected(Exception):
    """The op graph contains a dependency cycle (internal bug guard)."""


class ConfigError(ValueError):
    """A ChipletConfig field is outside the range the model can simulate."""


@dataclass
class ChipletConfig:
    n1: int = 1024
    n2: int = 64
    f_ghz: float = 1.5
    r: int = 4
    hbm_gbps: float = 1200.0      # per chiplet, aggregate over its stacks
    c2c_gbps: float = 630.0       # per ring link
    ingress_gbps: float = 128.0   # host link, initial loads only
    word_bits: int = 54
    fill_cycles: int = 0          # extra pipeline-fill per transform
    exact: bool = False           # zero fill, matched-beat transfers

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ConfigError(f"r must be at least 1, got {self.r}")
        for name in ("f_ghz", "hbm_gbps", "c2c_gbps", "ingress_gbps", "word_bits"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value!r}")
        for name in ("n1", "n2"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise ConfigError(f"{name} must be a power of two, got {value!r}")
        if self.fill_cycles < 0:
            raise ConfigError(f"fill_cycles must be non-negative, got {self.fill_cycles}")

    @property
    def n(self) -> int:
        return self.n1 * self.n2

    @property
    def poly_bytes(self) -> int:
        return -(-self.n * self.word_bits // 8)

    def _bytes_per_cycle(self, gbps: float) -> float:
        return gbps * 1e9 / (self.f_ghz * 1e9)

    def transform_cycles(self) -> int:
        return self.n1 + (0 if self.exact else self.fill_cycles)

    def beat_cycles(self) -> int:
        """One polynomial at matched on-chip throughput: N2 coefficients of
        w bits per cycle, the time of one linear op."""
        return -(-self.n // self.n2)

    def c2c_cycles(self) -> int:
        if self.exact:
            return self.beat_cycles()
        return math.ceil(self.poly_bytes / self._bytes_per_cycle(self.c2c_gbps))

    def hbm_cycles(self) -> int:
        if self.exact:
            return 0
        return math.ceil(self.poly_bytes / self._bytes_per_cycle(self.hbm_gbps))

    def bound_warnings(self, levels: int) -> List[str]:
        k = self.hbm_gbps / self.c2c_gbps
        bound = (levels + 2) / (4 * k)
        if self.r > bound:
            return [f"r={self.r} exceeds the chiplet bound (L+2)/(4k)={bound:.2f}"]
        return []

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ChipletConfig":
        """The config a JSON document describes; a free-text "comment" is the
        one key besides the fields, so a misspelt field is an error."""
        unknown = sorted(set(doc) - set(cls.__dataclass_fields__) - {"comment"})
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; "
                              f"expected {sorted(cls.__dataclass_fields__)}")
        return cls(**{k: doc[k] for k in doc if k != "comment"})


@dataclass(slots=True)
class MicroOp:
    uid: int
    kind: str
    resource: str
    duration: int
    deps: List[int] = field(default_factory=list)
    stream_deps: List[int] = field(default_factory=list)
    priority: Tuple = ()
    chiplet: Optional[int] = None
    phase: str = ""
    limb: Optional[int] = None
    digit: Optional[int] = None
    nbytes: int = 0
    mas: int = 0    # zero-time MAS ops in this op's shadow, finishing with it


class ScheduleBuilder:
    """Accumulates micro-ops; resources are named strings.

    Resource names: "ntt:<i>", "mas:<i>", "aut:<i>", "c2c:<i>" (egress of
    chiplet i), "hbm:<i>", "host".
    """

    def __init__(self, cfg: ChipletConfig):
        self.cfg = cfg
        self.ops: List[MicroOp] = []
        self._prev_ntt: Dict[str, int] = {}
        # durations and sizes depend only on the config: derive them once
        self.transform_cycles = cfg.transform_cycles()
        self.c2c_cycles = cfg.c2c_cycles()
        self.hbm_cycles = cfg.hbm_cycles()
        self.poly_bytes = cfg.poly_bytes

    def add(self, kind: str, resource: str, duration: int, deps: Sequence[int] = (),
            stream_deps: Sequence[int] = (), priority: Tuple = (), chiplet: int | None = None,
            phase: str = "", limb: int | None = None, digit: int | None = None,
            nbytes: int = 0, mas: int = 0) -> int:
        uid = len(self.ops)
        deps = list(deps)
        if resource.startswith("ntt:"):
            # the NTT/INTT pipeline executes its static microcode in order
            prev = self._prev_ntt.get(resource)
            if prev is not None and prev not in deps:
                deps.append(prev)
            self._prev_ntt[resource] = uid
        self.ops.append(MicroOp(uid, kind, resource, duration, deps, list(stream_deps),
                                (*priority, uid), chiplet, phase, limb, digit, nbytes, mas))
        return uid

    def last_ntt(self, chiplet: int) -> Optional[int]:
        return self._prev_ntt.get(f"ntt:{chiplet}")

    def transform(self, kind: str, chiplet: int, deps: Sequence[int] = (),
                  priority: Tuple = (), phase: str = "", limb: int | None = None,
                  digit: int | None = None, mas: int = 0) -> int:
        return self.add(kind, f"ntt:{chiplet}", self.transform_cycles, deps=deps,
                        priority=priority, chiplet=chiplet, phase=phase, limb=limb,
                        digit=digit, mas=mas)

    def send(self, src: int, deps: Sequence[int] = (), stream_deps: Sequence[int] = (),
             priority: Tuple = (), phase: str = "", limb: int | None = None,
             digit: int | None = None) -> int:
        return self.add("SEND", f"c2c:{src}", self.c2c_cycles, deps=deps,
                        stream_deps=stream_deps, priority=priority, chiplet=src,
                        phase=phase, limb=limb, digit=digit, nbytes=self.poly_bytes)

    def hbm_read(self, chiplet: int, deps: Sequence[int] = (), priority: Tuple = (),
                 phase: str = "") -> int | None:
        if self.cfg.exact:
            return None
        return self.add("HBM_RD", f"hbm:{chiplet}", self.hbm_cycles, deps=deps,
                        priority=priority, chiplet=chiplet, phase=phase,
                        nbytes=self.poly_bytes)


@dataclass
class CycleReport:
    total_cycles: int
    wall_time_ms: float
    per_chiplet: List[Dict[str, int]]
    stall_by_phase: Dict[str, int]
    links: Dict[str, Dict[str, int]]
    polynomials_transferred: int
    ntt_utilization: float
    op_counts: Dict[str, int]
    phase_cycles: Dict[str, int]
    meta: dict = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    timeline: Optional[List[dict]] = None

    def to_json_dict(self) -> dict:
        """Every field but the timeline, which timeline_csv writes."""
        return {"schema": 1, **{f.name: getattr(self, f.name) for f in fields(self)
                                if f.name != "timeline"}}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, default=str)

    def timeline_csv(self) -> str:
        rows = ["op,chiplet,resource,kind,phase,limb,digit,start,end"]
        for t in self.timeline or []:
            rows.append("{uid},{chiplet},{resource},{kind},{phase},{limb},{digit},"
                        "{start},{end}".format(**t))
        return "\n".join(rows) + "\n"


_CAPACITY = {"ntt": 1, "mas": 2, "aut": 2, "c2c": 1, "hbm": 1, "host": 1, "barrier": 1 << 30}


class Engine:
    def __init__(self, cfg: ChipletConfig):
        self.cfg = cfg

    def run(self, ops: List[MicroOp], meta: dict | None = None,
            with_timeline: bool = False) -> CycleReport:
        heappush, heappop = heapq.heappush, heapq.heappop
        n_ops = len(ops)
        start = [-1] * n_ops
        finish = [-1] * n_ops
        ready_at = [-1] * n_ops
        waiting_deps = [len(op.deps) + len(op.stream_deps) for op in ops]
        dep_children: List[List[int]] = [[] for _ in range(n_ops)]
        stream_children: List[List[int]] = [[] for _ in range(n_ops)]
        for op in ops:
            for d in op.deps:
                dep_children[d].append(op.uid)
            for d in op.stream_deps:
                stream_children[d].append(op.uid)

        # Resources get dense ids in first-enqueue order.
        res_id: Dict[str, int] = {}
        queues: List[list] = []        # per resource: heap of (priority, uid)
        free: List[int] = []           # per resource: idle slots
        op_res = [-1] * n_ops          # resource id of each enqueued op
        ready: set = set()             # resources with a queued op and a free slot
        events: list = []              # heap of (finish, start seq, uid)

        def enqueue(uid: int, now: int) -> None:
            op = ops[uid]
            rid = res_id.get(op.resource)
            if rid is None:
                rid = res_id[op.resource] = len(queues)
                queues.append([])
                free.append(_CAPACITY[op.resource.split(":")[0]])
            op_res[uid] = rid
            ready_at[uid] = now
            heappush(queues[rid], (op.priority, uid))
            if free[rid]:
                ready.add(rid)

        for op in ops:
            if waiting_deps[op.uid] == 0:
                enqueue(op.uid, 0)

        seq = 0
        done = 0
        now = 0
        while True:
            # passes at the current time, until no resource can start an op
            while ready:
                started = []
                for rid in sorted(ready):
                    q = queues[rid]
                    slots = free[rid]
                    while q and slots:
                        uid = heappop(q)[1]
                        slots -= 1
                        op = ops[uid]
                        start[uid] = now
                        end = now + op.duration
                        for sd in op.stream_deps:
                            if finish[sd] > end:
                                end = finish[sd]
                        finish[uid] = end
                        seq += 1
                        heappush(events, (end, seq, uid))
                        started.append(uid)
                    free[rid] = slots
                ready.clear()
                # notify stream dependents that their producer has started
                for uid in reversed(started):
                    for child in stream_children[uid]:
                        waiting_deps[child] -= 1
                        if waiting_deps[child] == 0:
                            enqueue(child, now)
            if done == n_ops:
                break
            if not events:
                raise DeadlockDetected(
                    f"{n_ops - done} ops unscheduled with no pending events")
            now = events[0][0]
            while events and events[0][0] == now:
                uid = heappop(events)[2]
                done += 1
                rid = op_res[uid]
                free[rid] += 1
                if queues[rid]:
                    ready.add(rid)
                for child in dep_children[uid]:
                    waiting_deps[child] -= 1
                    if waiting_deps[child] == 0:
                        enqueue(child, now)

        return self._report(ops, start, finish, ready_at, meta or {}, with_timeline)

    # ------------------------------------------------------------------

    def _report(self, ops, start, finish, ready_at, meta, with_timeline) -> CycleReport:
        cfg = self.cfg
        units: Dict[str, List[int]] = {f"ntt:{ci}": [] for ci in range(cfg.r)}
        makespan = 0
        links: Dict[str, Dict[str, int]] = {}
        polys = 0
        op_counts: Dict[str, int] = {}
        phase_span: Dict[str, List[int]] = {}   # first start, last finish
        for op in ops:
            uid = op.uid
            # wall time ends when the last op someone consumes (or any compute
            # op) retires; closing ring hops may drain the links afterwards.
            for d in op.deps:
                if finish[d] > makespan:
                    makespan = finish[d]
            for d in op.stream_deps:
                if finish[d] > makespan:
                    makespan = finish[d]
            kind = op.kind
            compute = kind in COMPUTE_KINDS
            if compute or op.mas:
                # a shadowed MAS burst retires with its carrier, even a SEND
                end = finish[uid]
                first = start[uid] if compute else end
                if end > makespan:
                    makespan = end
                if compute:
                    op_counts[kind] = op_counts.get(kind, 0) + 1
                if op.mas:
                    op_counts["MAS"] = op_counts.get("MAS", 0) + op.mas
                if op.phase:
                    span = phase_span.get(op.phase)
                    if span is None:
                        phase_span[op.phase] = [first, end]
                    else:
                        span[0] = min(span[0], first)
                        span[1] = max(span[1], end)
            if kind in LINK_KINDS:
                entry = links.get(op.resource)
                if entry is None:
                    entry = links[op.resource] = {"bytes": 0, "busy_cycles": 0,
                                                  "sends": 0}
                entry["bytes"] += op.nbytes
                entry["busy_cycles"] += finish[uid] - start[uid]
                entry["sends"] += 1
                if kind == "SEND":
                    polys += 1
            unit = units.get(op.resource)
            if unit is not None:
                unit.append(uid)

        def blocking_link_dep(uid: int, gap_start: int) -> bool:
            # A gap is a link stall only if some link dep finished inside it
            # while having been ready to transfer before the unit went idle;
            # waits for data that did not yet exist are latency, not stalls.
            for d in ops[uid].deps + ops[uid].stream_deps:
                if ops[d].kind in LINK_KINDS and finish[d] > gap_start \
                        and ready_at[d] <= gap_start:
                    return True
            return False

        per_chiplet = []
        stall_by_phase: Dict[str, int] = {}
        total_busy_ntt = 0
        for unit_ops in units.values():
            unit_ops.sort(key=start.__getitem__)
            busy = sum(finish[u] - start[u] for u in unit_ops)
            stall = 0
            prev_end = 0
            for u in unit_ops:
                gap = start[u] - prev_end
                if gap > 0 and blocking_link_dep(u, prev_end):
                    stall += gap
                    ph = ops[u].phase or "other"
                    stall_by_phase[ph] = stall_by_phase.get(ph, 0) + gap
                prev_end = max(prev_end, finish[u])
            idle = makespan - busy - stall
            per_chiplet.append({"busy": busy, "stall": stall, "idle": idle})
            total_busy_ntt += busy

        phase_cycles = {ph: last - first for ph, (first, last) in phase_span.items()}
        util = total_busy_ntt / (cfg.r * makespan) if makespan else 0.0
        timeline = None
        if with_timeline:
            timeline = [{
                "uid": op.uid, "chiplet": op.chiplet if op.chiplet is not None else "",
                "resource": op.resource, "kind": op.kind, "phase": op.phase,
                "limb": op.limb if op.limb is not None else "",
                "digit": op.digit if op.digit is not None else "",
                "start": start[op.uid], "end": finish[op.uid],
            } for op in sorted(ops, key=lambda o: (start[o.uid], o.uid))]

        return CycleReport(
            total_cycles=makespan,
            wall_time_ms=makespan / (cfg.f_ghz * 1e9) * 1e3,
            per_chiplet=per_chiplet,
            stall_by_phase=stall_by_phase,
            links=links,
            polynomials_transferred=polys,
            ntt_utilization=util,
            op_counts=op_counts,
            phase_cycles=phase_cycles,
            meta=meta,
            warnings=list(meta.get("warnings", ())),
            timeline=timeline,
        )
