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

DAG storage.  A ScheduleBuilder is the DAG it builds: one list per op
field, indexed by uid.  Every entry is a string, an int, None or a tuple
of ints, which the cyclic garbage collector stops tracking once it has
seen it, so a built DAG holds the same few tracked objects at any size.
The engine and the report keep their state in per-DAG lists too (children
in compressed rows, queue heaps of the ops' priority tuples, an event heap
of ints) and make no object per op.

Event loop.  Resources get dense ids in the order of their first enqueued
op.  At each event time the engine runs passes until no op can start.  A
pass visits, in id order, only the resources that have a queued op and a
free slot, and starts on each the highest-priority queued ops its free
slots allow.  The stream dependents of the ops a pass started are
released after the pass, latest-started first, so an op they make ready
starts in the next pass at the same time.  Then the engine advances to the
next finish time, frees the finished ops' slots and enqueues the
dependents they release.  DAG building, event loop and report are each
linear in the number of ops and deps, apart from heap and sort
logarithms; with no object per op, the collector's share stays flat too.

Same-time priority inversion: an op that becomes ready later at the same
time, after a pass releases it or a BARRIER retires, cannot take a slot
that a lower-priority op took earlier at that time.  BARRIER is the only
zero-duration op the builders emit: a shadowed MAS burst is a count on the
op it hides behind (its `mas` entry), retires with that op and so never
holds back a same-time choice.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import asdict, dataclass, field, fields
from itertools import accumulate, chain, compress, count
from operator import add
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..opcount import KINDS as COMPUTE_KINDS

LINK_KINDS = ("SEND", "HBM_RD", "HBM_WR", "HOST_RD")


class DeadlockDetected(Exception):
    """The op graph contains a dependency cycle (internal bug guard)."""


class ConfigError(ValueError):
    """A ChipletConfig field is outside the range the model can simulate."""


_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool}


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
        # JSON gives "false" or 2.5 as readily as false or 2: check each
        # field against its annotation first, so such a value is refused
        # rather than read as truthy, as 1 or as a float cycle count
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _FIELD_TYPES[f.type]) \
                    or isinstance(value, bool) != (f.type == "bool"):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
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


class MicroOp(NamedTuple):
    """One op of a DAG, as iterating a ScheduleBuilder yields it: a
    read-only row of the builder's columns."""
    uid: int
    kind: str
    resource: str
    duration: int
    deps: Tuple[int, ...]
    stream_deps: Tuple[int, ...]
    priority: Tuple[int, ...]   # as given, then the uid
    chiplet: Optional[int]
    phase: str
    limb: Optional[int]
    digit: Optional[int]
    nbytes: int
    mas: int    # zero-time MAS ops in this op's shadow, finishing with it


class ScheduleBuilder:
    """Accumulates micro-ops into the DAG that Engine.run takes.

    The DAG is stored by column: op uid's kind is kinds[uid], and likewise
    for resources, durations, deps, stream_deps, priorities, chiplets,
    phases, limbs, digits, nbytes and mas.  Resource names: "ntt:<i>",
    "mas:<i>", "aut:<i>", "c2c:<i>" (egress of chiplet i), "hbm:<i>", "host".
    """

    def __init__(self, cfg: ChipletConfig):
        self.cfg = cfg
        self.kinds: List[str] = []
        self.resources: List[str] = []
        self.durations: List[int] = []
        self.deps: List[Tuple[int, ...]] = []
        self.stream_deps: List[Tuple[int, ...]] = []
        self.priorities: List[Tuple[int, ...]] = []
        self.chiplets: List[Optional[int]] = []
        self.phases: List[str] = []
        self.limbs: List[Optional[int]] = []
        self.digits: List[Optional[int]] = []
        self.nbytes: List[int] = []
        self.mas: List[int] = []
        self._prev_ntt: Dict[str, int] = {}
        self._ntt = [f"ntt:{i}" for i in range(cfg.r)]
        self._c2c = [f"c2c:{i}" for i in range(cfg.r)]
        self._hbm = [f"hbm:{i}" for i in range(cfg.r)]
        # durations and sizes depend only on the config: derive them once
        self.transform_cycles = cfg.transform_cycles()
        self.c2c_cycles = cfg.c2c_cycles()
        self.hbm_cycles = cfg.hbm_cycles()
        self.poly_bytes = cfg.poly_bytes

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[MicroOp]:
        return map(MicroOp, count(), self.kinds, self.resources, self.durations,
                   self.deps, self.stream_deps, self.priorities, self.chiplets,
                   self.phases, self.limbs, self.digits, self.nbytes, self.mas)

    def _append(self, kind: str, resource: str, duration: int, deps: Tuple[int, ...],
                stream_deps: Tuple[int, ...], priority: Tuple, chiplet: int | None,
                phase: str, limb: int | None, digit: int | None, nbytes: int,
                mas: int) -> int:
        uid = len(self.kinds)
        self.kinds.append(kind)
        self.resources.append(resource)
        self.durations.append(duration)
        self.deps.append(deps)
        self.stream_deps.append(stream_deps)
        self.priorities.append((*priority, uid))
        self.chiplets.append(chiplet)
        self.phases.append(phase)
        self.limbs.append(limb)
        self.digits.append(digit)
        self.nbytes.append(nbytes)
        self.mas.append(mas)
        return uid

    def _chain(self, resource: str, deps: Tuple[int, ...]) -> Tuple[int, ...]:
        """deps and the previous op on NTT/INTT pipeline `resource`, which
        executes its static microcode in order."""
        prev = self._prev_ntt.get(resource)
        self._prev_ntt[resource] = len(self.kinds)
        return deps if prev is None or prev in deps else deps + (prev,)

    def add(self, kind: str, resource: str, duration: int, deps: Sequence[int] = (),
            stream_deps: Sequence[int] = (), priority: Tuple = (), chiplet: int | None = None,
            phase: str = "", limb: int | None = None, digit: int | None = None,
            nbytes: int = 0, mas: int = 0) -> int:
        deps = tuple(deps)
        if resource.startswith("ntt:"):
            deps = self._chain(resource, deps)
        return self._append(kind, resource, duration, deps, tuple(stream_deps),
                            priority, chiplet, phase, limb, digit, nbytes, mas)

    def last_ntt(self, chiplet: int) -> Optional[int]:
        return self._prev_ntt.get(self._ntt[chiplet])

    def transform(self, kind: str, chiplet: int, deps: Sequence[int] = (),
                  priority: Tuple = (), phase: str = "", limb: int | None = None,
                  digit: int | None = None, mas: int = 0) -> int:
        resource = self._ntt[chiplet]
        return self._append(kind, resource, self.transform_cycles,
                            self._chain(resource, tuple(deps)), (), priority, chiplet,
                            phase, limb, digit, 0, mas)

    def send(self, src: int, deps: Sequence[int] = (), stream_deps: Sequence[int] = (),
             priority: Tuple = (), phase: str = "", limb: int | None = None,
             digit: int | None = None) -> int:
        return self._append("SEND", self._c2c[src], self.c2c_cycles, tuple(deps),
                            tuple(stream_deps), priority, src, phase, limb, digit,
                            self.poly_bytes, 0)

    def hbm_read(self, chiplet: int, deps: Sequence[int] = (), priority: Tuple = (),
                 phase: str = "") -> Tuple[int, ...]:
        """A consumer's deps on one HBM read; none in exact mode."""
        if self.cfg.exact:
            return ()
        return (self._append("HBM_RD", self._hbm[chiplet], self.hbm_cycles, tuple(deps),
                             (), priority, chiplet, phase, None, None, self.poly_bytes, 0),)


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
    # references to the run's start and finish lists, then to the DAG
    # columns of _TIMELINE_KEYS, which the timeline reads on demand
    _run: tuple = field(default=((), ()), repr=False)
    _TIMELINE_KEYS = ("chiplet", "resource", "kind", "phase", "limb", "digit")

    def to_json_dict(self) -> dict:
        """Every field but the run state, whose view timeline_csv writes."""
        return {"schema": 1, **{f.name: getattr(self, f.name) for f in fields(self)
                                if f.name != "_run"}}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, default=str)

    @property
    def timeline(self) -> List[dict]:
        """One row per op of the run, by start time, ties by uid (a stable sort)."""
        start, finish, *columns = self._run
        return [{"uid": uid, **{key: "" if col[uid] is None else col[uid]
                                for key, col in zip(self._TIMELINE_KEYS, columns)},
                 "start": start[uid], "end": finish[uid]}
                for uid in sorted(range(len(start)), key=start.__getitem__)]

    def timeline_csv(self) -> str:
        rows = ["op,chiplet,resource,kind,phase,limb,digit,start,end"]
        for t in self.timeline:
            rows.append("{uid},{chiplet},{resource},{kind},{phase},{limb},{digit},"
                        "{start},{end}".format(**t))
        return "\n".join(rows) + "\n"


_CAPACITY = {"ntt": 1, "mas": 2, "aut": 2, "c2c": 1, "hbm": 1, "host": 1, "barrier": 1 << 30}


def _children(parents: Sequence[Tuple[int, ...]]) -> Tuple[List[int], List[int]]:
    """Each op's children in compressed rows: those of op u are
    children[first[u]:first[u + 1]], in uid order."""
    n_ops = len(parents)
    first = [0] * (n_ops + 1)
    for d in chain.from_iterable(parents):
        first[d + 1] += 1
    first = list(accumulate(first))
    fill = first[:]
    children = [0] * first[-1]
    for uid in compress(range(n_ops), parents):    # the ops with parents
        for d in parents[uid]:
            children[fill[d]] = uid
            fill[d] += 1
    return first, children


class Engine:
    def __init__(self, cfg: ChipletConfig):
        self.cfg = cfg

    def run(self, dag: ScheduleBuilder, meta: dict | None = None) -> CycleReport:
        heappush, heappop = heapq.heappush, heapq.heappop
        resources, durations = dag.resources, dag.durations
        priorities, stream_deps = dag.priorities, dag.stream_deps
        n_ops = len(dag)
        start = [-1] * n_ops
        finish = [-1] * n_ops
        ready_at = [-1] * n_ops
        waiting_deps = list(map(add, map(len, dag.deps), map(len, stream_deps)))
        dep_first, dep_children = _children(dag.deps)
        stream_first, stream_children = _children(stream_deps)

        # Resources get dense ids in first-enqueue order.
        res_id: Dict[str, int] = {}
        queues: List[list] = []        # per resource: heap of priorities (uid last)
        free: List[int] = []           # per resource: idle slots
        op_res = [-1] * n_ops          # resource id of each enqueued op
        ready: set = set()             # resources with a queued op and a free slot
        # An event is finish * stride + seq, where started[seq] is the seq-th
        # op to start: finish time first, then start order.
        stride = n_ops + 1
        events: List[int] = []
        started: List[int] = []

        def enqueue(uid: int, now: int) -> None:
            resource = resources[uid]
            rid = res_id.get(resource)
            if rid is None:
                rid = res_id[resource] = len(queues)
                queues.append([])
                free.append(_CAPACITY[resource.split(":")[0]])
            op_res[uid] = rid
            ready_at[uid] = now
            heappush(queues[rid], priorities[uid])
            if free[rid]:
                ready.add(rid)

        for uid in range(n_ops):
            if waiting_deps[uid] == 0:
                enqueue(uid, 0)

        done = 0
        now = 0
        while True:
            # passes at the current time, until no resource can start an op
            while ready:
                first_started = len(started)
                for rid in sorted(ready):
                    q = queues[rid]
                    slots = free[rid]
                    while q and slots:
                        uid = heappop(q)[-1]
                        slots -= 1
                        start[uid] = now
                        end = now + durations[uid]
                        for sd in stream_deps[uid]:
                            if finish[sd] > end:
                                end = finish[sd]
                        finish[uid] = end
                        heappush(events, end * stride + len(started))
                        started.append(uid)
                    free[rid] = slots
                ready.clear()
                # notify stream dependents that their producer has started
                for uid in reversed(started[first_started:]):
                    for child in stream_children[stream_first[uid]:stream_first[uid + 1]]:
                        waiting_deps[child] -= 1
                        if waiting_deps[child] == 0:
                            enqueue(child, now)
            if done == n_ops:
                break
            if not events:
                raise DeadlockDetected(
                    f"{n_ops - done} ops unscheduled with no pending events")
            now = events[0] // stride
            later = (now + 1) * stride
            while events and events[0] < later:
                uid = started[heappop(events) % stride]
                done += 1
                rid = op_res[uid]
                free[rid] += 1
                if queues[rid]:
                    ready.add(rid)
                for child in dep_children[dep_first[uid]:dep_first[uid + 1]]:
                    waiting_deps[child] -= 1
                    if waiting_deps[child] == 0:
                        enqueue(child, now)

        return self._report(dag, start, finish, ready_at, dep_first, stream_first,
                            meta or {})

    # ------------------------------------------------------------------

    def _report(self, dag, start, finish, ready_at, dep_first, stream_first,
                meta) -> CycleReport:
        cfg = self.cfg
        kinds, resources, phases = dag.kinds, dag.resources, dag.phases
        units: Dict[str, List[int]] = {f"ntt:{ci}": [] for ci in range(cfg.r)}
        makespan = 0
        links: Dict[str, Dict[str, int]] = {}
        polys = 0
        op_counts: Dict[str, int] = {}
        phase_span: Dict[str, List[int]] = {}   # first start, last finish
        for uid, kind, resource, phase, mas, nbytes in zip(count(), kinds, resources,
                                                           phases, dag.mas, dag.nbytes):
            end = finish[uid]
            # wall time ends when the last op someone consumes (or any compute
            # op) retires; closing ring hops may drain the links afterwards.
            if end > makespan and (dep_first[uid] < dep_first[uid + 1]
                                   or stream_first[uid] < stream_first[uid + 1]):
                makespan = end
            compute = kind in COMPUTE_KINDS
            if compute or mas:
                # a shadowed MAS burst retires with its carrier, even a SEND
                first = start[uid] if compute else end
                if end > makespan:
                    makespan = end
                if compute:
                    op_counts[kind] = op_counts.get(kind, 0) + 1
                if mas:
                    op_counts["MAS"] = op_counts.get("MAS", 0) + mas
                if phase:
                    span = phase_span.get(phase)
                    if span is None:
                        phase_span[phase] = [first, end]
                    else:
                        span[0] = min(span[0], first)
                        span[1] = max(span[1], end)
            if kind in LINK_KINDS:
                entry = links.get(resource)
                if entry is None:
                    entry = links[resource] = {"bytes": 0, "busy_cycles": 0, "sends": 0}
                entry["bytes"] += nbytes
                entry["busy_cycles"] += end - start[uid]
                entry["sends"] += 1
                if kind == "SEND":
                    polys += 1
            unit = units.get(resource)
            if unit is not None:
                unit.append(uid)

        def blocking_link_dep(uid: int, gap_start: int) -> bool:
            # A gap is a link stall only if some link dep finished inside it
            # while having been ready to transfer before the unit went idle;
            # waits for data that did not yet exist are latency, not stalls.
            for d in dag.deps[uid] + dag.stream_deps[uid]:
                if kinds[d] in LINK_KINDS and finish[d] > gap_start \
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
                    ph = phases[u] or "other"
                    stall_by_phase[ph] = stall_by_phase.get(ph, 0) + gap
                prev_end = max(prev_end, finish[u])
            idle = makespan - busy - stall
            per_chiplet.append({"busy": busy, "stall": stall, "idle": idle})
            total_busy_ntt += busy

        phase_cycles = {ph: last - first for ph, (first, last) in phase_span.items()}
        util = total_busy_ntt / (cfg.r * makespan) if makespan else 0.0
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
            _run=(start, finish, dag.chiplets, resources, kinds, phases, dag.limbs,
                  dag.digits),
        )
