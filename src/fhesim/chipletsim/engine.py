"""Deterministic event engine for micro-op DAGs on a multi-chiplet package.

Micro-ops occupy one resource each: a compute unit (one NTT/INTT pipeline,
a pair of MAS units, a pair of AUT units per chiplet) or a link (one C2C
egress per chiplet in a unidirectional ring, one HBM port per chiplet, one
host link).  A transform takes N1 cycles; transfers are quantized by the
link's bytes per cycle, or to N/N2 beats in exactness mode.

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
A run keeps its state in per-DAG lists too (start, finish and ready times,
queue heaps of the ops' priority tuples, an event heap of ints); the only
objects it makes per op are two lists of child uids, by deps and by
stream deps, which it drops when it returns.

Event loop.  Resources get dense ids in the order of their first enqueued
op.  At each event time the engine runs passes until no op can start.  A
pass visits, in id order, only the resources that have a queued op and a
free slot, and starts on each the highest-priority queued ops its free
slots allow.  The stream children of the ops a pass started are released
after the pass, latest-started first, so an op they make ready starts in
the next pass at the same time.  Then the engine advances to the next
finish time, frees the finished ops' slots and enqueues the dep children
they release.  DAG building, event loop and report are each linear in the
number of ops and deps, apart from heap and sort logarithms.

Report.  Engine._report computes only the summary every caller reads:
cycles, wall time, polynomials transferred, NTT utilization and op counts,
each from passes over the DAG columns that run in C (map, compress,
list.count).  The report keeps the DAG it ran, the chiplet count and the
run's start, finish and ready-time lists; every other field is a view that
reads the DAG's columns, computed on first read and then kept:
per_chiplet with stall_by_phase, links with phase_cycles.  The timeline is
built on each read.  A chiplet sweep, which reads the summary only, never
runs the stall, link or phase passes.

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
from functools import cached_property
from itertools import compress, count
from operator import add, or_, truth
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..opcount import KINDS as COMPUTE_KINDS, check_positive_finite

LINK_KINDS = ("SEND", "HBM_RD", "HBM_WR", "HOST_RD")
_COMPUTE = frozenset(COMPUTE_KINDS)
_LINKS = frozenset(LINK_KINDS)


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
    exact: bool = False           # matched-beat transfers, no HBM time

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
            check_positive_finite(getattr(self, name), name, ConfigError)
        for name in ("n1", "n2"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise ConfigError(f"{name} must be a power of two, got {value!r}")

    @property
    def n(self) -> int:
        return self.n1 * self.n2

    @property
    def poly_bytes(self) -> int:
        return -(-self.n * self.word_bits // 8)

    def _bytes_per_cycle(self, gbps: float) -> float:
        return gbps * 1e9 / (self.f_ghz * 1e9)

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


def _chiplet(resource: str) -> Optional[int]:
    """The i of a resource named "<unit>:<i>"; None for "host" and "barrier"."""
    _, _, i = resource.partition(":")
    return int(i) if i else None


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
    phase: str
    limb: Optional[int]
    digit: Optional[int]
    nbytes: int
    mas: int    # zero-time MAS ops in this op's shadow, finishing with it

    @property
    def chiplet(self) -> Optional[int]:
        return _chiplet(self.resource)


class ScheduleBuilder:
    """Accumulates micro-ops into the DAG that Engine.run takes.

    The DAG is stored by column: op uid's kind is kinds[uid], and likewise
    for resources, durations, deps, stream_deps, priorities, phases, limbs,
    digits, nbytes and mas.  Resource names: "ntt:<i>", "mas:<i>", "aut:<i>",
    "c2c:<i>" (egress of chiplet i), "hbm:<i>", "host" and "barrier"; an op's
    chiplet is the i of its resource, none for "host" and "barrier".
    """

    def __init__(self, cfg: ChipletConfig):
        self.cfg = cfg
        self.kinds: List[str] = []
        self.resources: List[str] = []
        self.durations: List[int] = []
        self.deps: List[Tuple[int, ...]] = []
        self.stream_deps: List[Tuple[int, ...]] = []
        self.priorities: List[Tuple[int, ...]] = []
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
        self.transform_cycles = cfg.n1
        self.c2c_cycles = cfg.c2c_cycles()
        self.hbm_cycles = cfg.hbm_cycles()
        self.poly_bytes = cfg.poly_bytes

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[MicroOp]:
        return map(MicroOp, count(), self.kinds, self.resources, self.durations,
                   self.deps, self.stream_deps, self.priorities, self.phases, self.limbs,
                   self.digits, self.nbytes, self.mas)

    def _append(self, kind: str, resource: str, duration: int, deps: Tuple[int, ...],
                stream_deps: Tuple[int, ...], priority: Tuple, phase: str,
                limb: int | None, digit: int | None, nbytes: int, mas: int) -> int:
        uid = len(self.kinds)
        self.kinds.append(kind)
        self.resources.append(resource)
        self.durations.append(duration)
        self.deps.append(deps)
        self.stream_deps.append(stream_deps)
        self.priorities.append((*priority, uid))
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
            stream_deps: Sequence[int] = (), priority: Tuple = (), phase: str = "",
            limb: int | None = None, digit: int | None = None, nbytes: int = 0,
            mas: int = 0) -> int:
        deps = tuple(deps)
        if resource.startswith("ntt:"):
            deps = self._chain(resource, deps)
        return self._append(kind, resource, duration, deps, tuple(stream_deps),
                            priority, phase, limb, digit, nbytes, mas)

    def last_ntt(self, chiplet: int) -> Optional[int]:
        return self._prev_ntt.get(self._ntt[chiplet])

    def transform(self, kind: str, chiplet: int, deps: Sequence[int] = (),
                  priority: Tuple = (), phase: str = "", limb: int | None = None,
                  digit: int | None = None, mas: int = 0) -> int:
        resource = self._ntt[chiplet]
        return self._append(kind, resource, self.transform_cycles,
                            self._chain(resource, tuple(deps)), (), priority, phase,
                            limb, digit, 0, mas)

    def send(self, src: int, deps: Sequence[int] = (), stream_deps: Sequence[int] = (),
             priority: Tuple = (), phase: str = "", limb: int | None = None,
             digit: int | None = None) -> int:
        return self._append("SEND", self._c2c[src], self.c2c_cycles, tuple(deps),
                            tuple(stream_deps), priority, phase, limb, digit,
                            self.poly_bytes, 0)

    def hbm_read(self, chiplet: int, deps: Sequence[int] = (), priority: Tuple = (),
                 phase: str = "") -> Tuple[int, ...]:
        """A consumer's deps on one HBM read; none in exact mode."""
        if self.cfg.exact:
            return ()
        return (self._append("HBM_RD", self._hbm[chiplet], self.hbm_cycles, tuple(deps),
                             (), priority, phase, None, None, self.poly_bytes, 0),)


@dataclass
class CycleReport:
    """A run's summary, computed with the run, and its views, each computed
    from the run state on first read: per_chiplet with stall_by_phase,
    links with phase_cycles, and timeline.  The run state is the DAG that
    ran, whose config gives the chiplet count, and, per uid, the start,
    finish and ready times; the DAG may grow after the run, so a view reads
    only the first len(start) ops."""
    total_cycles: int
    wall_time_ms: float
    polynomials_transferred: int
    ntt_utilization: float
    op_counts: Dict[str, int]
    _dag: ScheduleBuilder = field(repr=False, compare=False)
    _start: List[int] = field(repr=False)
    _finish: List[int] = field(repr=False)
    _ready_at: List[int] = field(repr=False)
    meta: dict = field(default_factory=dict)
    _JSON_KEYS = ("total_cycles", "wall_time_ms", "per_chiplet", "stall_by_phase", "links",
                  "polynomials_transferred", "ntt_utilization", "op_counts", "phase_cycles",
                  "meta", "warnings")

    def to_json_dict(self) -> dict:
        """The summary and the stall, link and phase views; timeline_csv
        writes the timeline."""
        return {"schema": 1, **{key: getattr(self, key) for key in self._JSON_KEYS}}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, default=str)

    @property
    def warnings(self) -> List[str]:
        """The bound warnings the schedule gave in meta."""
        return self.meta.get("warnings", [])

    @cached_property
    def _stalls(self) -> Tuple[List[Dict[str, int]], Dict[str, int]]:
        return _stall_view(self._dag, self._start, self._finish, self._ready_at,
                           self.total_cycles)

    @property
    def per_chiplet(self) -> List[Dict[str, int]]:
        """Busy, stall and idle cycles of each chiplet's NTT unit."""
        return self._stalls[0]

    @property
    def stall_by_phase(self) -> Dict[str, int]:
        return self._stalls[1]

    @cached_property
    def _links_and_phases(self) -> Tuple[Dict[str, Dict[str, int]], Dict[str, int]]:
        return _link_phase_view(self._dag, self._start, self._finish)

    @property
    def links(self) -> Dict[str, Dict[str, int]]:
        """Bytes, busy cycles and transfers of each link, by first use."""
        return self._links_and_phases[0]

    @property
    def phase_cycles(self) -> Dict[str, int]:
        return self._links_and_phases[1]

    @property
    def timeline(self) -> List[dict]:
        """One row per op of the run, by start time, ties by uid (a stable sort)."""
        dag, start, finish = self._dag, self._start, self._finish
        columns = {"chiplet": list(map(_chiplet, dag.resources)), "resource": dag.resources,
                   "kind": dag.kinds, "phase": dag.phases, "limb": dag.limbs, "digit": dag.digits}
        return [{"uid": uid, **{key: "" if col[uid] is None else col[uid]
                                for key, col in columns.items()},
                 "start": start[uid], "end": finish[uid]}
                for uid in sorted(range(len(start)), key=start.__getitem__)]

    def timeline_csv(self) -> str:
        rows = ["op,chiplet,resource,kind,phase,limb,digit,start,end"]
        for t in self.timeline:
            rows.append("{uid},{chiplet},{resource},{kind},{phase},{limb},{digit},"
                        "{start},{end}".format(**t))
        return "\n".join(rows) + "\n"


def _stall_view(dag: ScheduleBuilder, start: List[int], finish: List[int],
                ready_at: List[int], makespan: int
                ) -> Tuple[List[Dict[str, int]], Dict[str, int]]:
    """per_chiplet and stall_by_phase.  A gap before an op on an NTT unit is
    a link stall only if some link dep of the op finished inside it while
    having been ready to transfer before the unit went idle; waits for data
    that did not yet exist are latency, not stalls."""
    kinds, resources, deps, stream_deps = dag.kinds, dag.resources, dag.deps, dag.stream_deps
    units: Dict[str, List[int]] = {f"ntt:{ci}": [] for ci in range(dag.cfg.r)}
    for uid in compress(range(len(start)), map(units.__contains__, resources)):
        units[resources[uid]].append(uid)

    def blocking_link_dep(uid: int, gap_start: int) -> bool:
        for d in deps[uid] + stream_deps[uid]:
            if kinds[d] in _LINKS and finish[d] > gap_start \
                    and ready_at[d] <= gap_start:
                return True
        return False

    per_chiplet = []
    stall_by_phase: Dict[str, int] = {}
    for unit_ops in units.values():
        unit_ops.sort(key=start.__getitem__)
        busy = stall = prev_end = 0
        for u in unit_ops:
            first, end = start[u], finish[u]
            busy += end - first
            if first > prev_end and blocking_link_dep(u, prev_end):
                stall += first - prev_end
                phase = dag.phases[u] or "other"
                stall_by_phase[phase] = stall_by_phase.get(phase, 0) + first - prev_end
            if end > prev_end:
                prev_end = end
        per_chiplet.append({"busy": busy, "stall": stall, "idle": makespan - busy - stall})
    return per_chiplet, stall_by_phase


def _link_phase_view(dag: ScheduleBuilder, start: List[int], finish: List[int]
                     ) -> Tuple[Dict[str, Dict[str, int]], Dict[str, int]]:
    """links, by first use, and phase_cycles: each phase's span from the
    first start of its compute ops to their last finish, phases by first
    appearance."""
    links: Dict[str, Dict[str, int]] = {}
    phase_span: Dict[str, List[int]] = {}   # first start, last finish
    for kind, resource, phase, mas, nbytes, first, end in zip(
            dag.kinds, dag.resources, dag.phases, dag.mas, dag.nbytes, start, finish):
        if kind in _LINKS:
            entry = links.get(resource)
            if entry is None:
                entry = links[resource] = {"bytes": 0, "busy_cycles": 0, "sends": 0}
            entry["bytes"] += nbytes
            entry["busy_cycles"] += end - first
            entry["sends"] += 1
        if not phase:
            continue
        if kind not in _COMPUTE:
            if not mas:
                continue
            first = end     # a shadowed MAS burst retires with its carrier, even a SEND
        span = phase_span.get(phase)
        if span is None:
            phase_span[phase] = [first, end]
        else:
            if first < span[0]:
                span[0] = first
            if end > span[1]:
                span[1] = end
    return links, {phase: last - first for phase, (first, last) in phase_span.items()}


_CAPACITY = {"ntt": 1, "mas": 2, "aut": 2, "c2c": 1, "hbm": 1, "host": 1, "barrier": 1 << 30}


def _children(parents: Sequence[Tuple[int, ...]]) -> List[List[int]]:
    """Each op's children, one list per op, in uid order."""
    children: List[List[int]] = [[] for _ in parents]
    for uid in compress(range(len(parents)), parents):    # the ops with parents
        for d in parents[uid]:
            children[d].append(uid)
    return children


class Engine:
    def __init__(self, cfg: ChipletConfig):
        self.cfg = cfg

    def run(self, dag: ScheduleBuilder, meta: dict | None = None) -> CycleReport:
        if dag.cfg != self.cfg:
            raise ConfigError(f"the DAG was built for {dag.cfg}, not for this engine's "
                              f"{self.cfg}")
        heappush, heappop = heapq.heappush, heapq.heappop
        resources, durations = dag.resources, dag.durations
        priorities, stream_deps = dag.priorities, dag.stream_deps
        n_ops = len(dag)
        start = [-1] * n_ops
        finish = [-1] * n_ops
        ready_at = [-1] * n_ops
        waiting_deps = list(map(add, map(len, dag.deps), map(len, stream_deps)))
        dep_children = _children(dag.deps)
        stream_children = _children(stream_deps)

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
                    for child in stream_children[uid]:
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
                for child in dep_children[uid]:
                    waiting_deps[child] -= 1
                    if waiting_deps[child] == 0:
                        enqueue(child, now)

        return self._report(dag, start, finish, ready_at, dep_children, stream_children,
                            meta or {})

    # ------------------------------------------------------------------

    def _report(self, dag, start, finish, ready_at, dep_children, stream_children,
                meta) -> CycleReport:
        """The summary, from passes over the DAG columns that run in C; the
        report's views compute the rest from its run state when read."""
        cfg = self.cfg
        kinds, mas = dag.kinds, dag.mas
        # wall time ends when the last op someone consumes, any compute op or
        # a shadowed MAS burst's carrier retires; closing ring hops may drain
        # the links afterwards
        consumed = map(or_, map(truth, dep_children), map(truth, stream_children))
        compute = map(_COMPUTE.__contains__, kinds)
        makespan = max(compress(finish, map(or_, map(or_, consumed, compute), mas)),
                       default=0)
        units = frozenset(f"ntt:{ci}" for ci in range(cfg.r))
        on_ntt = list(map(units.__contains__, dag.resources))
        busy_ntt = sum(compress(finish, on_ntt)) - sum(compress(start, on_ntt))
        return CycleReport(
            total_cycles=makespan,
            wall_time_ms=makespan / (cfg.f_ghz * 1e9) * 1e3,
            polynomials_transferred=kinds.count("SEND"),
            ntt_utilization=busy_ntt / (cfg.r * makespan) if makespan else 0.0,
            op_counts=_op_counts(kinds, mas),
            meta=meta,
            _dag=dag, _start=start, _finish=finish, _ready_at=ready_at,
        )


def _op_counts(kinds: List[str], mas: List[int]) -> Dict[str, int]:
    """Compute ops by kind, plus the shadowed MAS bursts under "MAS", keyed in
    order of first appearance; an op's own kind comes before its burst."""
    counts = {kind: kinds.count(kind) for kind in COMPUTE_KINDS}
    first = {kind: kinds.index(kind) for kind in COMPUTE_KINDS if counts[kind]}
    carrier = next(compress(count(), mas), None)
    if carrier is not None:
        counts["MAS"] += sum(mas)
        first["MAS"] = min(first.get("MAS", carrier), carrier)
    return {kind: counts[kind]
            for kind in sorted(first, key=lambda kind: (first[kind], kind == "MAS"))}
