"""Macro-routine expansions into micro-op DAGs.

Limb distribution is interleaved by default: limb (or live base) t lives
on chiplet t mod r, so depth loss idles chiplets uniformly.  The ModUp
ring follows the non-blocking schedule: each chiplet transforms its own
limb, relays one limb per pass to its ring predecessor, and overlaps the
(l+2)/r key-multiplication transforms of the current pass with the next
receive.  ModDown and the digit (dnum < L+1) flow broadcast INTT results
feed-forward with streamed relays.  A K = 1 ModDown and a rescale are one
dataflow, built by _drop_limb: the ring key switch's ModDown, the MODDOWN
step and the RESCALE step differ only in the data they pass it.

The NTT/INTT unit of each chiplet executes its ops strictly in issue
order (static microcode), which the builder enforces by chaining; MAS and
AUT pairs and the links are free-running resources.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..opcount import KINDS, check_integer, digit_ranges
from .engine import ChipletConfig, CycleReport, Engine, ProgramError, ScheduleBuilder, _chiplet

Assignment = str  # one of ASSIGNMENTS
ASSIGNMENTS = ("INTERLEAVED", "SEQUENTIAL", "DIGITWISE")
STRATEGIES = ("ALTERNATE", "DIGITWISE")    # digit key-switch orderings
_MACRO_OPS = ("HADD", "HMULT", "KEYSWITCH", "ROTATE", "RESCALE", "MODDOWN", "HOST_LOAD")


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ProgramError(f"unknown key-switch strategy {strategy!r}; "
                           f"expected one of {STRATEGIES}")


def _limb_owner(assignment: Assignment, t: int, r: int, levels: int, k: int) -> int:
    if assignment == "INTERLEAVED":
        return t % r
    if assignment == "SEQUENTIAL":
        chunk = -(-(levels + 1) // r)
        return min(t // chunk, r - 1)
    return (t // k) % r     # DIGITWISE


_DRAIN = 1 << 18   # priority class for closing hops: transferred, never waited on


def _ring_broadcast(sb: ScheduleBuilder, producer: int, owner: int, pri: Tuple,
                    phase: str, limb: int | None = None) -> Dict[int, int]:
    """Streamed feed-forward broadcast of one polynomial around the ring.

    Returns the arrival op per chiplet (the producer itself for the owner).
    The final hop that closes the circle is emitted for transfer accounting
    but deprioritized so it only drains an otherwise idle link.
    """
    r = sb.cfg.r
    arrival: Dict[int, int] = {owner: producer}
    if r == 1:
        return arrival
    prev = producer
    for h in range(1, r + 1):
        closing = h == r
        src = (owner - h + 1) % r
        hop = sb.send(src, stream_deps=[prev],
                      priority=((_DRAIN,) + pri + (h,)) if closing else pri + (h,),
                      phase=phase, limb=limb)
        if not closing:
            arrival[(owner - h) % r] = hop
        prev = hop
    return arrival


# ---------------------------------------------------------------------------
# dnum = L+1 KeySwitch on the non-blocking ring


def build_keyswitch_ring(sb: ScheduleBuilder, l: int, shadowed: bool = True,
                         include_moddown: bool = True, after: Sequence[int] = (),
                         pri0: int = 0) -> None:
    """dnum = L+1 key switch on the non-blocking ring.  In this and every
    builder, ops that would otherwise start at once wait for the ops in
    `after` (in a program, the previous step)."""
    for name, flag in (("shadowed", shadowed), ("include_moddown", include_moddown)):
        if not isinstance(flag, bool):
            raise ProgramError(f"{name} must be a bool, got {flag!r}")
    r = sb.cfg.r
    n_targets = l + 2                       # q_0..q_l plus the special base
    own_targets = {i: [t for t in range(n_targets) if t % r == i] for i in range(r)}
    rounds = -(-(l + 1) // r)
    mas = 2 if shadowed else 0
    transform, send, hbm_read, last_ntt = sb.transform, sb.send, sb.hbm_read, sb.last_ntt

    buf_ops: Dict[int, List[int]] = {t: [] for t in range(n_targets)}
    mac_ntts: Dict[int, List[int]] = {i: [] for i in range(r)}

    for j in range(rounds):
        # limb x's latest copy: its INTT, then each relay hop in turn
        relay: Dict[int, int] = {}
        for i in range(r):
            x = j * r + i
            if x <= l:
                relay[x] = transform("INTT", i, after, (pri0, j, 0), "modup", x)
        for m in range(r):
            for i in range(r):
                x = j * r + (i + m) % r
                if x > l:
                    continue
                data = relay[x]
                last = last_ntt(i)
                gate = (data, last) if last is not None else (data, *after)
                # relay the limb to the ring predecessor while processing it
                if r > 1:
                    relay[x] = send(i, gate, (), (_DRAIN, j, m) if m + 1 == r
                                    else (pri0, j, m, 0), "modup", x)
                for t in own_targets[i]:
                    read = hbm_read(i, (mac_ntts[i][-2],) if len(mac_ntts[i]) >= 2
                                    else after, (pri0, j, m, 1, t), "modup")
                    ntt = transform("NTT", i, (data,) + read, (pri0, j, m, 2, t), "modup",
                                    x, t, mas)
                    mac_ntts[i].append(ntt)
                    if shadowed:
                        buf_ops[t].append(ntt)
                    else:
                        for w in range(2):
                            mop = sb.add("MAS", f"ntt:{i}", sb.transform_cycles,
                                         deps=[ntt], priority=(pri0, j, m, 2, t, 1 + w),
                                         phase="modup", limb=x, digit=t)
                            buf_ops[t].append(mop)

    if include_moddown:
        # the key products' last op on each base gates its ModDown transform
        _drop_limb(sb, l + 1, [t % r for t in range(l + 2)], pri0 + 1, "moddown",
                   buf_ops[l + 1], [buf_ops[t][-1:] for t in range(l + 1)], (1, 3))


def _drop_limb(sb: ScheduleBuilder, dropped: int, owner: Sequence[int], pri0: int,
               phase: str, intt_deps: Sequence[int], ntt_deps: Sequence[Sequence[int]],
               mas: Tuple[int, int]) -> None:
    """Divide both components by the base of limb `dropped` (K = 1): a ModDown
    drops the special base p, a rescale the top limb q_l.

    Per component, one INTT on owner[dropped] after intt_deps, a streamed ring
    broadcast, then an NTT of each kept limb t < dropped on owner[t], with the
    subtract-and-scale fused in, after its arrival and ntt_deps[t].  mas is
    the (INTT, NTT) MAS count.  The second component's broadcast rides behind
    the first, hiding its latency under the first component's compute.
    """
    src = owner[dropped]
    for comp in range(2):
        intt = sb.transform("INTT", src, deps=intt_deps, priority=(pri0, comp, 0),
                            phase=phase, limb=dropped, mas=mas[0])
        arrival = _ring_broadcast(sb, intt, src, (pri0, comp, 1), phase, limb=dropped)
        for t in range(dropped):
            sb.transform("NTT", owner[t], deps=(arrival[owner[t]], *ntt_deps[t]),
                         priority=(pri0, comp, 2, t), phase=phase, limb=t, mas=mas[1])


def schedule_keyswitch_ring(cfg: ChipletConfig, l: int, shadowed: bool = True,
                            include_moddown: bool = True) -> CycleReport:
    l = check_integer(l, "l", ProgramError, 0)
    sb = ScheduleBuilder(cfg)
    build_keyswitch_ring(sb, l, shadowed=shadowed, include_moddown=include_moddown)
    meta = {"routine": "keyswitch_ring", "l": l, "shadowed": shadowed,
            "warnings": cfg.bound_warnings(l)}
    return Engine(cfg).run(sb, meta=meta)


# ---------------------------------------------------------------------------
# dnum < L+1 KeySwitch (digit pipeline with base conversion)


def build_keyswitch_digits(sb: ScheduleBuilder, l: int, k: int,
                           strategy: str = "ALTERNATE",
                           after: Sequence[int] = (), pri0: int = 0) -> None:
    """Key switch over the digits digit_ranges(l, k)."""
    _check_strategy(strategy)
    if strategy == "DIGITWISE":
        build_keyswitch_digitwise(sb, l, k, after=after, pri0=pri0)
        return
    cfg = sb.cfg
    r = cfg.r
    nb = l + 1 + k                       # live bases of PQ_l
    digits = digit_ranges(l, k)

    # ModUp: all INTTs up front, hat-premultiplied, streamed ring broadcast.
    # Limb x is resident in digit x // k, so its key multiplication (and,
    # past digit 0, its digit accumulation) also runs in the INTT's shadow.
    arrival: Dict[Tuple[int, int], int] = {}
    for x in range(l + 1):
        owner = x % r
        intt = sb.transform("INTT", owner, deps=after, priority=(pri0, 0, x),
                            phase="modup", limb=x, mas=3 if x < k else 5)
        for i, hop in _ring_broadcast(sb, intt, owner, (pri0, 0, x, 2), "modup",
                                      limb=x).items():
            arrival[(x, i)] = hop

    mac_gate: Dict[int, int] = {}        # latest NTT of each converted base
    mac_ntts: Dict[int, List[int]] = {i: [] for i in range(r)}
    for j, digit in enumerate(digits):
        for t in range(nb):
            if t in digit:
                continue
            i = t % r
            deps = [arrival[(x, i)] for x in digit]
            read = sb.hbm_read(i, deps=(
                [mac_ntts[i][-2]] if len(mac_ntts[i]) >= 2 else after),
                priority=(pri0, 1, j, t, 1), phase="modup")
            # base-conversion MACs, key multiplication, digit accumulation
            ntt = sb.transform("NTT", i, deps=deps + [*read],
                               priority=(pri0, 1, j, t, 2), phase="modup", digit=j,
                               limb=t, mas=len(digit) + 2 + (2 if j else 0))
            mac_ntts[i].append(ntt)
            mac_gate[t] = ntt

    # ModDown: all 2K INTTs first, streamed broadcasts, then per-component NTTs
    md_arrival: Dict[Tuple[int, int, int], int] = {}
    for comp in range(2):
        for h in range(k):
            t = l + 1 + h
            owner = t % r
            intt = sb.transform("INTT", owner, deps=[mac_gate[t]],
                                priority=(pri0, 2, comp, h), phase="moddown", limb=t,
                                mas=1)
            for i, hop in _ring_broadcast(sb, intt, owner, (pri0, 2, comp, h, 2),
                                          "moddown", limb=t).items():
                md_arrival[(comp, h, i)] = hop
    for comp in range(2):
        for t in range(l + 1):
            i = t % r
            deps = [md_arrival[(comp, h, i)] for h in range(k)]
            sb.transform("NTT", i, deps=deps, priority=(pri0, 3, comp, t),
                         phase="moddown", limb=t, mas=k + 2)


def build_keyswitch_digitwise(sb: ScheduleBuilder, l: int, k: int,
                              after: Sequence[int] = (), pri0: int = 0) -> None:
    """Digit-per-chiplet distribution (comparison flow).

    Each chiplet runs one digit's ModUp locally; key-mult results are
    duplicated so ModDown stays chiplet-local, at a one-time exchange of
    2(dnum-1)(l+1)/dnum plus 2K polynomials per chiplet.
    """
    cfg = sb.cfg
    r = cfg.r
    nb = l + 1 + k
    digits = digit_ranges(l, k)
    dnum = len(digits)
    for j, digit in enumerate(digits):
        c = j % r
        for x in digit:
            last = sb.transform("INTT", c, deps=after, priority=(pri0, 0, j, x),
                                phase="modup", limb=x, digit=j)
        for t in range(nb - len(digit)):
            sb.transform("NTT", c, deps=[last], priority=(pri0, 1, j, t),
                         phase="modup", digit=j, mas=2 + len(digit))
        # one-time exchange: 2(dnum-1)(l+1)/dnum polynomials per chiplet
        for s in range(math.ceil(2 * (dnum - 1) * (l + 1) / dnum)):
            sb.send(c, deps=[last], priority=(pri0, 2, j, s), phase="modup", digit=j)
    # ModDown: duplicated K INTTs and base conversion, 2K polys exchanged
    for j in range(min(dnum, r)):
        c = j % r
        for h in range(k):
            last = sb.transform("INTT", c, deps=after, priority=(pri0, 3, j, h),
                                phase="moddown")
        for s in range(2 * k):
            sb.send(c, deps=[last], priority=(pri0, 4, j, s), phase="moddown")
        for t in range(math.ceil((l + 1) / dnum)):
            sb.transform("NTT", c, deps=[last], priority=(pri0, 5, j, t),
                         phase="moddown", mas=k + 2)


def schedule_keyswitch_digits(cfg: ChipletConfig, l: int, k: int,
                              strategy: str = "ALTERNATE") -> CycleReport:
    """The digit key switch at level l over k special bases; meta["dnum"] is
    the digit count that l and k give."""
    l = check_integer(l, "l", ProgramError, 0)
    k = check_integer(k, "k", ProgramError, 1)
    _check_strategy(strategy)
    sb = ScheduleBuilder(cfg)
    build_keyswitch_digits(sb, l, k, strategy=strategy)
    meta = {"routine": "keyswitch_digits", "l": l, "dnum": len(digit_ranges(l, k)), "k": k,
            "strategy": strategy, "warnings": cfg.bound_warnings(l)}
    report = Engine(cfg).run(sb, meta=meta)
    transforms = report.op_counts.get("INTT", 0) + report.op_counts.get("NTT", 0)
    stall = sum(c["stall"] for c in report.per_chiplet)
    report.meta["ntt_equiv_avg"] = Fraction(transforms, cfg.r) + Fraction(
        stall, cfg.r * cfg.n1)
    report.meta["comm_overhead"] = stall / (cfg.r * report.total_cycles)
    return report


# ---------------------------------------------------------------------------
# Strawman techniques (function-split and one-chiplet-per-limb baselines)


def _build_strawman(sb: ScheduleBuilder, l: int, technique: str) -> None:
    """Closed-form replays of the baseline distributions.

    Per-chiplet op and transfer counts follow the comparison table.  The
    baselines charge communication at twice the linear-op time: a SEND
    lasts two beats, or one matched beat in exact mode, whatever the link
    bandwidth.
    """
    cfg = sb.cfg
    comm = cfg.beat_cycles() * (1 if cfg.exact else 2)

    def send(src: int, deps=(), priority=(), phase="", limb=None, mas=0) -> int:
        # unchecked, as ScheduleBuilder.send: at r = 1, technique A still
        # moves its ModDown components over chiplet 1's link, which add refuses
        return sb._append("SEND", f"c2c:{src}", comm, tuple(deps), (), priority, phase,
                          limb, None, sb.poly_bytes, mas)

    if technique == "A":
        # four function-partitioned chiplets; chiplet 0 owns NTT/INTT,
        # chiplet 1 the MAS units
        for w in range(l + 3):
            sb.transform("INTT", 0, priority=(0, w), phase="modup")
        for w in range((l + 1) * (l + 4)):
            ntt = sb.transform("NTT", 0, priority=(1, w), phase="modup")
            if w < (l + 1) * (l + 2):
                # the MAS chiplet's two MACs run in the shadow of the move
                send(0, deps=[ntt], priority=(1, w, 1), phase="modup", mas=2)
        for w in range(2 * (l + 2)):   # ModDown component moves
            send(1, priority=(2, w), phase="moddown")
    else:   # B or C
        intt_per = 2 if technique == "B" else l + 3
        for i in range(cfg.r):
            for w in range(intt_per):
                sb.transform("INTT", i, priority=(0, i, w), phase="modup")
            for w in range(l + 4):
                sb.transform("NTT", i, priority=(1, i, w), phase="modup", mas=1)
        # broadcasts: l+1 limbs to l+2 chiplets, plus 2(l+1) for ModDown
        for x in range(l + 1):
            for c in range(l + 2):
                send(x % cfg.r, priority=(2, x, c), phase="modup", limb=x)
        for c in range(2 * (l + 1)):
            send(c % cfg.r, priority=(3, c), phase="moddown")


def schedule_strawman(cfg: ChipletConfig, l: int, technique: str) -> CycleReport:
    l = check_integer(l, "l", ProgramError, 0)
    if not isinstance(technique, str) or technique.upper() not in ("OURS", "A", "B", "C"):
        raise ProgramError(f"unknown strawman technique {technique!r}; "
                           "one of OURS, A, B, C")
    technique = technique.upper()
    if technique == "OURS":
        return schedule_keyswitch_ring(cfg, l)
    run_cfg = replace(cfg, r=l + 2) if technique in ("B", "C") else cfg
    sb = ScheduleBuilder(run_cfg)
    _build_strawman(sb, l, technique)
    meta = {"routine": f"strawman_{technique}", "l": l}
    return Engine(run_cfg).run(sb, meta=meta)


# ---------------------------------------------------------------------------
# Workload programs (macro-op lists)


def _macro_pointwise(sb: ScheduleBuilder, l: int, per_limb: int, owner: Sequence[int],
                     after: Sequence[int], pri0: int, phase: str) -> None:
    for t in range(l + 1):
        for w in range(per_limb):
            sb.add("MAS", f"mas:{owner[t]}", sb.transform_cycles, deps=after,
                   priority=(pri0, t, w), phase=phase, limb=t)


def run_workload(cfg: ChipletConfig, program: Sequence[dict],
                 assignment: Assignment = "INTERLEAVED",
                 levels: int | None = None) -> CycleReport:
    """Execute parse_program's steps of a program, each after the previous one.

    A step's k, the special base size K, picks the key switch as CkksContext
    does: KEYSWITCH and ROTATE (AUT ops, then the same switch) run the ring
    at K = 1 and the digit flow over digit_ranges(l, K) otherwise, at every
    level.  MODDOWN models K = 1 only.

    The assignment places only the pointwise (HADD, HMULT), rescale and AUT
    ops; key switches, including a ROTATE's, and ModDown always place limb t
    on chiplet t mod r, so SEQUENTIAL and DIGITWISE leave them unchanged.
    """
    steps, levels = parse_program(program, levels)
    if assignment not in ASSIGNMENTS:
        raise ProgramError(f"unknown assignment {assignment!r}")
    sb = ScheduleBuilder(cfg)
    after: Tuple[int, ...] = ()
    pri = 0
    steps_meta = []
    for op, l, k, nbytes in steps:
        owner = [_limb_owner(assignment, t, cfg.r, levels, k) for t in range(l + 1)]
        first_op = len(sb)
        if op == "HADD":
            _macro_pointwise(sb, l, 2, owner, after, pri, "hadd")
        elif op == "HMULT":
            _macro_pointwise(sb, l, 4, owner, after, pri, "hmult")
        elif op in ("KEYSWITCH", "ROTATE"):
            if op == "ROTATE":
                for comp in range(2):
                    for t in range(l + 1):
                        sb.add("AUT", f"aut:{owner[t]}", sb.transform_cycles,
                               deps=after, priority=(pri, comp, t), phase="rotate", limb=t)
            ks_pri = pri + (op == "ROTATE")
            if k == 1:
                build_keyswitch_ring(sb, l, after=after, pri0=ks_pri)
            else:
                build_keyswitch_digits(sb, l, k, after=after, pri0=ks_pri)
        elif op == "RESCALE":
            _drop_limb(sb, l, owner, pri, "rescale", after, [()] * l, (0, 1))
        elif op == "MODDOWN":
            _drop_limb(sb, l + 1, [t % cfg.r for t in range(l + 2)], pri, "moddown",
                       after, [after] * (l + 1), (1, 2))
        elif op == "HOST_LOAD":
            # initial data load over the host link; steady-state routines
            # assume operands already resident in HBM
            nbytes = sb.poly_bytes * (l + 1) * 2 if nbytes is None else nbytes
            cycles = math.ceil(nbytes / (cfg.ingress_gbps * 1e9 / (cfg.f_ghz * 1e9)))
            sb.add("HOST_RD", "host", cycles, deps=after, priority=(pri,),
                   phase="load", nbytes=nbytes)
        active: Dict[int, set] = {}
        for kind, resource, limb in zip(sb.kinds[first_op:], sb.resources[first_op:],
                                        sb.limbs[first_op:]):
            if kind in KINDS and limb is not None:      # compute ops sit on "<unit>:<i>"
                active.setdefault(_chiplet(resource), set()).add(limb)
        steps_meta.append({"op": op, "l": l,
                           "active_limbs": {c: len(s) for c, s in active.items()}})
        after = (sb.add("BARRIER", "barrier", 0, deps=range(first_op, len(sb)),
                        priority=(pri, 1 << 20)),)
        pri += 4
    meta = {"routine": "workload", "assignment": assignment, "steps": steps_meta,
            "warnings": cfg.bound_warnings(levels)}
    return Engine(cfg).run(sb, meta=meta)


class Step(NamedTuple):
    """A checked macro op; bytes is None for a HOST_LOAD of both components."""
    op: str
    l: Optional[int] = None     # None only until parse_program applies the depth
    k: int = 1
    bytes: Optional[int] = None


def parse_program(program: Sequence[dict],
                  levels: int | None = None) -> Tuple[List[Step], int]:
    """The checked macro ops of a program, BOOTSTRAP_SCHED schedules inlined,
    and its depth: `levels`, or else the highest "l" given.  A step holds an
    "op" and maybe an "l" (default: the depth, which no step may exceed), a
    "k" (default 1) and, on a HOST_LOAD only, "bytes", each an integer; a bool
    is not one."""
    given = []
    for step in _flatten(program):
        op = step["op"].upper()
        if op not in _MACRO_OPS:
            raise ProgramError(f"unknown macro op {op!r}")
        if "dnum" in step:
            raise ProgramError(f"{op} gives dnum; a step gives k, the special base "
                               "size, and its digit count follows from k")
        if set(step) - set(Step._fields):
            raise ProgramError(f"a {op} step holds only the keys {list(Step._fields)}, "
                               f"got {sorted(step)}")
        given.append(Step(op, **{key: check_integer(value, f"{op} {key}", ProgramError)
                                 for key, value in step.items() if key != "op"}))
    if not given:
        raise ProgramError("the program has no macro ops")
    levels = check_integer(max(step.l or 0 for step in given) if levels is None else levels,
                           "levels", ProgramError)
    steps = [step._replace(l=levels) if step.l is None else step for step in given]
    for op, l, k, nbytes in steps:
        # a rescale drops the top limb, so level 0 has none left to drop
        check_integer(l, f"{op} level", ProgramError, 1 if op == "RESCALE" else 0)
        if l > levels:
            raise ProgramError(f"{op} level {l} is above the program's levels {levels}")
        check_integer(k, "k", ProgramError, 1)
        if op == "MODDOWN" and k != 1:
            raise ProgramError(f"MODDOWN models one special base (k = 1), got k = {k}")
        if nbytes is not None:
            if op != "HOST_LOAD":
                raise ProgramError(f"{op} gives bytes; only a HOST_LOAD step moves bytes")
            check_integer(nbytes, f"{op} bytes", ProgramError, 1)
    return steps, levels


def _flatten(program: Sequence[dict]):
    """The steps of a program as given, BOOTSTRAP_SCHED schedules inlined.
    ProgramError for a program or schedule that is not a list, a step that is
    not an object with an "op" name, or a BOOTSTRAP_SCHED with other keys."""
    if not isinstance(program, (list, tuple)):
        raise ProgramError(f"a program or schedule must be a list of steps, "
                           f"got {type(program).__name__}")
    for step in program:
        if not isinstance(step, dict) or not isinstance(step.get("op"), str):
            raise ProgramError(f'a step must be an object with an "op" name, got {step!r}')
        if step["op"].upper() == "BOOTSTRAP_SCHED":
            if set(step) != {"op", "schedule"}:
                raise ProgramError('a BOOTSTRAP_SCHED step holds only "op" and its '
                                   f'"schedule", got keys {sorted(step)}')
            yield from _flatten(step["schedule"])
        else:
            yield step


# ---------------------------------------------------------------------------
# Chiplet sweep


def sweep_chiplets(cfg: ChipletConfig, r_list: Sequence[int], l: int = 30) -> List[dict]:
    """Amortized per-limb KeySwitch time versus chiplet count.

    Runs the full-depth switch for each r and amortizes over the limbs
    switched: time scales close to 1/r while
    l+1 >= r and degrades once chiplets outnumber live limbs.
    """
    if not r_list:
        raise ProgramError("the sweep needs at least one chiplet count")
    l = check_integer(l, "l", ProgramError, 0)
    run_cfgs = [replace(cfg, r=r) for r in r_list]   # ConfigError before any DAG
    rows = []
    for run_cfg in run_cfgs:
        rep = schedule_keyswitch_ring(run_cfg, l)
        wall_ns = rep.total_cycles / (cfg.f_ghz * 1e9) * 1e9
        rows.append({
            "r": run_cfg.r,
            "total_cycles": rep.total_cycles,
            "amortized_ns_per_limb": wall_ns / (l + 1),
            "ntt_utilization": rep.ntt_utilization,
        })
        del rep     # a report holds the DAG it ran; free it before the next run
    base = rows[0]["amortized_ns_per_limb"]
    for row in rows:
        row["ratio_to_first"] = row["amortized_ns_per_limb"] / base
    return rows
