import copy
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import types
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fhesim
from fhesim import analytic, opcount
from fhesim.chipletsim import (ChipletConfig, ConfigError, DeadlockDetected, Engine,
                               ProgramError, ScheduleBuilder, build_keyswitch_digits,
                               build_keyswitch_ring, parse_program, run_workload, schedule_keyswitch_digits,
                               schedule_keyswitch_ring, schedule_strawman, sweep_chiplets)
from fhesim.chipletsim.engine import _CAPACITY
from fhesim.cli import _PROGRAM_DOC_KEYS, load_preset

EXACT = ChipletConfig(n1=1024, n2=64, r=4, exact=True)
REF = ChipletConfig(n1=1024, n2=64, r=4, f_ghz=1.5, hbm_gbps=1200.0,
                      c2c_gbps=648.0)


def test_monolithic_throughput_formula_exact():
    cfg = replace(EXACT, r=1)
    rep = schedule_keyswitch_ring(cfg, 30, include_moddown=False)
    assert rep.total_cycles == analytic.keyswitch_cycles(30, 1024) == 31 * 33 * 1024
    rep_naive = schedule_keyswitch_ring(cfg, 30, shadowed=False,
                                        include_moddown=False)
    assert rep_naive.total_cycles == analytic.keyswitch_cycles(30, 1024,
                                                               shadowed=False)


def test_shadowing_never_changes_transfer_counts():
    for l in (14, 30):
        a = schedule_keyswitch_ring(REF, l, shadowed=True)
        b = schedule_keyswitch_ring(REF, l, shadowed=False)
        assert a.polynomials_transferred == b.polynomials_transferred
        assert a.total_cycles < b.total_cycles


def test_ring_census_matches_functional_closed_form():
    for l in (8, 22, 30):
        rep = schedule_keyswitch_ring(EXACT, l)
        want = opcount.keyswitch_full(l)
        for kind in ("INTT", "NTT", "MAS"):
            assert rep.op_counts.get(kind, 0) == want[kind], (l, kind)


def test_digits_census_matches_functional_closed_form():
    for l, d, k in ((8, 3, 3), (22, 3, 8), (23, 6, 4)):
        rep = schedule_keyswitch_digits(EXACT, l, k)
        assert rep.meta["dnum"] == d
        want = opcount.keyswitch_generic(l, d, k)
        for kind in ("INTT", "NTT", "MAS"):
            assert rep.op_counts.get(kind, 0) == want[kind], (l, d, k, kind)


def test_digits_runtime_formula_exact_mode():
    for l, d, k in ((23, 3, 8), (31, 4, 8), (15, 4, 4), (47, 3, 16)):
        rep = schedule_keyswitch_digits(EXACT, l, k)
        assert rep.meta["dnum"] == d
        assert rep.meta["ntt_equiv_avg"] == analytic.digits_census(l, k, 4)


def test_moddown_census_and_hop_overhead():
    for l, total in ((8, 7168), (14, 9216), (30, 17408)):
        rep = run_workload(EXACT, [{"op": "MODDOWN", "l": l}])
        want = opcount.moddown(l, 1)
        for kind in ("INTT", "NTT", "MAS"):
            assert rep.op_counts.get(kind, 0) == 2 * want[kind]
        # component one pays the feed-forward latency; component two hides
        # it: after the first NTT starts, each chiplet runs its NTTs back to back
        first = min(t["start"] for t in rep.timeline if t["kind"] == "NTT")
        assert rep.total_cycles == first + 2 * -(-(l + 1) // 4) * EXACT.n1 == total


def test_moddown_r1_zero_transfers():
    cfg = replace(EXACT, r=1)
    rep = run_workload(cfg, [{"op": "MODDOWN", "l": 14}])
    assert rep.polynomials_transferred == 0
    assert not rep.links


def test_strawman_transfer_counts_match_table():
    for l in (6, 14, 30):
        for tech in ("A", "B", "C", "OURS"):
            rep = schedule_strawman(REF, l, tech)
            assert rep.polynomials_transferred == \
                analytic.comm_polynomials(tech, l, r=4), (tech, l)


def test_strawman_censuses_match_table():
    l = 14
    rep = schedule_strawman(REF, l, "A")
    assert rep.op_counts["INTT"] == l + 3
    assert rep.op_counts["NTT"] == (l + 1) * (l + 4)
    rep = schedule_strawman(REF, l, "B")
    # per chiplet: 2 INTT, l+4 NTT across L+2 chiplets
    assert rep.op_counts["INTT"] == 2 * (l + 2)
    assert rep.op_counts["NTT"] == (l + 4) * (l + 2)


def test_nonblocking_threshold_and_monotonicity():
    totals = []
    for bw in (648.0, 324.0, 162.0, 81.0, 40.5):
        rep = schedule_keyswitch_ring(replace(REF, c2c_gbps=bw), 30)
        totals.append(rep.total_cycles)
    assert totals == sorted(totals)  # slower links never help


def test_determinism():
    a = schedule_keyswitch_ring(REF, 30).to_json()
    b = schedule_keyswitch_ring(REF, 30).to_json()
    assert a == b
    ra = schedule_keyswitch_digits(REF, 22, 8).to_json()
    rb = schedule_keyswitch_digits(REF, 22, 8).to_json()
    assert ra == rb
    # reports of two builds of one DAG compare equal, though each keeps its own
    assert schedule_keyswitch_ring(REF, 8) == schedule_keyswitch_ring(REF, 8)


def test_conservation_and_accounting():
    rep = schedule_keyswitch_ring(REF, 14)
    pb = REF.poly_bytes
    total_sends = sum(v["sends"] for v in rep.links.values())
    total_bytes = sum(v["bytes"] for v in rep.links.values())
    assert total_bytes == total_sends * pb
    for c in rep.per_chiplet:
        assert c["busy"] + c["idle"] + c["stall"] == rep.total_cycles
    # every chiplet has exactly one egress link in the ring
    c2c = [k for k in rep.links if k.startswith("c2c:")]
    assert len(c2c) == REF.r


def test_hbm_prefetch_binds_when_starved():
    # a single stack cannot stream both key halves at 512x128; seeded keys
    # fit exactly, and halving the bandwidth forces stalls
    good = ChipletConfig(n1=512, n2=128, r=1, hbm_gbps=2400.0, c2c_gbps=648.0)
    starved = replace(good, hbm_gbps=600.0)
    a = schedule_keyswitch_ring(good, 14, include_moddown=False)
    b = schedule_keyswitch_ring(starved, 14, include_moddown=False)
    assert b.total_cycles > a.total_cycles


def test_bound_warning():
    cfg = replace(REF, r=8)
    rep = schedule_keyswitch_ring(cfg, 30)
    assert any("chiplet bound" in w for w in rep.warnings)
    assert not schedule_keyswitch_ring(REF, 30).warnings


def test_workload_program_and_bootstrap_sched():
    prog = [
        {"op": "HMULT", "l": 8},
        {"op": "KEYSWITCH", "l": 8},
        {"op": "RESCALE", "l": 8},
        {"op": "BOOTSTRAP_SCHED", "schedule": [
            {"op": "ROTATE", "l": 7},
            {"op": "HADD", "l": 7},
        ]},
    ]
    rep = run_workload(EXACT, prog, levels=8)
    steps = [s["op"] for s in rep.meta["steps"]]
    assert steps == ["HMULT", "KEYSWITCH", "RESCALE", "ROTATE", "HADD"]
    want = (opcount.hmult(8)["MAS"] + opcount.keyswitch_full(8)["MAS"]
            + opcount.rescale(8)["MAS"] + opcount.keyswitch_full(7)["MAS"]
            + opcount.hadd(7)["MAS"])
    assert rep.op_counts["MAS"] == want
    assert rep.op_counts["AUT"] == 2 * 8


def test_interleaved_active_limbs_balanced():
    prog = [{"op": "HMULT", "l": l} for l in (30, 17, 5, 2)]
    rep = run_workload(REF, prog, assignment="INTERLEAVED", levels=30)
    for step in rep.meta["steps"]:
        counts = [step["active_limbs"].get(i, 0) for i in range(REF.r)]
        assert max(counts) - min(counts) <= 1


def test_sequential_idles_more_at_depleted_levels():
    prog = []
    for l in range(30, 0, -1):
        prog.append({"op": "HMULT", "l": l})
        prog.append({"op": "RESCALE", "l": l})
    rep_i = run_workload(REF, prog, assignment="INTERLEAVED", levels=30)
    rep_s = run_workload(REF, prog, assignment="SEQUENTIAL", levels=30)
    assert sum(c["idle"] for c in rep_i.per_chiplet) < \
        sum(c["idle"] for c in rep_s.per_chiplet)


def test_sweep_shape_and_low_depth_utilization():
    rows = sweep_chiplets(REF, [4, 8], l=30)
    assert rows[0]["r"] == 4 and rows[1]["ratio_to_first"] < 0.7
    # l < r: pigeonhole bounds utilization by live limbs over chiplets
    starved = sweep_chiplets(replace(REF, r=8), [8], l=2)
    assert starved[0]["ntt_utilization"] <= 3 / 8 + 0.05


def test_engine_deadlock_guard():
    # add refuses a dep on a later uid, so only an edited column makes a cycle
    sb = ScheduleBuilder(EXACT)
    sb.add("NTT", "ntt:0", 4, priority=(0,))
    sb.add("NTT", "ntt:0", 4, deps=[0], priority=(0,))
    sb.deps[0] = (1,)
    with pytest.raises(DeadlockDetected):
        Engine(EXACT).run(sb)


def test_report_json_and_timeline():
    rep = schedule_keyswitch_ring(REF, 8)
    doc = json.loads(rep.to_json())
    assert doc["schema"] == 1
    assert doc["total_cycles"] == rep.total_cycles
    csv = rep.timeline_csv()
    lines = csv.strip().splitlines()
    assert lines[0].startswith("op,chiplet,resource")
    assert len(lines) == len(rep.timeline) + 1


def _built_dag(cfg):
    sb = ScheduleBuilder(cfg)
    build_keyswitch_ring(sb, 4)
    return sb


def test_engine_refuses_a_dag_built_for_another_config():
    # an r=32 DAG run at r=4 would report four chiplets' rows of its 32
    with pytest.raises(ConfigError, match="built for"):
        Engine(REF).run(_built_dag(replace(REF, r=32)))
    with pytest.raises(ConfigError):
        Engine(replace(REF, exact=True)).run(_built_dag(REF))
    # an equal config built apart is the same config
    assert Engine(replace(REF)).run(_built_dag(REF)).to_json() == \
        Engine(REF).run(_built_dag(REF)).to_json()


@pytest.mark.parametrize("entry", [
    lambda: Engine(REF).run(_built_dag(REF)),
    lambda: schedule_keyswitch_ring(REF, 8),
    lambda: run_workload(REF, [{"op": "MODDOWN", "l": 8}, {"op": "RESCALE", "l": 8}]),
    lambda: schedule_keyswitch_digits(REF, 8, 3, "DIGITWISE"),
    lambda: schedule_strawman(EXACT, 6, "B"),
    lambda: run_workload(REF, [{"op": "HOST_LOAD", "l": 2}, {"op": "ROTATE", "k": 2},
                               {"op": "RESCALE", "l": 3}], levels=3),
], ids=["engine", "ring", "moddown", "digits", "strawman", "workload"])
def test_every_report_serves_its_timeline(entry, monkeypatch):
    # the timeline was built only when a with_timeline flag asked for it;
    # every other report held None
    sizes = []
    run = Engine.run

    def counting(engine, dag, *args, **kwargs):
        sizes.append(len(dag))
        return run(engine, dag, *args, **kwargs)

    monkeypatch.setattr(Engine, "run", counting)
    rep = entry()
    doc = rep.to_json()
    timeline = rep.timeline
    assert len(timeline) == sizes[-1] > 0
    assert sorted(t["uid"] for t in timeline) == list(range(sizes[-1]))
    assert [t["start"] for t in timeline] == sorted(t["start"] for t in timeline)
    assert rep.timeline == timeline and rep.to_json() == doc


def _counted_views(monkeypatch) -> list:
    """The names of the report views computed from now on, in call order."""
    from fhesim.chipletsim import engine
    calls = []
    for name in ("_stall_view", "_link_phase_view"):
        def counted(*args, _view=getattr(engine, name), _name=name):
            calls.append(_name)
            return _view(*args)
        monkeypatch.setattr(engine, name, counted)
    return calls


def test_sweep_computes_no_report_view(monkeypatch):
    # a sweep reads the summary only, so the stall, link and phase passes
    # never run
    calls = _counted_views(monkeypatch)
    rows = sweep_chiplets(REF, [4, 32], l=30)
    assert [row["r"] for row in rows] == [4, 32] and calls == []


def test_report_views_run_at_most_once(monkeypatch):
    calls = _counted_views(monkeypatch)
    rep = schedule_keyswitch_ring(REF, 8)
    assert calls == []
    for _ in range(2):
        rep.per_chiplet, rep.stall_by_phase, rep.links, rep.phase_cycles, rep.to_json()
    assert calls == ["_stall_view", "_link_phase_view"]


def test_report_views_ignore_ops_added_after_the_run():
    sb = _built_dag(REF)
    rep = Engine(REF).run(sb)
    build_keyswitch_ring(sb, 2)
    assert rep.to_json() == Engine(REF).run(_built_dag(REF)).to_json()
    assert len(rep.timeline) == len(_built_dag(REF)) < len(sb)


@pytest.mark.parametrize("view", ["per_chiplet", "links", "timeline"])
def test_reading_a_view_first_keeps_the_json_bytes(view):
    for entry in (lambda: schedule_keyswitch_ring(REF, 8),
                  lambda: schedule_keyswitch_digits(REF, 8, 3),
                  lambda: run_workload(REF, [{"op": "HOST_LOAD", "l": 2},
                                             {"op": "ROTATE", "k": 2}], levels=3)):
        rep = entry()
        getattr(rep, view)
        assert rep.to_json() == entry().to_json()


def test_hbm_read_gives_the_deps_to_splice():
    # exact mode models no HBM transfer, so a key read adds no dep
    assert ScheduleBuilder(EXACT).hbm_read(0) == ()
    sb = ScheduleBuilder(REF)
    assert sb.hbm_read(1, phase="modup") == (0,) and sb.kinds == ["HBM_RD"]


def test_ntt_chain_holds_across_add_and_transform():
    # each NTT unit runs its ops in issue order, whichever entry point
    # issued them: add then transform and transform then add
    sb = ScheduleBuilder(REF)
    chain = {0: [], 1: []}
    for step in range(8):
        for i in (0, 1):
            given = chain[i][-1:] if step % 3 == 0 else ()    # the chain dep, given
            if (step + i) % 2:
                uid = sb.add("MAS", f"ntt:{i}", 7, deps=given, limb=step)
            else:
                uid = sb.transform("NTT", i, deps=given, limb=step)
            sb.add("MAS", f"mas:{i}", 3)      # another unit: not in the chain
            chain[i].append(uid)
            assert sb.last_ntt(i) == uid
    for i, uids in chain.items():
        assert sb.deps[uids[0]] == ()
        for prev, uid in zip(uids, uids[1:]):
            assert sb.deps[uid] == (prev,)     # given or not, held once
    assert sb.last_ntt(2) is None


def test_add_takes_every_modelled_resource():
    sb = ScheduleBuilder(REF)
    for unit, kind in (("ntt", "NTT"), ("mas", "MAS"), ("aut", "AUT"), ("c2c", "SEND"),
                       ("hbm", "HBM_RD")):
        for i in range(REF.r):
            sb.add(kind, f"{unit}:{i}", 2, nbytes=sb.poly_bytes if unit in ("c2c", "hbm") else 0)
    sb.add("HOST_RD", "host", 5, nbytes=64)
    sb.add("BARRIER", "barrier", 0, deps=range(len(sb)))
    assert Engine(REF).run(sb).total_cycles == 5


_REFUSED_ADDS = {
    "kind": dict(kind="FOO"),
    "unit": dict(resource="foo:1"),          # a bare KeyError in Engine.run
    "chiplet": dict(resource="ntt:7"),       # ran, with every chiplet idle
    "chiplet-on-host": dict(kind="HOST_RD", resource="host:0"),
    "negative-duration": dict(duration=-5),  # gave total_cycles 0
    "float-duration": dict(duration=2.5),
    "bool-duration": dict(duration=True),
    "later-dep": dict(deps=[3]),              # a bare IndexError in Engine.run
    "negative-dep": dict(deps=[-1]),
    "own-stream-dep": dict(kind="SEND", resource="c2c:0", stream_deps=[0]),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_ADDS))
def test_add_refuses_an_op_the_engine_cannot_run(case):
    sb = ScheduleBuilder(REF)
    with pytest.raises(ProgramError):
        sb.add(**{"kind": "NTT", "resource": "ntt:1", "duration": 4, **_REFUSED_ADDS[case]})
    assert len(sb) == 0 and sb.last_ntt(1) is None


def test_program_error_is_one_class():
    from fhesim.chipletsim import engine, schedules
    assert ProgramError is engine.ProgramError is schedules.ProgramError


@pytest.mark.parametrize("flags", [dict(shadowed="false"), dict(include_moddown="false"),
                                   dict(shadowed=1), dict(include_moddown=None)])
def test_ring_flags_must_be_bools(flags):
    # "false" is truthy: shadowed="false" ran the shadowed flow, 41,080
    # cycles at r=4, l=8, where False gives 96,376
    with pytest.raises(ProgramError, match="must be a bool"):
        schedule_keyswitch_ring(ChipletConfig(r=4), 8, **flags)
    with pytest.raises(ProgramError, match="must be a bool"):
        build_keyswitch_ring(ScheduleBuilder(ChipletConfig(r=4)), 8, **flags)


def test_exact_mode_transfer_is_matched_beat():
    assert EXACT.c2c_cycles() == EXACT.n // EXACT.n2
    assert REF.c2c_cycles() == 1024  # 64 coefficients x 54 bits per cycle


def test_strawman_send_lasts_twice_the_beat():
    # The baselines charge communication at twice the linear-op time: the
    # strawman schedule owns that rule, whatever the link bandwidth; exact
    # mode keeps the matched beat.
    for tech in ("A", "B", "C"):
        for cfg, beats in ((REF, 2), (replace(REF, c2c_gbps=81.0), 2), (EXACT, 1)):
            rep = schedule_strawman(cfg, 6, tech)
            sends = {t["end"] - t["start"] for t in rep.timeline if t["kind"] == "SEND"}
            assert sends == {beats * cfg.beat_cycles()}, (tech, cfg)
    assert replace(REF, c2c_gbps=81.0).c2c_cycles() > 2 * REF.beat_cycles()


# ---------------------------------------------------------------------------
# Golden matrix: SHA-256 of the canonical (sort_keys) CycleReport JSON, and
# of two timelines, pinned before the event loop and the report were
# rewritten.  Any change to a modeled number shows up here.  "unsorted" is
# one SHA-256 over every case's to_json() bytes in case order, so it also
# sees the key order of op_counts, links, stall_by_phase and phase_cycles.

GOLDEN = {
    "ring-l2-sh1-md1":
        "ed3645d18d97aba761bc564222d13f237a531a207c7986b5e53cc5cd96e8819b",
    "ring-l2-sh1-md0":
        "d1e00ebd334a7c187e949fc3be8c51b8a97c927336403d715e7c77a94dab3ef8",
    "ring-l2-sh0-md1":
        "5b0a4e67d1bd22292dfbe2b070e9a067e8c600247c575855e27d1d9830dbf901",
    "ring-l2-sh0-md0":
        "243d0dbdd44ffdf67ec7a90f246040f617406094f36779fdc8c3ba3e5fc97ad4",
    "ring-l14-sh1-md1":
        "a4c4d0c57f6c6a3974e8ae1c475e70a40b982d6bb16c289ac527d0ac82b40fb0",
    "ring-l14-sh1-md0":
        "53e02204a6e86c5b473f1e415fe03e60bd470d9b98a108c041babca0e71b208c",
    "ring-l14-sh0-md1":
        "f69b813f837ee677499a62d6b94a892a7ab556eef3043c6faf45d8bb19f08e5d",
    "ring-l14-sh0-md0":
        "a849175bba28148dd878d34d21c56b2b14a01ee7de9b204d5a14a398df8f15b0",
    "ring-l30-sh1-md1":
        "3ae0b0d61e0db70f926d750e4f26a2137774757ce805730d0764f28c04464079",
    "ring-l30-sh1-md0":
        "3e2c17cbb47dbba91d30d3ea2bf0aab27edcd8d03c32045af10bc21103378244",
    "ring-l30-sh0-md1":
        "6aba11b086d5f870b3131dfb97903b157040503b19248a5dc6a90d5a097a7fa8",
    "ring-l30-sh0-md0":
        "e495432608b65c19f7a9606da777610861b621b3867e31b51afa34c983dd6d79",
    "moddown-l14":
        "29154801933ab636a826c4f0fdc48ea6d6f537c9fdd25a746d6fc899dcf0da39",
    "digits-8,3,3-ALTERNATE":
        "613c7a49471dd7c0617066e5b0d077ae2ec046b1e1d218900ae7376a90cb70fa",
    "digits-8,3,3-DIGITWISE":
        "9b657436c53647ff6774b2148d709ee228cd6577b6c3f456099308951686468a",
    "digits-22,3,8-ALTERNATE":
        "4a68c6bd8c8bb68426c398686e65986283f8c46426cd6922100100bc424e9ade",
    "digits-22,3,8-DIGITWISE":
        "f09f0e56db6be43eddfdd99d81679d2d15ead0498bfbec9202643cc4aac4f3c4",
    "digits-23,6,4-ALTERNATE":
        "73fd9e1209af190be335d034d83de040db746a5b034ba83f93c0d0633df43481",
    "digits-23,6,4-DIGITWISE":
        "718c165751b0d620b1b7964d826fce4775813fa5408b98b6db91b572b4767555",
    "keyswitch_l30-INTERLEAVED":
        "68cdf331074a7da7ce035bb768233e43ce62c49ec80f5df5c32d69a36cf4e654",
    "keyswitch_l30-SEQUENTIAL":
        "07187c095d0ef617ddd0a19bf9299506bb2f6f8fa2a3835f6c418bc33851b19f",
    "keyswitch_l30-DIGITWISE":
        "e11de54a9282b09b2c454a82490ce14ec61932e86c47fdc5a61cc4fe4f83f09f",
    "bootstrap_example-INTERLEAVED":
        "19ae7bc46605260a56808b8423c45cd6abe92c64bff504af43ffca1febee039a",
    "bootstrap_example-SEQUENTIAL":
        "6f7fe834e97c4ea2d644145e0e696f1ed7d2cc6e314ef84cd7c929be6377e997",
    "bootstrap_example-DIGITWISE":
        "bd46912933eb850ee0490bababda2f33810051f04cb1178c721c0680d04cc81b",
    "strawman-l14-A":
        "c8af831a6f8feb3428e608420474d2be377c07139e4b450e6b3aceecfa867ffd",
    "strawman-l14-B":
        "7ca62cb71c162c5d652529844710171e4a113b9760f87add1d5ace7ea830894f",
    "strawman-l14-C":
        "ddf60a1554d1855744653b4e4c274f8132a9ce75cbdcf66eaabac587dfc955df",
    "strawman-l14-OURS":
        "a4c4d0c57f6c6a3974e8ae1c475e70a40b982d6bb16c289ac527d0ac82b40fb0",
    "ring-l30-r1":
        "b506373cb80e1ea3a22b72ecd1f168ca0ebbbd3c2f1684c025764781f4a1154c",
    "digits-22,3,8-r1":
        "a24575bc3363ad00a6a85fe514ede5f76c7b8a9f5f5820cbc7925e630ada96d8",
    "ring-l30-r32":
        "95153114c21c8681af166448edef62fdfcbabceeb9f10584dbc09e4915c96a8f",
    "digits-22,3,8-r32":
        "d166d0db0d9014da506594b19e22cf605a3cdc73125033c56be45e8470a76ff9",
    "ring-l30-512x128":
        "6f883dc36292e4b65576af8da94b5118109bd8c9d8e601ad211ddb7ab40c14bf",
    "digits-22,3,8-512x128":
        "c59e24e0af0edecd208b0d3a11981b4f66277cb04af58c860cf11f96bd04ae2c",
    "ring-l30-exact":
        "e39a3dcca0418baa64b4623c219ed96dba75992e6c8a357cf57f266dca754649",
    "digits-22,3,8-exact":
        "62b67180f53cf456e5ba18a12a458809d3b910d8a6f742265abc13876bda16ce",
    "ring-l30-exact-r32":
        "5ea7fc54d9afe932fd807b17bbbc99c65dfb16cd3c2966a9b9a4db4b593536a1",
    "digits-22,3,8-exact-r32":
        "6c6b7993a4a0ea7ace0d5ae8c27faf3c5f96976de0a89321db15923aaa57d844",
    "sweep":
        "35baf852ab79b28aec793fb53bc5b5644813704e29bc7f4c91067ab9f116f9f1",
    "timeline-ring":
        "d383522dc0a3b68d76e2730e4ad28543066b55212354e747a2599a1dc03176bd",
    "timeline-digits":
        "95ad1240fe45e8ec787868637429bf124d38c14630723e933381556a97c29f0b",
    "unsorted":
        "d7b0576a9c932192d4c9b2c35a0dcbfbe720b62ad9d6b6b78c6254105162ed35",
}


def _golden_cases():
    p1 = ChipletConfig.from_json_dict(load_preset("chiplet_1024x64"))
    p2 = ChipletConfig.from_json_dict(load_preset("chiplet_512x128"))
    ex = replace(p1, exact=True)
    cases = {}
    for l in (2, 14, 30):
        for sh in (True, False):
            for md in (True, False):
                cases[f"ring-l{l}-sh{int(sh)}-md{int(md)}"] = (
                    schedule_keyswitch_ring, p1, l, dict(shadowed=sh, include_moddown=md))
    cases["moddown-l14"] = (run_workload, p1, [{"op": "MODDOWN", "l": 14}], {})
    for l, d, k in ((8, 3, 3), (22, 3, 8), (23, 6, 4)):
        for strat in ("ALTERNATE", "DIGITWISE"):
            cases[f"digits-{l},{d},{k}-{strat}"] = (
                schedule_keyswitch_digits, p1, l, dict(k=k, strategy=strat))
    for name in ("keyswitch_l30", "bootstrap_example"):
        doc = load_preset(name)
        for asg in ("INTERLEAVED", "SEQUENTIAL", "DIGITWISE"):
            cases[f"{name}-{asg}"] = (run_workload, p1, doc["program"],
                                      dict(assignment=asg, levels=doc["levels"]))
    for tech in ("A", "B", "C", "OURS"):
        cases[f"strawman-l14-{tech}"] = (schedule_strawman, p1, 14, dict(technique=tech))
    for cname, cfg in (("r1", replace(p1, r=1)), ("r32", replace(p1, r=32)),
                       ("512x128", p2), ("exact", ex), ("exact-r32", replace(ex, r=32))):
        cases[f"ring-l30-{cname}"] = (schedule_keyswitch_ring, cfg, 30, {})
        cases[f"digits-22,3,8-{cname}"] = (schedule_keyswitch_digits, cfg, 22, dict(k=8))
    return cases


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_matrix_reports():
    got = {}
    unsorted = hashlib.sha256()
    for name, (fn, cfg, arg, kwargs) in _golden_cases().items():
        rep = fn(cfg, arg, **kwargs)
        got[name] = _digest(json.dumps(rep.to_json_dict(), sort_keys=True, default=str))
        unsorted.update(rep.to_json().encode())
    got["unsorted"] = unsorted.hexdigest()
    p1 = ChipletConfig.from_json_dict(load_preset("chiplet_1024x64"))
    got["sweep"] = _digest(json.dumps(sweep_chiplets(p1, [1, 4, 32], l=14),
                                      sort_keys=True))
    got["timeline-ring"] = _digest(
        schedule_keyswitch_ring(p1, 8).timeline_csv())
    got["timeline-digits"] = _digest(
        schedule_keyswitch_digits(p1, 8, 3).timeline_csv())
    assert got == GOLDEN


# SHA-256 of every ScheduleBuilder column of a DAG, pinned before the ModDown
# and rescale builders became one.  A report digest cannot see a dep or a
# priority that moves no cycle; these see every column.

_DAG_COLUMNS = ("kinds", "resources", "durations", "deps", "stream_deps", "priorities",
                "phases", "limbs", "digits", "nbytes", "mas")

DAG_GOLDEN = {
    "ring-l2-r1":
        "1004b9a2cd02902715e140c2eedf1a423e4c78871da403f34eb139efdf0eb766",
    "ring-l2-r4":
        "98647c8189ed0c5d6687cf9e29e6c62abbe33f901441a31c8fe081355205e2db",
    "ring-l2-r32":
        "193a831840b7460bbaac11d8dc02e9a6c71752b20a13ca61284022f24b2b02e7",
    "ring-l14-r1":
        "4151bac568c53d4b399d3e9725d6461a48a2885de9d7614bdf666c4b51d745a6",
    "ring-l14-r4":
        "e34426aa12d3ec753a77777f55db5f2316b8a52cd57af32c77072379b05b296a",
    "ring-l14-r32":
        "cafb62c250eaa9723b619fce1dc051009f3bf8eda721b2df09d6e71ca4a82423",
    "ring-l30-r1":
        "4eb4bac7b4a04d28dffaac59f808bd02acd78c972af75e709619c9bde317a091",
    "ring-l30-r4":
        "ab68ac1739f0c02e73e6d0ccdc9cc0b13cfeb9b85049556622f6a380d33f25f3",
    "ring-l30-r32":
        "8cd5104c1ff00783ad324643e5c730c264575b47569229c70119f5a69f9f2a19",
    "digits-8,3-ALTERNATE":
        "b401580f877a0ef94fbac59eabd86652f2e2e236fc819702580bf8966f452554",
    "moddown-l14-INTERLEAVED":
        "3f6aaac083fcac2fe9db90b5dbdb8a262106310ede2bcfece4e819249018bd08",
    "moddown-l14-SEQUENTIAL":
        "3f6aaac083fcac2fe9db90b5dbdb8a262106310ede2bcfece4e819249018bd08",
    "moddown-l14-DIGITWISE":
        "3f6aaac083fcac2fe9db90b5dbdb8a262106310ede2bcfece4e819249018bd08",
    "hmult-keyswitch-rescale-l14-INTERLEAVED":
        "0ddd97dd01cabca8d0b97ff486856628264d63092c8654e2f304506526695a4b",
    "hmult-keyswitch-rescale-l14-SEQUENTIAL":
        "b7e1181f4ba124cda7c79832a2cfb7265e5cb7bba9381630ed217460873c1e7b",
    "hmult-keyswitch-rescale-l14-DIGITWISE":
        "0ddd97dd01cabca8d0b97ff486856628264d63092c8654e2f304506526695a4b",
    "keyswitch_l30-INTERLEAVED":
        "2d68a36e3d48287d6ae0aca47edab5c065fd1796bbde7514671fd1687b381776",
    "keyswitch_l30-SEQUENTIAL":
        "2d68a36e3d48287d6ae0aca47edab5c065fd1796bbde7514671fd1687b381776",
    "keyswitch_l30-DIGITWISE":
        "2d68a36e3d48287d6ae0aca47edab5c065fd1796bbde7514671fd1687b381776",
    "bootstrap_example-INTERLEAVED":
        "f17fd8d3145817f5c25be293f614de76298da52b5aa54bb76b288d18796a2800",
    "bootstrap_example-SEQUENTIAL":
        "a8e97b553ab3988831cd0294603a1064c91e45a0f017c2e7f1b107ce56b3793d",
    "bootstrap_example-DIGITWISE":
        "f17fd8d3145817f5c25be293f614de76298da52b5aa54bb76b288d18796a2800",
}


def _dag_cases():
    p1 = ChipletConfig.from_json_dict(load_preset("chiplet_1024x64"))
    cases = {}
    for l in (2, 14, 30):
        for r in (1, 4, 32):
            cases[f"ring-l{l}-r{r}"] = (replace(p1, r=r), build_keyswitch_ring, l, {})
    cases["digits-8,3-ALTERNATE"] = (p1, build_keyswitch_digits, 8, dict(k=3))
    programs = {
        "moddown-l14": ([{"op": "MODDOWN", "l": 14}], None),
        "hmult-keyswitch-rescale-l14": ([{"op": "HMULT", "l": 14}, {"op": "KEYSWITCH", "l": 14},
                                         {"op": "RESCALE", "l": 14}], None),
        **{name: (load_preset(name)["program"], load_preset(name)["levels"])
           for name in ("keyswitch_l30", "bootstrap_example")},
    }
    for name, (program, levels) in programs.items():
        for asg in ("INTERLEAVED", "SEQUENTIAL", "DIGITWISE"):
            cases[f"{name}-{asg}"] = (p1, run_workload, program,
                                      dict(assignment=asg, levels=levels))
    return cases


def test_golden_dags(monkeypatch):
    # a program's DAG is the one its Engine.run is handed
    monkeypatch.setattr(Engine, "run", lambda engine, dag, **kwargs: dag)
    got = {}
    for name, (cfg, build, arg, kwargs) in _dag_cases().items():
        if build is run_workload:
            sb = run_workload(cfg, arg, **kwargs)
        else:
            sb = ScheduleBuilder(cfg)
            build(sb, arg, **kwargs)
        got[name] = _digest(json.dumps([getattr(sb, col) for col in _DAG_COLUMNS]))
    assert got == DAG_GOLDEN


def test_report_json_bytes_do_not_depend_on_hash_seed():
    code = ("import sys\n"
            "from fhesim.chipletsim import ChipletConfig, schedule_keyswitch_ring\n"
            "sys.stdout.write(schedule_keyswitch_ring(ChipletConfig(r=4), 14).to_json())")
    src = str(Path(fhesim.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, timeout=120).stdout)
    assert outs[0] == outs[1]
    # phases are listed in the order they first appear
    assert list(json.loads(outs[0])["phase_cycles"]) == ["modup", "moddown"]


def test_report_key_order_is_first_appearance():
    # the golden digests sort keys, so they cannot see the order to_json() keeps
    assert list(schedule_keyswitch_ring(REF, 8).op_counts) == ["INTT", "NTT", "MAS"]
    digits = schedule_keyswitch_digits(REF, 8, 3)
    assert list(digits.op_counts) == ["INTT", "MAS", "NTT"]
    assert list(digits.phase_cycles) == ["modup", "moddown"]


def test_barrier_is_the_only_zero_duration_op(monkeypatch):
    # a shadowed MAS burst is a count on the op it hides behind, so no
    # zero-cycle bookkeeping op can hold back a same-time choice
    dags = []
    run = Engine.run

    def record(self, dag, **kwargs):
        dags.append(dag)
        return run(self, dag, **kwargs)

    monkeypatch.setattr(Engine, "run", record)
    for cfg in (REF, EXACT):
        for sh in (True, False):
            for md in (True, False):
                schedule_keyswitch_ring(cfg, 8, shadowed=sh, include_moddown=md)
        run_workload(cfg, [{"op": "MODDOWN", "l": 8}, {"op": "RESCALE", "l": 8}])
        for strategy in ("ALTERNATE", "DIGITWISE"):
            schedule_keyswitch_digits(cfg, 8, 3, strategy)
        for tech in ("A", "B", "C"):
            schedule_strawman(cfg, 6, tech)
        for name in ("keyswitch_l30", "bootstrap_example"):
            doc = load_preset(name)
            run_workload(cfg, doc["program"], levels=doc["levels"])
    assert len(dags) == 2 * 12
    for dag in dags:
        assert {kind for kind, duration in zip(dag.kinds, dag.durations)
                if duration == 0} <= {"BARRIER"}


# ---------------------------------------------------------------------------
# Input validation where configs, programs and schedules enter


@pytest.mark.parametrize("field, value", [
    ("r", 0), ("f_ghz", 0.0), ("hbm_gbps", -1.0), ("c2c_gbps", 0.0),
    ("ingress_gbps", float("nan")), ("word_bits", 0), ("n1", 1000), ("n2", 0),
    # wrong types: "false" used to switch exactness on, 2.5 and 1024.0 to
    # fail inside a builder, True to read as 1
    ("exact", "false"), ("r", 2.5), ("n1", 1024.0), ("r", True),
    ("c2c_gbps", "630"),
    # an infinite clock or bandwidth gives 0 bytes per cycle, and every run
    # used to end in a ZeroDivisionError
    ("f_ghz", math.inf), ("hbm_gbps", math.inf), ("c2c_gbps", math.inf),
    ("ingress_gbps", math.inf)])
def test_config_rejects_invalid_field(field, value):
    with pytest.raises(ConfigError):
        ChipletConfig(**{field: value})
    with pytest.raises(ConfigError):
        replace(REF, **{field: value})


def test_config_error_is_value_error_and_presets_load():
    assert issubclass(ConfigError, ValueError)
    for name in ("chiplet_1024x64", "chiplet_512x128"):
        cfg = ChipletConfig.from_json_dict(load_preset(name))
        assert cfg.r == 4 and cfg.n1 * cfg.n2 == 1 << 16


def test_config_rejects_unknown_key():
    # A misspelt field used to be dropped, simulating at the default value.
    doc = {**load_preset("chiplet_1024x64"), "c2c_gpbs": 1.0}
    with pytest.raises(ConfigError, match="c2c_gpbs"):
        ChipletConfig.from_json_dict(doc)
    with pytest.raises(ConfigError, match="c2c_gpbs"):
        ChipletConfig.from_json_dict({"c2c_gpbs": 1.0})
    # a transform takes N1 cycles: there is no pipeline fill to set
    with pytest.raises(ConfigError, match=r"unknown config keys \['fill_cycles'\]"):
        ChipletConfig.from_json_dict({**load_preset("chiplet_1024x64"), "fill_cycles": 0})
    assert ChipletConfig.from_json_dict({"comment": "free text", "r": 2}) == \
        ChipletConfig(r=2)
    assert ChipletConfig.from_json_dict(REF.to_json_dict()) == REF


def test_config_json_field_types_are_checked():
    doc = load_preset("chiplet_1024x64")
    with pytest.raises(ConfigError, match="exact"):
        ChipletConfig.from_json_dict({**doc, "exact": "false"})
    assert ChipletConfig.from_json_dict({**doc, "exact": False}).exact is False


def _no_builder(cfg):
    raise AssertionError("a DAG was built for an invalid input")


def test_empty_program_rejected(monkeypatch):
    from fhesim.chipletsim import schedules
    monkeypatch.setattr(schedules, "ScheduleBuilder", _no_builder)
    with pytest.raises(ProgramError):
        run_workload(REF, [])
    with pytest.raises(ProgramError):
        run_workload(REF, [{"op": "BOOTSTRAP_SCHED", "schedule": []}])


def test_negative_level_rejected(monkeypatch):
    from fhesim.chipletsim import schedules
    monkeypatch.setattr(schedules, "ScheduleBuilder", _no_builder)
    with pytest.raises(ProgramError):
        schedule_keyswitch_ring(REF, -1)
    with pytest.raises(ProgramError):
        schedule_strawman(REF, -1, "B")
    with pytest.raises(ProgramError):
        run_workload(REF, [{"op": "HMULT", "l": 3}, {"op": "HADD", "l": -1}])


def test_rescale_at_level_zero_rejected(monkeypatch):
    from fhesim.chipletsim import schedules
    monkeypatch.setattr(schedules, "ScheduleBuilder", _no_builder)
    with pytest.raises(ProgramError):
        run_workload(REF, [{"op": "HMULT", "l": 2}, {"op": "RESCALE", "l": 0}])


def test_host_load_of_no_bytes_rejected(monkeypatch):
    # a HOST_LOAD of 0 or fewer bytes used to run as a zero- or
    # negative-duration transfer
    from fhesim.chipletsim import schedules
    monkeypatch.setattr(schedules, "ScheduleBuilder", _no_builder)
    for nbytes in (0, -100):
        with pytest.raises(ProgramError):
            run_workload(REF, [{"op": "HOST_LOAD", "l": 2, "bytes": nbytes}])


@pytest.mark.parametrize("program", [
    {"op": "HADD", "l": 3},                                  # a step, not a list
    "HADD",
    [["HADD", 3]],                                           # a step that is no object
    [{"l": 3}],                                              # a step with no op
    [{"op": 3, "l": 3}],
    [{"op": "BOOTSTRAP_SCHED"}],                             # no schedule
    [{"op": "BOOTSTRAP_SCHED", "schedule": {"op": "HADD"}}],  # a schedule not a list
    [{"op": "HADD", "l": 3.5}],                              # used to run as level 3
    [{"op": "HADD", "l": "x"}],                              # a bare ValueError
    [{"op": "HADD", "l": True}],
    [{"op": "KEYSWITCH", "l": 3, "k": 1.0}],
    [{"op": "KEYSWITCH", "l": 3, "k": True}],                # used to run as k = 1
    [{"op": "HOST_LOAD", "l": 2, "bytes": "4096"}],
    [{"op": "BOOTSTRAP_SCHED", "schedule": [{"op": "HADD", "l": 2.0}]}],
    [{"op": "KEYSWITCH", "level": 5}],                      # a typo ran at the depth
    [{"op": "HADD", "l": 3, "comment": "x"}],
    [{"op": "BOOTSTRAP_SCHED", "l": 3, "schedule": [{"op": "HADD", "l": 3}]}],
    [{"op": "HADD", "l": 3, "bytes": 7}],                   # ran as if it gave none
])
def test_malformed_program_rejected(program, monkeypatch):
    from fhesim.chipletsim import schedules
    monkeypatch.setattr(schedules, "ScheduleBuilder", _no_builder)
    with pytest.raises(ProgramError):
        run_workload(REF, program)


def test_non_integer_levels_rejected(monkeypatch):
    from fhesim.chipletsim import schedules
    monkeypatch.setattr(schedules, "ScheduleBuilder", _no_builder)
    for levels in (3.0, "3", True):
        with pytest.raises(ProgramError):
            run_workload(REF, [{"op": "HADD", "l": 2}], levels=levels)


@pytest.mark.parametrize("l, levels", [(3, -1), (40, 3), (None, -1)])
def test_levels_below_a_step_level_rejected(l, levels, monkeypatch):
    # under SEQUENTIAL, levels -1 used to raise a bare ZeroDivisionError in
    # limb_owner, and levels 3 put 38 of an l=40 step's 41 limbs on chiplet 3
    from fhesim.chipletsim import schedules
    monkeypatch.setattr(schedules, "ScheduleBuilder", _no_builder)
    step = {"op": "HADD"} if l is None else {"op": "HADD", "l": l}
    with pytest.raises(ProgramError, match="level"):
        run_workload(REF, [step], assignment="SEQUENTIAL", levels=levels)


def test_unknown_strawman_technique_rejected_before_any_dag(monkeypatch):
    # used to raise a bare ValueError from inside the DAG builder
    from fhesim.chipletsim import schedules
    monkeypatch.setattr(schedules, "ScheduleBuilder", _no_builder)
    with pytest.raises(ProgramError, match="technique"):
        schedule_strawman(ChipletConfig(), 6, "D")
    # a technique that is no name raised a bare AttributeError from upper()
    for technique in (None, 1, ["A"]):
        with pytest.raises(ProgramError, match="technique"):
            schedule_strawman(ChipletConfig(), 14, technique)


def test_parse_program_applies_the_defaults():
    steps, levels = parse_program([
        {"op": "hadd"}, {"op": "BOOTSTRAP_SCHED", "schedule": [
            {"op": "ROTATE", "l": 5, "k": 2}, {"op": "HOST_LOAD", "l": 1, "bytes": 64}]}])
    assert levels == 5
    assert [tuple(s) for s in steps] == [("HADD", 5, 1, None), ("ROTATE", 5, 2, None),
                                         ("HOST_LOAD", 1, 1, 64)]
    assert parse_program([{"op": "HADD"}])[1] == 0


def test_every_bundled_program_preset_parses():
    presets = resources.files("fhesim.presets")
    programs = {}
    for path in presets.iterdir():
        doc = json.loads(path.read_text()) if path.name.endswith(".json") else {}
        if "program" in doc:
            assert set(doc) <= set(_PROGRAM_DOC_KEYS), path.name
            programs[path.name] = parse_program(doc["program"], doc.get("levels"))
    assert {"keyswitch_l30.json", "bootstrap_example.json"} <= set(programs)
    assert all(steps for steps, _ in programs.values())


def test_digits_dnum_above_limb_count_rejected():
    # the digit count follows from k, so a K below 1, which would make more
    # digits than limbs, is what is refused
    for k in (0, -1):
        with pytest.raises(ProgramError):
            schedule_keyswitch_digits(REF, 4, k)
    rep = schedule_keyswitch_digits(REF, 4, 1)
    assert rep.total_cycles > 0 and rep.meta["dnum"] == 5


def test_unknown_keyswitch_strategy_rejected(monkeypatch):
    # "digitwise" used to run ALTERNATE silently (20690 cycles at l=8,
    # dnum=3, K=3, where DIGITWISE gives 18432)
    from fhesim.chipletsim import schedules
    assert schedule_keyswitch_digits(REF, 8, 3, "DIGITWISE").total_cycles == 18432
    monkeypatch.setattr(schedules, "ScheduleBuilder", _no_builder)
    for strategy in ("digitwise", "SEQUENTIAL", ""):
        with pytest.raises(ProgramError):
            schedule_keyswitch_digits(REF, 8, 3, strategy)
        with pytest.raises(ProgramError):
            schedules.build_keyswitch_digits(None, 8, 3, strategy)


def test_keyswitch_dnum_without_k_rejected(monkeypatch):
    # a step gives k, and its digit count follows from k: a step that still
    # gives dnum (with or without k), a k below 1, or a MODDOWN with k != 1
    # (the feed-forward ModDown models one special base) is refused
    from fhesim.chipletsim import schedules
    rep = run_workload(REF, [{"op": "KEYSWITCH", "l": 8, "k": 3}])
    assert rep.op_counts["NTT"] == opcount.keyswitch_generic(8, 3, 3)["NTT"]
    monkeypatch.setattr(schedules, "ScheduleBuilder", _no_builder)
    for step in ({"op": "KEYSWITCH", "l": 8, "dnum": 3},
                 {"op": "KEYSWITCH", "l": 8, "dnum": 3, "k": 3},
                 {"op": "ROTATE", "l": 8, "k": 0},
                 {"op": "MODDOWN", "l": 8, "k": 3}):
        with pytest.raises(ProgramError):
            run_workload(REF, [{"op": "HADD", "l": 8}, step])


def test_digitwise_sends_wait_for_their_intt():
    # at K=1 digit 0's INTT is uid 0, which used to read as "no INTT yet",
    # so its sends started at cycle 0
    rep = schedule_keyswitch_digits(ChipletConfig(r=4), 3, 1, "DIGITWISE")
    assert rep.total_cycles == 7168
    ops = [t for t in rep.timeline if t["digit"] == 0 and t["phase"] == "modup"]
    intt_end = max(t["end"] for t in ops if t["kind"] == "INTT")
    sends = [t["start"] for t in ops if t["kind"] == "SEND"]
    assert sends and min(sends) >= intt_end == 1024


def test_empty_sweep_rejected(monkeypatch):
    from fhesim.chipletsim import schedules
    monkeypatch.setattr(schedules, "ScheduleBuilder", _no_builder)
    with pytest.raises(ProgramError):
        sweep_chiplets(REF, [])
    with pytest.raises(ConfigError):
        sweep_chiplets(REF, [4, 0])


def test_schedule_arguments_must_be_integers(monkeypatch):
    # l=True used to run as l=1 (8372 cycles), l=2.0 and l=2.5 raised a bare
    # TypeError
    from fhesim.chipletsim import schedules
    monkeypatch.setattr(schedules, "ScheduleBuilder", _no_builder)
    for bad in (True, 2.0, 2.5, "2"):
        for call in (lambda: schedule_keyswitch_ring(REF, bad),
                     lambda: schedule_keyswitch_digits(REF, bad, 3),
                     lambda: schedule_keyswitch_digits(REF, 8, bad),
                     lambda: schedule_strawman(REF, bad, "A"),
                     lambda: sweep_chiplets(REF, [4], l=bad)):
            with pytest.raises(ProgramError, match="must be an integer"):
                call()


def _tracked_objects(root) -> int:
    """The objects reachable from root that the cyclic GC tracks, classes
    and modules aside."""
    seen, stack, tracked = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            tracked += 1
            stack.extend(gc.get_referents(obj))
    return tracked


def test_built_dag_holds_a_constant_number_of_tracked_objects():
    # a MicroOp per op with two lists made the collector's work grow with
    # the DAG: 1,686 tracked objects at l=8 and 9,408 at l=30
    cfg = replace(ChipletConfig.from_json_dict(load_preset("chiplet_1024x64")), r=32)
    dags = []
    for l in (8, 30):
        sb = ScheduleBuilder(cfg)
        build_keyswitch_ring(sb, l)
        dags.append(sb)
    gc.collect()
    assert _tracked_objects(dags[0]) == _tracked_objects(dags[1])
    assert len(dags[0]) < len(dags[1])


# ---------------------------------------------------------------------------
# Engine properties over small random DAGs

_RESOURCE = {"NTT": "ntt", "MAS": "mas", "SEND": "c2c", "HBM_RD": "hbm"}


@st.composite
def _random_dags(draw):
    cfg = replace(REF, r=draw(st.integers(1, 3)))
    sb = ScheduleBuilder(cfg)
    for uid in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(sorted(_RESOURCE)))
        chiplet = draw(st.integers(0, cfg.r - 1))
        earlier = st.lists(st.integers(0, uid - 1), max_size=3, unique=True) \
            if uid else st.just([])
        sb.add(kind, f"{_RESOURCE[kind]}:{chiplet}", draw(st.integers(0, 5)),
               deps=draw(earlier),
               stream_deps=draw(earlier) if kind == "SEND" else (),
               priority=(draw(st.integers(0, 3)),),
               nbytes=sb.poly_bytes if kind in ("SEND", "HBM_RD") else 0,
               mas=draw(st.integers(0, 2)))
    return cfg, sb


@settings(max_examples=150, deadline=None)
@given(dag=_random_dags())
def test_engine_invariants_on_random_dags(dag):
    cfg, sb = dag
    ops = list(sb)
    rep = Engine(cfg).run(sb)
    start = {t["uid"]: t["start"] for t in rep.timeline}
    end = {t["uid"]: t["end"] for t in rep.timeline}
    for op in ops:
        assert all(start[op.uid] >= end[d] for d in op.deps)
        assert all(end[op.uid] >= end[d] for d in op.stream_deps)
    by_resource = {}
    for op in ops:
        by_resource.setdefault(op.resource, []).append(op.uid)
    for res, uids in by_resource.items():
        for t in {start[u] for u in uids}:
            running = sum(1 for u in uids if start[u] <= t < end[u])
            assert running <= _CAPACITY[res.split(":")[0]]
        if res.startswith("ntt:"):
            # issue order: each op starts once its predecessor has finished
            assert all(start[b] >= end[a] for a, b in zip(uids, uids[1:]))
    # wall time ends when the last compute op, shadow-MAS carrier or consumed
    # op retires
    consumed = {d for op in ops for d in op.deps + op.stream_deps}
    assert rep.total_cycles == max((end[op.uid] for op in ops
                                    if op.kind in ("NTT", "MAS") or op.mas
                                    or op.uid in consumed), default=0)
    assert rep.op_counts.get("MAS", 0) == sum((op.kind == "MAS") + op.mas for op in ops)
    for c in rep.per_chiplet:
        assert min(c.values()) >= 0
        assert c["busy"] + c["stall"] + c["idle"] == rep.total_cycles
    sends = sum(v["sends"] for v in rep.links.values())
    assert sum(v["bytes"] for v in rep.links.values()) == sends * cfg.poly_bytes
    again = Engine(cfg).run(sb)
    assert again.to_json() == rep.to_json() and again.timeline == rep.timeline


def _relabelled(sb):
    """sb with chiplet i renamed r - 1 - i in every resource name: the same
    DAG, whose resources first appear in another order."""
    out = copy.copy(sb)
    out.resources = []
    for name in sb.resources:
        unit, _, i = name.partition(":")
        out.resources.append(f"{unit}:{sb.cfg.r - 1 - int(i)}" if i else name)
    return out


def _times(cfg, sb):
    return [(t["uid"], t["start"], t["end"]) for t in Engine(cfg).run(sb).timeline]


@settings(max_examples=150, deadline=None)
@given(dag=_random_dags())
def test_relabelling_chiplets_moves_no_start_or_finish(dag):
    # the order resources first appear in, which numbers them and so orders
    # a pass's visits, must not move an op
    cfg, sb = dag
    assert _times(cfg, _relabelled(sb)) == _times(cfg, sb)


_GOLDEN_FLOWS = {
    **{f"ring-l{l}-sh{int(sh)}-md{int(md)}": (build_keyswitch_ring, l,
                                              dict(shadowed=sh, include_moddown=md))
       for l in (2, 14, 30) for sh in (True, False) for md in (True, False)},
    **{f"digits-{l},{k}-ALTERNATE": (build_keyswitch_digits, l, dict(k=k))
       for l, k in ((8, 3), (22, 8), (23, 4))},
}


@pytest.mark.parametrize("flow", sorted(_GOLDEN_FLOWS))
def test_relabelling_chiplets_moves_no_golden_op(flow):
    build, l, kwargs = _GOLDEN_FLOWS[flow]
    cfg = ChipletConfig.from_json_dict(load_preset("chiplet_1024x64"))
    assert cfg.r == 4
    sb = ScheduleBuilder(cfg)
    build(sb, l, **kwargs)
    relabelled = _relabelled(sb)
    assert relabelled.resources != sb.resources
    assert _times(cfg, relabelled) == _times(cfg, sb)
