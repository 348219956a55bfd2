import json
from dataclasses import replace

import pytest

from fhesim import analytic, opcount
from fhesim.chipletsim import (ChipletConfig, DeadlockDetected, Engine, MicroOp,
                               ScheduleBuilder, run_workload,
                               schedule_keyswitch_digits, schedule_keyswitch_ring,
                               schedule_moddown_ring, schedule_strawman,
                               sweep_chiplets)

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
        rep = schedule_keyswitch_digits(EXACT, l, d, k)
        want = opcount.keyswitch_generic(l, d, k)
        for kind in ("INTT", "NTT", "MAS"):
            assert rep.op_counts.get(kind, 0) == want[kind], (l, d, k, kind)


def test_digits_runtime_formula_exact_mode():
    for l, d, k in ((23, 3, 8), (31, 4, 8), (15, 4, 4), (47, 3, 16)):
        rep = schedule_keyswitch_digits(EXACT, l, d, k)
        assert rep.meta["ntt_equiv_avg"] == analytic.digits_census(l, d, k, 4)


def test_moddown_census_and_hop_overhead():
    rep = schedule_moddown_ring(EXACT, 30, components=2)
    want = opcount.moddown(30, 1, final_add=False)
    for kind in ("INTT", "NTT", "MAS"):
        assert rep.op_counts.get(kind, 0) == 2 * want[kind]
    # component one pays the feed-forward latency; component two hides it:
    # doubling the components costs compute only, not an extra wait
    one = schedule_moddown_ring(EXACT, 30, components=1)
    per_chiplet_ntt = -(-31 // 4) * EXACT.n1
    assert rep.total_cycles <= one.total_cycles + per_chiplet_ntt + EXACT.n1


def test_moddown_r1_zero_transfers():
    cfg = replace(EXACT, r=1)
    rep = schedule_moddown_ring(cfg, 14)
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
    ra = schedule_keyswitch_digits(REF, 22, 3, 8).to_json()
    rb = schedule_keyswitch_digits(REF, 22, 3, 8).to_json()
    assert ra == rb


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


def test_sweep_pool_capped_by_cpu_count(monkeypatch):
    from fhesim.chipletsim import schedules

    sizes = []

    class RecordingPool:
        # Records the requested size and runs the map inline: no thread starts.
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(schedules, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(schedules.os, "cpu_count", lambda: 2)
    rows = sweep_chiplets(REF, [1, 2, 1, 2, 1, 2, 1], l=1)
    assert len(rows) == 7 and sizes == [2]
    sweep_chiplets(REF, [2], l=1)
    sweep_chiplets(REF, [1, 2], l=1, max_workers=5)
    monkeypatch.setattr(schedules.os, "cpu_count", lambda: None)
    sweep_chiplets(REF, [1, 2, 1], l=1)
    assert sizes == [2, 1, 5, 1]


def test_engine_deadlock_guard():
    ops = [
        MicroOp(uid=0, kind="NTT", resource="ntt:0", duration=4, deps=[1],
                priority=(0, 0)),
        MicroOp(uid=1, kind="NTT", resource="ntt:0", duration=4, deps=[0],
                priority=(0, 1)),
    ]
    with pytest.raises(DeadlockDetected):
        Engine(EXACT).run(ops)


def test_report_json_and_timeline():
    rep = schedule_keyswitch_ring(REF, 8, with_timeline=True)
    doc = json.loads(rep.to_json())
    assert doc["schema"] == 1
    assert doc["total_cycles"] == rep.total_cycles
    csv = rep.timeline_csv()
    lines = csv.strip().splitlines()
    assert lines[0].startswith("op,chiplet,resource")
    assert len(lines) == len(rep.timeline) + 1


def test_exact_mode_transfer_is_matched_beat():
    assert EXACT.c2c_cycles() == EXACT.n // EXACT.n2
    assert REF.c2c_cycles() == 1024  # 64 coefficients x 54 bits per cycle
    assert replace(REF, charge_2x_comm=True).c2c_cycles() == 2 * 1024
