"""Command-line entry point: verify, simulate, analyze, sweep.

All commands are deterministic under a fixed --seed and speak JSON/CSV on
the file interfaces.  `simulate --cross-check` fails (exit 1) whenever the
simulator and the analytic layer disagree on a quantity both can compute.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import analytic, opcount
from .chipletsim import (ASSIGNMENTS, ChipletConfig, ConfigError, ProgramError, flatten,
                         run_workload, schedule_keyswitch_ring, sweep_chiplets)
from .verify import FAULTS, run_verify

# Inputs the model or a formula refuses: one line on stderr, exit status 2.
_INPUT_ERRORS = (ConfigError, ProgramError, analytic.InvalidArgument)


def load_preset(name: str) -> dict:
    path = resources.files("fhesim.presets") / f"{name}.json"
    with path.open("r") as fh:
        return json.load(fh)


def _load_config(args) -> ChipletConfig:
    if args.config:
        doc = json.loads(Path(args.config).read_text())
    else:
        doc = load_preset(args.preset)
    return ChipletConfig.from_json_dict(doc)


def _write_json(path: str | None, doc: dict) -> None:
    text = json.dumps(doc, indent=2, default=str)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _write_csv(path: str, rows: list, keys: list) -> None:
    lines = [",".join(keys)]
    lines += [",".join(str(row.get(k, "")) for k in keys) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_verify(args) -> int:
    summary = run_verify(scope=args.scope, size=args.size, seed=args.seed,
                         fault=args.inject_fault)
    if args.dump_census:
        census = {
            "keyswitch_full": {str(l): opcount.keyswitch_full(l) for l in (4, 8, 30)},
            "keyswitch_generic": {
                f"l={l},dnum={d},k={k}": opcount.keyswitch_generic(l, d, k)
                for l, d, k in ((8, 3, 3), (22, 3, 8), (30, 31, 1))},
            "moddown": {str(l): opcount.moddown(l, 1) for l in (8, 30)},
            "rescale": {str(l): opcount.rescale(l) for l in (8, 30)},
            "hmult": {str(l): opcount.hmult(l) for l in (8, 30)},
        }
        Path(args.dump_census).write_text(json.dumps(census, indent=2) + "\n")
    _write_json(args.json_out, summary)
    if summary["failures"]:
        print(f"FAILED: {len(summary['failures'])} case(s); first: "
              f"{summary['failures'][0]}", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if args.program:
        doc = json.loads(Path(args.program).read_text())
    else:
        doc = load_preset(args.workload)
    program = doc["program"]
    levels = doc.get("levels")
    report = run_workload(cfg, program, assignment=args.assignment, levels=levels,
                          with_timeline=bool(args.timeline))
    rc = 0
    if args.cross_check:
        problems = []
        # every ring key switch of the program, a ROTATE's and nested ones too
        ring_levels = sorted({int(step["l"]) for step in flatten(program)
                              if step["op"].upper() in ("KEYSWITCH", "ROTATE")
                              and int(step.get("k", 1)) == 1})
        for l in ring_levels:
            single = schedule_keyswitch_ring(cfg, l)
            want = analytic.comm_polynomials("OURS", l, r=cfg.r)
            if single.polynomials_transferred != want:
                problems.append(
                    f"keyswitch l={l}: transfers {single.polynomials_transferred}"
                    f" != analytic {want}")
            exact = schedule_keyswitch_ring(replace(cfg, exact=True, r=1), l,
                                            include_moddown=False)
            if exact.total_cycles != analytic.keyswitch_cycles(l, cfg.n1):
                problems.append(f"keyswitch l={l}: exact cycles diverge")
        if problems:
            for p in problems:
                print(f"cross-check: {p}", file=sys.stderr)
            rc = 1
    if args.timeline:
        Path(args.timeline).write_text(report.timeline_csv())
    doc = report.to_json_dict()
    _write_json(args.out, doc)
    print(f"wall time: {report.wall_time_ms:.4f} ms | cycles: {report.total_cycles}"
          f" | ntt utilization: {report.ntt_utilization:.3f}"
          f" | polys transferred: {report.polynomials_transferred}", file=sys.stderr)
    return rc


def cmd_analyze(args) -> int:
    name = args.formula
    rows = []
    if name == "throughput":
        f_hz = args.f * 1e9
        rows.append({"formula": "keyswitch_throughput_ops",
                     "L": args.L, "n1": args.n1,
                     "shadowed": analytic.keyswitch_throughput(args.L, args.n1, f_hz),
                     "naive": analytic.keyswitch_throughput(args.L, args.n1, f_hz,
                                                            shadowed=False),
                     "improvement_pct":
                         100 * analytic.shadowing_improvement(args.L)})
    elif name == "comm":
        rows.append({"formula": "comm_polynomials", "technique": args.tech,
                     "l": args.l,
                     "count": str(analytic.comm_polynomials(
                         args.tech, args.l, dnum=args.dnum, k=args.k, r=args.r))})
    elif name == "bound":
        if not args.c2c > 0:
            raise analytic.InvalidArgument(f"--c2c must be positive, got {args.c2c}")
        rows.append({"formula": "chiplet_bound", "L": args.L,
                     "k_ratio": args.hbm / args.c2c,
                     "max_r": analytic.chiplet_bound(args.L, args.hbm / args.c2c,
                                                     u=args.u)})
    elif name == "storage":
        rows.append({"formula": "key_storage", "L": args.L, "dnum": args.dnum,
                     "bytes_expanded": analytic.key_storage(args.L, args.dnum,
                                                            args.n, args.w),
                     "bytes_seeded": analytic.key_storage(args.L, args.dnum, args.n,
                                                          args.w, seeded=True),
                     "bytes_per_digit_limb":
                         analytic.key_storage_per_digit_limb(args.n, args.w)})
    elif name == "twiddle":
        rows.append({"formula": "twiddle_tradeoff", "n1": args.n1, "n2": args.n2,
                     **analytic.twiddle_tradeoff(args.n1, args.n2, tfg=not args.no_tfg)})
    elif name == "census":
        # K alone picks the switch, as in CkksContext; the digit count follows
        k = 1 if args.k is None else args.k
        if args.l < 0 or k < 1:
            raise analytic.InvalidArgument(
                f"a census needs --l of at least 0 and --k (the special base "
                f"size) of at least 1, got --l {args.l}, --k {args.k}")
        dnum = len(opcount.digit_ranges(args.l, k))
        if args.dnum is not None and args.dnum != dnum:
            raise analytic.InvalidArgument(
                f"--dnum {args.dnum} disagrees with --k {k}: their digit count "
                f"at l={args.l} is {dnum}")
        if k == 1:
            c = opcount.keyswitch_full(args.l)
        else:
            c = opcount.keyswitch_generic(args.l, dnum, k)
            c["ntt_equivalents_per_chiplet"] = str(
                analytic.digits_census(args.l, dnum, k, args.r))
        rows.append({"formula": "census", "l": args.l, **c})
    else:
        print(f"unknown formula {name!r}", file=sys.stderr)
        return 2
    if args.csv:
        _write_csv(args.csv, rows, sorted({k for row in rows for k in row}))
    _write_json(None, rows[0] if len(rows) == 1 else {"rows": rows})
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    r_list = [int(x) for x in args.r_list.split(",")]
    rows = sweep_chiplets(cfg, r_list, l=args.l)
    if args.csv:
        _write_csv(args.csv, rows, list(rows[0]))
    _write_json(args.out, {"rows": rows})
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fhesim",
                                 description="CKKS kernels and chiplet simulator")
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="run the oracle-differential suites")
    v.add_argument("--scope", choices=("kernels", "ckks", "all"), default="all")
    v.add_argument("--size", choices=("toy", "small"), default="toy")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json-out", default=None)
    v.add_argument("--dump-census", default=None,
                   help="write per-routine micro-op counts as JSON")
    v.add_argument("--inject-fault", default=None, choices=sorted(FAULTS),
                   help="mutation-test hook: break one kernel, or limb storage, "
                        "on purpose")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate", help="run a macro-op program on the model")
    s.add_argument("--config", default=None, help="chiplet config JSON path")
    s.add_argument("--preset", default="chiplet_1024x64",
                   help="bundled config preset name")
    s.add_argument("--program", default=None, help="program JSON path")
    s.add_argument("--workload", default="keyswitch_l30",
                   help="bundled workload preset name")
    s.add_argument("--assignment", default="INTERLEAVED",
                   choices=ASSIGNMENTS)
    s.add_argument("--out", default=None, help="report JSON path (stdout otherwise)")
    s.add_argument("--timeline", default=None, help="timeline CSV path")
    s.add_argument("--cross-check", action="store_true",
                   help="fail if simulator and analytic layer diverge")
    s.set_defaults(func=cmd_simulate)

    a = sub.add_parser("analyze", help="closed-form formulas")
    a.add_argument("formula", choices=("throughput", "comm", "bound", "storage",
                                       "twiddle", "census"))
    a.add_argument("--L", type=int, default=30)
    a.add_argument("--l", type=int, default=30)
    a.add_argument("--n1", type=int, default=1024)
    a.add_argument("--n2", type=int, default=64)
    a.add_argument("--n", type=int, default=65536)
    a.add_argument("--w", type=int, default=54)
    a.add_argument("--f", type=float, default=1.5, help="clock in GHz")
    a.add_argument("--tech", default="OURS")
    a.add_argument("--dnum", type=int, default=None)
    a.add_argument("--k", type=int, default=None)
    a.add_argument("--r", type=int, default=4)
    a.add_argument("--hbm", type=float, default=1200.0)
    a.add_argument("--c2c", type=float, default=630.0)
    a.add_argument("--u", type=float, default=4.0)
    a.add_argument("--no-tfg", action="store_true")
    a.add_argument("--csv", default=None)
    a.set_defaults(func=cmd_analyze)

    w = sub.add_parser("sweep", help="chiplet-count sweep")
    w.add_argument("--config", default=None)
    w.add_argument("--preset", default="chiplet_1024x64")
    w.add_argument("--r-list", default="4,8,12")
    w.add_argument("--l", type=int, default=30)
    w.add_argument("--out", default=None)
    w.add_argument("--csv", default=None)
    w.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"fhesim {args.cmd}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
