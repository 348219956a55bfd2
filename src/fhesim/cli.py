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
from .chipletsim import (ASSIGNMENTS, ChipletConfig, ConfigError, ProgramError,
                         parse_program, run_workload, schedule_keyswitch_ring,
                         sweep_chiplets)
from .verify import FAULTS, FaultNotRun, run_verify

# Inputs the model, a formula or verify refuses: one line on stderr, exit status 2.
_INPUT_ERRORS = (ConfigError, ProgramError, analytic.InvalidArgument, FaultNotRun)
# A program document's keys; as in a config, a free-text "comment" is the
# one key the model does not read, so a misspelt key is an error.
_PROGRAM_DOC_KEYS = ("program", "levels", "comment")


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
        try:
            doc = json.loads(Path(args.program).read_text())
        except json.JSONDecodeError as exc:
            raise ProgramError(f"{args.program} is not JSON: {exc}") from None
    else:
        doc = load_preset(args.workload)
    if not isinstance(doc, dict) or "program" not in doc:
        raise ProgramError('a program document must be an object with a "program" list')
    unknown = sorted(set(doc) - set(_PROGRAM_DOC_KEYS))
    if unknown:
        raise ProgramError(f"unknown program document keys {unknown}; "
                           f"expected {sorted(_PROGRAM_DOC_KEYS)}")
    program, levels = doc["program"], doc.get("levels")
    report = run_workload(cfg, program, assignment=args.assignment, levels=levels)
    rc = 0
    if args.cross_check:
        problems = []
        # every ring key switch of the program, a ROTATE's and nested ones too
        steps, _ = parse_program(program, levels)
        ring_levels = sorted({step.l for step in steps
                              if step.op in ("KEYSWITCH", "ROTATE") and step.k == 1})
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
    name, l = args.formula, args.l
    if name == "throughput":
        f_hz = args.f * 1e9
        row = {"formula": "keyswitch_throughput_ops", "L": l, "n1": args.n1,
               "shadowed": analytic.keyswitch_throughput(l, args.n1, f_hz),
               "naive": analytic.keyswitch_throughput(l, args.n1, f_hz, shadowed=False),
               "improvement_pct": 100 * analytic.shadowing_improvement(l)}
    elif name == "comm":
        row = {"formula": "comm_polynomials", "technique": args.tech, "l": l,
               "count": str(analytic.comm_polynomials(args.tech, l, k=_digit_k(args),
                                                      r=args.r))}
    elif name == "bound":
        if not args.c2c > 0:
            raise analytic.InvalidArgument(f"--c2c must be positive, got {args.c2c}")
        row = {"formula": "chiplet_bound", "L": l, "k_ratio": args.hbm / args.c2c,
               "max_r": analytic.chiplet_bound(l, args.hbm / args.c2c, u=args.u)}
    elif name == "storage":
        # key_storage refuses a bad --dnum; the row gives the K and the digit
        # count it sized (--L 4 --dnum 4 sizes 3 digits of K = 2)
        expanded = analytic.key_storage(l, args.dnum, args.n, args.w)
        k = opcount.digit_size(l, args.dnum)
        row = {"formula": "key_storage", "L": l, "dnum": len(opcount.digit_ranges(l, k)),
               "k": k, "bytes_expanded": expanded,
               "bytes_seeded": analytic.key_storage(l, args.dnum, args.n, args.w,
                                                    seeded=True),
               "bytes_per_digit_limb": analytic.key_storage_per_digit_limb(args.n, args.w)}
    elif name == "twiddle":
        row = {"formula": "twiddle_tradeoff", "n1": args.n1, "n2": args.n2,
               **analytic.twiddle_tradeoff(args.n1, args.n2, tfg=not args.no_tfg)}
    else:   # census, the last formula the parser accepts
        # K alone picks the switch, as in CkksContext; the digit count follows
        k = _digit_k(args, default=1)
        if k == 1:
            c = opcount.keyswitch_full(l)
        else:
            c = opcount.keyswitch_generic(l, len(opcount.digit_ranges(l, k)), k)
            c["ntt_equivalents_per_chiplet"] = str(analytic.digits_census(l, k, args.r))
        row = {"formula": "census", "l": l, **c}
    if args.csv:
        _write_csv(args.csv, [row], sorted(row))
    _write_json(None, row)
    return 0


def _digit_k(args, default: int | None = None) -> int | None:
    """--k (default when not given), the special base size that fixes the
    key-switching digits; a --dnum given beside it must be their count at
    --l.  A --k or --l out of range is refused by digit_ranges or the formula."""
    k = default if args.k is None else args.k
    if args.dnum is not None and k is not None:
        dnum = len(opcount.digit_ranges(args.l, k))
        if args.dnum != dnum:
            raise analytic.InvalidArgument(
                f"--dnum {args.dnum} disagrees with --k {k}: their digit count "
                f"at l={args.l} is {dnum}")
    return k


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = sweep_chiplets(cfg, args.r_list, l=args.l)
    if args.csv:
        _write_csv(args.csv, rows, list(rows[0]))
    _write_json(args.out, {"rows": rows})
    return 0


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed argument with one error line and exit status 2,
    as main refuses input the model or a formula rejects."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _int_list(text: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="fhesim", description="CKKS kernels and chiplet simulator")
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="run the oracle-differential suites")
    v.add_argument("--scope", choices=("kernels", "ckks", "all"), default="all")
    v.add_argument("--size", choices=("toy", "small"), default="toy")
    v.add_argument("--seed", type=_seed, default=0)
    v.add_argument("--json-out", default=None)
    v.add_argument("--dump-census", default=None,
                   help="write per-routine micro-op counts as JSON")
    v.add_argument("--inject-fault", default=None, choices=sorted(FAULTS),
                   help="mutation-test hook: break one kernel on purpose")
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
    a.add_argument("--L", "--l", dest="l", type=int, default=30,
                   help="level, under either spelling")
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
    w.add_argument("--r-list", type=_int_list, default="4,8,12",
                   help="comma-separated chiplet counts")
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
