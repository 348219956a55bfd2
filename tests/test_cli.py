import json
from pathlib import Path

import pytest

from fhesim import analytic, opcount
from fhesim.cli import load_preset, main


def test_verify_kernels_toy(tmp_path):
    out = tmp_path / "v.json"
    rc = main(["verify", "--scope", "kernels", "--size", "toy", "--seed", "1",
               "--json-out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["comparisons"] >= 10 ** 4
    assert doc["failures"] == []


def test_verify_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["verify", "--scope", "kernels", "--size", "toy", "--seed", "5",
          "--json-out", str(a)])
    main(["verify", "--scope", "kernels", "--size", "toy", "--seed", "5",
          "--json-out", str(b)])
    assert a.read_text() == b.read_text()


def test_verify_fault_injection_fails(tmp_path):
    rc = main(["verify", "--scope", "kernels", "--size", "toy",
               "--inject-fault", "shuffle-offby1",
               "--json-out", str(tmp_path / "f.json")])
    assert rc == 1


def test_verify_trivium_lane_fault_fails(tmp_path):
    rc = main(["verify", "--scope", "kernels", "--size", "toy",
               "--inject-fault", "trivium-lane",
               "--json-out", str(tmp_path / "f.json")])
    assert rc != 0
    failures = json.loads((tmp_path / "f.json").read_text())["failures"]
    # one lane alone is unaffected: only the multi-lane check sees the fault
    assert failures and all("trivium lane" in f for f in failures)


def test_verify_ntt_fold_fault_fails(tmp_path):
    out = str(tmp_path / "f.json")
    args = ["verify", "--scope", "kernels", "--size", "toy", "--json-out", out]
    assert main(args + ["--inject-fault", "ntt-fold"]) == 1
    assert json.loads(Path(out).read_text())["failures"]
    assert main(args) == 0


def test_verify_ntt_split_fault_fails(tmp_path):
    # the stages on the transposed chunks read their twiddles untransposed
    out = str(tmp_path / "f.json")
    args = ["verify", "--scope", "kernels", "--size", "toy", "--json-out", out]
    assert main(args + ["--inject-fault", "ntt-split"]) == 1
    failures = json.loads(Path(out).read_text())["failures"]
    assert any("ntt kernel == oracle" in f for f in failures)
    assert any("intt kernel == oracle" in f for f in failures)
    assert main(args) == 0


def test_verify_twiddle_table_fault_fails(tmp_path):
    # one doubling step of the NumPy psi-power table is a power too high
    out = str(tmp_path / "f.json")
    args = ["verify", "--scope", "kernels", "--size", "toy", "--json-out", out]
    assert main(args + ["--inject-fault", "twiddle-table"]) == 1
    failures = json.loads(Path(out).read_text())["failures"]
    assert any("twiddle stored == on-the-fly" in f for f in failures)
    assert any("twiddle table inverse" in f for f in failures)
    # no table built under the fault outlives it
    assert main(args) == 0


def test_verify_mas_fold_fault_fails(tmp_path):
    # dropping the last fold of the two-operand product leaves residues in [0, 2q)
    out = str(tmp_path / "f.json")
    args = ["verify", "--scope", "kernels", "--size", "toy", "--json-out", out]
    assert main(args + ["--inject-fault", "mas-fold"]) == 1
    failures = json.loads(Path(out).read_text())["failures"]
    assert any("mas mul/mac" in f for f in failures)
    assert main(args) == 0


def test_verify_dump_census(tmp_path):
    census = tmp_path / "census.json"
    rc = main(["verify", "--scope", "kernels", "--size", "toy",
               "--dump-census", str(census),
               "--json-out", str(tmp_path / "v.json")])
    assert rc == 0
    doc = json.loads(census.read_text())
    assert doc["keyswitch_full"]["30"]["NTT"] == 31 * 32 + 62


def test_simulate_preset_cross_check(tmp_path):
    out = tmp_path / "rep.json"
    csv = tmp_path / "t.csv"
    rc = main(["simulate", "--preset", "chiplet_1024x64",
               "--workload", "keyswitch_l30", "--out", str(out),
               "--timeline", str(csv), "--cross-check"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["polynomials_transferred"] == 132
    assert csv.read_text().startswith("op,chiplet,resource")


def test_simulate_r1_no_c2c(tmp_path):
    cfg = load_preset("chiplet_1024x64")
    cfg["r"] = 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    rc = main(["simulate", "--config", str(cfg_path),
               "--workload", "keyswitch_l30", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["polynomials_transferred"] == 0
    assert not any(k.startswith("c2c") for k in doc["links"])


def test_simulate_bootstrap_schedule(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["simulate", "--preset", "chiplet_1024x64",
               "--workload", "bootstrap_example", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["meta"]["steps"]) == 10


def test_analyze_commands(capsys):
    assert main(["analyze", "comm", "--tech", "ours", "--l", "30", "--r", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == "132"
    assert main(["analyze", "bound", "--L", "30", "--hbm", "1200",
                 "--c2c", "630"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_r"] == 4
    assert main(["analyze", "throughput", "--L", "30", "--n1", "1024",
                 "--f", "1.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["shadowed"] - 1431.9) < 0.1
    assert main(["analyze", "twiddle", "--n1", "1024", "--n2", "64"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["extra_multipliers"] == 131


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--preset", "chiplet_1024x64", "--r-list", "4,8",
               "--l", "14", "--csv", str(out), "--out", str(tmp_path / "s.json")])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split(",")[0] == "r"


def test_verify_stale_row_fault_fails(tmp_path):
    # kernels that keep reading a limb's row after its list was read and edited
    out = str(tmp_path / "f.json")
    args = ["verify", "--scope", "ckks", "--size", "toy", "--json-out", out]
    assert main(args + ["--inject-fault", "stale-row"]) == 1
    failures = json.loads(Path(out).read_text())["failures"]
    assert failures == ["ckks: an edited limb reaches the next routine"]
    assert main(args) == 0


def test_verify_aut_ntt_index_fault_fails(tmp_path):
    # the NTT-domain automorphism's index map rolled by one slot
    out = str(tmp_path / "f.json")
    args = ["verify", "--scope", "kernels", "--size", "toy", "--json-out", out]
    assert main(args + ["--inject-fault", "aut-ntt-index"]) == 1
    failures = json.loads(Path(out).read_text())["failures"]
    assert failures and all("automorphism ntt gather" in f for f in failures)
    assert main(args) == 0


def test_refused_config_or_program_is_one_line_and_status_2(tmp_path, capsys):
    # ConfigError and ProgramError used to escape as a traceback (exit 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"c2c_gpbs": 1.0}))
    # a string "false" used to turn exactness mode on
    not_bool = tmp_path / "not_bool.json"
    not_bool.write_text(json.dumps({**load_preset("chiplet_1024x64"), "exact": "false"}))
    for argv, named in ((["simulate", "--config", str(bad)], "c2c_gpbs"),
                        (["sweep", "--config", str(not_bool)], "exact"),
                        (["sweep", "--r-list", "0"], "r must be at least 1"),
                        (["sweep", "--l", "-1"], "l must be at least 0")):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1 and named in out.err, argv


@pytest.mark.parametrize("argv, named", [
    (["census", "--dnum", "3"], "--k"),              # was a bare TypeError
    (["comm", "--tech", "limbwise"], "dnum"),        # was a bare TypeError
    (["storage", "--dnum", "0"], "dnum"),            # was a ZeroDivisionError
    (["bound", "--c2c", "0"], "--c2c"),              # was a ZeroDivisionError
    (["storage"], "dnum"),                           # was a bare TypeError
    (["census", "--l", "1", "--k", "3", "--dnum", "2"], "--dnum"),  # 1 digit at l=1
    (["throughput", "--n1", "0"], "n1 must be at least 1"),  # a ZeroDivisionError
    (["throughput", "--L", "-3"], "L must be at least 0"),   # 0 cycles: the same
    (["throughput", "--f", "0"], "clock"),                   # printed 0 switches/s
    (["bound", "--hbm", "-1"], "k_ratio must be at least 0"),  # printed max_r 32
    (["bound", "--hbm", "nan"], "k_ratio must be at least 0"),  # a ValueError
    (["storage", "--dnum", "3", "--n", "0", "--w", "-3"],
     "n must be at least 1"),                                # printed 0 bytes
    (["comm", "--tech", "OURS", "--l", "-5", "--r", "4"],
     "l must be at least 0"),                                # printed -8
    (["comm", "--tech", "OURS", "--r", "0"], "r must be at least 1"),  # printed 0
    (["census", "--l", "5", "--k", "2", "--r", "0"],
     "r must be at least 1"),                                # a ZeroDivisionError
])
def test_analyze_rejects_bad_arguments(argv, named, capsys):
    assert main(["analyze", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and named in out.err


def test_analyze_census_picks_the_switch_by_k(capsys):
    # a K=3 census at l=1 used to print the ring's INTT 4 / NTT 10 / MAS 26
    for extra in ([], ["--dnum", "1"]):
        assert main(["analyze", "census", "--l", "1", "--k", "3", *extra]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["INTT"], doc["NTT"], doc["MAS"]) == (8, 7, 44)
        assert doc["ntt_equivalents_per_chiplet"] == str(analytic.digits_census(1, 1, 3, 4))
    for extra in ([], ["--k", "1"], ["--dnum", "9"]):
        assert main(["analyze", "census", "--l", "8", *extra]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"formula": "census", "l": 8, **opcount.keyswitch_full(8)}


def test_cross_check_covers_nested_key_switches(tmp_path, monkeypatch):
    # bootstrap_example's key switches, a ROTATE's included, all sit inside a
    # BOOTSTRAP_SCHED; the cross-check used to read top-level steps only
    args = ["simulate", "--workload", "bootstrap_example", "--cross-check",
            "--out", str(tmp_path / "rep.json")]
    assert main(args) == 0
    comm = analytic.comm_polynomials
    monkeypatch.setattr(analytic, "comm_polynomials",
                        lambda tech, l, **kw: comm(tech, l, **kw) + (l == 29))
    assert main(args) == 1
