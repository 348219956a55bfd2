import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhesim import analytic, opcount
from fhesim.cli import load_preset, main
from fhesim.verify import FAULTS


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


def _fault_failures(tmp_path, fault):
    """Run the toy kernels suite under `fault`, check it fails, then check a
    clean run after it passes; return the faulted run's failure labels."""
    out = tmp_path / "f.json"
    args = ["verify", "--scope", "kernels", "--size", "toy", "--json-out", str(out)]
    assert main(args + ["--inject-fault", fault]) == 1
    failures = json.loads(out.read_text())["failures"]
    # no fault, and no table built under one, outlives its run
    assert main(args) == 0
    return failures


def test_verify_fault_injection_fails(tmp_path):
    failures = _fault_failures(tmp_path, "shuffle-offby1")
    assert failures and all("automorphism gle=" in f for f in failures)


def test_verify_trivium_lane_fault_fails(tmp_path):
    failures = _fault_failures(tmp_path, "trivium-lane")
    # one lane alone is unaffected: only the multi-lane check sees the fault
    assert failures and all("trivium lane" in f for f in failures)


def test_verify_sampler_mask_fault_fails(tmp_path):
    failures = _fault_failures(tmp_path, "sampler-mask")
    # only the residue checks see the mask, in both lane groups
    assert all("residues" in f for f in failures)
    assert any(" 0 of " in f for f in failures) and any(" 256 of " in f for f in failures)


def test_verify_ntt_fold_fault_fails(tmp_path):
    failures = _fault_failures(tmp_path, "ntt-fold")
    for label in ("ntt kernel == oracle", "intt kernel == oracle", "ntt roundtrip"):
        assert any(label in f for f in failures), label


def test_verify_ntt_split_fault_fails(tmp_path):
    # the stages on the transposed chunks read their twiddles untransposed
    failures = _fault_failures(tmp_path, "ntt-split")
    assert any("ntt kernel == oracle" in f for f in failures)
    assert any("intt kernel == oracle" in f for f in failures)


def test_verify_twiddle_table_fault_fails(tmp_path):
    # one doubling step of the NumPy psi-power table is a power too high
    failures = _fault_failures(tmp_path, "twiddle-table")
    assert any("twiddle stored == on-the-fly" in f for f in failures)
    assert any("twiddle table inverse" in f for f in failures)


def test_verify_mas_ratio_fault_fails(tmp_path):
    # per-element ratios in float32 wrap the 54-bit products; nothing else
    # forms its ratio per element
    failures = _fault_failures(tmp_path, "mas-ratio")
    assert failures and all("mas mul/mac" in f for f in failures)


def test_verify_aut_ntt_index_fault_fails(tmp_path):
    # the NTT-domain automorphism's index map rolled by one slot
    failures = _fault_failures(tmp_path, "aut-ntt-index")
    assert failures and all("automorphism ntt gather" in f for f in failures)


def test_every_fault_breaks_the_kernels_suite():
    # each fault above is one of these; a new fault needs a test of its own
    assert sorted(FAULTS) == sorted(["shuffle-offby1", "trivium-lane", "sampler-mask",
                                     "ntt-fold", "ntt-split", "twiddle-table", "mas-ratio",
                                     "aut-ntt-index"])
    assert {suite for suite, *_ in FAULTS.values()} == {"kernels"}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_verify_refuses_a_fault_its_scope_does_not_run(fault, tmp_path, capsys):
    # --scope ckks ran no kernels suite, so every fault exited 0 with a JSON
    # report of no failures: a fault never injected read as a clean pass
    out = tmp_path / "v.json"
    assert main(["verify", "--scope", "ckks", "--inject-fault", fault,
                 "--json-out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error:" in err and "kernels suite" in err
    assert not out.exists()     # refused before any suite ran


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


def test_refused_config_or_program_is_one_line_and_status_2(tmp_path, capsys):
    # ConfigError and ProgramError used to escape as a traceback (exit 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"c2c_gpbs": 1.0}))
    # a string "false" used to turn exactness mode on
    not_bool = tmp_path / "not_bool.json"
    not_bool.write_text(json.dumps({**load_preset("chiplet_1024x64"), "exact": "false"}))
    # json.loads reads Infinity; the run then raised a bare ZeroDivisionError
    infinite = tmp_path / "infinite.json"
    infinite.write_text(json.dumps({**load_preset("chiplet_1024x64"), "f_ghz": float("inf")}))
    for argv, named in ((["simulate", "--config", str(bad)], "c2c_gpbs"),
                        (["simulate", "--config", str(infinite)], "f_ghz"),
                        (["sweep", "--config", str(not_bool)], "exact"),
                        (["sweep", "--r-list", "0"], "r must be at least 1"),
                        (["sweep", "--l", "-1"], "l must be at least 0")):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1 and named in out.err, argv


@pytest.mark.parametrize("text, named", [
    ('{"levels": 3}', "program"),                               # was a bare KeyError
    ('[{"op": "HADD", "l": 3}]', "program"),                    # was a bare TypeError
    ('{"program": {"op": "HADD", "l": 3}}', "list"),
    ('{"program": [{"op": "HADD", "l": 3.5}]}', "integer"),     # ran as level 3, exit 0
    ('{"program": [{"op": "HADD", "l": "x"}]}', "integer"),     # was a bare ValueError
    ('{"program": [{"op": "BOOTSTRAP_SCHED"}]}', "schedule"),   # was a bare KeyError
    ('{"program": [{"op": "HADD", "l": 3}]', "not JSON"),       # was a JSONDecodeError
    # a misspelt key was ignored: the step ran at l=8, the program at levels 3
    ('{"program": [{"op": "KEYSWITCH", "level": 5}], "levels": 8}', "level"),
    ('{"program": [{"op": "HADD", "l": 3}], "level": 30}', "level"),
    ('{"program": [{"op": "BOOTSTRAP_SCHED", "l": 3, "schedule": []}]}', "BOOTSTRAP_SCHED"),
    ('{"program": [{"op": "KEYSWITCH", "l": 8, "dnum": 3}]}', "follows from k"),
    # ran, or under SEQUENTIAL raised a bare ZeroDivisionError (levels -1) or
    # put 38 of the step's 41 limbs on chiplet 3 (levels 3)
    ('{"program": [{"op": "HADD", "l": 3}], "levels": -1}', "levels -1"),
    ('{"program": [{"op": "HADD", "l": 40}], "levels": 3}', "levels 3"),
    # ran as if the step gave no bytes
    ('{"program": [{"op": "HADD", "l": 3, "bytes": 7}]}', "HOST_LOAD"),
], ids=["no-program", "a-list", "program-not-list", "float-l", "string-l",
        "no-schedule", "not-json", "step-key", "document-key", "bootstrap-key", "dnum",
        "levels-negative", "levels-below-step", "bytes-not-host-load"])
def test_malformed_program_file_is_one_line_and_status_2(text, named, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(text)
    assert main(["simulate", "--program", str(path), "--cross-check"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and named in out.err


def test_cross_check_reads_the_default_level_of_a_step(tmp_path):
    # a KEYSWITCH without "l" runs at the program's levels; the cross-check
    # used to read step["l"] and raise a bare KeyError
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"program": [{"op": "KEYSWITCH"}], "levels": 8}))
    assert main(["simulate", "--program", str(path), "--cross-check",
                 "--out", str(tmp_path / "rep.json")]) == 0


@pytest.mark.parametrize("r_list", ["4,x", ""])
def test_sweep_r_list_that_is_not_integers_is_one_line_and_status_2(r_list, capsys):
    # int() of each item used to raise a bare ValueError
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", "--r-list", r_list])
    assert exit_.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and "--r-list" in out.err


_ANALYZE_INT_FLAGS = ("--L", "--l", "--n1", "--n2", "--n", "--w", "--dnum", "--k", "--r")


@settings(max_examples=60, deadline=None)
@given(formula=st.sampled_from(["throughput", "comm", "bound", "storage", "twiddle",
                                "census"]),
       values=st.lists(st.integers(-2, 70), min_size=len(_ANALYZE_INT_FLAGS),
                       max_size=len(_ANALYZE_INT_FLAGS)))
def test_analyze_returns_0_or_2_for_any_small_integer_flags(formula, values):
    # every formula either prints its result or refuses with one line
    argv = ["analyze", formula]
    for flag, value in zip(_ANALYZE_INT_FLAGS, values):
        argv += [flag, str(value)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main(argv)
    assert rc in (0, 2)
    assert rc == 0 or err.getvalue().count("\n") == 1


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
    (["twiddle", "--n1", "0"], "n1=0"),                      # a traceback, exit 1
    (["throughput", "--f", "inf"], "clock"),                 # printed Infinity, not JSON
    (["bound", "--u", "inf"], "headroom u"),                 # printed max_r 0
    (["bound", "--hbm", "inf"], "k_ratio must be at least 0 and finite"),  # "k_ratio": Infinity
])
def test_analyze_rejects_bad_arguments(argv, named, capsys):
    assert main(["analyze", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and named in out.err


@pytest.mark.parametrize("l, dnum, k, digits", [(4, 4, 2, 3), (30, 64, 1, 31), (30, 31, 1, 31)])
def test_analyze_storage_prints_the_digit_count_it_sizes(l, dnum, k, digits, capsys):
    # --L 4 --dnum 4 printed dnum 4 beside bytes for 3 digits of K = 2
    assert main(["analyze", "storage", "--L", str(l), "--dnum", str(dnum)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["dnum"], doc["k"]) == (digits, k)
    assert doc["bytes_expanded"] == digits * (l + k + 1) * doc["bytes_per_digit_limb"]


def test_analyze_census_picks_the_switch_by_k(capsys):
    # a K=3 census at l=1 used to print the ring's INTT 4 / NTT 10 / MAS 26
    for extra in ([], ["--dnum", "1"]):
        assert main(["analyze", "census", "--l", "1", "--k", "3", *extra]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["INTT"], doc["NTT"], doc["MAS"]) == (8, 7, 44)
        assert doc["ntt_equivalents_per_chiplet"] == str(analytic.digits_census(1, 3, 4))
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


def test_analyze_level_flag_has_one_setting_under_both_spellings(capsys):
    # --L and --l were two settings: throughput read --L, so --l 8 printed L=30
    docs = []
    for flag in ("--l", "--L"):
        assert main(["analyze", "throughput", flag, "8"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0] == docs[1] and docs[0]["L"] == 8
    assert docs[0]["shadowed"] == analytic.keyswitch_throughput(8, 1024, 1.5e9)


def test_verify_refuses_a_negative_seed(capsys):
    # the seed reached numpy's default_rng, which raised a bare ValueError
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--scope", "kernels", "--seed", "-1"])
    assert exit_.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and "--seed" in out.err
