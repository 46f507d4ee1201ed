import hashlib
import inspect
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from upadic import cli, mod3, verify, weights
from upadic.charseries import CoefficientRecord, certify
from upadic.cli import main
from upadic.serialize import val_str


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "upadic.cli", *args],
                          capture_output=True, text=True)


def test_ipoly_json(tmp_path):
    out = tmp_path / "ip.json"
    assert main(["ipoly", "--prime", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    terms = {(t["i"], t["j"]): t["coeff"] for t in doc["terms"]}
    assert terms[(2, 1)] == "-4096"
    assert terms[(1, 2)] == "-1"


def test_u_matrix_cross_method(tmp_path):
    out = tmp_path / "m.json"
    rc = main(["u-matrix", "--prime", "3", "--size", "6", "--method", "both",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["entries"][0][0] == "90"
    assert doc["sign_convention"] == "negated-log-derivative"


def test_u_matrix_scaled_quadint(tmp_path):
    out = tmp_path / "m.json"
    rc = main(["u-matrix", "--prime", "3", "--size", "4", "--method", "genfun",
               "--scaled", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["basis"] == "scaled-3^(3m/2)"
    assert set(doc["entries"][0][0]) == {"a", "b"}


def test_u_matrix_csv(tmp_path):
    out = tmp_path / "m.csv"
    rc = main(["u-matrix", "--prime", "2", "--size", "4", "--method", "genfun",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "i,j,valuation,entry_bound"
    assert lines[1].startswith("1,1,3,3")      # v_2(24) = 3 = bound


@pytest.mark.parametrize("basis", [[], ["--scaled"]], ids=["plain", "scaled"])
def test_u_matrix_csv_rows_meet_their_bound(tmp_path, basis):
    out = tmp_path / "m.csv"
    assert main(["u-matrix", "--prime", "3", "--size", "6", "--format", "csv",
                 "--out", str(out), *basis]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 36
    for line in rows:
        i, j, v, bound = line.split(",")
        assert v == "inf" or Fraction(v) >= Fraction(bound), line


def test_unsupported_prime_usage_error():
    proc = run_cli("u-matrix", "--prime", "11", "--size", "4")
    assert proc.returncode == 2


def test_charpoly_and_newton(tmp_path):
    out = tmp_path / "q.json"
    rc = main(["charpoly", "--prime", "3", "--terms", "4", "--size", "16",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["coefficients"][0] == "1"
    certs = {c["m"]: c for c in doc["certified"]}
    assert certs[1]["valuation"] == "2"
    assert certs[4]["valuation"] == "26"

    nout = tmp_path / "np.json"
    ncsv = tmp_path / "np.csv"
    rc = main(["newton", "--prime", "3", "--terms", "4", "--size", "16",
               "--csv", str(ncsv), "--out", str(nout)])
    assert rc == 0
    doc = json.loads(nout.read_text())
    assert [1, "2"] in doc["vertices"]
    assert [4, "26"] in doc["vertices"]
    header = ncsv.read_text().splitlines()[0]
    assert header == "m,valuation,parabola,secant,certified"


def test_newton_csv_through_the_exact_fallback(tmp_path, monkeypatch):
    # at weight 54 and size 8 the graded residues leave a record unsettled,
    # so the records come from certify on the exact series
    calls = []
    real = weights.cuspidal_char_series
    monkeypatch.setattr(weights, "cuspidal_char_series",
                        lambda *a: calls.append(a) or real(*a))
    csv = tmp_path / "np.csv"
    assert main(["newton", "--prime", "3", "--weight", "54", "--terms", "8",
                 "--size", "8", "--csv", str(csv),
                 "--out", str(tmp_path / "np.json")]) == 0
    assert calls == [(3, 54, 8), (3, 54, 18)]
    recs = certify(real(3, 54, 8), real(3, 54, 18), 8)
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert [(m, v, c) for m, v, _, _, c in rows] == [
        (str(r.m), val_str(r.v_obs), str(r.certified)) for r in recs]


def test_twist_command(tmp_path):
    out = tmp_path / "t.json"
    rc = main(["twist", "--weight", "18", "--size", "8", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["subdiagonal_coefficients"][0] == "1"
    assert doc["n_parameter"] == 1


def test_verify_suite_exit_code(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["verify", "--suite", "mod3", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert all(c["pass"] for s in doc["suites"] for c in s["claims"])
    # every claim carries a stable id and a statement
    for s in doc["suites"]:
        for c in s["claims"]:
            assert c["id"] and c["statement"]


def test_verify_reports_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    env_runs = []
    for path in (a, b):
        proc = run_cli("verify", "--suite", "mod3", "--out", str(path))
        env_runs.append(proc.returncode)
    assert env_runs == [0, 0]
    assert a.read_bytes() == b.read_bytes()


def test_cli_entrypoint_help():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for sub in ("u-matrix", "ipoly", "charpoly", "newton", "twist", "verify"):
        assert sub in proc.stdout


def test_newton_trivial_and_p2(tmp_path):
    out = tmp_path / "n0.json"
    assert main(["newton", "--prime", "3", "--terms", "0", "--size", "12",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["vertices"] == [[0, "0"]] and doc["sides"] == []
    out2 = tmp_path / "n2.json"
    assert main(["newton", "--prime", "2", "--terms", "6", "--size", "16",
                 "--out", str(out2)]) == 0


def test_threads_env_parallel_suites(tmp_path, monkeypatch):
    # UPADIC_THREADS caps worker processes; the assembled report must be
    # identical to the sequential one
    from upadic.verify import run_suites
    seq, ok1 = run_suites(["mod3"], parallel=1)
    monkeypatch.setenv("UPADIC_THREADS", "2")
    par, ok2 = run_suites(["mod3", "mod3"], parallel=2)
    assert ok1 and ok2
    assert par["suites"][0]["claims"] == par["suites"][1]["claims"]
    assert par["suites"][0]["claims"] == seq["suites"][0]["claims"]


def test_verify_lists_every_failing_claim(monkeypatch, capsys, tmp_path):
    def claim(cid, ok):
        return {"id": cid, "pass": ok, "observed": "o-" + cid,
                "expected": "e-" + cid}

    report = {"suites": [
        {"suite": "a", "pass": False, "claims": [claim("a1", False),
                                                  claim("a2", True)]},
        {"suite": "b", "pass": False, "claims": [claim("b1", False)]}],
        "pass": False}
    monkeypatch.setattr(cli, "run_suites", lambda names, parallel: (report, False))
    rc = main(["verify", "--suite", "mod3", "--out", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "FAIL a1: observed o-a1, expected e-a1" in err
    assert "FAIL b1: observed o-b1, expected e-b1" in err
    assert "a2" not in err


def _raising_suite():
    raise TypeError("'<' not supported between 'int' and 'NoneType'")


RAISED = {"id": "mod3-raised", "statement": "the mod3 suite runs to completion",
          "observed": "TypeError: '<' not supported between 'int' and "
                      "'NoneType'",
          "expected": "no exception", "pass": False}


def test_a_raising_suite_is_one_failing_claim(monkeypatch):
    monkeypatch.setitem(verify.SUITES, "mod3", _raising_suite)
    report, ok = verify.run_suites(["mod3", "congruence"])
    assert not ok
    assert report["suites"][0]["claims"] == [RAISED]
    assert report["suites"][1]["claims"] == verify.suite_congruence()
    assert report["suites"][1]["pass"]


def test_verify_reports_a_raising_suite_without_a_traceback(monkeypatch,
                                                            capsys, tmp_path):
    monkeypatch.setitem(verify.SUITES, "mod3", _raising_suite)
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "mod3", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["pass"] is False and doc["suites"][0]["claims"] == [RAISED]
    printed = capsys.readouterr()
    assert "Traceback" not in printed.out + printed.err
    assert "FAIL mod3-raised: observed TypeError" in printed.err


def test_verify_reports_a_raising_claim_alone(monkeypatch, capsys, tmp_path):
    def boom(window):
        raise TypeError("boom")
    monkeypatch.setattr(mod3, "vanishing_check", boom)
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "mod3", "--out", str(out)]) == 1
    claims = json.loads(out.read_text())["suites"][0]["claims"]
    assert len(claims) == 11
    assert [c["id"] for c in claims if not c["pass"]] == ["vanishing"]
    printed = capsys.readouterr()
    assert "Traceback" not in printed.out + printed.err
    assert "FAIL vanishing: observed TypeError: boom," in printed.err


def test_verify_terms_and_size_report_a_raising_claim(monkeypatch, capsys,
                                                      tmp_path):
    # the records of a run whose coefficient 2 is neither certified nor
    # provably above the parabola
    recs = list(weights.stable_valuations(3, 0, 5, 16))
    recs[2] = CoefficientRecord(2, recs[2].v_obs, 5, False)
    monkeypatch.setattr(weights, "stable_valuations", lambda p, k, m, n: recs)
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "p3-parabola", "--terms", "5",
                 "--size", "16", "--out", str(out)]) == 1
    assert len(json.loads(out.read_text())["suites"][0]["claims"]) == 5
    assert ("FAIL parabola-equality-set: observed ValueError: coefficient 2 "
            "neither certified" in capsys.readouterr().err)


def test_verify_parabola_explicit_zero_terms(tmp_path):
    # --terms 0 is a value, not a request for the default 45
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "p3-parabola", "--terms", "0",
                 "--size", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert [s["suite"] for s in doc["suites"]] == ["p3-parabola"]
    assert "through m=0" in doc["suites"][0]["claims"][0]["statement"]
    assert "at size 1 " in doc["suites"][0]["claims"][0]["statement"]


@pytest.mark.parametrize("argv,given", [(["--terms", "3"], 0),
                                         (["--size", "61"], 1)])
def test_verify_fills_in_the_parabola_suite_defaults(monkeypatch, tmp_path,
                                                     argv, given):
    # the usage check and the run see the sizes suite_p3_parabola defaults to
    defaults = [p.default for p in
                inspect.signature(verify.suite_p3_parabola).parameters.values()]
    seen = []
    monkeypatch.setattr(cli, "run_suites", lambda names, threads, *sizes:
                        seen.append(sizes) or ({"suites": []}, None))
    assert main(["verify", "--suite", "p3-parabola", *argv,
                 "--out", str(tmp_path / "r.json")]) == 0
    want = list(defaults)
    want[given] = int(argv[1])
    assert seen == [tuple(want)]
    # one coefficient more than the default truncation has is a usage error
    assert main(["verify", "--suite", "p3-parabola",
                 "--terms", str(defaults[1] + 1)]) == 2
    assert main(["verify", "--suite", "p3-parabola",
                 "--size", str(defaults[0] - 1)]) == 2


def test_charpoly_explicit_zero_size(tmp_path):
    out = tmp_path / "q.json"
    assert main(["charpoly", "--prime", "3", "--terms", "0", "--size", "0",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["truncation_size"] == 0
    assert doc["coefficients"] == ["1"]


def test_newton_weight_off_p3_usage_error(capsys):
    assert main(["newton", "--prime", "5", "--terms", "3", "--weight", "6"]) == 2
    assert "weight twists are implemented for p=3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    ("charpoly --prime 3 --terms 5 --size 3", "--terms 5 exceeds"),
    ("newton --prime 5 --terms 3 --size 2", "--terms 3 exceeds"),
    ("verify --suite p3-parabola --terms 12 --size 10", "--terms 12 exceeds"),
    ("verify --suite mod3 --terms 3", "apply only to --suite p3-parabola"),
    ("verify --size 5", "apply only to --suite p3-parabola"),
    ("charpoly --prime 3 --terms -1", "must be non-negative"),
    ("u-matrix --prime 3 --size -2", "must be non-negative"),
    ("twist --weight 7 --size 5", "must be a multiple of 6"),
    ("twist --weight 6 --size -1", "must be non-negative"),
    ("u-matrix --prime 2 --size 2 --out /nonexistent/x.json",
     "error: cannot write /nonexistent/x.json"),
    ("u-matrix --prime 2 --size 2 --format csv --out /nonexistent/x.csv",
     "error: cannot write /nonexistent/x.csv"),
    ("ipoly --prime 2 --out /nonexistent/x.json",
     "error: cannot write /nonexistent/x.json"),
    ("verify --suite mod3 --out /nonexistent/x.json",
     "error: cannot write /nonexistent/x.json"),
    ("twist --weight 6 --size 3 --out /nonexistent/x.json",
     "error: cannot write /nonexistent/x.json"),
])
def test_bad_arguments_are_usage_errors(argv, message):
    proc = run_cli(*argv.split())
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_scaled_off_p3_is_a_usage_error_before_any_build(monkeypatch, capsys):
    from upadic import umatrix

    def build(p, n):
        raise AssertionError("built a matrix for a usage error")
    monkeypatch.setattr(umatrix, "build_matrix_oracle", build)
    monkeypatch.setattr(umatrix, "build_matrix_genfun", build)
    for method in ("oracle", "genfun", "both"):
        assert main(["u-matrix", "--prime", "5", "--size", "4", "--method",
                     method, "--scaled"]) == 2
        assert "--scaled is specific to p=3" in capsys.readouterr().err


# sha256 of CLI outputs that the Hessenberg recurrence (charpoly), the power
# recurrence (twist, and the eta powers of the oracle) and both (newton)
# reach; a change that alters one of these bytes changes what is printed
PINNED_OUTPUTS = [
    ("charpoly --prime 3 --terms 14 --size 24",
     "6ffecb657a644d01e5ab9eea9f8d43b1c1434fe9703b86a05a51917a1f3152e5"),
    ("charpoly --prime 3 --terms 10 --size 20 --weight 54",
     "344bc9347f249195237ae7d86bf8f8d746fd24088f0bf34aac720abc923806bb"),
    ("charpoly --prime 13 --terms 6 --size 12",
     "cf44fc9617431e789ce2913cce991278282d6969ff64d90e354d93516528c070"),
    ("twist --weight 54 --size 12",
     "dee7a9d66a04a832b10476fd737b9bec7e1a97aa280f930a4a89d5aeebca7177"),
    ("twist --weight -6 --size 20",
     "d10e707b9da6a43f76666f4f308c450b82a359f3d6eb455867fee6e974afc12a"),
    ("u-matrix --prime 3 --size 12 --method both",
     "34d7ffe86532bbea12a88ad1e7f0c0a15440d5308a3c494578759aa9e0bed2e6"),
    ("newton --prime 3 --terms 14 --size 24",
     "a72c751d8b53aa2523a942c9fe022e3b47dfad370a33252710e203696fa87db2"),
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS,
                         ids=[argv for argv, _ in PINNED_OUTPUTS])
def test_pinned_cli_outputs(tmp_path, argv, digest):
    out = tmp_path / "out"
    assert main(argv.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
