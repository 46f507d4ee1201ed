"""The benchmark's own checks: its self-tests, and one short traced run of
the parabola workload.  A package change that renames or bypasses a function
the tracer times fails here, instead of reading 0 in a per-layer metric."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# layers the parabola workload must reach: the two I_p routes, the Laurent
# certificate, and the certifier of the graded series
TIMED = ("modcurve.ip_symbolic_s", "modcurve.ip_fit_s",
         "modcurve.ip_certify_s", "charseries.certify_s")


def _run(*args):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=ROOT, timeout=300)


def test_the_benchmark_selftests_pass():
    proc = _run("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stderr


def test_a_traced_parabola_run_times_every_layer_it_reaches():
    proc = _run("perfbench/run.py", "--workload", "parabola",
                "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert {name: metrics[name]["value"] > 0 for name in TIMED} == \
        dict.fromkeys(TIMED, True)
