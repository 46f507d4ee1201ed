"""Reference record (not gated): ``python3 perfbench/reference.py``.

Times each default ``upadic verify`` suite once in a fresh process (the
p3-parabola suite alone takes about 90 s, too long to repeat in every
benchmark run) and counts the non-blank lines under src/upadic/.  Prints one
JSON object; perfbench/reference.json holds the record and the machine it
was taken on.
"""

import json
import os
import platform
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SUITES = ("modcurve", "umatrix", "p3-parabola", "mod3", "weights", "congruence")


def source_lines(root):
    src = os.path.join(root, "src", "upadic")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                total += sum(1 for line in fh if line.strip())
    return total


def main():
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    suites = {}
    try:
        bench = run.Bench(workdir, seconds=3600)
        for suite in SUITES:
            out = os.path.join(workdir, "report.json")
            t0 = time.perf_counter()
            pid = bench.spawn(["-m", "upadic.cli", "verify", "--suite", suite,
                               "--out", out], 1)
            code, usage = bench.reap(pid)
            wall = time.perf_counter() - t0
            with open(out) as fh:
                claims = [c for s in json.load(fh)["suites"] for c in s["claims"]]
            suites[suite] = {"wall_s": round(wall, 3),
                             "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
                             "exit_code": code, "claims": len(claims),
                             "claims_failed": sum(not c["pass"] for c in claims)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = run.environment(run.ROOT)
    env["machine"] = platform.machine()
    print(json.dumps({"environment": env, "suites": suites,
                      "src_nonblank_lines": source_lines(run.ROOT)}, indent=2))


if __name__ == "__main__":
    main()
