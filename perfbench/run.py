"""upadic benchmark runner.

    python3 perfbench/run.py --workload parabola --seed 1 --seconds 40 --trace 0

Every timed run is a fresh child process (perfbench/child.py) with
UPADIC_THREADS=1 and PYTHONPATH=<checkout>/src, one child at a time, because
the package's lru_caches make warm in-process timings meaningless and every
CLI call pays the cold cost.  Each child's outputs are checked.

--trace 0 reports the end-to-end metrics: wall_s (spawn until the output is
checked), setup_s (spawn until upadic and all its submodules are imported)
and peak_rss_mb (the child's own peak RSS from os.wait4), each the median
over the run.  --trace 1 alternates untraced and traced children and reports
the per-layer metrics of the traced ones (medians) and the tracing overhead.
``--workload all`` cycles round-robin through every workload and prints each
metric per workload with its quartiles and sample count.

The last line of stdout is one JSON object: correct, attempted, failed (the
output checks) and metrics.  The run exits 2 without a result when the
package cannot be imported from the checkout.
"""

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
SETUPS_PER_CYCLE = 3
# A hung child is killed this long after the run's measuring time is up, so a
# 40 s run ends well inside 180 s.
GRACE_S = 130.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_n_max"):
        return "rows"
    return "count"


def summary(values):
    """(median, first quartile, third quartile, count) of a sample."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def environment(root):
    """Git sha (read from .git when the checkout has one), Python, nproc."""
    sha = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                ref = fh.read().strip()
        sha = ref
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_before": os.getloadavg()}


class ChildFailed(Exception):
    pass


class Bench:
    """Spawns and reaps the child processes of one benchmark run."""

    def __init__(self, workdir, seconds):
        self.workdir = workdir
        self.deadline = time.perf_counter() + seconds + GRACE_S
        self.env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                    "PYTHONPATH": os.path.join(ROOT, "src"),
                    "UPADIC_THREADS": "1", "LC_ALL": "C"}
        self.err_path = os.path.join(workdir, "stderr.txt")

    def spawn(self, args, stdout_fd):
        """Start ``python3 -s ARGS`` with the clean environment."""
        err = os.open(self.err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        null = os.open(os.devnull, os.O_RDONLY)
        try:
            return os.posix_spawn(
                sys.executable, [sys.executable, "-s"] + args, self.env,
                file_actions=[(os.POSIX_SPAWN_DUP2, null, 0),
                              (os.POSIX_SPAWN_DUP2, stdout_fd, 1),
                              (os.POSIX_SPAWN_DUP2, err, 2)])
        finally:
            os.close(err)
            os.close(null)

    def _timeout(self):
        return max(1.0, self.deadline - time.perf_counter())

    def reap(self, pid):
        """Wait for the child (killing it at the hard limit); returns its
        exit code and its own rusage."""
        pidfd = os.pidfd_open(pid)
        try:
            if not select.select([pidfd], [], [], self._timeout())[0]:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        return os.waitstatus_to_exitcode(status), usage

    def stderr_tail(self):
        with open(self.err_path, errors="replace") as fh:
            return fh.read()[-2000:]

    def probe(self):
        """Seconds from spawn until upadic and all submodules are imported."""
        r, w = os.pipe()
        try:
            t0 = time.perf_counter()
            pid = self.spawn([CHILD, "setup"], w)
            os.close(w)
            w = -1
            ready = select.select([r], [], [], self._timeout())[0]
            got = os.read(r, 1) if ready else b""
            t1 = time.perf_counter()
        finally:
            os.close(r)
            if w >= 0:
                os.close(w)
        code, _ = self.reap(pid)
        if got != b"R" or code != 0:
            raise ChildFailed("set-up child exited %s:\n%s"
                              % (code, self.stderr_tail()))
        return t1 - t0

    def workload(self, name, checker, pairs, traced):
        """One cold workload child: (wall_s, peak_rss_mb, cpu_s, per-layer
        metrics of a traced child or None)."""
        out = os.path.join(self.workdir, "report.json")
        trace = os.path.join(self.workdir, "trace.json")
        for path in (out, trace):
            if os.path.exists(path):
                os.remove(path)
        args = [CHILD, name, "--out", out]
        if pairs:
            args += ["--pairs", ",".join("%d:%d" % p for p in pairs)]
        if traced:
            args += ["--trace", trace]
        t0 = time.perf_counter()
        pid = self.spawn(args, 1)
        code, usage = self.reap(pid)
        try:
            with open(out, "rb") as fh:
                report = fh.read()
        except OSError:
            report = b""
        n_failed = checker.check(code, report)
        wall = time.perf_counter() - t0
        if n_failed:
            print("%s: %d checks failed: %s\n%s" % (
                name, n_failed, "; ".join(checker.failures[-3:]),
                self.stderr_tail()), file=sys.stderr)
        layers = None
        if traced and code == 0:
            with open(trace) as fh:
                layers = spans.layer_metrics(json.load(fh))
            layers["verify.claims"], layers["verify.claims_failed"] = \
                workloads.count_claims(report)
        return (wall, usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime, layers)


class Series:
    """Samples and checks of one workload within a run."""

    def __init__(self, name, seed, expected):
        self.name = name
        self.pairs = workloads.congruence_pairs(seed) if name == "congruence" else None
        self.checker = workloads.Checker(name, expected, self.pairs)
        self.setup, self.wall, self.rss, self.cpu = [], [], [], []
        self.traced_wall, self.layers = [], []

    def end_to_end(self):
        return {"wall_s": self.wall, "setup_s": self.setup,
                "peak_rss_mb": self.rss}

    def per_layer(self):
        names = self.layers[0].keys() if self.layers else ()
        out = {k: [m[k] for m in self.layers] for k in names}
        if self.wall and self.traced_wall:
            out["trace.overhead_frac"] = [
                statistics.median(self.traced_wall) / statistics.median(self.wall) - 1]
        return out


def measure(bench, names, seed, seconds, traced):
    """Run cycles until the next one would overrun ``seconds``.  A cycle runs,
    for each workload in turn: untraced, SETUPS_PER_CYCLE set-up probes and
    one workload child; traced, one untraced and one traced child."""
    expected = workloads.load_expected()
    series = [Series(n, seed, expected) for n in names]
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        for s in series:
            if not traced:
                s.setup.extend(bench.probe() for _ in range(SETUPS_PER_CYCLE))
            wall, rss, cpu, _ = bench.workload(s.name, s.checker, s.pairs, False)
            s.wall.append(wall)
            s.rss.append(rss)
            s.cpu.append(cpu)
            if traced:
                wall, _, _, layers = bench.workload(s.name, s.checker, s.pairs, True)
                s.traced_wall.append(wall)
                if layers is not None:
                    s.layers.append(layers)
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest > seconds:
            return series


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)

    env = environment(ROOT)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        bench = Bench(workdir, args.seconds)
        try:
            bench.probe()       # fails when the package is missing; warms .pyc
            series = measure(bench, names, args.seed, args.seconds, args.trace)
        except ChildFailed as exc:
            print("benchmark cannot run: %s" % exc, file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    env["seed"] = args.seed
    for s in series:
        if s.pairs:
            env["congruence_pairs"] = s.pairs
    print("# env " + json.dumps(env))

    metrics = {}
    for s in series:
        samples = s.per_layer() if args.trace else s.end_to_end()
        if not args.trace:
            print("# %s cpu_s median %.4f" % (s.name, statistics.median(s.cpu)))
        for metric, values in samples.items():
            unit = per_layer_unit(metric) if args.trace else END_TO_END_UNITS[metric]
            med, q1, q3, n = summary(values)
            key = metric if len(series) == 1 else "%s.%s" % (s.name, metric)
            print("# %-40s %14.6g %s  (q1 %.6g, q3 %.6g, n %d)"
                  % (key, med, unit, q1, q3, n))
            metrics[key] = {"value": med, "unit": unit}
    attempted = sum(s.checker.attempted for s in series)
    failed = sum(s.checker.failed for s in series)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
