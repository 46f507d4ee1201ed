"""The benchmark's workloads: their inputs, and the checks on their outputs.

Shared by the parent (run.py) and the child process (child.py); imports
nothing from upadic.
"""

import hashlib
import json
import os
import random

from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# Fixed mathematical inputs.  parabola is the char-series kernel at large n
# (truncations 40 and 50, about 300 primes per CRT); modular fits I_p for all
# five primes by both routes and builds U matrices, with no char-series call.
CLI_ARGS = {
    "parabola": ["verify", "--suite", "p3-parabola", "--terms", "30",
                 "--size", "40"],
    "modular": ["verify", "--suite", "umatrix"],
}

# congruence: weights.congruence_check(k, k2, M_MAX, SIZE) on seeded pairs,
# many mid-size CRT calls (n = 30) plus weight twists.
M_MAX, SIZE = 20, 30
# The multiples of 6 in [0, 162] form seven groups of four neighbouring
# weights.  A seed draws one weight from each group and pairs each draw with
# the next, so every seed has 6 pairs and 7 distinct weights.  Char-series
# cost varies with the weight (3500 to 5600 Hadamard bits), smoothly, so one
# weight per group keeps the work of a run nearly independent of the seed.
WEIGHT_GROUPS = tuple(tuple(range(24 * g, 24 * g + 24, 6)) for g in range(7))
CANDIDATE_PAIRS = tuple((a, b) for lo, hi in zip(WEIGHT_GROUPS, WEIGHT_GROUPS[1:])
                        for a in lo for b in hi)

WORKLOADS = ("parabola", "modular", "congruence")


def congruence_pairs(seed):
    """The seed's six weight pairs: consecutive draws, one per group."""
    rng = random.Random(seed)
    draws = [rng.choice(group) for group in WEIGHT_GROUPS]
    return list(zip(draws, draws[1:]))


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Checks every output of one workload across the runs of one seed.

    A check is the exit code, the pinned report digest (parabola, modular),
    one report claim or congruence pair, or the congruence report matching
    the first report of the seed byte for byte.  A run that crashes or exits
    non-zero fails all of its checks.
    """

    def __init__(self, workload, expected, pairs=None):
        self.workload = workload
        self.expected = expected.get(workload)
        self.pairs = pairs
        self.first_digest = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def checks_per_run(self):
        if self.workload == "congruence":
            return 2 + len(self.pairs)
        return 2 + self.expected["claims"]

    def check(self, exit_code, report):
        """Record the checks of one run; returns the number failed."""
        total = self.checks_per_run()
        n_failed = total
        if exit_code != 0:
            failures = ["exit code %s" % exit_code]
        else:
            try:
                failures = self._failures(report)
                n_failed = len(failures)
            except (ValueError, KeyError, TypeError) as exc:
                failures = ["unusable report: %s" % exc]
        self.attempted += total
        self.failed += n_failed
        self.failures.extend(failures)
        return n_failed

    def _failures(self, report):
        doc = json.loads(report)
        digest = sha256(report)
        out = []
        if self.workload == "congruence":
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                out.append("report bytes differ from the seed's first run")
            got = [(r["k"], r["k2"]) for r in doc["pairs"]]
            if got != list(self.pairs):
                raise ValueError("pairs %r, expected %r" % (got, self.pairs))
            out.extend("congruence %d-%d failed" % (r["k"], r["k2"])
                       for r in doc["pairs"] if not _congruence_pair_ok(r))
            return out
        if digest != self.expected["sha256"]:
            out.append("report sha256 %s, pinned %s"
                       % (digest, self.expected["sha256"]))
        claims = [c for s in doc["suites"] for c in s["claims"]]
        if len(claims) != self.expected["claims"]:
            raise ValueError("%d claims, expected %d"
                             % (len(claims), self.expected["claims"]))
        out.extend("claim %s failed" % c["id"]
                   for c in claims if c["pass"] is not True)
        return out


def count_claims(report):
    """(claims, claims failed) in a report; a congruence pair is one claim."""
    doc = json.loads(report)
    if "pairs" in doc:
        claims = doc["pairs"]
    else:
        claims = [c for s in doc["suites"] for c in s["claims"]]
    return len(claims), sum(1 for c in claims if c["pass"] is not True)


def _congruence_pair_ok(rep):
    """A pair passes when its flag says so and every coefficient difference
    really has v_3 at least the required n + 1."""
    if rep["pass"] is not True or len(rep["rows"]) != M_MAX + 1:
        return False
    need = rep["n"] + 1
    for row in rep["rows"]:
        v = row["v_diff"]
        if row["pass"] is not True or (v != "inf" and Fraction(v) < need):
            return False
    return True

