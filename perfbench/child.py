"""One cold benchmark process: ``child.py MODE [--out PATH] [--trace PATH]
[--pairs K:K2,...]``.

MODE ``setup`` imports upadic and all its submodules, writes one byte to
stdout once they are ready, and exits.  The workload modes import the same
way, then drive the package through its public entry points and write the
report to ``--out``: ``parabola`` and ``modular`` through ``upadic.cli.main``
and ``congruence`` through ``upadic.weights.congruence_check``.  With
``--trace`` the layers are wrapped before the workload starts and the spans
are written to that path when it ends.
"""

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402


def import_package():
    """Import upadic and every submodule; refuse a copy outside this tree."""
    src = os.path.join(os.path.dirname(HERE), "src")
    upadic = importlib.import_module("upadic")
    if not os.path.abspath(upadic.__file__).startswith(src + os.sep):
        raise SystemExit("upadic imported from %s, not from %s"
                         % (upadic.__file__, src))
    for name in spans.PACKAGE_MODULES:
        importlib.import_module("upadic." + name)
    return upadic


def congruence_report(weights, pairs):
    out = []
    ok = True
    for k, k2 in pairs:
        rep = weights.congruence_check(k, k2, workloads.M_MAX, workloads.SIZE)
        ok &= rep["pass"]
        out.append({"k": k, "k2": k2, "n": rep["n"], "pass": rep["pass"],
                    "rows": [{"m": r["m"], "v_diff": str(r["v_diff"]),
                              "required": str(r["required"]),
                              "pass": r["pass"]} for r in rep["rows"]]})
    return {"pairs": out}, ok


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup",) + workloads.WORKLOADS)
    ap.add_argument("--out")
    ap.add_argument("--trace")
    ap.add_argument("--pairs", default="")
    args = ap.parse_args(argv)

    upadic = import_package()
    if args.mode == "setup":
        os.write(1, b"R")
        return 0
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    if args.mode == "congruence":
        pairs = [tuple(int(k) for k in p.split(":"))
                 for p in args.pairs.split(",")]
        doc, ok = congruence_report(upadic.weights, pairs)
        with open(args.out, "w") as fh:
            fh.write(json.dumps(doc, indent=1) + "\n")
        code = 0 if ok else 1
    else:
        code = upadic.cli.main(workloads.CLI_ARGS[args.mode] + ["--out", args.out])
    if tracer is not None:
        tracer.dump(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
