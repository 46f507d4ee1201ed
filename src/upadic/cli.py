"""Command-line interface.

Subcommands: u-matrix, ipoly, charpoly, newton, twist, verify.
Exit codes: 0 success, 1 claim failure, 2 usage error (an unwritable
--out or --csv path included).  verify runs every suite through run_suites,
where a claim that raises is that claim failing; no traceback is shown.
UPADIC_THREADS caps parallelism of independent verification suites.
"""

import argparse
import os
import sys

from . import modcurve, umatrix, charseries, weights
from .verify import PARABOLA_SIZE, PARABOLA_TERMS, SUITES, run_suites
from .serialize import (dump_json, dump_csv, matrix_json, bipoly_json,
                        charseries_json, polygon_json, val_str, OutputError)
from .modcurve import GENUS_ZERO_PRIMES


def _threads():
    try:
        return max(1, int(os.environ.get("UPADIC_THREADS", "1")))
    except ValueError:
        return 1


def cmd_u_matrix(args):
    p, n = args.prime, args.size
    if args.scaled and p != 3:
        print("--scaled is specific to p=3", file=sys.stderr)
        return 2
    if args.method in ("oracle", "both"):
        m = umatrix.build_matrix_oracle(p, n)
    else:
        m = umatrix.build_matrix_genfun(p, n)
    if args.method == "both":
        g = umatrix.build_matrix_genfun(p, n)
        if m.rows != g.rows:
            print("cross-method check failed", file=sys.stderr)
            return 1
    if args.scaled:
        m = umatrix.scaled_matrix_p3(m)
    if args.format == "csv":
        rows = [(i, j, val_str(umatrix.entry_valuation(m, i, j)),
                 val_str(umatrix.entry_bound(p, m.basis, i, j)))
                for i in range(1, m.n + 1) for j in range(1, m.n + 1)]
        dump_csv(rows, ("i", "j", "valuation", "entry_bound"), args.out)
    else:
        dump_json(matrix_json(m), args.out)
    return 0


def cmd_ipoly(args):
    ip = modcurve.ip_poly(args.prime)
    doc = bipoly_json(ip)
    doc["prime"] = args.prime
    dump_json(doc, args.out)
    if args.pretty:
        print(ip.pretty())
    return 0


def _count(text):
    """argparse type: a non-negative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be non-negative, got %d" % n)
    return n


def _weight(text):
    """argparse type: a weight the p=3 twists accept, a multiple of 6."""
    k = int(text)
    if k % 6:
        raise argparse.ArgumentTypeError("must be a multiple of 6, got %d" % k)
    return k


def _twist_off_p3(args):
    """True, after printing why, when a weight twist is asked for at p != 3."""
    if args.weight and args.prime != 3:
        print("weight twists are implemented for p=3", file=sys.stderr)
        return True
    return False


def _terms_past_size(terms, size):
    """True, after printing why, when more coefficients are asked for than a
    truncation of this size has."""
    if terms > size:
        print("--terms %d exceeds the truncation size %d" % (terms, size),
              file=sys.stderr)
        return True
    return False


def cmd_charpoly(args):
    p = args.prime
    size = max(args.terms + 10, 2 * args.terms) if args.size is None else args.size
    if _twist_off_p3(args) or _terms_past_size(args.terms, size):
        return 2
    q = weights.cuspidal_char_series(p, args.weight, size)
    recs = weights.stable_valuations(p, args.weight, args.terms, size)
    dump_json(charseries_json(q, args.weight, recs), args.out)
    return 0


def cmd_newton(args):
    p = args.prime
    size = max(args.terms + 10, 20) if args.size is None else args.size
    if _twist_off_p3(args) or _terms_past_size(args.terms, size):
        return 2
    recs = weights.stable_valuations(p, args.weight, args.terms, size)
    for r in recs:
        if not (r.certified or r.m == 0):
            print("warning: coefficient %d uncertified; plotted at its "
                  "proven lower bound" % r.m, file=sys.stderr)
    poly = charseries.polygon_from_records(recs)
    doc = polygon_json(poly)
    dump_json(doc, args.out)
    if args.csv:
        rows = []
        mis = charseries.equality_indices_upto(args.terms)
        for r in recs:
            par = charseries.parabola_floor(r.m) if p == 3 else ""
            sec = ""
            if p == 3:
                for i in range(len(mis) - 1):
                    if mis[i] <= r.m <= mis[i + 1]:
                        sec = val_str(charseries.secant_line(i, r.m))
                        break
            rows.append((r.m, val_str(r.v_obs), val_str(par) if par != "" else "",
                         sec, r.certified))
        dump_csv(rows, ("m", "valuation", "parabola", "secant", "certified"),
                 args.csv)
    return 0


def cmd_twist(args):
    t = weights.twist_matrix(args.weight, args.size)
    doc = {"weight": t.k, "size": t.size, "n_parameter": t.n_param,
           "subdiagonal_coefficients": [str(r) for r in t.rho],
           "scaled_valuations": [val_str(t.scaled_entry_valuation(m))
                                 for m in range(t.size + 1)]}
    dump_json(doc, args.out)
    return 0


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    sizes = ()
    if args.terms is not None or args.size is not None:
        if args.suite != "p3-parabola":
            print("--terms and --size apply only to --suite p3-parabola",
                  file=sys.stderr)
            return 2
        sizes = (PARABOLA_TERMS if args.terms is None else args.terms,
                 PARABOLA_SIZE if args.size is None else args.size)
        if _terms_past_size(*sizes):
            return 2
    report, _ = run_suites(names, _threads(), *sizes)
    dump_json(report, args.out)
    return _report_failures(report)


def _report_failures(report):
    """Print every failing claim of a report; exit code 1 if any, else 0."""
    failed = [c for s in report["suites"] for c in s["claims"] if not c["pass"]]
    for c in failed:
        print("FAIL %s: observed %s, expected %s"
              % (c["id"], c["observed"], c["expected"]), file=sys.stderr)
    return 1 if failed else 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="upadic",
        description="Exact computations for the U operator on overconvergent "
                    "p-adic modular forms at the genus-zero primes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_prime(sp):
        sp.add_argument("--prime", type=int, required=True,
                        choices=GENUS_ZERO_PRIMES,
                        help="one of the genus-zero primes 2, 3, 5, 7, 13")

    sp = sub.add_parser("u-matrix", help="emit a truncation of the U matrix")
    add_prime(sp)
    sp.add_argument("--size", type=_count, required=True)
    sp.add_argument("--method", choices=("oracle", "genfun", "both"),
                    default="oracle")
    sp.add_argument("--scaled", action="store_true",
                    help="p=3 scaled basis over Z[sqrt3]")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_u_matrix)

    sp = sub.add_parser("ipoly", help="emit the bivariate polynomial I_p")
    add_prime(sp)
    sp.add_argument("--pretty", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_ipoly)

    sp = sub.add_parser("charpoly", help="exact characteristic-series coefficients")
    add_prime(sp)
    sp.add_argument("--terms", type=_count, required=True)
    sp.add_argument("--size", type=_count)
    sp.add_argument("--weight", type=_weight, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_charpoly)

    sp = sub.add_parser("newton", help="Newton polygon data")
    add_prime(sp)
    sp.add_argument("--terms", type=_count, required=True)
    sp.add_argument("--size", type=_count)
    sp.add_argument("--weight", type=_weight, default=0)
    sp.add_argument("--csv", help="companion CSV path")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_newton)

    sp = sub.add_parser("twist", help="weight-twist matrix data (p=3)")
    sp.add_argument("--weight", type=_weight, required=True)
    sp.add_argument("--size", type=_count, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_twist)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--suite", default="all",
                    choices=("all",) + tuple(SUITES))
    sp.add_argument("--terms", type=_count)
    sp.add_argument("--size", type=_count)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except OutputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
