"""JSON/CSV emission helpers.  Integers serialize as decimal strings (the
acceptance runs produce values far beyond 10^3000), valuations as "num/den"
or "inf"; output is deterministic for identical inputs.
"""

import json
import sys

from fractions import Fraction

from .scalars import INF, QuadInt3

# coefficients in the large runs exceed the default string-conversion guard
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(2_000_000)


def val_str(v):
    """A valuation as "inf" or its exact rational, "n" or "n/d"; TypeError
    on anything else, None included."""
    if v == INF:
        return "inf"
    if not isinstance(v, (int, Fraction)):
        raise TypeError("not a valuation: %r" % (v,))
    return str(v)


def scalar_json(x):
    if isinstance(x, QuadInt3):
        return {"a": str(x.a), "b": str(x.b)}
    return str(x)


def matrix_json(m):
    return {"prime": m.p, "size": m.n, "basis": m.basis,
            "provenance": m.provenance, "sign_convention": m.sign_convention,
            "entries": [[scalar_json(x) for x in row] for row in m.rows]}


def bipoly_json(bp):
    return {"terms": [{"i": i, "j": j, "coeff": str(c)}
                      for (i, j), c in sorted(bp.terms.items())]}


def charseries_json(q, weight, records):
    return {"prime": q.p, "weight": weight, "truncation_size": q.trunc_size,
            "coefficients": [str(c) for c in q.residues],
            "certified": [{"m": r.m, "valuation": val_str(r.v_obs),
                           "truncation_bound": val_str(r.bound),
                           "certified": r.certified} for r in records]}


def polygon_json(poly):
    return {"vertices": [[m, val_str(v)] for m, v in poly.vertices],
            "sides": [{"slope": val_str(s), "multiplicity": mult}
                      for s, mult in poly.sides]}


def dump_json(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=False)
    _emit(text, path)
    return text


def dump_csv(rows, header, path=None):
    lines = [",".join(header)]
    lines += [",".join(str(x) for x in row) for row in rows]
    text = "\n".join(lines)
    _emit(text, path)
    return text


class OutputError(Exception):
    """An output path that cannot be written."""


def _emit(text, path):
    """Print text, or write it to path; OutputError if path is unusable."""
    if path is None:
        print(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise OutputError("cannot write %s: %s"
                          % (path, exc.strerror or exc)) from exc
