"""Span tracing of upadic from outside the package.

Child side: ``Tracer.install()`` wraps every public function of each layer
module, and the public methods of the classes those modules define, at every
binding site in the package, and records one span (name, start, end, parent,
attrs) per call in memory.  ``Tracer.dump()`` writes them when the run ends.

Parent side: ``layer_metrics()`` turns the spans into the per-layer metrics.
"""

import functools
import inspect
import json
import sys
import time

# The modules under src/upadic that count as layers.  cli, serialize and
# tables are on the path but cheap; their time stays in the traced wall only.
LAYERS = ("scalars", "series", "modcurve", "umatrix", "weights",
          "charseries", "newton", "mod3", "verify")
PACKAGE_MODULES = LAYERS + ("cli", "serialize", "tables")

# Dunder methods traced in addition to the public ones: the q-series and
# Z[sqrt3] products.  Comparisons and additions are too fine-grained to trace.
TRACED_DUNDERS = ("__mul__", "__pow__")

SERIES_MUL = ("series.QSeries.__mul__", "series.QSeries.inv",
              "series.QSeries.__pow__", "series.QSeries.u_extract",
              "series.QSeries.v_substitute")


def hadamard_bits(rows):
    """Bit bound on |a_m| for det(1 - tA), recomputed independently of the
    package: n + 2 bits plus ceil(log2 ||row||) + 1 for each nonzero row."""
    bits = len(rows) + 2
    for row in rows:
        s = sum(x * x for x in row)
        if s:
            bits += (s.bit_length() + 1) // 2 + 1
    return bits


def _crt_attrs(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return {"n": len(rows), "hadamard_bits": hadamard_bits(rows),
            "coeff_bits": max(abs(c).bit_length() for c in result)}


def _certify_attrs(args, kwargs, result):
    return {"records": len(result),
            "certified": sum(1 for r in result if r.certified)}


ATTR_HOOKS = {"charseries.charpoly_crt": _crt_attrs,
              "charseries.certify": _certify_attrs}


class Tracer:
    """In-memory span recorder for one traced process."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, attrs]
        self.stack = []
        self.caches = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        hook = ATTR_HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap the layers' public callables wherever the package binds them.

        Modules import by name (``from .scalars import vp_int``), so patching
        only the defining module would miss most calls: every module global,
        and every value of a module-level dict, that is one of the originals
        is replaced by its wrapper.
        """
        mods = {m: sys.modules["upadic." + m] for m in PACKAGE_MODULES}
        wrappers = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif attr.startswith("_"):
                    continue
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrappers[id(obj)] = self.wrap("%s.%s" % (layer, attr), obj)
        for mod in list(mods.values()) + [sys.modules["upadic"]]:
            for attr, obj in list(vars(mod).items()):
                if hasattr(obj, "cache_info") and obj not in self.caches:
                    self.caches.append(obj)
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            obj[key] = wrappers[id(val)]

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            setattr(cls, attr, self.wrap(name, obj))

    def cache_totals(self):
        hits = sum(c.cache_info().hits for c in self.caches)
        misses = sum(c.cache_info().misses for c in self.caches)
        return hits, misses

    def dump(self, path):
        hits, misses = self.cache_totals()
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "cache_hits": hits,
                       "cache_misses": misses}, fh)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans (children may overlap; the union counts)."""
    children = [[] for _ in spans]
    for idx, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append(idx)
    out = []
    for idx, sp in enumerate(spans):
        start, end = sp[1], sp[2]
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[idx]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def outer_time(spans, names):
    """(calls, seconds) of the spans named in ``names``; seconds count only
    spans with no ancestor in the group, so nested calls are not counted twice."""
    names = set(names)
    inside = [False] * len(spans)
    calls, secs = 0, 0.0
    for idx, sp in enumerate(spans):
        parent = sp[3]
        below = parent >= 0 and (inside[parent] or spans[parent][0] in names)
        inside[idx] = below
        if sp[0] in names:
            calls += 1
            if not below:
                secs += sp[2] - sp[1]
    return calls, secs


def layer_metrics(doc):
    """The per-layer metrics of one traced child from its dumped trace."""
    spans = doc["spans"]
    selfs = self_times(spans)
    out = {}
    for layer in LAYERS:
        out[layer + ".self_s"] = 0.0
    for sp, s in zip(spans, selfs):
        out[sp[0].split(".", 1)[0] + ".self_s"] += s

    def timed(metric, names, calls_metric=None):
        calls, secs = outer_time(spans, names)
        out[metric] = secs
        if calls_metric:
            out[calls_metric] = calls

    timed("charseries.crt_s", ["charseries.charpoly_crt"], "charseries.crt_calls")
    timed("charseries.leverrier_s", ["charseries.charpoly_leverrier"],
          "charseries.leverrier_calls")
    timed("charseries.certify_s", ["charseries.certify"])
    timed("scalars.vp_int_s", ["scalars.vp_int"], "scalars.vp_int_calls")
    timed("modcurve.ip_fit_s", ["modcurve.practical_ip_fit"])
    timed("modcurve.ip_symbolic_s", ["modcurve.modular_equation_ip"])
    timed("modcurve.ip_certify_s", ["modcurve.certify_ip_laurent"])
    timed("modcurve.d_series_s", ["modcurve.d_series"])
    timed("umatrix.oracle_s", ["umatrix.build_matrix_oracle"],
          "umatrix.oracle_calls")
    timed("umatrix.genfun_s", ["umatrix.build_matrix_genfun"])
    timed("series.mul_s", SERIES_MUL, "series.mul_calls")
    timed("weights.twist_s", ["weights.twist_matrix"])
    timed("weights.uk_matrix_s", ["weights.uk_matrix"])

    crt = [sp[4] for sp in spans if sp[0] == "charseries.charpoly_crt"]
    coeff_bits = sum(a["coeff_bits"] for a in crt)
    bound_bits = sum(a["hadamard_bits"] for a in crt)
    out["charseries.crt_n_max"] = max((a["n"] for a in crt), default=0)
    out["charseries.coeff_bits"] = coeff_bits
    out["charseries.hadamard_bits"] = bound_bits
    out["charseries.bits_useful_ratio"] = (coeff_bits / bound_bits
                                           if bound_bits else 0.0)
    cert = [sp[4] for sp in spans if sp[0] == "charseries.certify"]
    records = sum(a["records"] for a in cert)
    out["charseries.certified_frac"] = (
        sum(a["certified"] for a in cert) / records if records else 1.0)
    out["cache.hits"] = doc["cache_hits"]
    out["cache.misses"] = doc["cache_misses"]
    out["trace.spans"] = len(spans)
    return out
