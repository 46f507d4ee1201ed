import ast
import pathlib

import upadic

SRC = pathlib.Path(upadic.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so none may act as a gate
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _functions(tree):
    """(function, None) for the module-level functions of a module and
    (method, class) for its class methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            yield from ((item, node) for item in node.body
                        if isinstance(item, kinds))


def _unused_functions(sources):
    """'module:name' of each function, and 'module:Class.name' of each
    non-dunder method, that no code in sources ({module: text}) uses outside
    its own body.  A module function is used through its bare name, in its
    own module or in one that imports it by name, or as module.name in one
    that imports the module; a method only through an attribute."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    calls = set()       # (module, function, using module, line)
    attrs = set()       # (attribute name, using module, line)
    for user, tree in trees.items():
        bound = {fn.name: (user, fn.name) for fn in tree.body
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for a in node.names:
                    if node.module:
                        bound[a.asname or a.name] = (node.module, a.name)
                    else:
                        modules[a.asname or a.name] = a.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in bound:
                calls.add(bound[node.id] + (user, node.lineno))
            elif isinstance(node, ast.Attribute):
                attrs.add((node.attr, user, node.lineno))
                base = node.value
                if isinstance(base, ast.Name) and base.id in modules:
                    calls.add((modules[base.id], node.attr, user,
                               node.lineno))
    unused = []
    for mod, tree in trees.items():
        for fn, cls in _functions(tree):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            if cls is None:
                uses = [(user, line) for m, name, user, line in calls
                        if (m, name) == (mod, fn.name)]
            else:
                uses = [(user, line) for name, user, line in attrs
                        if name == fn.name]
            if not any(user != mod or not fn.lineno <= line <= fn.end_lineno
                       for user, line in uses):
                unused.append("%s:%s" % (mod, fn.name if cls is None
                                         else cls.name + "." + fn.name))
    return sorted(unused)


def test_a_function_used_only_as_a_method_name_is_unused():
    # the module function scale shares its name with a method that is
    # called as .scale(2), which does not make the function used; nor does
    # a bare thrice in a module that does not import it
    sources = {
        "poly": ("def scale(x):\n    return 2 * x\n"
                 "def twice(x):\n    return x + x\n"
                 "def thrice(x):\n    return thrice(x)\n"
                 "class P:\n"
                 "    def scale(self, c):\n        return self\n"
                 "    def shift(self):\n        return self.shift()\n"
                 "    def __sub__(self, other):\n"
                 "        return other.scale(2)\n"),
        "user": ("from . import poly\nfrom .poly import twice as double\n"
                 "print(double(1), poly.P, thrice(2))\n"),
    }
    assert _unused_functions(sources) == ["poly:P.shift", "poly:scale",
                                          "poly:thrice"]
    sources["user"] += "print(poly.scale(3))\n"
    assert _unused_functions(sources) == ["poly:P.shift", "poly:thrice"]


def test_every_function_is_used_by_the_package():
    # a function or method that no code under src/upadic/ uses outside its
    # own body is reached from tests only; the Leverrier charpoly and its
    # matrix product stay as the tests' independent oracle
    allowed = {"charseries:charpoly_leverrier", "charseries:_matmul"}
    sources = {path.stem: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert len(sources) >= 10
    assert [f for f in _unused_functions(sources) if f not in allowed] == []


def _unused_imports(source):
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_imports_are_found():
    source = "import os\nfrom math import gcd, lcm\nprint(gcd(4, 6))\n"
    assert _unused_imports(source) == ["lcm", "os"]


def test_every_imported_name_is_used():
    # the tests, the demos and the package modules; __init__.py imports to
    # re-export
    root = pathlib.Path(__file__).resolve().parent.parent
    files = (sorted((root / "tests").glob("*.py")) + sorted((root / "demos").glob("*.py"))
             + [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"])
    assert len(files) >= 25
    unused = ["%s: %s" % (path.name, name) for path in files
              for name in _unused_imports(path.read_text())]
    assert unused == []


def _package_imports_in_functions(source):
    """Lines of a module where a function imports from the package itself."""
    tree = ast.parse(source)
    return sorted({node.lineno for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ImportFrom) and node.level})


def test_package_imports_in_functions_are_found():
    source = ("from . import series\n"
              "def f():\n    from .scalars import vp_int\n    import math\n"
              "def g():\n    from . import umatrix\n"
              "    from concurrent.futures import ProcessPoolExecutor\n")
    assert _package_imports_in_functions(source) == [3, 6]


def test_no_package_import_inside_a_function():
    # package modules import each other at module level, so the import
    # graph is visible at the top of each file; a stdlib import that only
    # one path needs (concurrent.futures in verify.run_suites) stays lazy
    found = ["%s:%d" % (path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in _package_imports_in_functions(path.read_text())]
    assert found == []


def _handlers_outside(source, allowed):
    """'name:line' of each except clause of a module that no module-level
    function named in allowed contains ('<module>' for module-level code)."""
    found = []
    for node in ast.parse(source).body:
        name = getattr(node, "name", "<module>")
        if name not in allowed:
            found += ["%s:%d" % (name, h.lineno) for h in ast.walk(node)
                      if isinstance(h, ast.ExceptHandler)]
    return found


def test_handlers_outside_are_found():
    source = ("def helper():\n    try:\n        pass\n    except E:\n"
              "        pass\n"
              "def claim():\n    try:\n        pass\n    except E:\n"
              "        pass\n"
              "try:\n    import x\nexcept ImportError:\n    x = None\n")
    assert _handlers_outside(source, {"helper"}) == ["claim:9", "<module>:13"]


def test_verify_catches_exceptions_only_in_the_claim_helper():
    # a claim that raises fails through verify._claim alone, which the
    # suite net _run_one also uses: no claim body catches an exception
    source = (SRC / "verify.py").read_text()
    assert _handlers_outside(source, {"_claim", "_run_one"}) == []
    assert _handlers_outside(source, set()) != []


# every lru_cache in the package, with what re-reads a stored value: a cache
# that nothing re-reads only holds memory and makes warm timings misleading
CACHES = {
    "mod3:gbar": "kbar_rows and the factorization, extraction, vanishing "
                 "and self-similarity checks, at the same windows",
    "mod3:r_factor": "gbar_j and cbar_j, once per factor of each product",
    "modcurve:bernoulli": "its own recurrence, and eisenstein at each weight",
    "modcurve:eisenstein": "verify_eisenstein_power and "
                           "weights.eisenstein_unit_congruence",
    "modcurve:delta_series": "verify_eisenstein_power",
    "modcurve:j_series": "verify_eisenstein_power",
    "modcurve:solve_hauptmodul_poly": "check_hauptmodul_polygon and "
                                      "modular_equation_ip",
    "modcurve:modular_equation_ip": "ip_poly, after the modcurve suite",
    "modcurve:_ip_powers": "the fit's check of its lift and the "
                           "ip-laurent-certificate claims",
    "modcurve:practical_ip_fit": "ip_poly and the modcurve suite",
    "modcurve:ip_poly": "every U-matrix build, uk_matrix and "
                        "charseries.check_scaled_integrality",
    "umatrix:build_matrix_oracle": "the entry-bound claims of the umatrix "
                                   "suite",
    "umatrix:build_matrix_genfun": "weights._cuspidal_matrix, for the graded "
                                   "and the exact series of one size",
    "weights:s_over_vs": "the twist-divisibility claims, once per weight",
    "weights:_m_slab": "uk_matrix of the other weights at the same size",
    "weights:uk_matrix": "weights._cuspidal_matrix, for the graded and the "
                         "exact series of one size",
    "weights:cuspidal_char_series": "stable_valuations' exact fallback "
                                    "after charpoly built the series (weight "
                                    "162, size 30)",
    "weights:graded_char_series": "stable_valuations and congruence_check, "
                                  "across the claims of one weight",
    "weights:dimension_gap_infimum": "congruence_check, at every m of "
                                     "every weight pair",
}


def _cached_functions(source, module):
    """'module:name' of each function of a module that lru_cache decorates."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                name = dec.attr if isinstance(dec, ast.Attribute) else dec.id
                if name == "lru_cache":
                    found.append("%s:%s" % (module, node.name))
    return found


def test_cached_functions_are_found():
    source = ("import functools\nfrom functools import lru_cache\n"
              "@lru_cache(maxsize=None)\ndef a(n):\n    return n\n"
              "@functools.lru_cache\ndef b(n):\n    return n\n"
              "@staticmethod\ndef c(n):\n    return n\n")
    assert _cached_functions(source, "m") == ["m:a", "m:b"]


def test_every_cache_is_pinned():
    # a new cache, or one dropped, is a reviewed change to CACHES above
    found = [f for path in sorted(SRC.glob("*.py"))
             for f in _cached_functions(path.read_text(), path.stem)]
    assert sorted(found) == sorted(CACHES)
