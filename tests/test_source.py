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
    """The module-level functions and the class methods of a module."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, kinds))


def test_every_function_is_used_by_the_package():
    # a function or method that no code under src/upadic/ names outside its
    # own body is reached from tests only; the Leverrier charpoly and its
    # matrix product stay as the tests' independent oracle
    allowed = {"charpoly_leverrier", "_matmul"}
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path, node.lineno))
    unused = []
    for path, tree in trees.items():
        for fn in _functions(tree):
            name = fn.name
            if name in allowed or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(used == name and not (at == path and fn.lineno <= line <= fn.end_lineno)
                       for used, at, line in uses):
                unused.append("%s:%s" % (path.name, name))
    assert unused == []


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
