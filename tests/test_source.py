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
