"""Invariant guards in the package must survive `python -O`."""

import ast
from pathlib import Path

import b2tensor

SRC = Path(b2tensor.__file__).parent


def test_package_has_no_assert_statements():
    # -O strips assert, so an invariant guarded by one would go unchecked
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
