"""Invariants must raise InternalConsistencyError: ``assert`` statements
vanish under ``python -O``."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "polyfield"


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
