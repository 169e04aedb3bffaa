"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "heckebound"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so exact identities must raise
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert sorted(SRC.glob("*.py")), f"no sources under {SRC}"
    assert offenders == []
