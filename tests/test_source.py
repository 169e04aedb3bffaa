"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "heckebound"


def _trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    return [(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            for path in paths]


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so exact identities must raise
    offenders = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_no_module_imports_dataclasses():
    # dataclasses pulls in inspect, ast and tokenize, and builds each class
    # through exec: most of the CLI's import time before the value types
    # became __slots__ classes
    offenders = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_cli_import_loads_neither_dataclasses_nor_the_oracle():
    # the oracle is imported only by a run that asks for it
    probe = (
        "import sys, heckebound.cli; "
        "print(sorted({'dataclasses', 'heckebound.oracle'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )
    assert done.stdout.strip() == "[]", done.stderr
