"""Checks on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "heckebound"


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


def test_no_optimize_mode_branches_in_src():
    # python -O also compiles `if __debug__:` blocks away, and code that
    # reads sys.flags.optimize can skip a check itself
    offenders = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "__debug__")
        or (isinstance(node, ast.Attribute) and node.attr == "optimize"
            and getattr(node.value, "attr", getattr(node.value, "id", None)) == "flags")
    ]
    assert offenders == []


# the argument of each call that names a SettingError code
_CODE_ARGUMENTS = {"_fail": 0, "SettingError": 0, "_proven_prime": 2}


def test_every_error_code_is_documented_in_readme():
    codes = set()
    for _, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            position = _CODE_ARGUMENTS.get(name)
            if position is None or len(node.args) <= position:
                continue
            arg = node.args[position]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                codes.add(arg.value)
    # one code from each kind of call site, so the scan cannot come up empty
    assert {"m_not_positive", "p_too_large", "classes_mod_too_large"} <= codes
    # the code column of README's error-code table, one backticked word
    # per row, so p_too_large cannot pass by matching a longer name
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"^\|[^|]*\| `([a-z_]+)` \|", readme, re.MULTILINE))
    assert sorted(codes - documented) == []


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
