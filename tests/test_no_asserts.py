"""Checks that decide a verdict are raises, never assert statements.

python -O strips every assert, so a check written as one silently stops
running there.  These modules hold the checks behind the verdicts.
"""

import ast
from pathlib import Path

import pytest

import borelweyl

CHECKED = ["cartan.py", "datum.py", "morphisms.py", "skew.py", "biproduct.py", "exact/qq.py"]


@pytest.mark.parametrize("module", CHECKED)
def test_module_has_no_assert_statement(module):
    path = Path(borelweyl.__file__).resolve().parent / module
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {module} at lines {lines}"
