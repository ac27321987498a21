"""The reference reports, and how a job's report is compared with them.

The reference holds, per job key, the exit status and the report projection
that the seed code produced.  The projection drops the fields that vary from
run to run (``timings``, ``seconds``) and ``schema_version``.  The comparison
walks the reference, so keys that a later schema adds are ignored while
every recorded key must still be there with the same value.  A ``[FAIL]``
section verdict is a finding recorded in the reference, not a failed job.
"""

from __future__ import annotations

import json
from pathlib import Path

PATH = Path(__file__).resolve().parent / "reference.json"
VOLATILE = frozenset({"timings", "seconds", "schema_version"})


def project(value):
    if isinstance(value, dict):
        return {k: project(v) for k, v in value.items() if k not in VOLATILE}
    if isinstance(value, list):
        return [project(v) for v in value]
    return value


def difference(expected, actual, path="report"):
    """Where ``actual`` departs from ``expected``, or None when it matches."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object"
        for key, value in expected.items():
            if key not in actual:
                return f"{path}.{key}: missing"
            found = difference(value, actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{path}: expected a list of {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = difference(e, a, f"{path}[{i}]")
            if found:
                return found
        return None
    if expected != actual or type(expected) is not type(actual):
        return f"{path}: expected {expected!r}, got {actual!r}"
    return None


def load() -> dict:
    return json.loads(PATH.read_text())["jobs"]


def check(reference: dict, key: str, status, report) -> str | None:
    """Why the job's result is wrong, or None when it matches the reference."""
    want = reference.get(key)
    if want is None:
        return "no reference for this job"
    if status != want["status"]:
        return f"exit status {status}, reference {want['status']}"
    return difference(want["report"], report)
