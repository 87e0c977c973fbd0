"""Workload table and the correctness check every benchmark operation passes.

A classification is compared with a reference captured from the CLI
(``refs/<workload>.json``, written by ``make_refs.py``) field by field:
dimension, mode, status, expected count, exit code, and per class the
representative, orbit size, separation and a digest of the invariants.
Witness traces are not pinned, because a smaller move set legitimately
changes them; instead every witness label must parse with
``gbsclass.moves.parse_move``.  Orbit sizes must also sum to the size of
the universe, computed here from the dimension alone.
"""

from __future__ import annotations

import hashlib
import json
import os

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# name -> (mode, dimension, witnesses emitted); the first three run the CLI.
WORKLOADS = {
    "triples-d32": ("triples", 32, False),
    "witness-d27": ("triples", 27, True),
    "pairs-d1024": ("pairs", 1024, False),
    "lookup-d25": ("triples", 25, True),
}
LOOKUP = "lookup-d25"


def cli_args(workload: str) -> list[str]:
    """CLI arguments of a CLI workload, after the program name."""
    mode, d, witnesses = WORKLOADS[workload]
    return [mode, "--dim", str(d), *(["--emit-witnesses"] if witnesses else []),
            "--format", "json"]


def universe_size(mode: str, d: int) -> int:
    """Number of normalized sets the enumerator classifies."""
    n2 = d * d
    return n2 if mode == "pairs" else (n2 - 1) * (n2 - 2) // 2


def invariants_digest(block: dict) -> str:
    return hashlib.sha256(json.dumps(block, sort_keys=True).encode()).hexdigest()


def summarize(doc: dict, exit_code: int) -> dict:
    """The fields of a classification that a reference pins."""
    return {
        "dimension": doc["dimension"],
        "mode": doc["mode"],
        "status": doc["status"],
        "expected_count": doc["expected_count"],
        "exit_code": exit_code,
        "witnesses": any(c["witness"] is not None for c in doc["classes"]),
        "classes": [
            {
                "representative": c["representative"],
                "orbit_size": c["orbit_size"],
                "separation": c["separation"],
                "invariants_sha256": invariants_digest(c["invariants"]),
            }
            for c in doc["classes"]
        ],
    }


def load_ref(workload: str) -> dict:
    with open(os.path.join(REFS, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def classification_problems(doc: dict, exit_code: int, ref: dict,
                            notes: list[str] = ()) -> list[str]:
    """Every way ``doc`` (parsed JSON output) departs from ``ref``; empty if none."""
    from gbsclass.moves import PreconditionViolated, parse_move

    got = summarize(doc, exit_code)
    problems = [
        f"{key}: got {got[key]!r}, expected {ref[key]!r}"
        for key in ("dimension", "mode", "status", "expected_count", "exit_code",
                    "witnesses")
        if got[key] != ref[key]
    ]
    if len(got["classes"]) != len(ref["classes"]):
        problems.append(f"class count: got {len(got['classes'])}, "
                        f"expected {len(ref['classes'])}")
    for i, (g, r) in enumerate(zip(got["classes"], ref["classes"]), start=1):
        problems.extend(f"class {i} {key}: got {g[key]!r}, expected {r[key]!r}"
                        for key in r if g[key] != r[key])
    total = sum(c["orbit_size"] for c in got["classes"])
    if total != universe_size(doc["mode"], doc["dimension"]):
        problems.append(f"orbit sizes sum to {total}, universe has "
                        f"{universe_size(doc['mode'], doc['dimension'])}")
    if ref["witnesses"]:
        labels = set()
        for i, c in enumerate(doc["classes"], start=1):
            if c["witness"] is None:
                problems.append(f"class {i} has no witness")
            else:
                labels.update(c["witness"])
        for label in sorted(labels):
            try:
                parse_move(label, doc["dimension"])
            except PreconditionViolated as exc:
                problems.append(f"witness label {label!r} does not parse: {exc}")
    problems.extend(f"note: {n}" for n in notes if "no witness path" in n)
    return problems


def output_problems(stdout: str, exit_code: int, ref: dict) -> list[str]:
    """Check one CLI invocation's standard output and exit code."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"exit code {exit_code}, output is not JSON: {exc}"]
    try:
        return classification_problems(doc, exit_code, ref)
    except (KeyError, TypeError) as exc:
        return [f"output lacks a field: {exc!r}"]
