"""Self-test of the benchmark's correctness check: tampered output must fail.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import check  # noqa: E402


@pytest.fixture(scope="module")
def good():
    """The lookup-d25 classification with witnesses, as the CLI prints it."""
    from gbsclass.classify import enumerate_triples

    _, d, witnesses = check.WORKLOADS[check.LOOKUP]
    return json.loads(enumerate_triples(d, witnesses).to_json())


@pytest.fixture(scope="module")
def ref():
    return check.load_ref(check.LOOKUP)


def problems(doc, ref, exit_code=0):
    return check.output_problems(json.dumps(doc), exit_code, ref)


def test_untampered_output_passes(good, ref):
    assert problems(good, ref) == []


def test_changed_orbit_size_fails(good, ref):
    doc = copy.deepcopy(good)
    doc["classes"][3]["orbit_size"] += 1
    found = problems(doc, ref)
    assert any("class 4 orbit_size" in p for p in found)
    assert any("orbit sizes sum" in p for p in found)


def test_swapped_representatives_fail(good, ref):
    doc = copy.deepcopy(good)
    a, b = doc["classes"][0], doc["classes"][1]
    a["representative"], b["representative"] = b["representative"], a["representative"]
    found = problems(doc, ref)
    assert any("class 1 representative" in p for p in found)
    assert any("class 2 representative" in p for p in found)


def test_unexpected_exit_code_fails(good, ref):
    assert any("exit_code" in p for p in problems(good, ref, exit_code=1))


def test_changed_invariant_fails(good, ref):
    doc = copy.deepcopy(good)
    doc["classes"][0]["invariants"]["I2"]["1"] += 1
    assert any("class 1 invariants_sha256" in p for p in problems(doc, ref))


def test_unparseable_or_missing_witness_fails(good, ref):
    doc = copy.deepcopy(good)
    doc["classes"][0]["witness"] = ["NO-SUCH-MOVE"]
    doc["classes"][1]["witness"] = None
    found = problems(doc, ref)
    assert any("does not parse" in p for p in found)
    assert any("class 2 has no witness" in p for p in found)


def test_missing_witness_note_fails(good, ref):
    found = check.classification_problems(
        good, 0, ref, ["no witness path found for class 3"])
    assert found == ["note: no witness path found for class 3"]


def test_traceback_output_fails(ref):
    assert check.output_problems("Traceback (most recent call last):", 1, ref)
