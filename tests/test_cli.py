"""Command-line interface: flags, formats, exit codes, config file."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import pytest
from click.testing import CliRunner

import gbsclass
from gbsclass import classify
from gbsclass.classify import MAX_STATES
from gbsclass.cli import main
from gbsclass.config import Config, parse_config
from gbsclass.pauli import MAX_I2_ENTRIES, GpmSet, invariant_vector


def run(*args: str, env: dict | None = None):
    return CliRunner().invoke(main, list(args), env=env)


# ---------------------------------------------------------------------------
# pairs / triples
# ---------------------------------------------------------------------------


def test_pairs_text_output() -> None:
    res = run("pairs", "--dim", "12")
    assert res.exit_code == 0
    assert res.output.startswith(
        "pairs d=12: 6 classes, expected 6, status VERIFIED"
    )
    assert "{0,0;0,6}" in res.output


def test_pairs_rejects_tiny_dimension() -> None:
    assert run("pairs", "--dim", "1").exit_code == 2
    assert run("pairs", "--dim", "0").exit_code == 2


def test_triples_counts() -> None:
    res = run("triples", "--dim", "25")
    assert res.exit_code == 0
    assert "21 classes" in res.output
    res = run("triples", "--dim", "9")
    assert res.exit_code == 0
    assert "9 classes, expected 9, status VERIFIED" in res.output


def test_triples_cap_exit_code() -> None:
    res = run("triples", "--dim", "33")
    assert res.exit_code == 3
    assert "capped" in res.output


def test_triples_json_round_trip() -> None:
    res = run("triples", "--dim", "9", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["dimension"] == 9
    assert doc["mode"] == "triples"
    assert len(doc["classes"]) == 9
    assert doc["status"] == "VERIFIED"
    assert json.loads(json.dumps(doc)) == doc


def test_triples_csv_layout() -> None:
    res = run("triples", "--dim", "8", "--format", "csv")
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert lines[0] == "representative,I1,I2_4,I3_2,I3_2_pow2"
    assert len(lines) == 13


def test_witness_flag_adds_traces() -> None:
    res = run("triples", "--dim", "8", "--emit-witnesses")
    assert res.exit_code == 0
    assert "witness:" in res.output
    res = run("pairs", "--dim", "4", "--emit-witnesses")
    assert res.exit_code == 0
    assert "(representative)" in res.output  # the one-element class


def test_repeat_runs_are_byte_identical() -> None:
    first = run("triples", "--dim", "16", "--format", "json")
    second = run("triples", "--dim", "16", "--format", "json")
    assert first.output == second.output


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariants_probe_values() -> None:
    res = run("invariants", "--dim", "9", "--set", "0,0;0,1;3,0", "--a", "3")
    assert res.exit_code == 0
    assert "I2[3] = 5" in res.output
    res = run("invariants", "--dim", "8", "--set", "0,0;0,1;4,2", "--a", "4")
    assert res.exit_code == 0
    assert "I2[4] = 5" in res.output


def test_invariants_commuting_pair() -> None:
    res = run("invariants", "--dim", "9", "--set", "0,0;0,1")
    assert res.exit_code == 0
    assert "I1 = 0.00" in res.output


def test_invariants_text_layout() -> None:
    res = run("invariants", "--dim", "9", "--set", "0,0;0,1;1,0",
              "--a", "2", "--pow", "3")
    lines = res.output.strip().split("\n")
    assert lines[0] == "set {0,0;0,1;1,0} at d=9"
    assert lines[1] == "I1 = 11.23"
    assert "pow 3:" in lines[-1]


def test_invariants_json() -> None:
    res = run("invariants", "--dim", "9", "--set", "0,0;0,1;1,0",
              "--format", "json")
    doc = json.loads(res.output)
    assert doc["dimension"] == 9
    assert doc["set"] == "0,0;0,1;1,0"
    assert doc["invariants"]["I2"]["3"] == 3
    assert "powered" in doc["invariants"]


def test_invariants_csv() -> None:
    res = run("invariants", "--dim", "8", "--set", "0,0;0,1;4,0",
              "--a", "2", "--pow", "2", "--format", "csv")
    lines = res.output.strip().split("\n")
    assert "I3_2,39" in lines
    assert "pow2_I3_2,125" in lines


def test_invariants_bad_set_is_usage_error() -> None:
    assert run("invariants", "--dim", "9", "--set", "0,0;0,1;0,1").exit_code == 2
    assert run("invariants", "--dim", "9", "--set", "zzz").exit_code == 2


def test_invariants_table_cap_exits_before_allocating() -> None:
    """An I2 table past MAX_I2_ENTRIES is refused with exit 3, not built."""
    assert 3 * (10**6 - 1) <= MAX_I2_ENTRIES  # d = 10**6 with default probes runs
    cases = [
        ("--dim", "1000000000", "--set", "0,0;0,1;3,0"),
        ("--dim", "1000000", "--set", "0,0;0,1", "--pow", "2", "--pow", "4", "--pow", "8"),
    ]
    for args in cases:
        tracemalloc.start()
        try:
            res = run("invariants", *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exit_code == 3, res.output
        assert "exceed the cap" in res.output
        assert peak < 2**20, peak


def test_invariants_explicit_probes_skip_factorizing() -> None:
    """Given both probe kinds, d past the factorization table still runs."""
    d = 1000001
    res = run("invariants", "--dim", str(d), "--set", "0,0;0,1", "--a", "2", "--pow", "2")
    assert res.exit_code == 0, res.output
    iv = invariant_vector(GpmSet(d, ((0, 0), (0, 1))), (2,), (2,))
    pb = iv.powered[2]
    lines = res.output.strip().split("\n")
    assert lines[2:4] == [f"I2[2] = {iv.i2[2]}", f"I3[2] = {iv.i3[2]}"]
    assert lines[4].endswith(f"I2[2] = {pb.i2[2]}  I3[2] = {pb.i3[2]}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_prime_power_contexts() -> None:
    res = run("verify", "--prime-power", "3", "2")
    assert res.exit_code == 0
    assert "7/7 checks passed at d=9" in res.output
    res = run("verify", "--prime-power", "2", "3")
    assert res.exit_code == 0
    assert "checks passed at d=8" in res.output


def test_verify_plain_dimension() -> None:
    res = run("verify", "--dim", "7")
    assert res.exit_code == 0
    assert "PASS  self-inverse residue count" in res.output


def test_verify_flag_validation() -> None:
    assert run("verify").exit_code == 2
    assert run("verify", "--dim", "6", "--prime-power", "2", "3").exit_code == 2
    assert run("verify", "--prime-power", "4", "2").exit_code == 2
    assert run("verify", "--prime-power", "3", "0").exit_code == 2
    # a p past the factorization domain is a usage error, not a traceback
    assert run("verify", "--prime-power", "1000003", "1").exit_code == 2


def test_verify_cap() -> None:
    assert run("verify", "--dim", "80").exit_code == 3
    # the cap is checked before any check draws a random exponent below d
    res = run("verify", "--prime-power", "3", "99999")
    assert res.exit_code == 3
    assert "capped at 64, got d >= 2^158494" in res.output


def test_verify_prime_power_cap_forms_no_power() -> None:
    """A prime power past the cap is refused before the power is formed."""
    tracemalloc.start()
    try:
        res = run("verify", "--prime-power", "3", "10000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 3, res.output
    assert "capped at 64, got d >= 2^15849625" in res.output
    assert peak < 2**20, peak


def test_module_entry_point_keeps_exit_codes() -> None:
    """``python -m gbsclass.cli`` runs the CLI, so a usage error exits 2."""
    src = str(Path(gbsclass.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "gbsclass.cli", "verify", "--prime-power", "1000003", "1"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 2, res.stderr


# ---------------------------------------------------------------------------
# configuration file
# ---------------------------------------------------------------------------


def test_config_lowers_enum_cap(tmp_path) -> None:
    cfg = tmp_path / "gbs.cfg"
    cfg.write_text("enum_cap = 8\n")
    res = run("triples", "--dim", "9", env={"GBSCLASS_CONFIG": str(cfg)})
    assert res.exit_code == 3
    res = run("triples", "--dim", "8", env={"GBSCLASS_CONFIG": str(cfg)})
    assert res.exit_code == 0


def test_states_cap_exits_before_allocating(tmp_path) -> None:
    """Past MAX_STATES a raised enum_cap still ends in exit 3, not a huge table."""
    assert comb(64 * 64 - 1, 2) <= MAX_STATES < comb(81 * 81 - 1, 2)
    cfg = tmp_path / "gbs.cfg"
    cfg.write_text("enum_cap = 200\n")
    cases = [("triples", "81"), ("triples", "200"), ("pairs", "4000")]
    for mode, dim in cases:
        tracemalloc.start()
        try:
            res = run(mode, "--dim", dim, env={"GBSCLASS_CONFIG": str(cfg)})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exit_code == 3, res.output
        assert f"capped at {MAX_STATES} states" in res.output
        assert peak < 2**20, peak


def test_enumeration_table_cap_exits_3(tmp_path) -> None:
    """The I2 cap hit while labelling pair classes is exit 3, not a traceback."""
    cfg = tmp_path / "gbs.cfg"
    cfg.write_text("enum_cap = 45\npowers = " + ",".join(map(str, range(1, 2000))) + "\n")
    res = CliRunner().invoke(main, ["pairs", "--dim", "2000"],
                             env={"GBSCLASS_CONFIG": str(cfg)})
    assert res.exit_code == 3, res.output
    assert res.stderr == (f"error: 2000 I2 tables of 1999 entries exceed the cap of "
                          f"{MAX_I2_ENTRIES} entries\n")
    assert res.stdout == ""
    assert "Traceback" not in res.output


def test_config_sets_default_format(tmp_path) -> None:
    cfg = tmp_path / "gbs.cfg"
    cfg.write_text("format = json\n# comment line\n")
    res = run("pairs", "--dim", "6", env={"GBSCLASS_CONFIG": str(cfg)})
    assert res.exit_code == 0
    assert json.loads(res.output)["mode"] == "pairs"
    # an explicit flag still wins
    res = run("pairs", "--dim", "6", "--format", "text",
              env={"GBSCLASS_CONFIG": str(cfg)})
    assert res.output.startswith("pairs d=6:")


def test_config_custom_probes(tmp_path) -> None:
    cfg = tmp_path / "gbs.cfg"
    cfg.write_text("i3_a = 3\npowers = 3,5\n")
    res = run("invariants", "--dim", "9", "--set", "0,0;0,1;1,0",
              env={"GBSCLASS_CONFIG": str(cfg)})
    assert res.exit_code == 0
    assert "I3[3]" in res.output
    assert "pow 5:" in res.output


def test_config_probe_out_of_range_is_usage_error(tmp_path) -> None:
    """A probe outside (0, d) from the config file ends in exit 2, not a traceback."""
    cfg = tmp_path / "gbs.cfg"
    for line, bad in (("i3_a = 50\n", 50), ("powers = 9\n", 9)):
        cfg.write_text(line)
        for mode in ("pairs", "triples"):
            res = run(mode, "--dim", "9", env={"GBSCLASS_CONFIG": str(cfg)})
            assert res.exit_code == 2, (line, mode, res.output)
            assert f"probe must satisfy 0 < a < 9, got {bad}" in res.output


def test_config_probe_is_refused_before_enumerating(tmp_path, monkeypatch) -> None:
    """A bad config probe exits 2 before the key rows or the row graph are built."""

    def built(d: int) -> None:
        raise AssertionError(f"built at d={d}")

    monkeypatch.setattr(classify, "_row_moves", built)
    classify._key_rows.cache_clear()
    cfg = tmp_path / "gbs.cfg"
    cfg.write_text("i3_a = 50\n")
    for witnesses in ((), ("--emit-witnesses",)):
        tracemalloc.start()
        try:
            res = run("triples", "--dim", "32", *witnesses, env={"GBSCLASS_CONFIG": str(cfg)})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exit_code == 2, res.output
        assert "probe must satisfy 0 < a < 32, got 50" in res.output
        assert classify._key_rows.cache_info().currsize == 0
        assert peak < 2**20, peak


def test_config_errors_are_usage_errors(tmp_path) -> None:
    cfg = tmp_path / "gbs.cfg"
    cfg.write_text("mystery_knob = 3\n")
    res = run("pairs", "--dim", "6", env={"GBSCLASS_CONFIG": str(cfg)})
    assert res.exit_code == 2
    assert "bad configuration" in res.output
    cfg.write_text("enum_cap = fast\n")
    assert run("pairs", "--dim", "6",
               env={"GBSCLASS_CONFIG": str(cfg)}).exit_code == 2
    for removed in ("matrix_cap = 64\n", "tolerance = 1e-9\n"):
        cfg.write_text(removed)
        res = run("pairs", "--dim", "6", env={"GBSCLASS_CONFIG": str(cfg)})
        assert res.exit_code == 2 and "unknown key" in res.output


def test_parse_config_builds_or_refuses_any_input() -> None:
    """Arbitrary config text gives a Config or a ValueError (exit code 2)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    keys = st.sampled_from(["enum_cap", "format", "i3_a", "powers", "matrix_cap", "x"])
    values = st.one_of(
        st.text(max_size=8),
        st.sampled_from(["text", "json", "csv"]),
        st.lists(st.integers(-3, 40), min_size=1, max_size=3).map(
            lambda vs: ",".join(map(str, vs))),
    )
    lines = st.one_of(
        st.text(max_size=30),
        st.tuples(keys, values).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    )
    texts = st.lists(lines, max_size=5).map("\n".join)

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(texts)
    def check(text: str) -> None:
        try:
            assert isinstance(parse_config(text), Config)
        except ValueError:
            pass

    check()
