"""Exponent-level Pauli algebra and the exact invariants.

Expected invariant values for specific sets were cross-checked against the
dense-matrix oracle before being frozen here; the oracle agreement itself
is tested separately and exhaustively in the acceptance suite.  The numpy
invariant kernel is checked against the scalar definitions kept below.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from gbsclass import pauli
from gbsclass.pauli import (
    CosFingerprint,
    DimensionMismatch,
    Gpm,
    GpmSet,
    PowerOutOfRange,
    default_probes,
    gpm_dagger,
    gpm_product,
    gpm_trace,
    invariant1,
    invariant2,
    invariant3,
    invariant_table,
    invariant_vector,
    powered_set,
)


def s(text: str, d: int) -> GpmSet:
    return GpmSet.from_text(text, d)


# ---------------------------------------------------------------------------
# Scalar reference invariants: the definitions, one tuple at a time.
# ---------------------------------------------------------------------------


def _ref_diffs(S: GpmSet) -> list[tuple[int, int]]:
    d = S.d
    ms = S.members
    return [((sj - si) % d, (tj - ti) % d) for si, ti in ms for sj, tj in ms]


def _ref_invariant1(S: GpmSet) -> tuple[int, ...]:
    d = S.d
    diffs = _ref_diffs(S)
    return tuple(sorted(
        min(m, d - m)
        for a in diffs
        for b in diffs
        for m in [(a[1] * b[0] - a[0] * b[1]) % d]
    ))


def _ref_invariant2(S: GpmSet, a: int) -> int:
    d = S.d
    return sum(1 for v in _ref_diffs(S) if (a * v[0]) % d == 0 and (a * v[1]) % d == 0)


def _ref_invariant3(S: GpmSet, a: int) -> int:
    d = S.d
    diffs = _ref_diffs(S)
    cnt = Counter(diffs)
    total = 0
    for v in diffs:
        left = ((-a * v[0]) % d, (-a * v[1]) % d)
        right = (((a - 1) * v[0]) % d, ((a - 1) * v[1]) % d)
        total += cnt[left] * cnt[right]
    return total


def _ref_row(S: GpmSet, t: int, shifts) -> tuple:
    T = powered_set(S, t)
    return (
        _ref_invariant1(T),
        tuple(_ref_invariant2(T, a) for a in range(1, S.d)),
        tuple(_ref_invariant3(T, a) for a in shifts),
    )


# ---------------------------------------------------------------------------
# Single-operator algebra.
# ---------------------------------------------------------------------------


def test_gpm_exponents_reduce_mod_d() -> None:
    g = Gpm(5, 7, -1)
    assert (g.s, g.t) == (2, 4)
    assert g.vec == (2, 4)


def test_gpm_rejects_small_dimension() -> None:
    with pytest.raises(DimensionMismatch):
        Gpm(1, 0, 0)


def test_product_phase_is_zx_commutation() -> None:
    # ZX = w XZ, XZ picks up no phase in this exponent convention
    z, x = Gpm(3, 0, 1), Gpm(3, 1, 0)
    prod, phase = gpm_product(z, x)
    assert (prod.s, prod.t, phase) == (1, 1, 1)
    prod, phase = gpm_product(x, z)
    assert (prod.s, prod.t, phase) == (1, 1, 0)


def test_product_phase_general_case() -> None:
    a, b = Gpm(5, 2, 3), Gpm(5, 4, 1)
    prod, phase = gpm_product(a, b)
    assert (prod.s, prod.t) == (1, 4)
    assert phase == (3 * 4) % 5


def test_product_requires_equal_dimensions() -> None:
    with pytest.raises(DimensionMismatch):
        gpm_product(Gpm(3, 1, 0), Gpm(4, 1, 0))


def test_dagger() -> None:
    adj, phase = gpm_dagger(Gpm(3, 1, 1))
    assert (adj.s, adj.t, phase) == (2, 2, 1)
    adj, phase = gpm_dagger(Gpm(9, 4, 7))
    assert (adj.s, adj.t) == (5, 2)
    assert phase == (4 * 7) % 9


def test_dagger_inverts_up_to_phase() -> None:
    for d in (2, 3, 8):
        for x in range(d):
            for z in range(d):
                g = Gpm(d, x, z)
                adj, _ = gpm_dagger(g)
                prod, _ = gpm_product(g, adj)
                assert (prod.s, prod.t) == (0, 0)


def test_trace_detects_identity() -> None:
    assert gpm_trace(Gpm(6, 0, 0)) == 6
    assert gpm_trace(Gpm(6, 0, 3)) == 0
    assert gpm_trace(Gpm(6, 2, 4)) == 0


# ---------------------------------------------------------------------------
# Set parsing and normalization.
# ---------------------------------------------------------------------------


def test_from_text_parses_and_sorts() -> None:
    S = s(" 3,0 ; 0,1;0, 0 ", 9)
    assert S.members == ((0, 0), (0, 1), (3, 0))
    assert S.to_text() == "0,0;0,1;3,0"


def test_from_text_reduces_mod_d() -> None:
    assert s("0,0;0,10", 9).members == ((0, 0), (0, 1))


@pytest.mark.parametrize("bad", ["", "0,0;1", "0,0;a,b", "0,0;0,1;0,1"])
def test_from_text_rejects_malformed(bad: str) -> None:
    with pytest.raises(ValueError):
        s(bad, 9)


def test_from_text_rejects_small_dimension() -> None:
    for d in (-2, 0, 1):
        with pytest.raises(DimensionMismatch):
            s("0,0;0,1", d)


def test_from_text_builds_or_refuses_any_input() -> None:
    """Arbitrary text at any small d gives a GpmSet or a ValueError."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    members = st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), max_size=4)
    texts = st.one_of(
        st.text(max_size=24),
        members.map(lambda ms: ";".join(f"{x},{z}" for x, z in ms)),
    )

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(texts, st.integers(min_value=-2, max_value=40))
    def check(text: str, d: int) -> None:
        try:
            assert isinstance(GpmSet.from_text(text, d), GpmSet)
        except ValueError:
            pass

    check()


def test_set_needs_two_members() -> None:
    with pytest.raises(ValueError):
        GpmSet(5, ((0, 0),))


def test_normalized_rejects_repeats() -> None:
    with pytest.raises(ValueError):
        GpmSet(5, ((1, 0), (1, 0))).normalized()


def test_translated_wraps() -> None:
    S = s("0,0;0,1;3,0", 9).translated((7, 8))
    assert S.members == ((7, 8), (7, 0), (1, 8))


# ---------------------------------------------------------------------------
# Invariants on frozen examples.
# ---------------------------------------------------------------------------


def test_invariant1_closed_form_anchor() -> None:
    """A cross pattern of Z against X^k sums to 48(1 - cos(2 pi k / d))."""
    for d, k in ((9, 1), (9, 2), (9, 4), (8, 1), (8, 3)):
        got = invariant1(s(f"0,0;0,1;{k},0", d)).value()
        assert got == pytest.approx(48 * (1 - math.cos(2 * math.pi * k / d)), abs=1e-12)


def test_invariant1_vanishes_on_commuting_sets() -> None:
    assert invariant1(s("0,0;0,1;0,5", 9)).value() == 0.0
    assert invariant1(s("0,0;0,2;0,4", 8)).value() == 0.0


def test_cos_fingerprint_args_are_sorted_and_folded() -> None:
    fp = invariant1(s("0,0;0,1;1,0", 9))
    assert isinstance(fp, CosFingerprint)
    assert list(fp.args) == sorted(fp.args)
    assert all(0 <= m <= 9 // 2 for m in fp.args)


def test_invariant2_anchors() -> None:
    assert invariant2(s("0,0;0,1;3,0", 9), 3) == 5
    assert invariant2(s("0,0;0,1;1,0", 9), 3) == 3
    assert invariant2(s("0,0;0,1;4,2", 8), 4) == 5
    assert invariant2(s("0,0;0,2;2,0", 8), 4) == 9


def test_invariant3_anchors() -> None:
    assert invariant3(s("0,0;0,1;1,0", 9), 2) == 27
    assert invariant3(s("0,0;0,1;0,2", 9), 2) == 35
    assert invariant3(s("0,0;0,1;3,0", 9), 2) == 29
    assert invariant3(s("0,0;0,1;4,0", 8), 2) == 39
    assert invariant3(s("0,0;0,3;3,0", 9), 2) == 33


def test_degenerate_pair_invariants() -> None:
    """A repeated member is legal in raw sets and all differences vanish."""
    S = GpmSet(4, ((0, 0), (0, 0)))
    assert invariant1(S).value() == 0.0
    for a in range(1, 4):
        assert invariant2(S, a) == 4
        assert invariant3(S, a) == 64


def test_probe_range_is_checked() -> None:
    S = s("0,0;0,1", 9)
    for bad in (0, 9, -1):
        with pytest.raises(PowerOutOfRange):
            invariant2(S, bad)
        with pytest.raises(PowerOutOfRange):
            invariant3(S, bad)
        with pytest.raises(PowerOutOfRange):
            powered_set(S, bad)


# ---------------------------------------------------------------------------
# Powered sets.
# ---------------------------------------------------------------------------


def test_invariant_table_matches_scalar_reference() -> None:
    """The kernel equals the scalar definitions at every power and shift.

    Every power and shift is checked at d <= 64; at d = 1000 and 1024 a
    drawn handful of each, with I2 still at every a.  Inputs include
    powered sets whose members collapse into repeats, and the I3 lookups
    run both one shift per chunk and in the default chunks.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.data())
    def check(data) -> None:
        d = data.draw(st.one_of(st.integers(2, 64), st.sampled_from([1000, 1024])))
        vec = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
        S = GpmSet(d, tuple(data.draw(st.lists(vec, min_size=2, max_size=5))))
        k = data.draw(st.integers(1, d - 1))
        if k > 1:
            S = powered_set(S, k)
        if d <= 64:
            powers = shifts = range(1, d)
        else:
            probe = st.lists(st.integers(1, d - 1), min_size=1, max_size=3)
            powers, shifts = data.draw(probe), data.draw(probe)
        chunk = data.draw(st.sampled_from([1, pauli._QUERY_CHUNK]))
        saved, pauli._QUERY_CHUNK = pauli._QUERY_CHUNK, chunk
        try:
            rows = invariant_table(S, powers, shifts)
        finally:
            pauli._QUERY_CHUNK = saved
        assert len(rows) == len(powers)
        for t, row in zip(powers, rows):
            assert row == _ref_row(S, t, shifts), (S, t)
            assert all(type(v) is int for part in row for v in part)

    check()


def test_invariant_table_checks_probes() -> None:
    S = s("0,0;0,1;3,0", 9)
    assert invariant_table(S, (), (2,)) == []
    for bad in (0, 9, -1):
        with pytest.raises(PowerOutOfRange):
            invariant_table(S, (bad,), ())
        with pytest.raises(PowerOutOfRange):
            invariant_table(S, (1,), (2, bad))


def test_powered_set_multiplies_exponents() -> None:
    assert powered_set(s("0,0;0,1;1,0", 9), 3).members == ((0, 0), (0, 3), (3, 0))


def test_powered_set_keeps_collisions() -> None:
    T = powered_set(GpmSet(4, ((0, 0), (0, 1), (0, 2))), 2)
    assert T.members == ((0, 0), (0, 2), (0, 0))


def test_powered_invariant_anchors() -> None:
    assert invariant3(powered_set(s("0,0;0,1;1,0", 9), 3), 2) == 33
    assert invariant3(powered_set(s("0,0;0,1;4,0", 8), 2), 2) == 125
    assert invariant3(powered_set(s("0,0;0,2;4,0", 8), 2), 2) == 205


def test_default_probes_frozen() -> None:
    assert default_probes(2) == ((1,), (1,))
    assert default_probes(3) == ((1, 2), (1,))
    assert default_probes(4) == ((2,), (2,))
    assert default_probes(7) == ((1, 2), (1,))
    assert default_probes(8) == ((2, 4), (2, 4))
    assert default_probes(9) == ((2, 3), (3,))
    assert default_probes(12) == ((2, 6), (2,))
    assert default_probes(16) == ((2, 8), (2, 8))
    assert default_probes(25) == ((2, 5), (5,))
    assert default_probes(27) == ((2, 3, 9), (3, 9))
    assert default_probes(32) == ((2, 16), (2, 16))
    # d // p and p**(alpha - 1) lie in (0, d), so neither tuple is ever empty
    for d in range(2, 2001):
        for probes in default_probes(d):
            assert probes and all(0 < a < d for a in probes), d


# ---------------------------------------------------------------------------
# The combined vector.
# ---------------------------------------------------------------------------


def test_invariant_vector_default_layout() -> None:
    iv = invariant_vector(s("0,0;0,1;1,0", 9))
    assert sorted(iv.i2) == list(range(1, 9))
    assert sorted(iv.i3) == [2, 3]
    assert sorted(iv.powered) == [3]
    block = iv.powered[3]
    assert sorted(block.i2) == list(range(1, 9))
    assert sorted(block.i3) == [2, 3]


def test_invariant_vector_custom_probes() -> None:
    iv = invariant_vector(s("0,0;0,1;1,0", 9), i3_probes=(4,), power_probes=(2, 5))
    assert sorted(iv.i3) == [4]
    assert sorted(iv.powered) == [2, 5]


def test_invariant_vector_key_is_hashable_and_stable() -> None:
    S = s("0,0;0,1;3,2", 9)
    assert invariant_vector(S).key() == invariant_vector(S).key()
    hash(invariant_vector(S).key())


def test_invariant_vector_ignores_translation() -> None:
    S = s("0,0;0,1;3,2", 9)
    assert invariant_vector(S.translated((4, 5))).key() == invariant_vector(S).key()


def test_invariant_vector_to_dict_layout() -> None:
    """One block layout for the set and for each power; keys are strings."""
    iv = invariant_vector(s("0,0;0,1;1,0", 9), i3_probes=(2,), power_probes=(3,))
    assert isinstance(iv, pauli.PoweredInvariants)
    doc = iv.to_dict()
    assert sorted(doc) == ["I1_args", "I2", "I3", "powered"]
    assert doc["I1_args"] == list(iv.i1.args)
    assert doc["I2"] == {str(a): iv.i2[a] for a in range(1, 9)}
    assert doc["I3"] == {"2": iv.i3[2]}
    assert doc["powered"] == {"3": iv.powered[3].to_dict()}
    assert sorted(doc["powered"]["3"]) == ["I1_args", "I2", "I3"]
    assert iv.key() == (*pauli.PoweredInvariants.key(iv), ((3, iv.powered[3].key()),))
