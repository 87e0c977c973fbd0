"""Set-level moves: generators, pivots, sublattice multipliers, rewrites."""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from gbsclass.moves import (
    GuardFailed,
    Move,
    PreconditionViolated,
    apply_trace,
    enumerator_moves,
    parse_move,
    rule_catalog,
    tables,
)
from gbsclass.pauli import GpmSet, invariant_vector
from gbsclass.residues import prime_power

from triple_graph import triple_graph


def s(text: str, d: int) -> GpmSet:
    return GpmSet.from_text(text, d)


def image(label: str, d: int, v: tuple[int, int]) -> tuple[int, int]:
    """Where a move fixing the identity sends the member v of the pair {I, v}."""
    identity, w = parse_move(label, d).apply(GpmSet(d, ((0, 0), v))).members
    assert identity == (0, 0)
    return w


# ---------------------------------------------------------------------------
# Exponent actions of the generators.
# ---------------------------------------------------------------------------


def test_generator_actions_on_basis_vectors() -> None:
    d = 9
    assert image("P", d, (1, 0)) == (1, 1)
    assert image("P", d, (0, 1)) == (0, 1)
    assert image("R", d, (1, 0)) == (0, 1)
    assert image("R", d, (0, 1)) == (8, 0)
    assert image("V", d, (1, 0)) == (1, 0)
    assert image("V", d, (0, 1)) == (1, 1)


def test_q_action_scales_both_axes() -> None:
    assert image("Q(2)", 9, (1, 0)) == (5, 0)  # 1/2 = 5 mod 9
    assert image("Q(2)", 9, (0, 1)) == (0, 2)
    with pytest.raises(PreconditionViolated):
        parse_move("Q", 9)
    with pytest.raises(PreconditionViolated):
        parse_move("T", 9)


def test_generators_have_determinant_one() -> None:
    for d in (4, 9, 12):
        labels = ["P", "R", "V"] + [f"Q({k})" for k in range(2, d) if math.gcd(k, d) == 1]
        for label in labels:
            (a, c), (b, e) = image(label, d, (1, 0)), image(label, d, (0, 1))
            assert (a * e - b * c) % d == 1, (d, label)


def test_apply_map_respects_dimension() -> None:
    with pytest.raises(PreconditionViolated):
        parse_move("P", 5).apply(s("0,0;0,1", 7))
    assert not parse_move("P", 5).applies(s("0,0;0,1", 7))


# ---------------------------------------------------------------------------
# Pivots and sublattice multipliers.
# ---------------------------------------------------------------------------


def test_pivot_translates_member_onto_identity() -> None:
    S = s("0,0;0,1;1,0", 9)
    assert parse_move("PIVOT(1)", 9).apply(S).to_text() == "0,0;0,8;1,8"
    assert parse_move("PIVOT(0)", 9).apply(S).to_text() == S.to_text()
    with pytest.raises(GuardFailed):
        parse_move("PIVOT(3)", 9).apply(S)


def test_w_move_frozen_examples() -> None:
    # X-exponents scale by k p**(alpha-s-t) + 1; Z-exponents stay
    T = parse_move("W(1,1,1)", 27).apply(s("0,0;0,3;3,0", 27))
    assert T.to_text() == "0,0;0,3;12,0"
    T = parse_move("W(1,1,1)", 8).apply(s("0,0;0,2;2,0", 8))
    assert T.to_text() == "0,0;0,2;6,0"
    T = parse_move("W(1,2,1)", 16).apply(s("0,0;0,2;4,2", 16))
    assert T.to_text() == "0,0;0,2;12,2"


def test_w_move_guards() -> None:
    with pytest.raises(GuardFailed):
        parse_move("W(1,1,1)", 27).apply(s("0,0;0,1;1,0", 27))  # off the lattice
    with pytest.raises(PreconditionViolated):
        parse_move("W(2,1,1)", 27)  # s + t too deep
    with pytest.raises(PreconditionViolated):
        parse_move("W(1,1,3)", 27)  # k not below p**s
    with pytest.raises(PreconditionViolated):
        parse_move("W(1,0,1)", 9).apply(s("0,0;0,3;3,0", 27))  # wrong ambient dimension
    for d in (7, 12):  # no sublattice multiplier off the prime powers p**alpha, alpha >= 2
        with pytest.raises(PreconditionViolated):
            parse_move("W(1,0,1)", d)


def _lattice_triples(d: int, s: int, sample: int | None = None) -> list[GpmSet]:
    """Normalized triples whose members all lie in {z = 0 mod p**s}.

    All of them, or with ``sample`` a seeded sample of that many.
    """
    p, _ = prime_power(d)
    vecs = [(x, z) for x in range(d) for z in range(0, d, p**s) if (x, z) != (0, 0)]
    pairs = list(combinations(vecs, 2))
    if sample is not None:
        pairs = random.Random(d * 100 + s).sample(pairs, sample)
    return [GpmSet(d, ((0, 0), v1, v2)) for v1, v2 in pairs]


@pytest.mark.parametrize("d, sample", [(4, None), (8, None), (9, None), (16, None),
                                       (25, None), (27, 500), (32, 500)])
def test_w_without_x_condition_is_a_clifford_scaling(d: int, sample: int | None) -> None:
    """On its lattice W(s, 0, k) is Q(u^-1), u = k p**(alpha-s) + 1.

    So the enumerator leaves it out: it joins no two classes of P and R.
    """
    p, alpha = prime_power(d)
    for s_ in range(1, alpha):
        triples = _lattice_triples(d, s_, sample)
        for k in range(1, p**s_):
            u = k * p ** (alpha - s_) + 1
            w = parse_move(f"W({s_},0,{k})", d)
            q = parse_move(f"Q({pow(u, -1, d)})", d)
            for S in triples:
                assert w.apply(S) == q.apply(S), (d, s_, k, S.to_text())


@pytest.mark.parametrize("d", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 128, 243])
def test_enumerator_moves_skip_clifford_w(d: int) -> None:
    labels = [mv.label for mv in enumerator_moves(d, tables(d))]
    assert not [label for label in labels if label.startswith("W(") and ",0," in label]
    if d == 32:
        assert labels == ["P", "R", "PIVOT(1)", "W(1,1,1)", "W(1,2,1)", "W(1,3,1)",
                          "W(2,1,1)", "W(2,2,1)", "W(3,1,1)", "RULE(x3-split)"]


# ---------------------------------------------------------------------------
# Labels, parsing, replay.
# ---------------------------------------------------------------------------


def test_parse_move_round_trips_labels() -> None:
    d = 27
    for label in ("P", "R", "V", "Q(2)", "PIVOT(1)", "PIVOT(2)", "W(1,1,1)", "W(1,1,2)",
                  "RULE(x3-split)"):
        mv = parse_move(label, d)
        assert mv.label == label


def test_parse_move_rejects_unknown() -> None:
    for bad in ("", "B", "Q", "PIVOT(x)", "RULE(nope)", "W(1,1)", "TRANSLATE(3,24)",
                "RULE(gcd)", "RULE(unit-drop2)", "RULE(xz3-split)",
                "RULE(xz3-residue-invert)", "RULE(xz3-residue-flip-invert)",
                "P\n", "Q(3)", "Q(0)"):
        with pytest.raises(PreconditionViolated):
            parse_move(bad, 27)
    for label, d in (("P", 0), ("P", 1), ("W(1,0,1)", 1), ("RULE(x3-split)", -2),
                     ("RULE(x3-split)", 12)):
        with pytest.raises(PreconditionViolated):
            parse_move(label, d)


def test_parse_move_builds_or_refuses_any_input() -> None:
    """Arbitrary text at any small d gives a Move or PreconditionViolated."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    labels = st.one_of(
        st.text(max_size=24),
        st.from_regex(r"(P|R|V|Q\(-?\d{1,3}\)|PIVOT\(\d{1,2}\)|W\(\d,\d,\d{1,2}\)"
                      r"|RULE\([a-z0-9-]{0,26}\))", fullmatch=True),
        st.sampled_from([mv.label for mv in rule_catalog(27)]),
    )

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(labels, st.integers(min_value=-2, max_value=40))
    def check(label: str, d: int) -> None:
        try:
            assert isinstance(parse_move(label, d), Move)
        except PreconditionViolated:
            pass

    check()


def test_rule_catalog_availability() -> None:
    """The catalog is exactly the rules the enumerator emits."""
    for d in range(2, 33):
        pa = prime_power(d)
        if pa is None or pa[1] == 1:
            continue
        moves = triple_graph(d)[0]
        emitted = [label for label, _, _ in moves if label.startswith("RULE(")]
        assert [m.label for m in rule_catalog(d)] == emitted == ["RULE(x3-split)"], d
    assert rule_catalog(7) == []
    assert rule_catalog(12) == []


def test_rules_parse_back_from_their_labels() -> None:
    for d in (9, 16, 27):
        for mv in rule_catalog(d):
            assert parse_move(mv.label, d).label == mv.label


def test_rule_guards_refuse_nonmatching_sets() -> None:
    split = parse_move("RULE(x3-split)", 27)
    with pytest.raises(GuardFailed):
        split.apply(s("0,0;0,3;3,0", 27))  # depths too shallow to split
    with pytest.raises(GuardFailed):
        split.apply(s("0,0;0,9;18,9", 27))  # a Z-tail is not split
    with pytest.raises(GuardFailed):
        split.apply(s("0,0;0,9", 27))  # not a triple
    assert split.apply(s("0,0;0,9;18,0", 27)).to_text() == "0,0;0,9;9,0"


def test_move_applies_probe() -> None:
    mv = parse_move("RULE(x3-split)", 9)
    assert mv.applies(s("0,0;0,3;6,0", 9))
    assert mv.apply(s("0,0;0,3;6,0", 9)).to_text() == "0,0;0,3;3,0"
    assert not mv.applies(s("0,0;0,3;1,0", 9))  # X^1 does not commute with Z^3
    assert not mv.applies(s("0,0;0,6;3,0", 9))  # Z^6 is not a chain step
    assert not mv.applies(s("0,0;0,3;6,0", 27))


def test_apply_trace_composes() -> None:
    S = s("0,0;0,1;3,2", 9)
    manual = parse_move("P", 9).apply(S)
    manual = parse_move("R", 9).apply(manual)
    manual = parse_move("PIVOT(2)", 9).apply(manual)
    manual = parse_move("P", 9).apply(manual)
    traced = apply_trace(S, ["P", "R", "PIVOT(2)", "P"])
    assert traced.to_text() == manual.to_text()
    assert apply_trace(S, []).to_text() == S.to_text()


# ---------------------------------------------------------------------------
# Soundness spot checks (the property suite sweeps these at scale).
# ---------------------------------------------------------------------------


def test_moves_preserve_invariants_spot() -> None:
    d = 9
    for text, labels in (
        ("0,0;0,1;3,2", ("P", "R", "V", "Q(2)", "PIVOT(1)", "PIVOT(2)")),
        ("0,0;0,3;1,0", ("W(1,0,1)", "W(1,0,2)")),
        ("0,0;0,3;6,0", ("RULE(x3-split)",)),
    ):
        S = s(text, d)
        key = invariant_vector(S).key()
        for label in labels:
            T = parse_move(label, d).apply(S)
            assert T != S, label
            assert invariant_vector(T).key() == key, label


def test_w_move_preserves_invariants_on_lattice() -> None:
    S = s("0,0;0,3;3,0", 27)
    key = invariant_vector(S).key()
    for k in (1, 2):
        T = parse_move(f"W(1,1,{k})", 27).apply(S)
        assert invariant_vector(T).key() == key
