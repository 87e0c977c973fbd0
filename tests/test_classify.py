"""End-to-end classification: counts, labels, separations, witnesses.

Class counts below were frozen after the orbit enumeration and the
invariant cells agreed on every dimension listed (and, where a closed
form applies, after the formula agreed too).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from gbsclass import classify
from gbsclass.classify import (
    Classification,
    CapExceeded,
    OutOfDomain,
    CountFormula,
    _array_tables,
    _carry,
    _carry_arrays,
    _classes,
    _components,
    _divisor_classes,
    _expectation,
    _invariant_cells,
    _key_rows,
    _levels,
    _ordered_key,
    _row_key,
    _row_moves,
    enumerate_pairs,
    enumerate_triples,
    expected_count,
    family_breakdown,
    formula_for,
    locate_class,
    sign_flip_feasibility,
)
from gbsclass.moves import (
    GuardFailed,
    PreconditionViolated,
    apply_trace,
    enumerator_moves,
    parse_move,
    tables,
)
from gbsclass.oracle import build_gpm_matrix
from gbsclass.pauli import Gpm, GpmSet, invariant_table, invariant_vector

from pair_graph import pair_graph
from triple_graph import last_states, pack, triple_graph, triple_moves, unpack


def s(text: str, d: int) -> GpmSet:
    return GpmSet.from_text(text, d)


# ---------------------------------------------------------------------------
# The sign-flip separator.
# ---------------------------------------------------------------------------


def test_sign_flip_odd_prime_roots() -> None:
    # m = 9: the three residue conditions pick out 2, (m+1)/2 and m-1
    feasible = {tp for tp in range(2, 9)
                if sign_flip_feasibility(3, 3, 0, 2, tp) == "FEASIBLE"}
    assert feasible == {2, 5, 8}
    # m = 27
    feasible = {tp for tp in range(2, 27)
                if sign_flip_feasibility(3, 4, 0, 3, tp) == "FEASIBLE"}
    assert feasible == {2, 14, 26}


def test_sign_flip_shallow_contexts_always_merge() -> None:
    for p in (3, 5):
        for tp in range(2, p):
            assert sign_flip_feasibility(p, 2, 0, 1, tp) == "FEASIBLE"


def test_sign_flip_even_prime_boundary_case() -> None:
    """At p = 2 a determinant -1 matching exists when s + t + 1 = alpha."""
    for tp in range(2, 8):
        assert sign_flip_feasibility(2, 4, 0, 3, tp) == "FEASIBLE"


def test_sign_flip_even_prime_order_conditions() -> None:
    feasible = {tp for tp in range(2, 16)
                if sign_flip_feasibility(2, 6, 0, 4, tp) == "FEASIBLE"}
    assert feasible == {2, 7, 8, 9, 10, 15}
    feasible = {tp for tp in range(2, 4)
                if sign_flip_feasibility(2, 5, 0, 2, tp) == "FEASIBLE"}
    assert feasible == {2, 3}


def test_sign_flip_preconditions() -> None:
    with pytest.raises(PreconditionViolated):
        sign_flip_feasibility(3, 3, 1, 1, 2)  # needs s < t
    with pytest.raises(PreconditionViolated):
        sign_flip_feasibility(3, 3, 0, 3, 2)  # needs s + t < alpha
    with pytest.raises(PreconditionViolated):
        sign_flip_feasibility(3, 3, 0, 2, 1)  # t' starts at 2
    with pytest.raises(PreconditionViolated):
        sign_flip_feasibility(3, 3, 0, 2, 9)  # t' below p**(t-s)


# ---------------------------------------------------------------------------
# Closed-form counts.
# ---------------------------------------------------------------------------


def test_pair_count_formula() -> None:
    assert expected_count(CountFormula("PAIRS", (12,))) == 6
    assert expected_count(CountFormula("PAIRS", (36,))) == 9
    assert expected_count(CountFormula("PAIRS", (7,))) == 2
    with pytest.raises(OutOfDomain):
        expected_count(CountFormula("PAIRS", (1,)))


def test_triple_count_formulas() -> None:
    assert expected_count(CountFormula("TRIPLES_P2", (3,))) == 9
    assert expected_count(CountFormula("TRIPLES_P2", (5,))) == 21
    assert expected_count(CountFormula("TRIPLES_PALPHA", (2, 4))) == 28
    for bad in ((2,), (4,), (9,)):
        with pytest.raises(OutOfDomain):
            expected_count(CountFormula("TRIPLES_P2", bad))
    for bad in ((2, 3), (2, 2), (3, 4)):
        with pytest.raises(OutOfDomain):
            expected_count(CountFormula("TRIPLES_PALPHA", bad))
    with pytest.raises(OutOfDomain):
        expected_count(CountFormula("SOMETHING", (3,)))


def test_integer_closed_forms_match_the_fraction_forms() -> None:
    """The integer forms equal the closed forms as printed, in fractions."""
    for p in range(3, 2000, 2):
        if all(p % k for k in range(3, math.isqrt(p) + 1, 2)):
            tail = math.floor(Fraction(p - 2, 6) + Fraction((-1) ** (p // 3) * p, 3))
            assert expected_count(CountFormula("TRIPLES_P2", (p,))) == 5 * p * p // 6 + tail + 3
    for alpha in range(4, 59, 2):
        val = (Fraction((3 * alpha + 19) * 2**alpha, 18) + Fraction(alpha * alpha, 2)
               - Fraction(7 * alpha, 4) - Fraction(5, 9))
        formula = CountFormula("TRIPLES_PALPHA", (2, alpha))
        if val.denominator == 1:
            assert expected_count(formula) == val, alpha
        else:
            with pytest.raises(OutOfDomain, match=f"not integral at alpha={alpha}$"):
                expected_count(formula)


def test_formula_selection() -> None:
    assert formula_for(40, "pairs") == CountFormula("PAIRS", (40,))
    assert formula_for(9, "triples") == CountFormula("TRIPLES_P2", (3,))
    assert formula_for(25, "triples") == CountFormula("TRIPLES_P2", (5,))
    assert formula_for(16, "triples") == CountFormula("TRIPLES_PALPHA", (2, 4))
    for d in (4, 8, 12, 27, 32):
        assert formula_for(d, "triples") is None


def test_triple_expectation_outside_formula_domain_is_a_note() -> None:
    assert _expectation(16, "triples") == (28, None)
    assert _expectation(12, "triples") == (None, None)
    expected, note = _expectation(64, "triples")
    assert expected is None
    assert "TRIPLES_PALPHA(2, 6)" in note and "alpha=6" in note


def test_unevaluable_formula_leaves_triples_partial(monkeypatch) -> None:
    import gbsclass.classify as classify

    monkeypatch.setattr(classify, "formula_for",
                        lambda d, mode: CountFormula("TRIPLES_PALPHA", (2, 6)))
    rep = enumerate_triples(8)
    assert rep.expected_count is None
    assert rep.status == "PARTIAL"
    assert any("TRIPLES_PALPHA" in n for n in rep.notes)


# ---------------------------------------------------------------------------
# Pair classification.
# ---------------------------------------------------------------------------


def test_pair_counts_frozen() -> None:
    for d, count in ((2, 2), (3, 2), (4, 3), (6, 4), (8, 4), (9, 3),
                     (12, 6), (16, 5), (27, 4), (36, 9)):
        rep = enumerate_pairs(d)
        assert rep.count == count, d
        assert rep.status == "VERIFIED"
        assert rep.notes == []


def test_pair_representatives_are_divisor_chains() -> None:
    rep = enumerate_pairs(12)
    texts = [c.representative.to_text() for c in rep.classes]
    assert texts == ["0,0;0,0", "0,0;0,1", "0,0;0,2", "0,0;0,3",
                     "0,0;0,4", "0,0;0,6"]


def test_pair_orbit_sizes_cover_universe() -> None:
    for d in (6, 9, 12):
        rep = enumerate_pairs(d)
        assert sum(c.orbit_size for c in rep.classes) == d * d


PAIR_GRAPH_DIMS = (*range(2, 129), 210, 360, 720, 997, 1000, 1024)


def _no_graph(d: int) -> None:
    raise AssertionError(f"a move graph was built at d={d}")


def test_divisor_classes_match_the_state_graph(monkeypatch) -> None:
    """Divisor roots and J_2 sizes are the graph's classes; no graph is built."""
    monkeypatch.setattr(classify, "_row_moves", _no_graph)
    for d in PAIR_GRAPH_DIMS:
        for witnesses in (False, True):
            enumerate_pairs(d, witnesses)
        roots, sizes = _divisor_classes(d)
        assert sum(sizes) == d * d, d
        _, class_roots, inverse = pair_graph(d)
        assert roots.tolist() == class_roots.tolist(), d
        assert sizes == np.bincount(inverse).tolist(), d


def _walk(moves: list, dist: np.ndarray, step: np.ndarray, start: int) -> list[str] | None:
    """The word from start along ``step``, None if no root is reachable.

    A move's sources are ascending, so ``np.searchsorted`` finds its
    arrow from a node.
    """
    if dist[start] < 0:
        return None
    word = []
    while dist[start] > 0:
        label, src, dst = moves[step[start]]
        word.append(label)
        start = dst[np.searchsorted(src, start)]
    return word


def test_pair_witnesses_match_the_state_graph() -> None:
    """Each pair witness is the word walked on the graph's level scan.

    The walk starts at the largest state of each class in the graph.
    """
    for d in PAIR_GRAPH_DIMS:
        moves, class_roots, inverse = pair_graph(d)
        dist, step = _levels(d * d, moves, class_roots)
        want = [_walk(moves, dist, step, s) for s in last_states(inverse, class_roots.size)]
        got = [c.witness for c in enumerate_pairs(d, emit_witnesses=True).classes]
        assert got == want, d


# ---------------------------------------------------------------------------
# Triple classification.
# ---------------------------------------------------------------------------


# d = 24 has 71 classes, not the 72 components of the move graph: the
# classes rooted at SPLIT_AT_24 are one, as the dense intertwiner of
# test_d24_merge_has_a_dense_intertwiner shows
TRIPLE_COUNTS = {
    2: 1, 3: 2, 4: 4, 5: 3, 6: 9, 7: 5, 8: 12, 9: 9, 10: 13, 11: 7, 12: 27,
    13: 9, 14: 19, 15: 20, 16: 28, 17: 11, 18: 37, 19: 13, 20: 39, 21: 30,
    22: 27, 23: 15, 24: 71, 25: 21, 26: 33, 27: 32, 28: 55, 29: 19, 30: 83,
    31: 21, 32: 60,
}
SPLIT_AT_24 = ("0,0;0,2;2,0", "0,0;0,2;10,0")


def test_triple_counts_frozen() -> None:
    for d in (2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 25, 27, 32):
        rep = enumerate_triples(d)
        assert rep.count == TRIPLE_COUNTS[d], d
        assert rep.notes == [], d
        expected_status = "VERIFIED" if d in (9, 16, 25) else "VERIFIED_NO_FORMULA"
        assert rep.status == expected_status, d


def _triple(d: int, c1: int, c2: int) -> GpmSet:
    return GpmSet(d, ((0, 0), divmod(c1, d), divmod(c2, d)))


def test_triple_class_counts_every_dimension() -> None:
    """The key classes are the move graph's components at d = 2..32, but one.

    Partition, roots and orbit sizes agree everywhere except at d = 24,
    where the key joins exactly the two components rooted at
    SPLIT_AT_24.  Each component is mapped to the key class of its root;
    the class of every state (at d <= 8) or of 200 seeded states must be
    its component's.
    """
    rng = np.random.default_rng(16)
    counts = {}
    for d in range(2, 33):
        rows = _key_rows(d)
        counts[d] = len(rows.roots)
        _, comp_roots, comp_index = triple_graph(d)
        n = comp_index.shape[0]
        roots = list(zip(*(c.tolist() for c in unpack(d, comp_roots))))
        comp_class = [locate_class(d, _triple(d, *r)) for r in roots]
        by_class: dict[int, list[int]] = {}
        for comp, ci in enumerate(comp_class):
            by_class.setdefault(ci, []).append(comp)
        split = [[_triple(d, *roots[comp]).to_text() for comp in comps]
                 for comps in by_class.values() if len(comps) > 1]
        assert split == ([list(SPLIT_AT_24)] if d == 24 else []), d
        assert sorted(by_class) == list(range(counts[d])), d
        comps = [by_class[ci] for ci in range(counts[d])]
        assert [roots[c[0]] for c in comps] == rows.roots, d
        sizes = np.bincount(comp_index)
        assert [int(sizes[c].sum()) for c in comps] == rows.sizes, d
        states = np.arange(n) if d <= 8 else rng.integers(n, size=200)
        for i, c1, c2 in zip(states.tolist(), *(c.tolist() for c in unpack(d, states))):
            assert locate_class(d, _triple(d, c1, c2)) == comp_class[comp_index[i]], (d, i)
    assert counts == TRIPLE_COUNTS


@pytest.mark.parametrize("d", range(2, 13))
def test_row_key_matches_the_relation_lattice(d: int) -> None:
    """In each divisor row, (d/g, 0) and (a0, m) span the brute-force K.

    K = {(a, b) in Z_d^2 : a*(0, g) + b*v2 = 0 mod d} is enumerated for
    every code v2; omega is det[(0, g) v2].
    """
    x, z = np.divmod(np.arange(d * d), d)
    a, b = (col[:, None] for col in np.divmod(np.arange(d * d), d))
    for g in range(1, d):
        if d % g:
            continue
        a0, m, omega = _row_key(d, g, x, z)
        brute = (b * x % d == 0) & ((a * g + b * z) % d == 0)
        spanned = (b % m == 0) & ((a - b // m * a0) % (d // g) == 0)
        assert (brute == spanned).all(), (d, g)
        assert (omega == (0 * z - g * x) % d).all(), (d, g)


def _same_partition(a: list, b: list) -> bool:
    """Whether equal entries of a sit exactly where equal entries of b do."""
    return len(set(zip(a, b))) == len(set(a)) == len(set(b))


@pytest.mark.parametrize("d", range(2, 13))
def test_ordered_key_matches_the_relation_lattice(d: int) -> None:
    """Packed ordered keys are equal exactly when (K, omega) are, on every pair.

    K = {(a, b) in Z_d^2 : a*v1 + b*v2 = 0 mod d} is enumerated for every
    v1 != 0 and every v2; omega is det[v1 v2].
    """
    v1, v2 = np.divmod(np.arange(1, d * d), d), np.divmod(np.arange(d * d), d)
    (x1, z1), (x2, z2) = (np.repeat(c, d * d) for c in v1), (np.tile(c, d * d - 1) for c in v2)
    keys = _ordered_key(d, (x1, z1), (x2, z2))
    a, b = (col[None, :] for col in np.divmod(np.arange(d * d), d))
    lattice = (((a * x1[:, None] + b * x2[:, None]) % d == 0)
               & ((a * z1[:, None] + b * z2[:, None]) % d == 0))
    omega = (x1 * z2 - z1 * x2) % d
    brute = [bits.tobytes() + bytes([w]) for bits, w in zip(np.packbits(lattice, axis=1), omega)]
    assert _same_partition(keys.tolist(), brute)


def test_least_ordered_key_matches_locate_class() -> None:
    """The least ordered key over the six orderings partitions triples as locate_class.

    200 seeded triples {identity, v1, v2} at each d <= 32.
    """
    rng = np.random.default_rng(26)
    for d in range(2, 33):
        c1, c2 = rng.integers(1, d * d, size=(2, 200))
        c1, c2 = c1[c1 != c2], c2[c1 != c2]
        (x1, z1), (x2, z2) = np.divmod(c1, d), np.divmod(c2, d)
        least = np.min([_ordered_key(d, (a1 * x1 + b1 * x2, a1 * z1 + b1 * z2),
                                     (a2 * x1 + b2 * x2, a2 * z1 + b2 * z2))
                        for (a1, b1), (a2, b2) in classify._RELABELLINGS], axis=0)
        located = [locate_class(d, _triple(d, *c)) for c in zip(c1.tolist(), c2.tolist())]
        assert _same_partition(least.tolist(), located), d


@pytest.mark.parametrize("dropped", [None, *range(1, 6)])
def test_key_ablations_change_counts(dropped: int | None, monkeypatch) -> None:
    """Dropping omega (None), or one non-identity ordering, changes some count.

    So neither the commutation phase nor any of the five relabellings is
    idle in the key at d <= 32.
    """
    if dropped is None:
        row_key = classify._row_key
        monkeypatch.setattr(classify, "_row_key",
                            lambda d, g, x, z: (*row_key(d, g, x, z)[:2], 0 * x))
    else:
        kept = [M for i, M in enumerate(classify._RELABELLINGS) if i != dropped]
        monkeypatch.setattr(classify, "_RELABELLINGS", tuple(kept))
    _key_rows.cache_clear()
    try:
        counts = {d: len(_key_rows(d).roots) for d in range(2, 33)}
    finally:
        _key_rows.cache_clear()
    assert counts != TRIPLE_COUNTS


def test_triple_classes_build_no_graph(monkeypatch) -> None:
    """Classes, locate_class and family_breakdown read the key rows alone."""
    monkeypatch.setattr(classify, "_row_moves", _no_graph)
    for d in (9, 24, 25, 32):
        rep = enumerate_triples(d)
        assert rep.count == TRIPLE_COUNTS[d]
        assert locate_class(d, rep.classes[-1].representative) == rep.count - 1
    family_breakdown(25)


def test_d24_merge_has_a_dense_intertwiner() -> None:
    """{I, Z^2, X^2} and {I, Z^2, X^10} are LU equivalent at d = 24.

    Dense matrices only.  The matching Z^2 -> X^10, X^2 -> Z^2 keeps the
    relation lattice 12 Z^2 and the commutation phase, so the group
    average V = sum over a, b < 2d of N1^a N2^b X (M1^a M2^b)^-1 of a
    random X intertwines M_i with N_i, and so does its polar part U.
    """
    d = 24
    M1, M2, N1, N2 = (build_gpm_matrix(Gpm(d, s, t)) for s, t in ((0, 2), (2, 0), (10, 0), (0, 2)))
    rng = np.random.default_rng(24)
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    V = np.zeros((d, d), dtype=complex)
    Na = Ma = np.eye(d)
    for _ in range(2 * d):
        Nab, Mab = Na, Ma
        for _ in range(2 * d):
            V += Nab @ X @ Mab.conj().T
            Nab, Mab = Nab @ N2, Mab @ M2
        Na, Ma = Na @ N1, Ma @ M1
    W, _, Vh = np.linalg.svd(V)
    U = W @ Vh
    assert np.abs(U @ U.conj().T - np.eye(d)).max() < 1e-12
    for M, N in ((M1, N1), (M2, N2)):
        assert np.abs(U @ M @ U.conj().T - N).max() < 1e-12


def _reference_pack(d: int, c1, c2):
    """The ``triu`` rank by arithmetic: with i = min - 1, j = max - 1 and
    N = d*d - 1, row i starts at i(2N - i - 1)/2, and (i, j) is j - i - 1
    further on."""
    n = d * d - 1
    i, j = np.minimum(c1, c2) - 1, np.maximum(c1, c2) - 1
    return i * (2 * n - i - 1) // 2 + j - i - 1


def _reference_unpack(d: int, states: np.ndarray) -> list[np.ndarray]:
    """The inverse of :func:`_reference_pack`, by search in the int64 row starts."""
    n = d * d - 1
    rows = np.arange(n - 1)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, states, side="right") - 1
    return [i + 1, states - starts[i] + i + 2]


def _reference_moves(d: int) -> list:
    """The enumerator's arrows, with every state numbered by the references."""
    states = np.arange(math.comb(d * d - 1, 2))
    universe = [(0, 0), *((c // d, c % d) for c in _reference_unpack(d, states))]
    arrows = []
    for mv in enumerator_moves(d, _array_tables(d)):
        src, members = states, universe
        if mv.guard is not None:
            keep = np.flatnonzero(mv.guard(members))
            src = src[keep]
            members = [members[0], *((a[keep], b[keep]) for a, b in members[1:])]
        _, (x1, z1), (x2, z2) = mv.image(members)
        dst = _reference_pack(d, (x1 % d) * d + z1 % d, (x2 % d) * d + z2 % d)
        arrows.append((mv.label, src[dst != src], dst[dst != src]))
    return arrows


@pytest.mark.parametrize("d", [*range(2, 13), 16, 24, 25, 32])
def test_state_numbering(d: int) -> None:
    """Triples are numbered in ``triu`` order of their two codes.

    The offset table gives every state the reference number, and packing
    inverts unpacking, in either member order.
    """
    rows, cols = np.triu_indices(d * d - 1, k=1)
    states = np.arange(rows.size)
    assert (_reference_pack(d, rows + 1, cols + 1) == states).all()
    M1, M2 = unpack(d, states)
    assert (M1 == rows + 1).all() and (M2 == cols + 1).all()
    for R, N in zip(_reference_unpack(d, states), (M1, M2)):
        assert (R == N).all()
    c1, c2 = M1.astype(np.int32), M2.astype(np.int32)
    for packed in (pack(d, c1, c2), pack(d, c2, c1)):
        assert packed.dtype == np.int32
        assert (packed == states).all()


@pytest.mark.parametrize("d", [8, 16, 24, 27, 32])
def test_moves_match_the_reference_numbering(d: int) -> None:
    """The int32 build gives the reference arrows, label by label.

    Every move's arrows are int32, with ascending sources, which the
    test-side :func:`_walk` relies on.
    """
    got, want = triple_moves(d), _reference_moves(d)
    assert [label for label, _, _ in got] == [label for label, _, _ in want]
    for (label, src, dst), (_, ref_src, ref_dst) in zip(got, want):
        assert src.dtype == dst.dtype == np.int32, label
        assert (np.diff(src) > 0).all(), label
        assert np.array_equal(src, ref_src) and np.array_equal(dst, ref_dst), label


def test_key_rows_are_built_once_per_dimension() -> None:
    """Many lookups at one d build its key rows once."""
    classify._key_rows.cache_clear()
    for S in (s("0,0;0,1;1,0", 25), s("0,0;0,5;5,0", 25), s("0,0;1,1;2,3", 25)) * 20:
        locate_class(25, S)
    assert classify._key_rows.cache_info().misses == 1


def _ablation(d: int, dropped: str, count: int):
    return pytest.param(d, dropped, count, id=f"{d}-{dropped}")


@pytest.mark.parametrize("d, dropped, count", [
    # P, R, PIVOT(1), W(1,1,1) and the split rule are each needed alone
    # somewhere, and W(2,2,1) at d = 64; the other W(s, t, 1) are needed
    # jointly (test_w_moves_needed_jointly)
    _ablation(4, "P", 11),
    _ablation(4, "R", 13),
    _ablation(4, "PIVOT(1)", 6),
    _ablation(16, "W(1,1,1)", 29),
    _ablation(25, "RULE(x3-split)", 22),
    # the split rule adds no merge at these d
    *(_ablation(d, "RULE(x3-split)", TRIPLE_COUNTS[d]) for d in (4, 8, 9, 16, 27, 32)),
])
def test_minimal_move_set(d: int, dropped: str, count: int) -> None:
    """Dropping one enumerator move gives ``count`` classes.

    Where the count does not change, the roots must not either.  P and R
    are Cliffords, a pivot multiplies every member by one unitary and
    W(s, t, k) is an explicit unitary, so at the d where the split rule
    adds no merge the class count is an upper bound that does not rest on
    the rule, whose soundness is shown only through invariant
    preservation.
    """
    moves, class_roots, inverse = triple_graph(d)
    kept = [mv for mv in moves if mv[0] != dropped]
    assert len(kept) == len(moves) - 1
    roots = _components(inverse.shape[0], kept)
    assert np.count_nonzero(roots == np.arange(roots.size)) == count
    if count == class_roots.size:
        assert (roots == class_roots[inverse]).all()


def test_w_moves_needed_jointly() -> None:
    """The W(s, t, 1) other than W(1,1,1) and W(2,2,1) are needed jointly.

    At d = 32 each of them alone can be dropped, as
    ``tools/merge_counts.py 32`` shows, but without all four two classes
    stay apart.
    """
    moves, class_roots, inverse = triple_graph(32)
    kept = [mv for mv in moves if not mv[0].startswith("W(") or mv[0] in ("W(1,1,1)", "W(2,2,1)")]
    assert len(kept) == len(moves) - 4
    roots = _components(inverse.shape[0], kept)
    assert class_roots.size == 60
    assert np.count_nonzero(roots == np.arange(roots.size)) == 61


def _assert_arrows_replay(d, n, state_set, moves, rng=None) -> None:
    """Replaying each move entry's label on one set gives the entry's arrows.

    ``state_set(i)`` is the normalized set of state i.  Every arrow and
    every other state is checked, or with ``rng`` a seeded sample of
    each; a state that is no arrow source is refused or stays fixed.
    """
    for label, src, dst in moves:
        mv = parse_move(label, d)
        arrows = range(src.size) if rng is None else rng.permutation(src.size)[:40]
        for a in arrows:
            assert mv.apply(state_set(int(src[a]))) == state_set(int(dst[a])), label
        sources = set(src.tolist())
        for i in range(n) if rng is None else rng.integers(n, size=40).tolist():
            S = state_set(i)
            if i not in sources and mv.applies(S):
                assert mv.apply(S) == S, (label, S.to_text())


def test_move_arrows_replay_label_by_label() -> None:
    """The enumerator's arrows and the replay of their labels agree."""
    rng = np.random.default_rng(20261018)
    for d in (8, 9, 16, 25, 27, 32):
        sample = None if d < 16 else rng
        moves, _, inverse = triple_graph(d)
        M1, M2 = unpack(d, np.arange(inverse.shape[0]))

        def triple(i: int) -> GpmSet:
            return GpmSet(d, ((0, 0), divmod(int(M1[i]), d), divmod(int(M2[i]), d)))

        _assert_arrows_replay(d, M1.shape[0], triple, moves, sample)

        def pair(i: int) -> GpmSet:
            return GpmSet(d, ((0, 0), divmod(i, d)))

        _assert_arrows_replay(d, d * d, pair, pair_graph(d)[0], sample)


def test_triple_orbits_cover_universe() -> None:
    for d in (4, 6, 9):
        rep = enumerate_triples(d)
        n = d * d - 1
        assert sum(c.orbit_size for c in rep.classes) == n * (n - 1) // 2


def test_nine_level_representatives() -> None:
    rep = enumerate_triples(9)
    assert [c.representative.to_text() for c in rep.classes] == [
        "0,0;0,1;0,2", "0,0;0,1;0,3", "0,0;0,1;1,0", "0,0;0,1;2,0",
        "0,0;0,1;3,0", "0,0;0,1;3,2", "0,0;0,1;4,0", "0,0;0,3;0,6",
        "0,0;0,3;3,0",
    ]
    assert all(c.separation == "INVARIANT" for c in rep.classes)


def test_separation_labels() -> None:
    # invariants alone settle everything below 27
    for d in (8, 9, 16, 25):
        assert all(c.separation == "INVARIANT"
                   for c in enumerate_triples(d).classes), d
    rep = enumerate_triples(27)
    tagged = [(i, c.representative.to_text(), c.orbit_size)
              for i, c in enumerate(rep.classes) if c.separation == "THEOREM1"]
    assert tagged == [(18, "0,0;0,1;9,3", 5832), (19, "0,0;0,1;9,6", 5832)]
    assert not any(c.separation == "UNSEPARATED" for c in rep.classes)
    assert all(c.separation == "INVARIANT"
               for c in enumerate_triples(32).classes)


def test_invariant_twins_are_separated() -> None:
    """Sets sharing every default-probe value still land in distinct classes."""
    from gbsclass.pauli import invariant_vector

    a, b = s("0,0;0,2;0,8", 16), s("0,0;0,2;8,0", 16)
    assert invariant_vector(a).key() == invariant_vector(b).key()
    assert locate_class(16, a) != locate_class(16, b)


def _every_power_profile(S: GpmSet) -> tuple:
    every = range(1, S.d)
    return tuple(invariant_table(S, every, every))


def test_divisor_power_profile_keeps_the_cells(monkeypatch) -> None:
    """Profiles at the proper divisors of d split each default-key cell as
    profiles at every power do, for pairs and triples at every d <= 32."""
    for d in range(2, 33):
        for codes in ([(c,) for c in _divisor_classes(d)[0].tolist()], _key_rows(d).roots):
            reps = [GpmSet(d, ((0, 0), *(divmod(c, d) for c in cs))) for cs in codes]
            ivs = [invariant_vector(S) for S in reps]
            cells = _invariant_cells(reps, ivs)
            with monkeypatch.context() as m:
                m.setattr(classify, "_full_profile", _every_power_profile)
                assert cells == _invariant_cells(reps, ivs), d


def test_powered_invariants_depend_on_base_args_and_gcd() -> None:
    """At power t the I1 arguments are fold(t*t*a) over the base arguments a,
    and the I2 and I3 rows are those at power gcd(t, d)."""
    rng = np.random.default_rng(30)
    for d in (12, 16, 18, 24, 27, 30, 32):
        for size in (2, 3, 4):
            codes = rng.choice(np.arange(1, d * d), size - 1, replace=False).tolist()
            S = GpmSet(d, ((0, 0), *(divmod(c, d) for c in codes)))
            rows = _every_power_profile(S)
            for t in range(1, d):
                folded = sorted(min(t * t * a % d, -t * t * a % d) for a in rows[0][0])
                assert list(rows[t - 1][0]) == folded, (d, codes, t)
                assert rows[t - 1][1:] == rows[math.gcd(t, d) - 1][1:], (d, codes, t)


def test_locate_class_agrees_with_enumeration() -> None:
    rep = enumerate_triples(9)
    for i, c in enumerate(rep.classes):
        assert locate_class(9, c.representative) == i


def test_locate_class_input_validation() -> None:
    with pytest.raises(ValueError):
        locate_class(9, s("0,0;0,1", 9))  # pair, not triple
    with pytest.raises(ValueError):
        locate_class(9, s("0,1;0,2;0,3", 9))  # identity missing
    with pytest.raises(ValueError):
        locate_class(8, s("0,0;0,1;1,0", 9))  # dimension mismatch
    with pytest.raises(ValueError):
        locate_class(9, GpmSet(9, ((0, 0), (0, 1), (0, 1))))
    with pytest.raises(ValueError):
        locate_class(9, GpmSet(9, ((0, 0), (0, 0), (1, 0))))  # identity twice


def test_empty_probes_are_refused() -> None:
    """An empty probe tuple would leave the text and CSV reports no column."""
    for run in (enumerate_triples, enumerate_pairs):
        for i3_probes, power_probes in (((), ()), ((2,), ()), ((), (2,))):
            with pytest.raises(ValueError, match="at least one"):
                run(9, False, 32, i3_probes, power_probes)


def test_dimension_caps() -> None:
    with pytest.raises(CapExceeded):
        enumerate_triples(33)
    with pytest.raises(CapExceeded):
        enumerate_pairs(33 * 33)
    enumerate_pairs(40)  # pairs go quadratically higher
    with pytest.raises(CapExceeded):
        enumerate_triples(11, enum_cap=10)


# ---------------------------------------------------------------------------
# Families at odd prime squares.
# ---------------------------------------------------------------------------


def test_family_breakdown_frozen() -> None:
    fam9 = family_breakdown(9)
    assert {k: len(v) for k, v in fam9.items()} == {
        "1": 4, "2": 1, "3": 2, "4": 1, "5": 1
    }
    fam25 = family_breakdown(25)
    assert {k: len(v) for k, v in fam25.items()} == {
        "1": 12, "2": 2, "3": 5, "4": 1, "5": 1
    }


def test_family_breakdown_partitions_classes() -> None:
    for d in (9, 25):
        fam = family_breakdown(d)
        indices = sorted(i for block in fam.values() for i in block)
        assert indices == list(range(enumerate_triples(d).count))


def test_family_breakdown_domain() -> None:
    for d in (8, 12, 27):
        with pytest.raises(OutOfDomain):
            family_breakdown(d)


# ---------------------------------------------------------------------------
# Witness traces.
# ---------------------------------------------------------------------------


def _last_row_triple_by_class(d: int, enum_cap: int) -> dict[int, GpmSet]:
    """Last row triple {I, (0, g), v2} of every class, in ascending (g, code v2) order."""
    last: dict[int, GpmSet] = {}
    for g in range(1, d):
        if d % g:
            continue
        for c2 in range(d * d):
            if c2 in (0, g):
                continue
            S = GpmSet(d, ((0, 0), (0, g), divmod(c2, d))).normalized()
            last[locate_class(d, S, enum_cap)] = S
    return last


def _assert_triple_witnesses_replay(d: int, enum_cap: int = 32) -> Classification:
    rep = enumerate_triples(d, emit_witnesses=True, enum_cap=enum_cap)
    starters = _last_row_triple_by_class(d, enum_cap)
    assert not [n for n in rep.notes if "no witness path" in n]
    for ci, c in enumerate(rep.classes):
        assert c.witness is not None
        # W(s, 0, k) is a Clifford move, which the enumerator leaves out
        assert not [label for label in c.witness if label.startswith("W(") and ",0," in label]
        landed = apply_trace(starters[ci], c.witness).normalized()
        assert landed.to_text() == c.representative.to_text()
    return rep


@pytest.mark.parametrize("d", [4, 8, 9, 16, 25, 27, 32])
def test_triple_witnesses_replay(d: int) -> None:
    _assert_triple_witnesses_replay(d)


def test_triple_witnesses_replay_at_every_dimension() -> None:
    """Every witness replays at every d <= 32, and at 36, 48, 49 and 64.

    The split notes are those of the state graph: one class at d = 24
    and 36, eight at d = 48.
    """
    for d in (*range(2, 33), 36, 48, 49, 64):
        rep = _assert_triple_witnesses_replay(d, enum_cap=64)
        splits = [n for n in rep.notes if n.startswith("move graph splits")]
        assert len(splits) == {24: 1, 36: 1, 48: 8}.get(d, 0), d


def test_d24_witnesses_replay_across_the_split_class() -> None:
    """At d = 24 the moves leave one class in two components.

    The class's last row triple lies in its root's component, so every
    witness still replays, and a note names the class.
    """
    rep = _assert_triple_witnesses_replay(24)
    ci = [c.representative.to_text() for c in rep.classes].index(SPLIT_AT_24[0])
    assert rep.notes == [f"move graph splits class {ci + 1} into 2 components"]


def test_d81_split_class_has_no_witness() -> None:
    """At d = 81 = 3^4 the moves leave one class in two components, and
    its last row triple is not in its root's component.

    That class, rooted at {I, Z^3, X^27 Z^9}, gets no witness and one
    note; every other witness replays from its class's last row triple to
    the class root.  The caps refuse triples at d = 81, so the witnesses
    are taken from the row graph directly.
    """
    d = 81
    rows = _key_rows(d)
    witnesses, notes = classify._triple_witnesses(d, rows)
    assert rows.roots[100] == (3, 27 * d + 9)
    assert notes == ["move graph splits class 101 into 2 components"]
    last = {}
    for node, ci in enumerate(rows.klass.tolist()):
        last[ci] = (rows.gs[node // (d * d)], node % (d * d))
    for ci, (witness, root) in enumerate(zip(witnesses, rows.roots)):
        if ci == 100:
            assert witness is None
            continue
        landed = apply_trace(_triple(d, *last[ci]), witness).normalized()
        assert landed.to_text() == _triple(d, *root).normalized().to_text(), ci


def test_row_graph_components_match_the_state_graph() -> None:
    """Per key class, the row graph has as many components as the state graph.

    d = 24 is the one dimension up to 32 where a class has two.
    """
    for d in range(2, 33):
        klass = _key_rows(d).klass  # -1: no triple
        comp_class = klass[_classes(_components(klass.size, _row_moves(d)))[0]]
        got = np.bincount(comp_class[comp_class >= 0], minlength=TRIPLE_COUNTS[d])
        _, comp_roots, _ = triple_graph(d)
        want = np.bincount([locate_class(d, _triple(d, *map(int, r)))
                            for r in zip(*unpack(d, comp_roots))], minlength=TRIPLE_COUNTS[d])
        assert got.tolist() == want.tolist(), d
        assert (got > 1).sum() == (d == 24), d


def test_p_is_needed_for_witness_paths_not_for_merges(monkeypatch) -> None:
    """Without P the row graph at d = 12 keeps its components, yet some
    class's start no longer reaches its root, so P stays in the move list.
    """
    rows = _key_rows(12)
    _, notes = classify._triple_witnesses(12, rows)
    every_move = classify.enumerator_moves
    monkeypatch.setattr(classify, "enumerator_moves",
                        lambda d, tab: [mv for mv in every_move(d, tab) if mv.label != "P"])
    witnesses, notes_without_p = classify._triple_witnesses(12, rows)
    assert None in witnesses
    assert notes_without_p == notes


def test_row_graph_arrows_replay_move_and_carry() -> None:
    """Each arrow is Move.apply on the node's triple, then _carry of its first member.

    The vectorized carry equals :func:`_carry` on every arrow's input,
    fixed arrows included, at every d <= 32.
    """
    for d in range(2, 33):
        gs = [g for g in range(1, d) if d % g == 0]
        nodes = [(r * d * d + c2, g, c2) for r, g in enumerate(gs)
                 for c2 in range(d * d) if c2 not in (0, g)]
        for (label, src, dst), mv in zip(_row_moves(d), enumerator_moves(d, tables(d))):
            assert label == mv.label
            inputs, want = [], {}
            for node, g, c2 in nodes:
                try:
                    _, v1, v2 = mv.apply(GpmSet(d, ((0, 0), (0, g), divmod(c2, d)))).members
                except GuardFailed:
                    continue
                g2, c2_2, _ = _carry(d, v1, v2)
                inputs.append((v1, v2, g2, c2_2))
                if gs.index(g2) * d * d + c2_2 != node:
                    want[node] = gs.index(g2) * d * d + c2_2
            assert dict(zip(src.tolist(), dst.tolist())) == want, (d, label)
            x1, z1, x2, z2 = (np.array(c) for c in zip(*((*v1, *v2) for v1, v2, _, _ in inputs)))
            got = _carry_arrays(d, (x1, z1), (x2, z2))
            assert [a.tolist() for a in got] == [list(c) for c in zip(*(i[2:] for i in inputs))]


def test_pair_witnesses_replay() -> None:
    d = 12
    rep = enumerate_pairs(d, emit_witnesses=True)
    # the lexicographically last member pair of each class starts the trace
    last: dict[int, GpmSet] = {}
    for x in range(d):
        for z in range(d):
            S = GpmSet(d, ((0, 0), (x, z)))
            last[_pair_class(rep, S)] = S
    for ci, c in enumerate(rep.classes):
        assert c.witness is not None
        landed = apply_trace(last[ci], c.witness)
        assert tuple(sorted(landed.members)) == c.representative.members


def _pair_class(rep: Classification, S: GpmSet) -> int:
    """Index of the class whose orbit contains the pair S (by exhaustion)."""
    from gbsclass.pauli import invariant_vector

    key = invariant_vector(S).key()
    matches = [i for i, c in enumerate(rep.classes)
               if invariant_vector(c.representative).key() == key]
    assert len(matches) == 1
    return matches[0]


def test_witnesses_absent_by_default() -> None:
    rep = enumerate_triples(9)
    assert all(c.witness is None for c in rep.classes)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def test_json_round_trip_and_schema() -> None:
    rep = enumerate_triples(9)
    doc = json.loads(rep.to_json())
    assert doc == rep.to_json_dict()
    assert sorted(doc) == ["classes", "dimension", "expected_count",
                           "mode", "status"]
    one = doc["classes"][0]
    assert sorted(one) == ["invariants", "orbit_size", "representative",
                           "separation", "witness"]
    assert sorted(one["invariants"]) == ["I1_args", "I2", "I3", "powered"]


def test_csv_layout() -> None:
    out = enumerate_triples(9).to_csv()
    lines = out.strip().split("\n")
    assert lines[0] == "representative,I1,I2_3,I3_2,I3_2_pow3"
    assert len(lines) == 10


def test_text_header() -> None:
    out = enumerate_triples(9).to_text()
    assert out.startswith("triples d=9: 9 classes, expected 9, status VERIFIED")


def test_table_rows_headline_values() -> None:
    rep = enumerate_triples(9)
    rows = {r[0]: r[1:] for r in rep.table_rows()}
    i1, i2, i3, i3p = rows["0,0;0,1;1,0"]
    assert i1 == pytest.approx(11.229867, abs=1e-6)
    assert (i2, i3, i3p) == (3, 27, 33)
