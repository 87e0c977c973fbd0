"""Dense-matrix verification layer.

These tests pin the matrix conventions (shift/clock/Fourier) and exercise
the stand-alone checks the `verify` command is built from.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from gbsclass.oracle import (
    MATRIX_CAP,
    TOL_PHASE,
    CapExceeded,
    build_clifford,
    build_gpm_matrix,
    build_w,
    capped_prime_power,
    check_clifford_actions,
    check_invariant_agreement,
    check_overlaps,
    check_pauli_algebra,
    check_scaling_words,
    check_sublattice_moves,
    compare_invariants,
    displacement_between,
    equal_up_to_phase,
    gbs_overlap,
    gbs_vector,
    invariant_floats,
    is_unitary,
    numeric_invariants,
    q_word_matrix,
    verification_suite,
    verify_conjugation,
)
from gbsclass.pauli import Gpm, GpmSet, gpm_trace, invariant_vector


def test_shift_and_clock_conventions() -> None:
    X = build_gpm_matrix(Gpm(3, 1, 0))
    Z = build_gpm_matrix(Gpm(3, 0, 1))
    e0 = np.zeros(3)
    e0[0] = 1
    assert np.allclose(X @ e0, [0, 1, 0])
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(np.diag(Z), [1, w, w * w])
    assert np.allclose(build_gpm_matrix(Gpm(3, 1, 1)), X @ Z)


def test_gpm_matrix_trace_matches_exact_rule() -> None:
    for d in (2, 5, 6):
        for x in range(d):
            for z in range(d):
                g = Gpm(d, x, z)
                assert np.trace(build_gpm_matrix(g)) == pytest.approx(
                    gpm_trace(g), abs=1e-12
                )


def test_generators_are_unitary() -> None:
    for d in (2, 3, 4, 7, 9, 12):
        for name in ("P", "R", "V"):
            assert is_unitary(build_clifford(name, d), tol=1e-12)
        for k in range(2, d):
            if np.gcd(k, d) == 1:
                assert is_unitary(build_clifford("Q", d, k), tol=1e-12)


def test_q_needs_k() -> None:
    with pytest.raises(ValueError):
        build_clifford("Q", 5)
    with pytest.raises(ValueError):
        build_clifford("B", 5)


def test_equal_up_to_phase() -> None:
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ok, phase = equal_up_to_phase(np.exp(0.3j) * A, A)
    assert ok and phase == pytest.approx(np.exp(0.3j))
    ok, _ = equal_up_to_phase(A + 1e-3, A)
    assert not ok


def test_conjugation_examples() -> None:
    """R maps X to Z and P shears Z onto X."""
    for d in (3, 4, 5, 8):
        R = build_clifford("R", d)
        P = build_clifford("P", d)
        X = build_gpm_matrix(Gpm(d, 1, 0))
        Z = build_gpm_matrix(Gpm(d, 0, 1))
        ok, _ = verify_conjugation(R, X, Z)
        assert ok
        ok, _ = verify_conjugation(P, X, build_gpm_matrix(Gpm(d, 1, 1)))
        assert ok
        ok, _ = verify_conjugation(P, Z, Z)
        assert ok


def test_clifford_action_sweep() -> None:
    for d in range(2, 11):
        assert check_clifford_actions(d)


def test_pauli_algebra_check() -> None:
    rng = np.random.default_rng(11)
    for d in (2, 5, 9, 12):
        assert check_pauli_algebra(d, rng=rng)


def test_scaling_word_factorizes_into_displacement() -> None:
    """The three-Fourier word equals the scaling permutation only after
    splitting off a Pauli displacement; both act identically on exponents."""
    word = q_word_matrix(5, 2)
    Q = build_clifford("Q", 5, 2)
    assert displacement_between(word, Q) == (1, 3)
    assert displacement_between(Q, Q) == (0, 0)
    shifted = build_gpm_matrix(Gpm(5, 2, 3)) @ Q
    assert displacement_between(shifted, Q) == (2, 3)


def test_displacement_between_rejects_mismatch() -> None:
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert displacement_between(A, np.eye(5)) is None


def test_scaling_words_sweep() -> None:
    for d in range(2, 13):
        assert check_scaling_words(d)


def test_w_permutation_fixes_and_shears() -> None:
    # d = 27, s = 1, t = 1, k = 1: Z^3 is fixed, X^3 gains a factor X^9
    W = build_w(3, 3, 1, 1, 1)
    assert is_unitary(W, tol=1e-12)
    Z3 = build_gpm_matrix(Gpm(27, 0, 3))
    X3 = build_gpm_matrix(Gpm(27, 3, 0))
    ok, _ = verify_conjugation(W, Z3, Z3)
    assert ok
    ok, _ = verify_conjugation(W, X3, build_gpm_matrix(Gpm(27, 12, 0)))
    assert ok


def test_w_rejects_bad_context() -> None:
    with pytest.raises(ValueError):
        build_w(3, 2, 0, 1, 1)  # s must be >= 1
    with pytest.raises(ValueError):
        build_w(3, 2, 1, 1, 1)  # s + t must stay below alpha
    with pytest.raises(ValueError):
        build_w(3, 3, 1, 1, 5)  # k < p**s


def test_sublattice_sweeps() -> None:
    assert check_sublattice_moves(2, 3)
    assert check_sublattice_moves(3, 2)


def test_gbs_vector_is_normalized() -> None:
    for d in (2, 5, 8):
        for g in (Gpm(d, 0, 0), Gpm(d, 1, d - 1)):
            assert np.linalg.norm(gbs_vector(g)) == pytest.approx(1.0)


def test_gbs_overlap_orthonormal_basis() -> None:
    d = 4
    for s1 in range(d):
        for t1 in range(d):
            ov = gbs_overlap(Gpm(d, s1, t1), Gpm(d, 0, 0))
            expect = 1.0 if (s1, t1) == (0, 0) else 0.0
            assert abs(ov) == pytest.approx(expect, abs=1e-12)


def test_overlap_trace_identity() -> None:
    assert check_overlaps(4)
    assert check_overlaps(6, samples=50)


def test_numeric_matches_exact_invariants_spot() -> None:
    for text, d in (("0,0;0,1;1,0", 9), ("0,0;0,1;4,2", 8), ("0,0;0,2;3,1", 6)):
        S = GpmSet.from_text(text, d)
        exact = invariant_floats(invariant_vector(S))
        numeric = numeric_invariants(S)
        assert compare_invariants(exact, numeric) <= TOL_PHASE


def test_invariant_agreement_sampler() -> None:
    assert check_invariant_agreement(6, samples=10)
    assert check_invariant_agreement(10, samples=10)


def test_matrix_cap_enforced() -> None:
    assert MATRIX_CAP == 64
    with pytest.raises(CapExceeded):
        build_gpm_matrix(Gpm(65, 1, 0))
    with pytest.raises(CapExceeded):
        build_clifford("R", 100)
    with pytest.raises(CapExceeded):
        q_word_matrix(65, 2)


def test_capped_prime_power_names_the_exact_bound() -> None:
    """Past alpha = 64 the refusal still names floor(log2 d), unformed."""
    assert capped_prime_power(2, 6) == 64
    for p, alpha in ((2, 7), (3, 40), (2, 65), (3, 65), (7, 1000), (997, 333), (3, 99999)):
        bits = (p**alpha).bit_length() - 1
        got = f"d={p**alpha}" if p**alpha < 10**18 else f"d >= 2^{bits}"
        with pytest.raises(CapExceeded, match=re.escape(f"capped at 64, got {got}") + "$"):
            capped_prime_power(p, alpha)


def test_verification_suite_passes() -> None:
    for d in (6, 7, 9):
        results = verification_suite(d)
        assert all(ok for _, ok in results), results


def test_verification_suite_composition() -> None:
    base = ["pauli algebra", "clifford actions", "scaling words",
            "state overlaps", "invariant agreement"]
    assert [n for n, _ in verification_suite(6)] == base
    assert [n for n, _ in verification_suite(7)] == base + [
        "self-inverse residue count"
    ]
    names9 = [n for n, _ in verification_suite(9)]
    assert "sublattice moves" in names9
    assert names9.index("sublattice moves") == 3
