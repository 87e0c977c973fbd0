"""Dense-matrix cross-checks for the exponent-level engine.

Everything in this module works with explicit d x d complex matrices and
deliberately avoids the exponent arithmetic used elsewhere: invariants are
evaluated from literal traces and commutator norms, conjugations are
checked entrywise, and maximally entangled states are built as explicit
d^2 vectors.  Agreement between this module and the exact engine is what
the test suite (and the ``verify`` CLI command) leans on.

Matrices are capped at ``MATRIX_CAP`` rows; everything here is O(d^3) or
worse and is meant for verification, not production runs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .pauli import (
    Gpm,
    GpmSet,
    InvariantVector,
    PoweredInvariants,
    default_probes,
    gpm_dagger,
    gpm_product,
    gpm_trace,
    invariant_vector,
)
from .residues import count_quadratic_check, prime_power

MATRIX_CAP = 64

TOL_EXACT = 1e-12
TOL_PHASE = 1e-9


class CapExceeded(ValueError):
    """The requested dimension is above the dense-matrix cap."""


def _check_cap(d: int) -> None:
    if d > MATRIX_CAP:
        # past 4300 digits Python refuses to print an int in decimal
        got = f"d={d}" if d < 10**18 else f"d >= 2^{d.bit_length() - 1}"
        raise CapExceeded(f"dense matrices capped at {MATRIX_CAP}, got {got}")
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")


def capped_prime_power(p: int, alpha: int) -> int:
    """p**alpha, refused past the cap before a power above 2^64 is formed."""
    if alpha > 64:
        # k <= log2 d: the float log2 p is within 2^-52 of it, inside the 2^-48 shrink
        k = alpha if p == 2 else alpha * Fraction(math.log2(p)) * (1 - Fraction(1, 2**48))
        raise CapExceeded(f"dense matrices capped at {MATRIX_CAP}, got d >= 2^{math.floor(k)}")
    _check_cap(p**alpha)
    return p**alpha


def build_gpm_matrix(g: Gpm) -> np.ndarray:
    """The unitary X^s Z^t as an explicit matrix.

    X is the cyclic shift sum_k |k+1><k| and Z the clock diag(w^k) with
    w = exp(2 pi i / d), so column k of the product carries w^(t k) in
    row (k + s) mod d.
    """
    _check_cap(g.d)
    d = g.d
    cols = np.arange(d)
    U = np.zeros((d, d), dtype=complex)
    U[(cols + g.s) % d, cols] = np.exp(2j * np.pi * g.t * cols / d)
    return U


def build_clifford(name: str, d: int, k: int | None = None) -> np.ndarray:
    """Explicit matrix for a Clifford generator.

    P is the diagonal quadratic-phase gate (w^(k(k-1)/2) entries for odd
    d, exp(i pi k^2 / d) for even d), R the discrete Fourier transform,
    Q(k) the index-scaling permutation |j> -> |j/k>, and V the word
    P P R P R P P.
    """
    _check_cap(d)
    j = np.arange(d)
    if name == "P":
        if d % 2:
            return np.diag(np.exp(2j * np.pi * (j * (j - 1) // 2) / d))
        return np.diag(np.exp(1j * np.pi * j * j / d))
    if name == "R":
        return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)
    if name == "V":
        P = build_clifford("P", d)
        R = build_clifford("R", d)
        return P @ P @ R @ P @ R @ P @ P
    if name == "Q":
        if k is None:
            raise ValueError("Q needs its scale parameter k")
        ki = pow(k, -1, d)
        U = np.zeros((d, d), dtype=complex)
        U[(ki * j) % d, j] = 1.0
        return U
    raise ValueError(f"unknown generator {name!r}")


def q_word_matrix(d: int, k: int) -> np.ndarray:
    """The scaling gate written as the word R P^(1/k) R P^k R P^(1/k)."""
    _check_cap(d)
    P = build_clifford("P", d)
    R = build_clifford("R", d)
    ki = pow(k, -1, d)
    Pk = np.linalg.matrix_power(P, k % d)
    Pki = np.linalg.matrix_power(P, ki)
    return R @ Pki @ R @ Pk @ R @ Pki


def build_w(p: int, alpha: int, s: int, t: int, k: int) -> np.ndarray:
    """The sublattice multiplier permutation on d = p**alpha levels.

    Writing n = j + c p**t with 0 <= j < p**t, the permutation sends n to
    (j + c (k p**(alpha-s) + p**t)) mod d.  It fixes Z^(p**s) and conjugates
    X^(p**t) to X^(k p**(alpha-s) + p**t); defined for s + t < alpha and
    1 <= k < p**s.
    """
    d = capped_prime_power(p, alpha)
    if alpha < 2 or s < 1 or t < 0 or s + t >= alpha or not 1 <= k < p**s:
        raise ValueError(f"bad sublattice context s={s} t={t} k={k} alpha={alpha}")
    n = np.arange(d)
    j, c = n % p**t, n // p**t
    rows = (j + c * (k * p ** (alpha - s) + p**t)) % d
    W = np.zeros((d, d), dtype=complex)
    W[rows, n] = 1.0
    return W


def is_unitary(U: np.ndarray, tol: float = TOL_EXACT) -> bool:
    d = U.shape[0]
    return bool(np.abs(U @ U.conj().T - np.eye(d)).max() <= tol)


def equal_up_to_phase(A: np.ndarray, B: np.ndarray,
                      tol: float = TOL_PHASE) -> tuple[bool, complex]:
    """Check A = phase * B entrywise; returns (ok, phase).

    The phase is read off at B's largest entry, so B must be nonzero.
    """
    idx = np.unravel_index(np.abs(B).argmax(), B.shape)
    if np.abs(B[idx]) <= tol:
        return bool(np.abs(A).max() <= tol), complex(0)
    phase = complex(A[idx] / B[idx])
    ok = abs(abs(phase) - 1.0) <= tol and bool(np.abs(A - phase * B).max() <= tol)
    return ok, phase


def verify_conjugation(U: np.ndarray, A: np.ndarray, B: np.ndarray,
                       tol: float = TOL_PHASE) -> tuple[bool, complex]:
    """Check U A U^dag = phase * B; returns (ok, phase)."""
    return equal_up_to_phase(U @ A @ U.conj().T, B, tol)


def gbs_vector(g: Gpm) -> np.ndarray:
    """The bipartite state (I (x) X^s Z^t) applied to sum_k |kk>/sqrt(d)."""
    U = build_gpm_matrix(g)
    d = g.d
    v = np.zeros(d * d, dtype=complex)
    for k in range(d):
        v[k * d : (k + 1) * d] = U[:, k]
    return v / np.sqrt(d)


def gbs_overlap(a: Gpm, b: Gpm) -> complex:
    """Inner product of two maximally entangled basis states, Tr(A^dag B)/d."""
    if a.d != b.d:
        raise ValueError(f"dimension mismatch {a.d} != {b.d}")
    A = build_gpm_matrix(a)
    B = build_gpm_matrix(b)
    return complex(np.trace(A.conj().T @ B) / a.d)


def _difference_stack(mats: list[np.ndarray]) -> np.ndarray:
    """All n^2 products M_i^dag M_j, flattened row-major in (i, j)."""
    n = len(mats)
    d = mats[0].shape[0]
    D = np.empty((n * n, d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            D[i * n + j] = mats[i].conj().T @ mats[j]
    return D


def _commutator_total(D: np.ndarray, d: int) -> float:
    AB = D[:, None] @ D[None, :]
    C = AB - AB.transpose(1, 0, 2, 3)
    return float(np.sum(np.abs(C) ** 2).real / d)


def _power_traces(D: np.ndarray, d: int) -> dict[int, float]:
    """a -> sum_n |Tr(D_n^a)| / d for a = 1 .. d-1."""
    out: dict[int, float] = {}
    P = D.copy()
    for a in range(1, d):
        if a > 1:
            P = P @ D
        out[a] = float(np.sum(np.abs(np.einsum("nii->n", P))) / d)
    return out


def _cross_traces(D: np.ndarray, a: int, d: int) -> np.ndarray:
    """Per n: sum_m |Tr(D_n^a D_m)|, with D_n^0 the identity."""
    T = np.einsum("nij,mji->nm", np.linalg.matrix_power(D, a % d), D)
    return np.abs(T).sum(axis=1)


def numeric_invariants(
    S: GpmSet,
    i3_probes: tuple[int, ...] | None = None,
    power_probes: tuple[int, ...] | None = None,
) -> dict:
    """Invariants of a Pauli set evaluated from dense matrices only.

    Returns the same numbers the exact engine produces, as floats:
    ``{"i1": float, "i2": {a: float}, "i3": {a: float},
    "powered": {t: {"i1": ..., "i2": ..., "i3": ...}}}``, with i2 probed
    at every a in 1..d-1 and i3 / powered probes defaulting to the
    dimension's standard probe lists.
    """
    d = S.d
    _check_cap(d)
    default_i3, default_pow = default_probes(d)
    i3_probes = default_i3 if i3_probes is None else i3_probes
    power_probes = default_pow if power_probes is None else power_probes

    mats = [build_gpm_matrix(Gpm(d, s, t)) for s, t in S.members]

    def block(ms: list[np.ndarray]) -> dict:
        D = _difference_stack(ms)
        i3 = {
            a: float(np.dot(_cross_traces(D, a, d), _cross_traces(D, 1 - a, d)) / d**2)
            for a in i3_probes
        }
        return {"i1": _commutator_total(D, d), "i2": _power_traces(D, d), "i3": i3}

    out = block(mats)
    out["powered"] = {
        t: block([np.linalg.matrix_power(M, t) for M in mats]) for t in power_probes
    }
    return out


def invariant_floats(iv: InvariantVector) -> dict:
    """The exact invariant vector flattened to the numeric layout."""
    def block(pb: PoweredInvariants) -> dict:
        return {
            "i1": pb.i1.value(),
            "i2": {a: float(v) for a, v in pb.i2.items()},
            "i3": {a: float(v) for a, v in pb.i3.items()},
        }

    return {**block(iv), "powered": {t: block(pb) for t, pb in iv.powered.items()}}


def compare_invariants(exact: dict, numeric: dict) -> float:
    """Largest absolute deviation between two invariant layouts."""
    worst = abs(exact["i1"] - numeric["i1"])
    for key in ("i2", "i3"):
        for a, v in exact[key].items():
            worst = max(worst, abs(v - numeric[key][a]))
    for t, pb in exact.get("powered", {}).items():
        worst = max(worst, compare_invariants(pb, numeric["powered"][t]))
    return worst


# ---------------------------------------------------------------------------
# Verification suites (used by the CLI `verify` command and the tests).
# ---------------------------------------------------------------------------


def check_pauli_algebra(d: int, rng: np.random.Generator | None = None,
                        tol: float = TOL_PHASE) -> bool:
    """Products, adjoints and traces of X^s Z^t against dense matrices."""
    if d <= 9:
        pairs = [
            (Gpm(d, s1, t1), Gpm(d, s2, t2))
            for s1 in range(d) for t1 in range(d)
            for s2 in range(d) for t2 in range(d)
        ]
    else:
        rng = rng or np.random.default_rng(0)
        pairs = [
            (Gpm(d, *rng.integers(0, d, 2)), Gpm(d, *rng.integers(0, d, 2)))
            for _ in range(200)
        ]
    for a, b in pairs:
        A, B = build_gpm_matrix(a), build_gpm_matrix(b)
        c, ph = gpm_product(a, b)
        if np.abs(A @ B - np.exp(2j * np.pi * ph / d) * build_gpm_matrix(c)).max() > tol:
            return False
        g, ph = gpm_dagger(a)
        if np.abs(A.conj().T - np.exp(2j * np.pi * ph / d) * build_gpm_matrix(g)).max() > tol:
            return False
        if abs(np.trace(A) - gpm_trace(a)) > tol:
            return False
    return True


def check_clifford_actions(d: int, tol: float = TOL_PHASE) -> bool:
    """P, R and the V word act on X and Z exactly as their 2x2 shadows say."""
    X = build_gpm_matrix(Gpm(d, 1, 0))
    Z = build_gpm_matrix(Gpm(d, 0, 1))
    XZ = build_gpm_matrix(Gpm(d, 1, 1))
    Xi = build_gpm_matrix(Gpm(d, d - 1, 0))
    for name, actions in (
        ("P", [(X, XZ), (Z, Z)]),
        ("R", [(X, Z), (Z, Xi)]),
        ("V", [(X, X), (Z, XZ)]),
    ):
        U = build_clifford(name, d)
        if not is_unitary(U, TOL_EXACT if name != "V" else tol):
            return False
        for A, B in actions:
            ok, _ = verify_conjugation(U, A, B, tol)
            if not ok:
                return False
    return True


def displacement_between(A: np.ndarray, B: np.ndarray,
                         tol: float = TOL_PHASE) -> tuple[int, int] | None:
    """Exponents (x, z) with A = phase * X^x Z^z B, or None.

    Two Cliffords inducing the same exponent map can only differ by a
    phase times a shift-and-clock factor, so a successful factorization
    certifies the pair act identically on every X^s Z^t up to phase.
    """
    d = A.shape[0]
    D = A @ B.conj().T
    r, c = np.unravel_index(np.argmax(np.abs(D)), D.shape)
    x = int(r - c) % d
    lead = D[(x + 0) % d, 0]
    if abs(lead) < tol:
        return None
    ratio = D[(x + 1) % d, 1] / lead
    z = int(round(d * (np.angle(ratio) / (2 * np.pi)))) % d
    ok, _ = equal_up_to_phase(D, build_gpm_matrix(Gpm(d, x, z)), tol)
    return (x, z) if ok else None


def check_scaling_words(d: int, tol: float = TOL_PHASE) -> bool:
    """The P/R word for the scaling gate acts as X -> X^(1/k), Z -> Z^k.

    Both routes are exercised for every invertible k: the index-scaling
    permutation must realize the transformation exactly, the word
    R P^(1/k) R P^k R P^(1/k) must realize it up to the phases the word
    accumulates, and the two must agree up to a phase times a
    shift-and-clock factor (the word generally carries such a factor:
    it induces the same exponent map but is not the bare permutation).
    """
    X = build_gpm_matrix(Gpm(d, 1, 0))
    Z = build_gpm_matrix(Gpm(d, 0, 1))
    for k in range(1, d):
        if np.gcd(k, d) != 1:
            continue
        Q = build_clifford("Q", d, k)
        ki = pow(k, -1, d)
        Xim = build_gpm_matrix(Gpm(d, ki, 0))
        Zim = build_gpm_matrix(Gpm(d, 0, k))
        ok, _ = verify_conjugation(Q, X, Xim, tol)
        ok2, _ = verify_conjugation(Q, Z, Zim, tol)
        word = q_word_matrix(d, k)
        ok3, _ = verify_conjugation(word, X, Xim, tol)
        ok4, _ = verify_conjugation(word, Z, Zim, tol)
        agree = displacement_between(word, Q, tol) is not None
        if not (ok and ok2 and ok3 and ok4 and agree and is_unitary(Q)):
            return False
    return True


def check_sublattice_moves(p: int, alpha: int, tol: float = TOL_PHASE) -> bool:
    """Every admissible W(s, t, k) is unitary, fixes Z^(p^s), scales X^(p^t)."""
    d = p**alpha
    for s in range(1, alpha):
        for t in range(0, alpha - s):
            for k in range(1, p**s):
                W = build_w(p, alpha, s, t, k)
                if not is_unitary(W):
                    return False
                Zs = build_gpm_matrix(Gpm(d, 0, p**s))
                ok, _ = verify_conjugation(W, Zs, Zs, tol)
                Xt = build_gpm_matrix(Gpm(d, p**t, 0))
                Xim = build_gpm_matrix(Gpm(d, k * p ** (alpha - s) + p**t, 0))
                ok2, _ = verify_conjugation(W, Xt, Xim, tol)
                if not (ok and ok2):
                    return False
    return True


def check_overlaps(d: int, samples: int = 200, tol: float = TOL_EXACT) -> bool:
    """Tr-based overlaps match explicit d^2-vector inner products."""
    rng = np.random.default_rng(17)
    for _ in range(samples):
        a = Gpm(d, *map(int, rng.integers(0, d, 2)))
        b = Gpm(d, *map(int, rng.integers(0, d, 2)))
        via_trace = gbs_overlap(a, b)
        via_vec = complex(np.vdot(gbs_vector(a), gbs_vector(b)))
        if abs(via_trace - via_vec) > tol:
            return False
        expected_mag = 1.0 if (a.s, a.t) == (b.s, b.t) else 0.0
        if abs(abs(via_trace) - expected_mag) > tol:
            return False
    return True


def check_invariant_agreement(d: int, samples: int = 25,
                              tol: float = TOL_PHASE) -> bool:
    """Exact invariant vectors agree with dense-trace evaluation."""
    rng = np.random.default_rng(23)
    sets = []
    for _ in range(samples):
        vecs = {(0, 0)}
        while len(vecs) < 3:
            vecs.add((int(rng.integers(0, d)), int(rng.integers(0, d))))
        sets.append(GpmSet(d, tuple(sorted(vecs))))
    for S in sets:
        exact = invariant_floats(invariant_vector(S))
        if compare_invariants(exact, numeric_invariants(S)) > tol:
            return False
    return True


def verification_suite(d: int) -> list[tuple[str, bool]]:
    """Named pass/fail results for every dense-matrix check available at d."""
    _check_cap(d)
    results = [
        ("pauli algebra", check_pauli_algebra(d)),
        ("clifford actions", check_clifford_actions(d)),
        ("scaling words", check_scaling_words(d)),
        ("state overlaps", check_overlaps(d)),
        ("invariant agreement", check_invariant_agreement(d)),
    ]
    pa = prime_power(d)
    if pa is not None:
        p, alpha = pa
        if alpha >= 2:
            results.insert(3, ("sublattice moves", check_sublattice_moves(p, alpha)))
        results.append(("self-inverse residue count", count_quadratic_check(p, alpha)))
    return results
