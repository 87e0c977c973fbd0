"""Modular arithmetic helpers for exponent bookkeeping.

Everything here works with plain ints understood as residues mod some
modulus that is passed explicitly.  The bracket classes implemented by
:func:`bracket_class` drive the canonical labelling of commuting-set and
shear-set orbits; :func:`solve_self_inverse` counts fixed points of the
involution x -> 1 - 1/x, which controls when a bracket class collapses.
"""

from __future__ import annotations

from dataclasses import dataclass

FACTOR_CAP = 10**6

BRACKET = "bracket"
DOUBLE = "double"


class OutOfRange(ValueError):
    """Argument falls outside the documented domain."""


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as (prime, multiplicity) pairs.

    Domain is 2 <= n <= 10**6, which comfortably covers every dimension
    this package enumerates.
    """
    if n < 2 or n > FACTOR_CAP:
        raise OutOfRange(f"factorize expects 2 <= n <= {FACTOR_CAP}, got {n}")
    out: list[tuple[int, int]] = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def prime_power(d: int) -> tuple[int, int] | None:
    """Return (p, alpha) if d == p**alpha for a prime p, else None."""
    fac = factorize(d)
    if len(fac) == 1:
        return fac[0]
    return None


@dataclass(frozen=True)
class BracketClass:
    """One orbit of residues under the rational maps defining [x] / [[x]]."""

    kind: str
    modulus: int
    members: tuple[int, ...]

    @property
    def canonical(self) -> int:
        return self.members[0]


def _maybe(vals: list[int], v: int | None) -> None:
    if v is not None:
        vals.append(v)


def _try_inv(x: int, d: int) -> int | None:
    try:
        return pow(x, -1, d)
    except ValueError:
        return None


def bracket_class(x: int, d: int, kind: str = BRACKET) -> BracketClass:
    """Bracket class of x mod d.

    For kind="bracket" the members are the defined values among

        x,  1/x,  1-x,  1/(1-x),  1 - 1/x,  x/(x-1),

    and for kind="double" the defined values among

        x,  1 - 1/x,  1/(1-x).

    Values whose inverse does not exist mod d are simply omitted; every
    member that does appear lies in 2..d-1.  Two residues in 2..d-1 are
    in the same class exactly when their member tuples coincide, so the
    classes partition that range.
    """
    if d < 3:
        raise OutOfRange(f"bracket classes need a modulus >= 3, got {d}")
    if not 2 <= x <= d - 1:
        raise OutOfRange(f"bracket classes are defined for 2 <= x <= d-1, got x={x}")
    if kind not in (BRACKET, DOUBLE):
        raise OutOfRange(f"unknown bracket kind {kind!r}")
    xi = _try_inv(x, d)
    omi = _try_inv(1 - x, d)
    vals: list[int] = [x]
    if kind == BRACKET:
        _maybe(vals, xi)
        vals.append((1 - x) % d)
        _maybe(vals, omi)
        if xi is not None:
            vals.append((1 - xi) % d)
        if omi is not None:
            # x/(x-1) = -x * (1-x)^-1
            vals.append((-x * omi) % d)
    else:
        if xi is not None:
            vals.append((1 - xi) % d)
        _maybe(vals, omi)
    members = tuple(sorted(set(vals)))
    return BracketClass(kind=kind, modulus=d, members=members)


def bracket_partition(d: int, kind: str = BRACKET) -> list[tuple[int, ...]]:
    """All distinct bracket classes over 2..d-1, sorted by smallest member."""
    seen: dict[tuple[int, ...], None] = {}
    for x in range(2, d):
        seen.setdefault(bracket_class(x, d, kind).members, None)
    return sorted(seen.keys(), key=min)


def solve_self_inverse(p: int, alpha: int) -> set[int]:
    """All residues with x = 1 - 1/x mod p**alpha, by brute force.

    Equivalently the roots of x**2 - x + 1.  Solutions are automatically
    units, so the brute scan over the full residue ring is exact.
    """
    if alpha < 1:
        raise OutOfRange(f"alpha must be >= 1, got {alpha}")
    m = p**alpha
    if m > FACTOR_CAP:
        raise OutOfRange(f"modulus {m} exceeds the search cap {FACTOR_CAP}")
    return {x for x in range(m) if (x * x - x + 1) % m == 0}


def count_quadratic_check(p: int, alpha: int) -> bool:
    """Cross-check the brute-force root count against the residue criterion.

    Completing the square turns x**2 - x + 1 = 0 into (2x-1)**2 = -3, so
    for p not in {2, 3} there are exactly two roots when -3 is a square
    mod p (i.e. p = 1 mod 6) and none otherwise; the modulus 3 itself has
    the single degenerate root 2, and higher powers of 3, all powers of
    2, and p = 5 mod 6 have none.
    """
    found = len(solve_self_inverse(p, alpha))
    if p == 3:
        expected = 1 if alpha == 1 else 0
    elif p == 2:
        expected = 0
    else:
        expected = 2 if p % 6 == 1 else 0
    return found == expected
