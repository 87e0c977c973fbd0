"""Generalized Pauli operators as exponent pairs, and the exact set invariants.

A generalized Pauli matrix on a d-level system is X**s Z**t for shift X
and clock Z; projectively it is just the pair (s, t) of exponents mod d.
Products, adjoints, traces and the three local-unitary invariants used by
the classifier all reduce to integer arithmetic on those pairs:

* the commutator magnitude of two Paulis depends only on the symplectic
  form of their exponent vectors, which turns the first invariant into a
  multiset of cosine arguments;
* a power of a Pauli scales its exponent vector, so trace conditions
  become divisibility counts.

Nothing in this module touches matrices; the dense cross-check lives in
:mod:`gbsclass.oracle`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .residues import factorize

Vec = tuple[int, int]


class DimensionMismatch(ValueError):
    """Operands live in different dimensions."""


class PowerOutOfRange(ValueError):
    """Probe exponent outside the open interval (0, d)."""


@dataclass(frozen=True)
class Gpm:
    """One generalized Pauli X**s Z**t on a d-level system (exponents mod d)."""

    d: int
    s: int
    t: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise DimensionMismatch(f"dimension must be >= 2, got {self.d}")
        object.__setattr__(self, "s", self.s % self.d)
        object.__setattr__(self, "t", self.t % self.d)

    @property
    def vec(self) -> Vec:
        return (self.s, self.t)


def gpm_product(a: Gpm, b: Gpm) -> tuple[Gpm, int]:
    """Product of two Paulis: the resulting Pauli and the phase exponent.

    (X**s1 Z**t1)(X**s2 Z**t2) = w**(t1*s2) X**(s1+s2) Z**(t1+t2)
    with w = exp(2 pi i / d); the returned int is the exponent of w.
    """
    if a.d != b.d:
        raise DimensionMismatch(f"cannot multiply mod {a.d} by mod {b.d}")
    d = a.d
    return Gpm(d, a.s + b.s, a.t + b.t), (a.t * b.s) % d


def gpm_dagger(a: Gpm) -> tuple[Gpm, int]:
    """Adjoint of a Pauli: (X**s Z**t)^+ = w**(s*t) X**(-s) Z**(-t)."""
    return Gpm(a.d, -a.s, -a.t), (a.s * a.t) % a.d


def gpm_trace(a: Gpm) -> int:
    """Exact trace of a Pauli: d for the identity, 0 otherwise."""
    return a.d if a.s == 0 and a.t == 0 else 0


@dataclass(frozen=True)
class GpmSet:
    """A finite list of Paulis of one dimension, kept as exponent pairs.

    ``members`` is ordered and may contain repeats (powering a set can
    collapse members); the classifier's normalized sets are produced via
    :meth:`from_text` / :meth:`normalized`, which sort and require
    distinct members with the identity present conventionally first.
    """

    d: int
    members: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if self.d < 2:
            raise DimensionMismatch(f"dimension must be >= 2, got {self.d}")
        if len(self.members) < 2:
            raise ValueError("a Pauli set needs at least two members")
        object.__setattr__(
            self, "members", tuple((s % self.d, t % self.d) for s, t in self.members)
        )

    @classmethod
    def from_text(cls, text: str, d: int) -> "GpmSet":
        """Parse ``"s,t;s,t;..."`` (whitespace anywhere is ignored)."""
        compact = "".join(text.split())
        if not compact:
            raise ValueError("empty set literal")
        members: list[Vec] = []
        for chunk in compact.split(";"):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise ValueError(f"bad member {chunk!r}, expected 's,t'")
            try:
                s, t = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"bad member {chunk!r}: {exc}") from None
            members.append((s, t))
        return cls(d, tuple(members)).normalized()

    def to_text(self) -> str:
        return ";".join(f"{s},{t}" for s, t in self.members)

    def normalized(self) -> "GpmSet":
        """Sorted members; requires distinctness and at least two members."""
        ms = tuple(sorted(self.members))
        if len(set(ms)) != len(ms):
            raise ValueError("set members must be distinct")
        return GpmSet(self.d, ms)

    def translated(self, v: Vec) -> "GpmSet":
        return GpmSet(self.d, tuple(((s + v[0]) % self.d, (t + v[1]) % self.d)
                                    for s, t in self.members))


def _flat_diffs(S: GpmSet) -> list[Vec]:
    d = S.d
    ms = S.members
    return [((sj - si) % d, (tj - ti) % d) for si, ti in ms for sj, tj in ms]


@dataclass(frozen=True)
class CosFingerprint:
    """Exact form of the commutator invariant: a multiset of cosine arguments.

    Each ordered pair of difference vectors a, b contributes the argument
    (a2*b1 - a1*b2) mod d, folded to min(m, d-m) since the cosine is even;
    the numeric invariant is ``sum(2 - 2 cos(2 pi m / d))`` over the
    multiset.  Within one dimension the folded multiset determines the
    value exactly and equality of fingerprints is decidable in integers.
    """

    d: int
    args: tuple[int, ...]

    def value(self) -> float:
        d = self.d
        return float(sum(2.0 - 2.0 * math.cos(2.0 * math.pi * m / d) for m in self.args))


def invariant1(S: GpmSet) -> CosFingerprint:
    """Commutator invariant of the set, in exact fingerprint form."""
    d = S.d
    diffs = _flat_diffs(S)
    args = sorted(
        min(m, d - m)
        for a in diffs
        for b in diffs
        for m in [(a[1] * b[0] - a[0] * b[1]) % d]
    )
    return CosFingerprint(d=d, args=tuple(args))


def _check_probe(a: int, d: int) -> None:
    if not 0 < a < d:
        raise PowerOutOfRange(f"probe must satisfy 0 < a < {d}, got {a}")


def invariant2(S: GpmSet, a: int) -> int:
    """Power-trace invariant: how many ordered pairs (i, j) have (M_i^+ M_j)^a
    proportional to the identity, i.e. a * v_ij = 0 mod d."""
    _check_probe(a, S.d)
    d = S.d
    return sum(1 for v in _flat_diffs(S) if (a * v[0]) % d == 0 and (a * v[1]) % d == 0)


def invariant3(S: GpmSet, a: int) -> int:
    """Cross-trace invariant with split exponents a and 1-a.

    Counts ordered index tuples (i,j,u,v,w,l) where a*v_ij + v_uv and
    (1-a)*v_ij + v_wl both vanish mod d; each such tuple contributes a
    unit modulus, so the sum is an integer and is computed as one.
    """
    _check_probe(a, S.d)
    d = S.d
    diffs = _flat_diffs(S)
    cnt = Counter(diffs)
    total = 0
    for v in diffs:
        left = ((-a * v[0]) % d, (-a * v[1]) % d)
        right = (((a - 1) * v[0]) % d, ((a - 1) * v[1]) % d)
        total += cnt[left] * cnt[right]
    return total


def powered_set(S: GpmSet, t: int) -> GpmSet:
    """Member-wise t-th power: exponent vectors scale by t; repeats kept."""
    _check_probe(t, S.d)
    d = S.d
    return GpmSet(d, tuple(((t * s) % d, (t * tt) % d) for s, tt in S.members))


def default_probes(d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Default probe exponents (i3 probes, power probes) for dimension d.

    Built from the smallest prime factor p of d and its multiplicity a:
    i3 probes {2, p, d // p} and powers {p, p**(a-1)}, clipped to the
    open interval (0, d).
    """
    p, alpha = factorize(d)[0]
    i3 = tuple(sorted({a for a in (2, p, d // p) if 0 < a < d}))
    powers = tuple(sorted({t for t in (p, p ** (alpha - 1)) if 0 < t < d}))
    if not i3:
        i3 = (1,)
    if not powers:
        powers = (1,)
    return i3, powers


@dataclass(frozen=True)
class PoweredInvariants:
    i1: CosFingerprint
    i2: dict[int, int] = field(hash=False)
    i3: dict[int, int] = field(hash=False)

    def key(self) -> tuple:
        return (
            self.i1.args,
            tuple(sorted(self.i2.items())),
            tuple(sorted(self.i3.items())),
        )


@dataclass(frozen=True)
class InvariantVector:
    """Everything the separator compares: base and powered-set invariants."""

    i1: CosFingerprint
    i2: dict[int, int] = field(hash=False)
    i3: dict[int, int] = field(hash=False)
    powered: dict[int, PoweredInvariants] = field(hash=False)

    def key(self) -> tuple:
        return (
            self.i1.args,
            tuple(sorted(self.i2.items())),
            tuple(sorted(self.i3.items())),
            tuple((t, pe.key()) for t, pe in sorted(self.powered.items())),
        )


def invariant_vector(
    S: GpmSet,
    i3_probes: Sequence[int] | None = None,
    power_probes: Sequence[int] | None = None,
) -> InvariantVector:
    """Assemble the full invariant fingerprint of a set.

    i2 is evaluated at every a in 1..d-1; i3 at the given probes (default
    per :func:`default_probes`); each power probe t contributes the
    invariants of the powered set.
    """
    d = S.d
    auto_i3, auto_pow = default_probes(d)
    i3p: Iterable[int] = i3_probes if i3_probes is not None else auto_i3
    powp: Iterable[int] = power_probes if power_probes is not None else auto_pow
    i3p = tuple(i3p)
    powp = tuple(powp)
    i2 = {a: invariant2(S, a) for a in range(1, d)}
    i3 = {a: invariant3(S, a) for a in i3p}
    powered: dict[int, PoweredInvariants] = {}
    for t in powp:
        St = powered_set(S, t)
        powered[t] = PoweredInvariants(
            i1=invariant1(St),
            i2={a: invariant2(St, a) for a in range(1, d)},
            i3={a: invariant3(St, a) for a in i3p},
        )
    return InvariantVector(i1=invariant1(S), i2=i2, i3=i3, powered=powered)
