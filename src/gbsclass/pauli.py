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

One numpy kernel, :func:`invariant_table`, computes all three invariants
of a set and of its powered sets at once: it builds the difference
vectors once and scales them by every power.  The powered set t*S has
I2 and I3 counts that depend on t only through m = d / gcd(t, d), since
t*u = 0 mod d exactly when u = 0 mod m; so those counts are computed once
per distinct m, working mod m.  :func:`invariant1`, :func:`invariant2`,
:func:`invariant3` and :func:`invariant_vector` are views of the kernel,
and every value they return is a Python int.

Nothing in this module touches matrices; the dense cross-check lives in
:mod:`gbsclass.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import CapExceeded
from .residues import factorize

Vec = tuple[int, int]

MAX_I2_ENTRIES = 3 * 10**6
"""Most I2 entries :func:`invariant_vector` builds: (d - 1) per block, one
block for the set and one per power.  d = 10**6 with the default probes
needs 3 * (d - 1)."""

_QUERY_CHUNK = 1 << 16
"""Most count lookups :func:`invariant_table` makes at once; it bounds the
I3 temporaries whatever the number of shifts."""


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


def check_probe(a: int, d: int) -> None:
    """Refuse a power or shift probe outside (0, d) with PowerOutOfRange."""
    if not 0 < a < d:
        raise PowerOutOfRange(f"probe must satisfy 0 < a < {d}, got {a}")


InvariantRow = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
"""One powered set's invariants: sorted folded I1 arguments, I2 at
a = 1..d-1, and I3 at each requested shift."""


def _counts(diffs: np.ndarray, moduli: np.ndarray, d: int,
            shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I2 at a = 1..d-1 and I3 at every shift, one row per modulus m.

    ``diffs`` are the difference vectors u of S; row k serves every
    powered set t*S with d / gcd(t, d) = m = moduli[k].  Its differences
    are t*u, and t*y = 0 mod d exactly when y = 0 mod m.  So I2(a) counts
    the u with a*u = 0 mod m, the u whose order m / gcd(u, m) divides a;
    as that order divides d, I2(a) depends on gcd(a, d) only and is
    evaluated once per divisor.  I3(a) sums, over u, the number of
    differences = -a*u mod m times the number = (a-1)*u mod m.
    """
    m = moduli[:, None]
    x, z = diffs[:, 0] % m, diffs[:, 1] % m
    order = m // np.gcd(np.gcd(x, z), m)
    divisors = np.flatnonzero(d % np.arange(1, d) == 0) + 1
    i2 = np.zeros((moduli.shape[0], d), dtype=np.int64)
    i2[:, divisors] = np.count_nonzero(divisors[:, None] % order[:, None, :] == 0, axis=2)
    # a difference is coded x*m + z, in its own range of d*d codes per modulus
    offset = np.arange(moduli.shape[0])[:, None] * d * d
    ranked = np.sort((x * m + z + offset).ravel())
    m, offset, x, z = m[:, None], offset[:, None], x[:, None], z[:, None]
    step = max(1, _QUERY_CHUNK // (2 * ranked.shape[0]))
    i3 = [np.zeros((moduli.shape[0], 0), dtype=np.int64)]
    for lo in range(0, shifts.shape[0], step):
        a = shifts[lo:lo + step]
        c = np.concatenate([-a, a - 1])[:, None]
        query = (c * x) % m * m + (c * z) % m + offset
        n = (np.searchsorted(ranked, query, side="right")
             - np.searchsorted(ranked, query, side="left"))
        i3.append((n[:, :a.shape[0]] * n[:, a.shape[0]:]).sum(axis=2))
    return i2[:, np.gcd(np.arange(1, d), d)], np.concatenate(i3, axis=1)


def invariant_table(
    S: GpmSet, powers: Sequence[int], shifts: Sequence[int]
) -> list[InvariantRow]:
    """The exact invariants of every powered set t*S, t in ``powers``.

    Row k belongs to ``powers[k]`` (t = 1 is S itself) and holds the
    sorted folded I1 arguments, the I2 count at every a in 1..d-1 and the
    I3 count at every shift, all as Python ints.  Bad powers or shifts
    raise PowerOutOfRange, shifts checked first.
    """
    d = S.d
    for a in (*shifts, *powers):
        check_probe(a, d)
    if not powers:
        return []
    members = np.array(S.members, dtype=np.int64)
    # ordered pairs (i, j) in row-major order give the difference v_j - v_i
    diffs = ((members[None, :, :] - members[:, None, :]) % d).reshape(-1, 2)
    x, z = diffs[:, 0], diffs[:, 1]
    form = ((z[:, None] * x - x[:, None] * z) % d).ravel()
    t = np.array(powers, dtype=np.int64)
    args = (t * t % d)[:, None] * form % d
    args = np.sort(np.minimum(args, d - args), axis=1)
    # the I2 and I3 counts of t*S depend on t only through d / gcd(t, d)
    moduli = [d // math.gcd(p, d) for p in powers]
    distinct = sorted(set(moduli))
    i2, i3 = _counts(diffs, np.array(distinct, dtype=np.int64), d,
                     np.array(shifts, dtype=np.int64))
    counts = dict(zip(distinct, zip(map(tuple, i2.tolist()), map(tuple, i3.tolist()))))
    return [(tuple(row), *counts[m]) for row, m in zip(args.tolist(), moduli)]


def invariant1(S: GpmSet) -> CosFingerprint:
    """Commutator invariant of the set, in exact fingerprint form."""
    return CosFingerprint(d=S.d, args=invariant_table(S, (1,), ())[0][0])


def invariant2(S: GpmSet, a: int) -> int:
    """Power-trace invariant: how many ordered pairs (i, j) have (M_i^+ M_j)^a
    proportional to the identity, i.e. a * v_ij = 0 mod d."""
    check_probe(a, S.d)
    return invariant_table(S, (1,), ())[0][1][a - 1]


def invariant3(S: GpmSet, a: int) -> int:
    """Cross-trace invariant with split exponents a and 1-a.

    Counts ordered index tuples (i,j,u,v,w,l) where a*v_ij + v_uv and
    (1-a)*v_ij + v_wl both vanish mod d; each such tuple contributes a
    unit modulus, so the sum is an integer and is computed as one.
    """
    return invariant_table(S, (1,), (a,))[0][2][0]


def powered_set(S: GpmSet, t: int) -> GpmSet:
    """Member-wise t-th power: exponent vectors scale by t; repeats kept."""
    check_probe(t, S.d)
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
    return i3, powers


@dataclass(frozen=True)
class PoweredInvariants:
    """The three invariants of one set: I1, I2 at every a, I3 at each probe."""

    i1: CosFingerprint
    i2: dict[int, int] = field(hash=False)
    i3: dict[int, int] = field(hash=False)

    def key(self) -> tuple:
        return (
            self.i1.args,
            tuple(sorted(self.i2.items())),
            tuple(sorted(self.i3.items())),
        )

    def to_dict(self) -> dict:
        """The JSON block: I1 arguments, and I2 and I3 keyed by probe."""
        return {
            "I1_args": list(self.i1.args),
            "I2": {str(a): v for a, v in sorted(self.i2.items())},
            "I3": {str(a): v for a, v in sorted(self.i3.items())},
        }


@dataclass(frozen=True)
class InvariantVector(PoweredInvariants):
    """Everything the separator compares: base and powered-set invariants."""

    powered: dict[int, PoweredInvariants] = field(hash=False)

    def key(self) -> tuple:
        return (*super().key(),
                tuple((t, pe.key()) for t, pe in sorted(self.powered.items())))

    def to_dict(self) -> dict:
        """The base block plus one block per power, keyed by the power."""
        return {**super().to_dict(),
                "powered": {str(t): pe.to_dict() for t, pe in sorted(self.powered.items())}}


def invariant_vector(
    S: GpmSet,
    i3_probes: Sequence[int] | None = None,
    power_probes: Sequence[int] | None = None,
) -> InvariantVector:
    """Assemble the full invariant fingerprint of a set.

    i2 is evaluated at every a in 1..d-1; i3 at the given probes (default
    per :func:`default_probes`); each power probe t contributes the
    invariants of the powered set.  Raises CapExceeded, before any
    other work, when the i2 tables would exceed MAX_I2_ENTRIES; default
    power probes are counted as two, the most :func:`default_probes`
    gives.
    """
    d = S.d
    blocks = 1 + (2 if power_probes is None else len(power_probes))
    if (d - 1) * blocks > MAX_I2_ENTRIES:
        raise CapExceeded(
            f"{blocks} I2 tables of {d - 1} entries exceed the cap of "
            f"{MAX_I2_ENTRIES} entries")
    if i3_probes is None or power_probes is None:  # default_probes factorizes d
        auto_i3, auto_pow = default_probes(d)
    i3p = tuple(auto_i3 if i3_probes is None else i3_probes)
    powp = tuple(auto_pow if power_probes is None else power_probes)
    rows = invariant_table(S, (1, *powp), i3p)
    keys = list(range(1, d))  # one int object per a, shared by every block

    def block(row: InvariantRow) -> PoweredInvariants:
        args, i2, i3 = row
        return PoweredInvariants(CosFingerprint(d, args), dict(zip(keys, i2)),
                                 dict(zip(i3p, i3)))

    base = block(rows[0])
    return InvariantVector(
        i1=base.i1, i2=base.i2, i3=base.i3,
        powered={t: block(row) for t, row in zip(powp, rows[1:])},
    )
