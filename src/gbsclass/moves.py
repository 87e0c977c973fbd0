"""Equivalence moves on Pauli exponent sets, each defined once.

Every move here is (the exponent-level shadow of) a unitary that maps one
Pauli set to another inside the same local-unitary class:

* the Clifford generators P (shear), R (rotation), V (transposed shear)
  and Q(k) (scaling), which act on every exponent vector by a
  determinant-one 2x2 matrix mod d;
* pivots PIVOT(j) -- translation by the inverse of member j, which moves
  that member onto the identity;
* the sublattice multiplier move W(s, t, k) -- a permutation unitary that
  exists on prime-power dimensions, fixes Z^(p^s), and multiplies the
  X-exponent of every member of the sublattice {x = 0 mod p^t,
  z = 0 mod p^s} by k*p^(alpha-s-t) + 1;
* the tensor-split rewrite RULE(x3-split) of the chain triples
  {I, Z^(p^v), X^x} with v + vp(x) >= alpha, which reduces the unit in
  front of the X-part to 1.

The enumerator evaluates the Clifford generators P and R, PIVOT(1), and
the moves that can join Clifford orbits: W(s, t, 1) for every sublattice
with t >= 1, and the split rule.  W(s, 0, k) is left out: on its lattice
z = 0 mod p^s it multiplies x by u = k*p^(alpha-s) + 1 = 1 mod
p^(alpha-s), so there it equals the Clifford Q(u^-1), a word in P and R.
The other moves (V, Q(k), PIVOT(j) and W(s, t, k) for every t and k)
stay available to witness replay and to the tests.

A move is an exponent map plus its guard.  Both are written once, with
arithmetic that gives the same result on plain ints and on numpy arrays:
``+ - * %``, comparisons, ``&`` and lookups in the per-dimension
:class:`Tables`.  The witness graph in :mod:`gbsclass.classify` evaluates
:func:`enumerator_moves` on every triple of the divisor rows at once; a witness
is replayed by :func:`parse_move` / :func:`apply_trace`, which evaluate
the same map and guard on one set's ints.  Labels look like "P", "Q(5)",
"PIVOT(2)", "W(1,1,2)" and "RULE(x3-split)".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from numbers import Integral
from typing import Any, Callable, Sequence

from .pauli import GpmSet
from .residues import OutOfRange, prime_power


class PreconditionViolated(ValueError):
    """A move label or dimension violates its documented bounds."""


class GuardFailed(ValueError):
    """A move was applied to a set outside its guard."""


Members = list
"""A set's members as (x, z) pairs, each an int or an int array over
many sets; a normalized set has the identity (0, 0) first."""

Guard = Callable[[Members], Any]
"""Whether a move applies: a bool, or a bool array over many sets."""


@dataclass(frozen=True)
class Tables:
    """Lookup tables at d = p**alpha, read by the W and RULE moves.

    Every table is indexed by a residue or a valuation, so one lookup
    serves an int and an int array alike.
    """

    alpha: int
    vp: Sequence[int]  # p-adic valuation of each residue mod d, alpha for 0
    pw: Sequence[int]  # p**v for v = 0..alpha


@lru_cache(maxsize=16)
def tables(d: int) -> Tables | None:
    """The tables at d as tuples; None unless d = p**alpha with alpha >= 2."""
    pa = prime_power(d)
    if pa is None or pa[1] < 2:
        return None
    p, alpha = pa
    vp = [alpha] * d
    for x in range(1, d):
        v = 0
        while x % p ** (v + 1) == 0:
            v += 1
        vp[x] = v
    return Tables(alpha, tuple(vp), tuple(p**v for v in range(alpha + 1)))


@dataclass(frozen=True)
class Move:
    """A labeled move: its exponent map, its guard, and their replay on a set.

    ``image`` maps a set's members to their images, and returns the
    identity first whenever the identity comes first.  ``guard``, when
    set, selects the sets the move applies to.
    """

    label: str
    d: int
    image: Callable[[Members], Members]
    guard: Guard | None = None

    def apply(self, S: GpmSet) -> GpmSet:
        """The image of S, whose members are read in sorted order."""
        if S.d != self.d:
            raise PreconditionViolated(
                f"{self.label} at d={self.d} applied to a set mod {S.d}")
        ms = sorted(S.members)
        if self.guard is not None and not self.guard(ms):
            raise GuardFailed(f"{self.label} does not apply to {S.to_text()}")
        d = self.d
        return GpmSet(d, tuple(sorted((x % d, z % d) for x, z in self.image(ms))))

    def applies(self, S: GpmSet) -> bool:
        try:
            self.apply(S)
        except (GuardFailed, PreconditionViolated):
            return False
        return True


_LINEAR = {
    "P": lambda x, z: (x, x + z),
    "R": lambda x, z: (-z, x),
    "V": lambda x, z: (x + z, z),  # the word P P R P R P P
}


def _linear(label: str, d: int, f: Callable) -> Move:
    """A move acting on every member by the same exponent map."""
    return Move(label, d, lambda ms: [f(x, z) for x, z in ms])


def _scale(d: int, k: int) -> Move:
    """Q(k): (x, z) -> (x / k, k z) for k invertible mod d."""
    ki = pow(k, -1, d)
    return _linear(f"Q({k})", d, lambda x, z: (x * ki, k * z))


def _pivot(d: int, j: int) -> Move:
    """PIVOT(j): translate every member by the inverse of member j."""

    def image(ms: Members) -> Members:
        # the member count is the same for every set of an array of sets
        if j >= len(ms):
            raise GuardFailed(f"PIVOT({j}) needs a member {j}")
        xj, zj = ms[j]
        return [(0, 0)] + [(x - xj, z - zj) for i, (x, z) in enumerate(ms) if i != j]

    return Move(f"PIVOT({j})", d, image)


def _lattice(tab: Tables, s: int, t: int) -> Guard:
    """Every member lies in {x = 0 mod p**t, z = 0 mod p**s}."""
    vp = tab.vp

    def lattice(ms: Members) -> Any:
        inside = True
        for x, z in ms:
            inside = inside & (vp[x] >= t) & (vp[z] >= s)
        return inside

    return lattice


def _w(d: int, tab: Tables, s: int, t: int, k: int) -> Move:
    """W(s, t, k) on the lattice of (s, t); needs 1 <= s, 0 <= t, s + t < alpha."""
    u = (k * tab.pw[tab.alpha - s - t] + 1) % d
    return Move(f"W({s},{t},{k})", d, lambda ms: [(x * u, z) for x, z in ms],
                _lattice(tab, s, t))


def _split(d: int, tab: Tables) -> Move:
    """RULE(x3-split): {I, Z^(p^v), u X^(p^w)} -> {I, Z^(p^v), X^(p^w)}.

    It applies to the normalized triples {I, Z^(p^v), X^x} with x != 0
    and v + vp(x) >= alpha, where Z^(p^v) commutes with X^x.  The middle
    member's z-exponent is the chain step p^v itself, so v = vp[t1].
    """
    alpha, vp, pw = tab.alpha, tab.vp, tab.pw

    def guard(ms: Members) -> Any:
        if len(ms) != 3 or ms[0] != (0, 0):
            return False
        (s1, t1), (s2, t2) = ms[1], ms[2]
        return ((s1 == 0) & (t1 == pw[vp[t1]]) & (s2 != 0) & (t2 == 0)
                & (vp[s2] + vp[t1] >= alpha))

    def image(ms: Members) -> Members:
        return [ms[0], ms[1], (pw[vp[ms[2][0]]], 0)]

    return Move("RULE(x3-split)", d, image, guard)


def enumerator_moves(d: int, tab: Tables | None = None) -> list[Move]:
    """The moves the enumerator evaluates on normalized triples.

    P, R and PIVOT(1); when ``tab`` (the tables at d) is given, also
    W(s, t, 1) for every sublattice with t >= 1 and the split rule, but no
    W(s, 0, k), which is the Clifford Q(u^-1) on its lattice.  Adding
    PIVOT(2) or any W(s, t, k) leaves the partition unchanged at every
    d <= 32 and at d = 49 and 64.  The order fixes which move each witness
    step takes.
    """
    moves = [_linear(label, d, _LINEAR[label]) for label in ("P", "R")]
    moves.append(_pivot(d, 1))
    if tab is not None:
        moves += [_w(d, tab, s, t, 1) for s in range(1, tab.alpha) for t in range(1, tab.alpha - s)]
        moves.append(_split(d, tab))
    return moves


def rule_catalog(d: int) -> list[Move]:
    """The named rewrite rules the enumerator uses at dimension d."""
    tab = tables(d)
    return [] if tab is None else [_split(d, tab)]


_MOVE_RE = re.compile(
    r"(?:(?P<plain>[PRV])"
    r"|Q\((?P<qk>-?[0-9]{1,18})\)"
    r"|PIVOT\((?P<pj>[0-9]{1,18})\)"
    r"|W\((?P<ws>[0-9]{1,18}),(?P<wt>[0-9]{1,18}),(?P<wk>[0-9]{1,18})\)"
    r"|RULE\((?P<rule>[^)]+)\))"
)


def parse_move(label: str, d: int) -> Move:
    """Reconstruct a move from its serialized label for dimension d.

    Raises PreconditionViolated for every label or d it cannot build.
    """
    if not isinstance(d, Integral) or d < 2:
        raise PreconditionViolated(f"moves need a dimension d >= 2, got {d!r}")
    d = int(d)
    m = _MOVE_RE.fullmatch(label.replace(" ", ""))
    if m is None:
        raise PreconditionViolated(f"unparseable move label {label!r}")
    if m["plain"]:
        return _linear(m["plain"], d, _LINEAR[m["plain"]])
    if m["qk"]:
        k = int(m["qk"])
        if gcd(k, d) != 1:
            raise PreconditionViolated(f"Q({k}) needs k invertible mod {d}")
        return _scale(d, k)
    if m["pj"]:
        return _pivot(d, int(m["pj"]))
    try:
        tab = tables(d)
    except OutOfRange as exc:
        raise PreconditionViolated(str(exc)) from None
    if tab is None:
        raise PreconditionViolated(f"{label} needs d = p**alpha with alpha >= 2, d={d}")
    if m["ws"]:
        s, t, k = int(m["ws"]), int(m["wt"]), int(m["wk"])
        if s < 1 or s + t >= tab.alpha or not 1 <= k < tab.pw[s]:
            raise PreconditionViolated(
                f"W(s,t,k) needs s >= 1, s + t < {tab.alpha} and 1 <= k < p**s, "
                f"got {label}")
        return _w(d, tab, s, t, k)
    if m["rule"] == "x3-split":
        return _split(d, tab)
    raise PreconditionViolated(f"unknown rule {m['rule']!r} at dimension {d}")


def apply_trace(S: GpmSet, labels: list[str]) -> GpmSet:
    """Replay a serialized move trace on a normalized set.

    Each distinct label is parsed once; every step still checks its guard.
    """
    moves = {label: parse_move(label, S.d) for label in dict.fromkeys(labels)}
    cur = GpmSet(S.d, tuple(sorted(S.members)))
    for label in labels:
        cur = moves[label].apply(cur)
    return cur
