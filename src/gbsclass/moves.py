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
* four rewrite rules on the chain triples {I, Z^(p^v), X^x Z^z} with
  x != 0 and p^v | z: the two tensor-split collapses, which reduce the
  unit in front of a maximal-order X-part to 1, and the two bracket
  rewrites of the shear residue z / p^v.

A move is an exponent map plus its guard.  Both are written once, with
arithmetic that gives the same result on plain ints and on numpy arrays:
``+ - * // %``, comparisons, ``&`` and lookups in the per-dimension
:class:`Tables`.  The enumerator in :mod:`gbsclass.classify` evaluates
:func:`enumerator_moves` on a whole universe of sets at once; a witness
is replayed by :func:`parse_move` / :func:`apply_trace`, which evaluate
the same map and guard on one set's ints.  Labels look like "P", "Q(5)",
"PIVOT(2)", "W(1,0,2)" and "RULE(xz3-split)".
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
"""A set's members as (x, z) pairs, each an int or an int array over a
universe of sets; a normalized set has the identity (0, 0) first."""

Guard = Callable[[Members], Any]
"""Whether a move applies: a bool, or a bool array over a universe."""


@dataclass(frozen=True)
class Tables:
    """Lookup tables at d = p**alpha, read by the W and RULE moves.

    Every table is indexed by a residue or a valuation, so one lookup
    serves an int and an int array alike.
    """

    p: int
    alpha: int
    vp: Sequence[int]  # p-adic valuation of each residue mod d, alpha for 0
    pw: Sequence[int]  # p**v for v = 0..alpha
    inv: Sequence[int]  # inverse mod d of each residue prime to p, 0 for the rest


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
    return Tables(
        p,
        alpha,
        tuple(vp),
        tuple(p**v for v in range(alpha + 1)),
        tuple(pow(x, -1, d) if x % p else 0 for x in range(d)),
    )


@dataclass(frozen=True)
class Move:
    """A labeled move: its exponent map, its guards, and their replay on a set.

    ``image`` maps a set's members to their images, and returns the
    identity first whenever the identity comes first.  ``domain`` is a
    guard shared by a family of moves (one W lattice, the rule chain),
    which the enumerator evaluates once per family; ``guard`` is the
    move's own condition inside that domain.
    """

    label: str
    d: int
    image: Callable[[Members], Members]
    domain: Guard | None = None
    guard: Guard | None = None

    def apply(self, S: GpmSet) -> GpmSet:
        """The image of S, whose members are read in sorted order."""
        if S.d != self.d:
            raise PreconditionViolated(
                f"{self.label} at d={self.d} applied to a set mod {S.d}")
        ms = sorted(S.members)
        for guard in (self.domain, self.guard):
            if guard is not None and not guard(ms):
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
        # the member count is the same for every set of a universe
        if j >= len(ms):
            raise GuardFailed(f"PIVOT({j}) needs a member {j}")
        xj, zj = ms[j]
        return [(0, 0)] + [(x - xj, z - zj) for i, (x, z) in enumerate(ms) if i != j]

    return Move(f"PIVOT({j})", d, image)


def _lattice(tab: Tables, s: int, t: int) -> Guard:
    """Every member lies in {x = 0 mod p**t, z = 0 mod p**s}."""
    vp = tab.vp

    def domain(ms: Members) -> Any:
        inside = True
        for x, z in ms:
            inside = inside & (vp[x] >= t) & (vp[z] >= s)
        return inside

    return domain


def _w(d: int, tab: Tables, s: int, t: int, k: int, lattice: Guard) -> Move:
    """W(s, t, k) on the lattice of (s, t); needs 1 <= s, 0 <= t, s + t < alpha."""
    u = (k * tab.pw[tab.alpha - s - t] + 1) % d
    return Move(f"W({s},{t},{k})", d, lambda ms: [(x * u, z) for x, z in ms], lattice)


def _rules(d: int, tab: Tables) -> list[Move]:
    """The rewrites of the chain triples, in the enumerator's order.

    A chain triple is the normalized {I, Z^(p^v), X^x Z^z} with x != 0
    and p^v | z; its middle member's z-exponent is the chain step p^v
    itself, so v = vp[t1] and the shear residue is t2 // t1.
    """
    alpha, p, vp, pw, inv = tab.alpha, tab.p, tab.vp, tab.pw, tab.inv

    def chain(ms: Members) -> Any:
        if len(ms) != 3 or ms[0] != (0, 0):
            return False
        (s1, t1), (s2, t2) = ms[1], ms[2]
        return (s1 == 0) & (t1 == pw[vp[t1]]) & (s2 != 0) & (vp[t2] >= vp[t1])

    def deep(ms: Members) -> Any:
        """Z^(p^v) commutes with the third member: v + vp(x) >= alpha."""
        return vp[ms[2][0]] + vp[ms[1][1]] >= alpha

    def split(ms: Members) -> Members:
        s2, t2 = ms[2]
        return [ms[0], ms[1], (pw[vp[s2]], t2)]

    def residue(ms: Members) -> Any:
        return ms[2][1] // ms[1][1]

    def invert(ms: Members) -> Members:
        (_, t1), (s2, _) = ms[1], ms[2]
        return [ms[0], ms[1], (-s2, t1 * inv[residue(ms)])]

    def flip_invert(ms: Members) -> Members:
        (_, t1), (s2, _) = ms[1], ms[2]
        return [ms[0], ms[1], (s2, t1 * inv[(1 - residue(ms)) % d])]

    return [
        Move("RULE(x3-split)", d, split, chain,
             lambda ms: deep(ms) & (ms[2][1] == 0)),
        Move("RULE(xz3-split)", d, split, chain,
             lambda ms: deep(ms) & (ms[2][1] != 0)),
        Move("RULE(xz3-residue-invert)", d, invert, chain,
             lambda ms: residue(ms) % p != 0),
        Move("RULE(xz3-residue-flip-invert)", d, flip_invert, chain,
             lambda ms: (1 - residue(ms)) % p != 0),
    ]


def enumerator_moves(d: int, size: int, tab: Tables | None = None) -> list[Move]:
    """The moves the enumerator evaluates on normalized sets of ``size`` members.

    The order fixes which move each witness step takes.  Triples also get
    the W and RULE moves when ``tab`` (the tables at d) is given.
    """
    moves = [_linear(label, d, _LINEAR[label]) for label in ("P", "R")]
    moves += [_pivot(d, j) for j in range(1, size)]
    if size == 3 and tab is not None:
        for s in range(1, tab.alpha):
            for t in range(tab.alpha - s):
                lattice = _lattice(tab, s, t)
                moves += [_w(d, tab, s, t, k, lattice) for k in range(1, tab.pw[s])]
        moves += _rules(d, tab)
    return moves


def rule_catalog(d: int) -> list[Move]:
    """The named rewrite rules the enumerator uses at dimension d."""
    tab = tables(d)
    return [] if tab is None else _rules(d, tab)


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
        return _w(d, tab, s, t, k, _lattice(tab, s, t))
    for rule in _rules(d, tab):
        if rule.label == f"RULE({m['rule']})":
            return rule
    raise PreconditionViolated(f"unknown rule {m['rule']!r} at dimension {d}")


def apply_trace(S: GpmSet, labels: list[str]) -> GpmSet:
    """Replay a serialized move trace on a normalized set."""
    cur = GpmSet(S.d, tuple(sorted(S.members)))
    for label in labels:
        cur = parse_move(label, S.d).apply(cur)
    return cur
