"""Exhaustive classification of Pauli pairs and triples at one dimension.

Triple classes come from a complete invariant, the key.  For a triple
{identity, v1, v2} the ordered key is the relation lattice
K = {(a, b) : a*v1 + b*v2 = 0 mod d} together with the commutation phase
omega = det[v1 v2]; the key is the least ordered key over the six
orderings of the members.  Conjugation keeps K and omega, so the key is
an invariant; equal keys give representations with equal characters, so
it is complete (Serre, Linear Representations of Finite Groups, 1977,
section 2.3).  SL(2, Z_d) keeps the ordered key and carries v1 to
(0, gcd(v1, d)), so every class shows up in a divisor row of
:func:`_key_rows`, v1 = (0, g) with v2 free, where K has a closed form.
:func:`_ordered_key` packs the ordered keys of many pairs at once, at any
d; one vectorized minimum over the six orderings makes those of the rows
canonical.  Each class is rooted at its least triple, in such a row.

Witnesses come from a graph on the divisor rows, :func:`_row_moves`.
Its nodes are the row triples {identity, (0, g), v2}, about tau(d)*d*d of
them.  The move list of :func:`gbsclass.moves.enumerator_moves` is
evaluated on every node at once: P and R, which generate every
determinant-one exponent map mod d, PIVOT(1), and at prime powers
W(s, t, 1) for every sublattice with t >= 1 and the split rule.  Each
image is carried back into a divisor row by :func:`_carry_arrays`, and a
move is stored as its arrows only, the int32 pairs (node, image node)
with image node != node.  Connected components come from min-label
hooking with pointer jumping over all arrows at once; each is mapped onto
its key class, and a note names any class the moves leave split.  A
witness spells each step as its move, then the carry's word in P, R and
V that :func:`_carry` spells along with it.

The classes are labeled with exact invariants.  At p^alpha with
alpha >= 2, equal-invariant classes are separated, where possible, by the
sign-flip feasibility criterion, and final counts are compared against
closed-form expectations on the dimensions where those are valid.

Pairs build no states.  Their classes come from the divisors of d, in
:func:`_divisor_classes`: SL(2, Z_d), generated by the moves P and R,
maps v to (0, gcd(v, d)), and the order of v is an invariant, so there
is one class per divisor g of d, holding the J_2(d/g) vectors of gcd g,
and its least code is g mod d.  Each class's witness is one fixed word
of P and R, from :func:`_pair_witness`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .config import DEFAULT_ENUM_CAP, CapExceeded
from .moves import PreconditionViolated, Tables, enumerator_moves, tables
from .pauli import GpmSet, InvariantVector, check_probe, invariant_table, invariant_vector
from .residues import BRACKET, DOUBLE, bracket_partition, factorize, prime_power

MAX_STATES = 12 * 10**6
"""Most states an enumeration may have: C(d*d - 1, 2) for triples, d*d
for pairs.  It admits triples at d = 64 (8.4e6 states) and refuses
d = 81 (2.2e7).  No path builds the states: triples take their classes
from the key rows and their witnesses from the row graph, about
tau(d)*d*d nodes, and pairs from the divisors of d.  The cap stays as
the contract of what an enumeration accepts."""

SEP_INVARIANT = "INVARIANT"
SEP_THEOREM1 = "THEOREM1"
SEP_UNSEPARATED = "UNSEPARATED"

FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"

STATUS_VERIFIED = "VERIFIED"
STATUS_VERIFIED_NO_FORMULA = "VERIFIED_NO_FORMULA"
STATUS_PARTIAL = "PARTIAL"


class OutOfDomain(ValueError):
    """A closed-form count was requested outside its domain of validity."""


# ---------------------------------------------------------------------------
# Sign-flip feasibility.
# ---------------------------------------------------------------------------


def sign_flip_feasibility(p: int, alpha: int, s: int, t: int, tprime: int) -> str:
    """Whether {I, Z^(p^s), X^(k p^t) Z^(t' p^s)} can reach its k -> -k twin.

    Defined for 0 <= s < t, s + t < alpha and 1 < t' < p**(t-s); the
    residue t' is understood mod p**(t-s).  Returns FEASIBLE when some
    unitary realizes the sign flip and INFEASIBLE when none can, in which
    case the two sets are provably inequivalent.

    A flip forces one of six member matchings.  Three of them need an
    exponent map of determinant -1, possible only at p = 2 with
    s + t + 1 = alpha.  The rest compare the orders of a generator and
    its image, which survive exactly when m = p**(t-s) divides
    t'(t' - 2), 2t' - 1, or t'^2 - 1.  At odd p each residue condition
    collapses to a single root (2, (m+1)/2, m-1 respectively) because at
    most one factor of each product can carry the prime.  At p = 2 the
    middle condition is unsolvable but both factors of the outer
    products are even, so every root of t'(t' - 2) or t'^2 - 1 mod m
    counts: jointly {2, m/2 - 1, m/2, m/2 + 1, m/2 + 2, m - 1}.
    """
    if not (0 <= s < t and s + t < alpha):
        raise PreconditionViolated(f"need 0 <= s < t and s+t < alpha, got "
                                   f"s={s} t={t} alpha={alpha}")
    m = p ** (t - s)
    if not 1 < tprime < m:
        raise PreconditionViolated(f"need 1 < t' < {m}, got t'={tprime}")
    if p >= 3:
        feasible = tprime in (2, (m + 1) // 2, m - 1)
    elif s + t + 1 == alpha:
        feasible = True
    elif tprime % 2:
        feasible = (tprime * tprime - 1) % m == 0
    else:
        feasible = tprime * (tprime - 2) % m == 0
    return FEASIBLE if feasible else INFEASIBLE


# ---------------------------------------------------------------------------
# Closed-form class counts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountFormula:
    """A named closed-form count with its parameters."""

    kind: str  # "PAIRS" | "TRIPLES_P2" | "TRIPLES_PALPHA"
    params: tuple[int, ...]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, math.isqrt(n) + 1))


def expected_count(formula: CountFormula) -> int:
    """Evaluate a count formula, refusing parameters outside its domain."""
    if formula.kind == "PAIRS":
        (d,) = formula.params
        if d < 2:
            raise OutOfDomain(f"pair count needs d >= 2, got {d}")
        return math.prod(e + 1 for _, e in factorize(d))
    if formula.kind == "TRIPLES_P2":
        (p,) = formula.params
        if p < 3 or not _is_prime(p):
            raise OutOfDomain(f"triple count at p^2 needs an odd prime, got {p}")
        # floor((p - 2) / 6 + (-1)^floor(p / 3) p / 3), in integers
        tail = (p - 2 + 2 * (-1) ** (p // 3) * p) // 6
        return 5 * p * p // 6 + tail + 3
    if formula.kind == "TRIPLES_PALPHA":
        p, alpha = formula.params
        if p != 2 or alpha <= 2 or alpha % 2:
            raise OutOfDomain(
                f"triple count at p^alpha is only valid for p=2 and even "
                f"alpha > 2, got p={p} alpha={alpha}"
            )
        # 36 times (3 alpha + 19) 2^alpha / 18 + alpha^2 / 2 - 7 alpha / 4 - 5 / 9
        num = 2 * (3 * alpha + 19) * 2**alpha + 18 * alpha * alpha - 63 * alpha - 20
        if num % 36:
            raise OutOfDomain(f"count formula is not integral at alpha={alpha}")
        return num // 36
    raise OutOfDomain(f"unknown count formula {formula.kind!r}")


def formula_for(d: int, mode: str) -> CountFormula | None:
    """The applicable count formula at dimension d, if any."""
    if mode == "pairs":
        return CountFormula("PAIRS", (d,))
    pa = prime_power(d)
    if pa is None:
        return None
    p, alpha = pa
    if alpha == 2 and p >= 3:
        return CountFormula("TRIPLES_P2", (p,))
    if p == 2 and alpha > 2 and alpha % 2 == 0:
        return CountFormula("TRIPLES_PALPHA", (p, alpha))
    return None


# ---------------------------------------------------------------------------
# Move arrows and their components.
# ---------------------------------------------------------------------------


def _array_tables(d: int) -> Tables | None:
    """The move tables at d as numpy arrays, for many sets at once."""
    tab = tables(d)
    if tab is None:
        return None
    return replace(tab, vp=np.array(tab.vp, dtype=np.int8),
                   pw=np.array(tab.pw, dtype=np.int32))


Arrows = tuple[str, np.ndarray, np.ndarray]
"""One move as (label, src, dst): its non-fixed arrows, int32, src != dst.

A move is a function on the nodes, so it has one arrow per source."""


def _arrows(label: str, src: np.ndarray, dst: np.ndarray) -> Arrows:
    moved = dst != src
    src, dst = src[moved], dst[moved]
    return label, src.astype(np.int32, copy=False), dst.astype(np.int32, copy=False)


def _components(n: int, moves: list[Arrows]) -> np.ndarray:
    """Connected components; each node's root is its component's least index.

    Min-label hooking with pointer jumping (Shiloach and Vishkin,
    J. Algorithms 3, 1982).  Every root is the least index of its tree, so
    parent[i] <= i throughout.  Each round hooks the larger end of every
    edge, a root, onto the smaller one; flattens every tree to depth one;
    and replaces each edge by the roots of its ends, dropping the edges
    whose ends now share a root.
    """
    parent = np.arange(n, dtype=np.int32)
    lo = np.concatenate([np.empty(0, np.int32), *(np.minimum(a, b) for _, a, b in moves)])
    hi = np.concatenate([np.empty(0, np.int32), *(np.maximum(a, b) for _, a, b in moves)])
    while lo.size:
        np.minimum.at(parent, hi, lo)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        lo = parent[lo]
        hi = parent[hi]
        live = lo != hi
        lo, hi = lo[live], hi[live]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    return parent


def _classes(roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component roots in ascending order, and each node's int32 component index."""
    is_root = roots == np.arange(roots.shape[0])
    return np.flatnonzero(is_root), (np.cumsum(is_root, dtype=np.int32) - 1)[roots]


def _divisors(d: int) -> list[tuple[int, int]]:
    """Each divisor g of d, ascending, with the number of v in Z_d^2 of gcd g.

    That number is J_2(d/g), Jordan's totient J_2(n) = n^2 * prod over
    primes p | n of (1 - p^-2), and J_2(1) = 1.
    """
    primes = [p for p, _ in factorize(d)]

    def jordan2(n: int) -> int:
        j = n * n
        for p in primes:
            if n % p == 0:
                j = j // (p * p) * (p * p - 1)
        return j

    return [(g, jordan2(d // g)) for g in range(1, d + 1) if d % g == 0]


def _divisor_classes(d: int) -> tuple[np.ndarray, list[int]]:
    """Pair class roots in ascending order, and their orbit sizes.

    The class of divisor g holds the J_2(d/g) pairs {identity, v} with
    gcd(v, d) = g; its root is the code g mod d of (0, g), so the
    identity pair (g = d) comes first.
    """
    roots, sizes = zip(*sorted((g % d, j) for g, j in _divisors(d)))
    return np.array(roots, dtype=np.int64), list(sizes)


def _pair_witness(d: int, g: int) -> list[str]:
    """The witness of divisor g's pair class: the word the BFS takes on the
    reference pair graph of ``tests/pair_graph.py``.

    The start, the largest code of the class, is -(g, g); R, P, R carry
    it to (g, -g), then (g, 0), then the root (0, g).  In units of g with
    n = d/g >= 3, the root is one move (P, R or PIVOT(1)) from (1, 0) and
    (0, -1), and two from (1, -1) and (-1, 0).  Neither the start nor
    P(start) = (-1, -2) is among them, so the first-move-wins BFS takes
    R, P, R.  At n = 2 it takes P, R.
    """
    if g == d:
        return []
    return ["P", "R"] if 2 * g == d else ["R", "P", "R"]


def _check_dim(d: int, mode: str, enum_cap: int) -> None:
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    cap = enum_cap * enum_cap if mode == "pairs" else enum_cap
    if d > cap:
        raise CapExceeded(f"{mode} enumeration capped at d <= {cap}, got {d}")
    states = d * d if mode == "pairs" else math.comb(d * d - 1, 2)
    if states > MAX_STATES:
        raise CapExceeded(
            f"{mode} enumeration capped at {MAX_STATES} states, got {states} at d={d}")


# ---------------------------------------------------------------------------
# Triple classes from the divisor rows.
# ---------------------------------------------------------------------------


# The six orderings of a triple's members: the pivot onto each member,
# then either order of the other two.  ((a1, b1), (a2, b2)) stands for
# the ordered pair (a1*v1 + b1*v2, a2*v1 + b2*v2).
_RELABELLINGS = (
    ((1, 0), (0, 1)),  # (v1, v2)
    ((0, 1), (1, 0)),  # (v2, v1)
    ((-1, 0), (-1, 1)),  # (-v1, v2 - v1)
    ((-1, 1), (-1, 0)),  # (v2 - v1, -v1)
    ((0, -1), (1, -1)),  # (-v2, v1 - v2)
    ((1, -1), (0, -1)),  # (v1 - v2, -v2)
)


def _row_key(d: int, g: int | np.ndarray, x: np.ndarray, z: np.ndarray) -> tuple:
    """The ordered key of ((0, g), (x, z)) per entry, less its h = d/g: (a0, m, omega).

    K has the basis (h, 0), (a0, m).  a*(0, g) + b*(x, z) = 0 mod d needs
    b*x = 0 and b*h*z = 0 mod d, so b runs over the multiples of the order
    m = d / gcd(x, h*z, d) of (x, h*z) mod d; b = 0 leaves a in h*Z, and
    b = m fixes a = -(m*z/g) mod h.  omega = det[(0, g) (x, z)] = -g*x.
    gcd(x, d) is read from a table, so x must lie in [0, d).
    """
    h = d // g
    m = d // np.gcd(np.gcd(np.arange(d), d)[x], h * z)
    return -(m * z // g) % h, m, -g * x % d


def _carry(d: int, v1: tuple[int, int], v2: tuple[int, int]) -> tuple[int, int, list[str]]:
    """(g, c2, word): a map of SL(2, Z_d) takes v1 != 0 to (0, g) and v2 to code c2.

    Euclid's algorithm on v1 by integer determinant-one steps, the shear
    (x, z) -> (x, z - q*x) and the rotation (x, z) -> (z, -x), carries
    v1 to (0, +-G) with G = gcd(x1, z1); the same steps act on v2.  The
    quotient q is rounded to nearest, so each step at least halves |x|.
    Unless G divides d, a second pass from (d, G), which is (0, G) mod d,
    reaches (0, +-g) with g = gcd(x1, z1, d).  A sign flip -(v1, v2),
    which has determinant one too, makes it (0, g).  So v1 = (0, g) with
    g | d is left in place.  The word's labels replay the map: a shear by
    -q mod d is P k times, k = -q mod d, or R R R, V d - k times, R,
    whichever is shorter; the rotation is R R R, and the sign flip R R.
    """
    (x1, z1), (x2, z2) = v1, v2
    word: list[str] = []
    while True:
        while x1:
            q = (2 * z1 + x1) // (2 * x1)
            k = -q % d
            word += ["P"] * k if k <= d - k + 4 else ["R", "R", "R", *["V"] * (d - k), "R"]
            word += ["R", "R", "R"]
            x1, z1, x2, z2 = z1 - q * x1, -x1, z2 - q * x2, -x2
        if d % z1 == 0:
            break
        x1 = d
    if z1 < 0:
        z1, x2, z2 = -z1, -x2, -z2
        word += ["R", "R"]
    return z1, x2 % d * d + z2 % d, word


def _carry_arrays(d: int, v1: tuple, v2: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(g, c2) of :func:`_carry` for many (v1, v2) at once, from their coordinates.

    The coordinates are int arrays, or scalars that broadcast against
    them.  Each Euclid step acts on the entries whose x1 is not yet 0.
    """
    x1, z1, x2, z2 = (np.array(c, dtype=np.int64) for c in np.broadcast_arrays(*v1, *v2))
    while True:
        while (on := np.flatnonzero(x1)).size:
            a, b = x1[on], z1[on]
            q = (2 * b + a) // (2 * a)
            x1[on], z1[on] = b - q * a, -a
            x2[on], z2[on] = z2[on] - q * x2[on], -x2[on]
        again = d % z1 != 0
        if not again.any():
            break
        x1[again] = d
    flip = np.flatnonzero(z1 < 0)
    z1[flip], x2[flip], z2[flip] = -z1[flip], -x2[flip], -z2[flip]
    return z1, x2 % d * d + z2 % d


def _ordered_key(d: int, v1: tuple, v2: tuple) -> np.ndarray:
    """The ordered key of each (v1, v2), v1 != 0, packed into one int.

    Coordinates are as for :func:`_carry_arrays`, whose carry keeps the
    key; (d/g, a0, m, omega) of the carried pair is packed in base d + 1,
    so packed keys compare as the tuples do.
    """
    g, c2 = _carry_arrays(d, v1, v2)
    a0, m, omega = _row_key(d, g, *np.divmod(c2, d))
    base = d + 1
    return ((d // g * base + a0) * base + m) * base + omega


class KeyRows(NamedTuple):
    """The triple classes at d, read off the divisor rows.

    A class holds the triples of one key, the least :func:`_ordered_key`
    over ``_RELABELLINGS``, taken for all ordered keys at once.  ``gs``
    holds the row divisors g < d of d, ascending.  Node r*d*d + c2 is the
    triple {identity, (0, gs[r]), v2} with v2 of code c2, and ``klass``
    holds each node's int32 class index, -1 where c2 is 0 or gs[r], which
    is no triple.  ``roots`` holds the codes (g, c2) of each class's least
    triple, in ascending order; ``sizes`` the orbit sizes.
    """

    roots: list[tuple[int, int]]
    sizes: list[int]
    gs: tuple[int, ...]
    klass: np.ndarray


@lru_cache(maxsize=16)
def _key_rows(d: int) -> KeyRows:
    """The triple classes at d from the key of every triple in a divisor row.

    Row g < d holds the triples {identity, (0, g), v2} for every code v2,
    with their :func:`_ordered_key`.  Each row's distinct ordered keys are
    made canonical in one vectorized step: the key is the least ordered
    key over the six orderings of the first triple that has it.  One
    ``np.unique`` over all rows numbers the keys.  A class's root is its
    first node with c2 > g, which is its least triple.  Each v1 of gcd g
    is carried to (0, g) by J_2(d/g) maps of SL(2, Z_d), so the orbit
    size of a class is half the sum over rows of J_2(d/g) times its count
    in row g.  Read-only, since it is cached.
    """
    gs, js = zip(*_divisors(d)[:-1])  # every divisor but d
    x, z = np.divmod(np.arange(d * d), d)
    klass = np.empty((len(gs), d * d), dtype=np.int32)  # ordered keys, then labels, then classes
    least = []  # per row: each ordered key's key
    for g, row in zip(gs, klass):
        packed = _ordered_key(d, (0, g), (x, z))
        packed[[0, g]] = -1  # v2 = 0 or v2 = v1 is no triple
        ordered, first = np.unique(packed, return_index=True)
        x2, z2 = np.divmod(first[1:], d)  # ordered[0] is the -1 of no triple
        least.append(np.min([
            _ordered_key(d, (b1 * x2, a1 * g + b1 * z2), (b2 * x2, a2 * g + b2 * z2))
            for (a1, b1), (a2, b2) in _RELABELLINGS], axis=0))
        row[:] = np.searchsorted(ordered, packed)
    canonical, label = np.unique(np.concatenate(least), return_inverse=True)
    root = np.full(canonical.size, klass.size)  # each label's first node with c2 > g
    sizes = np.zeros(canonical.size, dtype=np.int64)
    keys = np.split(label, np.cumsum([k.size for k in least])[:-1])
    for r, (g, j, row) in enumerate(zip(gs, js, klass)):
        np.take(np.append(-1, keys[r]), row, out=row)  # from ordered keys to labels
        np.minimum.at(root, row[g + 1:], np.arange(r * d * d + g + 1, (r + 1) * d * d))
        sizes += j * np.bincount(row[row >= 0], minlength=canonical.size)
    order = np.argsort(root)
    relabel = np.full(canonical.size + 1, -1, dtype=np.int32)  # relabel[-1]: no triple
    relabel[order] = np.arange(order.size, dtype=np.int32)
    for row in klass:
        np.take(relabel, row, out=row)
    klass.flags.writeable = False
    roots = [(gs[node // (d * d)], node % (d * d)) for node in root[order].tolist()]
    return KeyRows(roots, (sizes[order] // 2).tolist(), gs, klass.ravel())


# ---------------------------------------------------------------------------
# Witness traces.
# ---------------------------------------------------------------------------


def _levels(n: int, moves: list[Arrows], roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node: its distance along the arrows to a root, and its step's move.

    ``dist`` is -1 where no root is reachable.  Each level takes the moves
    in list order; each gives the next level and its own index to those of
    its sources not yet reached whose image is on the level just finished.
    So ``step[node]`` is the least-index move whose arrow from the node
    lands one level nearer.
    """
    dist = np.full(n, -1, dtype=np.int32)
    step = np.full(n, -1, dtype=np.int32)
    dist[roots] = 0
    level = 0
    while (dist == level).any():
        for li, (_, src, dst) in enumerate(moves):
            hit = src[(dist[src] == -1) & (dist[dst] == level)]
            dist[hit] = level + 1
            step[hit] = li
        level += 1
    return dist, step


def _row_moves(d: int) -> list[Arrows]:
    """Every enumerator move as arrows on the row triples.

    The nodes are those of :func:`_key_rows`; the codes 0 and g hold no
    triple and no arrow.  A move is evaluated on the node's members in
    sorted order, as :meth:`gbsclass.moves.Move.apply` does, on the nodes
    inside its guard; the first member of the sorted image is carried to
    (0, g') by :func:`_carry_arrays`, and the arrow lands on the node
    (g', c2') the carry gives.  So each move gives at most one arrow per node.
    A node whose first member is (0, g) is its own carry, so an arrow that
    lands on the triple of a class root, whose v2 sorts after (0, g),
    lands on the root's node.
    """
    rows = _key_rows(d)
    node = np.flatnonzero(rows.klass >= 0)
    g, c2 = np.array(rows.gs)[node // (d * d)], node % (d * d)
    first = c2 < g  # v2 sorts before (0, g)
    members = [(0, 0), (np.where(first, c2 // d, 0), np.where(first, c2 % d, g)),
               (np.where(first, 0, c2 // d), np.where(first, g, c2 % d))]
    arrows = []
    for mv in enumerator_moves(d, _array_tables(d)):
        _, ca, cb = ((x % d) * d + z % d for x, z in mv.image(members))
        keep = slice(None) if mv.guard is None else mv.guard(members)
        lo, hi = np.minimum(ca, cb)[keep], np.maximum(ca, cb)[keep]
        g2, c2_2 = _carry_arrays(d, np.divmod(lo, d), np.divmod(hi, d))
        arrows.append(_arrows(mv.label, node[keep], np.searchsorted(rows.gs, g2) * d * d + c2_2))
    return arrows


def _witness_levels(d: int, rows: KeyRows, moves: list[Arrows]) -> tuple[np.ndarray, ...]:
    """Each class's walk start, its last node; then :func:`_levels` from the class roots."""
    node = np.flatnonzero(rows.klass >= 0)
    starts = np.zeros(len(rows.roots), dtype=np.int64)
    np.maximum.at(starts, rows.klass[node], node)
    roots = np.array([rows.gs.index(g) * d * d + c2 for g, c2 in rows.roots])
    return starts, *_levels(rows.klass.size, moves, roots)


def _triple_witnesses(d: int, rows: KeyRows) -> tuple[list[list[str] | None], list[str]]:
    """Each triple class's witness on the row graph, and a note per split class.

    The nodes and arrows are those of :func:`_row_moves`; each node has
    the key class of its triple.  :func:`_levels` scans them from the
    class roots, and each class's walk starts at its last row triple in
    ascending (g, c2) order.  Each step replays the node's step move on
    its triple with :meth:`gbsclass.moves.Move.apply`; :func:`_carry`
    takes the image to the next node and gives the carry's word in P, R
    and V, which the witness holds after the move's label.  Where the
    moves leave a class in k > 1 components, only the nodes in its root's
    component reach the root.
    """
    moves = _row_moves(d)
    klass, gs, C = rows.klass, rows.gs, len(rows.roots)
    comp_class = klass[_classes(_components(klass.size, moves))[0]]
    notes = [f"move graph splits class {ci + 1} into {k} components"
             for ci, k in enumerate(np.bincount(comp_class[comp_class >= 0], minlength=C).tolist())
             if k > 1]
    starts, dist, step = _witness_levels(d, rows, moves)
    by_index = enumerator_moves(d, tables(d))
    witnesses: list[list[str] | None] = []
    for s in starts.tolist():
        word = None if dist[s] < 0 else []
        while dist[s] > 0:
            mv = by_index[step[s]]
            r, c2 = divmod(s, d * d)
            _, v1, v2 = mv.apply(GpmSet(d, ((0, 0), (0, gs[r]), divmod(c2, d)))).members
            g, c2, carry = _carry(d, v1, v2)
            word += [mv.label, *carry]
            s = gs.index(g) * d * d + c2
        witnesses.append(word)
    return witnesses, notes


# ---------------------------------------------------------------------------
# Obstruction scan.
# ---------------------------------------------------------------------------


def _obstruction_scan(
    d: int, p: int, alpha: int, klass: np.ndarray
) -> Iterator[tuple[int, int, int, int, int, str]]:
    """Yield (class, partner class, s, t, t', verdict) for every sign-flip pattern.

    Only triples whose middle member is Z^(p^s) can match, so the scan
    walks those divisor rows alone: code M1 = p^s, and M2 from p^s + 1
    to d^2 - 1, with the class indices ``klass`` of :func:`_key_rows`,
    whose s-th row is p^s.
    """
    vp = _array_tables(d).vp
    for s, index in enumerate(klass.reshape(alpha, d * d)):
        ps = p**s
        M2 = np.arange(ps + 1, d * d)
        S2, T2 = M2 // d, M2 % d
        vpx = vp[S2]
        cand = np.flatnonzero((S2 != 0) & (vpx > s) & (vpx + s < alpha) & (T2 % ps == 0))
        classes = index[M2[cand]].tolist()
        partners = index[(-S2[cand] % d) * d + T2[cand]].tolist()
        for i, ci, cj in zip(cand.tolist(), classes, partners):
            t = int(vpx[i])
            m = p ** (t - s)
            tp = (int(T2[i]) // ps) % m
            if not 1 < tp < m:
                continue
            yield ci, cj, s, t, tp, sign_flip_feasibility(p, alpha, s, t, tp)


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


@dataclass
class ClassReport:
    """One equivalence class: representative, size, labels, optional trace."""

    representative: GpmSet
    orbit_size: int
    invariants: InvariantVector
    separation: str
    witness: list[str] | None = None


@dataclass
class Classification:
    """Full classification of pairs or triples at one dimension."""

    dimension: int
    mode: str
    classes: list[ClassReport]
    expected_count: int | None
    status: str
    notes: list[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.classes)

    def _display_keys(self) -> tuple[int, int, int]:
        """(I2 probe, I3 probe, power probe) used in tabular output."""
        a_col = self.dimension // factorize(self.dimension)[0][0]
        iv = self.classes[0].invariants
        return a_col, min(iv.i3), min(iv.powered)

    def table_rows(self) -> list[tuple[str, float, int, int, int]]:
        """Per class: representative text and the four headline invariants."""
        a_col, a0, t0 = self._display_keys()
        return [
            (
                c.representative.to_text(),
                c.invariants.i1.value(),
                c.invariants.i2[a_col],
                c.invariants.i3[a0],
                c.invariants.powered[t0].i3[a0],
            )
            for c in self.classes
        ]

    def to_json_dict(self) -> dict:
        classes = [
            {
                "representative": c.representative.to_text(),
                "orbit_size": c.orbit_size,
                "invariants": c.invariants.to_dict(),
                "separation": c.separation,
                "witness": c.witness,
            }
            for c in self.classes
        ]
        return {
            "dimension": self.dimension,
            "mode": self.mode,
            "classes": classes,
            "expected_count": self.expected_count,
            "status": self.status,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        a_col, a0, t0 = self._display_keys()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["representative", "I1", f"I2_{a_col}", f"I3_{a0}", f"I3_{a0}_pow{t0}"]
        )
        for rep, i1, i2, i3, i3p in self.table_rows():
            writer.writerow([rep, f"{i1:.2f}", i2, i3, i3p])
        return buf.getvalue()

    def to_text(self) -> str:
        expected = "-" if self.expected_count is None else str(self.expected_count)
        lines = [
            f"{self.mode} d={self.dimension}: {self.count} classes, "
            f"expected {expected}, status {self.status}"
        ]
        a_col, a0, t0 = self._display_keys()
        width = len(str(self.count))
        for i, (c, (rep, i1, i2, i3, i3p)) in enumerate(
                zip(self.classes, self.table_rows()), start=1):
            lines.append(
                f"  {i:>{width}}. {{{rep}}}"
                f"  orbit {c.orbit_size}"
                f"  I1 {i1:.2f}"
                f"  I2[{a_col}] {i2}"
                f"  I3[{a0}] {i3}"
                f"  pow{t0}.I3[{a0}] {i3p}"
                f"  {c.separation}"
            )
            if c.witness is not None:
                lines.append(f"      witness: {' '.join(c.witness) or '(representative)'}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Enumeration entry points.
# ---------------------------------------------------------------------------


def _full_profile(S: GpmSet) -> tuple:
    """All three invariants of S at every shift, at each proper divisor of d
    as the power.

    Inside one cell of equal default keys this separates exactly as the
    profile at every power t in 1..d-1 does: the base I1 arguments and
    the base I2 already agree there, the I1 arguments at t are fold(t*t*a)
    over the base arguments a (the fold is even), and I2 and I3 at t are
    those at the power gcd(t, d).
    """
    d = S.d
    return tuple(invariant_table(S, [g for g in range(1, d) if d % g == 0], range(1, d)))


def _invariant_cells(reps: list[GpmSet], ivs: list[InvariantVector]) -> list[list[int]]:
    """Group classes by invariants, sweeping every probe on collisions.

    The reported fingerprints stick to the default probe set, which can
    be too coarse: two inequivalent commuting triples may agree at every
    default shift yet differ at some other one.  Whenever default keys
    collide, the tied representatives are re-keyed by their full profile
    (every invariant at every shift, at the tau(d) - 1 proper divisors of
    d as powers, which stand for every power), which keeps the
    separation argument inside the exact-invariant family.  One profile
    is one :func:`gbsclass.pauli.invariant_table` call; at d = 32, where
    12 of the 60 representatives collide, the sweep takes about 3 ms.
    Cells that stay tied after the sweep are returned intact.
    """
    coarse: dict[tuple, list[int]] = {}
    for ci, iv in enumerate(ivs):
        coarse.setdefault(iv.key(), []).append(ci)
    cells: list[list[int]] = []
    for cell in coarse.values():
        if len(cell) == 1:
            cells.append(cell)
            continue
        fine: dict[tuple, list[int]] = {}
        for ci in cell:
            fine.setdefault(_full_profile(reps[ci]), []).append(ci)
        cells.extend(fine.values())
    return cells


def _expectation(d: int, mode: str) -> tuple[int | None, str | None]:
    """The closed-form class count at d, or None with a note saying why not.

    The note is None when no formula applies; it is set when a formula is
    selected but cannot be evaluated there (TRIPLES_PALPHA is not integral
    at some alpha), which leaves the classification PARTIAL.
    """
    formula = formula_for(d, mode)
    if formula is None:
        return None, None
    try:
        return expected_count(formula), None
    except OutOfDomain as exc:
        return None, f"closed form {formula.kind}{formula.params} not evaluated: {exc}"


def _classify(
    d: int,
    mode: str,
    emit_witnesses: bool,
    enum_cap: int,
    i3_probes: tuple[int, ...] | None,
    power_probes: tuple[int, ...] | None,
) -> Classification:
    """Classify every normalized pair or triple at dimension d.

    Pairs take their classes and witnesses from the divisors of d, with
    no move graph: P and R generate SL(2, Z_d), which carries v to
    (0, gcd(v, d)), and J_2(d/g) vectors have gcd g.  Triples take their
    classes from the key rows of :func:`_key_rows`; only their witnesses
    build the row graph of :func:`_row_moves`, after the caps and the
    probes are checked; the reports need at least one probe of each kind.
    """
    _check_dim(d, mode, enum_cap)
    if any(probes is not None and not probes for probes in (i3_probes, power_probes)):
        raise ValueError("need at least one I3 probe and one power probe")
    for a in (*(i3_probes or ()), *(power_probes or ())):
        check_probe(a, d)
    if mode == "pairs":
        class_roots, sizes = _divisor_classes(d)
        codes = [(c,) for c in class_roots.tolist()]
    else:
        rows = _key_rows(d)
        codes, sizes = rows.roots, rows.sizes
    C = len(codes)

    reps = [GpmSet(d, ((0, 0), *(divmod(c, d) for c in cs))) for cs in codes]
    ivs = [invariant_vector(S, i3_probes, power_probes) for S in reps]

    cells = _invariant_cells(reps, ivs)

    separated: set[tuple[int, int]] = set()
    notes: set[str] = set()
    pa = prime_power(d)
    if mode == "triples" and pa is not None and pa[1] >= 2:
        p, alpha = pa
        for ci, cj, s, t, tp, verdict in _obstruction_scan(d, p, alpha, rows.klass):
            if verdict == INFEASIBLE:
                if ci == cj:
                    notes.add(
                        f"contradiction: infeasible sign flip joined one class "
                        f"(s={s} t={t} t'={tp})"
                    )
                else:
                    separated.add((min(ci, cj), max(ci, cj)))
            elif ci != cj:
                notes.add(
                    f"contradiction: feasible sign flip left two classes "
                    f"(s={s} t={t} t'={tp})"
                )

    sep = [SEP_INVARIANT] * C
    for cell in cells:
        if len(cell) == 1:
            continue
        for ci in cell:
            others = [cj for cj in cell if cj != ci]
            if all((min(ci, cj), max(ci, cj)) in separated for cj in others):
                sep[ci] = SEP_THEOREM1
            else:
                sep[ci] = SEP_UNSEPARATED

    witnesses: list[list[str] | None] = [None] * C
    if emit_witnesses and mode == "pairs":
        witnesses = [_pair_witness(d, r or d) for r in class_roots.tolist()]
    elif emit_witnesses:
        witnesses, split = _triple_witnesses(d, rows)
        notes.update(split)
        for ci, w in enumerate(witnesses):
            if w is None:
                notes.add(f"no witness path found for class {ci + 1}")

    expected, note = _expectation(d, mode)
    if note is not None:
        notes.add(note)
    ok = (
        not notes
        and all(s != SEP_UNSEPARATED for s in sep)
        and (expected is None or expected == C)
    )
    if expected is not None and expected != C:
        notes.add(f"class count {C} differs from closed-form expectation {expected}")
    status = (
        (STATUS_VERIFIED if expected is not None else STATUS_VERIFIED_NO_FORMULA)
        if ok
        else STATUS_PARTIAL
    )

    return Classification(
        dimension=d,
        mode=mode,
        classes=[
            ClassReport(reps[ci], int(sizes[ci]), ivs[ci], sep[ci], witnesses[ci])
            for ci in range(C)
        ],
        expected_count=expected,
        status=status,
        notes=sorted(notes),
    )


def enumerate_pairs(
    d: int,
    emit_witnesses: bool = False,
    enum_cap: int = DEFAULT_ENUM_CAP,
    i3_probes: tuple[int, ...] | None = None,
    power_probes: tuple[int, ...] | None = None,
) -> Classification:
    """Classify all pairs {identity, X^s Z^t} at dimension d."""
    return _classify(d, "pairs", emit_witnesses, enum_cap, i3_probes, power_probes)


def enumerate_triples(
    d: int,
    emit_witnesses: bool = False,
    enum_cap: int = DEFAULT_ENUM_CAP,
    i3_probes: tuple[int, ...] | None = None,
    power_probes: tuple[int, ...] | None = None,
) -> Classification:
    """Classify all triples {identity, v1, v2} at dimension d."""
    return _classify(d, "triples", emit_witnesses, enum_cap, i3_probes, power_probes)


def locate_class(d: int, S: GpmSet, enum_cap: int = DEFAULT_ENUM_CAP) -> int:
    """Index (in enumerate_triples order) of the class containing S."""
    _check_dim(d, "triples", enum_cap)
    if S.d != d or len(S.members) != 3:
        raise ValueError("locate_class needs a normalized triple at dimension d")
    members = sorted(S.members)
    if members[0] != (0, 0):
        raise ValueError("locate_class needs the identity as a member")
    m1, m2 = (x * d + z for x, z in members[1:])
    if not 0 < m1 < m2:
        raise ValueError(f"set {S.to_text()!r} is not a valid normalized triple")
    g, c2, _ = _carry(d, *members[1:])
    rows = _key_rows(d)
    return int(rows.klass[rows.gs.index(g) * d * d + c2])


def family_breakdown(d: int, enum_cap: int = DEFAULT_ENUM_CAP) -> dict[str, list[int]]:
    """Class indices grouped by canonical-form family at d = p^2 (p odd).

    The five families are: pure-X third member; unit-shear residue on a
    depth-one X-part; pure-Z third member; the depth-one split pair; and
    the pure-Z split pair.  Together they cover every class exactly once.
    """
    pa = prime_power(d)
    if pa is None or pa[1] != 2 or pa[0] == 2:
        raise OutOfDomain("family layout is defined for odd-prime-square dimensions")
    p, _ = pa
    _check_dim(d, "triples", enum_cap)

    def cls(v1: tuple[int, int], v2: tuple[int, int]) -> int:
        return locate_class(d, GpmSet(d, ((0, 0), v1, v2)), enum_cap)

    double_minima = [c[0] for c in bracket_partition(p, DOUBLE)]
    single_minima_p = [c[0] for c in bracket_partition(p, BRACKET)]
    single_minima_d = [c[0] for c in bracket_partition(d, BRACKET)]
    return {
        "1": [cls((0, 1), (s1, 0)) for s1 in range(1, p * p // 2 + 1)],
        "2": [
            cls((0, 1), (k * p, tp))
            for k in range(1, (p - 1) // 2 + 1)
            for tp in double_minima
        ],
        "3": [cls((0, 1), (0, tb)) for tb in single_minima_d],
        "4": [cls((0, p), (p, 0))],
        "5": [cls((0, p), (0, p * tb)) for tb in single_minima_p],
    }
