"""Exhaustive classification of Pauli pairs and triples at one dimension.

Pairs and triples go through one engine.  Its only per-mode step numbers
the universe of normalized sets {identity, v} or {identity, v1, v2} as
states, in :func:`_pack` and :func:`_unpack`: a pair is the code x*d + z
of v, a triple the ``triu`` rank of its two codes.  Everything after the
numbering is shared but the sign-flip scan, which only triples need.
The move list of :func:`gbsclass.moves.enumerator_moves` is evaluated on
the whole universe at once: P and R, which generate every determinant-one
exponent map mod d, PIVOT(1), and on triples at prime powers one
W(s, t, 1) per sublattice and the split rule.  A move is stored as its
arrows only, the int32 pairs (state, image) with image != state, and a
guarded move is evaluated on the states inside its guard alone.

Connected components come from min-label hooking with pointer jumping over
all arrows at once, and each class is keyed by its least state.  The
components are then labeled with exact invariants.  Because the
invariants never change under true equivalence and the moves never merge
inequivalent sets, singleton invariant cells prove the class count
correct; on triples at p^alpha with alpha >= 2, equal-invariant
components are separated, where possible, by the sign-flip feasibility
criterion, and final counts are compared against closed-form
expectations on the dimensions where those are valid.

Pairs without witnesses skip the state graph: their classes come from
the divisors of d, in :func:`_divisor_classes`.  SL(2, Z_d), generated
by the moves P and R, maps v to (0, gcd(v, d)), and the order of v is an
invariant, so there is one class per divisor g of d, holding the
J_2(d/g) vectors of gcd g, and its least state is the code g mod d.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator

import numpy as np

from .config import DEFAULT_ENUM_CAP
from .moves import Move, PreconditionViolated, Tables, enumerator_moves, tables
from .pauli import GpmSet, InvariantVector, check_probe, invariant_table, invariant_vector
from .residues import BRACKET, DOUBLE, bracket_partition, factorize, prime_power

MAX_STATES = 12 * 10**6
"""Most states an enumeration builds: C(d*d - 1, 2) for triples, d*d for
pairs.  Triples cost about 130 bytes a state in peak RSS (125 to 131
measured at d = 24, 32 and 64), so the cap is about 1.6 GB: it admits
d = 64 (8.4e6 states) and refuses d = 81 (2.2e7)."""

SEP_INVARIANT = "INVARIANT"
SEP_THEOREM1 = "THEOREM1"
SEP_UNSEPARATED = "UNSEPARATED"

FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"

STATUS_VERIFIED = "VERIFIED"
STATUS_VERIFIED_NO_FORMULA = "VERIFIED_NO_FORMULA"
STATUS_PARTIAL = "PARTIAL"


class DimensionTooLarge(ValueError):
    """Requested dimension exceeds the enumeration cap."""


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
        tail = math.floor(Fraction(p - 2, 6) + Fraction((-1) ** (p // 3) * p, 3))
        return 5 * p * p // 6 + tail + 3
    if formula.kind == "TRIPLES_PALPHA":
        p, alpha = formula.params
        if p != 2 or alpha <= 2 or alpha % 2:
            raise OutOfDomain(
                f"triple count at p^alpha is only valid for p=2 and even "
                f"alpha > 2, got p={p} alpha={alpha}"
            )
        val = (
            Fraction((3 * alpha + 19) * 2**alpha, 18)
            + Fraction(alpha * alpha, 2)
            - Fraction(7 * alpha, 4)
            - Fraction(5, 9)
        )
        if val.denominator != 1:
            raise OutOfDomain(f"count formula is not integral at alpha={alpha}")
        return int(val)
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
# Numbered universes and vectorized moves.
# ---------------------------------------------------------------------------


def _universe_size(d: int, size: int) -> int:
    """How many normalized sets of ``size`` members there are at d."""
    return d * d if size == 2 else math.comb(d * d - 1, 2)


def _pack(d: int, *codes):
    """The state of a set, from the codes x*d + z of its non-identity members.

    A pair's state is its one code.  A triple's is the ``triu`` rank of
    its two codes: with i = min - 1, j = max - 1 and N = d*d - 1, row i
    starts at i(2N - i - 1)/2 and (i, j) is j - i - 1 further on.  Codes
    are ints or int arrays.
    """
    if len(codes) == 1:
        return codes[0]
    n = d * d - 1
    i, j = np.minimum(*codes) - 1, np.maximum(*codes) - 1
    return i * (2 * n - i - 1) // 2 + j - i - 1


def _unpack(d: int, size: int, states: np.ndarray) -> list[np.ndarray]:
    """The inverse of :func:`_pack`: per state, the codes of its members."""
    if size == 2:
        return [states]
    n = d * d - 1
    rows = np.arange(n - 1)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, states, side="right") - 1
    return [i + 1, states - starts[i] + i + 2]


def _array_tables(d: int) -> Tables | None:
    """The move tables at d as numpy arrays, for a whole universe at once."""
    tab = tables(d)
    if tab is None:
        return None
    return replace(tab, vp=np.array(tab.vp, dtype=np.int8),
                   pw=np.array(tab.pw, dtype=np.int64))


Arrows = tuple[str, np.ndarray, np.ndarray]
"""One move as (label, src, dst): its non-fixed arrows, int32, src != dst."""


def _arrows(label: str, src: np.ndarray, dst: np.ndarray) -> Arrows:
    moved = dst != src
    return label, src[moved].astype(np.int32), dst[moved].astype(np.int32)


def _restrict(members: list, keep: np.ndarray) -> list:
    """The identity, then the other members at the states keep selects."""
    return [members[0], *((a[keep], b[keep]) for a, b in members[1:])]


def _moves(d: int, size: int) -> list[Arrows]:
    """Every move as arrows; a guarded move is evaluated on its states only.

    The members of every state come from :func:`_unpack`, and each image
    set is numbered by :func:`_pack`.  A guard is evaluated on the states
    inside the guard its move names as ``within``, whose states and
    members are kept for that reason.
    """
    states = np.arange(_universe_size(d, size), dtype=np.int32)
    universe = [(0, 0), *((c // d, c % d) for c in _unpack(d, size, states))]
    inside: dict[str, tuple[np.ndarray, list]] = {}

    def arrows(mv: Move) -> Arrows:
        if mv.guard is None:
            src, members = states, universe
        else:
            base, base_members = inside.get(mv.within, (states, universe))
            keep = np.flatnonzero(mv.guard(base_members))
            src, members = base[keep], _restrict(base_members, keep)
            inside[mv.label] = src, members
        _, *images = mv.image(members)
        return _arrows(mv.label, src, _pack(d, *((a % d) * d + (b % d) for a, b in images)))

    return [arrows(mv) for mv in enumerator_moves(d, size, _array_tables(d))]


def _components(n: int, moves: list[Arrows]) -> np.ndarray:
    """Connected components; each state's root is its component's least index.

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
    """Class roots in ascending order, and each state's class index."""
    is_root = roots == np.arange(roots.shape[0])
    return np.flatnonzero(is_root), (np.cumsum(is_root) - 1)[roots]


def _last_states(inverse: np.ndarray, count: int) -> np.ndarray:
    """The largest state index in each class."""
    last = np.zeros(count, dtype=np.int64)
    np.maximum.at(last, inverse, np.arange(inverse.shape[0]))
    return last


_STATE: dict[tuple[int, int], tuple] = {}


def _state(d: int, size: int) -> tuple[list[Arrows], np.ndarray, np.ndarray]:
    """Moves, class roots and class index of the sets of ``size`` members at d."""
    if (d, size) not in _STATE:
        moves = _moves(d, size)
        _STATE[d, size] = (moves, *_classes(_components(_universe_size(d, size), moves)))
    return _STATE[d, size]


def _divisor_classes(d: int) -> tuple[np.ndarray, list[int]]:
    """Pair class roots in ascending order, and their orbit sizes.

    The class of divisor g holds the pairs {identity, v} with gcd(v, d) =
    g; its root is the code g mod d of (0, g), so the identity pair
    (g = d) comes first.  There are J_2(d/g) such v, Jordan's totient
    J_2(n) = n^2 * prod over primes p | n of (1 - p^-2), and J_2(1) = 1.
    """
    primes = [p for p, _ in factorize(d)]

    def jordan2(n: int) -> int:
        j = n * n
        for p in primes:
            if n % p == 0:
                j = j // (p * p) * (p * p - 1)
        return j

    divisors = [g for g in range(1, d + 1) if d % g == 0]
    roots, sizes = zip(*sorted((g % d, jordan2(d // g)) for g in divisors))
    return np.array(roots, dtype=np.int64), list(sizes)


def _check_dim(d: int, mode: str, enum_cap: int) -> None:
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    cap = enum_cap * enum_cap if mode == "pairs" else enum_cap
    if d > cap:
        raise DimensionTooLarge(f"{mode} enumeration capped at d <= {cap}, got {d}")
    states = _universe_size(d, 2 if mode == "pairs" else 3)
    if states > MAX_STATES:
        raise DimensionTooLarge(
            f"{mode} enumeration capped at {MAX_STATES} states, got {states} at d={d}")


# ---------------------------------------------------------------------------
# Witness traces.
# ---------------------------------------------------------------------------


def _witness_tables(
    n: int, moves: list[Arrows], rep_states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per state: BFS distance to its class representative, plus one step.

    A state at distance k + 1 takes, among its arrows into distance k,
    the one of the least move index, so every witness is fixed by the
    move order.  ``lab`` holds that index, ``nxt`` the arrow's image, and
    all three tables hold -1 where no representative is reachable.

    The BFS indexes the arrows once: each becomes one int64 key holding
    its image, move index and source in bit fields, and the sorted keys
    with CSR offsets per image list every state's in-arrows in move
    order.  A level gathers the in-arrows of the frontier, drops those
    whose source is already visited, and keeps per source the least move
    index through ``np.minimum.at``.  That is the first-move-wins rule,
    since a source is a candidate in one level only and a move has one
    arrow per source.  The sources reached become the next frontier, so
    each arrow is read in one level only.
    """
    lab_type = np.min_scalar_type(-len(moves) - 1)  # holds -1 and len(moves)
    dist = np.full(n, -1, dtype=np.int32)
    nxt = np.full(n, -1, dtype=np.int32)
    lab = np.full(n, -1, dtype=lab_type)
    # the three fields take at most 63 bits while n <= MAX_STATES
    src_bits = max(n - 1, 1).bit_length()
    move_bits = len(moves).bit_length()
    key = np.empty(sum(src.shape[0] for _, src, _ in moves), dtype=np.int64)
    indegree = np.zeros(n, dtype=np.int64)
    end = 0
    for li, (_, src, dst) in enumerate(moves):
        k = key[end:end + src.shape[0]]
        np.left_shift(dst, src_bits + move_bits, out=k, dtype=np.int64)
        k |= li << src_bits
        k |= src
        indegree += np.bincount(dst, minlength=n)
        end += src.shape[0]
    key.sort()
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(indegree, out=start[1:])
    del indegree
    best = np.full(n, len(moves), dtype=lab_type)
    dist[rep_states] = 0
    frontier = np.flatnonzero(dist == 0)
    level = 0
    while frontier.size:
        first = start[frontier]
        count = start[frontier + 1] - first
        ends = np.cumsum(count)
        arrows = key[np.repeat(first - ends + count, count) + np.arange(ends[-1])]
        states = (arrows & ((1 << src_bits) - 1)).astype(np.int32)
        fresh = dist[states] == -1
        arrows, states = arrows[fresh], states[fresh]
        li = ((arrows >> src_bits) & ((1 << move_bits) - 1)).astype(lab_type)
        np.minimum.at(best, states, li)
        won = li == best[states]
        frontier = states[won]
        level += 1
        dist[frontier] = level
        nxt[frontier] = arrows[won] >> (src_bits + move_bits)
        lab[frontier] = li[won]
    return dist, nxt, lab


def _walk_witness(
    start: int,
    rep: int,
    moves: list[Arrows],
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> list[str] | None:
    dist, nxt, lab = tables
    if dist[start] < 0:
        return None
    labels: list[str] = []
    cur = start
    while cur != rep:
        labels.append(moves[int(lab[cur])][0])
        cur = int(nxt[cur])
    return labels


# ---------------------------------------------------------------------------
# Obstruction scan.
# ---------------------------------------------------------------------------


def _obstruction_scan(
    d: int, p: int, alpha: int
) -> Iterator[tuple[int, int, int, int, int, str]]:
    """Yield (state, partner, s, t, t', verdict) for every sign-flip pattern.

    Only triples whose middle member is Z^(p^s) can match, so the scan
    walks those rows alone: code M1 = p^s, and M2 from p^s + 1 to d^2 - 1.
    """
    vp = _array_tables(d).vp
    for s in range(alpha):
        ps = p**s
        M2 = np.arange(ps + 1, d * d)
        S2, T2 = M2 // d, M2 % d
        vpx = vp[S2]
        cand = np.flatnonzero((S2 != 0) & (vpx > s) & (vpx + s < alpha) & (T2 % ps == 0))
        states = _pack(d, ps, M2[cand]).tolist()
        partners = _pack(d, ps, (-S2[cand] % d) * d + T2[cand]).tolist()
        for i, state, partner in zip(cand.tolist(), states, partners):
            t = int(vpx[i])
            m = p ** (t - s)
            tp = (int(T2[i]) // ps) % m
            if not 1 < tp < m:
                continue
            yield state, partner, s, t, tp, sign_flip_feasibility(p, alpha, s, t, tp)


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
    """Every exact invariant of S: all three kinds, all powers, all shifts."""
    every = range(1, S.d)
    return tuple(invariant_table(S, every, every))


def _invariant_cells(reps: list[GpmSet], ivs: list[InvariantVector]) -> list[list[int]]:
    """Group classes by invariants, sweeping every probe on collisions.

    The reported fingerprints stick to the default probe set, which can
    be too coarse: two inequivalent commuting triples may agree at every
    default shift yet differ at some other one.  Whenever default keys
    collide, the tied representatives are re-keyed by their full profile
    (every invariant at every power and shift), which keeps the
    separation argument inside the exact-invariant family.  One profile
    is one :func:`gbsclass.pauli.invariant_table` call, about 0.4 ms at
    d = 32, where 12 of the 60 representatives collide.  Cells that stay
    tied after the sweep are returned intact.
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

    Pairs without witnesses take their classes from the divisors of d,
    as the state graph would give them: P and R generate SL(2, Z_d),
    which carries v to (0, gcd(v, d)), and J_2(d/g) vectors have gcd g.
    Witnesses and triples build the graph of :func:`_state`, after the
    caps and the probes are checked.
    """
    _check_dim(d, mode, enum_cap)
    for a in (*(i3_probes or ()), *(power_probes or ())):
        check_probe(a, d)
    size = 2 if mode == "pairs" else 3
    if size == 2 and not emit_witnesses:
        class_roots, sizes = _divisor_classes(d)
    else:
        moves, class_roots, inverse = _state(d, size)
        sizes = np.bincount(inverse)
    C = len(class_roots)

    reps = [
        GpmSet(d, ((0, 0), *(divmod(c, d) for c in codes)))
        for codes in zip(*(c.tolist() for c in _unpack(d, size, class_roots)))
    ]
    ivs = [invariant_vector(S, i3_probes, power_probes) for S in reps]

    cells = _invariant_cells(reps, ivs)

    separated: set[tuple[int, int]] = set()
    notes: set[str] = set()
    pa = prime_power(d)
    if mode == "triples" and pa is not None and pa[1] >= 2:
        p, alpha = pa
        for i, partner, s, t, tp, verdict in _obstruction_scan(d, p, alpha):
            ci, cj = int(inverse[i]), int(inverse[partner])
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
    if emit_witnesses:
        tables = _witness_tables(inverse.shape[0], moves, class_roots)
        starts = _last_states(inverse, C).tolist()
        for ci, r in enumerate(class_roots.tolist()):
            witnesses[ci] = _walk_witness(starts[ci], r, moves, tables)
            if witnesses[ci] is None:
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
    return int(_state(d, 3)[2][_pack(d, m1, m2)])


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
