"""The triple state graph, kept as the reference for the row-graph witnesses.

The package takes triple classes from the key rows and witnesses from a
graph on the divisor rows, and builds no states.  This is the graph that
path replaced: the enumerator moves on every normalized triple
{I, v1, v2}, each numbered as a state by the ``triu`` rank of the codes
x*d + z of v1 and v2, with components found as for the row graph.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from gbsclass.classify import _array_tables, _arrows, _classes, _components
from gbsclass.moves import enumerator_moves


@lru_cache(maxsize=16)
def offsets(d: int) -> np.ndarray:
    """The row offsets of the state numbering: off[c1] = state(c1, c2) - c2.

    States are the ``triu`` ranks of the two codes 0 < c1 < c2 < d*d:
    row c1 holds the d*d - 1 - c1 states with that least code, in order
    of c2.  One int32 entry per code, which holds every state while the
    count stays under 2**31; read-only, since it is cached.
    """
    n = d * d - 1
    off = np.zeros(d * d, dtype=np.int32)
    np.cumsum(np.arange(n - 1, 0, -1), out=off[2:])
    off -= np.arange(1, d * d + 1, dtype=np.int32)
    off.flags.writeable = False
    return off


def pack(d: int, c1, c2):
    """The state of a triple, from the codes x*d + z of its two other members.

    One gather in the table of :func:`offsets`; codes are ints or int
    arrays, and int32 codes give int32 states.
    """
    return offsets(d)[np.minimum(c1, c2)] + np.maximum(c1, c2)


def unpack(d: int, states: np.ndarray) -> list[np.ndarray]:
    """The inverse of :func:`pack`: per state, the codes of its members.

    The row of a state is found among the int32 row starts state(c1, c1 + 1).
    """
    off = offsets(d)
    starts = off[1:-1] + np.arange(2, d * d, dtype=np.int32)
    c1 = np.searchsorted(starts, states, side="right")
    return [c1, states - off[c1]]


def triple_moves(d: int) -> list:
    """Every enumerator move as arrows on the states, all in int32.

    The codes of every state are read off the rows of :func:`offsets`,
    each guard is evaluated on every state, and each image set is
    numbered by :func:`pack`.
    """
    n = d * d - 1
    states = np.arange(math.comb(n, 2), dtype=np.int32)
    c1 = np.repeat(np.arange(1, n, dtype=np.int32), np.arange(n - 1, 0, -1))
    c2 = states - offsets(d)[c1]
    universe = [(0, 0), np.divmod(c1, d), np.divmod(c2, d)]
    del c1, c2
    arrows = []
    for mv in enumerator_moves(d, _array_tables(d)):
        src, members = states, universe
        if mv.guard is not None:
            keep = np.flatnonzero(mv.guard(universe))
            src = states[keep]
            members = [universe[0], *((a[keep], b[keep]) for a, b in universe[1:])]
        _, *images = mv.image(members)
        arrows.append(_arrows(mv.label, src,
                              pack(d, *((a % d) * d + (b % d) for a, b in images))))
    return arrows


@lru_cache(maxsize=1)
def triple_graph(d: int) -> tuple[list, np.ndarray, np.ndarray]:
    """Moves as arrows, component roots and component index of the triples at d.

    Only the latest d is kept.
    """
    moves = triple_moves(d)
    return (moves, *_classes(_components(math.comb(d * d - 1, 2), moves)))


def last_states(inverse: np.ndarray, count: int) -> np.ndarray:
    """The largest state index in each component."""
    last = np.zeros(count, dtype=np.int64)
    np.maximum.at(last, inverse, np.arange(inverse.shape[0]))
    return last
