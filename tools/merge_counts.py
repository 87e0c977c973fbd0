"""Print the triple component and no-path counts at each d with each enumerator move left out.

The graph is the witness graph on the divisor rows, ``classify._row_moves``:
its nodes are the triples {I, (0, g), v2} with g | d, and each arrow is
one enumerator move followed by the Euclid carry back into a divisor row.
For each d given, the first line ``d - N key K no-path M`` gives N, the
number of components of that graph with every move of
``moves.enumerator_moves``, K, the number of classes of the complete
key, and M, the number of classes whose witness walk has no directed
path from its start to its root (``_levels`` leaves the start at
distance -1).  Where N is larger than K, a merge is missing from the
moves (d = 24: 72 against 71).  Then one line ``d label N M`` per move
gives the two counts with that move left out.  A move whose line shows
the full component count adds no merge that the other moves and the
carry do not make, though it may still be needed jointly with another
such move; it can also still be needed for witness paths, where M rises.
P is such a move: without it the component count stays full at every d
in 4..128, but M rises at 47 of them, all even, from 0 to 1 at d = 6 and
from 2 to 8 at d = 112.  The carry is a word in P, R and V, so it keeps
joining Clifford orbits when P or R is left out.  A d whose universe of
triples exceeds ``classify.MAX_STATES`` is refused before any work, as
the enumeration refuses it.  d = 64 takes about 0.5 s on a 2-core box.

    PYTHONPATH=src python3 tools/merge_counts.py 16 27 32 64
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from gbsclass.classify import _check_dim, _components, _key_rows, _row_moves, _witness_levels


def merge_counts(d: int) -> list[tuple[str, int, int]]:
    """("-", components, no-path classes) with every move, then the same per move left out."""
    rows = _key_rows(d)
    moves = _row_moves(d)
    triple = rows.klass >= 0
    n = triple.size

    def count(kept: list) -> tuple[int, int]:
        starts, dist, _ = _witness_levels(d, rows, kept)
        return (int(np.count_nonzero(triple & (_components(n, kept) == np.arange(n)))),
                int(np.count_nonzero(dist[starts] < 0)))

    return [("-", *count(moves))] + [(label, *count(moves[:i] + moves[i + 1:]))
                                     for i, (label, _, _) in enumerate(moves)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dims", nargs="+", type=int, metavar="d")
    args = parser.parse_args()
    for d in args.dims:
        try:
            _check_dim(d, "triples", d)
        except ValueError as exc:
            sys.exit(f"merge_counts: {exc}")
    for d in args.dims:
        (_, full, no_path), *dropped = merge_counts(d)
        print(d, "-", full, "key", len(_key_rows(d).roots), "no-path", no_path, flush=True)
        for label, count, no_path in dropped:
            print(d, label, count, no_path, flush=True)


if __name__ == "__main__":
    main()
