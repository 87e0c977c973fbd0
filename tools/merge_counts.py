"""Print the triple component count at each d with each enumerator move left out.

The graph is the witness graph on the divisor rows, ``classify._row_moves``:
its nodes are the triples {I, (0, g), v2} with g | d, and each arrow is
one enumerator move followed by the Euclid carry back into a divisor row.
For each d given, the first line ``d - N key K`` gives N, the number of
components of that graph with every move of ``moves.enumerator_moves``,
and K, the number of classes of the complete key; where N is larger, a
merge is missing from the moves (d = 24: 72 against 71).  Then one line
``d label count`` per move gives the component count with that move left
out.  A move whose line shows the full count adds no merge that the
other moves and the carry do not make, though it may still be needed
jointly with another such move.  The carry is a word in P, R and V, so
it keeps joining Clifford orbits when P or R is left out.  A d whose
universe of triples exceeds ``classify.MAX_STATES`` is refused before
any work, as the enumeration refuses it.  d = 64 takes about 1 s on a
2-core box.

    PYTHONPATH=src python3 tools/merge_counts.py 16 27 32 64
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from gbsclass.classify import _check_dim, _components, _key_rows, _row_moves


def merge_counts(d: int) -> list[tuple[str, int]]:
    """("-", components with every move), then (label, components without it) per move."""
    moves = _row_moves(d)
    triple = np.concatenate(list(_key_rows(d).index.values())) >= 0
    n = triple.size

    def count(kept: list) -> int:
        return int(np.count_nonzero(triple & (_components(n, kept) == np.arange(n))))

    return [("-", count(moves))] + [(label, count(moves[:i] + moves[i + 1:]))
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
        (_, full), *dropped = merge_counts(d)
        print(d, "-", full, "key", len(_key_rows(d).roots), flush=True)
        for label, count in dropped:
            print(d, label, count, flush=True)


if __name__ == "__main__":
    main()
