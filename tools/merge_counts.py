"""Print the triple component count at each d with each enumerator move left out.

For each d given, the first line ``d - N key K`` gives N, the number of
components of the move graph with every move of
``moves.enumerator_moves``, and K, the number of classes of the complete
key; where N is larger, a merge is missing from the moves (d = 24: 72
against 71).  Then one line ``d label count`` per move gives the
component count with that move left out.  A move whose line shows the
full count adds no merge that the other moves do not make, though it
may still be needed jointly with another such move.  A d whose universe
of triples exceeds ``classify.MAX_STATES`` is refused before any work,
as the enumeration refuses it.  d = 64 takes about 35 s and 1 GB on a
2-core box.

    PYTHONPATH=src python3 tools/merge_counts.py 16 27 32 64
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from gbsclass.classify import _check_dim, _components, _key_rows, _state


def merge_counts(d: int) -> list[tuple[str, int]]:
    """("-", components with every move), then (label, components without it) per move."""
    moves, comp_roots, _ = _state(d)
    n = math.comb(d * d - 1, 2)
    counts = [("-", int(comp_roots.size))]
    for i, (label, _, _) in enumerate(moves):
        roots = _components(n, moves[:i] + moves[i + 1:])
        counts.append((label, int(np.count_nonzero(roots == np.arange(n)))))
    return counts


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
