"""The pair state graph, kept as the reference for the divisor-lattice pairs.

The package classifies pairs {I, v} from the divisors of d and builds no
states for them.  This is the graph that path replaced: the enumerator
moves P, R and PIVOT(1) on all d*d pairs, each numbered by the code
x*d + z of v, with components found as for triples.
"""

from __future__ import annotations

import numpy as np

from gbsclass.classify import _arrows, _classes, _components
from gbsclass.moves import enumerator_moves


def pair_graph(d: int) -> tuple[list, np.ndarray, np.ndarray]:
    """Moves as arrows, class roots and class index of the pairs at d."""
    codes = np.arange(d * d)
    pairs = [(0, 0), (codes // d, codes % d)]
    moves = []
    for mv in enumerator_moves(d):
        _, (x, z) = mv.image(pairs)
        moves.append(_arrows(mv.label, codes, (x % d) * d + z % d))
    return (moves, *_classes(_components(d * d, moves)))
