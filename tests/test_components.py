"""Connected components and witness levels of move arrows, against references.

Components are checked against a scalar union-find.  The witness layer's
level scan, :func:`_levels`, is checked against a reference level scan
that records per state the first arrow into the previous level (``nxt``)
and its move index (``lab``): the distances must be equal, and so must
``step`` and ``lab`` on every state a root is reachable from, the tables
the witness words are walked from.  The test-side walk of the pair
witnesses finds a move's arrow from a node by binary search, which needs
each move's sources in ascending order; that is checked on the row graph
the witnesses walk and on the test-side triple and pair graphs.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from gbsclass.classify import _components, _levels, _row_moves

from pair_graph import pair_graph
from triple_graph import triple_graph


def _reference_roots(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Union-find that always keeps the smaller root, one edge at a time."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return [find(i) for i in range(n)]


def _move(label: str, edges: list[tuple[int, int]]) -> tuple[str, np.ndarray, np.ndarray]:
    src = np.array([u for u, _ in edges], dtype=np.int32)
    dst = np.array([v for _, v in edges], dtype=np.int32)
    return label, src, dst


def _check(n: int, moves: list) -> None:
    roots = _components(n, moves).tolist()
    edges = [(u, v) for _, src, dst in moves for u, v in zip(src.tolist(), dst.tolist())]
    assert roots == _reference_roots(n, edges)
    members: dict[int, list[int]] = {}
    for i, r in enumerate(roots):
        members.setdefault(r, []).append(i)
    for r, group in members.items():
        assert r == min(group)


@pytest.mark.parametrize("seed", range(12))
def test_random_graphs(seed: int) -> None:
    rng = random.Random(seed)
    n = rng.randint(2, 300)
    moves = []
    for k in range(rng.randint(1, 5)):
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        moves.append(_move(f"M{k}", [(u, v) for u, v in edges if u != v]))
    _check(n, moves)


@pytest.mark.parametrize("order", ["descending", "interleaved", "shuffled"])
def test_long_paths(order: str) -> None:
    n = 2000
    if order == "descending":
        path = list(range(n - 1, -1, -1))
    elif order == "interleaved":
        path = [x for i in range(n // 2) for x in (i, n - 1 - i)]
    else:
        path = list(range(n))
        random.Random(7).shuffle(path)
    edges = list(zip(path, path[1:]))
    _check(n, [_move("A", edges[::2]), _move("B", edges[1::2])])
    _check(n, [_move("A", [(v, u) for u, v in edges])])


def test_duplicate_arrows() -> None:
    edges = [(5, 1), (5, 1), (1, 5), (3, 2), (2, 3), (3, 2)]
    _check(7, [_move("A", edges), _move("B", edges), _move("C", [(6, 4)] * 3)])


def test_no_arrows() -> None:
    _check(1, [])
    _check(4, [])
    _check(4, [_move("A", []), _move("B", [])])
    assert _components(1, []).tolist() == [0]


# ---------------------------------------------------------------------------
# Witnesses.
# ---------------------------------------------------------------------------


def _reference_witness_tables(n: int, moves: list, rep_slots) -> tuple:
    """Level scan: at each level visit the moves in list order, and let a
    state take the first arrow that reaches the previous level."""
    dist = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, -1, dtype=np.int64)
    lab = np.full(n, -1, dtype=np.int64)
    dist[rep_slots] = 0
    level = 0
    while True:
        changed = False
        for li, (_, src, dst) in enumerate(moves):
            hit = (dist[src] == -1) & (dist[dst] == level)
            if hit.any():
                states = src[hit]
                dist[states] = level + 1
                nxt[states] = dst[hit]
                lab[states] = li
                changed = True
        if not changed:
            return dist, nxt, lab
        level += 1


def _check_witness_tables(n: int, moves: list, rep_slots) -> None:
    """Distances equal the reference's, and so do the step moves past level 0."""
    roots = np.asarray(rep_slots, dtype=np.int64)
    dist, step = _levels(n, moves, roots)
    want_dist, _, want_lab = _reference_witness_tables(n, moves, roots)
    assert dist.shape == step.shape == (n,)
    assert np.array_equal(dist, want_dist)
    assert np.array_equal(step[dist > 0], want_lab[dist > 0])


def _partial_move(rng: random.Random, label: str, n: int, targets: list[int]) -> tuple:
    """A partial function on the states: one arrow per source, none fixed,
    sources ascending as in the enumerator's moves."""
    sources = sorted(rng.sample(range(n), rng.randint(0, n)))
    return _move(label, [(u, v) for u in sources if (v := rng.choice(targets)) != u])


@pytest.mark.parametrize("seed", range(24))
def test_witness_tables_random_arrows(seed: int) -> None:
    rng = random.Random(seed)
    n = rng.randint(1, 400)
    # a few shared images make many arrows of different moves meet
    targets = rng.sample(range(n), rng.randint(1, min(n, 8))) if seed % 3 == 0 else list(range(n))
    moves = [_partial_move(rng, f"M{k}", n, targets) for k in range(rng.randint(1, 16))]
    roots = rng.sample(range(n), rng.randint(1, min(n, 6)))
    _check_witness_tables(n, moves, roots)


def test_witness_tables_edge_cases() -> None:
    _check_witness_tables(5, [], [0, 3])
    _check_witness_tables(5, [_move("A", []), _move("B", [])], [2])
    # unreachable states 4 and 5; 3 reaches the root through A and B, so A wins
    moves = [_move("A", [(1, 0), (3, 1)]), _move("B", [(2, 0), (3, 2), (4, 5)])]
    _check_witness_tables(6, moves, [0])
    dist, step = _levels(6, moves, np.array([0]))
    assert dist.tolist() == [0, 1, 1, 2, -1, -1]
    assert step[1:4].tolist() == [0, 1, 0]


@pytest.mark.parametrize("d", [8, 9, 16, 25])
def test_witness_tables_triples(d: int) -> None:
    moves, roots, inverse = triple_graph(d)
    _check_witness_tables(inverse.shape[0], moves, roots)


@pytest.mark.parametrize("d", [9, 64])
def test_witness_tables_pairs(d: int) -> None:
    moves, roots, _ = pair_graph(d)
    _check_witness_tables(d * d, moves, roots)


@pytest.mark.parametrize("d", [8, 9, 12, 16, 25, 27, 32])
def test_move_sources_ascending(d: int) -> None:
    """Each move has one arrow per source, in ascending order, which the
    walk of ``test_pair_witnesses_match_the_state_graph`` relies on to
    find an arrow by binary search."""
    for graph, moves in (("rows", _row_moves(d)), ("triples", triple_graph(d)[0]),
                         ("pairs", pair_graph(d)[0])):
        for label, src, _ in moves:
            assert np.all(np.diff(src) > 0), (graph, d, label)
