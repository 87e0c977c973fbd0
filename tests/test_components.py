"""Connected components of move arrows against a scalar union-find."""

from __future__ import annotations

import random

import numpy as np
import pytest

from gbsclass.classify import _components


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
