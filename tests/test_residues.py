"""Modular arithmetic and residue-orbit helpers."""

from __future__ import annotations

import pytest

from gbsclass.residues import (
    BRACKET,
    DOUBLE,
    OutOfRange,
    bracket_class,
    bracket_partition,
    count_quadratic_check,
    factorize,
    prime_power,
    solve_self_inverse,
)


def test_factorize_known_values() -> None:
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(2) == [(2, 1)]
    assert factorize(1024) == [(2, 10)]


def test_factorize_range_check() -> None:
    with pytest.raises(OutOfRange):
        factorize(1)
    with pytest.raises(OutOfRange):
        factorize(10**6 + 1)


def test_prime_power_detection() -> None:
    assert prime_power(7) == (7, 1)
    assert prime_power(8) == (2, 3)
    assert prime_power(27) == (3, 3)
    assert prime_power(32) == (2, 5)
    assert prime_power(12) is None
    assert prime_power(36) is None


def test_bracket_class_is_an_orbit() -> None:
    """Every member of a class generates the same class."""
    for d in (5, 8, 9, 16, 25, 27):
        for kind in (BRACKET, DOUBLE):
            for x in range(2, d):
                cls = bracket_class(x, d, kind)
                assert cls.members[0] == cls.canonical
                assert x in cls.members
                for y in cls.members:
                    assert bracket_class(y, d, kind).members == cls.members


def test_bracket_partition_covers_residues() -> None:
    for d in (5, 7, 8, 9, 25, 27):
        for kind in (BRACKET, DOUBLE):
            classes = bracket_partition(d, kind)
            seen = sorted(x for cls in classes for x in cls)
            assert seen == list(range(2, d))


def test_bracket_partitions_frozen() -> None:
    assert bracket_partition(9, BRACKET) == [(2, 5, 8), (3, 4, 6, 7)]
    assert bracket_partition(5, BRACKET) == [(2, 3, 4)]
    assert bracket_partition(25, BRACKET) == [
        (2, 13, 24),
        (3, 9, 12, 14, 17, 23),
        (4, 7, 8, 18, 19, 22),
        (5, 6, 20, 21),
        (10, 11, 15, 16),
    ]
    assert bracket_partition(27, BRACKET) == [
        (2, 14, 26),
        (3, 13, 15, 25),
        (4, 7, 21, 24),
        (5, 8, 11, 17, 20, 23),
        (6, 12, 16, 22),
        (9, 10, 18, 19),
    ]


def test_double_partitions_frozen() -> None:
    # the three-map orbit is finer than the six-map one
    assert bracket_partition(8, DOUBLE) == [(2, 7), (3, 6), (4, 5)]
    assert bracket_partition(9, DOUBLE) == [(2, 5, 8), (3, 4), (6, 7)]
    assert bracket_class(3, 9, DOUBLE).members == (3, 4)
    assert bracket_class(6, 9, DOUBLE).members == (6, 7)


def test_bracket_class_rejects_bad_input() -> None:
    with pytest.raises(OutOfRange):
        bracket_class(2, 2, BRACKET)
    with pytest.raises(OutOfRange):
        bracket_class(1, 9, BRACKET)
    with pytest.raises(OutOfRange):
        bracket_class(9, 9, BRACKET)
    with pytest.raises(OutOfRange):
        bracket_class(3, 9, "sextuple")


def test_self_inverse_counts() -> None:
    """x^2 - x + 1 has two roots iff p = 1 mod 6 (lifting to prime powers)."""
    assert solve_self_inverse(7, 1) == {3, 5}
    assert solve_self_inverse(7, 2) == {19, 31}
    assert solve_self_inverse(13, 1) == {4, 10}
    assert solve_self_inverse(31, 1) == {6, 26}
    for p, alpha in ((5, 1), (5, 2), (2, 3), (3, 3), (11, 1)):
        assert solve_self_inverse(p, alpha) == set()
    assert solve_self_inverse(3, 1) == {2}


def test_self_inverse_roots_actually_solve() -> None:
    for p, alpha in ((7, 1), (7, 2), (13, 1), (31, 1), (3, 1)):
        m = p**alpha
        for x in solve_self_inverse(p, alpha):
            assert (x * x - x + 1) % m == 0


def test_solve_self_inverse_range() -> None:
    with pytest.raises(OutOfRange):
        solve_self_inverse(7, 0)
    with pytest.raises(OutOfRange):
        solve_self_inverse(2, 21)  # 2**21 exceeds the factor cap


def test_count_quadratic_check() -> None:
    for p, alpha in ((7, 1), (7, 2), (13, 1), (31, 1), (5, 1), (5, 2),
                     (2, 3), (3, 1), (3, 3), (11, 1)):
        assert count_quadratic_check(p, alpha)
