import math

import pytest

from detcode.subsets import OutOfRange, Subsets, binom, incidence, position, subsets


def test_position_goldens():
    assert position((2, 4), 2) == 1
    assert position((2, 4), 4) == 2
    assert position((2, 4), 3) == 1
    assert position((2, 4), 1) == 0
    assert position((), 5) == 0


def test_position_of_max_is_size():
    for members in subsets(6, 3):
        assert position(members, max(members)) == len(members)


def test_binom_goldens():
    assert binom(4, 2) == 6
    assert binom(6, 7) == 0
    assert binom(11, 4) == 330
    assert binom(11, 4) == math.factorial(11) // (math.factorial(4) * math.factorial(7))
    assert binom(5, -1) == 0
    assert binom(-2, 0) == 0
    assert binom(0, 0) == 1


def test_lexicographic_ordering_golden():
    assert subsets(4, 2).ordering == (
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 3),
        (2, 4),
        (3, 4),
    )


def test_empty_and_full_subsets():
    assert subsets(4, 0).ordering == ((),)
    assert subsets(4, 4).ordering == ((1, 2, 3, 4),)


def test_rank_golden():
    assert subsets(4, 2).rank((2, 4)) == 4


def test_rank_unrank_roundtrip_exhaustive():
    for d in range(13):
        for m in range(d + 1):
            space = subsets(d, m)
            assert len(space) == binom(d, m)
            for i, members in enumerate(space):
                assert space.rank(members) == i
                assert space.unrank(i) == members


def test_out_of_range_errors():
    space = subsets(4, 2)
    with pytest.raises(OutOfRange):
        space.rank((1, 5))
    with pytest.raises(OutOfRange):
        space.rank((2, 1))  # not sorted, not a canonical label
    with pytest.raises(OutOfRange):
        space.unrank(6)
    with pytest.raises(OutOfRange):
        space.unrank(-1)
    with pytest.raises(OutOfRange):
        Subsets(3, 4)


def test_shared_instances_are_cached():
    assert subsets(5, 2) is subsets(5, 2)
    assert incidence(5, 2) is incidence(5, 2)


def test_incidence_is_the_sign_rule_exhaustive():
    for d in range(1, 9):
        for k in range(1, d + 1):
            table = incidence(d, k)
            members, smaller = subsets(d, k), subsets(d, k - 1)
            assert len(table) == k * binom(d, k)
            assert [(r, x) for r, x, _, _ in table] == [
                (r, x) for r, big in enumerate(members) for x in big
            ]
            for r, x, rest, sign in table:
                big = members.unrank(r)
                assert sign == (-1) ** position(big, x)
                assert rest == smaller.rank(tuple(y for y in big if y != x))
