"""Canonical subset labels used to index matrix rows and columns.

Every labeled matrix in this package indexes its rows/columns by
m-element subsets of {1, ..., d}, listed in lexicographic order of the
sorted member tuple. Member values are 1-based; ranks are 0-based.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations


class OutOfRange(ValueError):
    """Rank or subset outside the enumerated range."""


def position(members, x: int) -> int:
    """Number of elements of *members* that are <= x.

    When x is a member this is its 1-based position in the sorted subset;
    sign conventions throughout the package use (-1)**position(...).
    """
    return sum(1 for y in members if y <= x)


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the convention C(a, b) = 0 for b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


class Subsets:
    """All m-subsets of {1..d} in lexicographic order, with O(1) rank lookup."""

    __slots__ = ("d", "m", "ordering", "_ranks")

    def __init__(self, d: int, m: int):
        if not 0 <= m <= d:
            raise OutOfRange(f"need 0 <= m <= d, got m={m}, d={d}")
        self.d = d
        self.m = m
        self.ordering: tuple[tuple[int, ...], ...] = tuple(
            combinations(range(1, d + 1), m)
        )
        self._ranks = {s: i for i, s in enumerate(self.ordering)}

    def rank(self, members) -> int:
        """0-based position of a subset in the lexicographic ordering."""
        try:
            return self._ranks[tuple(members)]
        except KeyError:
            raise OutOfRange(f"{tuple(members)} is not an {self.m}-subset of [1, {self.d}]") from None

    def unrank(self, index: int) -> tuple[int, ...]:
        """Subset at a 0-based position; inverse of rank."""
        if not 0 <= index < len(self.ordering):
            raise OutOfRange(f"index {index} not in [0, {len(self.ordering)})")
        return self.ordering[index]

    def __len__(self):
        return len(self.ordering)

    def __iter__(self):
        return iter(self.ordering)

    def __repr__(self):
        return f"Subsets(d={self.d}, m={self.m})"


@lru_cache(maxsize=None)
def subsets(d: int, m: int) -> Subsets:
    """Shared, cached Subsets instance for (d, m)."""
    return Subsets(d, m)


@lru_cache(maxsize=None)
def incidence(d: int, k: int) -> tuple[tuple[int, int, int, int], ...]:
    """The package's one sign rule, as a table; needs 1 <= k <= d.

    One entry (rank of K, x, rank of K - {x}, sign) per k-subset K of [1, d],
    in lexicographic order, and member x of K, ascending; the ranks are in
    subsets(d, k) and subsets(d, k - 1), and sign = (-1)**position(K, x).
    The repair matrix, the message matrix's parity groups and the repair
    readout all read it.
    """
    smaller = subsets(d, k - 1)
    return tuple(
        (r, x, smaller.rank(K[:i] + K[i + 1 :]), (-1) ** position(K, x))
        for r, K in enumerate(subsets(d, k).ordering)
        for i, x in enumerate(K)
    )
