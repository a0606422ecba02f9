"""Partitions, multi-indices and the combinatorics every formula leans on.

A multi-index is a plain tuple of nonnegative ints; the componentwise
partial order and weight helpers below operate on those.  Partitions are
immutable (a tuple subclass) with trailing zeros stripped on construction.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, wraps


class Partition(tuple):
    """Weakly decreasing sequence of positive integers; () is empty."""

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        if parts and parts[-1] < 0:
            raise ValueError("parts must be nonnegative: %r" % (parts,))
        return super().__new__(cls, (p for p in parts if p))

    # -- basic statistics ---------------------------------------------------

    def weight(self) -> int:
        return sum(self)

    def length(self) -> int:
        return len(self)

    def conjugate(self) -> "Partition":
        if not self:
            return Partition()
        return Partition(sum(1 for p in self if p >= j) for j in range(1, self[0] + 1))

    def prepend(self, m: int) -> "Partition":
        """The partition (m, self); m must dominate the current first row."""
        if self and m < self[0]:
            raise ValueError("cannot prepend a row of %d to %r" % (m, self))
        if m < 0:
            raise ValueError("row length must be nonnegative")
        return Partition((m,) + tuple(self))

    def padded(self, n: int) -> tuple:
        if len(self) > n:
            raise ValueError("partition longer than %d" % n)
        return tuple(self) + (0,) * (n - len(self))

    # -- diagram ------------------------------------------------------------

    def cells(self):
        """All (row, col) cells of the Young diagram, 1-based."""
        for i, p in enumerate(self, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def arm_leg(self, cell) -> tuple:
        """(arm, leg) of a cell: boxes strictly right of / below it."""
        i, j = cell
        if not (1 <= i <= len(self) and 1 <= j <= self[i - 1]):
            raise ValueError("cell %r outside the diagram of %r" % (cell, self))
        arm = self[i - 1] - j
        leg = sum(1 for p in self[i:] if p >= j)
        return arm, leg

    # -- orders ---------------------------------------------------------------

    def dominates(self, other: "Partition") -> bool:
        """Dominance order on partitions of equal weight."""
        if self.weight() != other.weight():
            raise ValueError("dominance compares partitions of equal weight")
        acc_s = acc_o = 0
        for a, b in itertools.zip_longest(self, other, fillvalue=0):
            acc_s += a
            acc_o += b
            if acc_s < acc_o:
                return False
        return True

    # -- serialization ----------------------------------------------------------

    def to_string(self) -> str:
        return ",".join(str(p) for p in self)

    def __repr__(self):
        return "Partition(%s)" % (self.to_string() or "0")


def parse_partition(s: str) -> Partition:
    """Parse the comma-joined form; '' and '0' both denote the empty partition."""
    s = s.strip()
    if s in ("", "0"):
        return Partition()
    return Partition(int(p) for p in s.split(","))


def memo_per_partition(fn):
    """Memoize fn(lam, n) per (Partition(lam), n) for the life of the process.

    The partition is normalized before the lookup, so a list, a tuple and a
    Partition with the same parts share one entry.
    """
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def memo(lam, n):
        return cached(Partition(lam), n)

    return memo


def partitions_of(d: int, max_len: int | None = None, max_part: int | None = None):
    """All partitions of d with the given bounds, in descending-lex order."""
    if d < 0:
        return
    first_cap = d if max_part is None else min(d, max_part)

    def rec(rem, cap, acc):
        if rem == 0:
            yield Partition(acc)
            return
        if max_len is not None and len(acc) >= max_len:
            return
        for p in range(min(cap, rem), 0, -1):
            yield from rec(rem - p, p, acc + [p])

    yield from rec(d, first_cap, [])


def dominance_order_list(d: int, n: int) -> list:
    """Partitions of d with at most n rows, in a linear extension of dominance.

    Sorted ascending-lexicographically on the parts, which refines dominance
    (equal-weight prefix sums compare the same way) and breaks incomparable
    pairs reverse-lexicographically.  Deterministic by construction.
    """
    return sorted(partitions_of(d, max_len=n))


def dominance_downset(lam: Partition, n: int) -> list:
    """Partitions mu <= lam in dominance with at most n rows, ascending."""
    return [mu for mu in dominance_order_list(lam.weight(), n) if lam.dominates(mu)]


def partitions_in_box(n_rows: int, n_cols: int):
    """All partitions with at most n_rows rows and parts at most n_cols."""
    out = []
    for d in range(n_rows * n_cols + 1):
        out.extend(partitions_of(d, max_len=n_rows, max_part=n_cols))
    return out


# -- multi-indices (plain tuples in N^n) ---------------------------------------


def mi_weight(a) -> int:
    return sum(a)


def mi_leq(a, b) -> bool:
    """Componentwise partial order on multi-indices of equal length."""
    if len(a) != len(b):
        raise ValueError("multi-index length mismatch")
    return all(x <= y for x, y in zip(a, b))


def mi_sub(a, b) -> tuple:
    if not mi_leq(b, a):
        raise ValueError("%r is not componentwise below %r" % (b, a))
    return tuple(x - y for x, y in zip(a, b))


def weak_compositions(m: int, n: int) -> list:
    """All alpha in N^n with |alpha| = m, reverse-lex: (m,0,..,0) first."""
    if m < 0:
        return []
    if n == 0:
        return [()] if m == 0 else []
    if n == 1:
        return [(m,)]
    out = []
    for first in range(m, -1, -1):
        out.extend((first,) + rest for rest in weak_compositions(m - first, n - 1))
    return out


def multi_indices_upto(m: int, n: int) -> list:
    """All alpha in N^n with |alpha| <= m, graded by weight then reverse-lex."""
    out = []
    for w in range(m + 1):
        out.extend(weak_compositions(w, n))
    return out


def box_below(alpha) -> list:
    """All beta <= alpha componentwise, graded by weight then reverse-lex."""
    betas = sorted(
        itertools.product(*(range(a + 1) for a in alpha)),
        key=lambda b: (sum(b), tuple(-x for x in b)),
    )
    return betas
