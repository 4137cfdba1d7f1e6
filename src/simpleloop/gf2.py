"""Dense linear algebra over GF(2) with rows stored as integer bitmasks.

Bit i of a row integer is the entry in column i.  All operations are
deterministic: pivots are always chosen as the first nonzero entry in
column order, so echelon forms, kernels and quotient coordinates come
out identical from run to run.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "Echelon",
    "GF2Matrix",
    "rank",
    "rref",
    "kernel_basis",
    "QuotientMap",
]


class GF2Matrix(NamedTuple("GF2Matrix", [("rows", int), ("cols", int), ("data", tuple)])):
    """Matrix over GF(2); rows[i] is an integer bitmask of width cols."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, data: tuple[int, ...]):
        if rows != len(data):
            raise ValueError("row count does not match data")
        mask = (1 << cols) - 1
        for r in data:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the column range")
        return super().__new__(cls, rows, cols, data)


def rref(rows: list[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of rows given as bitmasks.

    Returns (reduced nonzero rows, pivot column per row), pivots in
    increasing column order.
    """
    ech = Echelon()
    for r in rows:
        ech.insert(r, 0)
    pivots = sorted(ech.rows)
    # Reducing a row without its pivot bit only uses rows with higher pivots.
    reduced = [p | ech.reduce(ech.rows[p][0] ^ p)[0] for p in pivots]
    return reduced, [p.bit_length() - 1 for p in pivots]


def rank(m: GF2Matrix) -> int:
    """Rank of the matrix."""
    return len(rref(list(m.data))[0])


def kernel_basis(m: GF2Matrix) -> list[int]:
    """Basis of the right kernel {x : M x = 0}, as column bitmasks.

    One basis vector per free column, in increasing column order;
    empty list when the kernel is trivial.
    """
    reduced, pivots = rref(list(m.data))
    pivot_set = set(pivots)
    basis: list[int] = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for row, piv in zip(reduced, pivots):
            if (row >> free) & 1:
                v |= 1 << piv
        basis.append(v)
    return basis


class Echelon:
    """Echelon rows over GF(2), keyed by pivot (the lowest set bit of a row).

    Every row carries a tag, XORed into the result whenever the row is used.
    """

    def __init__(self):
        self.rows: dict[int, tuple[int, int]] = {}
        self.mask = 0

    def reduce(self, vec: int) -> tuple[int, int]:
        """Clear every pivot bit of vec; returns (remainder, tag sum).

        Pivot bits are cleared lowest first; a row only touches bits at or
        above its pivot, so the remainder is the unique reduced form.
        """
        tag = 0
        hits = vec & self.mask
        while hits:
            row, t = self.rows[hits & -hits]
            vec ^= row
            tag ^= t
            hits = vec & self.mask
        return vec, tag

    def insert(self, vec: int, tag: int) -> int | None:
        """Add vec with a tag; None when it is independent of the rows so far.

        A dependent vec adds no row; the tag sum it reduces to is returned.
        """
        rem, t = self.reduce(vec)
        if rem == 0:
            return t
        pivot = rem & -rem
        self.rows[pivot] = (rem, tag ^ t)
        self.mask |= pivot
        return None


class QuotientMap:
    """Coordinates on a quotient space cycles/boundaries over GF(2).

    Holds an echelon structure built from a spanning set of the
    boundary subspace followed by the cycle basis; each echelon row
    carries a tag recording which quotient coordinates it contributes.
    Reducing a cycle against the echelon and XORing the tags gives its
    coordinates, which vanish exactly on the boundary span and identify
    the quotient with bitmasks of width ``dim``.

    Args:
        cycles: basis of the cycle subspace, as bitmask vectors.
        boundaries: spanning set of the boundary subspace; must lie in
            the span of ``cycles``.

    Attributes:
        dim: dimension of the quotient; the input cycle that opens
            coordinate j has coordinates exactly ``1 << j``.
    """

    def __init__(self, cycles: list[int], boundaries: list[int]):
        cycle_span = Echelon()
        for c in cycles:
            cycle_span.insert(c, 0)
        for b in boundaries:
            if cycle_span.reduce(b)[0]:
                raise ValueError("boundary vector outside the cycle span")
        self._echelon = Echelon()
        for b in boundaries:
            self._echelon.insert(b, 0)
        self.dim = 0
        for z in cycles:
            if self._echelon.insert(z, 1 << self.dim) is None:
                self.dim += 1
