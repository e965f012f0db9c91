"""Exact dense linear algebra over Gaussian rationals."""

from __future__ import annotations

from .scalars import ONE, ZERO


class RowSpace:
    """Incrementally maintained reduced row echelon span.

    add() returns True when the vector enlarged the span, which is the
    stabilization signal used by closure loops.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list = []  # kept sorted by pivot column, fully reduced
        self.pivots: list = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: list) -> list:
        vec = list(vec)
        for pivot, row in zip(self.pivots, self.rows):
            c = vec[pivot]
            if c:
                for j in range(pivot, self.width):
                    if row[j]:
                        vec[j] = vec[j] - c * row[j]
        return vec

    def contains(self, vec: list) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec: list) -> bool:
        vec = self.reduce(vec)
        pivot = next((j for j, v in enumerate(vec) if v), None)
        if pivot is None:
            return False
        inv = vec[pivot].inverse()
        vec = [v * inv if v else ZERO for v in vec]
        # eliminate the new pivot from existing rows
        for row in self.rows:
            c = row[pivot]
            if c:
                for j in range(pivot, self.width):
                    if vec[j]:
                        row[j] = row[j] - c * vec[j]
        at = next(
            (k for k, p in enumerate(self.pivots) if p > pivot), len(self.pivots)
        )
        self.pivots.insert(at, pivot)
        self.rows.insert(at, vec)
        return True

    def basis(self) -> list:
        return [list(row) for row in self.rows]


def rref(matrix: list, width: int):
    """Reduced row echelon form; returns (rows, pivot columns)."""
    space = RowSpace(width)
    for row in matrix:
        space.add(row)
    return space.basis(), list(space.pivots)


def rank(matrix: list, width: int) -> int:
    space = RowSpace(width)
    for row in matrix:
        space.add(row)
    return space.rank


def nullspace(matrix: list, width: int) -> list:
    """Canonical kernel basis: one vector per free column, entry one there."""
    rows, pivots = rref(matrix, width)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = [ZERO] * width
        vec[free] = ONE
        for pivot, row in zip(pivots, rows):
            if row[free]:
                vec[pivot] = -row[free]
        basis.append(vec)
    return basis


def vectors_equal_span(a: list, b: list, width: int) -> bool:
    space_a = RowSpace(width)
    for v in a:
        space_a.add(v)
    space_b = RowSpace(width)
    for v in b:
        space_b.add(v)
    if space_a.rank != space_b.rank:
        return False
    return all(space_a.contains(v) for v in b)
