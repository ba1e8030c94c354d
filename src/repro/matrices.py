"""Boolean reachability matrices and the fast-powering structure of Lemma 5.

All dependency and reachability information the labeling scheme manipulates
is expressed as small boolean matrices: entry ``[x, y]`` (0-based internally,
exposed 1-based through :meth:`BoolMatrix.get`) states that port ``y`` is
reachable from port ``x``.  The matrices are tiny — bounded by the maximum
number of ports of a module in the specification — so a dense numpy
representation is used.

:class:`MatrixPowerTable` implements the observation behind Lemma 5: because
a boolean ``c x c`` matrix can take at most ``2^(c*c)`` values, the sequence
``X, X^2, X^3, ...`` eventually repeats; once indices ``a < b`` with
``X^a = X^b`` are known, any power ``X^m`` can be returned in constant time.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["BoolMatrix", "MatrixPowerTable", "chain_product"]


class BoolMatrix:
    """A dense boolean matrix with boolean (AND/OR) multiplication."""

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray | Sequence[Sequence[int]]) -> None:
        array = np.asarray(data, dtype=bool)
        if array.ndim != 2:
            raise ValueError("BoolMatrix requires a 2-dimensional array")
        self._data = array

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BoolMatrix":
        return cls(np.zeros((rows, cols), dtype=bool))

    @classmethod
    def ones(cls, rows: int, cols: int) -> "BoolMatrix":
        return cls(np.ones((rows, cols), dtype=bool))

    @classmethod
    def identity(cls, size: int) -> "BoolMatrix":
        return cls(np.eye(size, dtype=bool))

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[int, int]], rows: int, cols: int
    ) -> "BoolMatrix":
        """Build from 1-based ``(row, col)`` pairs (e.g. dependency edges)."""
        data = np.zeros((rows, cols), dtype=bool)
        for pair in pairs:
            if len(pair) != 2:
                raise ValueError("from_pairs expects (row, col) pairs")
            row, col = pair
            if not (1 <= row <= rows and 1 <= col <= cols):
                raise ValueError(f"pair ({row}, {col}) outside a {rows}x{cols} matrix")
            data[row - 1, col - 1] = True
        return cls(data)

    # -- accessors ---------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        return int(self._data.shape[0])

    @property
    def cols(self) -> int:
        return int(self._data.shape[1])

    def get(self, row: int, col: int) -> bool:
        """Entry at 1-based ``(row, col)``."""
        return bool(self._data[row - 1, col - 1])

    def to_pairs(self) -> frozenset[tuple[int, int]]:
        """The set of 1-based ``(row, col)`` pairs that are true."""
        rows, cols = np.nonzero(self._data)
        return frozenset((int(r) + 1, int(c) + 1) for r, c in zip(rows, cols))

    def is_all_true(self) -> bool:
        return bool(self._data.all())

    def is_all_false(self) -> bool:
        return not bool(self._data.any())

    def any(self) -> bool:
        return bool(self._data.any())

    def count(self) -> int:
        return int(self._data.sum())

    def bits(self) -> int:
        """Number of bits needed to materialise the matrix (one per entry)."""
        return self.rows * self.cols

    # -- algebra -------------------------------------------------------------------

    def __matmul__(self, other: "BoolMatrix") -> "BoolMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.shape} by {other.shape} boolean matrices"
            )
        product = (self._data.astype(np.uint8) @ other._data.astype(np.uint8)) > 0
        return BoolMatrix(product)

    def transpose(self) -> "BoolMatrix":
        return BoolMatrix(self._data.T.copy())

    @property
    def T(self) -> "BoolMatrix":
        return self.transpose()

    def union(self, other: "BoolMatrix") -> "BoolMatrix":
        if self.shape != other.shape:
            raise ValueError("union requires matrices of the same shape")
        return BoolMatrix(self._data | other._data)

    def power(self, exponent: int) -> "BoolMatrix":
        """Boolean matrix power by repeated squaring (square matrices only)."""
        if self.rows != self.cols:
            raise ValueError("power requires a square matrix")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        result = BoolMatrix.identity(self.rows)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    # -- dunder ----------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoolMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._data, other._data))

    def __hash__(self) -> int:
        return hash((self.shape, self._data.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rows = ["".join("1" if v else "0" for v in row) for row in self._data]
        return f"BoolMatrix([{', '.join(rows)}])"


def chain_product(matrices: Sequence[BoolMatrix], *, identity_size: int | None = None) -> BoolMatrix:
    """Boolean product of a sequence of matrices, left to right.

    An empty sequence yields the identity of size ``identity_size`` (which is
    then required).
    """
    if not matrices:
        if identity_size is None:
            raise ValueError("empty chain product needs identity_size")
        return BoolMatrix.identity(identity_size)
    result = matrices[0]
    for matrix in matrices[1:]:
        result = result @ matrix
    return result


class MatrixPowerTable:
    """Constant-time access to powers of a square boolean matrix (Lemma 5).

    The table stores ``X^1, X^2, ...`` until the first repetition
    ``X^a = X^b`` (``a < b``); after that, ``X^m`` for any ``m >= 1`` is
    looked up as ``X^(a + (m - a) mod (b - a))`` when ``m >= b``.
    """

    def __init__(self, matrix: BoolMatrix) -> None:
        if matrix.rows != matrix.cols:
            raise ValueError("MatrixPowerTable requires a square matrix")
        self._base = matrix
        self._powers: list[BoolMatrix] = [matrix]  # X^1 at index 0
        seen: dict[BoolMatrix, int] = {matrix: 1}
        self._tail_start = 1
        self._cycle_length = 1
        current = matrix
        exponent = 1
        while True:
            exponent += 1
            current = current @ matrix
            if current in seen:
                self._tail_start = seen[current]  # a
                self._cycle_length = exponent - seen[current]  # b - a
                break
            seen[current] = exponent
            self._powers.append(current)

    @property
    def base(self) -> BoolMatrix:
        return self._base

    @property
    def cycle_length(self) -> int:
        """The period ``b - a`` of the repetition."""
        return self._cycle_length

    @property
    def stored_powers(self) -> int:
        return len(self._powers)

    def power(self, exponent: int) -> BoolMatrix:
        """``X^exponent`` for any ``exponent >= 0`` in O(1) time."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        if exponent == 0:
            return BoolMatrix.identity(self._base.rows)
        if exponent <= len(self._powers):
            return self._powers[exponent - 1]
        reduced = self._tail_start + (exponent - self._tail_start) % self._cycle_length
        return self._powers[reduced - 1]

    def bits(self) -> int:
        """Bits needed to materialise the table (all stored powers)."""
        return sum(m.bits() for m in self._powers)
