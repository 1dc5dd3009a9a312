"""Exact linear algebra over the two-element field.

Vectors and matrix rows are bit-packed into Python integers (bit ``i``
holds coordinate ``i``), so every operation is exact word arithmetic:
addition is XOR, the dot product is a popcount parity.  Subspaces are
stored as reduced row echelon bases, which makes subspace equality a
plain structural comparison and membership a pivot-driven reduction.

Everything here is immutable; functions return fresh objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "DimensionMismatch",
    "F2Vector",
    "F2Matrix",
    "Rref",
    "Subspace",
    "rref",
    "kernel_basis",
    "column_space",
    "member",
    "sum_subspace",
    "intersection_basis",
    "bit_string",
]


class DimensionMismatch(ValueError):
    """Raised when vector, matrix, or subspace dimensions are incompatible."""


def _check_len(expected: int, got: int) -> None:
    if expected != got:
        raise DimensionMismatch(f"expected length {expected}, got {got}")


def bit_string(mask: int, length: int) -> str:
    """Coordinates ``0 .. length - 1`` of ``mask`` as ``"0"``/``"1"``, in order.

    ``format`` writes the highest bit first, so the padded binary string is
    reversed; length 0 is special because ``format(0, "00b")`` is ``"0"``.
    """
    return format(mask, f"0{length}b")[::-1] if length else ""


def _set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending, one step per set bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _bit_values(mask: int, length: int) -> bytes:
    """``bit_string`` as bytes 0 and 1, which iterate as the integers 0 and 1."""
    return bit_string(mask, length).encode("ascii").translate(_DIGIT_VALUES)


@dataclass(frozen=True)
class F2Vector:
    """A vector over GF(2); ``mask`` packs coordinate ``i`` into bit ``i``."""

    length: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("vector length must be nonnegative")
        if self.mask < 0 or self.mask >> self.length:
            raise ValueError("mask has bits outside the declared length")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "F2Vector":
        seq = list(bits)
        mask = 0
        for i, b in enumerate(seq):
            if b not in (0, 1):
                raise ValueError(f"coordinate {i} is {b!r}, expected 0 or 1")
            mask |= b << i
        return cls(len(seq), mask)

    @classmethod
    def zero(cls, length: int) -> "F2Vector":
        return cls(length, 0)

    @classmethod
    def unit(cls, length: int, index: int) -> "F2Vector":
        if not 0 <= index < length:
            raise ValueError("unit index out of range")
        return cls(length, 1 << index)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(_bit_values(self.mask, self.length))

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    def bit(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError("coordinate index out of range")
        return (self.mask >> index) & 1

    def support(self) -> tuple[int, ...]:
        """Indices of the nonzero coordinates, ascending."""
        return tuple(_set_bits(self.mask))

    def __add__(self, other: "F2Vector") -> "F2Vector":
        _check_len(self.length, other.length)
        return F2Vector(self.length, self.mask ^ other.mask)

    def dot(self, other: "F2Vector") -> int:
        _check_len(self.length, other.length)
        return (self.mask & other.mask).bit_count() & 1

    def __str__(self) -> str:
        return "(" + ",".join(bit_string(self.mask, self.length)) + ")"


@dataclass(frozen=True)
class F2Matrix:
    """A matrix over GF(2) stored as one bit-packed integer per row.

    Bit ``j`` of ``row_masks[i]`` is the entry in row ``i``, column ``j``.
    """

    rows: int
    cols: int
    row_masks: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.row_masks) != self.rows:
            raise ValueError("row_masks length disagrees with row count")
        for m in self.row_masks:
            if m < 0 or m >> self.cols:
                raise ValueError("row mask has bits outside the column range")

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable[int]], cols: int | None = None) -> "F2Matrix":
        """Build from rows of 0/1 entries.

        ``cols`` is required when ``rows`` is empty and inferred otherwise;
        all rows must have the same length.
        """
        vecs = [F2Vector.from_bits(r) for r in rows]
        if vecs:
            width = vecs[0].length
            if cols is not None and cols != width:
                raise DimensionMismatch("explicit cols disagrees with row length")
        else:
            if cols is None:
                raise ValueError("cols is required for an empty row list")
            width = cols
        for v in vecs:
            _check_len(width, v.length)
        return cls(len(vecs), width, tuple(v.mask for v in vecs))

    @classmethod
    def from_vectors(cls, vectors: Sequence[F2Vector], cols: int | None = None) -> "F2Matrix":
        """Stack vectors as rows; ``cols`` disambiguates the empty case."""
        if vectors:
            width = vectors[0].length
            if cols is not None and cols != width:
                raise DimensionMismatch("explicit cols disagrees with vector length")
        else:
            if cols is None:
                raise ValueError("cols is required for an empty vector list")
            width = cols
        for v in vectors:
            _check_len(width, v.length)
        return cls(len(vectors), width, tuple(v.mask for v in vectors))

    @classmethod
    def from_columns(cls, columns: Sequence[F2Vector], rows: int | None = None) -> "F2Matrix":
        """Assemble a matrix whose ``j``-th column is ``columns[j]``."""
        if columns:
            height = columns[0].length
            if rows is not None and rows != height:
                raise DimensionMismatch("explicit rows disagrees with column length")
        else:
            if rows is None:
                raise ValueError("rows is required for an empty column list")
            height = rows
        for c in columns:
            _check_len(height, c.length)
        return cls(len(columns), height, tuple(c.mask for c in columns)).transpose()

    def row(self, i: int) -> F2Vector:
        return F2Vector(self.cols, self.row_masks[i])

    def column(self, j: int) -> F2Vector:
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        mask = 0
        for i in range(self.rows):
            mask |= ((self.row_masks[i] >> j) & 1) << i
        return F2Vector(self.rows, mask)

    def column_masks(self) -> list[int]:
        """Every column's bit mask, built in one pass over the set bits of each row."""
        masks = [0] * self.cols
        for i, row in enumerate(self.row_masks):
            bit = 1 << i
            for j in _set_bits(row):
                masks[j] |= bit
        return masks

    def columns(self) -> list[F2Vector]:
        """Every column, as ``column_masks`` builds them."""
        return [F2Vector(self.rows, mask) for mask in self.column_masks()]

    def transpose(self) -> "F2Matrix":
        return F2Matrix.from_vectors(self.columns(), cols=self.rows)

    def mul(self, v: F2Vector) -> F2Vector:
        """Matrix-vector product; ``v`` has one coordinate per column."""
        _check_len(self.cols, v.length)
        mask = 0
        for i, row in enumerate(self.row_masks):
            mask |= ((row & v.mask).bit_count() & 1) << i
        return F2Vector(self.rows, mask)

    def to_lists(self) -> list[list[int]]:
        return [list(_bit_values(row, self.cols)) for row in self.row_masks]


class Rref(NamedTuple):
    reduced: F2Matrix
    rank: int
    pivots: tuple[int, ...]


def rref(m: F2Matrix) -> Rref:
    """Reduced row echelon form by Gauss-Jordan elimination.

    Returns:
        ``Rref(reduced, rank, pivots)`` where ``reduced`` has the same
        shape as ``m`` (zero rows at the bottom) and ``pivots`` lists the
        pivot column of each nonzero row, strictly increasing.
    """
    masks = list(m.row_masks)
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        bit = 1 << c
        pivot_row = next((i for i in range(r, m.rows) if masks[i] & bit), None)
        if pivot_row is None:
            continue
        masks[r], masks[pivot_row] = masks[pivot_row], masks[r]
        for i in range(m.rows):
            if i != r and masks[i] & bit:
                masks[i] ^= masks[r]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Rref(F2Matrix(m.rows, m.cols, tuple(masks)), r, tuple(pivots))


def _leading_bit(mask: int) -> int:
    """Index of the lowest set bit (the pivot of an RREF row)."""
    return (mask & -mask).bit_length() - 1


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(2)^n held as its unique reduced row echelon basis.

    Because the representation is canonical, two ``Subspace`` values are
    equal exactly when they describe the same subspace.
    """

    ambient_dim: int
    basis: tuple[F2Vector, ...] = ()

    def __post_init__(self) -> None:
        # One pass: ``once`` and ``twice`` collect the bits set in at least
        # one and at least two basis vectors, so the basis is fully reduced
        # exactly when no pivot bit is in ``twice``.
        ordered = True
        last = -1
        pivots = once = twice = 0
        for v in self.basis:
            if v.length != self.ambient_dim:
                raise DimensionMismatch("basis vector length disagrees with ambient dimension")
            if v.is_zero:
                raise ValueError("zero vector in basis")
            pivot = _leading_bit(v.mask)
            ordered = ordered and pivot > last
            last = pivot
            pivots |= 1 << pivot
            twice |= once & v.mask
            once |= v.mask
        if not ordered:
            raise ValueError("basis is not in echelon order")
        if pivots & twice:
            raise ValueError("basis is not fully reduced")

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def span(cls, ambient_dim: int, vectors: Sequence[F2Vector]) -> "Subspace":
        """The subspace spanned by ``vectors``, in canonical form."""
        for v in vectors:
            _check_len(ambient_dim, v.length)
        reduced = rref(F2Matrix.from_vectors(list(vectors), cols=ambient_dim))
        rows = [reduced.reduced.row(i) for i in range(reduced.rank)]
        return cls(ambient_dim, tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.basis)


def member(s: Subspace, v: F2Vector) -> bool:
    """Whether ``v`` lies in ``s``, by reducing against the pivot rows."""
    _check_len(s.ambient_dim, v.length)
    mask = v.mask
    for b in s.basis:
        pivot = b.mask & -b.mask
        if mask & pivot:
            mask ^= b.mask
    return mask == 0


def _insert(pivots: dict[int, int], mask: int) -> bool:
    """Reduce ``mask`` against an echelon basis keyed by lowest set bit.

    Each stored row's lowest set bit is its key, so one XOR clears the
    current lowest bit of ``mask`` without touching lower bits.  A
    nonzero remainder is stored under its own lowest bit.

    Returns:
        Whether ``mask`` was outside the span of the stored rows.
    """
    while mask:
        low = mask & -mask
        row = pivots.get(low)
        if row is None:
            pivots[low] = mask
            return True
        mask ^= row
    return False


def kernel_basis(m: F2Matrix) -> Subspace:
    """The null space ``{v : m.mul(v) = 0}`` as a canonical subspace.

    The rows are reduced with each pivot at its row's highest set bit, so
    a reduced row holds its pivot and free columns below it.  The kernel
    vector of free column ``f`` is ``e_f`` plus ``e_p`` for every pivot row
    ``p`` that contains ``f``: every such ``p`` exceeds ``f``, so ``f`` is
    its lowest bit, and no other kernel vector contains ``f``.  These
    vectors are therefore already the canonical basis.
    """
    rows: dict[int, int] = {}  # pivot column -> row with that highest bit
    for row in m.row_masks:
        while row:
            top = row.bit_length() - 1
            other = rows.get(top)
            if other is None:
                rows[top] = row
                break
            row ^= other
    # Back-substitute in increasing pivot order: a reduced row holds no
    # pivot column but its own, so XOR-ing it in clears one pivot bit and
    # sets none.
    lower = 0  # the pivot columns below the current one
    for p in sorted(rows):
        row = rows[p]
        for q in _set_bits(row & lower):
            row ^= rows[q]
        rows[p] = row
        lower |= 1 << p
    vectors = {f: 1 << f for f in _set_bits(((1 << m.cols) - 1) ^ lower)}
    for p, row in rows.items():
        bit = 1 << p
        for f in _set_bits(row ^ bit):
            vectors[f] |= bit
    return Subspace(m.cols, tuple(F2Vector(m.cols, v) for v in vectors.values()))


def column_space(m: F2Matrix) -> Subspace:
    """The span of the columns of ``m`` inside GF(2)^rows."""
    return Subspace.span(m.rows, m.columns())


def sum_subspace(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    return Subspace.span(a.ambient_dim, list(a.basis) + list(b.basis))


def intersection_basis(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces (Zassenhaus block construction).

    Row-reduce ``[A | A]`` stacked on ``[B | 0]``; rows whose left block
    vanishes have right blocks spanning the intersection.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    n = a.ambient_dim
    stacked = [v.mask | (v.mask << n) for v in a.basis]
    stacked += [v.mask for v in b.basis]
    reduced = rref(F2Matrix(len(stacked), 2 * n, tuple(stacked)))
    low = (1 << n) - 1
    hits = [
        F2Vector(n, mask >> n)
        for mask in reduced.reduced.row_masks
        if mask and not (mask & low)
    ]
    return Subspace.span(n, hits)
