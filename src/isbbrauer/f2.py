"""Exact linear algebra over the two-element field.

Vectors and matrix rows are bit-packed into Python integers (bit ``i``
holds coordinate ``i``), so every operation is exact word arithmetic:
addition is XOR.  Subspaces are stored as reduced row echelon bases,
which makes subspace equality a plain structural comparison.

Everything here is immutable; functions return fresh objects.  A value
type is a subclass of a ``collections.namedtuple`` of its fields, with
the field types in its docstring; one that checks its arguments does so
in its own ``__new__``.  ``typing.NamedTuple`` would build the same
class, but importing ``typing`` and turning each annotation into a
``ForwardRef`` costs a fresh process several milliseconds of start-up.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "DimensionMismatch",
    "F2Vector",
    "F2Matrix",
    "Rref",
    "Subspace",
    "rref",
    "kernel_basis",
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


class F2Vector(namedtuple("F2Vector", "length mask", defaults=(0,))):
    """A vector over GF(2); ``mask`` packs coordinate ``i`` into bit ``i``.

    Fields:
        length: int
        mask: int
    """

    __slots__ = ()

    def __new__(cls, length: int, mask: int = 0) -> F2Vector:
        if length < 0:
            raise ValueError("vector length must be nonnegative")
        if mask < 0 or mask >> length:
            raise ValueError("mask has bits outside the declared length")
        return tuple.__new__(cls, (length, mask))

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    def support(self) -> tuple[int, ...]:
        """Indices of the nonzero coordinates, ascending."""
        return tuple(i for i in range(self.length) if self.mask >> i & 1)

    def __add__(self, other: "F2Vector") -> "F2Vector":
        _check_len(self.length, other.length)
        return F2Vector(self.length, self.mask ^ other.mask)

    def __str__(self) -> str:
        # The digits go to the even bytes of a buffer of commas (empty at
        # length 0, where ``2 * length - 1`` is negative).
        joined = bytearray(b"," * (2 * self.length - 1))
        joined[::2] = bit_string(self.mask, self.length).encode()
        return f"({joined.decode()})"


class F2Matrix(namedtuple("F2Matrix", "rows cols row_masks", defaults=((),))):
    """A matrix over GF(2) stored as one bit-packed integer per row.

    Bit ``j`` of ``row_masks[i]`` is the entry in row ``i``, column ``j``.

    Fields:
        rows: int
        cols: int
        row_masks: tuple[int, ...]
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, row_masks: tuple[int, ...] = ()) -> F2Matrix:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(row_masks) != rows:
            raise ValueError("row_masks length disagrees with row count")
        for m in row_masks:
            if m < 0 or m >> cols:
                raise ValueError("row mask has bits outside the column range")
        return tuple.__new__(cls, (rows, cols, row_masks))

    def column_masks(self) -> list[int]:
        """Every column's bit mask, built in one pass over the set bits of each row.

        The order of the bits does not matter, so each row is walked from
        its top bit down, one wide int per bit.
        """
        masks = [0] * self.cols
        for i, row in enumerate(self.row_masks):
            bit = 1 << i
            while row:
                t = row.bit_length() - 1
                masks[t] |= bit
                row ^= 1 << t
        return masks

    def transpose(self) -> "F2Matrix":
        return F2Matrix(self.cols, self.rows, tuple(self.column_masks()))


class Rref(namedtuple("Rref", "reduced rank pivots")):
    """What ``rref`` returns.

    Fields:
        reduced: F2Matrix
        rank: int
        pivots: tuple[int, ...]
    """

    __slots__ = ()


def rref(m: F2Matrix) -> Rref:
    """Reduced row echelon form by Gauss-Jordan elimination.

    The calculator runs ``kernel_basis`` and ``_insert``; this plain
    elimination is the reference they are checked against.

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


class Subspace(namedtuple("Subspace", "ambient_dim basis", defaults=((),))):
    """A subspace of GF(2)^n held as its unique reduced row echelon basis.

    Because the representation is canonical, two ``Subspace`` values are
    equal exactly when they describe the same subspace.

    Fields:
        ambient_dim: int
        basis: tuple[F2Vector, ...]
    """

    __slots__ = ()

    def __new__(cls, ambient_dim: int, basis: tuple[F2Vector, ...] = ()) -> Subspace:
        # One pass: ``once`` and ``twice`` collect the bits set in at least
        # one and at least two basis vectors, so the basis is fully reduced
        # exactly when no pivot bit is in ``twice``.  Each pivot is kept as
        # its one-bit int, which grows with the pivot, so comparing the ints
        # checks the echelon order.
        ordered = True
        last = 0
        pivots = once = twice = 0
        for length, mask in basis:
            if length != ambient_dim:
                raise DimensionMismatch("basis vector length disagrees with ambient dimension")
            if not mask:
                raise ValueError("zero vector in basis")
            low = mask & -mask
            ordered = ordered and low > last
            last = low
            pivots |= low
            twice |= once & mask
            once |= mask
        if not ordered:
            raise ValueError("basis is not in echelon order")
        if pivots & twice:
            raise ValueError("basis is not fully reduced")
        return tuple.__new__(cls, (ambient_dim, basis))

    @property
    def dim(self) -> int:
        return len(self.basis)


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
    """The null space ``{v : every row of m meets v in an even number of bits}``.

    The rows are reduced with each pivot at its row's highest set bit, so
    a reduced row holds its pivot and free columns below it.  The kernel
    vector of free column ``f`` is ``e_f`` plus ``e_p`` for every pivot row
    ``p`` that contains ``f``: every such ``p`` exceeds ``f``, so ``f`` is
    its lowest bit, and no other kernel vector contains ``f``.  These
    vectors are therefore already the canonical basis.

    The rows are reduced in descending order of their highest set bit.
    Taken as given, a row of a ring with long chords walks the chain of
    pivots that earlier rows left, one XOR per link, as union-find does
    without path compression, and the forward pass grows as the square of
    the number of rows; in this order it grows linearly.  The fully
    reduced echelon form is unique, so the order does not change the
    kernel.
    """
    rows: dict[int, int] = {}  # pivot column -> row with that highest bit
    for row in sorted(m.row_masks, key=int.bit_length, reverse=True):
        while row:
            top = row.bit_length() - 1
            other = rows.get(top)
            if other is None:
                rows[top] = row
                break
            row ^= other
    # Back-substitute in increasing pivot order: a reduced row holds no
    # pivot column but its own, so XOR-ing it in clears one pivot bit and
    # sets none, and the hits can be taken in any order, top bit first.
    lower = 0  # the pivot columns below the current one
    for p in sorted(rows):
        row = rows[p]
        hits = row & lower
        while hits:
            t = hits.bit_length() - 1
            row ^= rows[t]
            hits ^= 1 << t
        rows[p] = row
        lower |= 1 << p
    # The free columns go lowest first: their order is the basis order.
    vectors: dict[int, int] = {}  # free column -> its kernel vector
    free = ((1 << m.cols) - 1) ^ lower
    while free:
        low = free & -free
        vectors[low.bit_length() - 1] = low
        free ^= low
    for p, row in rows.items():
        bit = 1 << p
        free = row ^ bit
        while free:
            low = free & -free
            vectors[low.bit_length() - 1] |= bit
            free ^= low
    # Every bit of a vector is a column of ``m``, which is what
    # ``F2Vector.__new__`` checks, so each is built as that ``__new__`` does.
    cols = m.cols
    return Subspace(cols, tuple([tuple.__new__(F2Vector, (cols, v)) for v in vectors.values()]))
