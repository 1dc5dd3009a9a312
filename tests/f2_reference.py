"""GF(2) reference helpers that the tests use as oracles.

Each helper works one entry at a time or through the Gauss-Jordan
``f2.rref``, never through ``kernel_basis`` or ``_insert``, so a check
built on them stays independent of the path ``compute`` runs.
"""

from isbbrauer.f2 import F2Matrix, F2Vector, Subspace, _check_len, rref


def from_bits(entries) -> F2Vector:
    """The vector whose coordinate ``i`` is ``entries[i]``, each 0 or 1."""
    entries = list(entries)
    for i, b in enumerate(entries):
        if b not in (0, 1):
            raise ValueError(f"coordinate {i} is {b!r}, expected 0 or 1")
    return F2Vector(len(entries), sum(b << i for i, b in enumerate(entries)))


def bits(v: F2Vector) -> list[int]:
    return [(v.mask >> i) & 1 for i in range(v.length)]


def to_lists(m: F2Matrix) -> list[list[int]]:
    return [[(row >> j) & 1 for j in range(m.cols)] for row in m.row_masks]


def columns(m: F2Matrix) -> list[F2Vector]:
    """Every column of ``m``, read one entry at a time."""
    return [
        F2Vector(m.rows, sum(((row >> j) & 1) << i for i, row in enumerate(m.row_masks)))
        for j in range(m.cols)
    ]


def from_columns(cols, rows: int) -> F2Matrix:
    """The ``rows``-row matrix whose ``j``-th column is ``cols[j]``."""
    cols = list(cols)
    for c in cols:
        _check_len(rows, c.length)
    masks = [sum(((c.mask >> i) & 1) << j for j, c in enumerate(cols)) for i in range(rows)]
    return F2Matrix(rows, len(cols), tuple(masks))


def mul(m: F2Matrix, v: F2Vector) -> F2Vector:
    """The matrix-vector product; ``v`` has one coordinate per column."""
    _check_len(m.cols, v.length)
    mask = sum(((row & v.mask).bit_count() & 1) << i for i, row in enumerate(m.row_masks))
    return F2Vector(m.rows, mask)


def span(ambient_dim: int, vectors) -> Subspace:
    """The subspace spanned by ``vectors``: the nonzero rows of their RREF."""
    vectors = list(vectors)
    for v in vectors:
        _check_len(ambient_dim, v.length)
    reduced, rank, _ = rref(F2Matrix(len(vectors), ambient_dim, tuple(v.mask for v in vectors)))
    return Subspace(ambient_dim, tuple(F2Vector(ambient_dim, reduced.row_masks[i]) for i in range(rank)))


def member(s: Subspace, v: F2Vector) -> bool:
    """Whether ``v`` lies in ``s``, by reducing against the pivot rows."""
    _check_len(s.ambient_dim, v.length)
    mask = v.mask
    for b in s.basis:
        if mask & b.mask & -b.mask:
            mask ^= b.mask
    return mask == 0


def column_space(m: F2Matrix) -> Subspace:
    """The span of the columns of ``m`` inside GF(2)^rows."""
    return span(m.rows, columns(m))


def sum_subspace(a: Subspace, b: Subspace) -> Subspace:
    _check_len(a.ambient_dim, b.ambient_dim)
    return span(a.ambient_dim, a.basis + b.basis)


def intersection_basis(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces (Zassenhaus block construction).

    Row-reduce ``[A | A]`` stacked on ``[B | 0]``; rows whose left block
    vanishes have right blocks spanning the intersection.
    """
    _check_len(a.ambient_dim, b.ambient_dim)
    n = a.ambient_dim
    stacked = [v.mask | (v.mask << n) for v in a.basis]
    stacked += [v.mask for v in b.basis]
    reduced = rref(F2Matrix(len(stacked), 2 * n, tuple(stacked))).reduced
    low = (1 << n) - 1
    hits = [F2Vector(n, mask >> n) for mask in reduced.row_masks if mask and not (mask & low)]
    return span(n, hits)


def reference_kernel(m: F2Matrix) -> Subspace:
    """Free columns of the Gauss-Jordan RREF, re-reduced by ``span``."""
    reduced, _, pivots = rref(m)
    vectors = []
    for free in range(m.cols):
        if free in pivots:
            continue
        mask = 1 << free
        for k, p in enumerate(pivots):
            if (reduced.row_masks[k] >> free) & 1:
                mask |= 1 << p
        vectors.append(F2Vector(m.cols, mask))
    return span(m.cols, vectors)
