"""Properties of the bit-packed GF(2) linear algebra kernel.

The subspace helpers, the matrix-vector product and the per-bit readers
come from the test-only ``f2_reference`` module and are checked here too,
since the other tests use them as oracles.
"""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from isbbrauer.f2 import DimensionMismatch, F2Matrix, F2Vector, Subspace, kernel_basis, rref

from f2_reference import (
    bits,
    column_space,
    columns,
    from_bits,
    from_columns,
    intersection_basis,
    member,
    mul,
    span,
    sum_subspace,
    to_lists,
)


@st.composite
def vectors(draw, max_len=10):
    n = draw(st.integers(min_value=0, max_value=max_len))
    return F2Vector(n, draw(st.integers(min_value=0, max_value=(1 << n) - 1)))


@st.composite
def vector_pairs(draw, max_len=10):
    n = draw(st.integers(min_value=0, max_value=max_len))
    bound = (1 << n) - 1
    return (
        F2Vector(n, draw(st.integers(min_value=0, max_value=bound))),
        F2Vector(n, draw(st.integers(min_value=0, max_value=bound))),
    )


@st.composite
def matrices(draw, max_rows=7, max_cols=9):
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    cols = draw(st.integers(min_value=0, max_value=max_cols))
    masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << cols) - 1),
            min_size=rows,
            max_size=rows,
        )
    )
    return F2Matrix(rows, cols, tuple(masks))


@st.composite
def subspaces(draw, ambient=8, max_gens=5):
    gens = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << ambient) - 1),
            max_size=max_gens,
        )
    )
    return span(ambient, [F2Vector(ambient, m) for m in gens])


# --- vectors ---------------------------------------------------------------


@given(st.lists(st.sampled_from([0, 1]), max_size=12))
def test_from_bits_roundtrip(entries):
    v = from_bits(entries)
    assert bits(v) == entries
    assert v.support() == tuple(i for i, b in enumerate(entries) if b)


@given(vector_pairs())
def test_addition_is_involutive_xor(pair):
    u, v = pair
    assert (u + v) + v == u
    assert u + v == v + u
    assert (u + v).mask == u.mask ^ v.mask


def test_str_is_tuple_like():
    assert str(from_bits([1, 0, 1])) == "(1,0,1)"
    assert str(F2Vector(0)) == "()"
    assert str(F2Vector(1, 1)) == "(1)"
    ones = {0, 1, 3, 199}
    v = F2Vector(200, sum(1 << j for j in ones))
    assert str(v) == "(" + ",".join("1" if j in ones else "0" for j in range(200)) + ")"


def test_mask_outside_length_rejected():
    with pytest.raises(ValueError):
        F2Vector(2, 0b100)
    with pytest.raises(ValueError):
        from_bits([0, 2])
    with pytest.raises(ValueError):
        F2Vector(-1)


def test_length_mismatch():
    with pytest.raises(DimensionMismatch):
        F2Vector(3, 0) + F2Vector(4, 0)


# --- matrices --------------------------------------------------------------


@given(matrices())
@example(F2Matrix(0, 0))
@example(F2Matrix(0, 4))
@example(F2Matrix(3, 0, (0, 0, 0)))
def test_transpose_involution(m):
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    for i in range(m.rows):
        for j in range(m.cols):
            assert (t.row_masks[j] >> i) & 1 == (m.row_masks[i] >> j) & 1
    assert t.transpose() == m


@given(matrices())
def test_column_row_consistency(m):
    cols = columns(m)
    assert [c.mask for c in cols] == m.column_masks()
    rows = to_lists(m)
    for j, col in enumerate(cols):
        assert bits(col) == [row[j] for row in rows]
    assert from_columns(cols, m.rows) == m


@given(matrices(), st.integers(min_value=0))
def test_mul_matches_schoolbook(m, seed):
    rng = random.Random(seed)
    v = F2Vector(m.cols, rng.getrandbits(m.cols) if m.cols else 0)
    expect = [sum(r * b for r, b in zip(row, bits(v))) % 2 for row in to_lists(m)]
    assert bits(mul(m, v)) == expect


def test_matrix_shape_is_checked():
    with pytest.raises(ValueError):
        F2Matrix(2, 3, (0b111,))
    with pytest.raises(ValueError):
        F2Matrix(2, 2, (0b11, 0b100))
    with pytest.raises(ValueError):
        F2Matrix(-1, 2)
    with pytest.raises(DimensionMismatch):
        from_columns([F2Vector(2), F2Vector(1)], 2)


# --- rref ------------------------------------------------------------------


@given(matrices())
def test_rref_shape_and_pivots(m):
    red = rref(m)
    assert red.rank == len(red.pivots)
    assert list(red.pivots) == sorted(red.pivots)
    # pivot columns are standard basis vectors of the row space
    for k, p in enumerate(red.pivots):
        assert red.reduced.column_masks()[p] == 1 << k
    # zero rows live at the bottom
    for i in range(red.rank, m.rows):
        assert red.reduced.row_masks[i] == 0


@given(matrices())
def test_rref_idempotent(m):
    red = rref(m).reduced
    assert rref(red).reduced == red


@given(matrices())
def test_rref_preserves_row_space(m):
    a = span(m.cols, [F2Vector(m.cols, row) for row in m.row_masks])
    b = span(m.cols, [F2Vector(m.cols, row) for row in rref(m).reduced.row_masks])
    assert a == b


@given(matrices())
def test_rank_nullity(m):
    assert rref(m).rank + kernel_basis(m).dim == m.cols


@given(matrices())
def test_kernel_annihilation(m):
    ker = kernel_basis(m)
    for v in ker.basis:
        assert mul(m, v).is_zero
    # every small combination stays in the kernel
    for mask in range(1 << min(ker.dim, 5)):
        total = F2Vector(m.cols)
        for i in range(ker.dim):
            if (mask >> i) & 1:
                total = total + ker.basis[i]
        assert mul(m, total).is_zero


@given(matrices())
def test_column_space_dim_is_rank(m):
    assert column_space(m).dim == rref(m).rank


# --- subspaces -------------------------------------------------------------


@given(subspaces(), st.randoms(use_true_random=False))
def test_span_is_order_independent(s, rng):
    shuffled = list(s.basis)
    rng.shuffle(shuffled)
    assert span(s.ambient_dim, shuffled) == s


@given(subspaces())
def test_member_agrees_with_span_growth(s):
    rng = random.Random(s.dim * 1009 + s.ambient_dim)
    for _ in range(10):
        v = F2Vector(s.ambient_dim, rng.getrandbits(s.ambient_dim))
        grown = span(s.ambient_dim, list(s.basis) + [v])
        assert member(s, v) == (grown.dim == s.dim)


@given(subspaces())
def test_members_close_under_addition(s):
    for mask in range(1 << min(s.dim, 5)):
        total = F2Vector(s.ambient_dim)
        for i in range(s.dim):
            if (mask >> i) & 1:
                total = total + s.basis[i]
        assert member(s, total)


@given(subspaces(), subspaces())
def test_grassmann_dimension_formula(a, b):
    lhs = sum_subspace(a, b).dim + intersection_basis(a, b).dim
    assert lhs == a.dim + b.dim


@given(subspaces(), subspaces())
def test_intersection_contained_in_both(a, b):
    meet = intersection_basis(a, b)
    for v in meet.basis:
        assert member(a, v) and member(b, v)


@given(subspaces(), subspaces())
def test_sum_contains_both(a, b):
    total = sum_subspace(a, b)
    for v in a.basis + b.basis:
        assert member(total, v)


def test_subspace_requires_canonical_basis():
    # (1,1) and (0,1) share the second pivot column: not fully reduced
    with pytest.raises(ValueError):
        Subspace(2, (F2Vector(2, 0b11), F2Vector(2, 0b10)))
    with pytest.raises(ValueError):
        Subspace(2, (F2Vector(2, 0),))
    with pytest.raises(DimensionMismatch):
        Subspace(2, (F2Vector(3, 0b1),))


def test_subspace_equality_is_set_equality():
    a = span(3, [F2Vector(3, 0b011), F2Vector(3, 0b110)])
    b = span(3, [F2Vector(3, 0b110), F2Vector(3, 0b101)])
    assert a == b


def test_kernel_of_wide_zero_matrix_is_everything():
    m = F2Matrix(0, 5, ())
    assert kernel_basis(m).dim == 5


def test_intersection_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        intersection_basis(Subspace(2), Subspace(3))
