"""The two facts of ``model._build_spaces`` that the GC checks rely on.

GC4 and GC2 read ranks off the construction instead of recounting them:

* each Q column is a non-empty contiguous run of P, and no two Q columns
  share a coordinate, so rank Q is the number of Q curves;
* the S vectors are pairwise disjoint, so rank S is the number of nonzero
  ones, and an S vector is zero only for cores(beta) of an empty P under
  the irreducible cover.

So ``model._spaces`` seeds the Q+S echelon with each Q column under its
lowest bit and inserts only the S vectors.  These tests check both facts,
and that the seeded echelon is the dict that inserting the Q columns and
then the S vectors one by one builds, key order included, on the corpus,
on raw draws that pass structural validation, and on the growth tests'
rings, long-chord rings and relabelled copies of a union.
"""

import random

import pytest

from isbbrauer import dsl, model, sampling
from isbbrauer.f2 import _insert
from isbbrauer.model import Configuration, CoverKind

from test_front_end import long_ring_source, ring_source
from test_growth import marked_crossings
from test_spaces import relabel, union


def check_facts(cfg: Configuration) -> int:
    """Assert both facts and the seeded echelon on ``cfg``; return its number of zero S vectors."""
    spaces = model._build_spaces(cfg)
    seen = 0
    for col in spaces.q_columns:
        run = col >> (col & -col).bit_length() - 1
        assert col and run & (run + 1) == 0, "a Q column is not a non-empty run"
        assert not col & seen, "two Q columns share a coordinate"
        seen |= col
    seen = zero = 0
    for vec in spaces.s_vectors:
        assert not vec.mask & seen, "two S vectors share a coordinate"
        seen |= vec.mask
        if not vec.mask:
            assert cfg.cover_kind is CoverKind.IRREDUCIBLE and not spaces.vp
            zero += 1
    pivots: dict[int, int] = {}
    for mask in spaces.q_columns + [vec.mask for vec in spaces.s_vectors]:
        _insert(pivots, mask)
    assert list(spaces.qs_echelon.items()) == list(pivots.items())
    return zero


def test_facts_hold_on_the_corpus():
    for cfg in sampling.random_corpus(0, 2000):
        check_facts(cfg)


def test_facts_hold_on_raw_draws():
    # Raw draws keep GC failures, and so the one zero S vector a build makes.
    rng = random.Random(0)
    checked = zero = 0
    for _ in range(3000):
        cfg = sampling._draw(rng)
        if model._structural_diagnostics(cfg)[0]:
            continue
        zero += check_facts(cfg)
        checked += 1
    assert checked > 2500 and zero > 0


@pytest.mark.parametrize("n", [200, 400, 800])
def test_facts_hold_on_rings(n):
    check_facts(dsl.parse(ring_source(n)))
    check_facts(dsl.parse(long_ring_source(n, 0)))


@pytest.mark.parametrize("kind", list(CoverKind))
def test_facts_hold_on_relabelled_copies(kind):
    base = marked_crossings(kind)
    for n in (8, 16, 32):
        check_facts(union(kind, [relabel(base, k) for k in range(n)]))
