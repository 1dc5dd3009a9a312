"""Acceptance gate: the eight criteria the package must meet.

Each test checks one criterion end to end at its stated tolerance and
prints a single ``[acceptance N] PASS`` line (run with ``-s`` to see
them); a failed criterion fails its test.
"""

import io
import itertools
import json
import random
import time

import pytest

from isbbrauer import cli, dsl, model, toric
from isbbrauer.brauer import (
    brute_force_unramified,
    matrix_p_to_r,
    ramification_lift,
    unramified_brauer,
)
from isbbrauer.f2 import F2Matrix, F2Vector, kernel_basis, rref
from isbbrauer.sampling import random_corpus

from f2_reference import (
    column_space,
    from_bits,
    intersection_basis,
    member,
    mul,
    span,
    sum_subspace,
    to_lists,
)
from toric_reference import dual_generators, hilbert_basis

CORPUS_SEED = 1202


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(seed=CORPUS_SEED, count=200)


def test_acceptance_1_hpt_exact():
    t0 = time.perf_counter()
    report = unramified_brauer(dsl.builtin("hpt"))
    out = io.StringIO()
    assert cli.run(["example", "hpt"], out, io.StringIO()) == 0
    elapsed = time.perf_counter() - t0

    assert report.dims == {"s": 0, "p": 6, "q": 3, "r": 3, "kernel": 1, "h2nr": 1}
    assert to_lists(report.m_pr) == [
        [0, 0, 1, 1, 1, 1],
        [1, 1, 0, 0, 1, 1],
        [1, 1, 1, 1, 0, 0],
    ]
    known_relations = span(
        6,
        [
            from_bits([1, 1, 0, 0, 0, 0]),
            from_bits([0, 0, 1, 1, 0, 0]),
            from_bits([0, 0, 0, 0, 1, 1]),
        ],
    )
    assert column_space(report.m_qp) == known_relations
    assert report.kernel_dim == 1 and report.h2nr_dim == 1
    (gen,) = report.generators
    reference_generator = from_bits([1, 0, 1, 0, 1, 0])
    assert member(known_relations, gen.vector + reference_generator)
    assert "h2nr_dim: 1" in out.getvalue()
    assert elapsed < 1.0
    print(f"\n[acceptance 1] PASS — hpt dims, matrix, and generator coset exact ({elapsed:.2f}s)")


def test_acceptance_2_cubic_quartic_exact():
    t0 = time.perf_counter()
    report = unramified_brauer(dsl.builtin("cubic-quartic"))
    elapsed = time.perf_counter() - t0
    assert report.dims == {"s": 0, "p": 2, "q": 1, "r": 0, "kernel": 1, "h2nr": 1}
    assert elapsed < 1.0
    print(f"\n[acceptance 2] PASS — cubic-quartic h2nr_dim 1 with (s,p,q,r)=(0,2,1,0) ({elapsed:.2f}s)")


def test_acceptance_3_ramification_lift():
    cfg = dsl.builtin("hpt")
    report = unramified_brauer(cfg)
    (gen,) = report.generators
    curves = [cid for cid, _ in gen.ramification]
    classes = [res for _, res in gen.ramification]
    assert curves == ["x-axis", "y-axis", "z-axis"]
    assert all(not res.is_zero for res in classes)

    relations = column_space(report.m_qp)
    for mask in range(1 << relations.dim):
        vec = F2Vector(6)
        for i in range(relations.dim):
            if (mask >> i) & 1:
                vec = vec + relations.basis[i]
        assert ramification_lift(cfg, vec) == []
    print("\n[acceptance 3] PASS — generator ramifies on exactly the three axes; relation image lifts to zero")


def test_acceptance_4_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    assert len(corpus) >= 200
    mismatches = 0
    for cfg in corpus:
        report = unramified_brauer(cfg)
        if (report.kernel_dim, report.h2nr_dim) != brute_force_unramified(cfg):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 30.0
    print(f"\n[acceptance 4] PASS — exhaustive oracle agrees on {len(corpus)} configurations ({elapsed:.2f}s)")


def test_acceptance_5_structural_assertions(corpus):
    violations = 0
    for cfg in corpus:
        m_pr = matrix_p_to_r(cfg)
        kernel = kernel_basis(m_pr)
        spaces = model._build_spaces(cfg)
        q_image = column_space(spaces.m_qp)
        svecs = spaces.s_vectors
        s_image = span(m_pr.cols, svecs)
        ok = (
            all(member(kernel, v) for v in q_image.basis)
            and all(member(kernel, v) for v in svecs)
            and q_image.dim == len(spaces.vq)
            and s_image.dim == len(svecs)
            and intersection_basis(q_image, s_image).dim == 0
            and sum_subspace(q_image, s_image).dim == q_image.dim + s_image.dim
        )
        report = unramified_brauer(cfg)
        ok = ok and len(report.s_labels) + report.h2nr_dim == report.kernel_dim
        violations += 0 if ok else 1
    assert violations == 0
    print(f"\n[acceptance 5] PASS — S/Q images independent inside ker(m_pr) on all {len(corpus)} configurations")


def test_acceptance_6_toric_demo():
    t0 = time.perf_counter()
    sigma = toric.uv_xyz_cone()
    dual = toric.Cone(tuple(dual_generators(sigma)))
    hb = hilbert_basis(dual)
    assert len(hb) == 5
    partitions = [
        two
        for two in itertools.combinations(hb, 2)
        if tuple(map(sum, zip(*two))) == tuple(map(sum, zip(*(set(hb) - set(two)))))
    ]
    assert partitions, "no pair of dual generators sums to the remaining triple"

    bad = toric.singular_faces(sigma)
    assert len(bad) == 3
    assert all(toric._rank(f.rays) == 3 for f in bad)

    report = toric.resolve_demo()
    assert report.smoothness.smooth
    assert len(report.candidates) == 3
    assert all(step.support_ok for step in report.steps)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[acceptance 6] PASS — dual basis 5 elements, 3 singular 3-faces, smooth refinement preserving support ({elapsed:.2f}s)")


def test_acceptance_7_parser_roundtrip():
    configs = random_corpus(seed=CORPUS_SEED + 1, count=100)
    for cfg in configs:
        assert dsl.parse(dsl.emit(cfg)) == cfg

    positioned = 0
    for bad_source in (
        "",
        "cover: sideways\nsymbols: a\n",
        "cover: irreducible\nsymbols: a\ncurve c:\n  type: V\n",
        "cover: irreducible\nsymbols: a\n  frob: 1\n",
        "cover: irreducible\nsymbols: a\ncurve c:\n  type: II\n  cover: split\n  ext c_1: a+!\n  ext c_2: a\n",
        "cover: irreducible\nsymbols: a\npoint p:\n  curves: x, y\n  etype: II_II\n",
    ):
        with pytest.raises(dsl.ConfigParseError) as caught:
            dsl.parse(bad_source)
        for diag in caught.value.diagnostics:
            assert diag.span.line >= 1 and diag.span.column >= 1
            positioned += 1
    assert positioned > 0
    print(f"\n[acceptance 7] PASS — parse/emit identity on {len(configs)} configurations; {positioned} diagnostics all positioned")


def test_acceptance_8_f2_core():
    rng = random.Random(CORPUS_SEED)
    checked = 0
    for _ in range(1000):
        rows = rng.randint(0, 32)
        cols = rng.randint(0, 32)
        m = F2Matrix(rows, cols, tuple(rng.getrandbits(cols) if cols else 0 for _ in range(rows)))
        kernel = kernel_basis(m)
        assert rref(m).rank + kernel.dim == cols
        for v in kernel.basis:
            assert mul(m, v).is_zero
        checked += 1
    assert checked == 1000
    print("\n[acceptance 8] PASS — rank-nullity and kernel annihilation on 1000 random matrices")
