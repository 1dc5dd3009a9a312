"""The shared spaces and the pivot-keyed generator selection.

The incidence-walk ``matrix_p_to_r`` and the generator selection of
``unramified_brauer`` are compared with the straightforward algorithms
they replaced, kept here as references: the scan of every (point,
extension) pair, and the greedy loop that tests each kernel row with
``member`` and grows the covered space with ``sum_subspace``.  Inputs are
a random corpus and disjoint unions of corpus blocks large enough to be
past the brute-force cap.  ``m_pr``, ``m_qp`` and the S vectors are also
rebuilt from the rules as ``model``'s docstrings state them, without
``point_relates`` or ``model._build_spaces``, and their ranks checked against
``h2nr_dim``; so is the ramification lift, without ``lift_rows``.
Metamorphic relations (renaming, reordering, a copied point, a disjoint
union) are checked on a corpus, and the ranks of ``m_pr`` and ``m_qp`` by an
elimination that shares no code with ``f2``.
"""

import hashlib
import io
import random
from collections import Counter

import pytest

from isbbrauer import brauer, cli, dsl, model
from isbbrauer.brauer import matrix_p_to_r, unramified_brauer
from isbbrauer.f2 import F2Matrix, F2Vector, _insert, kernel_basis, rref
from isbbrauer.model import (
    Configuration,
    CoverBehavior,
    CoverKind,
    Curve,
    CurveType,
    Extension,
    PointType,
    ResidueClass,
    SingularPoint,
    validate,
    vp_basis,
)
from isbbrauer.sampling import random_configuration, random_corpus

from f2_reference import column_space, member, mul, span, sum_subspace
from model_reference import point_relates
from rule_oracle import rule_rows_and_columns
from test_word_level import ring


def scan_p_to_r(cfg: Configuration) -> F2Matrix:
    """m_pr by testing every (point, extension) pair of the bases."""
    spaces = model._build_spaces(cfg)
    vp, zr = spaces.vp, spaces.zr
    owner = {ext.id: c for c in cfg.curves for ext in c.extensions}
    masks = []
    for point in zr:
        mask = 0
        for j, ext in enumerate(vp):
            curve = owner[ext.id]
            if curve.id in point.incident and point_relates(point, curve, ext.id):
                mask |= 1 << j
        masks.append(mask)
    return F2Matrix(len(zr), len(vp), tuple(masks))


def greedy_generators(cfg: Configuration) -> list:
    """Kernel rows outside image(Q) + image(S) + earlier picks, by ``member``."""
    spaces = model._build_spaces(cfg)
    p = len(spaces.vp)
    covered = sum_subspace(column_space(spaces.m_qp), span(p, spaces.s_vectors))
    picked = []
    for row in kernel_basis(scan_p_to_r(cfg)).basis:
        if member(covered, row):
            continue
        picked.append(row)
        covered = sum_subspace(covered, span(p, [row]))
    return picked


def rename(cfg: Configuration, ident, symbol) -> Configuration:
    """``cfg`` with every curve, extension and point id passed through
    ``ident`` and every symbol through ``symbol``."""

    def cls(r):
        return None if r is None else ResidueClass(frozenset(symbol(s) for s in r.symbols))

    curves = tuple(
        Curve(
            ident(c.id),
            c.deg_type,
            c.cover_behavior,
            tuple(Extension(ident(e.id), cls(e.residue), e.sheet) for e in c.extensions),
            None if c.marking is None else ident(c.marking),
            cls(c.cores_residue_input),
        )
        for c in cfg.curves
    )
    points = tuple(
        SingularPoint(
            ident(p.id),
            tuple(ident(cid) for cid in p.incident),
            p.etype,
            frozenset(ident(e) for e in p.meets_marked),
        )
        for p in cfg.points
    )
    return Configuration(cfg.cover_kind, tuple(symbol(s) for s in cfg.symbols), curves, points)


def relabel(cfg: Configuration, k: int) -> Configuration:
    return rename(cfg, lambda name: f"k{k}_{name}", lambda s: f"k{k}{s}")


def union(kind: CoverKind, blocks: list[Configuration]) -> Configuration:
    return Configuration(
        kind,
        tuple(s for b in blocks for s in b.symbols),
        tuple(c for b in blocks for c in b.curves),
        tuple(p for b in blocks for p in b.points),
    )


def corpus_union(kind: CoverKind, seed: int, want: int = 16) -> Configuration:
    """A valid disjoint union of ``want`` relabelled corpus blocks of one cover kind.

    A block joins only if the union stays valid: the union's S vectors
    span more coordinates than any block's own, so GC2/GC3 can fail on
    the union where they held on the block.
    """
    blocks: list[Configuration] = []
    for cfg in random_corpus(seed, 400):
        if cfg.cover_kind is not kind or not vp_basis(cfg):
            continue
        trial = blocks + [relabel(cfg, len(blocks))]
        if not validate(union(kind, trial)).errors:
            blocks = trial
        if len(blocks) == want:
            return union(kind, blocks)
    raise AssertionError("corpus too small for the requested union")


UNIONS = {
    "irreducible": (CoverKind.IRREDUCIBLE, 5),
    "split": (CoverKind.SPLIT_EVERYWHERE, 0),
}


@pytest.fixture(scope="module", params=sorted(UNIONS))
def large_union(request) -> Configuration:
    cfg = corpus_union(*UNIONS[request.param])
    assert len(vp_basis(cfg)) > brauer._BRUTE_FORCE_CAP
    return cfg


def test_incidence_walk_matches_scan_on_corpus():
    for cfg in random_corpus(11, 200):
        assert matrix_p_to_r(cfg) == scan_p_to_r(cfg)


def test_incidence_walk_matches_scan_on_large_union(large_union):
    assert matrix_p_to_r(large_union) == scan_p_to_r(large_union)


@pytest.mark.parametrize("kind", list(CoverKind))
def test_incidence_walk_matches_scan_on_unfiltered_union(kind):
    # Every block of the corpus joins, so R keeps all of their points.  The
    # union is structurally valid, as its blocks are, but may fail a GC
    # check, which ``matrix_p_to_r`` would refuse: read the built m_pr.
    blocks = [cfg for cfg in random_corpus(13, 200) if cfg.cover_kind is kind]
    cfg = union(kind, [relabel(b, k) for k, b in enumerate(blocks)])
    assert len(blocks) >= 15 and len(vp_basis(cfg)) > brauer._BRUTE_FORCE_CAP
    assert model._structural_diagnostics(cfg)[0] == []
    spaces = model._build_spaces(cfg)
    assert len(spaces.zr) > 20
    assert spaces.m_pr == scan_p_to_r(cfg)


def test_incidence_walk_refuses_clashing_ids():
    # Outside validation ids may repeat; no reader builds m_pr for such data.
    cfg = dsl.builtin("hpt")
    clash = model.Configuration(
        cfg.cover_kind,
        cfg.symbols,
        cfg.curves + (cfg.curves[0],),
        cfg.points + (SingularPoint("p_self", ("x-axis", "x-axis"), cfg.points[0].etype),),
    )
    first = cfg.curves[0]
    report = validate(clash)
    assert [(d.code, d.subject) for d in report.errors] == (
        [("DUP_ID", first.id)] + [("DUP_ID", e.id) for e in first.extensions] + [("POINT_PAIR", "p_self")]
    )
    with pytest.raises(brauer.InvalidConfigurationError) as refused:
        matrix_p_to_r(clash)
    assert refused.value.report == report


# --- m_pr and m_qp from the stated rules --------------------------------------


def plain_rank(masks: list[int], width: int) -> int:
    """The GF(2) rank of rows given as masks, by elimination on lists of 0/1.

    It shares no code with ``isbbrauer.f2``, so it checks ``rref`` from
    outside the module that ``kernel_basis`` lives in.
    """
    rows = [[mask >> j & 1 for j in range(width)] for mask in masks]
    rank = 0
    for j in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][j]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def check_rule_oracle(cfg: Configuration) -> None:
    p, rows, columns, s = rule_rows_and_columns(cfg)
    m_pr = F2Matrix(len(rows), p, tuple(rows))
    assert matrix_p_to_r(cfg) == m_pr
    spaces = model._build_spaces(cfg)
    assert spaces.m_qp.column_masks() == columns
    assert [v.mask for v in spaces.s_vectors] == s
    pr_rank = rref(m_pr).rank
    qp_rank = rref(F2Matrix(len(columns), p, tuple(columns))).rank  # the rank of m_qp's transpose
    s_rank = rref(F2Matrix(len(s), p, tuple(s))).rank
    if p <= 200:
        assert (plain_rank(rows, p), plain_rank(columns, p)) == (pr_rank, qp_rank)
    assert p - pr_rank - qp_rank - s_rank == unramified_brauer(cfg).h2nr_dim


def test_rule_oracle_on_corpus():
    kinds = set()
    for cfg in random_corpus(11, 200):
        check_rule_oracle(cfg)
        kinds |= {point.etype for point in cfg.points}
    assert kinds == set(PointType)


def test_rule_oracle_on_large_union(large_union):
    check_rule_oracle(large_union)


@pytest.mark.parametrize("cuts,chords", [(0, 100), (12, 20), (40, 0)])
def test_rule_oracle_on_rings(cuts, chords):
    cfg, _ = ring(random.Random(cuts * 101 + chords), 400, cuts, chords)
    assert len(vp_basis(cfg)) == 800
    check_rule_oracle(cfg)
    generators = unramified_brauer(cfg).generators
    assert generators and all(g.ramification for g in generators)


# --- metamorphic relations on the corpus ----------------------------------------


@pytest.fixture(scope="module")
def corpus() -> list[Configuration]:
    return random_corpus(7, 300)


# sha256 of ``dsl.emit`` over each corpus.  The sampler keeps only what
# ``validate`` accepts, so a change in ``model`` could otherwise change what
# every corpus oracle sees without a test failing.
CORPUS_SHA256 = {
    (7, 300): "b3e7d532b5e85b877b444a58042481cdea39e51321db3526167cd2468d8c066a",
    (0, 200): "929731b0da7f0d19016446fd064d278fa6f79a2bb64a88567a5e8b30e31f5bfb",
}


@pytest.mark.parametrize("seed,count", sorted(CORPUS_SHA256))
def test_the_corpus_is_pinned(seed, count):
    emitted = "".join(dsl.emit(cfg) for cfg in random_corpus(seed, count))
    assert hashlib.sha256(emitted.encode()).hexdigest() == CORPUS_SHA256[seed, count]


def test_the_sampler_redraws_past_max_p():
    assert max(len(vp_basis(random_configuration(random.Random(seed), max_p=2))) for seed in range(50)) <= 2


def test_the_sampler_gives_up_when_no_draw_fits():
    with pytest.raises(RuntimeError, match="^no valid configuration found in "):
        random_configuration(random.Random(0), max_p=-1)


def dims(cfg: Configuration) -> tuple[int, int]:
    report = unramified_brauer(cfg)
    return report.kernel_dim, report.h2nr_dim


def reversed_names(cfg: Configuration) -> Configuration:
    """Every symbol and id renamed, so that their sorted order reverses."""
    ids = [c.id for c in cfg.curves] + [e.id for c in cfg.curves for e in c.extensions] + [p.id for p in cfg.points]
    names = sorted({*cfg.symbols, *ids})
    new = {name: f"n{len(names) - i:03d}" for i, name in enumerate(names)}
    return rename(cfg, new.__getitem__, new.__getitem__)


def test_renaming_keeps_the_dims_and_the_generators(corpus):
    for cfg in corpus:
        report, renamed = unramified_brauer(cfg), unramified_brauer(reversed_names(cfg))
        assert (renamed.kernel_dim, renamed.h2nr_dim) == (report.kernel_dim, report.h2nr_dim)
        assert [g.vector for g in renamed.generators] == [g.vector for g in report.generators]


def test_reversing_the_curve_order_keeps_the_dims(corpus):
    for cfg in corpus:
        assert dims(cfg._replace(curves=cfg.curves[::-1])) == dims(cfg)


def test_permuting_the_curves_keeps_the_cosets_the_generators_span(corpus):
    # Greedy selection follows the kernel basis, which follows the
    # declaration order, so a permutation need not map each generator to
    # its own coset: on 105 of the 184 draws with h2nr >= 1, some mapped
    # generator is not in the coset, modulo image(Q), of the one in its place.
    # What holds is that the mapped generators lie in the kernel, are
    # independent modulo image(Q) + image(S), so span the same quotient,
    # and keep their ramification.
    rng = random.Random(1)
    draws = moved = 0
    for cfg in corpus:
        curves = list(cfg.curves)
        rng.shuffle(curves)
        report, permuted = unramified_brauer(cfg), unramified_brauer(cfg._replace(curves=tuple(curves)))
        assert permuted.dims == report.dims
        coordinate = {label: j for j, label in enumerate(report.p_labels)}
        pivots = dict(model._build_spaces(cfg).qs_echelon)
        relations = column_space(report.m_qp)
        same_cosets = True
        for g, original in zip(permuted.generators, report.generators):
            mapped = F2Vector(
                len(coordinate), sum(1 << coordinate[permuted.p_labels[j]] for j in g.vector.support())
            )
            assert _insert(pivots, mapped.mask), cfg
            assert dict(brauer.ramification_lift(cfg, mapped)) == dict(g.ramification), cfg
            same_cosets &= member(relations, mapped + original.vector)
        draws += report.h2nr_dim >= 1
        moved += not same_cosets
    assert (draws, moved) == (184, 105)


def test_a_copied_contributing_point_keeps_the_dims(corpus):
    # the copy repeats an R row, which leaves every rank as it was
    copied = 0
    for cfg in corpus:
        for point in cfg.points:
            if point.etype not in (PointType.I_II, PointType.IVPP_IV):
                twin = cfg._replace(points=cfg.points + (point._replace(id=point.id + "_copy"),))
                assert dims(twin) == dims(cfg)
                copied += 1
    assert copied > 80


def test_a_disjoint_union_adds_the_kernel_dims(corpus):
    # h2nr_dim need not add: an irreducible union has dim S <= 1, where
    # each of its blocks may have its own cores(beta)
    unions = 0
    for a, b in zip(corpus, corpus[1:]):
        if a.cover_kind is not b.cover_kind:
            continue
        joined = union(a.cover_kind, [relabel(a, 0), relabel(b, 1)])
        if not validate(joined).errors:
            assert dims(joined)[0] == dims(a)[0] + dims(b)[0]
            unions += 1
    assert unions > 100


def test_pivot_selection_matches_greedy_loop_on_corpus():
    picked = 0
    for cfg in random_corpus(12, 200):
        generators = [g.vector for g in unramified_brauer(cfg).generators]
        assert generators == greedy_generators(cfg)
        picked += len(generators)
    assert picked > 0


def test_pivot_selection_matches_greedy_loop_on_large_union(large_union):
    report = unramified_brauer(large_union)
    assert report.generators
    assert [g.vector for g in report.generators] == greedy_generators(large_union)
    assert report.m_pr == scan_p_to_r(large_union)
    for g in report.generators:
        assert g.ramification
        assert list(g.ramification) == brauer.ramification_lift(large_union, g.vector)


# --- the lift's kernel on P -------------------------------------------------------


def test_the_lift_is_empty_exactly_on_the_q_image():
    # So no generator, which lies outside image(Q), is reported unramified;
    # the large-union and ring tests check that every generator is ramified.
    vectors = empty = 0
    for cfg in random_corpus(0, 300):
        spaces = model._build_spaces(cfg)
        p = len(spaces.vp)
        q_image = column_space(spaces.m_qp)
        for mask in range(1 << p):
            v = F2Vector(p, mask)
            lifted = brauer._lift(spaces, v)
            assert (lifted == []) == member(q_image, v), (cfg, v)
            vectors += 1
            empty += lifted == []
    assert vectors > 10_000 and empty > 300


# --- the lift from its stated rule -----------------------------------------------


def reference_lift(cfg: Configuration, vec: F2Vector) -> list[tuple[str, ResidueClass]]:
    """The ramification of ``vec`` by the rule ``ramification_lift`` states.

    P has one coordinate per extension with nonzero residue, in
    declaration order.  Each set coordinate adds its extension's residue,
    or the cores residue of its curve if that curve is inert, to its
    curve.  An extension id belongs to the last curve that declares it,
    and a curve id ranks by its last declaration.  Curves whose sum is
    zero are dropped.
    """
    p_basis = [ext for c in cfg.curves for ext in c.extensions if not ext.residue.is_zero]
    owner = {ext.id: c for c in cfg.curves for ext in c.extensions}
    rank = {c.id: i for i, c in enumerate(cfg.curves)}
    totals: dict[str, ResidueClass] = {}
    for j, ext in enumerate(p_basis):
        if vec.mask >> j & 1:
            curve = owner[ext.id]
            if curve.cover_behavior is CoverBehavior.INERT:
                added = curve.cores_residue_input
                if added is None:  # the stated default
                    added = ResidueClass()
            else:
                added = ext.residue
            totals[curve.id] = totals.get(curve.id, ResidueClass()) + added
    ordered = sorted(totals, key=rank.__getitem__)
    return [(cid, totals[cid]) for cid in ordered if not totals[cid].is_zero]


def check_lift(cfg: Configuration, vec: F2Vector, spaces=None) -> list[tuple[str, ResidueClass]]:
    """``_lift`` and, on a kernel vector, ``ramification_lift`` against the reference.

    ``spaces`` are ``cfg``'s, when the caller has built them.
    """
    expected = reference_lift(cfg, vec)
    if spaces is None:
        spaces = model._build_spaces(cfg)
    assert brauer._lift(spaces, vec) == expected, (cfg, vec)
    if mul(spaces.m_pr, vec).is_zero:
        assert brauer.ramification_lift(cfg, vec) == expected, (cfg, vec)
    else:
        with pytest.raises(brauer.KernelContractError):
            brauer.ramification_lift(cfg, vec)
    return expected


def test_the_lift_matches_its_rule_on_every_corpus_vector():
    kernel = vectors = 0
    for cfg in random_corpus(0, 300):
        spaces = model._build_spaces(cfg)
        p = len(spaces.vp)
        for mask in range(1 << p):
            vec = F2Vector(p, mask)
            check_lift(cfg, vec, spaces)
            vectors += 1
            kernel += mul(spaces.m_pr, vec).is_zero
    assert vectors > 10_000 and 1000 < kernel < vectors


def test_the_lift_matches_its_rule_on_large_union(large_union):
    report = unramified_brauer(large_union)
    for g in report.generators:
        assert list(g.ramification) == check_lift(large_union, g.vector) != []
    p = len(vp_basis(large_union))
    rng = random.Random(23)
    for _ in range(200):
        check_lift(large_union, F2Vector(p, rng.getrandbits(p)))


def test_the_lift_refuses_an_id_declared_twice():
    # Unvalidated: extension id e1 is declared on split curve x and again on
    # inert curve y, and curve id x is declared again after y.
    a, b, c = (ResidueClass.of(s) for s in "abc")
    cfg = Configuration(
        CoverKind.IRREDUCIBLE,
        ("a", "b", "c"),
        (
            Curve("x", CurveType.II, CoverBehavior.SPLIT, (Extension("e1", a), Extension("e2", b))),
            Curve("y", CurveType.II, CoverBehavior.INERT, (Extension("e1", b),), cores_residue_input=c),
            Curve("x", CurveType.III, CoverBehavior.RAMIFIED, (Extension("e3", c),)),
        ),
    )
    report = validate(cfg)
    assert [(d.code, d.subject) for d in report.errors] == [("DUP_ID", "e1"), ("DUP_ID", "x")]
    assert [ext.id for ext in vp_basis(cfg)] == ["e1", "e2", "e1", "e3"]
    for mask in range(16):
        with pytest.raises(brauer.InvalidConfigurationError) as refused:
            brauer.ramification_lift(cfg, F2Vector(4, mask))
        assert refused.value.report == report


# --- the brute-force oracle past the sampler's dim P ------------------------------


def test_brute_force_matches_on_unions_past_dim_p_10():
    # ``random_corpus`` never exceeds dim P 10; a union of 2 or 3 of its
    # draws reaches 11 to 16, inside the enumeration cap of 20.
    corpus = random_corpus(5, 60)
    seen = set()
    for kind in CoverKind:
        blocks = [relabel(cfg, k) for k, cfg in enumerate(b for b in corpus if b.cover_kind is kind)]
        for size in (2, 3):
            for i in range(len(blocks) - size + 1):
                cfg = union(kind, blocks[i : i + size])
                p = len(vp_basis(cfg))
                if 11 <= p <= 16 and p not in seen and not validate(cfg).errors:
                    assert brauer.brute_force_unramified(cfg) == dims(cfg), cfg
                    seen.add(p)
                    break
    assert len(seen) == 4 and max(seen) > 12


def test_compute_validates_once_and_builds_spaces_once(monkeypatch, tmp_path):
    calls: Counter = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(model, "_structural_diagnostics")
    count(model, "_build_spaces")
    count(brauer, "matrix_p_to_r")
    count(brauer, "ramification_lift")
    path = tmp_path / "hpt.cfg"
    path.write_text(dsl.builtin_source("hpt"))
    out = io.StringIO()
    assert cli.run(["compute", str(path)], out, io.StringIO()) == cli.OK
    assert "generator g1:" in out.getvalue()
    assert calls == Counter({"_structural_diagnostics": 1, "_build_spaces": 1})


@pytest.mark.parametrize(
    "argv,expect",
    [
        (["validate", "{path}"], "result: ok\n"),
        (["explain", "{path}"], "restriction kernel (dim 0): "),
        (["example", "hpt"], "generator g1:"),
    ],
    ids=["validate", "explain", "example"],
)
def test_every_command_validates_once_and_builds_spaces_once(monkeypatch, tmp_path, argv, expect):
    calls: Counter = Counter()
    for name in ("_structural_diagnostics", "_build_spaces"):

        def counted(*args, _original=getattr(model, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(model, name, counted)
    path = tmp_path / "hpt.cfg"
    path.write_text(dsl.builtin_source("hpt"))
    out = io.StringIO()
    assert cli.run([arg.format(path=path) for arg in argv], out, io.StringIO()) == cli.OK
    assert expect in out.getvalue()
    assert calls == Counter({"_structural_diagnostics": 1, "_build_spaces": 1})


NOT_IN_KERNEL = "^vector is not in the kernel of P -> R$"


def test_kernel_check_agrees_with_each_product(large_union):
    spaces = model._build_spaces(large_union)
    kernel = list(kernel_basis(spaces.m_pr).basis)
    p = len(spaces.vp)
    rng = random.Random(5)
    outcomes = Counter()
    for _ in range(300):
        vectors = rng.sample(kernel, rng.randint(0, len(kernel)))
        if rng.random() < 0.5:
            stray = F2Vector(p, rng.getrandbits(p) & rng.getrandbits(p) & rng.getrandbits(p))
            vectors.insert(rng.randint(0, len(vectors)), stray)
        in_kernel = all(mul(spaces.m_pr, v).is_zero for v in vectors)
        if in_kernel:
            brauer._check_kernel(spaces, vectors)
        else:
            with pytest.raises(brauer.KernelContractError, match=NOT_IN_KERNEL):
                brauer._check_kernel(spaces, vectors)
        outcomes[in_kernel] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100
    wrong_length = f"^vector has length {p + 1}, expected dim P = {p}$"
    with pytest.raises(brauer.KernelContractError, match=wrong_length):
        brauer._check_kernel(spaces, kernel + [F2Vector(p + 1, 0)])
