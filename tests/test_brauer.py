"""The main computation against its worked examples and the brute-force oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isbbrauer import brauer, dsl, model, sampling
from isbbrauer.brauer import (
    CapExceededError,
    InvalidConfigurationError,
    KernelContractError,
    brute_force_unramified,
    matrix_p_to_r,
    ramification_lift,
    residue_kernel,
    restriction_kernel,
    unramified_brauer,
)
from isbbrauer.f2 import F2Matrix, F2Vector, kernel_basis
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
    ZERO,
    cores_residue,
    vp_basis,
)
from isbbrauer.sampling import random_configuration

from f2_reference import bits, column_space, columns, from_bits, member, span, to_lists

HPT = dsl.builtin("hpt")
CUBIC_QUARTIC = dsl.builtin("cubic-quartic")


def inert_carrier() -> Configuration:
    """One inert Type II curve carrying residue {a} with cores {a}."""
    return Configuration(
        CoverKind.IRREDUCIBLE,
        ("a",),
        (
            Curve(
                "carrier",
                CurveType.II,
                CoverBehavior.INERT,
                (Extension("carrier_t", ResidueClass.of("a")),),
                cores_residue_input=ResidueClass.of("a"),
            ),
        ),
    )


def split_cover_equal_sheets() -> Configuration:
    return Configuration(
        CoverKind.SPLIT_EVERYWHERE,
        ("a",),
        (
            Curve(
                "c",
                CurveType.II,
                CoverBehavior.SPLIT,
                (
                    Extension("c_1", ResidueClass.of("a"), sheet=1),
                    Extension("c_2", ResidueClass.of("a"), sheet=2),
                ),
            ),
        ),
    )


# --- the two worked examples ------------------------------------------


def test_hpt_dimensions_and_matrix():
    report = unramified_brauer(HPT)
    assert report.dims == {"s": 0, "p": 6, "q": 3, "r": 3, "kernel": 1, "h2nr": 1}
    assert to_lists(report.m_pr) == [
        [0, 0, 1, 1, 1, 1],
        [1, 1, 0, 0, 1, 1],
        [1, 1, 1, 1, 0, 0],
    ]
    expected_q = span(
        6,
        [
            from_bits([1, 1, 0, 0, 0, 0]),
            from_bits([0, 0, 1, 1, 0, 0]),
            from_bits([0, 0, 0, 0, 1, 1]),
        ],
    )
    assert column_space(report.m_qp) == expected_q
    assert report.p_labels == ("e_xyz", "e_xzy", "e_yxz", "e_yzx", "e_zxy", "e_zyx")
    assert report.s_labels == ()


def test_hpt_generator_matches_reference_coset():
    report = unramified_brauer(HPT)
    assert len(report.generators) == 1
    gen = report.generators[0]
    reference = from_bits([1, 0, 1, 0, 1, 0])
    relations = column_space(report.m_qp)
    assert member(relations, gen.vector + reference)
    assert not member(relations, gen.vector + F2Vector(6))


def test_hpt_generator_ramifies_on_all_three_axes():
    report = unramified_brauer(HPT)
    ram = dict(report.generators[0].ramification)
    assert ram == {
        "x-axis": ResidueClass.of("a"),
        "y-axis": ResidueClass.of("b"),
        "z-axis": ResidueClass.of("c"),
    }


def test_cubic_quartic():
    report = unramified_brauer(CUBIC_QUARTIC)
    assert report.dims == {"s": 0, "p": 2, "q": 1, "r": 0, "kernel": 1, "h2nr": 1}
    gen = report.generators[0]
    assert dict(gen.ramification) == {"cubic": ResidueClass.of("d")}


def test_empty_configuration():
    empty = Configuration(CoverKind.IRREDUCIBLE)
    report = unramified_brauer(empty)
    assert report.dims == {"s": 0, "p": 0, "q": 0, "r": 0, "kernel": 0, "h2nr": 0}
    assert report.generators == ()
    assert brute_force_unramified(empty) == (0, 0)


# --- restriction kernel -------------------------------------------------------


def test_s_space_cases():
    assert model._build_spaces(HPT).s_labels == ()
    assert model._build_spaces(inert_carrier()).s_labels == ("cores(beta)",)
    assert model._build_spaces(split_cover_equal_sheets()).s_labels == ("beta_1",)


def test_s_space_split_distinct_sheets():
    cfg = split_cover_equal_sheets()
    curve = cfg.curves[0]
    twisted = curve._replace(
        extensions=(curve.extensions[0], Extension("c_2", ResidueClass.of("b"), sheet=2)),
    )
    cfg = Configuration(cfg.cover_kind, ("a", "b"), (twisted,))
    assert model._build_spaces(cfg).s_labels == ("beta_1", "beta_2")
    assert restriction_kernel(cfg) == "generated by beta_1, beta_2"

    sheet2_only = curve._replace(
        extensions=(Extension("c_1", sheet=1), Extension("c_2", ResidueClass.of("a"), sheet=2)),
    )
    cfg = Configuration(CoverKind.SPLIT_EVERYWHERE, ("a",), (sheet2_only,))
    assert model._build_spaces(cfg).s_labels == ("beta_2",)


def test_s_to_p_vectors():
    assert model._build_spaces(HPT).s_vectors == ()
    assert model._build_spaces(inert_carrier()).s_vectors == (from_bits([1]),)
    cfg = split_cover_equal_sheets()
    # only sheet 1 would carry ramification here if sheet 2's residue is 0;
    # with one generator the indicator covers the whole of P
    vp = vp_basis(cfg)
    (vec,) = model._build_spaces(cfg).s_vectors
    assert vec.length == len(vp)
    assert vec.support() == tuple(j for j, e in enumerate(vp) if e.sheet == 1)


def test_restriction_kernel_descriptions():
    assert restriction_kernel(HPT) == "trivial: cores(beta) has no ramification"
    assert restriction_kernel(inert_carrier()) == "generated by cores(beta)"
    assert restriction_kernel(split_cover_equal_sheets()) == "generated by beta_1"
    (curve,) = split_cover_equal_sheets().curves
    unramified = curve._replace(extensions=tuple(e._replace(residue=ZERO) for e in curve.extensions))
    cfg = Configuration(CoverKind.SPLIT_EVERYWHERE, ("a",), (unramified,))
    assert model._build_spaces(cfg).s_labels == ()
    assert restriction_kernel(cfg) == "trivial: beta_1 and beta_2 are both unramified"


# --- constraint and relation matrices ----------------------------------------


def test_empty_point_set_gives_empty_matrix():
    m = matrix_p_to_r(CUBIC_QUARTIC)
    assert (m.rows, m.cols) == (0, 2)


def test_iv_ii_row_marks_listed_and_marked_extensions():
    cfg = Configuration(
        CoverKind.IRREDUCIBLE,
        ("a", "b"),
        (
            Curve(
                "conic",
                CurveType.II,
                CoverBehavior.SPLIT,
                (Extension("f_1", ResidueClass.of("a")), Extension("f_2", ResidueClass.of("b"))),
            ),
            Curve(
                "quad",
                CurveType.IV,
                CoverBehavior.SPLIT,
                (Extension("quad_m", ResidueClass.of("b")), Extension("quad_o")),
                marking="quad_m",
            ),
        ),
        points=(
            SingularPoint("z", ("conic", "quad"), PointType.IV_II, frozenset({"f_1"})),
        ),
    )
    from isbbrauer.model import validate

    assert validate(cfg).ok
    m = matrix_p_to_r(cfg)
    # columns are (f_1, f_2, quad_m): the listed extension and the marked one
    assert to_lists(m) == [[1, 0, 1]]


def test_inert_relation_is_a_unit_column():
    cfg = Configuration(
        CoverKind.IRREDUCIBLE,
        ("a",),
        (
            Curve("i", CurveType.II, CoverBehavior.INERT, (Extension("i_t", ResidueClass.of("a")),)),
            Curve(
                "s",
                CurveType.II,
                CoverBehavior.SPLIT,
                (Extension("s_1", ResidueClass.of("a")), Extension("s_2", ResidueClass.of("a"))),
            ),
        ),
    )
    m = model._build_spaces(cfg).m_qp
    assert (m.rows, m.cols) == (3, 2)
    assert [bits(c) for c in columns(m)] == [[1, 0, 0], [0, 1, 1]]


def test_empty_vq_gives_zero_width_matrix():
    cfg = inert_carrier()
    m = model._build_spaces(cfg).m_qp
    assert (m.rows, m.cols) == (1, 0)


# --- ramification lifts --------------------------------------------------------


def test_lift_of_relation_vectors_is_empty():
    for cfg in (HPT, CUBIC_QUARTIC):
        m_qp = model._build_spaces(cfg).m_qp
        for column in columns(m_qp):
            assert ramification_lift(cfg, column) == []


def test_lift_of_zero_vector_is_empty():
    assert ramification_lift(HPT, F2Vector(6)) == []


def test_lift_contract_violations():
    with pytest.raises(KernelContractError):
        ramification_lift(HPT, F2Vector(5))
    # e_yxz alone hits the p100 and p001 rows once each
    with pytest.raises(KernelContractError):
        ramification_lift(HPT, F2Vector(6, 1 << 2))


def test_lift_of_all_ones_recovers_cores_assignment():
    cfg = inert_carrier()
    lift = ramification_lift(cfg, from_bits([1]))
    assert lift == [("carrier", ResidueClass.of("a"))]


# --- local kernels --------------------------------------------------------------


def test_residue_kernel_cases():
    by_id = {c.id: c for c in HPT.curves}
    assert residue_kernel(by_id["C'"]) == []
    assert residue_kernel(by_id["x-axis"]) == [ResidueClass.of("a"), ResidueClass.of("a")]

    quad = Curve(
        "q",
        CurveType.IV,
        CoverBehavior.SPLIT,
        (Extension("q_m", ResidueClass.of("a")), Extension("q_o")),
        marking="q_m",
    )
    assert residue_kernel(quad) == [ResidueClass.of("a")]

    carrier = inert_carrier()
    assert residue_kernel(carrier.curves[0]) == [ResidueClass.of("a")]


# --- oracle and structural properties ------------------------------------------


def test_rejects_invalid_configuration():
    bad = Configuration(
        CoverKind.IRREDUCIBLE,
        ("a",),
        (Curve("c", CurveType.I, CoverBehavior.SPLIT, (Extension("c_t"),)),),
    )
    with pytest.raises(InvalidConfigurationError) as exc:
        unramified_brauer(bad)
    assert exc.value.report.errors


# Every public reader of the spaces, called on ``cfg``.
READERS = {
    "unramified_brauer": unramified_brauer,
    "ramification_lift": lambda cfg: ramification_lift(cfg, F2Vector(len(vp_basis(cfg)), 0)),
    "restriction_kernel": restriction_kernel,
    "brute_force_unramified": brute_force_unramified,
    "matrix_p_to_r": matrix_p_to_r,
}


@pytest.fixture(scope="module")
def rejected() -> dict[str, Configuration]:
    """For each GC check, the first raw draw of ``random.Random(5)`` whose
    only error is that check's; for DUP_ID, hpt with its first curve
    declared twice."""
    rng = random.Random(5)
    found = {"DUP_ID": HPT._replace(curves=HPT.curves + (HPT.curves[0],))}
    while len(found) < 5:
        cfg = sampling._draw(rng)
        codes = {d.code for d in model.validate(cfg).errors}
        if len(codes) == 1 and codes <= {"GC1", "GC2", "GC3", "GC4"}:
            found.setdefault(codes.pop(), cfg)
    return found


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_refuses_what_validation_rejects(rejected, reader):
    for code, cfg in rejected.items():
        report = model.validate(cfg)
        assert {d.code for d in report.errors} == {code}
        with pytest.raises(InvalidConfigurationError) as refused:
            READERS[reader](cfg)
        assert refused.value.report == report, code


def test_brute_force_cap():
    curves = tuple(
        Curve(
            f"c{i}",
            CurveType.II,
            CoverBehavior.SPLIT,
            (
                Extension(f"c{i}_1", ResidueClass.of("a")),
                Extension(f"c{i}_2", ResidueClass.of("a")),
            ),
        )
        for i in range(11)
    )
    cfg = Configuration(CoverKind.IRREDUCIBLE, ("a",), curves)
    with pytest.raises(CapExceededError):
        brute_force_unramified(cfg)


def test_hpt_brute_force():
    assert brute_force_unramified(HPT) == (1, 1)
    assert brute_force_unramified(CUBIC_QUARTIC) == (1, 1)


def test_brute_force_raises_on_a_coset_count_that_is_not_a_power_of_two(monkeypatch):
    # The kernel of ``m_pr`` is a subspace, so its cosets number a power of
    # two.  Three kernel vectors, which no subspace holds, are a bug.
    spaces = brauer._valid_spaces(HPT)
    bare = spaces._replace(m_pr=F2Matrix(0, len(spaces.vp)), q_columns=())
    monkeypatch.setattr(brauer, "_valid_spaces", lambda cfg: bare)
    monkeypatch.setattr(brauer, "range", lambda stop: (0, 1, 2), raising=False)
    with pytest.raises(AssertionError, match=r"^coset count is not a power of two; the kernel found is not a subspace$"):
        brute_force_unramified(HPT)


def test_brute_force_raises_on_a_q_column_outside_the_kernel(monkeypatch):
    # Each unit vector of P meets a row of hpt's ``m_pr`` in one place, so
    # none lies in its kernel.
    spaces = brauer._valid_spaces(HPT)
    units = tuple(1 << j for j in range(len(spaces.vp)))
    planted = spaces._replace(q_columns=units)
    monkeypatch.setattr(brauer, "_valid_spaces", lambda cfg: planted)
    with pytest.raises(AssertionError, match=r"^a Q column is not in the kernel of m_pr$"):
        brute_force_unramified(HPT)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_oracle_agreement(seed):
    cfg = random_configuration(random.Random(seed))
    report = unramified_brauer(cfg)
    assert (report.kernel_dim, report.h2nr_dim) == brute_force_unramified(cfg)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_exactness_bookkeeping(seed):
    cfg = random_configuration(random.Random(seed))
    report = unramified_brauer(cfg)
    assert report.h2nr_dim == report.kernel_dim - len(report.s_labels)
    assert report.h2nr_dim >= 0

    kernel = kernel_basis(report.m_pr)
    for column in columns(report.m_qp):
        assert member(kernel, column)
    for vec in model._build_spaces(cfg).s_vectors:
        assert member(kernel, vec)
    for gen in report.generators:
        assert member(kernel, gen.vector)
        assert not member(column_space(report.m_qp), gen.vector)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_lift_well_defined_modulo_relations(seed):
    cfg = random_configuration(random.Random(seed))
    m_qp = model._build_spaces(cfg).m_qp
    for column in columns(m_qp):
        assert ramification_lift(cfg, column) == []


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000), st.randoms(use_true_random=False))
def test_dimensions_invariant_under_reordering(seed, rng):
    cfg = random_configuration(random.Random(seed))
    curves, points = list(cfg.curves), list(cfg.points)
    rng.shuffle(curves)
    rng.shuffle(points)
    shuffled = Configuration(cfg.cover_kind, cfg.symbols, tuple(curves), tuple(points))
    assert unramified_brauer(shuffled).dims == unramified_brauer(cfg).dims


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_irreducible_all_ones_lift_is_cores_assignment(seed):
    cfg = random_configuration(random.Random(seed))
    spaces = model._build_spaces(cfg)
    if cfg.cover_kind is not CoverKind.IRREDUCIBLE or len(spaces.s_labels) != 1:
        return
    (vec,) = spaces.s_vectors
    lift = dict(ramification_lift(cfg, vec))
    carriers = {c.id for c in cfg.curves if any(not e.residue.is_zero for e in c.extensions)}
    expected = {}
    for c in cfg.curves:
        if c.id not in carriers:
            continue
        if c.cover_behavior is CoverBehavior.INERT:
            total = cores_residue(cfg, c)
        else:
            total = ResidueClass()
            for e in c.extensions:
                total = total + e.residue
        if not total.is_zero:
            expected[c.id] = total
    assert lift == expected


def test_report_assertions_record_gc_checks():
    report = unramified_brauer(HPT)
    assert report.assertions == (("gc1", "ok"), ("gc2", "ok"), ("gc3", "ok"), ("gc4", "ok"))
