"""The maps into P are built on read, so only ``compute`` builds them.

``validate`` and ``explain`` read the Q columns and the S vectors as
masks; ``m_qp`` and ``m_sp`` are their transposes, which only the report
prints.  Each is one ``F2Matrix.transpose``, so counting that call through
``cli.run`` shows which commands build them.

The columns of ``m_pr`` are built in the walk over the points that builds
its rows, so no command transposes ``m_pr``: they are checked against the
transpose on the corpus, rings, unions of every R point type and a
hand-built IV_II point, and ``F2Matrix.column_masks`` is counted per
command beside the transposes.
"""

import io

import pytest

from isbbrauer import cli, dsl, model
from isbbrauer.f2 import F2Matrix
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
)
from isbbrauer.sampling import random_corpus

from test_front_end import long_ring_source, ring_source
from test_growth import marked_crossings
from test_spaces import relabel, scan_p_to_r, union

SOURCES = {"hpt": lambda: dsl.builtin_source("hpt"), "ring400": lambda: ring_source(400)}


def test_the_maps_into_p_are_not_fields_of_the_spaces():
    assert "m_qp" not in model._Spaces._fields
    assert "m_sp" not in model._Spaces._fields


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize(
    "argv,transposes",
    [(["validate"], 0), (["explain"], 0), (["compute"], 2), (["compute", "--json"], 2)],
    ids=["validate", "explain", "compute", "compute-json"],
)
def test_transposes_per_command(monkeypatch, tmp_path, source, argv, transposes):
    # Every column build is one of these transposes: ``m_pr``'s columns
    # come from the point walk.
    calls = {"transpose": [], "column_masks": []}

    def counted(method, seen):
        def call(self):
            seen.append(self)
            return method(self)

        return call

    for name, seen in calls.items():
        monkeypatch.setattr(F2Matrix, name, counted(getattr(F2Matrix, name), seen))
    path = tmp_path / f"{source}.cfg"
    path.write_text(SOURCES[source]())
    command, *flags = argv
    assert cli.run([command, str(path), *flags], io.StringIO(), io.StringIO()) == cli.OK
    assert len(calls["transpose"]) == transposes
    assert len(calls["column_masks"]) == transposes


def check_columns(cfg: Configuration) -> model._Spaces:
    """The spaces of ``cfg``, whose rows match the pair scan and whose
    columns match their transpose."""
    assert model._structural_diagnostics(cfg)[0] == []
    spaces = model._build_spaces(cfg)
    assert spaces.m_pr == scan_p_to_r(cfg)
    assert spaces.pr_columns == spaces.m_pr.column_masks()
    return spaces


def test_the_columns_are_the_transpose_on_the_corpus():
    for cfg in random_corpus(0, 2000):
        check_columns(cfg)


@pytest.mark.parametrize("n", [50, 400])
@pytest.mark.parametrize("build", [ring_source, lambda n: long_ring_source(n, 0)], ids=["ring", "long"])
def test_the_columns_are_the_transpose_on_rings(build, n):
    spaces = check_columns(dsl.parse(build(n)))
    assert len(spaces.vp) == 2 * n


@pytest.mark.parametrize("kind", list(CoverKind))
def test_the_columns_are_the_transpose_on_every_r_point_type(kind):
    base = marked_crossings(kind)
    spaces = check_columns(union(kind, [relabel(base, k) for k in range(4)]))
    # A split cover has no ramified curve, so no Type III curve and no III_II point.
    missing = {PointType.III_II} if kind is CoverKind.SPLIT_EVERYWHERE else set()
    assert {p.etype for p in spaces.zr} == model._R_POINT_TYPES - missing
    assert any(p.etype is PointType.IV_II and p.meets_marked for p in spaces.zr)


@pytest.mark.parametrize("first_residue", ["a", None], ids=["both-carry", "second-carries"])
def test_the_columns_of_a_iv_ii_point_naming_the_second_extension(first_residue):
    # The Type IV curve comes first, so the Type II curve's coordinates do
    # not start at 0; its second extension is the one the point meets.
    a, b = ResidueClass.of("a"), ResidueClass.of("b")
    first = ResidueClass.of(first_residue) if first_residue else ResidueClass()
    cfg = Configuration(
        CoverKind.IRREDUCIBLE,
        ("a", "b"),
        (
            Curve("t4", CurveType.IV, CoverBehavior.SPLIT, (Extension("t4a", a), Extension("t4b")), marking="t4a"),
            Curve("t2", CurveType.II, CoverBehavior.SPLIT, (Extension("t2a", first), Extension("t2b", b))),
        ),
        (SingularPoint("z", ("t2", "t4"), PointType.IV_II, {"t2b"}),),
    )
    spaces = check_columns(cfg)
    second = len(spaces.vp) - 1  # t2b, the last coordinate of P
    assert spaces.m_pr.row_masks == (1 | 1 << second,)
    assert spaces.pr_columns == [1] + [0] * (second - 1) + [1]
