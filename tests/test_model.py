"""Validation rules: structural invariants, consistency checks, warnings.

The mutation suite takes one known-good configuration and breaks a single
field at a time; each break must surface the matching diagnostic code.
"""

import pytest

from isbbrauer import dsl, model
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
    validate,
    vp_basis,
)


def baseline() -> Configuration:
    """Irreducible cover, one curve of each of types I/II/IV, one crossing.

    The IV_II point lists exactly one extension of the Type II side, so
    the constraint row is (1,0,1) over (conic_1, conic_2, quad_m) and the
    all-ones restriction-kernel vector pairs evenly with it.
    """
    return Configuration(
        cover_kind=CoverKind.IRREDUCIBLE,
        symbols=("a", "b"),
        curves=(
            Curve("ramline", CurveType.I, CoverBehavior.RAMIFIED, (Extension("ramline_t"),)),
            Curve(
                "conic",
                CurveType.II,
                CoverBehavior.SPLIT,
                (
                    Extension("conic_1", ResidueClass.of("a")),
                    Extension("conic_2", ResidueClass.of("b")),
                ),
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
            SingularPoint("z0", ("conic", "quad"), PointType.IV_II, frozenset({"conic_1"})),
        ),
    )


def swap_curve(cfg: Configuration, cid: str, new: Curve) -> Configuration:
    curves = tuple(new if c.id == cid else c for c in cfg.curves)
    return cfg._replace(curves=curves)


def test_baseline_is_clean():
    report = validate(baseline())
    assert report.ok
    assert report.warnings == ()


def test_builtins_are_clean():
    for name in dsl.BUILTIN_NAMES:
        report = validate(dsl.builtin(name))
        assert report.ok, (name, report.errors)
        assert report.warnings == (), (name, report.warnings)


def _mutations():
    cfg = baseline()
    ramline, conic, quad = cfg.curves
    z0 = cfg.points[0]

    def with_point(p):
        return cfg._replace(points=(p,))

    yield "undeclared residue symbol", "RESIDUE_SYMBOLS", swap_curve(
        cfg, "conic", conic._replace(extensions=(Extension("conic_1", ResidueClass.of("z")), conic.extensions[1]))
    )
    yield "duplicate curve id", "DUP_ID", swap_curve(cfg, "quad", quad._replace(id="conic"))
    yield "duplicate extension id", "DUP_ID", swap_curve(
        cfg, "conic", conic._replace(extensions=(conic.extensions[0], conic.extensions[1]._replace(id="conic_1")))
    )
    yield "type I with residue", "TYPE_I_RESIDUE", swap_curve(
        cfg, "ramline", ramline._replace(extensions=(Extension("ramline_t", ResidueClass.of("a")),))
    )
    yield "type II ramified", "CURVE_BEHAVIOR", swap_curve(
        cfg, "conic", conic._replace(cover_behavior=CoverBehavior.RAMIFIED)
    )
    yield "type I split", "CURVE_BEHAVIOR", swap_curve(
        cfg, "ramline", ramline._replace(cover_behavior=CoverBehavior.SPLIT)
    )
    yield "split curve with one extension", "EXT_COUNT", swap_curve(
        cfg, "conic", conic._replace(extensions=(conic.extensions[0],))
    )
    yield "inert curve with two extensions", "EXT_COUNT", swap_curve(
        cfg, "conic", conic._replace(cover_behavior=CoverBehavior.INERT)
    )
    yield "sheet under irreducible cover", "SHEET", swap_curve(
        cfg, "conic", conic._replace(extensions=(conic.extensions[0]._replace(sheet=1), conic.extensions[1]))
    )
    yield "type IV without marking", "MARKING", swap_curve(cfg, "quad", quad._replace(marking=None))
    yield "marking not an own extension", "MARKING", swap_curve(cfg, "quad", quad._replace(marking="conic_1"))
    yield "marking on non-IV curve", "MARKING", swap_curve(cfg, "conic", conic._replace(marking="conic_1"))
    yield "non-marked IV residue", "UNMARKED_RESIDUE", swap_curve(
        cfg, "quad", quad._replace(extensions=(quad.extensions[0], Extension("quad_o", ResidueClass.of("a"))))
    )
    yield "cores on a split curve", "CORES_INPUT", swap_curve(
        cfg, "conic", conic._replace(cores_residue_input=ZERO)
    )
    yield "cores with undeclared symbol", "RESIDUE_SYMBOLS", swap_curve(
        cfg, "ramline", ramline._replace(cores_residue_input=ResidueClass.of("q"))
    )
    yield "point at unknown curve", "BAD_REF", with_point(z0._replace(incident=("conic", "ghost")))
    yield "point joining a curve to itself", "POINT_PAIR", with_point(z0._replace(incident=("conic", "conic")))
    yield "forbidden curve-type pair", "POINT_PAIR", with_point(
        z0._replace(incident=("ramline", "quad"), meets_marked=frozenset())
    )
    yield "etype disagrees with pair", "POINT_TYPE", with_point(z0._replace(etype=PointType.II_II, meets_marked=frozenset()))
    yield "meets_marked outside IV_II", "MEETS_MARKED", with_point(z0._replace(etype=PointType.II_II))
    yield "meets_marked names the IV side", "MEETS_MARKED", with_point(z0._replace(meets_marked=frozenset({"quad_m"})))
    yield "duplicate symbol", "DUP_ID", cfg._replace(symbols=("a", "b", "a"))
    yield "empty symbol name", "SYMBOLS", cfg._replace(symbols=("a", ""))
    yield "split cover over non-split curves", "SPLIT_COVER", cfg._replace(cover_kind=CoverKind.SPLIT_EVERYWHERE)
    yield "empty curve id", "DUP_ID", swap_curve(cfg, "ramline", ramline._replace(id=""))


@pytest.mark.parametrize("label,code,mutated", list(_mutations()), ids=lambda v: v if isinstance(v, str) and " " in v else None)
def test_single_field_mutations_are_rejected(label, code, mutated):
    report = validate(mutated)
    assert not report.ok, label
    assert code in {d.code for d in report.errors}, (label, report.errors)


def test_split_cover_requires_sheets():
    cfg = Configuration(
        cover_kind=CoverKind.SPLIT_EVERYWHERE,
        symbols=("a",),
        curves=(
            Curve(
                "c",
                CurveType.II,
                CoverBehavior.SPLIT,
                (Extension("c_1", ResidueClass.of("a")), Extension("c_2", ResidueClass.of("a"))),
            ),
        ),
    )
    codes = {d.code for d in validate(cfg).errors}
    assert "SHEET" in codes

    both_sheet_one = Curve(
        "c",
        CurveType.II,
        CoverBehavior.SPLIT,
        (
            Extension("c_1", ResidueClass.of("a"), sheet=1),
            Extension("c_2", ResidueClass.of("a"), sheet=1),
        ),
    )
    codes = {d.code for d in validate(cfg._replace(curves=(both_sheet_one,))).errors}
    assert "SHEET" in codes


# --- geometric-consistency checks -------------------------------------------


def test_gc1_inert_curve_crossing_type_iii():
    # The inert Type II curve sits in Q (cores defaults to zero) but its
    # extension hits the III_II constraint row an odd number of times.
    cfg = Configuration(
        cover_kind=CoverKind.IRREDUCIBLE,
        symbols=("a",),
        curves=(
            Curve(
                "cusp",
                CurveType.III,
                CoverBehavior.RAMIFIED,
                (Extension("cusp_t", ResidueClass.of("a")),),
                cores_residue_input=ResidueClass.of("a"),
            ),
            Curve("line", CurveType.II, CoverBehavior.INERT, (Extension("line_t", ResidueClass.of("a")),)),
        ),
        points=(SingularPoint("z", ("cusp", "line"), PointType.III_II),),
    )
    report = validate(cfg)
    assert {d.code for d in report.errors} == {"GC1"}
    assert any(d.subject == "line" for d in report.errors)


def test_gc2_s_image_meets_q_image():
    # P is exactly the two extensions of one split curve with equal
    # residues, so the curve's relation vector is the all-ones vector --
    # the same vector the nonzero restriction kernel maps to.
    cfg = Configuration(
        cover_kind=CoverKind.IRREDUCIBLE,
        symbols=("a",),
        curves=(
            Curve(
                "pair",
                CurveType.II,
                CoverBehavior.SPLIT,
                (Extension("p_1", ResidueClass.of("a")), Extension("p_2", ResidueClass.of("a"))),
            ),
            Curve(
                "carrier",
                CurveType.II,
                CoverBehavior.INERT,
                (Extension("carrier_t"),),
                cores_residue_input=ResidueClass.of("a"),
            ),
        ),
    )
    report = validate(cfg)
    assert "GC2" in {d.code for d in report.errors}


def test_gc3_s_vector_escapes_kernel():
    cfg = Configuration(
        cover_kind=CoverKind.IRREDUCIBLE,
        symbols=("a",),
        curves=(
            Curve(
                "cusp",
                CurveType.III,
                CoverBehavior.RAMIFIED,
                (Extension("cusp_t", ResidueClass.of("a")),),
                cores_residue_input=ResidueClass.of("a"),
            ),
            Curve(
                "conic",
                CurveType.II,
                CoverBehavior.SPLIT,
                (Extension("c_1", ResidueClass.of("a")), Extension("c_2", ResidueClass.of("a"))),
            ),
        ),
        points=(SingularPoint("z", ("cusp", "conic"), PointType.III_II),),
    )
    codes = {d.code for d in validate(cfg).errors}
    assert "GC3" in codes


def test_gc4_cores_without_any_ramification():
    # A nonzero corestriction residue with an empty P forces the zero map
    # on a one-dimensional restriction kernel.
    cfg = Configuration(
        cover_kind=CoverKind.IRREDUCIBLE,
        symbols=("a",),
        curves=(
            Curve(
                "carrier",
                CurveType.II,
                CoverBehavior.INERT,
                (Extension("carrier_t"),),
                cores_residue_input=ResidueClass.of("a"),
            ),
        ),
    )
    codes = {d.code for d in validate(cfg).errors}
    assert "GC4" in codes


# --- warnings ---------------------------------------------------------------


def warn_codes(cfg):
    report = validate(cfg)
    assert report.ok, report.errors
    return {d.code for d in report.warnings}


def test_warning_type_ii_all_zero():
    cfg = Configuration(
        CoverKind.IRREDUCIBLE,
        ("a",),
        (Curve("c", CurveType.II, CoverBehavior.SPLIT, (Extension("c_1"), Extension("c_2"))),),
    )
    assert "W_TYPE_II_ZERO" in warn_codes(cfg)


def test_warning_ramified_zero_residue():
    cusp = Curve("c", CurveType.III, CoverBehavior.RAMIFIED, (Extension("c_t"),))
    cfg = Configuration(CoverKind.IRREDUCIBLE, ("a",), (cusp,))
    assert "W_RAMIFIED_ZERO" in warn_codes(cfg)

    quad = Curve(
        "q", CurveType.IV, CoverBehavior.SPLIT, (Extension("q_m"), Extension("q_o")), marking="q_m"
    )
    cfg = Configuration(CoverKind.IRREDUCIBLE, ("a",), (quad,))
    assert "W_RAMIFIED_ZERO" in warn_codes(cfg)


def test_warning_inert_type_iv():
    quad = Curve(
        "q",
        CurveType.IV,
        CoverBehavior.INERT,
        (Extension("q_m", ResidueClass.of("a")),),
        marking="q_m",
        cores_residue_input=ResidueClass.of("a"),
    )
    cfg = Configuration(CoverKind.IRREDUCIBLE, ("a",), (quad,))
    assert "W_INERT_IV" in warn_codes(cfg)


def test_warning_cores_defaulted():
    inert = Curve("c", CurveType.II, CoverBehavior.INERT, (Extension("c_t"),))
    cfg = Configuration(CoverKind.IRREDUCIBLE, ("a",), (inert,))
    assert "W_CORES_DEFAULTED" in warn_codes(cfg)

    cusp = Curve("c", CurveType.III, CoverBehavior.RAMIFIED, (Extension("c_t", ResidueClass.of("a")),))
    (warning,) = validate(Configuration(CoverKind.IRREDUCIBLE, ("a",), (cusp,))).warnings
    assert warning.code == "W_CORES_DEFAULTED" and "carries residue" in warning.message


def test_each_rule_reads_which_extensions_carry_residue():
    # One zero and one nonzero extension on every curve but ``flat``: each
    # rule that looks at residues must tell the two apart, in order.
    a, b = ResidueClass.of("a"), ResidueClass.of("b")
    cfg = Configuration(
        CoverKind.IRREDUCIBLE,
        ("a", "b"),
        (
            Curve("cusp", CurveType.III, CoverBehavior.RAMIFIED, (Extension("cusp_1", a), Extension("cusp_2"))),
            Curve("line", CurveType.I, CoverBehavior.RAMIFIED, (Extension("line_1"), Extension("line_2", b))),
            Curve(
                "quad",
                CurveType.IV,
                CoverBehavior.SPLIT,
                (Extension("quad_m"), Extension("quad_o", b)),
                marking="quad_m",
            ),
            Curve("conic", CurveType.II, CoverBehavior.SPLIT, (Extension("conic_1"), Extension("conic_2", a))),
            Curve("flat", CurveType.II, CoverBehavior.SPLIT, (Extension("flat_1"), Extension("flat_2"))),
        ),
    )
    report = validate(cfg)
    assert [(d.code, d.subject) for d in report.errors] == [
        ("EXT_COUNT", "cusp"),
        ("EXT_COUNT", "line"),
        ("TYPE_I_RESIDUE", "line"),
        ("UNMARKED_RESIDUE", "quad"),
    ]
    assert "line_2" in report.errors[2].message and "quad_o" in report.errors[3].message
    assert [(d.code, d.subject) for d in report.warnings] == [
        ("W_RAMIFIED_ZERO", "cusp"),
        ("W_CORES_DEFAULTED", "cusp"),
        ("W_RAMIFIED_ZERO", "quad"),
        ("W_TYPE_II_ZERO", "flat"),
    ]


# --- bases and residues -------------------------------------------------------


def test_residue_class_algebra():
    a, b = ResidueClass.of("a"), ResidueClass.of("b")
    assert (a + b) + b == a
    assert a + a == ZERO
    assert ZERO.is_zero and not (a + b).is_zero
    assert (a + b).render(model._symbol_positions(("b", "a"))) == "b+a"
    assert ZERO.render(model._symbol_positions(())) == "0"
    with pytest.raises(ValueError):
        (a + b).render(model._symbol_positions(("a",)))


def test_cores_residue_rules():
    cfg = baseline()
    by_id = {c.id: c for c in cfg.curves}
    assert cores_residue(cfg, by_id["conic"]) == ResidueClass.of("a", "b")
    assert cores_residue(cfg, by_id["ramline"]) == ZERO  # defaulted
    inert = Curve(
        "i", CurveType.II, CoverBehavior.INERT, (Extension("i_t"),),
        cores_residue_input=ResidueClass.of("a"),
    )
    assert cores_residue(cfg, inert) == ResidueClass.of("a")


def test_hpt_bases_follow_declaration_order():
    cfg = dsl.builtin("hpt")
    assert [e.id for e in vp_basis(cfg)] == ["e_xyz", "e_xzy", "e_yxz", "e_yzx", "e_zxy", "e_zyx"]
    assert [c.id for c in cfg.spaces.vq] == ["x-axis", "y-axis", "z-axis"]
    assert [p.id for p in cfg.spaces.zr] == ["p100", "p010", "p001"]


def test_cubic_quartic_bases():
    cfg = dsl.builtin("cubic-quartic")
    assert [e.id for e in vp_basis(cfg)] == ["cubic_1", "cubic_2"]
    assert [c.id for c in cfg.spaces.vq] == ["cubic"]
    assert cfg.spaces.zr == ()


def test_zr_excludes_transverse_and_double_iv_points():
    cfg = baseline()
    extra = (
        SingularPoint("t0", ("ramline", "conic"), PointType.I_II),
        cfg.points[0],
    )
    cfg = cfg._replace(points=extra)
    assert [p.id for p in cfg.spaces.zr] == ["z0"]
    assert validate(cfg).ok


def test_vq_excludes_curve_with_nonzero_cores():
    cfg = Configuration(
        CoverKind.IRREDUCIBLE,
        ("a",),
        (
            Curve(
                "i", CurveType.II, CoverBehavior.INERT,
                (Extension("i_t", ResidueClass.of("a")),),
                cores_residue_input=ResidueClass.of("a"),
            ),
        ),
    )
    assert cfg.spaces.vq == ()
    assert validate(cfg).ok


def test_value_types_normalise_their_collections():
    # ``__new__`` converts only what is not already the field's type,
    # so both the converted and the given forms must compare and hash alike.
    a = ResidueClass.of("a")
    for given in ({"a"}, ["a", "a"], ("a",)):
        cls = ResidueClass(given)
        assert type(cls.symbols) is frozenset
        assert cls == a and hash(cls) == hash(a)
    kept = frozenset({"a"})
    assert ResidueClass(kept).symbols is kept

    point = SingularPoint("p", ["x", "y"], PointType.IV_II, meets_marked={"e"})
    same = SingularPoint("p", ("x", "y"), PointType.IV_II, meets_marked=frozenset({"e"}))
    assert type(point.incident) is tuple and type(point.meets_marked) is frozenset
    assert point == same and hash(point) == hash(same)
    assert SingularPoint("q", ("x", "y"), PointType.II_II).meets_marked == frozenset()


def test_configuration_coerces_sequences():
    cfg = Configuration(CoverKind.IRREDUCIBLE, ["a"], [], [])
    assert cfg.symbols == ("a",)
    assert cfg.curves == ()
