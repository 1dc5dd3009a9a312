"""The package's value types: immutable tuples compared by their fields.

Each public record is a subclass of a ``collections.namedtuple`` of its
fields, some with a ``__new__`` that checks or converts its arguments.
Two values built from equal fields are equal and hash alike, no field
can be assigned, and what a value derives from its fields
(``Curve.cores_residue``, ``Configuration.symbol_index`` and
``Configuration.spaces``) stays out of its fields, equality, hash and
``repr``.  Each record's fields, their order and their defaults are
pinned, and the constructor a caller reaches takes them by the same
names and defaults.
"""

from enum import Enum

import pytest

from isbbrauer import brauer, dsl, f2, model, toric
from isbbrauer.model import CoverBehavior, CurveType, PointType


def split_curve() -> model.Curve:
    a, b = model.ResidueClass.of("a"), model.ResidueClass.of("b")
    return model.Curve("c", CurveType.II, CoverBehavior.SPLIT, (model.Extension("c_1", a), model.Extension("c_2", b)))


def plane_cone() -> toric.Cone:
    return toric.Cone(((1, 0, 0, 0), (0, 1, 0, 0)))


# Each public value type: a builder of a fresh value from fresh parts, and
# the attributes the value derives and caches outside its fields.
VALUES = {
    "F2Vector": (lambda: f2.F2Vector(3, 0b101), ()),
    "F2Matrix": (lambda: f2.F2Matrix(2, 3, (0b001, 0b110)), ()),
    "Subspace": (lambda: f2.Subspace(3, (f2.F2Vector(3, 0b011),)), ()),
    "Rref": (lambda: f2.rref(f2.F2Matrix(1, 2, (0b11,))), ()),
    "ResidueClass": (lambda: model.ResidueClass.of("a", "b"), ()),
    "Extension": (lambda: model.Extension("e", model.ResidueClass.of("a"), 1), ()),
    "Curve": (split_curve, ("cores_residue",)),
    "SingularPoint": (lambda: model.SingularPoint("p", ["x", "y"], PointType.IV_II, {"e"}), ()),
    "Configuration": (lambda: dsl.builtin("hpt"), ("symbol_index", "spaces")),
    "Diagnostic": (lambda: model.Diagnostic("GC1", "message", "c"), ()),
    "ValidationReport": (lambda: model.validate(model.Configuration(model.CoverKind.IRREDUCIBLE, ("",))), ()),
    "SourceSpan": (lambda: dsl.SourceSpan(1, 2), ()),
    "ParseDiagnostic": (lambda: dsl.ParseDiagnostic(dsl.SourceSpan(1, 2), "message"), ()),
    "Generator": (lambda: brauer.unramified_brauer(dsl.builtin("hpt")).generators[0], ()),
    "BrauerReport": (lambda: brauer.unramified_brauer(dsl.builtin("hpt")), ()),
    "Cone": (plane_cone, ()),
    "Fan": (lambda: toric.Fan([plane_cone()]), ()),
    "SmoothnessCertificate": (lambda: toric.is_smooth(plane_cone()).certificates[0], ()),
    "SmoothnessReport": (lambda: toric.is_smooth(plane_cone()), ()),
    "SubdivisionStep": (lambda: toric.resolve_demo().steps[0], ()),
    "ResolutionReport": (toric.resolve_demo, ()),
    "FanScript": (lambda: toric.parse_fan_script("ray 1 0 0 0\ncone 0\nsubdivide 1 0 0 0\n"), ()),
}


def test_every_public_record_is_covered():
    records = {
        name
        for module in (f2, model, dsl, brauer, toric)
        for name in module.__all__
        if isinstance(getattr(module, name), type) and not issubclass(getattr(module, name), (Enum, Exception))
    }
    assert records == set(VALUES)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_a_value_is_a_frozen_tuple_of_its_fields(name):
    make, derived = VALUES[name]
    value, twin = make(), make()
    assert type(value).__name__ == name and isinstance(value, tuple) and value is not twin
    before = (repr(value), hash(value))
    for attr in derived:
        assert getattr(value, attr) is getattr(value, attr)
    assert set(derived).isdisjoint(value._fields)
    assert set(derived).isdisjoint(getattr(twin, "__dict__", ()))
    assert (repr(value), hash(value)) == before
    assert value == twin and hash(value) == hash(twin)
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(twin, field))
    assert value == twin


# Each public record's fields and defaults, as they were when the records
# were built with ``typing.NamedTuple``: the constructor contract that
# positional and keyword callers (``perfbench/workloads.py`` among them)
# rely on.
FIELDS = {
    "F2Vector": (("length", "mask"), {"mask": 0}),
    "F2Matrix": (("rows", "cols", "row_masks"), {"row_masks": ()}),
    "Subspace": (("ambient_dim", "basis"), {"basis": ()}),
    "Rref": (("reduced", "rank", "pivots"), {}),
    "ResidueClass": (("symbols",), {"symbols": frozenset()}),
    "Extension": (("id", "residue", "sheet"), {"residue": model.ResidueClass(), "sheet": None}),
    "Curve": (
        ("id", "deg_type", "cover_behavior", "extensions", "marking", "cores_residue_input"),
        {"marking": None, "cores_residue_input": None},
    ),
    "SingularPoint": (("id", "incident", "etype", "meets_marked"), {"meets_marked": frozenset()}),
    "Configuration": (
        ("cover_kind", "symbols", "curves", "points"),
        {"symbols": (), "curves": (), "points": ()},
    ),
    "Diagnostic": (("code", "message", "subject"), {}),
    "ValidationReport": (("errors", "warnings"), {"errors": (), "warnings": ()}),
    "SourceSpan": (("line", "column"), {}),
    "ParseDiagnostic": (("span", "message"), {}),
    "Generator": (("vector", "ramification"), {}),
    "BrauerReport": (
        (
            "s_labels", "p_labels", "q_labels", "r_labels", "m_pr", "m_qp", "m_sp",
            "kernel_dim", "h2nr_dim", "generators", "assertions",
        ),
        {},
    ),
    "Cone": (("rays",), {"rays": ()}),
    "Fan": (("maximal_cones",), {"maximal_cones": ()}),
    "SmoothnessCertificate": (
        ("cone", "smooth", "reason", "matrix", "determinant"),
        {"matrix": None, "determinant": None},
    ),
    "SmoothnessReport": (("smooth", "certificates"), {}),
    "SubdivisionStep": (("ray", "fan", "support_ok"), {}),
    "ResolutionReport": (("cone", "singular", "candidates", "steps", "smoothness", "samples"), {}),
    "FanScript": (("fan", "subdivisions"), {}),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_the_constructor_keeps_its_fields_and_defaults(name):
    record = type(VALUES[name][0]())
    fields, defaults = FIELDS[name]
    assert record._fields == fields
    assert record._field_defaults == defaults
    # The constructor a caller reaches takes the fields, in order, as its
    # parameters, with the same defaults, whether the namedtuple's own
    # ``__new__`` or a subclass's that checks its arguments.
    code = record.__new__.__code__
    assert code.co_varnames[1 : code.co_argcount] == fields
    assert (record.__new__.__defaults__ or ()) == tuple(defaults.values())
