"""Combinatorial degeneration data for a simple involution surface bundle.

A configuration records the kind of the quadratic cover (irreducible or
split everywhere), the named residue symbols, the degeneration curves
with their cover behavior and extension residues, and the crossing
points with their etale-local types.  ``validate`` enforces the
structural rules of that geometry plus four geometric-consistency
checks computed by linear algebra; configurations that pass feed the
Brauer-group computation.

The GF(2) spaces of the computation are built here too, once per
configuration (``Configuration.spaces``):

* ``P``  — one coordinate per extension with nonzero residue,
* ``Q``  — one relation per curve whose corestriction residue vanishes,
* ``R``  — one constraint per contributing crossing point,
* ``S``  — the kernel of restriction to the generic fiber,

with the incidence map ``m_pr: P -> R``, the relation map ``m_qp: Q -> P``
and the diagonal inclusion ``S -> P``.  The GC checks, the computation and
the ramification lift all read that one value, and it is the only way to
the bases.  ``vp_basis`` and ``cores_residue`` stay as one-line readers
because the benchmark workloads call them by name.

Declaration order is semantic: curves, extensions, and points index the
bases of the computation in the order they are listed here.

The value types are ``collections.namedtuple``s, built as in ``f2``.
What a value derives from its fields (``Curve.cores_residue``,
``Configuration.symbol_index`` and ``.spaces``) is a ``cached_property``
on a subclass that keeps a ``__dict__`` (it sets no ``__slots__``): it is
no field, so equality, hashing and ``repr`` do not see it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from enum import Enum
from functools import cached_property

from .f2 import F2Matrix, F2Vector, _insert, _set_bits

__all__ = [
    "CoverKind",
    "CurveType",
    "CoverBehavior",
    "PointType",
    "ResidueClass",
    "Extension",
    "Curve",
    "SingularPoint",
    "Configuration",
    "Diagnostic",
    "ValidationReport",
    "cores_residue",
    "vp_basis",
    "validate",
]


class CoverKind(str, Enum):
    IRREDUCIBLE = "irreducible"
    SPLIT_EVERYWHERE = "split_everywhere"


class CurveType(str, Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


class CoverBehavior(str, Enum):
    INERT = "inert"
    SPLIT = "split"
    RAMIFIED = "ramified"


class PointType(str, Enum):
    I_II = "I_II"
    II_II = "II_II"
    III_II = "III_II"
    IV_II = "IV_II"
    IVP_IV = "IVp_IV"
    IVPP_IV = "IVpp_IV"


class ResidueClass(namedtuple("ResidueClass", "symbols", defaults=(frozenset(),))):
    """An element of the symbol-indexed GF(2) residue space.

    The empty set is the zero class; addition is symmetric difference.

    Fields:
        symbols: frozenset[str]
    """

    __slots__ = ()

    def __new__(cls, symbols: Iterable[str] = frozenset()) -> ResidueClass:
        if type(symbols) is not frozenset:
            symbols = frozenset(symbols)
        return tuple.__new__(cls, (symbols,))

    @classmethod
    def of(cls, *names: str) -> "ResidueClass":
        return cls(frozenset(names))

    @property
    def is_zero(self) -> bool:
        return not self.symbols

    def __add__(self, other: "ResidueClass") -> "ResidueClass":
        return ResidueClass(self.symbols ^ other.symbols)

    def render(self, symbol_index: Mapping[str, tuple[int, ...]]) -> str:
        """Human/DSL form: ``0`` or ``a+b`` in declared symbol order.

        ``symbol_index`` holds the declared symbols' positions, as
        ``Configuration.symbol_index`` does, so rendering takes time that
        does not grow with the number of declared symbols.  A name
        declared twice is written once per declaration.
        """
        if self.is_zero:
            return "0"
        missing = self.symbols.difference(symbol_index)
        if missing:
            raise ValueError(f"symbols not in declared order list: {sorted(missing)}")
        return "+".join(s for _, s in sorted((i, s) for s in self.symbols for i in symbol_index[s]))


def _symbol_positions(symbols: Iterable[str]) -> dict[str, tuple[int, ...]]:
    """Each name's positions in ``symbols``, in one pass."""
    index: dict[str, tuple[int, ...]] = {}
    for i, s in enumerate(symbols):
        index[s] = index.get(s, ()) + (i,)
    return index


ZERO = ResidueClass()


class Extension(namedtuple("Extension", "id residue sheet", defaults=(ZERO, None))):
    """A valuation of the function field of the cover lying over a curve.

    Fields:
        id: str
        residue: ResidueClass
        sheet: int | None
    """

    __slots__ = ()


class Curve(
    namedtuple(
        "Curve",
        "id deg_type cover_behavior extensions marking cores_residue_input",
        defaults=(None, None),
    )
):
    """A degeneration curve with its cover behavior and extension data.

    Fields:
        id: str
        deg_type: CurveType
        cover_behavior: CoverBehavior
        extensions: tuple[Extension, ...]
        marking: str | None
        cores_residue_input: ResidueClass | None
    """

    @cached_property
    def cores_residue(self) -> ResidueClass:
        """Residue of the corestriction along the curve, built once.

        Validation, the bases and the lift all read it.  Split curves: the
        sum of the two extension residues.  Inert and ramified curves: the
        user-supplied ``cores_residue_input``, defaulting to the zero class
        (the corestriction of a symbolic class is not computable from the
        symbols).  It is not a field, so equality, hashing and ``repr`` do
        not see it.
        """
        if self.cover_behavior is CoverBehavior.SPLIT:
            total: frozenset[str] = frozenset()
            for ext in self.extensions:
                total ^= ext.residue.symbols
            return ResidueClass(total)
        if self.cores_residue_input is not None:
            return self.cores_residue_input
        return ZERO


class SingularPoint(namedtuple("SingularPoint", "id incident etype meets_marked", defaults=(frozenset(),))):
    """A crossing point of two degeneration curves with its local type.

    Fields:
        id: str
        incident: tuple[str, str]
        etype: PointType
        meets_marked: frozenset[str]
    """

    __slots__ = ()

    def __new__(
        cls, id: str, incident: Iterable[str], etype: PointType, meets_marked: Iterable[str] = frozenset()
    ) -> SingularPoint:
        if type(incident) is not tuple:
            incident = tuple(incident)
        if type(meets_marked) is not frozenset:
            meets_marked = frozenset(meets_marked)
        return tuple.__new__(cls, (id, incident, etype, meets_marked))


class Configuration(namedtuple("Configuration", "cover_kind symbols curves points", defaults=((), (), ()))):
    """Full degeneration data; list order fixes the computation's bases.

    Fields:
        cover_kind: CoverKind
        symbols: tuple[str, ...]
        curves: tuple[Curve, ...]
        points: tuple[SingularPoint, ...]
    """

    def __new__(
        cls,
        cover_kind: CoverKind,
        symbols: Iterable[str] = (),
        curves: Iterable[Curve] = (),
        points: Iterable[SingularPoint] = (),
    ) -> Configuration:
        return tuple.__new__(cls, (cover_kind, tuple(symbols), tuple(curves), tuple(points)))

    @cached_property
    def symbol_index(self) -> dict[str, tuple[int, ...]]:
        """Each declared symbol's positions in ``symbols``, built once.

        Validation, the emitter and the reports read it.  A name has more
        than one position only when it is declared twice, which
        validation rejects.
        """
        return _symbol_positions(self.symbols)

    @cached_property
    def spaces(self) -> _Spaces:
        """The bases and maps of P, Q, R and S, built once.

        Validation, the computation, the lift and the public readers of
        the bases and maps all read it.  Like ``symbol_index`` it is not a
        field, so equality, hashing and ``repr`` do not see it.
        """
        return _build_spaces(self)


class Diagnostic(namedtuple("Diagnostic", "code message subject")):
    """One finding of ``validate``: its code, message and the id it concerns.

    Fields:
        code: str
        message: str
        subject: str
    """

    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "errors warnings", defaults=((), ()))):
    """What ``validate`` returns; the configuration passes when ``errors`` is empty.

    Fields:
        errors: tuple[Diagnostic, ...]
        warnings: tuple[Diagnostic, ...]
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.errors


# Allowed curve-type pairs at a crossing point, keyed by the sorted pair
# of degeneration types, valued by the admissible point types.
_ALLOWED_PAIRS: dict[tuple[str, str], tuple[PointType, ...]] = {
    ("I", "II"): (PointType.I_II,),
    ("II", "II"): (PointType.II_II,),
    ("II", "III"): (PointType.III_II,),
    ("II", "IV"): (PointType.IV_II,),
    ("IV", "IV"): (PointType.IVP_IV, PointType.IVPP_IV),
}


# Each ordered pair of curve types: the pair's type names in sorted order,
# for the messages, and the point types admissible where curves of those
# types cross, or None where they cannot cross.
_CROSSINGS: dict[tuple[CurveType, CurveType], tuple[tuple[str, str], tuple[PointType, ...] | None]] = {
    (a, b): (pair, _ALLOWED_PAIRS.get(pair))
    for a in CurveType
    for b in CurveType
    for pair in [tuple(sorted((a.value, b.value)))]
}


# Point types whose constraint rows make up R: all but I_II and IVpp_IV.
_R_POINT_TYPES = frozenset({PointType.II_II, PointType.III_II, PointType.IV_II, PointType.IVP_IV})


def cores_residue(cfg: Configuration, c: Curve) -> ResidueClass:
    """``Curve.cores_residue``; kept because perfbench's workloads call it."""
    return c.cores_residue


def vp_basis(cfg: Configuration) -> list[Extension]:
    """``cfg.spaces.vp`` as a list; kept because perfbench's workloads call it."""
    return list(cfg.spaces.vp)


def _s_generators(
    cfg: Configuration, vp: list[Extension]
) -> tuple[tuple[str, ...], tuple[F2Vector, ...]]:
    """The labels of the generators of S, and their images in P.

    Irreducible cover: one generator, cores(beta), iff some curve has a
    nonzero corestriction residue; it is the sum of every P coordinate.
    Split cover: beta_i is nonzero iff some sheet-i extension carries
    residue, and beta_1 = beta_2 iff the sheet-wise residues agree curve
    by curve (a curve listing one sheet twice keeps the last); generators
    are the distinct nonzero classes among beta_1, beta_2, and beta_i is
    the sum of the sheet-i coordinates of P.
    """
    p = len(vp)
    if cfg.cover_kind is CoverKind.IRREDUCIBLE:
        if any(not c.cores_residue.is_zero for c in cfg.curves):
            return ("cores(beta)",), (F2Vector(p, (1 << p) - 1),)
        return (), ()
    nonzero = {1: False, 2: False}
    equal = True
    for c in cfg.curves:
        res = {ext.sheet: ext.residue for ext in c.extensions if ext.sheet in (1, 2)}
        for i in (1, 2):
            if not res.get(i, ZERO).is_zero:
                nonzero[i] = True
        if res.get(1, ZERO) != res.get(2, ZERO):
            equal = False
    sheets = [1] if nonzero[1] else []
    if nonzero[2] and not (equal and nonzero[1]):
        sheets.append(2)
    labels = tuple(f"beta_{i}" for i in sheets)
    vectors = tuple(
        F2Vector(p, sum(1 << j for j, ext in enumerate(vp) if ext.sheet == i)) for i in sheets
    )
    return labels, vectors


def _point_relates(point: SingularPoint, curve: Curve, ext_id: str) -> bool:
    """Whether the extension contributes to the point's constraint row.

    Encodes the incidence rules: II_II fires for split curves; III_II
    always fires; IV_II fires for the marked extension on the Type IV
    side and for listed extensions on the Type II side; IVp_IV fires for
    the marked extensions.
    """
    et = point.etype
    if et is PointType.II_II:
        return curve.cover_behavior is CoverBehavior.SPLIT
    if et is PointType.III_II:
        return True
    if et is PointType.IV_II:
        if curve.deg_type is CurveType.IV:
            return ext_id == curve.marking
        return ext_id in point.meets_marked
    if et is PointType.IVP_IV:
        return ext_id == curve.marking
    return False


# The point types whose row ORs one mask of each incident curve, and which
# of the curve's three masks (every coordinate, split owner, marked
# extension) that is.
_ROW_MASK = {PointType.III_II: 0, PointType.II_II: 1, PointType.IVP_IV: 2}
_NO_MASKS = (0, 0, 0)


def _incidence_matrix(
    zr: list[SingularPoint], p: int, by_curve: dict[str, list[tuple[int, Extension, Curve]]]
) -> F2Matrix:
    """m_pr, from masks over P of each point's incident curves.

    ``by_curve`` groups the P coordinates ``(j, ext, owner)`` by the id of
    their owner.  Each curve id gets three masks in one pass over its
    coordinates: every coordinate, for III_II; those whose owner is
    split, for II_II; and those that are their owner's marked extension,
    for IVp_IV.  A row of one of those types ORs one mask of each incident
    curve; an IV_II row, whose bits depend on the point's ``meets_marked``,
    applies ``_point_relates`` to each coordinate of its curves.  Either
    way bit j is set exactly when a scan of every (point, extension) pair
    would set it.
    """
    masks: dict[str, tuple[int, int, int]] = {}
    for curve_id, coords in by_curve.items():
        every = split = marked = 0
        for j, ext, curve in coords:
            bit = 1 << j
            every |= bit
            if curve.cover_behavior is CoverBehavior.SPLIT:
                split |= bit
            if ext.id == curve.marking:
                marked |= bit
        masks[curve_id] = (every, split, marked)
    rows = []
    for point in zr:
        mask = 0
        k = _ROW_MASK.get(point.etype)
        if k is None:
            for curve_id in point.incident:
                for j, ext, curve in by_curve.get(curve_id, ()):
                    if _point_relates(point, curve, ext.id):
                        mask |= 1 << j
        else:
            for curve_id in point.incident:
                mask |= masks.get(curve_id, _NO_MASKS)[k]
        rows.append(mask)
    return F2Matrix(len(zr), p, tuple(rows))


class _Spaces(namedtuple("_Spaces", "vp vq zr owner curve_rank m_pr m_qp lift_rows s_labels s_vectors")):
    """Every basis and map of one configuration: ``Configuration.spaces``.

    ``vp`` holds the extensions with nonzero residue, which index P.
    ``vq`` holds the curves whose corestriction residue vanishes while
    some extension carries residue; they index Q.  ``zr`` holds the
    points of a type in ``_R_POINT_TYPES``, which index R.  All three
    keep declaration order.  ``owner`` maps an extension id to its curve
    and ``curve_rank`` a curve id to its declaration index; in both the
    last declaration wins.  ``lift_rows`` holds each P coordinate's
    owner id and the symbols it adds to that curve's lift: the owner's
    corestriction residue on an inert curve, else the extension's residue.

    Fields:
        vp: tuple[Extension, ...]
        vq: tuple[Curve, ...]
        zr: tuple[SingularPoint, ...]
        owner: dict[str, Curve]
        curve_rank: dict[str, int]
        m_pr: F2Matrix
        m_qp: F2Matrix
        lift_rows: tuple[tuple[str, frozenset[str]], ...]
        s_labels: tuple[str, ...]
        s_vectors: tuple[F2Vector, ...]
    """

    @cached_property
    def pr_columns(self) -> list[int]:
        """The column masks of ``m_pr``: the image in R of each basis vector of P."""
        return self.m_pr.column_masks()

    def r_image(self, mask: int) -> int:
        """The image in R of the P vector ``mask``.

        That is the XOR of the ``m_pr`` columns on the support of ``mask``.
        """
        columns = self.pr_columns
        image = 0
        for j in _set_bits(mask):
            image ^= columns[j]
        return image

    @cached_property
    def q_columns(self) -> list[int]:
        """The column masks of ``m_qp``: each Q relation as a vector of P."""
        return self.m_qp.column_masks()

    @cached_property
    def qs_echelon(self) -> tuple[int, dict[int, int]]:
        """Rank of Q, and an echelon basis of image(Q) + image(S).

        Built by pivot insertion, the Q columns first and then the S
        vectors.  The GC2/GC4 checks count ranks with it and generator
        selection extends a copy of it.
        """
        pivots: dict[int, int] = {}
        q_rank = sum(_insert(pivots, col) for col in self.q_columns)
        for vec in self.s_vectors:
            _insert(pivots, vec.mask)
        return q_rank, pivots


def _build_spaces(cfg: Configuration) -> _Spaces:
    """The spaces of ``cfg``: one walk over the curves, then one over P."""
    vp: list[Extension] = []
    vq: list[Curve] = []
    q_index: dict[str, int] = {}
    owner: dict[str, Curve] = {}
    curve_rank: dict[str, int] = {}
    for i, c in enumerate(cfg.curves):
        carrying = [ext for ext in c.extensions if not ext.residue.is_zero]
        vp.extend(carrying)
        if carrying and c.cores_residue.is_zero:
            q_index[c.id] = len(vq)
            vq.append(c)
        for ext in c.extensions:
            owner[ext.id] = c
        curve_rank[c.id] = i
    by_curve: dict[str, list[tuple[int, Extension, Curve]]] = {}
    qp_rows = []
    lift_rows = []
    for j, ext in enumerate(vp):
        curve = owner[ext.id]
        by_curve.setdefault(curve.id, []).append((j, ext, curve))
        col = q_index.get(curve.id)
        qp_rows.append(0 if col is None else 1 << col)
        inert = curve.cover_behavior is CoverBehavior.INERT
        lift_rows.append((curve.id, (curve.cores_residue if inert else ext.residue).symbols))
    zr = [p for p in cfg.points if p.etype in _R_POINT_TYPES]
    s_labels, s_vectors = _s_generators(cfg, vp)
    return _Spaces(
        vp=tuple(vp),
        vq=tuple(vq),
        zr=tuple(zr),
        owner=owner,
        curve_rank=curve_rank,
        m_pr=_incidence_matrix(zr, len(vp), by_curve),
        m_qp=F2Matrix(len(vp), len(vq), tuple(qp_rows)),
        lift_rows=tuple(lift_rows),
        s_labels=s_labels,
        s_vectors=s_vectors,
    )


def _structural_diagnostics(cfg: Configuration) -> tuple[list[Diagnostic], list[Diagnostic]]:
    errors: list[Diagnostic] = []
    warnings: list[Diagnostic] = []

    def err(code: str, message: str, subject: str) -> None:
        errors.append(Diagnostic(code, message, subject))

    def warn(code: str, message: str, subject: str) -> None:
        warnings.append(Diagnostic(code, message, subject))

    index = cfg.symbol_index
    for i, s in enumerate(cfg.symbols):
        if not s:
            err("SYMBOLS", "empty symbol name", s)
        elif index[s][0] != i:
            err("DUP_ID", f"symbol {s!r} declared twice", s)

    seen_ids: set[str] = set()

    def claim(kind: str, ident: str) -> None:
        if not ident:
            err("DUP_ID", f"empty {kind} id", ident)
        elif ident in seen_ids:
            err("DUP_ID", f"{kind} id {ident!r} is not unique", ident)
        seen_ids.add(ident)

    split_cover = cfg.cover_kind is CoverKind.SPLIT_EVERYWHERE

    for c in cfg.curves:
        claim("curve", c.id)
        carrying = []  # the extensions with nonzero residue
        for ext in c.extensions:
            claim("extension", ext.id)
            symbols = ext.residue.symbols
            if symbols:
                carrying.append(ext)
                bad = symbols.difference(index)
                if bad:
                    err(
                        "RESIDUE_SYMBOLS",
                        f"residue of {ext.id} uses undeclared symbols {sorted(bad)}",
                        ext.id,
                    )
            if split_cover:
                if ext.sheet not in (1, 2):
                    err("SHEET", f"extension {ext.id} needs sheet=1 or sheet=2", ext.id)
            elif ext.sheet is not None:
                err("SHEET", f"extension {ext.id} carries a sheet but the cover is irreducible", ext.id)

        ramified_type = c.deg_type in (CurveType.I, CurveType.III)
        if ramified_type and c.cover_behavior is not CoverBehavior.RAMIFIED:
            err(
                "CURVE_BEHAVIOR",
                f"type {c.deg_type.value} curve must be ramified, not {c.cover_behavior.value}",
                c.id,
            )
        if not ramified_type and c.cover_behavior is CoverBehavior.RAMIFIED:
            err(
                "CURVE_BEHAVIOR",
                f"type {c.deg_type.value} curve must be inert or split",
                c.id,
            )
        if split_cover and c.cover_behavior is not CoverBehavior.SPLIT:
            err(
                "SPLIT_COVER",
                f"cover splits everywhere but curve {c.id} is {c.cover_behavior.value}",
                c.id,
            )

        expected = 2 if c.cover_behavior is CoverBehavior.SPLIT else 1
        if len(c.extensions) != expected:
            err(
                "EXT_COUNT",
                f"{c.cover_behavior.value} curve needs {expected} extension(s), has {len(c.extensions)}",
                c.id,
            )
        elif split_cover and c.cover_behavior is CoverBehavior.SPLIT:
            sheets = sorted(ext.sheet for ext in c.extensions if ext.sheet in (1, 2))
            if sheets != [1, 2]:
                err("SHEET", f"split curve {c.id} must have one extension per sheet", c.id)

        if c.deg_type is CurveType.I:
            for ext in carrying:
                err("TYPE_I_RESIDUE", f"type I extension {ext.id} must have residue 0", c.id)

        marked = None
        if c.deg_type is CurveType.IV:
            marked = next((ext for ext in c.extensions if ext.id == c.marking), None)
            if c.marking is None:
                err("MARKING", f"type IV curve {c.id} needs a marking", c.id)
            elif marked is None:
                err("MARKING", f"marking {c.marking!r} is not an extension of {c.id}", c.id)
            else:
                for ext in carrying:
                    if ext.id != c.marking:
                        err(
                            "UNMARKED_RESIDUE",
                            f"non-marked extension {ext.id} of type IV curve must have residue 0",
                            c.id,
                        )
        elif c.marking is not None:
            err("MARKING", f"marking on non-type-IV curve {c.id}", c.id)

        if c.cores_residue_input is not None:
            if c.cover_behavior is CoverBehavior.SPLIT:
                err("CORES_INPUT", f"cores residue on split curve {c.id} (it is determined)", c.id)
            else:
                bad = c.cores_residue_input.symbols.difference(index)
                if bad:
                    err(
                        "RESIDUE_SYMBOLS",
                        f"cores residue of {c.id} uses undeclared symbols {sorted(bad)}",
                        c.id,
                    )

        # Warnings: places where the geometry says a residue should ramify.
        if c.deg_type is CurveType.II and not carrying:
            warn("W_TYPE_II_ZERO", f"type II curve {c.id} has all residues zero", c.id)
        if c.deg_type is CurveType.III and len(carrying) < len(c.extensions):
            warn("W_RAMIFIED_ZERO", f"type III extension of {c.id} has residue 0", c.id)
        if marked is not None and marked.residue.is_zero:
            warn("W_RAMIFIED_ZERO", f"marked extension {marked.id} of {c.id} has residue 0", c.id)
        if c.deg_type is CurveType.IV and c.cover_behavior is CoverBehavior.INERT:
            warn("W_INERT_IV", f"inert type IV curve {c.id}: treated via its cores residue", c.id)
        if (
            c.deg_type is CurveType.II
            and c.cover_behavior is CoverBehavior.INERT
            and c.cores_residue_input is None
        ):
            warn("W_CORES_DEFAULTED", f"cores residue of inert curve {c.id} defaulted to 0", c.id)
        if (
            c.cover_behavior in (CoverBehavior.RAMIFIED, CoverBehavior.INERT)
            and c.deg_type in (CurveType.III, CurveType.IV)
            and c.cores_residue_input is None
            and carrying
        ):
            warn(
                "W_CORES_DEFAULTED",
                f"curve {c.id} carries residue but its cores residue defaulted to 0; "
                "supply cores: if the corestriction ramifies here",
                c.id,
            )

    curve_by_id = {c.id: c for c in cfg.curves}
    for p in cfg.points:
        claim("point", p.id)
        a, b = p.incident if len(p.incident) == 2 else (p.incident + ("", ""))[:2]
        if len(p.incident) != 2 or a == b:
            err("POINT_PAIR", f"point {p.id} must join two distinct curves", p.id)
            continue
        missing = [cid for cid in (a, b) if cid not in curve_by_id]
        if missing:
            for cid in missing:
                err("BAD_REF", f"point {p.id} references unknown curve {cid!r}", p.id)
            continue
        ca, cb = curve_by_id[a], curve_by_id[b]
        key, allowed = _CROSSINGS[ca.deg_type, cb.deg_type]
        if allowed is None:
            err(
                "POINT_PAIR",
                f"curves of types {key[0]} and {key[1]} cannot cross at a point",
                p.id,
            )
        elif p.etype not in allowed:
            err(
                "POINT_TYPE",
                f"point type {p.etype.value} does not match curve types ({key[0]}, {key[1]})",
                p.id,
            )
        if p.meets_marked:
            if p.etype is not PointType.IV_II:
                err("MEETS_MARKED", "meets_marked only applies to IV_II points", p.id)
            elif allowed is not None and p.etype in allowed:
                type_ii = ca if ca.deg_type is CurveType.II else cb
                ext_ids = {ext.id for ext in type_ii.extensions}
                for eid in sorted(p.meets_marked):
                    if eid not in ext_ids:
                        err(
                            "MEETS_MARKED",
                            f"meets_marked entry {eid!r} is not an extension of {type_ii.id}",
                            p.id,
                        )

    return errors, warnings


def _consistency_diagnostics(spaces: _Spaces) -> list[Diagnostic]:
    """GC1-GC4: linear-algebra checks that hold for geometric data.

    GC1 and GC3 map a P vector to R as the XOR of the ``m_pr`` columns on
    its support.  GC4 and GC2 compare ranks, counted by pivot insertion:
    Q and S meet nontrivially exactly when rank Q + rank S > rank(Q + S).
    The echelon basis of Q + S is the spaces' own, which generator
    selection then extends.
    """
    errors: list[Diagnostic] = []
    for c, column in zip(spaces.vq, spaces.q_columns):
        if spaces.r_image(column):
            errors.append(
                Diagnostic(
                    "GC1",
                    f"relation vector of curve {c.id} does not map to zero in R",
                    c.id,
                )
            )
    for label, vec in zip(spaces.s_labels, spaces.s_vectors):
        if spaces.r_image(vec.mask):
            errors.append(
                Diagnostic(
                    "GC3",
                    f"restriction-kernel generator {label} does not map to zero in R",
                    label,
                )
            )

    q_rank, qs_pivots = spaces.qs_echelon
    s_pivots: dict[int, int] = {}
    s_rank = sum(_insert(s_pivots, vec.mask) for vec in spaces.s_vectors)
    s_rank_past_q = len(qs_pivots) - q_rank
    if q_rank < len(spaces.vq):
        errors.append(Diagnostic("GC4", "relation vectors of Q are linearly dependent in P", "Q"))
    if s_rank < len(spaces.s_vectors):
        errors.append(Diagnostic("GC4", "generators of S are linearly dependent in P", "S"))
    if s_rank > s_rank_past_q:
        errors.append(Diagnostic("GC2", "images of S and Q in P intersect nontrivially", "S∩Q"))
    return errors


def validate(cfg: Configuration) -> ValidationReport:
    """Check every structural invariant, then the geometric-consistency ones.

    The GC checks need well-formed data, so they run, on ``cfg.spaces``,
    only when no structural errors were found.  Warnings never reject a
    configuration.
    """
    errors, warnings = _structural_diagnostics(cfg)
    if not errors:
        errors.extend(_consistency_diagnostics(cfg.spaces))
    return ValidationReport(tuple(errors), tuple(warnings))
