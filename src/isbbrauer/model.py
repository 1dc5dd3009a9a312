"""Combinatorial degeneration data for a simple involution surface bundle.

A configuration records the kind of the quadratic cover (irreducible or
split everywhere), the named residue symbols, the degeneration curves
with their cover behavior and extension residues, and the crossing
points with their etale-local types.  ``validate`` enforces the
structural rules of that geometry plus four geometric-consistency
checks computed by linear algebra; configurations that pass feed the
Brauer-group computation.

The GF(2) spaces of the computation are built here too, by
``_build_spaces``:

* ``P``  — one coordinate per extension with nonzero residue, curve by curve,
* ``Q``  — one relation per curve whose corestriction residue vanishes,
* ``R``  — one constraint per contributing crossing point,
* ``S``  — the kernel of restriction to the generic fiber,

with the incidence map ``m_pr: P -> R``, in one walk over the curves and
one over the points; the walk over the points builds the rows of
``m_pr`` and its columns together, so no transpose of it is made.  The
Q relations and the S vectors are kept as masks over P, which is all
the GC checks and the computation read; the maps into P,
``m_qp: Q -> P`` and ``m_sp: S -> P``, are their transposes, derived on
read, so only ``compute``, which prints them, builds them.
``_checked``, which ``validate`` and every reader of the spaces in
``brauer`` and ``cli`` call, is the one caller: it builds the spaces
once, only for a configuration that passed structural validation, and
returns them with its report, so the GC checks and the computation read
one value.  ``vp_basis`` reads P off the curves, with no spaces, for
``sampling`` and the benchmark workloads; ``cores_residue`` stays
because the benchmark workloads call it.

Declaration order is semantic: curves, extensions, and points index the
bases of the computation in the order they are listed here.

The value types are ``collections.namedtuple``s, built as in ``f2``, with
no ``__dict__``.  What a value derives from its fields
(``Curve.cores_residue``, ``Configuration.symbol_index``) is a plain
property, computed on each read, so equality, hashing and ``repr`` see
only the fields.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from enum import Enum

from .f2 import F2Matrix, F2Vector, _insert

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

    def render(self, symbol_index: Mapping[str, int]) -> str:
        """Human/DSL form: ``0`` or ``a+b`` in declared symbol order.

        ``symbol_index`` holds each declared symbol's position, as
        ``Configuration.symbol_index`` does, so rendering takes time that
        does not grow with the number of declared symbols.
        """
        if self.is_zero:
            return "0"
        missing = self.symbols.difference(symbol_index)
        if missing:
            raise ValueError(f"symbols not in declared order list: {sorted(missing)}")
        return "+".join(sorted(self.symbols, key=symbol_index.__getitem__))


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

    __slots__ = ()

    @property
    def cores_residue(self) -> ResidueClass:
        """Residue of the corestriction along the curve.

        ``_build_spaces`` reads it once per curve.  Split curves: the sum
        of the two extension residues.  Inert and ramified curves: the
        user-supplied ``cores_residue_input``, defaulting to the zero class
        (the corestriction of a symbolic class is not computable from the
        symbols).
        """
        if self.cover_behavior is _SPLIT:
            total: frozenset[str] = frozenset()
            for ext in self.extensions:
                total ^= ext.residue.symbols
            return tuple.__new__(ResidueClass, (total,))
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

    __slots__ = ()

    def __new__(
        cls,
        cover_kind: CoverKind,
        symbols: Iterable[str] = (),
        curves: Iterable[Curve] = (),
        points: Iterable[SingularPoint] = (),
    ) -> Configuration:
        return tuple.__new__(cls, (cover_kind, tuple(symbols), tuple(curves), tuple(points)))

    @property
    def symbol_index(self) -> dict[str, int]:
        """Each declared symbol's position in ``symbols``, built on each read.

        The emitter and the reports read it; structural validation finds
        duplicate and undeclared symbols with a set.  A name declared twice,
        which ``parse``, ``validate`` and ``emit`` refuse, keeps its last
        position.
        """
        return {s: i for i, s in enumerate(self.symbols)}


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


# The members the curve walk tests, bound once: on Python 3.11 a module
# name loads in 13-30 ns and ``CurveType.I`` in 110-145 ns.
_I, _II, _III, _IV = CurveType
_INERT, _SPLIT, _RAMIFIED = CoverBehavior


# Point types whose constraint rows make up R: all but I_II and IVpp_IV.
_R_POINT_TYPES = frozenset({PointType.II_II, PointType.III_II, PointType.IV_II, PointType.IVP_IV})


def cores_residue(cfg: Configuration, c: Curve) -> ResidueClass:
    """``Curve.cores_residue``; kept because perfbench's workloads call it."""
    return c.cores_residue


def vp_basis(cfg: Configuration) -> list[Extension]:
    """The basis of P, read off the curves, without building the spaces.

    ``sampling`` counts dim P with it, and perfbench's workloads call it.
    """
    return [ext for c in cfg.curves for ext in c.extensions if ext.residue.symbols]


# The point types whose row ORs one mask of each incident curve, and the
# index in the curve's entry of that mask (every coordinate, split curve,
# marked extension); the row's bit goes to the entry's accumulator three
# places on.  The one other type of R, IV_II, has its own rule.
_ROW_MASK = {PointType.III_II: 0, PointType.II_II: 1, PointType.IVP_IV: 2}


def _incidence_matrix(zr: list[SingularPoint], p: int, entries: dict[str, list]) -> tuple[F2Matrix, list[int]]:
    """m_pr and its columns, from the entry ``_build_spaces`` gave each curve id.

    A curve's entry holds three masks of its P coordinates: every one, for
    III_II; every one if the curve is split, for II_II; its marked
    extension, for IVp_IV.  Then three accumulators over R, one per mask,
    the curve's first coordinate and its carrying extensions.  A row of
    one of those types ORs one mask of each incident curve and puts its
    bit in the matching accumulator.  An IV_II row ORs each incident
    curve's marked mask, putting its bit in the marked accumulator, and
    sets the coordinates of the curve's carrying extensions named in the
    point's ``meets_marked``, in the row and in those columns directly.
    On a configuration that passed structural validation only a Type IV
    curve has a marking, and ``meets_marked`` names only extensions of the
    Type II curve, so bit j is set exactly when a scan of every (point,
    extension) pair would set it.

    After the walk each curve's coordinates take its accumulators: every
    coordinate the "every" one, and the "split" one if the curve is
    split; the marked coordinate also the "marked" one.  So the columns
    are the transpose of the rows, built without a walk over their bits.
    """
    rows = []
    direct = []  # (coordinate, row bit) of each meets_marked hit
    for i, point in enumerate(zr):
        bit = 1 << i
        mask = 0
        k = _ROW_MASK.get(point.etype)
        if k is None:
            meets = point.meets_marked
            for curve_id in point.incident:
                entry = entries[curve_id]
                mask |= entry[2]
                entry[5] |= bit
                for j, ext in enumerate(entry[7], entry[6]):
                    if ext.id in meets:
                        mask |= 1 << j
                        direct.append((j, bit))
        else:
            for curve_id in point.incident:
                entry = entries[curve_id]
                mask |= entry[k]
                entry[k + 3] |= bit
        rows.append(mask)
    columns: list[int] = []
    for _, split, marked, on_every, on_split, on_marked, _, carrying in entries.values():
        columns += [on_every | on_split if split else on_every] * len(carrying)
        if marked:
            columns[marked.bit_length() - 1] |= on_marked
    for j, bit in direct:
        columns[j] |= bit
    return F2Matrix(len(zr), p, tuple(rows)), columns


class _Spaces(
    namedtuple(
        "_Spaces",
        "vp vq zr m_pr lift_rows s_labels s_vectors pr_columns q_columns qs_echelon",
    )
):
    """Every basis and map of one configuration, as ``_build_spaces`` builds them.

    ``vp`` holds the extensions with nonzero residue, which index P, curve
    by curve.  ``vq`` holds the curves whose corestriction residue
    vanishes while some extension carries residue; they index Q.  ``zr``
    holds the points of a type in ``_R_POINT_TYPES``, which index R.  All
    three keep declaration order.  ``lift_rows`` holds each P coordinate's
    curve id and the symbols it adds to that curve's lift: the curve's
    corestriction residue on an inert curve, else the extension's residue.

    ``pr_columns`` holds each column of ``m_pr``, a mask over R, as
    ``_incidence_matrix`` builds it beside the rows; ``q_columns`` holds
    each Q relation, its curve's coordinates, as a mask over P: a
    non-empty run that no other curve shares.  The S vectors are pairwise
    disjoint.  ``qs_echelon`` is the echelon basis of image(Q) + image(S)
    that ``_spaces`` derives: GC2 counts its size, generator selection
    extends a copy of it.  The maps into P, ``m_qp`` and ``m_sp``, are
    properties, built on each read: only the report prints them.

    Fields:
        vp: tuple[Extension, ...]
        vq: tuple[Curve, ...]
        zr: tuple[SingularPoint, ...]
        m_pr: F2Matrix
        lift_rows: tuple[tuple[str, frozenset[str]], ...]
        s_labels: tuple[str, ...]
        s_vectors: tuple[F2Vector, ...]
        pr_columns: list[int]
        q_columns: list[int]
        qs_echelon: dict[int, int]
    """

    __slots__ = ()

    def r_image(self, mask: int) -> int:
        """The image in R of the P vector ``mask``.

        That is the XOR of the ``m_pr`` columns on the support of ``mask``,
        in any order: the walk clears the top bit, which builds one wide
        int per bit where clearing the lowest builds two.
        """
        columns = self.pr_columns
        image = 0
        while mask:
            t = mask.bit_length() - 1
            image ^= columns[t]
            mask ^= 1 << t
        return image

    @property
    def m_qp(self) -> F2Matrix:
        """``Q -> P``, the transpose of the Q columns, built on each read."""
        return F2Matrix(len(self.q_columns), len(self.vp), tuple(self.q_columns)).transpose()

    @property
    def m_sp(self) -> F2Matrix:
        """``S -> P``, the transpose of the S vectors, built on each read."""
        return F2Matrix(len(self.s_vectors), len(self.vp), tuple(v.mask for v in self.s_vectors)).transpose()


def _spaces(vp, vq, zr, m_pr, pr_columns, q_columns, lift_rows, s_labels, s_vectors) -> _Spaces:
    """The ``_Spaces`` of these fields, with the Q+S echelon derived.

    ``pr_columns`` must be the columns of ``m_pr``; no transpose is made.
    The Q columns are disjoint runs, so each goes in as is under its lowest
    bit, as pivot insertion would put it; only the S vectors are inserted.
    """
    pivots = {col & -col: col for col in q_columns}
    for vec in s_vectors:
        _insert(pivots, vec.mask)
    return _Spaces(vp, vq, zr, m_pr, lift_rows, s_labels, s_vectors, pr_columns, q_columns, pivots)


def _build_spaces(cfg: Configuration) -> _Spaces:
    """The spaces of ``cfg``: one walk over the curves, then one over the points.

    ``cfg`` has passed structural validation.  Each curve appends its
    extensions that carry residue to P, gives each its lift row, and gets
    the entry that ``_incidence_matrix`` reads by curve id: its three
    masks, three empty accumulators, its first coordinate and its
    carrying extensions.  A Q curve's mask of every coordinate is its Q
    column.  S is cores(beta), all of P, when some corestriction residue
    is nonzero under the irreducible cover.  Under the split cover it is
    the nonzero sheet masks beta_i, without beta_2 when every curve that
    carries residue carries two equal residues (beta_1 = beta_2).
    """
    vp: list[Extension] = []
    vq: list[Curve] = []
    q_columns: list[int] = []
    lift_rows: list[tuple[str, frozenset[str]]] = []
    entries: dict[str, list] = {}
    split_cover = cfg.cover_kind is CoverKind.SPLIT_EVERYWHERE
    sheet_masks = {1: 0, 2: 0}
    sheets_agree = True
    cores_ramify = False
    for c in cfg.curves:
        cores = c.cores_residue.symbols
        cores_ramify = cores_ramify or bool(cores)
        carrying = [ext for ext in c.extensions if ext.residue.symbols]
        first = len(vp)
        every = ((1 << len(carrying)) - 1) << first
        split = every if c.cover_behavior is _SPLIT else 0
        entry = entries[c.id] = [every, split, 0, 0, 0, 0, first, carrying]
        if not carrying:
            continue
        vp.extend(carrying)
        inert = c.cover_behavior is _INERT
        marking = c.marking
        for j, ext in enumerate(carrying, first):
            lift_rows.append((c.id, cores if inert else ext.residue.symbols))
            if ext.id == marking:
                entry[2] = 1 << j
        if not cores:
            vq.append(c)
            q_columns.append(every)
        if split_cover:
            for j, ext in enumerate(carrying, first):
                sheet_masks[ext.sheet] |= 1 << j
            if len(carrying) != 2 or carrying[0].residue != carrying[1].residue:
                sheets_agree = False
    zr = [p for p in cfg.points if p.etype in _R_POINT_TYPES]
    p = len(vp)
    if split_cover:
        generators = [(f"beta_{i}", mask) for i, mask in sheet_masks.items() if mask]
        if sheets_agree:
            del generators[1:]
    else:
        generators = [("cores(beta)", (1 << p) - 1)] if cores_ramify else []
    m_pr, pr_columns = _incidence_matrix(zr, p, entries)
    return _spaces(
        vp=tuple(vp),
        vq=tuple(vq),
        zr=tuple(zr),
        m_pr=m_pr,
        pr_columns=pr_columns,
        q_columns=q_columns,
        lift_rows=tuple(lift_rows),
        s_labels=tuple(label for label, _ in generators),
        s_vectors=tuple(F2Vector(p, mask) for _, mask in generators),
    )


def _id_clash(kind: str, ident: str) -> Diagnostic:
    """The DUP_ID error of an empty id, or of one already claimed."""
    if not ident:
        return Diagnostic("DUP_ID", f"empty {kind} id", ident)
    return Diagnostic("DUP_ID", f"{kind} id {ident!r} is not unique", ident)


def _structural_diagnostics(cfg: Configuration) -> tuple[list[Diagnostic], list[Diagnostic]]:
    """Every structural error and warning, in the order of the declarations.

    Each curve's type and cover behavior are read once and tested where a
    rule is applied, against the member names bound at module level;
    its extensions are walked once, for ids, residue symbols, sheets and
    which of them carry residue.  The allowed point types of a crossing
    come from ``_CROSSINGS``, keyed by the two curves' types.
    """
    errors: list[Diagnostic] = []
    warnings: list[Diagnostic] = []
    declared: set[str] = set()
    for s in cfg.symbols:
        if not s:
            errors.append(Diagnostic("SYMBOLS", "empty symbol name", s))
        elif s in declared:
            errors.append(Diagnostic("DUP_ID", f"symbol {s!r} declared twice", s))
        declared.add(s)

    seen_ids: set[str] = set()
    split_cover = cfg.cover_kind is CoverKind.SPLIT_EVERYWHERE
    if split_cover:
        sheets, sheet_rule = (1, 2), "needs sheet=1 or sheet=2"
    else:
        sheets, sheet_rule = (None,), "carries a sheet but the cover is irreducible"

    for c in cfg.curves:
        cid = c.id
        if not cid or cid in seen_ids:
            errors.append(_id_clash("curve", cid))
        seen_ids.add(cid)
        extensions = c.extensions
        carrying = []  # the extensions with nonzero residue
        for ext in extensions:
            eid = ext.id
            if not eid or eid in seen_ids:
                errors.append(_id_clash("extension", eid))
            seen_ids.add(eid)
            symbols = ext.residue.symbols
            if symbols:
                carrying.append(ext)
                if not symbols <= declared:
                    bad = symbols.difference(declared)
                    message = f"residue of {eid} uses undeclared symbols {sorted(bad)}"
                    errors.append(Diagnostic("RESIDUE_SYMBOLS", message, eid))
            if ext.sheet not in sheets:
                errors.append(Diagnostic("SHEET", f"extension {eid} {sheet_rule}", eid))

        t, b = c.deg_type, c.cover_behavior
        split = b is _SPLIT
        if t is _I or t is _III:
            if b is not _RAMIFIED:
                message = f"type {t.value} curve must be ramified, not {b.value}"
                errors.append(Diagnostic("CURVE_BEHAVIOR", message, cid))
        elif b is _RAMIFIED:
            errors.append(Diagnostic("CURVE_BEHAVIOR", f"type {t.value} curve must be inert or split", cid))
        if split_cover and not split:
            message = f"cover splits everywhere but curve {cid} is {b.value}"
            errors.append(Diagnostic("SPLIT_COVER", message, cid))
        expected = 2 if split else 1
        if len(extensions) != expected:
            message = f"{b.value} curve needs {expected} extension(s), has {len(extensions)}"
            errors.append(Diagnostic("EXT_COUNT", message, cid))
        elif split_cover and split and sorted(ext.sheet for ext in extensions if ext.sheet in (1, 2)) != [1, 2]:
            errors.append(Diagnostic("SHEET", f"split curve {cid} must have one extension per sheet", cid))

        if t is _I:
            for ext in carrying:
                message = f"type I extension {ext.id} must have residue 0"
                errors.append(Diagnostic("TYPE_I_RESIDUE", message, cid))

        marking = c.marking
        marked = None
        if t is _IV:
            marked = next((ext for ext in extensions if ext.id == marking), None)
            if marking is None:
                errors.append(Diagnostic("MARKING", f"type IV curve {cid} needs a marking", cid))
            elif marked is None:
                message = f"marking {marking!r} is not an extension of {cid}"
                errors.append(Diagnostic("MARKING", message, cid))
            else:
                for ext in carrying:
                    if ext.id != marking:
                        message = f"non-marked extension {ext.id} of type IV curve must have residue 0"
                        errors.append(Diagnostic("UNMARKED_RESIDUE", message, cid))
        elif marking is not None:
            errors.append(Diagnostic("MARKING", f"marking on non-type-IV curve {cid}", cid))

        cores = c.cores_residue_input
        if cores is not None:
            if split:
                message = f"cores residue on split curve {cid} (it is determined)"
                errors.append(Diagnostic("CORES_INPUT", message, cid))
            elif not cores.symbols <= declared:
                bad = cores.symbols.difference(declared)
                message = f"cores residue of {cid} uses undeclared symbols {sorted(bad)}"
                errors.append(Diagnostic("RESIDUE_SYMBOLS", message, cid))

        # Warnings: places where the geometry says a residue should ramify.
        if t is _II and not carrying:
            warnings.append(Diagnostic("W_TYPE_II_ZERO", f"type II curve {cid} has all residues zero", cid))
        if t is _III and len(carrying) < len(extensions):
            message = f"type III extension of {cid} has residue 0"
            warnings.append(Diagnostic("W_RAMIFIED_ZERO", message, cid))
        if marked is not None and marked.residue.is_zero:
            message = f"marked extension {marked.id} of {cid} has residue 0"
            warnings.append(Diagnostic("W_RAMIFIED_ZERO", message, cid))
        if t is _IV and b is _INERT:
            message = f"inert type IV curve {cid}: treated via its cores residue"
            warnings.append(Diagnostic("W_INERT_IV", message, cid))
        if cores is None:
            if t is _II and b is _INERT:
                message = f"cores residue of inert curve {cid} defaulted to 0"
                warnings.append(Diagnostic("W_CORES_DEFAULTED", message, cid))
            if carrying and not split and (t is _III or t is _IV):
                message = (
                    f"curve {cid} carries residue but its cores residue defaulted to 0; "
                    "supply cores: if the corestriction ramifies here"
                )
                warnings.append(Diagnostic("W_CORES_DEFAULTED", message, cid))

    curve_by_id = {c.id: c for c in cfg.curves}
    for p in cfg.points:
        pid = p.id
        if not pid or pid in seen_ids:
            errors.append(_id_clash("point", pid))
        seen_ids.add(pid)
        incident = p.incident
        if len(incident) != 2 or incident[0] == incident[1]:
            errors.append(Diagnostic("POINT_PAIR", f"point {pid} must join two distinct curves", pid))
            continue
        a, b = incident
        if a not in curve_by_id or b not in curve_by_id:
            for cid in (a, b):
                if cid not in curve_by_id:
                    message = f"point {pid} references unknown curve {cid!r}"
                    errors.append(Diagnostic("BAD_REF", message, pid))
            continue
        ca, cb = curve_by_id[a], curve_by_id[b]
        key, allowed = _CROSSINGS[ca.deg_type, cb.deg_type]
        if allowed is None:
            message = f"curves of types {key[0]} and {key[1]} cannot cross at a point"
            errors.append(Diagnostic("POINT_PAIR", message, pid))
        elif p.etype not in allowed:
            message = f"point type {p.etype.value} does not match curve types ({key[0]}, {key[1]})"
            errors.append(Diagnostic("POINT_TYPE", message, pid))
        if p.meets_marked:
            if p.etype is not PointType.IV_II:
                errors.append(Diagnostic("MEETS_MARKED", "meets_marked only applies to IV_II points", pid))
            elif allowed is not None and p.etype in allowed:
                type_ii = ca if ca.deg_type is CurveType.II else cb
                ext_ids = {ext.id for ext in type_ii.extensions}
                for eid in sorted(p.meets_marked):
                    if eid not in ext_ids:
                        message = f"meets_marked entry {eid!r} is not an extension of {type_ii.id}"
                        errors.append(Diagnostic("MEETS_MARKED", message, pid))

    return errors, warnings


def _consistency_diagnostics(spaces: _Spaces) -> list[Diagnostic]:
    """GC1-GC4: linear-algebra checks that hold for geometric data.

    GC1 and GC3 map a P vector to R as the XOR of the ``m_pr`` columns on
    its support.  GC4 and GC2 read ranks off the construction.  The Q
    columns are disjoint non-empty runs, so rank Q is ``len(vq)`` and GC4
    holds for Q unchecked.  The S vectors are disjoint, so GC4 fails for S
    exactly when one is zero: cores(beta) of an empty P.  GC2 fails when
    rank Q + rank S > rank(Q + S), the size of the spaces' echelon basis.
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

    s_rank = sum(1 for vec in spaces.s_vectors if vec.mask)
    if s_rank < len(spaces.s_vectors):
        errors.append(Diagnostic("GC4", "generators of S are linearly dependent in P", "S"))
    if s_rank > len(spaces.qs_echelon) - len(spaces.vq):
        errors.append(Diagnostic("GC2", "images of S and Q in P intersect nontrivially", "S∩Q"))
    return errors


def _checked(cfg: Configuration) -> tuple[ValidationReport, _Spaces | None]:
    """``validate``'s report, and the spaces its GC checks read.

    The spaces are None when a structural error kept the GC checks from
    running; this is the one place that builds them.  ``explain`` and
    every public reader of the spaces in ``brauer`` go on from the spaces
    returned here, so one call builds them once, and only for a
    configuration that passed validation.
    """
    errors, warnings = _structural_diagnostics(cfg)
    spaces = None
    if not errors:
        spaces = _build_spaces(cfg)
        errors.extend(_consistency_diagnostics(spaces))
    return ValidationReport(tuple(errors), tuple(warnings)), spaces


def validate(cfg: Configuration) -> ValidationReport:
    """Check every structural invariant, then the geometric-consistency ones.

    The GC checks need well-formed data, so they run only when no
    structural errors were found.  Warnings never reject a configuration.
    """
    return _checked(cfg)[0]
