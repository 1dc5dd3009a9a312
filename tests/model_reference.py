"""The rule-by-rule structural validation and incidence rule that ``model`` replaced.

``model._structural_diagnostics`` reads a curve's type and behavior
once and tests them against module-level member names.  This is the
walk that came before it, one rule after another through ``err``,
``warn`` and ``claim`` closures, with every check re-derived per curve
from the enum attributes; the tests compare the two diagnostic for
diagnostic.  ``point_relates`` is the incidence rule of every point
type, which ``model._incidence_matrix`` spells out only for IV_II and
replaces by per-curve masks for the others.  The package never runs
either.
"""

from isbbrauer.model import (
    _CROSSINGS,
    Configuration,
    CoverBehavior,
    CoverKind,
    Curve,
    CurveType,
    Diagnostic,
    PointType,
    SingularPoint,
)


def structural_diagnostics(cfg: Configuration) -> tuple[list[Diagnostic], list[Diagnostic]]:
    errors: list[Diagnostic] = []
    warnings: list[Diagnostic] = []

    def err(code: str, message: str, subject: str) -> None:
        errors.append(Diagnostic(code, message, subject))

    def warn(code: str, message: str, subject: str) -> None:
        warnings.append(Diagnostic(code, message, subject))

    index: dict[str, int] = {}  # each symbol's first position
    for i, s in enumerate(cfg.symbols):
        first = index.setdefault(s, i)
        if not s:
            err("SYMBOLS", "empty symbol name", s)
        elif first != i:
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


def point_relates(point: SingularPoint, curve: Curve, ext_id: str) -> bool:
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
