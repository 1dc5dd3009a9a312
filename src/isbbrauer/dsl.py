"""The textual configuration format.

Line-oriented, ``#`` starts a comment, keywords are case-sensitive,
indentation is cosmetic.  A file reads::

    cover: irreducible          # or: split
    symbols: a b c

    curve x-axis:
      type: II                  # I | II | III | IV
      cover: split              # inert | split | ramified
      ext e_1 sheet=1: a        # sheet= only under a split cover
      ext e_2 sheet=2: a+b
      mark: e_1                 # Type IV curves only
      cores: a                  # inert/ramified curves only

    point p0:
      curves: x-axis, y-axis
      etype: II_II              # I_II | II_II | III_II | IV_II | IVp_IV | IVpp_IV
      meets_marked: e_1         # IV_II points only

A residue is ``0`` or ``name(+name)*``, folded by symmetric difference.
Declaration order is semantic: it fixes the basis order of the
computation, and the canonical emitter preserves it.  Parse errors carry
1-based line/column spans; ``emit`` always produces LF line endings and
``parse(emit(cfg))`` returns a structurally equal configuration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import (
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

__all__ = [
    "SourceSpan",
    "ParseDiagnostic",
    "ConfigParseError",
    "parse",
    "emit",
    "builtin",
    "builtin_source",
    "BUILTIN_NAMES",
]


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    message: str

    def __str__(self) -> str:
        return f"{self.span}: {self.message}"


class ConfigParseError(ValueError):
    """Carries every diagnostic collected during a failed parse."""

    def __init__(self, diagnostics: tuple[ParseDiagnostic, ...]):
        self.diagnostics = diagnostics
        head = str(diagnostics[0]) if diagnostics else "unknown parse error"
        extra = f" (+{len(diagnostics) - 1} more)" if len(diagnostics) > 1 else ""
        super().__init__(head + extra)


_ID = r"[A-Za-z0-9_'\-]+"
_NAME = r"[A-Za-z0-9_]+"

_RE_COVER = re.compile(r"cover:\s*(?P<value>\S+)\s*$")
_RE_SYMBOLS = re.compile(r"symbols:(?P<rest>.*)$")
_RE_CURVE = re.compile(rf"curve\s+(?P<id>{_ID})\s*:\s*$")
_RE_POINT = re.compile(rf"point\s+(?P<id>{_ID})\s*:\s*$")
_RE_TYPE = re.compile(r"type:\s*(?P<value>\S+)\s*$")
_RE_EXT = re.compile(rf"ext\s+(?P<id>{_ID})(?:\s+sheet=(?P<sheet>\S+))?\s*:\s*(?P<residue>.*?)\s*$")
_RE_MARK = re.compile(rf"mark:\s*(?P<id>{_ID})\s*$")
_RE_CORES = re.compile(r"cores:\s*(?P<residue>.*?)\s*$")
_RE_CURVES = re.compile(rf"curves:\s*(?P<a>{_ID})\s*,\s*(?P<b>{_ID})\s*$")
_RE_ETYPE = re.compile(r"etype:\s*(?P<value>\S+)\s*$")
_RE_MEETS = re.compile(r"meets_marked:\s*(?P<rest>\S.*?)\s*$")

_KEYWORDS = {
    "cover", "symbols", "curve", "point", "type", "ext",
    "mark", "cores", "curves", "etype", "meets_marked",
}

_COVER_KINDS = {"irreducible": CoverKind.IRREDUCIBLE, "split": CoverKind.SPLIT_EVERYWHERE}
_BEHAVIORS = {b.value: b for b in CoverBehavior}
_CURVE_TYPES = {t.value: t for t in CurveType}
_POINT_TYPES = {t.value: t for t in PointType}


@dataclass
class _RawResidue:
    names: list[tuple[str, SourceSpan]]  # empty list means the zero class


@dataclass
class _RawExt:
    id: str
    span: SourceSpan
    sheet: int | None
    residue: _RawResidue


@dataclass
class _RawCurve:
    id: str
    span: SourceSpan
    deg_type: CurveType | None = None
    behavior: CoverBehavior | None = None
    exts: list[_RawExt] | None = None
    mark: tuple[str, SourceSpan] | None = None
    cores: _RawResidue | None = None


@dataclass
class _RawPoint:
    id: str
    span: SourceSpan
    incident: tuple[tuple[str, SourceSpan], tuple[str, SourceSpan]] | None = None
    etype: PointType | None = None
    meets: list[tuple[str, SourceSpan]] | None = None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.diags: list[ParseDiagnostic] = []
        self.cover: CoverKind | None = None
        self.symbols: list[tuple[str, SourceSpan]] | None = None
        self.curves: list[_RawCurve] = []
        self.points: list[_RawPoint] = []
        self.block: _RawCurve | _RawPoint | None = None
        # Top-level declarations seen only on a rejected line: that line's
        # diagnostic stands in for "missing ... declaration".
        self.rejected_declarations: set[str] = set()

    def error(self, span: SourceSpan, message: str) -> None:
        self.diags.append(ParseDiagnostic(span, message))

    # -- residues -----------------------------------------------------------

    def parse_residue(self, text: str, line: int, base_col: int) -> _RawResidue:
        if text == "0":
            return _RawResidue([])
        if not text:
            self.error(SourceSpan(line, base_col), "missing residue (use 0 for the zero class)")
            return _RawResidue([])
        names: list[tuple[str, SourceSpan]] = []
        offset = 0
        for part in text.split("+"):
            span = SourceSpan(line, base_col + offset)
            token = part.strip()
            if not re.fullmatch(_NAME, token or ""):
                self.error(span, f"bad residue symbol {part!r}")
            else:
                names.append((token, SourceSpan(line, base_col + offset + part.index(token))))
            offset += len(part) + 1
        return _RawResidue(names)

    # -- line handling ------------------------------------------------------

    def run(self) -> Configuration:
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            stripped = line.lstrip()
            base = len(line) - len(stripped) + 1
            self.handle(stripped, lineno, base)
        self.close_block()
        return self.finish()

    def handle(self, stripped: str, lineno: int, base: int) -> None:
        span = SourceSpan(lineno, base)
        word = re.match(r"[A-Za-z_]+", stripped)
        keyword = word.group(0) if word else None
        if keyword not in _KEYWORDS:
            self.error(span, f"unknown keyword {stripped.split(None, 1)[0]!r}")
            return

        def col(m: re.Match, group: str) -> SourceSpan:
            return SourceSpan(lineno, base + m.start(group))

        def malformed() -> None:
            self.error(span, f"malformed {keyword} line")

        if keyword == "curve":
            m = _RE_CURVE.match(stripped)
            self.close_block()
            if not m:
                malformed()
                self.block = _RawCurve("", span, exts=[])
                return
            self.block = _RawCurve(m.group("id"), col(m, "id"), exts=[])
        elif keyword == "point":
            m = _RE_POINT.match(stripped)
            self.close_block()
            if not m:
                malformed()
                self.block = _RawPoint("", span, meets=[])
                return
            self.block = _RawPoint(m.group("id"), col(m, "id"), meets=[])
        elif keyword == "cover":
            m = _RE_COVER.match(stripped)
            if not m:
                malformed()
                if self.block is None:
                    self.rejected_declarations.add(keyword)
                return
            value = m.group("value")
            if isinstance(self.block, _RawCurve):
                if value not in _BEHAVIORS:
                    self.error(col(m, "value"), f"cover behavior must be inert, split, or ramified, got {value!r}")
                elif self.block.behavior is not None:
                    self.error(span, f"cover already set for curve {self.block.id!r}")
                else:
                    self.block.behavior = _BEHAVIORS[value]
            elif isinstance(self.block, _RawPoint):
                self.error(span, "cover is not allowed in a point block")
            else:
                if value not in _COVER_KINDS:
                    self.error(col(m, "value"), f"cover kind must be irreducible or split, got {value!r}")
                    self.rejected_declarations.add(keyword)
                elif self.cover is not None:
                    self.error(span, "cover declared twice")
                else:
                    self.cover = _COVER_KINDS[value]
        elif keyword == "symbols":
            if self.block is not None:
                self.error(span, "symbols must be declared at top level")
                return
            if self.symbols is not None:
                self.error(span, "symbols declared twice")
                return
            m = _RE_SYMBOLS.match(stripped)
            if not m:
                malformed()
                self.rejected_declarations.add(keyword)
                return
            rest = m.group("rest")
            self.symbols = []
            for tok in re.finditer(r"\S+", rest):
                tspan = SourceSpan(lineno, base + m.start("rest") + tok.start())
                name = tok.group(0)
                if not re.fullmatch(_NAME, name):
                    self.error(tspan, f"bad symbol name {name!r}")
                elif name in [s for s, _ in self.symbols]:
                    self.error(tspan, f"duplicate symbol {name!r}")
                else:
                    self.symbols.append((name, tspan))
        elif keyword in ("type", "ext", "mark", "cores"):
            if not isinstance(self.block, _RawCurve):
                where = "a point block" if isinstance(self.block, _RawPoint) else "top level"
                self.error(span, f"{keyword} is not allowed at {where}; it belongs in a curve block")
                return
            self.handle_curve_field(keyword, stripped, lineno, base, span)
        else:  # curves, etype, meets_marked
            if not isinstance(self.block, _RawPoint):
                where = "a curve block" if isinstance(self.block, _RawCurve) else "top level"
                self.error(span, f"{keyword} is not allowed at {where}; it belongs in a point block")
                return
            self.handle_point_field(keyword, stripped, lineno, base, span)

    def handle_curve_field(self, keyword, stripped, lineno, base, span) -> None:
        c = self.block

        def col(m: re.Match, group: str) -> SourceSpan:
            return SourceSpan(lineno, base + m.start(group))

        if keyword == "type":
            m = _RE_TYPE.match(stripped)
            if not m:
                self.error(span, "malformed type line")
            elif m.group("value") not in _CURVE_TYPES:
                self.error(col(m, "value"), f"type must be I, II, III, or IV, got {m.group('value')!r}")
            elif c.deg_type is not None:
                self.error(span, f"type already set for curve {c.id!r}")
            else:
                c.deg_type = _CURVE_TYPES[m.group("value")]
        elif keyword == "ext":
            m = _RE_EXT.match(stripped)
            if not m:
                self.error(span, "malformed ext line")
                return
            sheet: int | None = None
            if m.group("sheet") is not None:
                if m.group("sheet") not in ("1", "2"):
                    self.error(col(m, "sheet"), f"sheet must be 1 or 2, got {m.group('sheet')!r}")
                else:
                    sheet = int(m.group("sheet"))
            if len(c.exts) >= 2:
                self.error(span, f"curve {c.id!r} already has two extensions")
                return
            residue = self.parse_residue(m.group("residue"), lineno, base + m.start("residue"))
            c.exts.append(_RawExt(m.group("id"), col(m, "id"), sheet, residue))
        elif keyword == "mark":
            m = _RE_MARK.match(stripped)
            if not m:
                self.error(span, "malformed mark line")
            elif c.mark is not None:
                self.error(span, f"mark already set for curve {c.id!r}")
            else:
                c.mark = (m.group("id"), col(m, "id"))
        else:  # cores
            m = _RE_CORES.match(stripped)
            if not m:
                self.error(span, "malformed cores line")
            elif c.cores is not None:
                self.error(span, f"cores already set for curve {c.id!r}")
            else:
                c.cores = self.parse_residue(m.group("residue"), lineno, base + m.start("residue"))

    def handle_point_field(self, keyword, stripped, lineno, base, span) -> None:
        p = self.block

        def col(m: re.Match, group: str) -> SourceSpan:
            return SourceSpan(lineno, base + m.start(group))

        if keyword == "curves":
            m = _RE_CURVES.match(stripped)
            if not m:
                self.error(span, "malformed curves line (expected: curves: <id>, <id>)")
            elif p.incident is not None:
                self.error(span, f"curves already set for point {p.id!r}")
            else:
                p.incident = ((m.group("a"), col(m, "a")), (m.group("b"), col(m, "b")))
        elif keyword == "etype":
            m = _RE_ETYPE.match(stripped)
            if not m:
                self.error(span, "malformed etype line")
            elif m.group("value") not in _POINT_TYPES:
                self.error(col(m, "value"), f"unknown point type {m.group('value')!r}")
            elif p.etype is not None:
                self.error(span, f"etype already set for point {p.id!r}")
            else:
                p.etype = _POINT_TYPES[m.group("value")]
        else:  # meets_marked
            m = _RE_MEETS.match(stripped)
            if not m:
                self.error(span, "malformed meets_marked line")
                return
            if p.meets:
                self.error(span, f"meets_marked already set for point {p.id!r}")
                return
            rest = m.group("rest")
            offset = base + m.start("rest")
            for part in rest.split(","):
                token = part.strip()
                tspan = SourceSpan(lineno, offset + part.index(token) if token else offset)
                if not re.fullmatch(_ID, token or ""):
                    self.error(tspan, f"bad extension reference {part.strip()!r}")
                else:
                    p.meets.append((token, tspan))
                offset += len(part) + 1

    def close_block(self) -> None:
        block, self.block = self.block, None
        if block is None:
            return
        if isinstance(block, _RawCurve):
            if block.deg_type is None:
                self.error(block.span, f"curve {block.id!r} is missing a type line")
            if block.behavior is None:
                self.error(block.span, f"curve {block.id!r} is missing a cover line")
            if not block.exts:
                self.error(block.span, f"curve {block.id!r} needs at least one ext line")
            self.curves.append(block)
        else:
            if block.incident is None:
                self.error(block.span, f"point {block.id!r} is missing a curves line")
            if block.etype is None:
                self.error(block.span, f"point {block.id!r} is missing an etype line")
            self.points.append(block)

    # -- resolution ---------------------------------------------------------

    def finish(self) -> Configuration:
        if self.cover is None and "cover" not in self.rejected_declarations:
            self.error(SourceSpan(1, 1), "missing cover declaration")
        if self.symbols is None and "symbols" not in self.rejected_declarations:
            self.error(SourceSpan(1, 1), "missing symbols declaration")

        declared = {s for s, _ in (self.symbols or [])}
        ids: dict[str, SourceSpan] = {}

        def claim(name: str, span: SourceSpan) -> None:
            if name in ids:
                self.error(span, f"duplicate id {name!r} (first declared at {ids[name]})")
            else:
                ids[name] = span

        ext_ids: set[str] = set()
        for c in self.curves:
            claim(c.id, c.span)
            for e in c.exts:
                claim(e.id, e.span)
                ext_ids.add(e.id)
        for p in self.points:
            claim(p.id, p.span)

        def resolve_residue(raw: _RawResidue) -> ResidueClass:
            acc: set[str] = set()
            for name, span in raw.names:
                if name not in declared:
                    self.error(span, f"residue symbol {name!r} is not declared")
                else:
                    acc ^= {name}
            return ResidueClass(frozenset(acc))

        curve_ids = {c.id for c in self.curves}
        curves: list[Curve] = []
        for c in self.curves:
            exts = tuple(
                Extension(e.id, resolve_residue(e.residue), e.sheet) for e in c.exts
            )
            if c.mark is not None and c.mark[0] not in {e.id for e in c.exts}:
                self.error(c.mark[1], f"mark {c.mark[0]!r} does not match an extension of {c.id!r}")
            curves.append(
                Curve(
                    id=c.id,
                    deg_type=c.deg_type or CurveType.I,
                    cover_behavior=c.behavior or CoverBehavior.RAMIFIED,
                    extensions=exts,
                    marking=c.mark[0] if c.mark else None,
                    cores_residue_input=resolve_residue(c.cores) if c.cores is not None else None,
                )
            )

        points: list[SingularPoint] = []
        for p in self.points:
            incident = p.incident or (("", p.span), ("", p.span))
            for name, span in incident:
                if name and name not in curve_ids:
                    self.error(span, f"point references unknown curve {name!r}")
            for name, span in p.meets or []:
                if name not in ext_ids:
                    self.error(span, f"meets_marked references unknown extension {name!r}")
            points.append(
                SingularPoint(
                    id=p.id,
                    incident=(incident[0][0], incident[1][0]),
                    etype=p.etype or PointType.I_II,
                    meets_marked=frozenset(name for name, _ in (p.meets or [])),
                )
            )

        if self.diags:
            ordered = tuple(sorted(self.diags, key=lambda d: (d.span.line, d.span.column)))
            raise ConfigParseError(ordered)
        return Configuration(
            cover_kind=self.cover,
            symbols=tuple(s for s, _ in self.symbols),
            curves=tuple(curves),
            points=tuple(points),
        )


def parse(text: str) -> Configuration:
    """Parse configuration text.

    Raises:
        ConfigParseError: with one ``ParseDiagnostic`` (line/column +
            message) per problem found.
    """
    return _Parser(text).run()


def emit(cfg: Configuration) -> str:
    """Canonical text for a configuration (LF endings, fixed layout).

    ``parse(emit(cfg))`` is structurally equal to ``cfg``; emitting what
    ``parse`` produced reproduces canonical sources byte for byte.
    """
    kind = "irreducible" if cfg.cover_kind is CoverKind.IRREDUCIBLE else "split"
    lines = [f"cover: {kind}"]
    lines.append("symbols:" + ("" if not cfg.symbols else " " + " ".join(cfg.symbols)))
    order = list(cfg.symbols)
    for c in cfg.curves:
        lines.append("")
        lines.append(f"curve {c.id}:")
        lines.append(f"  type: {c.deg_type.value}")
        lines.append(f"  cover: {c.cover_behavior.value}")
        for e in c.extensions:
            sheet = f" sheet={e.sheet}" if e.sheet is not None else ""
            lines.append(f"  ext {e.id}{sheet}: {e.residue.render(order)}")
        if c.marking is not None:
            lines.append(f"  mark: {c.marking}")
        if c.cores_residue_input is not None:
            lines.append(f"  cores: {c.cores_residue_input.render(order)}")
    ext_position = {
        e.id: (i, j) for i, c in enumerate(cfg.curves) for j, e in enumerate(c.extensions)
    }
    for p in cfg.points:
        lines.append("")
        lines.append(f"point {p.id}:")
        lines.append(f"  curves: {p.incident[0]}, {p.incident[1]}")
        lines.append(f"  etype: {p.etype.value}")
        if p.meets_marked:
            ordered = sorted(p.meets_marked, key=lambda eid: ext_position.get(eid, (len(cfg.curves), eid)))
            lines.append(f"  meets_marked: {', '.join(ordered)}")
    return "\n".join(lines) + "\n"


_HPT_SOURCE = """\
cover: irreducible
symbols: a b c

curve C':
  type: I
  cover: ramified
  ext C'_t: 0

curve D'_x:
  type: I
  cover: ramified
  ext D'_x_t: 0

curve D'_y:
  type: I
  cover: ramified
  ext D'_y_t: 0

curve D'_z:
  type: I
  cover: ramified
  ext D'_z_t: 0

curve x-axis:
  type: II
  cover: split
  ext e_xyz: a
  ext e_xzy: a

curve y-axis:
  type: II
  cover: split
  ext e_yxz: b
  ext e_yzx: b

curve z-axis:
  type: II
  cover: split
  ext e_zxy: c
  ext e_zyx: c

point p100:
  curves: y-axis, z-axis
  etype: II_II

point p010:
  curves: x-axis, z-axis
  etype: II_II

point p001:
  curves: x-axis, y-axis
  etype: II_II
"""

_CUBIC_QUARTIC_SOURCE = """\
cover: irreducible
symbols: d

curve quartic:
  type: I
  cover: ramified
  ext quartic_t: 0

curve cubic:
  type: II
  cover: split
  ext cubic_1: d
  ext cubic_2: d
"""

_BUILTINS = {
    "hpt": _HPT_SOURCE,
    "cubic-quartic": _CUBIC_QUARTIC_SOURCE,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_source(name: str) -> str:
    """Canonical source text of a built-in example."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}") from None


def builtin(name: str) -> Configuration:
    """A built-in example configuration, freshly parsed from its source."""
    return parse(builtin_source(name))
