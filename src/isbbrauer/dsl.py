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
``parse(emit(cfg))`` returns a structurally equal configuration.  The
parser reads a block in the canonical layout, followed by a block header
or the end of the text, with one match, and every other line through a
per-keyword handler into a block record.  Either way one step per kind
of block, ``keep_curve`` or ``keep_point``, keeps the closed block as its
``Curve`` or ``SingularPoint``; it holds the only copy of the rules for
claiming ids, reading residues and checking a mark, so both paths give
the same result and the same diagnostics.  Every field line goes through
one check of where it belongs and whether it is malformed, and one
"already set" check.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Callable

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


class SourceSpan(namedtuple("SourceSpan", "line column")):
    """A 1-based position in the source text.

    Fields:
        line: int
        column: int
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseDiagnostic(namedtuple("ParseDiagnostic", "span message")):
    """One parse error and where it is.

    Fields:
        span: SourceSpan
        message: str
    """

    __slots__ = ()

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
_RESIDUE = rf"{_NAME}(?:\+{_NAME})*"

_RE_KEYWORD = re.compile(r"[A-Za-z_]+")
_RE_TOKEN = re.compile(r"\S+")
_RE_IDENT = re.compile(_ID)
_RE_NAME = re.compile(_NAME)
_RE_COVER = re.compile(r"cover:\s*(?P<value>\S+)\s*$")
_RE_SYMBOLS = re.compile(r"symbols:(?P<rest>.*)$")
_RE_TYPE = re.compile(r"type:\s*(?P<value>\S+)\s*$")
_RE_EXT = re.compile(rf"ext\s+(?P<id>{_ID})(?:\s+sheet=(?P<sheet>\S+))?\s*:\s*(?P<residue>.*?)\s*$")
_RE_MARK = re.compile(rf"mark:\s*(?P<id>{_ID})\s*$")
_RE_CORES = re.compile(r"cores:\s*(?P<residue>.*?)\s*$")
_RE_CURVES = re.compile(rf"curves:\s*(?P<a>{_ID})\s*,\s*(?P<b>{_ID})\s*$")
_RE_ETYPE = re.compile(r"etype:\s*(?P<value>\S+)\s*$")
_RE_MEETS = re.compile(r"meets_marked:\s*(?P<rest>\S.*?)\s*$")

_COVER_KINDS = {"irreducible": CoverKind.IRREDUCIBLE, "split": CoverKind.SPLIT_EVERYWHERE}
_BEHAVIORS = {b.value: b for b in CoverBehavior}
_CURVE_TYPES = {t.value: t for t in CurveType}
_POINT_TYPES = {t.value: t for t in PointType}

# Every line break ``str.splitlines`` knows besides "\n" and "\r\n".  The
# parser maps them all to "\n" first, so that one offset into the text
# names a line and a column.
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_TO_LF = str.maketrans(dict.fromkeys(_BREAKS, "\n"))


def _alternatives(values) -> str:
    return "|".join(map(re.escape, values))


def _ext_line(n: int) -> str:
    return rf"  ext (?P<ext{n}>{_ID})(?: sheet=(?P<sheet{n}>[12]))?: (?P<residue{n}>{_RESIDUE})\n"


# A curve or point block exactly as ``emit`` writes it, after any blank
# lines, when what follows it is blank lines and then a block header or the
# end of the text.  It admits only values the line handlers take without a
# diagnostic, and no later line can add a field to it, so a match stands for
# the handler calls of its lines and the close of its block.  Any other
# layout fails to match and goes through the handlers line by line.
_RE_BLOCK = re.compile(
    r"\n*(?:"
    rf"curve (?P<curve>{_ID}):\n"
    rf"  type: (?P<type>{_alternatives(_CURVE_TYPES)})\n"
    rf"  cover: (?P<behavior>{_alternatives(_BEHAVIORS)})\n"
    rf"{_ext_line(1)}(?:{_ext_line(2)})?"
    rf"(?:  mark: (?P<mark>{_ID})\n)?"
    rf"(?:  cores: (?P<cores>{_RESIDUE})\n)?"
    "|"
    rf"point (?P<point>{_ID}):\n"
    rf"  curves: (?P<a>{_ID}), (?P<b>{_ID})\n"
    rf"  etype: (?P<etype>{_alternatives(_POINT_TYPES)})\n"
    rf"(?:  meets_marked: (?P<meets>{_ID}(?:, {_ID})*)\n)?"
    r")(?=\n*(?:curve |point |\Z))"
)

_SHEETS = {None: None, "1": 1, "2": 2}
_NO_MEETS: frozenset[str] = frozenset()
_NO_EXT = (None, None, None)

# A source position is one offset into the text; ``_Parser.span`` turns it
# into a line and a column, for a diagnostic only.  An ``_At`` gives a block
# field's offset by its group name in ``_RE_BLOCK``: ``Match.start`` for a
# block read by one match, and the ``__getitem__`` of the block record's
# offsets for a block read line by line.  ``keep_curve`` and ``keep_point``
# call it to claim an id, and otherwise only for a diagnostic.  A
# ``meets_marked`` name travels as ``(name, offset)``.
_Located = tuple[str, int]
_At = Callable[[str], int]


class _RawCurve:
    """A curve block read line by line, until it closes."""

    # The keyword and the pattern of the line that opens the block.
    keyword = "curve"
    header = re.compile(rf"curve\s+(?P<id>{_ID})\s*:\s*$")
    # Each required field and the problem its absence is.
    required = (
        ("deg_type", "is missing a type line"),
        ("behavior", "is missing a cover line"),
        ("exts", "needs at least one ext line"),
    )

    __slots__ = ("id", "at", "exts", "deg_type", "behavior", "mark", "cores")

    def __init__(self, id: str, pos: int):
        self.id = id
        # Each field's offset, keyed by its group name in ``_RE_BLOCK``.
        self.at = {"curve": pos}
        self.exts: list[tuple[str, int | None, str]] = []  # (id, sheet, residue text)
        self.deg_type: CurveType | None = None
        self.behavior: CoverBehavior | None = None
        self.mark: str | None = None
        self.cores: str | None = None


class _RawPoint:
    """A point block read line by line, until it closes."""

    keyword = "point"
    header = re.compile(rf"point\s+(?P<id>{_ID})\s*:\s*$")
    required = (("incident", "is missing a curves line"), ("etype", "is missing an etype line"))

    __slots__ = ("id", "at", "meets", "incident", "etype")

    def __init__(self, id: str, pos: int):
        self.id = id
        self.at = {"point": pos}
        self.meets: list[_Located] = []
        self.incident: tuple[str, str] | None = None
        self.etype: PointType | None = None


class _Parser:
    def __init__(self, text: str):
        if any(brk in text for brk in _BREAKS):
            text = text.replace("\r\n", "\n").translate(_TO_LF)
        self.text = text
        self.line_starts: list[int] | None = None
        self.diags: list[tuple[int, str]] = []
        self.cover: CoverKind | None = None
        self.symbols: list[str] | None = None
        self.declared: set[str] = set()
        # The records of the closed blocks.  A curve claims its ids as it
        # closes; a point claims its id in ``finish``, after every curve, with
        # its references and their offsets kept in ``point_refs`` beside it.
        self.curves: list[Curve] = []
        self.points: list[SingularPoint] = []
        self.point_refs: list[tuple[str, str, str, list[_Located], _At]] = []
        self.ids: dict[str, int] = {}
        self.curve_ids: set[str] = set()
        self.ext_ids: set[str] = set()
        self.block: _RawCurve | _RawPoint | None = None
        # Top-level declarations seen only on a rejected line: that line's
        # diagnostic stands in for "missing ... declaration".
        self.rejected_declarations: set[str] = set()
        # The class of each distinct residue text read without a problem.
        # A residue is read when its block closes, after every symbol is
        # declared: a symbols line is refused once the first block has
        # opened.
        self.residues: dict[str, ResidueClass] = {}

    def error(self, at: int, message: str) -> None:
        self.diags.append((at, message))

    def span(self, at: int) -> SourceSpan:
        starts = self.line_starts
        if starts is None:
            starts = self.line_starts = [0]
            end = self.text.find("\n")
            while end >= 0:
                starts.append(end + 1)
                end = self.text.find("\n", end + 1)
        line = bisect_right(starts, at)
        return SourceSpan(line, at - starts[line - 1] + 1)

    # -- line handling ------------------------------------------------------

    def run(self) -> Configuration:
        text = self.text
        block = _RE_BLOCK.match
        handlers = _HANDLERS
        keep_curve, keep_point = self.keep_curve, self.keep_point
        pos, size = 0, len(text)
        while pos < size:
            m = block(text, pos)
            if m:
                self.close_block()
                (
                    curve, deg_type, behavior, ext1, sheet1, residue1, ext2, sheet2, residue2, mark, cores,
                    point, a, b, etype, meets,
                ) = m.groups()
                if point is None:
                    keep_curve(
                        curve, _CURVE_TYPES[deg_type], _BEHAVIORS[behavior],
                        ext1, _SHEETS[sheet1], residue1, ext2, _SHEETS[sheet2], residue2,
                        mark, cores, m.start,
                    )
                else:
                    keep_point(
                        point, a, b, _POINT_TYPES[etype],
                        [] if meets is None else self.read_meets(meets, m.start("meets")), m.start,
                    )
                pos = m.end()
                continue
            end = text.find("\n", pos)
            if end < 0:
                end = size
            line = text[pos:end].split("#", 1)[0].rstrip()
            stripped = line.lstrip()
            if stripped:
                at = pos + len(line) - len(stripped)
                word = _RE_KEYWORD.match(stripped)
                handler = handlers.get(word.group()) if word else None
                if handler is None:
                    self.error(at, f"unknown keyword {stripped.split(None, 1)[0]!r}")
                else:
                    handler(self, stripped, at)
            pos = end + 1
        self.close_block()
        return self.finish()

    def on_header(self, text: str, at: int) -> None:
        kind = _RawCurve if text.startswith(_RawCurve.keyword) else _RawPoint
        m = kind.header.match(text)
        self.close_block()
        if m:
            self.block = kind(m.group("id"), at + m.start("id"))
        else:
            self.error(at, f"malformed {kind.keyword} line")
            self.block = kind("", at)

    def on_cover(self, text: str, at: int) -> None:
        m = _RE_COVER.match(text)
        block = self.block
        if not m:
            self.error(at, "malformed cover line")
            if block is None:
                self.rejected_declarations.add("cover")
            return
        value = m.group("value")
        if isinstance(block, _RawCurve):
            if value not in _BEHAVIORS:
                self.error(
                    at + m.start("value"),
                    f"cover behavior must be inert, split, or ramified, got {value!r}",
                )
            elif block.behavior is not None:
                self.error(at, f"cover already set for curve {block.id!r}")
            else:
                block.behavior = _BEHAVIORS[value]
        elif isinstance(block, _RawPoint):
            self.error(at, "cover is not allowed in a point block")
        elif value not in _COVER_KINDS:
            self.error(at + m.start("value"), f"cover kind must be irreducible or split, got {value!r}")
            self.rejected_declarations.add("cover")
        elif self.cover is not None:
            self.error(at, "cover declared twice")
        else:
            self.cover = _COVER_KINDS[value]

    def on_symbols(self, text: str, at: int) -> None:
        if self.block is not None:
            self.error(at, "symbols must be declared at top level")
            return
        if self.symbols is not None:
            self.error(at, "symbols declared twice")
            return
        m = _RE_SYMBOLS.match(text)
        if not m:
            self.error(at, "malformed symbols line")
            self.rejected_declarations.add("symbols")
            return
        self.symbols = []
        declared = self.declared
        for tok in _RE_TOKEN.finditer(text, m.start("rest")):
            name = tok.group()
            if not _RE_NAME.fullmatch(name):
                self.error(at + tok.start(), f"bad symbol name {name!r}")
            elif name in declared:
                self.error(at + tok.start(), f"duplicate symbol {name!r}")
            else:
                declared.add(name)
                self.symbols.append(name)

    # -- block fields -------------------------------------------------------

    def field_match(
        self, kind: type[_RawCurve | _RawPoint], keyword: str, pattern: re.Pattern, text: str, at: int, usage: str = ""
    ) -> tuple:
        """The open ``kind`` block and ``pattern``'s match on the field line ``text``.

        A line outside a ``kind`` block, or one ``pattern`` does not match,
        gets its diagnostic and ``(None, None)``.
        """
        block = self.block
        if not isinstance(block, kind):
            where = "at top level" if block is None else f"in a {block.keyword} block"
            self.error(at, f"{keyword} is not allowed {where}; it belongs in a {kind.keyword} block")
            return None, None
        m = pattern.match(text)
        if not m:
            self.error(at, f"malformed {keyword} line{usage}")
            return None, None
        return block, m

    def unset(self, block: _RawCurve | _RawPoint, keyword: str, value: object, at: int) -> bool:
        """Whether ``value``, ``block``'s ``keyword`` field, is unset; a diagnostic if not."""
        if value:
            self.error(at, f"{keyword} already set for {block.keyword} {block.id!r}")
        return not value

    def on_type(self, text: str, at: int) -> None:
        c, m = self.field_match(_RawCurve, "type", _RE_TYPE, text, at)
        if m is None:
            return
        value = m.group("value")
        if value not in _CURVE_TYPES:
            self.error(at + m.start("value"), f"type must be I, II, III, or IV, got {value!r}")
        elif self.unset(c, "type", c.deg_type, at):
            c.deg_type = _CURVE_TYPES[value]

    def on_ext(self, text: str, at: int) -> None:
        c, m = self.field_match(_RawCurve, "ext", _RE_EXT, text, at)
        if m is None:
            return
        raw_sheet = m.group("sheet")
        sheet: int | None = None
        if raw_sheet is not None:
            if raw_sheet not in ("1", "2"):
                self.error(at + m.start("sheet"), f"sheet must be 1 or 2, got {raw_sheet!r}")
            else:
                sheet = int(raw_sheet)
        n = len(c.exts) + 1
        if n > 2:
            self.error(at, f"curve {c.id!r} already has two extensions")
            return
        c.at[f"ext{n}"] = at + m.start("id")
        c.at[f"residue{n}"] = at + m.start("residue")
        c.exts.append((m.group("id"), sheet, m.group("residue")))

    def on_mark(self, text: str, at: int) -> None:
        c, m = self.field_match(_RawCurve, "mark", _RE_MARK, text, at)
        if m is not None and self.unset(c, "mark", c.mark, at):
            c.mark = m.group("id")
            c.at["mark"] = at + m.start("id")

    def on_cores(self, text: str, at: int) -> None:
        c, m = self.field_match(_RawCurve, "cores", _RE_CORES, text, at)
        # An empty cores residue is a value too: it was set.
        if m is not None and self.unset(c, "cores", c.cores is not None, at):
            c.cores = m.group("residue")
            c.at["cores"] = at + m.start("residue")

    def on_curves(self, text: str, at: int) -> None:
        p, m = self.field_match(_RawPoint, "curves", _RE_CURVES, text, at, " (expected: curves: <id>, <id>)")
        if m is not None and self.unset(p, "curves", p.incident, at):
            p.incident = (m.group("a"), m.group("b"))
            p.at["a"] = at + m.start("a")
            p.at["b"] = at + m.start("b")

    def on_etype(self, text: str, at: int) -> None:
        p, m = self.field_match(_RawPoint, "etype", _RE_ETYPE, text, at)
        if m is None:
            return
        value = m.group("value")
        if value not in _POINT_TYPES:
            self.error(at + m.start("value"), f"unknown point type {value!r}")
        elif self.unset(p, "etype", p.etype, at):
            p.etype = _POINT_TYPES[value]

    def on_meets_marked(self, text: str, at: int) -> None:
        p, m = self.field_match(_RawPoint, "meets_marked", _RE_MEETS, text, at)
        if m is not None and self.unset(p, "meets_marked", p.meets, at):
            p.meets = self.read_meets(m.group("rest"), at + m.start("rest"))

    def read_meets(self, rest: str, at: int) -> list[_Located]:
        """The comma-separated extension ids ``rest``, which starts at offset ``at``."""
        meets = []
        for part in rest.split(","):
            token = part.strip()
            start = at + part.index(token) if token else at
            if _RE_IDENT.fullmatch(token):
                meets.append((token, start))
            else:
                self.error(start, f"bad extension reference {token!r}")
            at += len(part) + 1
        return meets

    # -- closed blocks ------------------------------------------------------

    def close_block(self) -> None:
        """Keep the block read line by line, if one is open, as its record."""
        block, self.block = self.block, None
        if block is None:
            return
        at = block.at
        for name, problem in block.required:
            if not getattr(block, name):
                self.error(at[block.keyword], f"{block.keyword} {block.id!r} {problem}")
        if isinstance(block, _RawCurve):
            (ext1, sheet1, residue1), (ext2, sheet2, residue2) = (*block.exts, _NO_EXT, _NO_EXT)[:2]
            self.keep_curve(
                block.id,
                block.deg_type or CurveType.I,
                block.behavior or CoverBehavior.RAMIFIED,
                ext1, sheet1, residue1, ext2, sheet2, residue2,
                block.mark,
                block.cores,
                at.__getitem__,
            )
        else:
            a, b = block.incident or ("", "")
            self.keep_point(block.id, a, b, block.etype or PointType.I_II, block.meets, at.__getitem__)

    def keep_curve(
        self,
        id: str,
        deg_type: CurveType,
        behavior: CoverBehavior,
        ext1: str | None,
        sheet1: int | None,
        residue1: str | None,
        ext2: str | None,
        sheet2: int | None,
        residue2: str | None,
        mark: str | None,
        cores: str | None,
        at: _At,
    ) -> None:
        """Claim a closed curve's ids, read its residues and keep its ``Curve``.

        ``ext1`` is ``None`` only for a curve read line by line without an
        ext line.  A residue text read before without a problem is looked
        up here; any other goes through ``resolve_residue``.
        """
        ids, residues = self.ids, self.residues
        if id in ids:
            self.duplicate(id, at("curve"))
        else:
            ids[id] = at("curve")
        self.curve_ids.add(id)
        exts: tuple[Extension, ...] = ()
        if ext1 is not None:
            if ext1 in ids:
                self.duplicate(ext1, at("ext1"))
            else:
                ids[ext1] = at("ext1")
            self.ext_ids.add(ext1)
            residue = residues.get(residue1)
            if residue is None:
                residue = self.resolve_residue(residue1, at, "residue1")
            exts = (tuple.__new__(Extension, (ext1, residue, sheet1)),)
            if ext2 is not None:
                if ext2 in ids:
                    self.duplicate(ext2, at("ext2"))
                else:
                    ids[ext2] = at("ext2")
                self.ext_ids.add(ext2)
                residue = residues.get(residue2)
                if residue is None:
                    residue = self.resolve_residue(residue2, at, "residue2")
                exts += (tuple.__new__(Extension, (ext2, residue, sheet2)),)
        if mark is not None and mark != ext1 and mark != ext2:
            self.error(at("mark"), f"mark {mark!r} does not match an extension of {id!r}")
        cores_residue = None
        if cores is not None:
            cores_residue = residues.get(cores)
            if cores_residue is None:
                cores_residue = self.resolve_residue(cores, at, "cores")
        self.curves.append(tuple.__new__(Curve, (id, deg_type, behavior, exts, mark, cores_residue)))

    def keep_point(self, id: str, a: str, b: str, etype: PointType, meets: list[_Located], at: _At) -> None:
        """Keep a closed point's ``SingularPoint``; ``finish`` claims its id and checks its references."""
        names = frozenset([name for name, _ in meets]) if meets else _NO_MEETS
        self.points.append(tuple.__new__(SingularPoint, (id, (a, b), etype, names)))
        self.point_refs.append((id, a, b, meets, at))

    # -- resolution ---------------------------------------------------------

    def duplicate(self, name: str, at: int) -> None:
        """The diagnostic for the id ``name`` claimed again at ``at``."""
        self.error(at, f"duplicate id {name!r} (first declared at {self.span(self.ids[name])})")

    def resolve_residue(self, text: str, at: _At, group: str) -> ResidueClass:
        """The class ``text`` names, its problems reported at field ``group``.

        A text without a problem is kept in ``residues`` for the next block.
        """
        cls, problems = self.read_residue(text)
        if problems:
            start = at(group)
            for offset, message in problems:
                self.error(start + offset, message)
        else:
            self.residues[text] = cls
        return cls

    def read_residue(self, text: str) -> tuple[ResidueClass, list[tuple[int, str]]]:
        """The class ``text`` names and its problems, at offsets into ``text``."""
        if text == "0":
            return ResidueClass(), []
        if not text:
            return ResidueClass(), [(0, "missing residue (use 0 for the zero class)")]
        acc: set[str] = set()
        problems: list[tuple[int, str]] = []
        declared = self.declared
        offset = 0
        for part in text.split("+"):
            token = part.strip()
            if not _RE_NAME.fullmatch(token):
                problems.append((offset, f"bad residue symbol {part!r}"))
            elif token not in declared:
                problems.append((offset + part.index(token), f"residue symbol {token!r} is not declared"))
            else:
                acc ^= {token}
            offset += len(part) + 1
        return ResidueClass(frozenset(acc)), problems

    def finish(self) -> Configuration:
        if self.cover is None and "cover" not in self.rejected_declarations:
            self.error(0, "missing cover declaration")
        if self.symbols is None and "symbols" not in self.rejected_declarations:
            self.error(0, "missing symbols declaration")

        ids, curve_ids, ext_ids = self.ids, self.curve_ids, self.ext_ids
        for id, a, b, meets, at in self.point_refs:
            if id in ids:
                self.duplicate(id, at("point"))
            else:
                ids[id] = at("point")
            for group, name in (("a", a), ("b", b)):
                if name and name not in curve_ids:
                    self.error(at(group), f"point references unknown curve {name!r}")
            for name, offset in meets:
                if name not in ext_ids:
                    self.error(offset, f"meets_marked references unknown extension {name!r}")

        if self.diags:
            ordered = sorted(self.diags, key=lambda d: d[0])
            raise ConfigParseError(tuple(ParseDiagnostic(self.span(at), message) for at, message in ordered))
        return Configuration(
            cover_kind=self.cover,
            symbols=tuple(self.symbols),
            curves=tuple(self.curves),
            points=tuple(self.points),
        )


# One handler per keyword; each takes the line without its indentation and
# the offset in the text where that starts.
_HANDLERS = {
    "cover": _Parser.on_cover,
    "symbols": _Parser.on_symbols,
    "curve": _Parser.on_header,
    "point": _Parser.on_header,
    "type": _Parser.on_type,
    "ext": _Parser.on_ext,
    "mark": _Parser.on_mark,
    "cores": _Parser.on_cores,
    "curves": _Parser.on_curves,
    "etype": _Parser.on_etype,
    "meets_marked": _Parser.on_meets_marked,
}


def parse(text: str) -> Configuration:
    """Parse configuration text.

    Raises:
        ConfigParseError: with one ``ParseDiagnostic`` (line/column +
            message) per problem found.
    """
    return _Parser(text).run()


def _id(name: str) -> str:
    """``name``, which the format reads back as the same id, or ``ValueError``."""
    if not _RE_IDENT.fullmatch(name):
        raise ValueError(f"id {name!r} cannot be written")
    return name


_ZERO_NAME = frozenset({"0"})


def emit(cfg: Configuration) -> str:
    """Canonical text for a configuration (LF endings, fixed layout).

    ``parse(emit(cfg))`` is structurally equal to ``cfg``; emitting what
    ``parse`` produced reproduces canonical sources byte for byte.  What
    the text cannot carry back raises ``ValueError`` naming it: a symbol
    name that is empty or holds anything but ASCII letters, digits and
    ``_``, a symbol declared twice, an id that holds anything else but
    ``'`` and ``-``, a residue of the symbol ``0`` alone (it reads back as
    the zero class) and a point without exactly two curves.
    """
    order = cfg.symbol_index
    for i, name in enumerate(cfg.symbols):
        if not _RE_NAME.fullmatch(name):
            raise ValueError(f"symbol name {name!r} cannot be written" if name else "empty symbol name cannot be written")
        # The index keeps a repeated name's last position.
        if order[name] != i:
            raise ValueError(f"symbol {name!r} is declared twice and cannot be written")

    def residue(cls: ResidueClass, owner: str) -> str:
        if cls.symbols == _ZERO_NAME:
            raise ValueError(f"residue '0' of {owner!r} cannot be written: it reads back as the zero class")
        return cls.render(order)

    kind = "irreducible" if cfg.cover_kind is CoverKind.IRREDUCIBLE else "split"
    lines = [f"cover: {kind}"]
    lines.append("symbols:" + ("" if not cfg.symbols else " " + " ".join(cfg.symbols)))
    for c in cfg.curves:
        lines.append("")
        lines.append(f"curve {_id(c.id)}:")
        lines.append(f"  type: {c.deg_type.value}")
        lines.append(f"  cover: {c.cover_behavior.value}")
        for e in c.extensions:
            sheet = f" sheet={e.sheet}" if e.sheet is not None else ""
            lines.append(f"  ext {_id(e.id)}{sheet}: {residue(e.residue, e.id)}")
        if c.marking is not None:
            lines.append(f"  mark: {_id(c.marking)}")
        if c.cores_residue_input is not None:
            lines.append(f"  cores: {residue(c.cores_residue_input, c.id)}")
    ext_position = {
        e.id: (i, j) for i, c in enumerate(cfg.curves) for j, e in enumerate(c.extensions)
    }
    for p in cfg.points:
        if len(p.incident) != 2:
            raise ValueError(f"point {p.id!r} must list two curves, not {len(p.incident)}")
        lines.append("")
        lines.append(f"point {_id(p.id)}:")
        lines.append(f"  curves: {_id(p.incident[0])}, {_id(p.incident[1])}")
        lines.append(f"  etype: {p.etype.value}")
        if p.meets_marked:
            ordered = sorted(p.meets_marked, key=lambda eid: ext_position.get(eid, (len(cfg.curves), eid)))
            lines.append(f"  meets_marked: {', '.join(map(_id, ordered))}")
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
