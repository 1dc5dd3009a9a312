"""Parser and emitter for the configuration text format."""

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isbbrauer import dsl, toric
from isbbrauer.dsl import BUILTIN_NAMES, ConfigParseError, builtin, builtin_source, emit, parse
from isbbrauer.model import Configuration, CoverKind, CurveType, PointType, ResidueClass, SingularPoint, validate
from isbbrauer.sampling import random_configuration


def spans(exc: ConfigParseError):
    return [(d.span.line, d.span.column) for d in exc.diagnostics]


def messages(exc: ConfigParseError):
    return [d.message for d in exc.diagnostics]


# --- builtins and roundtrips -------------------------------------------------


def test_builtin_sources_are_canonical():
    for name in BUILTIN_NAMES:
        src = builtin_source(name)
        assert emit(parse(src)) == src


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin("no-such-example")


def test_hpt_structure():
    cfg = builtin("hpt")
    assert cfg.cover_kind is CoverKind.IRREDUCIBLE
    assert cfg.symbols == ("a", "b", "c")
    assert len(cfg.curves) == 7
    assert [c.deg_type for c in cfg.curves[:4]] == [CurveType.I] * 4
    assert {p.etype for p in cfg.points} == {PointType.II_II}
    assert cfg.points[0].incident == ("y-axis", "z-axis")


@pytest.mark.parametrize(
    "symbols, incident, code, message",
    [
        (("a", "b", "c"), ("y-axis", "z-axis", "x-axis"), "POINT_PAIR", "point 'p100' must list two curves, not 3"),
        (("a", "b", "c"), ("y-axis",), "POINT_PAIR", "point 'p100' must list two curves, not 1"),
        (("a", "b", "c", ""), ("y-axis", "z-axis"), "SYMBOLS", "empty symbol name"),
        (("a", "b", "c", "a"), ("y-axis", "z-axis"), "DUP_ID", "symbol 'a' is declared twice"),
    ],
    ids=["three-curves", "one-curve", "empty-symbol", "repeated-symbol"],
)
def test_emit_refuses_what_the_text_cannot_hold(symbols, incident, code, message):
    # Written out, the point would keep two curves (or raise IndexError),
    # the empty symbol would vanish, so the text would validate, and the
    # repeated symbol would make ``parse`` refuse the text.
    hpt = builtin("hpt")
    first = hpt.points[0]
    points = (SingularPoint(first.id, incident, first.etype),) + hpt.points[1:]
    cfg = Configuration(hpt.cover_kind, symbols, hpt.curves, points)
    assert [d.code for d in validate(cfg).errors] == [code]
    with pytest.raises(ValueError, match=re.escape(message)):
        emit(cfg)


def with_symbol(cfg: Configuration, name: str) -> Configuration:
    """``cfg`` with its first symbol renamed to ``name``, in the residues too."""
    old = cfg.symbols[0]

    def rename(cls: ResidueClass) -> ResidueClass:
        return ResidueClass(name if s == old else s for s in cls.symbols)

    curves = tuple(
        c._replace(extensions=tuple(e._replace(residue=rename(e.residue)) for e in c.extensions))
        for c in cfg.curves
    )
    return cfg._replace(symbols=(name, *cfg.symbols[1:]), curves=curves)


def with_point_id(cfg: Configuration, name: str) -> Configuration:
    return cfg._replace(points=(cfg.points[0]._replace(id=name), *cfg.points[1:]))


def with_curve_id(cfg: Configuration, name: str) -> Configuration:
    return cfg._replace(curves=(cfg.curves[0]._replace(id=name), *cfg.curves[1:]))


def with_zero_symbol_residue(cfg: Configuration) -> Configuration:
    """``cfg`` with the symbol ``0`` declared and the only residue of its
    first split curve's first extension."""
    k, curve = next((k, c) for k, c in enumerate(cfg.curves) if len(c.extensions) == 2)
    first, *rest = curve.extensions
    curve = curve._replace(extensions=(first._replace(residue=ResidueClass.of("0")), *rest))
    return cfg._replace(symbols=(*cfg.symbols, "0"), curves=(*cfg.curves[:k], curve, *cfg.curves[k + 1:]))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cfg: with_symbol(cfg, "a b"), "symbol name 'a b' cannot be written"),
        (lambda cfg: with_symbol(cfg, "a+b"), "symbol name 'a+b' cannot be written"),
        (lambda cfg: with_symbol(cfg, "#x"), "symbol name '#x' cannot be written"),
        (lambda cfg: with_point_id(cfg, "p 1"), "id 'p 1' cannot be written"),
        (lambda cfg: with_curve_id(cfg, "C:1"), "id 'C:1' cannot be written"),
        (with_zero_symbol_residue, "residue '0' of 'e_xyz' cannot be written"),
    ],
    ids=["space-in-symbol", "plus-in-symbol", "comment-symbol", "space-in-point-id", "colon-in-curve-id", "zero-symbol"],
)
def test_emit_refuses_names_the_text_cannot_carry_back(edit, message):
    # Written out, each would fail to parse or read back as another
    # configuration: a split symbol list, a comment, the zero class.
    cfg = edit(builtin("hpt"))
    with pytest.raises(ValueError, match=re.escape(message)):
        emit(cfg)


def test_a_declared_symbol_0_beside_others_is_written():
    cfg = with_zero_symbol_residue(builtin("hpt"))
    x_axis = cfg.curves[4]
    first, second = x_axis.extensions
    x_axis = x_axis._replace(extensions=(first._replace(residue=ResidueClass.of("0", "a")), second))
    cfg = cfg._replace(curves=(*cfg.curves[:4], x_axis, *cfg.curves[5:]))
    assert "  ext e_xyz: a+0\n" in emit(cfg)
    assert parse(emit(cfg)) == cfg


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=100_000))
def test_parse_emit_identity(seed):
    cfg = random_configuration(random.Random(seed))
    assert parse(emit(cfg)) == cfg


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=100_000))
def test_emit_is_canonical_fixed_point(seed):
    cfg = random_configuration(random.Random(seed))
    src = emit(cfg)
    assert emit(parse(src)) == src
    assert src.endswith("\n") and "\r" not in src


def test_crlf_input_is_accepted():
    src = builtin_source("cubic-quartic").replace("\n", "\r\n")
    assert parse(src) == builtin("cubic-quartic")


def test_comments_and_indentation_are_cosmetic():
    src = (
        "# configuration\n"
        "cover: irreducible   # the cover stays irreducible\n"
        "symbols: d\n"
        "curve quartic:\n"
        "        type: I\n"
        "  cover: ramified\n"
        "  ext quartic_t: 0\n"
        "curve cubic:\n"
        "  type: II\n"
        "  cover: split\n"
        "  ext cubic_1: d\n"
        "  ext cubic_2: d # same symbol on both sheets\n"
    )
    assert parse(src) == builtin("cubic-quartic")


def test_residue_folding():
    src = (
        "cover: irreducible\n"
        "symbols: a b\n"
        "curve c:\n"
        "  type: II\n"
        "  cover: split\n"
        "  ext c_1: a+b+a\n"
        "  ext c_2: b+b\n"
    )
    cfg = parse(src)
    assert cfg.curves[0].extensions[0].residue == ResidueClass.of("b")
    assert cfg.curves[0].extensions[1].residue.is_zero


# --- one-pass reads against the per-token loops ---------------------------------


def loop_read_residue(declared: set[str], text: str) -> tuple[ResidueClass, list[tuple[int, str]]]:
    """``_Parser.read_residue`` as a loop over the parts, one check per part."""
    if text == "0":
        return ResidueClass(), []
    if not text:
        return ResidueClass(), [(0, "missing residue (use 0 for the zero class)")]
    acc: set[str] = set()
    problems = []
    offset = 0
    for part in text.split("+"):
        token = part.strip()
        if not re.fullmatch(r"[A-Za-z0-9_]+", token):
            problems.append((offset, f"bad residue symbol {part!r}"))
        elif token not in declared:
            problems.append((offset + part.index(token), f"residue symbol {token!r} is not declared"))
        else:
            acc ^= {token}
        offset += len(part) + 1
    return ResidueClass(frozenset(acc)), problems


def loop_on_symbols(text: str, at: int) -> tuple[list[str], set[str], list[tuple[int, str]]]:
    """The symbols, declared names and diagnostics of ``_Parser.on_symbols``
    on a well-formed symbols line, as a loop over its tokens."""
    symbols: list[str] = []
    declared: set[str] = set()
    diags = []
    for tok in re.finditer(r"\S+", text[len("symbols:"):]):
        name, start = tok.group(), at + len("symbols:") + tok.start()
        if not re.fullmatch(r"[A-Za-z0-9_]+", name):
            diags.append((start, f"bad symbol name {name!r}"))
        elif name in declared:
            diags.append((start, f"duplicate symbol {name!r}"))
        else:
            declared.add(name)
            symbols.append(name)
    return symbols, declared, diags


# Declared or not, valid or not, with spaces on either side, empty, and 0.
RESIDUE_PARTS = st.sampled_from(["a", "b", "c", "0", "x_1", "zz", "", " ", " a", "a ", "b-d", "ü", "a\t"])
NAMES = ["a", "b", "c", "0", "x_1"]


@given(
    declared=st.sets(st.sampled_from(NAMES)),
    text=st.one_of(
        st.lists(RESIDUE_PARTS, min_size=1, max_size=8).map("+".join),
        st.text(alphabet="abz0_+ -", max_size=12),
    ),
)
@settings(max_examples=400)
def test_reading_a_residue_matches_the_loop_over_its_parts(declared, text):
    parser = dsl._Parser("")
    parser.declared = set(declared)
    cls, problems = parser.read_residue(text)
    assert (cls, problems) == loop_read_residue(declared, text)
    assert type(cls) is ResidueClass and type(cls.symbols) is frozenset


def test_a_residue_of_declared_names_is_read_by_parity():
    parser = dsl._Parser("")
    parser.declared = {"a", "b", "c"}
    for text, names in [("a", "a"), ("a+b", "ab"), ("a+a", ""), ("a+b+a", "b"), ("a+a+a", "a"), ("c+b+a+b", "ac")]:
        assert parser.read_residue(text) == (ResidueClass(frozenset(names)), [])


@given(
    tokens=st.lists(st.sampled_from([*NAMES, "b-d", "ü", "a#", "x.y"]), max_size=8),
    gaps=st.lists(st.sampled_from([" ", "  ", "\t", " \x0b "]), min_size=9, max_size=9),
    at=st.integers(0, 50),
)
@settings(max_examples=400)
def test_declaring_symbols_matches_the_loop_over_the_tokens(tokens, gaps, at):
    text = "symbols:" + "".join(gap + token for gap, token in zip(gaps, tokens))
    parser = dsl._Parser("")
    parser.on_symbols(text, at)
    assert (parser.symbols, parser.declared, parser.diags) == loop_on_symbols(text, at)


# --- diagnostics ---------------------------------------------------------------


def test_missing_preamble_reported_at_origin():
    with pytest.raises(ConfigParseError) as caught:
        parse("")
    assert spans(caught.value) == [(1, 1), (1, 1)]
    assert "missing cover declaration" in messages(caught.value)[0]
    assert "missing symbols declaration" in messages(caught.value)[1]


def test_bad_cover_kind_column():
    src = "cover: sideways\nsymbols: a\n"
    with pytest.raises(ConfigParseError) as caught:
        parse(src)
    line, col = spans(caught.value)[-1]
    assert (line, col) == (1, src.splitlines()[0].index("sideways") + 1)


def test_unknown_keyword_span_respects_indentation():
    src = "cover: irreducible\nsymbols: a\n   frob: 1\n"
    with pytest.raises(ConfigParseError) as caught:
        parse(src)
    assert (3, 4) in spans(caught.value)
    assert any("unknown keyword 'frob:'" in m for m in messages(caught.value))


@pytest.mark.parametrize("line", ["symbols d", "symbols", "symbols : a"])
def test_symbols_line_without_colon(line):
    with pytest.raises(ConfigParseError) as caught:
        parse("cover: irreducible\n" + line + "\n")
    assert ((2, 1), "malformed symbols line") in zip(spans(caught.value), messages(caught.value))


@pytest.mark.parametrize(
    "src, expected",
    [
        ("cover: irreducible\nsymbols d\n", [((2, 1), "malformed symbols line")]),
        ("symbols: a\ncover irreducible\n", [((2, 1), "malformed cover line")]),
        (
            "symbols: a\ncover: sideways\n",
            [((2, 8), "cover kind must be irreducible or split, got 'sideways'")],
        ),
        (
            "cover irreducible\nsymbols\n",
            [((1, 1), "malformed cover line"), ((2, 1), "malformed symbols line")],
        ),
        # A malformed cover line inside a curve block is not the declaration.
        (
            "symbols: a\ncurve c:\n  type: II\n  cover split\n  ext c_t: a\n",
            [
                ((1, 1), "missing cover declaration"),
                ((2, 7), "curve 'c' is missing a cover line"),
                ((4, 3), "malformed cover line"),
            ],
        ),
    ],
)
def test_rejected_declaration_is_not_also_missing(src, expected):
    with pytest.raises(ConfigParseError) as caught:
        parse(src)
    assert list(zip(spans(caught.value), messages(caught.value))) == expected


def test_bad_residue_symbol_span():
    line = "  ext c_1: a+!x"
    src = "cover: irreducible\nsymbols: a\ncurve c:\n  type: II\n  cover: split\n" + line + "\n  ext c_2: a\n"
    with pytest.raises(ConfigParseError) as caught:
        parse(src)
    assert (6, line.index("!x") + 1) in spans(caught.value)


def test_undeclared_residue_symbol():
    src = (
        "cover: irreducible\nsymbols: a\n"
        "curve c:\n  type: II\n  cover: split\n  ext c_1: a\n  ext c_2: q\n"
    )
    with pytest.raises(ConfigParseError) as caught:
        parse(src)
    assert any("residue symbol 'q' is not declared" in m for m in messages(caught.value))


def test_duplicate_id_reports_first_site():
    src = (
        "cover: irreducible\nsymbols: a\n"
        "curve c:\n  type: II\n  cover: split\n  ext c_1: a\n  ext c_1: a\n"
    )
    with pytest.raises(ConfigParseError) as caught:
        parse(src)
    assert any("duplicate id 'c_1' (first declared at 6:7)" in m for m in messages(caught.value))


def test_third_extension_rejected():
    src = (
        "cover: irreducible\nsymbols: a\n"
        "curve c:\n  type: II\n  cover: split\n  ext c_1: a\n  ext c_2: a\n  ext c_3: a\n"
    )
    with pytest.raises(ConfigParseError) as caught:
        parse(src)
    assert any("already has two extensions" in m for m in messages(caught.value))


def test_repeated_fields_rejected():
    src = (
        "cover: irreducible\nsymbols: a\n"
        "curve c:\n  type: II\n  type: III\n  cover: split\n  ext c_1: a\n  ext c_2: a\n"
    )
    with pytest.raises(ConfigParseError) as caught:
        parse(src)
    assert any("type already set" in m for m in messages(caught.value))


def test_fields_must_match_block_kind():
    src = (
        "cover: irreducible\nsymbols: a\n"
        "type: II\n"
        "point p:\n  curves: x, y\n  etype: II_II\n  cover: split\n"
    )
    with pytest.raises(ConfigParseError) as caught:
        parse(src)
    msgs = messages(caught.value)
    assert any("type is not allowed at top level" in m for m in msgs)
    assert any("cover is not allowed in a point block" in m for m in msgs)


def test_incomplete_blocks_reported():
    src = "cover: irreducible\nsymbols: a\ncurve c:\n  type: II\npoint p:\n  etype: II_II\n"
    with pytest.raises(ConfigParseError) as caught:
        parse(src)
    msgs = messages(caught.value)
    assert any("missing a cover line" in m for m in msgs)
    assert any("needs at least one ext line" in m for m in msgs)
    assert any("missing a curves line" in m for m in msgs)


def test_mark_must_name_own_extension():
    src = (
        "cover: irreducible\nsymbols: a\n"
        "curve c:\n  type: IV\n  cover: split\n  ext c_m: a\n  ext c_o: 0\n  mark: elsewhere\n"
    )
    with pytest.raises(ConfigParseError) as caught:
        parse(src)
    assert any("mark 'elsewhere' does not match an extension" in m for m in messages(caught.value))


def test_unresolved_references():
    src = (
        "cover: irreducible\nsymbols: a\n"
        "curve c:\n  type: II\n  cover: split\n  ext c_1: a\n  ext c_2: a\n"
        "point p:\n  curves: c, ghost\n  etype: II_II\n  meets_marked: phantom\n"
    )
    with pytest.raises(ConfigParseError) as caught:
        parse(src)
    msgs = messages(caught.value)
    assert any("unknown curve 'ghost'" in m for m in msgs)
    assert any("unknown extension 'phantom'" in m for m in msgs)


def test_diagnostics_sorted_by_position():
    src = "symbols: a %\ncurve 1:\n  type: V\n"
    with pytest.raises(ConfigParseError) as caught:
        parse(src)
    assert spans(caught.value) == sorted(spans(caught.value))
    assert "(+" in str(caught.value)  # headline mentions the remainder


# --- the line path, pinned message by message ---------------------------------

PRE = "cover: irreducible\nsymbols: a\n"
TWO_EXTS = "curve c:\n  type: II\n  cover: split\n  ext c_1: a\n  ext c_2: a\n"
MARKED = "curve q:\n  type: IV\n  cover: inert\n  ext q_1: a\n  mark: q_1\n  cores: a\n"
POINT = "point p:\n  curves: c, q\n  etype: IV_II\n  meets_marked: c_1\n"


def top(line):
    return PRE + line + "\n"  # the line is line 3


def in_curve(line):
    return PRE + MARKED + "  " + line + "\n"  # the line is line 9


def in_point(line):
    return PRE + TWO_EXTS + MARKED + POINT + "  " + line + "\n"  # the line is line 18


LINE_PATH_CASES = [
    # Each field keyword at top level, in a curve block and in a point block.
    (top("type: II"), ["3:1: type is not allowed at top level; it belongs in a curve block"]),
    (in_curve("type: II"), ["9:3: type already set for curve 'q'"]),
    (in_point("type: II"), ["18:3: type is not allowed in a point block; it belongs in a curve block"]),
    (top("cover: split"), ["3:1: cover declared twice"]),
    (in_curve("cover: split"), ["9:3: cover already set for curve 'q'"]),
    (in_point("cover: split"), ["18:3: cover is not allowed in a point block"]),
    (top("ext e: a"), ["3:1: ext is not allowed at top level; it belongs in a curve block"]),
    (in_curve("ext e: a"), []),
    (in_point("ext e: a"), ["18:3: ext is not allowed in a point block; it belongs in a curve block"]),
    (top("mark: q_1"), ["3:1: mark is not allowed at top level; it belongs in a curve block"]),
    (in_curve("mark: q_1"), ["9:3: mark already set for curve 'q'"]),
    (in_point("mark: q_1"), ["18:3: mark is not allowed in a point block; it belongs in a curve block"]),
    (top("cores: a"), ["3:1: cores is not allowed at top level; it belongs in a curve block"]),
    (in_curve("cores: a"), ["9:3: cores already set for curve 'q'"]),
    (in_point("cores: a"), ["18:3: cores is not allowed in a point block; it belongs in a curve block"]),
    (top("curves: c, q"), ["3:1: curves is not allowed at top level; it belongs in a point block"]),
    (in_curve("curves: c, q"), ["9:3: curves is not allowed in a curve block; it belongs in a point block"]),
    (in_point("curves: c, q"), ["18:3: curves already set for point 'p'"]),
    (top("etype: II_II"), ["3:1: etype is not allowed at top level; it belongs in a point block"]),
    (in_curve("etype: II_II"), ["9:3: etype is not allowed in a curve block; it belongs in a point block"]),
    (in_point("etype: II_II"), ["18:3: etype already set for point 'p'"]),
    (top("meets_marked: c_1"), ["3:1: meets_marked is not allowed at top level; it belongs in a point block"]),
    (
        in_curve("meets_marked: c_1"),
        ["9:3: meets_marked is not allowed in a curve block; it belongs in a point block"],
    ),
    (in_point("meets_marked: c_1"), ["18:3: meets_marked already set for point 'p'"]),
    # Each field keyword malformed in its own block.
    (in_curve("type II"), ["9:3: malformed type line"]),
    (in_curve("cover split"), ["9:3: malformed cover line"]),
    (in_curve("ext e a"), ["9:3: malformed ext line"]),
    (in_curve("mark: q_1 q_2"), ["9:3: malformed mark line"]),
    (in_curve("cores a"), ["9:3: malformed cores line"]),
    (in_point("curves: c"), ["18:3: malformed curves line (expected: curves: <id>, <id>)"]),
    (in_point("etype:"), ["18:3: malformed etype line"]),
    (in_point("meets_marked:"), ["18:3: malformed meets_marked line"]),
    # Bad values; a bad value is reported before "already set".
    (
        PRE + "curve c:\n  type: V\n",
        [
            "3:7: curve 'c' is missing a type line",
            "3:7: curve 'c' is missing a cover line",
            "3:7: curve 'c' needs at least one ext line",
            "4:9: type must be I, II, III, or IV, got 'V'",
        ],
    ),
    (
        PRE + "curve c:\n  cover: splits\n",
        [
            "3:7: curve 'c' is missing a type line",
            "3:7: curve 'c' is missing a cover line",
            "3:7: curve 'c' needs at least one ext line",
            "4:10: cover behavior must be inert, split, or ramified, got 'splits'",
        ],
    ),
    (
        PRE + "curve c:\n  ext e sheet=3: a\n",
        [
            "3:7: curve 'c' is missing a type line",
            "3:7: curve 'c' is missing a cover line",
            "4:15: sheet must be 1 or 2, got '3'",
        ],
    ),
    (
        PRE + "point p:\n  etype: II_III\n",
        [
            "3:7: point 'p' is missing a curves line",
            "3:7: point 'p' is missing an etype line",
            "4:10: unknown point type 'II_III'",
        ],
    ),
    ("cover: sideways\nsymbols: a\n", ["1:8: cover kind must be irreducible or split, got 'sideways'"]),
    (in_curve("type: V"), ["9:9: type must be I, II, III, or IV, got 'V'"]),
    (in_point("etype: II_III"), ["18:10: unknown point type 'II_III'"]),
    (
        PRE + TWO_EXTS + "  ext c_3 sheet=0: a\n",
        ["8:3: curve 'c' already has two extensions", "8:17: sheet must be 1 or 2, got '0'"],
    ),
    # Malformed headers open a block with an empty id.
    (
        top("curve :") + "  type: II\n",
        [
            "3:1: malformed curve line",
            "3:1: curve '' is missing a cover line",
            "3:1: curve '' needs at least one ext line",
        ],
    ),
    (
        top("curve c") + "  type: II\n",
        [
            "3:1: malformed curve line",
            "3:1: curve '' is missing a cover line",
            "3:1: curve '' needs at least one ext line",
        ],
    ),
    (
        top("point") + "  type: II\n",
        [
            "3:1: malformed point line",
            "3:1: point '' is missing a curves line",
            "3:1: point '' is missing an etype line",
            "4:3: type is not allowed in a point block; it belongs in a curve block",
        ],
    ),
    (
        top("point p q:") + "  type: II\n",
        [
            "3:1: malformed point line",
            "3:1: point '' is missing a curves line",
            "3:1: point '' is missing an etype line",
            "4:3: type is not allowed in a point block; it belongs in a curve block",
        ],
    ),
    # Blocks missing every required field.
    (
        top("curve c:"),
        [
            "3:7: curve 'c' is missing a type line",
            "3:7: curve 'c' is missing a cover line",
            "3:7: curve 'c' needs at least one ext line",
        ],
    ),
    (top("point p:"), ["3:7: point 'p' is missing a curves line", "3:7: point 'p' is missing an etype line"]),
    # A repeated meets_marked line is refused before its tokens are read.
    (in_point("meets_marked: c_2, !x"), ["18:3: meets_marked already set for point 'p'"]),
    # A field is set only by a line that was accepted, so a refused line
    # leaves it free for the next one.
    (
        PRE + "curve c:\n  type: V\n  type: II\n  cover: split\n  ext c_1: a\n",
        ["4:9: type must be I, II, III, or IV, got 'V'"],
    ),
    (
        PRE + "curve c:\n  type: II\n  cover: splits\n  cover: split\n  ext c_1: a\n",
        ["5:10: cover behavior must be inert, split, or ramified, got 'splits'"],
    ),
    (
        PRE + TWO_EXTS + "point p:\n  curves: c, c\n  etype: II_III\n  etype: II_II\n",
        ["10:10: unknown point type 'II_III'"],
    ),
    (
        PRE + TWO_EXTS + "point p:\n  curves: c, c\n  etype: IV_II\n  meets_marked: !x\n  meets_marked: c_1\n",
        ["11:17: bad extension reference '!x'"],
    ),
    # An empty residue is a value: it sets the field, and is refused only
    # when the block closes.
    (
        PRE + "curve q:\n  type: I\n  cover: inert\n  ext q_1: a\n  cores:\n  cores: a\n",
        ["7:9: missing residue (use 0 for the zero class)", "8:3: cores already set for curve 'q'"],
    ),
    # An ext line with a refused sheet still counts as an extension.
    (
        PRE + "curve c:\n  type: II\n  cover: split\n  ext c_1 sheet=3: a\n  ext c_2: a\n  ext c_3: a\n",
        ["6:17: sheet must be 1 or 2, got '3'", "8:3: curve 'c' already has two extensions"],
    ),
]


def test_line_path_diagnostics_are_pinned(monkeypatch):
    for pattern in (dsl._RE_BLOCK, re.compile(r"(?!)")):
        monkeypatch.setattr(dsl, "_RE_BLOCK", pattern)
        for source, expected in LINE_PATH_CASES:
            try:
                parse(source)
                found = []
            except ConfigParseError as exc:
                found = [str(d) for d in exc.diagnostics]
            assert found == expected, source


def test_sheet_values():
    src = (
        "cover: split\nsymbols: a\n"
        "curve c:\n  type: II\n  cover: split\n"
        "  ext c_1 sheet=1: a\n  ext c_2 sheet=3: a\n"
    )
    with pytest.raises(ConfigParseError) as caught:
        parse(src)
    assert any("sheet must be 1 or 2" in m for m in messages(caught.value))


def test_split_cover_source_roundtrip():
    src = (
        "cover: split\n"
        "symbols: a\n"
        "\n"
        "curve c:\n"
        "  type: II\n"
        "  cover: split\n"
        "  ext c_1 sheet=1: a\n"
        "  ext c_2 sheet=2: a\n"
    )
    cfg = parse(src)
    assert cfg.cover_kind is CoverKind.SPLIT_EVERYWHERE
    assert [e.sheet for e in cfg.curves[0].extensions] == [1, 2]
    assert emit(cfg) == src


def test_meets_marked_emitted_in_extension_order():
    src = (
        "cover: irreducible\n"
        "symbols: a b\n"
        "\n"
        "curve conic:\n"
        "  type: II\n"
        "  cover: split\n"
        "  ext f_1: a\n"
        "  ext f_2: b\n"
        "\n"
        "curve quad:\n"
        "  type: IV\n"
        "  cover: split\n"
        "  ext quad_m: b\n"
        "  ext quad_o: 0\n"
        "  mark: quad_m\n"
        "\n"
        "point z:\n"
        "  curves: conic, quad\n"
        "  etype: IV_II\n"
        "  meets_marked: f_1, f_2\n"
    )
    cfg = parse(src)
    assert emit(cfg) == src


# --- the patterns ----------------------------------------------------------------


def module_patterns(module) -> dict[str, re.Pattern]:
    return {name: value for name, value in vars(module).items() if isinstance(value, re.Pattern)}


def test_no_pattern_backtracks_over_what_a_stripped_line_cannot_hold():
    # A handler gets its line right-stripped, so a ``\s*$`` tail only ever
    # matches the empty string, and a lazy group before it retries it at
    # every space: quadratic in a run of spaces.  That holds because
    # ``str.rstrip`` strips exactly the characters ``\s`` matches.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if not c.rstrip()]
    patterns = {
        **{f"dsl.{name}": p for name, p in module_patterns(dsl).items()},
        **{f"toric.{name}": p for name, p in module_patterns(toric).items()},
        **{f"dsl._BLOCK_KINDS[{kind!r}]": header for kind, (header, _, _) in dsl._BLOCK_KINDS.items()},
    }
    assert {"dsl._RE_BLOCK", "dsl._RE_EXT", "dsl._RE_MEETS", "toric._TOKEN"} <= patterns.keys()
    assert [name for name, p in patterns.items() if p.pattern.endswith(r"\s*$")] == []
    assert [name for name, p in patterns.items() if re.search(r"[*+?}]\?", p.pattern)] == []
    # A leading ``\n*`` would let each try at a blank line read the whole run.
    assert not dsl._RE_BLOCK.pattern.startswith(r"\n*")


def test_the_block_match_is_tried_only_at_a_block_header(monkeypatch):
    tries = []
    block = dsl._RE_BLOCK

    class Recording:
        @staticmethod
        def match(text, pos):
            tries.append(pos)
            return block.match(text, pos)

    # Blank lines and a comment first, a non-canonical block (an indented
    # header, a comment inside) and a run of blank lines at the end.
    source = "\n\n# lead\n" + builtin_source("hpt").replace("curve D'_y:", "  curve D'_y:").replace(
        "point p010:\n", "point p010:\n  # inside\n"
    ) + "\n" * 50
    monkeypatch.setattr(dsl, "_RE_BLOCK", Recording)
    assert emit(parse(source)) == builtin_source("hpt")
    starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    assert tries == [at for at in starts if source.startswith(("curve ", "point "), at)]
