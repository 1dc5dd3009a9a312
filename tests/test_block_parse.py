"""The parser's block path: a canonical block read by one match.

``dsl._RE_BLOCK`` reads a ``curve`` or ``point`` block written as ``emit``
writes it, and followed by blank lines and a block header or the end of
the text, in one match, straight into its ``Curve`` or ``SingularPoint``;
everything else goes through the per-line handlers.  With the pattern
replaced by one that never matches, every line goes through the handlers,
which is the reference: both paths must give the same configuration, or
the same diagnostics at the same line:column, also when a line inserted
after a canonical block adds to it, is a comment or blank, or is a
top-level declaration out of place.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isbbrauer import dsl
from isbbrauer.model import CoverBehavior, CoverKind, CurveType, vp_basis
from isbbrauer.sampling import random_corpus

from test_front_end import parse_corpus, parse_outcome, ring_source
from test_spaces import relabel, union

NEVER = re.compile(r"(?!)")


def line_path_outcome(monkeypatch, text: str) -> str:
    with monkeypatch.context() as patch:
        patch.setattr(dsl, "_RE_BLOCK", NEVER)
        return parse_outcome(text)


# Every line break ``str.splitlines`` knows.
BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def swap_first_fields(block: list[str]) -> list[str]:
    return [block[0], block[2], block[1], *block[3:]] if len(block) > 2 else block


def repeat_type(block: list[str]) -> list[str]:
    return [*block[:2], *block[1:]] if block[0].startswith("curve") else block


def third_ext(block: list[str]) -> list[str]:
    if not block[0].startswith("curve"):
        return block
    last = max(i for i, line in enumerate(block) if line.startswith("  ext "))
    return [*block[: last + 1], "  ext extra_t: 0", *block[last + 1:]]


def mark_after_cores(block: list[str]) -> list[str]:
    marks = [line for line in block if line.startswith("  mark:")]
    return [line for line in block if not line.startswith("  mark:")] + marks


def comment_inside(block: list[str]) -> list[str]:
    return [block[0], "  # a comment inside the block", *block[1:]]


def blank_inside(block: list[str]) -> list[str]:
    return [*block[:2], "", *block[2:]]


def edit_blocks(text: str, edit) -> str:
    """``text`` with ``edit`` applied to the lines of each curve and point block."""
    head, *blocks = text.rstrip("\n").split("\n\n")
    return "\n\n".join([head, *("\n".join(edit(b.split("\n"))) for b in blocks)]) + "\n"


# Values the canonical layout could carry but the handlers refuse.
BAD_VALUES = (
    ("sheet=2", "sheet=3"),
    ("sheet=1", "sheet=01"),
    ("type: II\n", "type: V\n"),
    ("cover: split\n", "cover: splits\n"),
    ("etype: II_II", "etype: II_III"),
    ("+", "++"),
    (": 0\n", ": \n"),
    (", ", ",, "),
)


def variants(text: str) -> list[str]:
    """Non-canonical layouts of the canonical ``text``, and refused values in it."""
    out = [text.replace("\n", brk) for brk in BREAKS]
    out += [text.replace(old, new) for old, new in BAD_VALUES if old in text]
    lines = text.split("\n")
    out.append("".join(line + BREAKS[i % len(BREAKS)] for i, line in enumerate(lines)))
    out.append(text.rstrip("\n"))
    out.append("\n".join(line + "  # trailing comment" if line else line for line in lines))
    out.append("\n".join(line.replace("  ", "\t", 1) for line in lines))
    out.append("\n".join(line.replace("  ", "   ", 1) for line in lines))
    out.append(text.replace(": ", ":  "))
    out.append(text.replace("\n\n", "\n  \n"))
    for edit in (swap_first_fields, repeat_type, third_ext, mark_after_cores, comment_inside, blank_inside):
        out.append(edit_blocks(text, edit))
    return out


def canonical_sources() -> list[str]:
    sources = [dsl.builtin_source(name) for name in dsl.BUILTIN_NAMES]
    sources += [dsl.emit(cfg) for cfg in random_corpus(11, 60)]
    return sources + [dsl.emit(mixed_union())]


def test_block_path_matches_line_path_on_the_digest_corpus(monkeypatch):
    for data in parse_corpus():
        text = data.decode("utf-8", "replace")
        assert parse_outcome(text) == line_path_outcome(monkeypatch, text)


def test_block_path_matches_line_path_on_other_layouts(monkeypatch):
    kinds = set()
    for source in canonical_sources():
        for text in variants(source):
            outcome = parse_outcome(text)
            assert outcome == line_path_outcome(monkeypatch, text)
            kinds.add(outcome.split("\n", 1)[0])
    assert kinds == {"ok", "error"}


def test_layouts_that_only_look_different_parse_alike():
    for source in canonical_sources():
        cfg = dsl.parse(source)
        for brk in BREAKS:
            assert dsl.parse(source.replace("\n", brk)) == cfg
        assert dsl.parse(source.rstrip("\n")) == cfg
        assert dsl.parse(edit_blocks(source, swap_first_fields)) == cfg
        assert dsl.parse(edit_blocks(source, comment_inside)) == cfg


# --- positions and fallback at scale -------------------------------------------


def plant(text: str) -> str:
    """The 4002-line ring of 400 curves with nine faults planted in it.

    Every fault sits in a block of the canonical layout, read by one match.
    """
    lines = text.split("\n")
    assert lines[469] == "  ext c77b: s77"
    lines[469] = "  ext c77b: s77+yy"
    assert lines[1506] == "  ext c250a: s250"
    lines[1506] = "  ext c40b: s250"
    assert lines[1807] == "  ext c300b: s300"
    lines[1807] = "  mark: c300c"
    assert lines[744] == "  ext c123a: s123"
    lines[744] = "  ext c123a: s123+zz"
    assert lines[1207] == "  ext c200b: s200"
    lines[1207] = "  ext c17a: s200"
    assert lines[3404] == "  curves: c250, c251"
    lines[3404] = "  curves: c250, nope"
    assert lines[4001] == "  etype: II_II"
    lines.insert(4002, "  meets_marked: c0a, ghost")
    assert lines[2401] == "  ext c399b: s399"
    lines.insert(2402, "  cores: s399+qq")
    return "\n".join(lines) + "\ncurve c5:\n  type: II\n  cover: split\n  ext c5c: s5\n"


PLANTED = [
    "470:17: residue symbol 'yy' is not declared",
    "745:19: residue symbol 'zz' is not declared",
    "1208:7: duplicate id 'c17a' (first declared at 109:7)",
    "1507:7: duplicate id 'c40b' (first declared at 248:7)",
    "1808:9: mark 'c300c' does not match an extension of 'c300'",
    "2403:15: residue symbol 'qq' is not declared",
    "3406:17: point references unknown curve 'nope'",
    "4004:22: meets_marked references unknown extension 'ghost'",
    "4006:7: duplicate id 'c5' (first declared at 34:7)",
]


@pytest.fixture
def handler_calls(monkeypatch):
    """Per-keyword counts of the line handlers called."""
    calls: dict[str, int] = {}

    def counting(keyword, handler):
        def call(parser, text, at):
            calls[keyword] = calls.get(keyword, 0) + 1
            return handler(parser, text, at)

        return call

    for keyword, handler in list(dsl._HANDLERS.items()):
        monkeypatch.setitem(dsl._HANDLERS, keyword, counting(keyword, handler))
    return calls


def test_planted_faults_are_reported_at_their_positions(handler_calls, monkeypatch):
    source = ring_source(400)
    assert dsl.emit(dsl.parse(source)) == source and source.count("\n") == 4002
    text = plant(source)
    handler_calls.clear()
    with pytest.raises(dsl.ConfigParseError) as caught:
        dsl.parse(text)
    assert [str(d) for d in caught.value.diagnostics] == PLANTED
    assert handler_calls == {"cover": 1, "symbols": 1}
    assert parse_outcome(text) == line_path_outcome(monkeypatch, text)


@pytest.mark.parametrize("n", [50, 200, 800])
def test_only_top_level_lines_reach_a_handler_on_emitted_rings(handler_calls, n):
    source = dsl.emit(dsl.parse(ring_source(n)))
    handler_calls.clear()
    cfg = dsl.parse(source)
    assert len(cfg.curves) == len(cfg.points) == n
    assert handler_calls == {"cover": 1, "symbols": 1}


def test_only_top_level_lines_reach_a_handler_on_a_mixed_union(handler_calls):
    source = dsl.emit(mixed_union())
    handler_calls.clear()
    dsl.parse(source)
    assert handler_calls == {"cover": 1, "symbols": 1}


# --- round trip on large mixed configurations -------------------------------


def mixed_union():
    """Every corpus block of both cover kinds, relabelled, in one configuration.

    Parsing does not validate, so one text holds sheets beside inert and
    ramified curves, and every field of the format.
    """
    blocks = random_corpus(13, 200)
    return union(CoverKind.IRREDUCIBLE, [relabel(b, k) for k, b in enumerate(blocks)])


def kind_union(kind: CoverKind):
    blocks = [b for b in random_corpus(17, 300) if b.cover_kind is kind]
    return union(kind, [relabel(b, k) for k, b in enumerate(blocks)])


def test_round_trip_on_large_unions():
    mixed = mixed_union()
    curves = mixed.curves
    assert {c.deg_type for c in curves} == set(CurveType)
    assert {c.cover_behavior for c in curves} == set(CoverBehavior)
    assert any(c.marking for c in curves)
    assert any(c.cores_residue_input is not None for c in curves)
    assert any(e.sheet for c in curves for e in c.extensions)
    assert any(p.meets_marked for p in mixed.points)
    for cfg in (mixed, kind_union(CoverKind.IRREDUCIBLE), kind_union(CoverKind.SPLIT_EVERYWHERE)):
        assert len(vp_basis(cfg)) >= 200
        text = dsl.emit(cfg)
        assert dsl.parse(text) == cfg
        assert dsl.emit(dsl.parse(text)) == text


# --- lines inserted where a canonical block ends -----------------------------------

# A field line of either kind of block, which joins the block it follows.
FIELD_LINES = (
    "  type: II",
    "  cover: split",
    "  ext extra_t: 0",
    "  ext extra_s sheet=2: 0",
    "  mark: extra_t",
    "  cores: 0",
    "  curves: extra_a, extra_b",
    "  etype: I_II",
    "  meets_marked: extra_t",
)
# Lines that add nothing to any block.
QUIET_LINES = ("# a comment", "  # an indented comment", "  ", "\t", " \t ")
# Top-level declarations, refused after the first block.
TOP_LEVEL_LINES = ("symbols: late", "cover: split", "cover: irreducible")

SOURCES = canonical_sources()


def block_ends(lines: list[str]) -> list[int]:
    """Each index right after the last line of a curve or point block."""
    return [i for i in range(1, len(lines)) if lines[i] == "" and lines[i - 1].startswith("  ")]


@st.composite
def inserted_after_blocks(draw) -> tuple[str, list[int]]:
    """A canonical source with lines inserted where its blocks end.

    Each line goes right after a block or after the blank line that
    follows it.  Returns the text and the 1-based line numbers of the
    inserted top-level declarations.
    """
    lines = draw(st.sampled_from(SOURCES)).split("\n")
    ends = block_ends(lines)
    chosen = draw(st.lists(st.sampled_from(ends), min_size=1, max_size=4, unique=True))
    edits = []
    for end in chosen:
        line = draw(st.sampled_from(FIELD_LINES + QUIET_LINES + TOP_LEVEL_LINES))
        edits.append((end + draw(st.integers(0, 1)), line))
    edits.sort()
    top_level = [at + k + 1 for k, (at, line) in enumerate(edits) if line in TOP_LEVEL_LINES]
    for at, line in reversed(edits):
        lines.insert(at, line)
    return "\n".join(lines), top_level


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=inserted_after_blocks())
def test_block_path_matches_line_path_after_lines_inserted_at_block_ends(monkeypatch, case):
    text, top_level = case
    outcome = parse_outcome(text)
    assert outcome == line_path_outcome(monkeypatch, text)
    # A declaration after a block is refused on its own line; a block that
    # had closed before it would let it through.
    for line in top_level:
        assert outcome.startswith("error\n")
        assert f"\n{line}:" in outcome


def test_a_field_line_after_a_canonical_block_joins_that_block(monkeypatch):
    text = dsl.builtin_source("cubic-quartic") + "  ext cubic_3: 0\n"
    message = "14:3: curve 'cubic' already has two extensions"
    assert parse_outcome(text).split("\n")[1:] == [message, message]
    assert parse_outcome(text) == line_path_outcome(monkeypatch, text)


POINT_THEN_CURVE = """\
cover: irreducible
symbols: a

point x:
  curves: y, y
  etype: II_II

curve x:
  type: II
  cover: split
  ext x_1: a
  ext x_2: a

curve y:
  type: II
  cover: split
  ext y_1: a
  ext y_2: a
"""


def test_a_point_declared_before_a_curve_of_its_id_is_the_duplicate(monkeypatch):
    # Curves claim their ids before points do, wherever they are declared,
    # so "first declared at" names the curve, which comes later.
    expected = "\n".join(
        [
            "error",
            "4:7: duplicate id 'x' (first declared at 8:7)",
            "4:7: duplicate id 'x' (first declared at 8:7)",
        ]
    )
    assert parse_outcome(POINT_THEN_CURVE) == expected
    assert line_path_outcome(monkeypatch, POINT_THEN_CURVE) == expected


# --- no block read line by line for a canonical block -------------------------


@pytest.fixture
def line_blocks(monkeypatch):
    """The keyword of every block opened line by line, through ``_Parser.on_header``."""
    opened: list[str] = []

    def counting(self, text, at, _on_header=dsl._Parser.on_header):
        opened.append(text.split(None, 1)[0])
        _on_header(self, text, at)

    for keyword in ("curve", "point"):
        monkeypatch.setitem(dsl._HANDLERS, keyword, counting)
    return opened


def test_canonical_blocks_build_no_raw_record(line_blocks):
    ring = ring_source(400)
    assert len(dsl.parse(ring).curves) == 400
    assert len(dsl.parse(dsl.emit(mixed_union())).points) > 100
    assert line_blocks == []
    # Off the canonical layout each block is read line by line.
    dsl.parse(edit_blocks(ring_source(3), comment_inside))
    assert line_blocks == ["curve"] * 3 + ["point"] * 3
