"""Growth per doubling of each function's executed lines.

``linecount`` counts the lines of each function of the package that a
whole command runs through ``cli.run`` (``compute``, ``compute --json``,
``validate`` and ``explain``), on three families:

* rings of 200, 400 and 800 curves (``ring_source``);
* the same sizes of rings with as many seeded long chords
  (``long_ring_source``), the first family whose kernel elimination
  fills in: taken in the order given, the rows of ``kernel_basis`` walk
  chains of pivots, and its count grows as the square;
* for each cover kind, 8, 16 and 32 relabelled copies of one valid union
  of corpus blocks, chosen to hold IV_II points with ``meets_marked`` and
  IVp_IV points, which the rings lack.  Copies stay valid, because each
  of GC1-GC4 splits over them.  At 2, 4 and 8 copies the report
  writer's sparse-row threshold, ``min(cols >> 4, 8)``, still moves with
  the matrix width, so the sparse walk of ``cli._Cells.row`` grows faster
  than the input although no row costs more than its set bits.

Every stage on that path is linear in the input's size, so each
function's count may grow by at most 2.2 per doubling.  A count does not
depend on the host, so the bound holds on any machine.

A line count is blind to regex backtracking, which runs inside one
line.  So the parsers are also timed on the layouts where a backtracking
pattern once made them quadratic: runs of blank lines, and runs of
spaces inside a value.  So are the reads of a long line: a residue
that repeats one symbol, which a count per name would make quadratic,
and a symbols line of distinct names.  Parsing an input of n
lines (or spaces, or names) and one of 4n may take at most
``TIME_BOUND`` times as long: linear gives about 4, quadratic about 16.
"""

import io
import timeit

import pytest

from isbbrauer import brauer, cli, dsl, toric
from isbbrauer.f2 import kernel_basis
from isbbrauer.model import Configuration, CoverKind, PointType, validate, vp_basis
from isbbrauer.sampling import random_corpus

from f2_reference import reference_kernel
from linecount import count_lines
from test_front_end import long_ring_source, ring_source
from test_spaces import relabel, union

BOUND = 2.2

# Each command, and the functions of the package it runs whose counts
# must grow with the input: validation and the spaces for every command,
# and the kernel for the two that compute.
COMMANDS = {
    ("compute",): ("model._structural_diagnostics", "model._build_spaces", "f2.kernel_basis"),
    ("compute", "--json"): ("model._structural_diagnostics", "model._build_spaces", "f2.kernel_basis"),
    ("validate",): ("model._structural_diagnostics", "model._build_spaces"),
    ("explain",): ("model._structural_diagnostics", "model._build_spaces"),
}


def worst_growth(command: tuple[str, ...], sources: list[str], tmp_path) -> dict[str, float]:
    """Each function's largest ratio of counts between consecutive sources,
    as ``command`` runs through ``cli.run`` on each source."""
    counts = []
    for k, source in enumerate(sources):
        path = tmp_path / f"input{k}.cfg"
        path.write_text(source)
        codes = []
        argv = [command[0], str(path), *command[1:]]
        counts.append(count_lines(lambda: codes.append(cli.run(argv, io.StringIO(), io.StringIO()))))
        assert codes == [0], command
    assert all(c.keys() == counts[0].keys() for c in counts), command
    return {name: max(large[name] / small[name] for small, large in zip(counts, counts[1:])) for name in counts[0]}


def assert_linear(sources: list[str], tmp_path) -> None:
    for command, growing in COMMANDS.items():
        worst = worst_growth(command, sources, tmp_path)
        assert {name: round(ratio, 3) for name, ratio in worst.items() if ratio > BOUND} == {}, command
        # The path does grow with the input, so the bound is not met by
        # counts that stand still.
        for name in growing:
            assert worst[name] > 1.9, (command, name)


def test_parse_and_compute_grow_linearly_on_rings(tmp_path):
    assert_linear([ring_source(n) for n in (200, 400, 800)], tmp_path)


def test_parse_and_compute_grow_linearly_on_long_chord_rings(tmp_path):
    assert_linear([long_ring_source(n, 0) for n in (200, 400, 800)], tmp_path)


@pytest.mark.parametrize("n, seed", [(6, 0), (7, 1), (25, 2), (50, 3), (200, 4)])
def test_kernel_matches_gauss_jordan_on_long_chord_rings(n, seed):
    cfg = dsl.parse(long_ring_source(n, seed))
    assert validate(cfg).ok
    assert len(vp_basis(cfg)) == 2 * n
    m = brauer.matrix_p_to_r(cfg)
    assert kernel_basis(m) == reference_kernel(m)


def marked_crossings(kind: CoverKind) -> Configuration:
    """The union of the blocks of ``random_corpus(3, 1000)`` under ``kind``
    that hold an IV_II point with ``meets_marked`` or an IVp_IV point."""
    blocks = [
        cfg
        for cfg in random_corpus(3, 1000)
        if cfg.cover_kind is kind
        and any(p.etype is PointType.IVP_IV or (p.etype is PointType.IV_II and p.meets_marked) for p in cfg.points)
    ]
    return union(kind, [relabel(b, k) for k, b in enumerate(blocks)])


@pytest.mark.parametrize("kind", list(CoverKind))
def test_parse_and_compute_grow_linearly_on_copies_of_a_union(kind, tmp_path):
    base = marked_crossings(kind)
    assert validate(base).ok
    meets = sum(p.etype is PointType.IV_II and bool(p.meets_marked) for p in base.points)
    assert meets >= 6 and any(p.etype is PointType.IVP_IV for p in base.points)
    sources = [dsl.emit(union(kind, [relabel(base, k) for k in range(n)])) for n in (8, 16, 32)]
    assert_linear(sources, tmp_path)


TIME_BOUND = 8

_HEAD = "cover: irreducible\nsymbols: a b\n"
_CURVE = "curve c:\n  type: I\n"

# Each layout, as a function of its run's length n, and the reader it goes
# through.
LAYOUTS = {
    "blank lines, then bogus": (lambda n: _HEAD + "\n" * n + "bogus\n", dsl.parse),
    "canonical block, blank lines, # end": (
        lambda n: _HEAD + "\n" + _CURVE + "  cover: ramified\n  ext e: a\n" + "\n" * n + "# end\n",
        dsl.parse,
    ),
    "spaces inside an ext residue": (
        lambda n: _HEAD + _CURVE + "  cover: ramified\n  ext e: a" + " " * n + "b\n",
        dsl.parse,
    ),
    "spaces inside a cores residue": (
        lambda n: _HEAD + _CURVE + "  cover: inert\n  ext e: a\n  cores: a" + " " * n + "b\n",
        dsl.parse,
    ),
    "one symbol repeated in an ext residue": (
        lambda n: _HEAD + _CURVE + "  cover: ramified\n  ext e: " + "+".join(["a"] * n) + "\n",
        dsl.parse,
    ),
    "distinct names on the symbols line": (
        lambda n: "cover: irreducible\nsymbols: " + " ".join(f"s{i}" for i in range(n)) + "\n",
        dsl.parse,
    ),
    "spaces inside a meets_marked value": (
        lambda n: _HEAD + "point p:\n  curves: c, d\n  etype: IV_II\n  meets_marked: e" + " " * n + "f\n",
        dsl.parse,
    ),
    "fan script with blank lines": (
        lambda n: "ray 1 0 0 0\nray 0 1 0 0\n" + "\n" * n + "cone 0 1\n",
        toric.parse_fan_script,
    ),
}


def best_parse_time(reader, text: str) -> float:
    """The least of three timings of ``reader`` on ``text``, a parse error included."""

    def read():
        try:
            reader(text)
        except dsl.ConfigParseError:
            pass

    return min(timeit.Timer(read).repeat(repeat=3, number=1))


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_parse_time_grows_linearly_on_long_runs(layout):
    make, reader = LAYOUTS[layout]
    small, large = (best_parse_time(reader, make(n)) for n in (5_000, 20_000))
    assert large / small < TIME_BOUND, (small, large)
