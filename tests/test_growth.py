"""Growth per doubling of each function's executed lines.

``linecount`` counts the lines of each function of the package that a
whole command runs through ``cli.run`` (``compute``, ``compute --json``,
``validate`` and ``explain``), on two families:

* rings of 200, 400 and 800 curves (``ring_source``);
* for each cover kind, 8, 16 and 32 relabelled copies of one valid union
  of corpus blocks, chosen to hold IV_II points with ``meets_marked`` and
  IVp_IV points, which the rings lack.  Copies stay valid, because each
  of GC1-GC4 splits over them.  At 2, 4 and 8 copies the report
  writer's sparse-row threshold, ``min(cols >> 4, 8)``, still moves with
  the matrix width, so ``f2._set_bits`` reads 2.31 per doubling under
  ``compute`` although no row costs more than its set bits.

Every stage on that path is linear in the input's size, so each
function's count may grow by at most 2.2 per doubling.  A count does not
depend on the host, so the bound holds on any machine.  Rings with long
chords are left out: there the forward pass of ``kernel_basis`` grows as
the square (ROADMAP item 13).
"""

import io

import pytest

from isbbrauer import cli, dsl
from isbbrauer.model import Configuration, CoverKind, PointType, validate
from isbbrauer.sampling import random_corpus

from linecount import count_lines
from test_front_end import ring_source
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
