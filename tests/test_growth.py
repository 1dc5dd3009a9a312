"""Growth per doubling of each function's executed lines.

``linecount`` counts the lines of each function of the package that
``parse`` plus ``unramified_brauer`` execute on two families:

* rings of 200, 400 and 800 curves (``ring_source``);
* for each cover kind, 2, 4 and 8 relabelled copies of one valid union of
  corpus blocks, chosen to hold IV_II points with ``meets_marked`` and
  IVp_IV points, which the rings lack.  Copies stay valid, because each
  of GC1-GC4 splits over them.

Every stage on that path is linear in the input's size, so each
function's count may grow by at most 2.2 per doubling.  A count does not
depend on the host, so the bound holds on any machine.  Rings with long
chords are left out: there the forward pass of ``kernel_basis`` grows as
the square (ROADMAP item 13).
"""

import pytest

from isbbrauer import dsl
from isbbrauer.brauer import unramified_brauer
from isbbrauer.model import Configuration, CoverKind, PointType, validate
from isbbrauer.sampling import random_corpus

from linecount import count_lines
from test_front_end import ring_source
from test_spaces import relabel, union

BOUND = 2.2


def worst_growth(sources: list[str]) -> dict[str, float]:
    """Each function's largest ratio of counts between consecutive sources."""
    counts = [count_lines(lambda source=source: unramified_brauer(dsl.parse(source))) for source in sources]
    assert all(c.keys() == counts[0].keys() for c in counts)
    return {name: max(large[name] / small[name] for small, large in zip(counts, counts[1:])) for name in counts[0]}


def assert_linear(worst: dict[str, float]) -> None:
    assert {name: round(ratio, 3) for name, ratio in worst.items() if ratio > BOUND} == {}
    # The path does grow with the input: validation, the spaces and the
    # kernel each double, so the bound is not met by counts that stand still.
    for name in ("model._structural_diagnostics", "model._build_spaces", "f2.kernel_basis"):
        assert worst[name] > 1.9, name


def test_parse_and_compute_grow_linearly_on_rings():
    assert_linear(worst_growth([ring_source(n) for n in (200, 400, 800)]))


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
def test_parse_and_compute_grow_linearly_on_copies_of_a_union(kind):
    base = marked_crossings(kind)
    assert validate(base).ok
    meets = sum(p.etype is PointType.IV_II and bool(p.meets_marked) for p in base.points)
    assert meets >= 6 and any(p.etype is PointType.IVP_IV for p in base.points)
    sources = [dsl.emit(union(kind, [relabel(base, k) for k in range(n)])) for n in (2, 4, 8)]
    assert_linear(worst_growth(sources))
