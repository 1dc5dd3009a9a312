"""Growth per doubling of each function's executed lines.

``linecount`` counts the lines of each function of the package that
``parse`` plus ``unramified_brauer`` execute on rings of 200, 400 and 800
curves (``ring_source``).  Every stage on that path is linear in the
ring's size, so each function's count may grow by at most 2.2 per
doubling.  A count does not depend on the host, so the bound holds on
any machine.  Rings with long chords are left out: there the forward
pass of ``kernel_basis`` grows as the square (ROADMAP item 13).
"""

from isbbrauer import dsl
from isbbrauer.brauer import unramified_brauer

from linecount import count_lines
from test_front_end import ring_source

SIZES = (200, 400, 800)
BOUND = 2.2


def test_parse_and_compute_grow_linearly_on_rings():
    counts = [count_lines(lambda source=ring_source(n): unramified_brauer(dsl.parse(source))) for n in SIZES]
    assert counts[0].keys() == counts[1].keys() == counts[2].keys()
    worst = {
        name: max(large[name] / small[name] for small, large in zip(counts, counts[1:])) for name in counts[0]
    }
    assert {name: round(ratio, 3) for name, ratio in worst.items() if ratio > BOUND} == {}
    # The path does grow with the ring: validation, the spaces and the kernel
    # each double, so the bound is not met by counts that stand still.
    for name in ("model._structural_diagnostics", "model._build_spaces", "f2.kernel_basis"):
        assert worst[name] > 1.9, name
