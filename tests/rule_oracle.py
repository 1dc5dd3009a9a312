"""(kernel_dim, h2nr_dim) by enumeration over the rule-built rows, one component at a time.

``brute_force_unramified`` enumerates over the spaces that
``model._build_spaces`` built, so it cannot catch a fault in the
builder.  This oracle starts from ``rule_rows_and_columns``, which
rebuilds the R rows, the Q columns and the S vectors from the rules as
``model``'s docstrings state them, without ``_build_spaces``: from
``model`` this module imports only the value types, and the rules read
no more of the package than ``vp_basis``, the one-line list of P that
``test_ownership.reference_s`` calls.

An R row marks only extensions of the point's two curves, and a Q
column only its own curve's, so ``m_pr`` is block diagonal over the
connected components of the curves, joined by the points that have an
R row, and Q splits the same way.  Each component is enumerated on its
own (dim P at most 20 per component), so a disjoint union of many small
configurations stays cheap however large its P.
"""

from isbbrauer.model import Configuration, PointType

from test_spaces import rule_rows_and_columns

COMPONENT_CAP = 20

# The point types that have no R row.
_ROWLESS = (PointType.I_II, PointType.IVPP_IV)


def curve_components(cfg: Configuration) -> list[int]:
    """Masks over P, one per connected component of the curves that holds a P coordinate."""
    parent = {c.id: c.id for c in cfg.curves}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for point in cfg.points:
        if point.etype not in _ROWLESS:
            a, b = point.incident
            parent[find(a)] = find(b)
    masks: dict[str, int] = {}
    coords = [c.id for c in cfg.curves for e in c.extensions if not e.residue.is_zero]
    for j, cid in enumerate(coords):
        root = find(cid)
        masks[root] = masks.get(root, 0) | 1 << j
    return list(masks.values())


def local(mask: int, coords: list[int]) -> int:
    """``mask`` read at the P coordinates ``coords``, as a mask over their positions."""
    return sum(1 << i for i, j in enumerate(coords) if mask >> j & 1)


def span_of(masks: list[int]) -> set[int]:
    found = {0}
    for m in masks:
        found |= {x ^ m for x in found}
    return found


def rule_oracle(cfg: Configuration) -> tuple[int, int]:
    """(kernel_dim, h2nr_dim) of a valid ``cfg``, by enumerating each component of P.

    For each component: every vector of its P that is even against every
    R row is in its kernel; each Q column of the component must be one of
    them; the cosets of the span of those columns in the kernel give the
    component's share of kernel_dim.  S spans several components, so it
    is checked across them: each S vector lies in the kernel, and no
    nonzero sum of S vectors lies in image(Q), so dim S subtracts.

    Raises:
        AssertionError: when a component is past ``COMPONENT_CAP``, a row or
            column crosses components, a Q column or S vector is outside the
            kernel, S meets image(Q), or a count is not a power of two.
    """
    p, rows, columns, s = rule_rows_and_columns(cfg)
    kernel_dim = 0
    parts = []  # each component's P coordinates, with image(Q) in them
    for component in curve_components(cfg):
        coords = [j for j in range(p) if component >> j & 1]
        assert len(coords) <= COMPONENT_CAP, f"component of dim P {len(coords)} past {COMPONENT_CAP}"
        assert all(m & component in (0, m) for m in rows + columns), "a row or column crosses components"
        local_rows = [local(r, coords) for r in rows if r & component]
        kernel = {v for v in range(1 << len(coords)) if all((r & v).bit_count() % 2 == 0 for r in local_rows)}
        relations = [local(c, coords) for c in columns if c & component]
        assert all(c in kernel for c in relations), "a Q column is not in the kernel of m_pr"
        assert all(local(v, coords) in kernel for v in s), "an S vector is not in the kernel of m_pr"
        image = span_of(relations)
        parts.append((coords, image))
        cosets, rest = divmod(len(kernel), len(image))
        assert rest == 0 and cosets & (cosets - 1) == 0, "the coset count is not a power of two"
        kernel_dim += cosets.bit_length() - 1
    s_span = span_of(s)
    assert len(s_span) == 1 << len(s), "the S vectors are dependent"
    for m in s_span - {0}:
        assert not all(local(m, coords) in image for coords, image in parts), "a sum of S vectors lies in image(Q)"
    return kernel_dim, kernel_dim - len(s)
