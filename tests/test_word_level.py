"""The word-level paths against the per-bit code they replaced.

``kernel_basis`` (one elimination with pivots at the highest bit), the
one-pass ``Subspace`` invariant, the GC1-GC4 checks (column XOR and ranks
read off the construction) and the bit rendering of vectors and matrices
are each compared with an in-test copy of the straightforward code that
came before them.
The loops that walk set bits inline (``column_masks``, ``kernel_basis``,
``_Spaces.r_image``, ``brauer._lift`` and ``cli._Cells.row``) also meet
masks 1 to 2500 bits wide.  A ring of 400 split Type II curves (dim P 800,
far past the brute-force cap) is checked against its number of connected
components.
"""

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isbbrauer import brauer, cli, dsl, model, sampling
from isbbrauer.brauer import unramified_brauer
from isbbrauer.f2 import (
    DimensionMismatch,
    F2Matrix,
    F2Vector,
    Subspace,
    bit_string,
    kernel_basis,
)
from isbbrauer.model import (
    Configuration,
    CoverBehavior,
    CoverKind,
    Curve,
    CurveType,
    Diagnostic,
    Extension,
    PointType,
    ResidueClass,
    SingularPoint,
    vp_basis,
)

from f2_reference import bits, columns, intersection_basis, mul, reference_kernel, span, to_lists

# --- references --------------------------------------------------------------


def per_bit(mask: int, length: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(length))


def reference_subspace_check(ambient_dim: int, basis) -> None:
    """The original invariant check: one scan of the basis per pivot."""
    seen_pivots = []
    for v in basis:
        if v.length != ambient_dim:
            raise DimensionMismatch("basis vector length disagrees with ambient dimension")
        if v.is_zero:
            raise ValueError("zero vector in basis")
        seen_pivots.append((v.mask & -v.mask).bit_length() - 1)
    if seen_pivots != sorted(set(seen_pivots)):
        raise ValueError("basis is not in echelon order")
    for p in seen_pivots:
        owners = [v for v in basis if (v.mask >> p) & 1]
        if len(owners) != 1:
            raise ValueError("basis is not fully reduced")


def reference_consistency(spaces) -> list[Diagnostic]:
    """GC1-GC4 by matrix-vector products, spans and a Zassenhaus intersection."""
    errors = []
    m_pr = spaces.m_pr
    q_columns = columns(spaces.m_qp)
    for c, column in zip(spaces.vq, q_columns):
        if not mul(m_pr, column).is_zero:
            errors.append(
                Diagnostic("GC1", f"relation vector of curve {c.id} does not map to zero in R", c.id)
            )
    for label, vec in zip(spaces.s_labels, spaces.s_vectors):
        if not mul(m_pr, vec).is_zero:
            errors.append(
                Diagnostic(
                    "GC3",
                    f"restriction-kernel generator {label} does not map to zero in R",
                    label,
                )
            )
    q_image = span(spaces.m_qp.rows, q_columns)
    s_image = span(m_pr.cols, spaces.s_vectors)
    if q_image.dim < len(spaces.vq):
        errors.append(Diagnostic("GC4", "relation vectors of Q are linearly dependent in P", "Q"))
    if s_image.dim < len(spaces.s_vectors):
        errors.append(Diagnostic("GC4", "generators of S are linearly dependent in P", "S"))
    if intersection_basis(q_image, s_image).dim > 0:
        errors.append(Diagnostic("GC2", "images of S and Q in P intersect nontrivially", "S∩Q"))
    return errors


def outcome(check, ambient_dim: int, basis):
    try:
        check(ambient_dim, basis)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


# --- bit rendering -----------------------------------------------------------


def masks_of_length(n: int, rng: random.Random) -> list[int]:
    return [0, (1 << n) - 1, rng.getrandbits(n) if n else 0, 1 << (n - 1) if n else 0]


@pytest.mark.parametrize("n", [0, 1, 63, 64, 800])
def test_vector_rendering_matches_per_bit(n):
    rng = random.Random(n)
    for mask in masks_of_length(n, rng):
        v = F2Vector(n, mask)
        expect = per_bit(mask, n)
        assert bit_string(mask, n) == "".join(str(b) for b in expect)
        assert str(v) == "(" + ",".join(str(b) for b in expect) + ")"
    assert str(F2Vector(0, 0)) == "()"


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0), (1, 1), (3, 63), (2, 64), (5, 800)])
def test_matrix_rendering_matches_per_bit(shape):
    rows, cols = shape
    rng = random.Random(rows * 1000 + cols)
    m = F2Matrix(rows, cols, tuple(rng.getrandbits(cols) if cols else 0 for _ in range(rows)))
    expect = [list(per_bit(mask, cols)) for mask in m.row_masks]
    labels = [f"r{i}" * (i + 1) for i in range(rows)]
    written = []
    cli._write_matrix(m, labels, "note", written.append)
    text = "".join(written)
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    if rows == 0 or cols == 0:
        assert lines == [f"  ({rows}x{cols}, note)"]
    else:
        width = max(len(lbl) for lbl in labels)
        assert lines == [
            f"  {lbl.ljust(width)}  [{' '.join(str(b) for b in row)}]"
            for lbl, row in zip(labels, expect)
        ]


def text_row(cells: tuple[int, ...]) -> str:
    return "[" + " ".join(str(b) for b in cells) + "]\n"


def json_cells(level: int):
    """The cells as ``json.dumps(indent=2)`` writes a list nested ``level`` deep."""
    return lambda cells: json.dumps(list(cells), indent=2).replace("\n", "\n" + "  " * level)


def text_vector(cells: tuple[int, ...]) -> str:
    return str(F2Vector(len(cells), sum(b << i for i, b in enumerate(cells))))


CELL_LAYOUTS = {
    "text row": (lambda cols: cli._Cells("[", " ", "]\n", cols), text_row),
    "text vector": (lambda cols: cli._Cells("(", ",", ")", cols), text_vector),
    "json row": (lambda cols: cli._json_cells(cols, 2), json_cells(2)),
    "json vector": (lambda cols: cli._json_cells(cols, 3), json_cells(3)),
}


@pytest.mark.parametrize("layout", sorted(CELL_LAYOUTS))
@pytest.mark.parametrize("cols", [0, 1, 15, 16, 17, 63, 64, 65, 800, 1000, 2500])
def test_cell_rows_match_per_bit(layout, cols):
    build, reference = CELL_LAYOUTS[layout]
    cells = build(cols)
    rng = random.Random(cols)
    # Every count of scattered bits the sparse path takes, one past it, and
    # denser rows; a lone top bit too, where the top-down walk starts.
    counts = sorted({k for k in (*range(cells.sparse + 2), cols // 2, cols) if k <= cols})
    masks = [sum(1 << j for j in rng.sample(range(cols), k)) for k in counts for _ in range(3)]
    masks += [1 << (cols - 1)] if cols else []
    for mask in masks:
        assert cells.row(mask) == reference(per_bit(mask, cols))
    # rows on both sides of the switch from walking set bits to the bit string
    assert {mask.bit_count() <= cells.sparse for mask in masks} == ({True, False} if cols else {True})


# --- Subspace invariant --------------------------------------------------------


def random_basis(rng: random.Random) -> tuple[int, tuple[F2Vector, ...]]:
    """A canonical basis, or one broken in one of several ways."""
    n = rng.randint(0, 9)
    gens = [F2Vector(n, rng.getrandbits(n) if n else 0) for _ in range(rng.randint(0, 6))]
    basis = list(span(n, gens).basis)
    kind = rng.randrange(7)
    if kind == 1 and len(basis) > 1:
        rng.shuffle(basis)
    elif kind == 2 and len(basis) > 1:
        i, j = rng.sample(range(len(basis)), 2)
        basis[i] = basis[i] + basis[j]
    elif kind == 3:
        basis.insert(rng.randint(0, len(basis)), F2Vector(n, 0))
    elif kind == 4:
        m = n + rng.choice((-1, 1)) if n else 1
        basis.insert(rng.randint(0, len(basis)), F2Vector(m, rng.getrandbits(m)))
    elif kind == 5:
        basis = [F2Vector(n, rng.getrandbits(n) if n else 0) for _ in range(rng.randint(0, 5))]
    elif kind == 6 and basis:
        basis.append(basis[rng.randrange(len(basis))])
    return n, tuple(basis)


def test_subspace_check_matches_pairwise_reference():
    rng = random.Random(2024)
    seen = set()
    for _ in range(5000):
        n, basis = random_basis(rng)
        got = outcome(Subspace, n, basis)
        assert got == outcome(reference_subspace_check, n, basis), (n, basis)
        seen.add(got)
    assert seen == {
        None,
        (DimensionMismatch, "basis vector length disagrees with ambient dimension"),
        (ValueError, "zero vector in basis"),
        (ValueError, "basis is not in echelon order"),
        (ValueError, "basis is not fully reduced"),
    }


# --- kernel ------------------------------------------------------------------


def test_kernel_matches_gauss_jordan_reference():
    rng = random.Random(7)
    shapes = [(0, 0), (0, 1), (0, 9), (1, 0), (6, 0)]
    shapes += [(rng.randint(0, 24), rng.randint(0, 40)) for _ in range(1500)]
    for rows, cols in shapes:
        density = rng.random()
        masks = tuple(
            sum((rng.random() < density) << j for j in range(cols)) for _ in range(rows)
        )
        m = F2Matrix(rows, cols, masks)
        assert kernel_basis(m) == reference_kernel(m), m


# --- wide masks ----------------------------------------------------------------
#
# ``column_masks``, ``kernel_basis``, ``_Spaces.r_image`` and ``brauer._lift``
# walk set bits in their own loops; here each meets masks of one and of many
# machine words, all-ones and single-top-bit ones included (``cli._Cells.row``
# meets the same widths in ``test_cell_rows_match_per_bit``).  The lift and
# the kernel's free columns go lowest bit first, since their order is
# output; the others clear the top bit.

WIDE = [1, 63, 64, 65, 1000, 2500]


def wide_masks(n: int, rng: random.Random) -> list[int]:
    sparse = sum(1 << j for j in rng.sample(range(n), min(n, 7)))
    return [0, (1 << n) - 1, 1 << (n - 1), 1, rng.getrandbits(n), sparse]


def spaces_with(**fields) -> model._Spaces:
    """Spaces of the given fields, the others empty, through ``_spaces``,
    with the columns of ``m_pr`` as its transpose gives them."""
    empty = dict.fromkeys(("vp", "vq", "zr", "q_columns", "lift_rows", "s_labels", "s_vectors"), ())
    fields = {**empty, "m_pr": F2Matrix(0, 0), **fields}
    return model._spaces(**fields, pr_columns=fields["m_pr"].column_masks())


@pytest.mark.parametrize("n", WIDE)
def test_column_masks_match_per_bit_on_wide_rows(n):
    m = F2Matrix(6, n, tuple(wide_masks(n, random.Random(n))))
    assert m.column_masks() == [col.mask for col in columns(m)]


@pytest.mark.parametrize("n", WIDE)
def test_kernel_matches_reference_on_wide_rows(n):
    m = F2Matrix(6, n, tuple(wide_masks(n, random.Random(n + 1))))
    assert kernel_basis(m) == reference_kernel(m)


@pytest.mark.parametrize("n", WIDE)
def test_r_image_matches_the_product_on_wide_vectors(n):
    rng = random.Random(n + 2)
    # m_pr has n columns, one per coordinate of P; its rows are the masks.
    m_pr = F2Matrix(6, n, tuple(wide_masks(n, rng)))
    spaces = spaces_with(m_pr=m_pr)
    for mask in wide_masks(n, rng):
        assert spaces.r_image(mask) == mul(m_pr, F2Vector(n, mask)).mask


def reference_lift(lift_rows, curve_ids: list[str], vec: F2Vector) -> list:
    """Each curve's residue total, one coordinate at a time, zeros left out,
    in the order of ``curve_ids``, the declaration order."""
    totals = {}
    for j in range(vec.length):
        if (vec.mask >> j) & 1:
            cid, symbols = lift_rows[j]
            totals[cid] = totals.get(cid, frozenset()) ^ symbols
    order = sorted(totals, key=curve_ids.index)
    return [(cid, ResidueClass(totals[cid])) for cid in order if totals[cid]]


@pytest.mark.parametrize("n", WIDE)
def test_lift_matches_per_bit_on_wide_vectors(n):
    rng = random.Random(n + 3)
    # Declared in shuffled order; P's coordinates come curve by curve, as
    # ``_build_spaces`` lays them out.
    curve_ids = [f"c{i}" for i in range(max(1, n // 20))]
    rng.shuffle(curve_ids)
    owners = sorted(rng.randrange(len(curve_ids)) for _ in range(n))
    lift_rows = tuple((curve_ids[k], frozenset(rng.sample("abcde", rng.randint(0, 2)))) for k in owners)
    spaces = spaces_with(lift_rows=lift_rows)
    lifts = []
    for mask in wide_masks(n, rng):
        lift = brauer._lift(spaces, F2Vector(n, mask))
        assert lift == reference_lift(lift_rows, curve_ids, F2Vector(n, mask))
        lifts.append(lift)
    assert lifts[0] == [] and (n == 1 or len(lifts[1]) > 1)


# --- GC checks ---------------------------------------------------------------


def test_consistency_checks_match_reference_on_raw_draws():
    rng = random.Random(31)
    checked = 0
    codes = set()
    for _ in range(300):
        cfg = sampling._draw(rng)
        errors, warnings = model._structural_diagnostics(cfg)
        if errors:
            continue
        spaces = model._build_spaces(cfg)
        expect = reference_consistency(spaces)
        assert model._consistency_diagnostics(spaces) == expect
        assert model.validate(cfg) == model.ValidationReport(tuple(expect), tuple(warnings))
        checked += 1
        codes |= {d.code for d in expect}
    assert checked > 250
    assert codes == {"GC1", "GC2", "GC3"}


def test_consistency_checks_match_reference_on_random_maps():
    # Valid data rarely makes Q and S meet or an S vector zero, so random
    # maps of the drawn shapes exercise GC2 and GC4.  They keep the two
    # facts every build has: the Q columns are disjoint non-empty runs of
    # P, and the S vectors are disjoint masks, zero allowed.  So the
    # reference's span-based GC4 check on Q, kept as the reference states
    # it, never fires.
    rng = random.Random(32)
    codes = set()
    for _ in range(300):
        cfg = sampling._draw(rng)
        if model._structural_diagnostics(cfg)[0]:
            continue
        spaces = model._build_spaces(cfg)
        p = len(spaces.vp)

        def sparse() -> int:
            return sum(1 << j for j in range(p) if rng.random() < 0.3)

        def runs(count: int) -> list[int]:
            # Each run leaves at least one coordinate for each run after it.
            found, start = [], 0
            for left in range(count, 0, -1):
                start += rng.randint(0, p - start - left)
                length = rng.randint(1, p - start - left + 1)
                found.append(((1 << length) - 1) << start)
                start += length
            return found

        owner = [rng.randrange(len(spaces.s_labels) + 1) for _ in range(p)]
        s_masks = [sum(1 << j for j in range(p) if owner[j] == i) for i in range(len(spaces.s_labels))]
        # The maps are swapped through ``_spaces``, which derives the Q+S
        # echelon from them afresh and takes the columns of ``m_pr`` as
        # given, here its transpose; ``m_qp`` is a property of ``_Spaces``,
        # built from ``q_columns`` on each read.
        m_pr = F2Matrix(spaces.m_pr.rows, p, tuple(sparse() for _ in spaces.zr))
        spaces = model._spaces(
            spaces.vp, spaces.vq, spaces.zr,
            m_pr=m_pr,
            pr_columns=m_pr.column_masks(),
            q_columns=runs(len(spaces.vq)),
            lift_rows=spaces.lift_rows,
            s_labels=spaces.s_labels,
            s_vectors=tuple(F2Vector(p, mask) for mask in s_masks),
        )
        assert [col.mask for col in columns(spaces.m_qp)] == spaces.q_columns
        expect = reference_consistency(spaces)
        assert model._consistency_diagnostics(spaces) == expect
        codes |= {(d.code, d.subject) for d in expect if d.code in ("GC2", "GC4")}
    assert codes == {("GC2", "S∩Q"), ("GC4", "S")}


# --- a ring past the brute-force cap -----------------------------------------


def components(n: int, edges) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def ring(rng: random.Random, n: int, cuts: int, chords: int) -> tuple[Configuration, int]:
    """Split Type II curves on a ring with ``cuts`` edges removed, plus short chords.

    Every curve has the same residue on both extensions, so Q has one
    relation per curve and S = 0; a vector of P is in the kernel exactly
    when its per-curve sums agree across every II_II point, so kernel_dim
    and h2nr_dim are the number of connected components of the point graph.
    """
    removed = set(rng.sample(range(n), cuts))
    edges = [(i, (i + 1) % n) for i in range(n) if i not in removed]
    taken = {frozenset(e) for e in edges}
    while len(edges) < n - cuts + chords:
        a = rng.randrange(n)
        b = (a + rng.randint(2, 9)) % n
        if frozenset((a, b)) not in taken:
            taken.add(frozenset((a, b)))
            edges.append((a, b))
    symbols = ("a", "b", "c")
    curves = []
    for i in range(n):
        r = ResidueClass.of(rng.choice(symbols))
        curves.append(
            Curve(
                f"c{i}",
                CurveType.II,
                CoverBehavior.SPLIT,
                (Extension(f"c{i}a", r), Extension(f"c{i}b", r)),
            )
        )
    points = tuple(
        SingularPoint(f"p{j}", (f"c{a}", f"c{b}"), PointType.II_II) for j, (a, b) in enumerate(edges)
    )
    return Configuration(CoverKind.IRREDUCIBLE, symbols, tuple(curves), points), components(n, edges)


@pytest.mark.parametrize("cuts,chords", [(0, 100), (12, 20), (40, 0)])
def test_ring_kernel_is_component_count(cuts, chords):
    cfg, count = ring(random.Random(cuts * 101 + chords), 400, cuts, chords)
    assert len(vp_basis(cfg)) == 800 > brauer._BRUTE_FORCE_CAP
    report = unramified_brauer(cfg)
    assert report.dims == {
        "s": 0, "p": 800, "q": 400, "r": 400 - cuts + chords, "kernel": count, "h2nr": count,
    }
    assert len(report.generators) == count
    for g in report.generators:
        assert mul(report.m_pr, g.vector).is_zero


# --- JSON report ------------------------------------------------------------------


def report_json(r: brauer.BrauerReport) -> str:
    """What ``compute --json`` writes for ``r``, without the final newline, joined."""
    parts: list[str] = []
    cli._write_json(r, parts.append)
    return "".join(parts)


def reference_report_json(r: brauer.BrauerReport) -> str:
    """The whole document through ``json.dumps(indent=2)``, cell by cell."""
    doc = {
        "dims": r.dims,
        "p_labels": list(r.p_labels),
        "q_labels": list(r.q_labels),
        "r_labels": list(r.r_labels),
        "m_pr": to_lists(r.m_pr),
        "m_qp": to_lists(r.m_qp),
        "m_sp": to_lists(r.m_sp),
        "generators": [
            {
                "vector": bits(g.vector),
                "ramification": {cid: sorted(cls.symbols) for cid, cls in g.ramification},
            }
            for g in r.generators
        ],
        "assertions": dict(r.assertions),
    }
    return json.dumps(doc, indent=2)


def reference_report_text(r: brauer.BrauerReport, symbol_index) -> str:
    """The text report joined into one string, each row from its bit string."""
    lines = ["dims:"]
    lines += [f"  {key}: {r.dims[key]}" for key in ("s", "p", "q", "r")]
    lines.append(f"kernel_dim: {r.kernel_dim}")
    lines.append(f"h2nr_dim: {r.h2nr_dim}")
    lines.append(f"p_basis: {', '.join(r.p_labels) or '(empty)'}")
    lines.append(f"q_basis: {', '.join(r.q_labels) or '(empty)'}")
    lines.append(f"r_basis: {', '.join(r.r_labels) or '(empty)'}")
    if r.s_labels:
        lines.append(f"s_generators: {', '.join(r.s_labels)}")
    for title, m, labels, note in (
        ("m_pr (rows R, cols P):", r.m_pr, r.r_labels, "no constraints"),
        ("m_qp (rows P, cols Q):", r.m_qp, r.p_labels, "no relations"),
    ):
        lines.append(title)
        if m.rows == 0 or m.cols == 0:
            lines.append(f"  ({m.rows}x{m.cols}, {note})")
            continue
        width = max(len(lbl) for lbl in labels)
        for lbl, mask in zip(labels, m.row_masks):
            lines.append(f"  {lbl.ljust(width)}  [{' '.join(bit_string(mask, m.cols))}]")
    if not r.generators:
        lines.append("generators: (none)")
    for i, g in enumerate(r.generators, start=1):
        lines.append(f"generator g{i}: {g.vector}")
        for cid, cls in g.ramification:
            lines.append(f"  ramified at {cid}: {cls.render(symbol_index)}")
    lines.append("assertions: " + ", ".join(f"{k}={v}" for k, v in r.assertions))
    return "\n".join(lines) + "\n"


def test_report_json_matches_json_dumps():
    reports = [unramified_brauer(dsl.builtin(name)) for name in dsl.BUILTIN_NAMES]
    reports += [unramified_brauer(cfg) for cfg in sampling.random_corpus(3, 200)]
    reports.append(unramified_brauer(ring(random.Random(7), 400, 12, 20)[0]))
    base = reports[0]
    odd = F2Vector(0, 0), F2Vector(3, 0b101)
    reports += [
        base._replace(m_pr=F2Matrix(0, 5), m_qp=F2Matrix(4, 0, (0,) * 4), m_sp=F2Matrix(0, 0)),
        base._replace(generators=()),
        base._replace(generators=tuple(brauer.Generator(v, ()) for v in odd)),
        base._replace(p_labels=('quote " here', "back\\slash", "new\nline", "ümlaut ☃"), assertions=()),
        base._replace(
            p_labels=("astral \U0001d49e", "control \x01", "DEL \x7f"),
            q_labels=("q\U0001f600\x1b\x7f",),
            r_labels=("r\x7f", "r\U0001d49e\x1f"),
            generators=(
                brauer.Generator(
                    F2Vector(3, 0b11),
                    (("c\U0001d49e", ResidueClass.of("a")), ("c\x01\x7f", ResidueClass.of("b\x7f", "\U0001d49e\x02"))),
                ),
            ),
        ),
    ]
    for r in reports:
        assert report_json(r) == reference_report_json(r)
    assert {len(r.generators) > 1 for r in reports} == {True, False}


# Each kind of character ``json.dumps`` writes differently is drawn often:
# the short escapes, other control characters, DEL, non-ASCII, astral
# characters and lone surrogates, beside arbitrary code points.
json_chars = st.one_of(
    st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f\x80\u2603\U0001d49e'),
    st.characters(categories=["Cs"]),
    st.characters(),
)
json_texts = st.text(json_chars)
json_values = st.one_of(
    json_texts,
    st.integers(),
    st.lists(json_texts),
    st.dictionaries(json_texts, st.one_of(st.integers(), json_texts)),
)


@given(value=json_values, level=st.integers(0, 4))
def test_json_at_matches_json_dumps(value, level):
    assert cli._json_at(value, level) == json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


def test_report_text_matches_the_joined_rendering():
    cfgs = [dsl.builtin(name) for name in dsl.BUILTIN_NAMES]
    cfgs += sampling.random_corpus(3, 200)
    cfgs.append(ring(random.Random(7), 400, 12, 20)[0])
    reports = [(unramified_brauer(cfg), cfg.symbol_index) for cfg in cfgs]
    base, index = reports[0]
    reports += [
        (base._replace(m_pr=F2Matrix(0, 5), m_qp=F2Matrix(4, 0, (0,) * 4)), index),
        (base._replace(generators=()), index),
        (base._replace(generators=(brauer.Generator(F2Vector(0, 0), ()),) + base.generators), index),
        (base._replace(s_labels=("s1",), r_labels=("ümlaut ☃", "a", "bb"), assertions=()), index),
    ]
    for r, symbol_index in reports:
        written = []
        cli._write_report(r, symbol_index, written.append)
        assert "".join(written) == reference_report_text(r, symbol_index)
    assert {len(r.generators) > 1 for r, _ in reports} == {True, False}
