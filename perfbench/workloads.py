"""Seeded inputs for the four benchmark workloads, with their oracle expectations.

``build(name, seed)`` returns a ``Workload``: the input files as text, the
CLI argument lists that make up one pass (one op per entry), and for each op
what the oracle expects.  The same seed gives the same bytes.  Expectations
are computed here, at set-up, by means that do not go through the
linear-algebra path under test: brute-force enumeration on small blocks,
union-find on the point graph, and a GL(4, Z) invariance argument for the
toric fan.

The configurations are drawn with the package's own sampler and written out
with its canonical emitter; the benchmark reports a digest of the input bytes
so that a change to either shows up as changed inputs, not as a speed-up.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

from isbbrauer import brauer, dsl, model, sampling
from isbbrauer.model import (
    Configuration,
    CoverKind,
    Curve,
    Extension,
    PointType,
    ResidueClass,
    SingularPoint,
)

NAMES = ("gen-heavy", "constraint-heavy", "small-corpus", "toric-demo")


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict[str, str]  # file name -> text, written into the input directory
    ops: tuple[tuple[str, ...], ...]  # one pass; "{dir}" stands for the input directory
    expect: tuple[dict, ...]  # oracle expectation per op

    def argv(self, directory: str) -> list[list[str]]:
        return [[a.replace("{dir}", directory) for a in op] for op in self.ops]

    def inputs_sha256(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        for op in self.ops:
            h.update("\0".join(op).encode() + b"\n")
        return h.hexdigest()


def build(name: str, seed: int) -> Workload:
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return _BUILDERS[name](seed)


# ---------------------------------------------------------------------------
# gen-heavy: block-diagonal unions of small random configurations

# Each input has exactly this dim P, and its sum of block kernel dims stays
# within GEN_BAND of GEN_KERNEL * (P so far) / GEN_P while blocks are added,
# so the generator count, which sets the cost of generator selection, barely
# moves from seed to seed.
GEN_P = 200
GEN_KERNEL = 150
GEN_BAND = 4

_IRREDUCIBLE_FEATURES = frozenset(
    [("curve", t, b) for t, b in (("I", "ramified"), ("II", "split"), ("II", "inert"),
                                  ("III", "ramified"), ("IV", "split"), ("IV", "inert"))]
    + [("point", t.value) for t in PointType]
)
_SPLIT_FEATURES = frozenset(
    [("curve", "II", "split"), ("curve", "IV", "split")]
    + [("point", t) for t in ("II_II", "IV_II", "IVp_IV", "IVpp_IV")]
)


def _features(cfg: Configuration) -> set:
    return {("curve", c.deg_type.value, c.cover_behavior.value) for c in cfg.curves} | {
        ("point", p.etype.value) for p in cfg.points
    }


def _s_vectors(cfg: Configuration) -> list[int]:
    """Masks in P of the vectors that span S once this block joins a union."""
    vp = model.vp_basis(cfg)
    if cfg.cover_kind is CoverKind.IRREDUCIBLE:
        return [(1 << len(vp)) - 1]
    return [sum(1 << j for j, e in enumerate(vp) if e.sheet == s) for s in (1, 2)]


def _fits_union(cfg: Configuration) -> bool:
    """Whether the block's part of the union's S vectors maps to zero in R.

    A block checks GC3 only for its own S, which can be smaller than the
    union's; without this filter the union would fail validation.
    """
    rows = brauer.matrix_p_to_r(cfg).row_masks
    return all((r & v).bit_count() % 2 == 0 for v in _s_vectors(cfg) for r in rows)


def _relabel(cfg: Configuration, k: int) -> Configuration:
    pre = f"k{k}_"
    sym = {s: f"k{k}{s}" for s in cfg.symbols}

    def cls(r: ResidueClass | None) -> ResidueClass | None:
        return None if r is None else ResidueClass(frozenset(sym[s] for s in r.symbols))

    curves = tuple(
        Curve(
            pre + c.id,
            c.deg_type,
            c.cover_behavior,
            tuple(Extension(pre + e.id, cls(e.residue), e.sheet) for e in c.extensions),
            None if c.marking is None else pre + c.marking,
            cls(c.cores_residue_input),
        )
        for c in cfg.curves
    )
    points = tuple(
        SingularPoint(
            pre + p.id,
            tuple(pre + cid for cid in p.incident),
            p.etype,
            frozenset(pre + e for e in p.meets_marked),
        )
        for p in cfg.points
    )
    return Configuration(cfg.cover_kind, tuple(sym.values()), curves, points)


def _expected_s_dim(cfg: Configuration) -> int:
    """dim S from its definition, read off the residues alone."""
    if cfg.cover_kind is CoverKind.IRREDUCIBLE:
        return int(any(not model.cores_residue(cfg, c).is_zero for c in cfg.curves))
    zero = ResidueClass()
    sheets = [{e.sheet: e.residue for e in c.extensions} for c in cfg.curves]
    nonzero1 = any(not s.get(1, zero).is_zero for s in sheets)
    nonzero2 = any(not s.get(2, zero).is_zero for s in sheets)
    equal = all(s.get(1, zero) == s.get(2, zero) for s in sheets)
    return int(nonzero1) + int(nonzero2 and not (equal and nonzero1))


def _gen_union(rng: random.Random, kind: CoverKind) -> tuple[Configuration, int]:
    """A valid union of relabelled blocks with dim P = GEN_P and kernel near GEN_KERNEL.

    Returns the configuration and the sum of the blocks' brute-force kernel
    dims, which equals the union's kernel dim because every matrix of the
    union is block-diagonal.  Blocks are drawn first to cover every curve
    kind and point type the cover kind allows, then to fill the budget.
    """
    need = set(_IRREDUCIBLE_FEATURES if kind is CoverKind.IRREDUCIBLE else _SPLIT_FEATURES)
    blocks: list[Configuration] = []
    p_left, kernel = GEN_P, 0
    for _ in range(200_000):
        if p_left == 0:
            break
        cfg = sampling.random_configuration(rng, max_p=min(12, p_left))
        p = len(model.vp_basis(cfg))
        if cfg.cover_kind is not kind or p == 0:
            continue
        if need and not (_features(cfg) & need):
            continue
        k, _ = brauer.brute_force_unramified(cfg)
        on_track = GEN_KERNEL * (GEN_P - p_left + p) / GEN_P
        if abs(kernel + k - on_track) > GEN_BAND or not _fits_union(cfg):
            continue
        need -= _features(cfg)
        blocks.append(_relabel(cfg, len(blocks)))
        p_left -= p
        kernel += k
    if p_left or need:
        raise RuntimeError("gen-heavy: draw limit reached before the block budget was met")
    union = Configuration(
        kind,
        tuple(s for b in blocks for s in b.symbols),
        tuple(c for b in blocks for c in b.curves),
        tuple(p for b in blocks for p in b.points),
    )
    if model.validate(union).errors:
        raise RuntimeError("gen-heavy: union of blocks failed validation")
    return union, kernel


def _gen_heavy(seed: int) -> Workload:
    rng = random.Random(seed)
    files, ops, expect = {}, [], []
    for kind, fname in ((CoverKind.IRREDUCIBLE, "irreducible.cfg"),
                        (CoverKind.SPLIT_EVERYWHERE, "split.cfg")):
        union, kernel = _gen_union(rng, kind)
        files[fname] = dsl.emit(union)
        ops.append(("compute", "{dir}/" + fname))
        expect.append({"kernel_dim": kernel, "h2nr_dim": kernel - _expected_s_dim(union)})
    return Workload("gen-heavy", files, tuple(ops), tuple(expect))


# ---------------------------------------------------------------------------
# constraint-heavy: rings of split Type II curves with short chords

RING_CURVES = 400
RING_CHORDS = 100
# Chords join curves 2 to 9 steps apart along their ring.  Long chords would
# make the elimination's fill-in, and so the op's cost, vary from seed to seed.
CHORD_SPAN = (2, 9)


def _components(n: int, edges: list[tuple[int, int]]) -> int:
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


def _rings(rng: random.Random, rings: list[list[int]]) -> tuple[str, int]:
    """Config text for II_II points along the given rings plus short chords,
    and the number of connected components of its point graph."""
    n = sum(len(r) for r in rings)
    edges = [(ring[i], ring[(i + 1) % len(ring)]) for ring in rings for i in range(len(ring))]
    taken = {frozenset(e) for e in edges}
    while len(edges) < n + RING_CHORDS:
        ring = rng.choices(rings, weights=[len(r) for r in rings])[0]
        i = rng.randrange(len(ring))
        a, b = ring[i], ring[(i + rng.randint(*CHORD_SPAN)) % len(ring)]
        if a != b and frozenset((a, b)) not in taken:
            taken.add(frozenset((a, b)))
            edges.append((a, b))
    symbols = ("a", "b", "c", "d")
    lines = ["cover: irreducible", "symbols: " + " ".join(symbols)]
    for i in range(n):
        r = rng.choice(symbols)
        lines += ["", f"curve c{i:03d}:", "  type: II", "  cover: split",
                  f"  ext c{i:03d}a: {r}", f"  ext c{i:03d}b: {r}"]
    for j, (a, b) in enumerate(edges):
        lines += ["", f"point p{j:03d}:", f"  curves: c{a:03d}, c{b:03d}", "  etype: II_II"]
    return "\n".join(lines) + "\n", _components(n, edges)


def _constraint_heavy(seed: int) -> Workload:
    """Irreducible cover, every curve split with equal residues on both sheets.

    Then Q has one relation per curve, S = 0, and a vector of P lies in the
    kernel exactly when its per-curve sums agree along every II_II point, so
    kernel_dim = h2nr_dim = number of connected components of the point graph.
    One input is a single ring, the other two rings cut at a seeded place.
    """
    rng = random.Random(seed)
    n = RING_CURVES
    cut = rng.randrange(n // 4, 3 * n // 4)
    files, ops, expect = {}, [], []
    for fname, rings in (("ring.cfg", [list(range(n))]),
                         ("two-rings.cfg", [list(range(cut)), list(range(cut, n))])):
        text, c = _rings(rng, rings)
        files[fname] = text
        ops.append(("compute", "{dir}/" + fname))
        expect.append({"kernel_dim": c, "h2nr_dim": c})
    return Workload("constraint-heavy", files, tuple(ops), tuple(expect))


# ---------------------------------------------------------------------------
# small-corpus: many tiny configurations, checked against brute force

CORPUS_SIZE = 400


def _small_corpus(seed: int) -> Workload:
    files, ops, expect = {}, [], []
    for i, cfg in enumerate(sampling.random_corpus(seed, CORPUS_SIZE)):
        fname = f"c{i:03d}.cfg"
        files[fname] = dsl.emit(cfg)
        ops.append(("compute", "{dir}/" + fname) + (("--json",) if i % 2 else ()))
        k, h = brauer.brute_force_unramified(cfg)
        expect.append({"kernel_dim": k, "h2nr_dim": h})
    return Workload("small-corpus", files, tuple(ops), tuple(expect))


# ---------------------------------------------------------------------------
# toric-demo: the demo, and a seeded fan script resolving the same cone

_UV_XYZ_RAYS = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1))
# The halved ray sums of the cone's three singular faces.  Subdividing at all
# three, in any of the six orders, gives a smooth fan (checked once by
# enumeration); a unimodular change of basis keeps a fan smooth, so every
# seeded script below must certify smooth.
_RESOLVING_RAYS = ((1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1))


def _unimodular(rng: random.Random, steps: int = 6) -> list[list[int]]:
    """A product of elementary integer matrices: determinant 1, small entries."""
    m = [[int(i == j) for j in range(4)] for i in range(4)]
    for _ in range(steps):
        i, j = rng.sample(range(4), 2)
        s = rng.choice((-1, 1))
        m[i] = [x + s * y for x, y in zip(m[i], m[j])]
    return m


def _toric_demo(seed: int) -> Workload:
    rng = random.Random(seed)
    u = _unimodular(rng)
    order = rng.choice(list(itertools.permutations(_RESOLVING_RAYS)))

    def image(v):
        return " ".join(str(sum(u[i][k] * v[k] for k in range(4))) for i in range(4))

    lines = [f"ray {image(r)}" for r in _UV_XYZ_RAYS]
    lines.append("cone " + " ".join(str(i) for i in range(len(_UV_XYZ_RAYS))))
    lines += [f"subdivide {image(r)}" for r in order]
    return Workload(
        "toric-demo",
        {"fan.txt": "\n".join(lines) + "\n"},
        (("toric", "demo"), ("toric", "check", "{dir}/fan.txt")),
        ({"smooth": True}, {"smooth": True}),
    )


_BUILDERS = {
    "gen-heavy": _gen_heavy,
    "constraint-heavy": _constraint_heavy,
    "small-corpus": _small_corpus,
    "toric-demo": _toric_demo,
}
