"""Toric verification of the uv = xyz singularity resolution.

Pointed rational cones in Z^4, their duals by brute-force inequality
enumeration, smoothness certificates, and star subdivisions.  Everything
is exact integer arithmetic.  Ranks and determinants come from one
fraction-free (Bareiss) elimination.  The Smith normal form is kept
where its transforms or invariant factors are read: the lattice basis of
a dual's lineality space, the unimodular completion of a
lower-dimensional face, and the invariant factors that say why a cone is
not smooth.  Where only the verdict is read, as for singular faces, it
is the gcd of the ray matrix's maximal minors.  Faces and
star-subdivision cones are built without re-proving what their parent
cones already proved.  Scope is ambient rank 4, which covers the one
cone this package cares about — ``uv_xyz_cone()`` — and all of its
transforms; a fan script refuses a ``cone`` line of more than 8 rays.

``resolve_demo`` runs the whole story: find the three singular faces,
derive candidate blow-up rays from their ray sums, and star-subdivide at
them in sorted order, certifying that the final fan is smooth.
Each step's support is checked on points ``sum t_i r_i`` of the cone
with seeded draws ``t_i``, read off the draws without building a point.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import namedtuple
from functools import lru_cache
from math import gcd

__all__ = [
    "DIM",
    "FanParseError",
    "FanScriptError",
    "Cone",
    "Fan",
    "SmoothnessCertificate",
    "SmoothnessReport",
    "SubdivisionStep",
    "ResolutionReport",
    "FanScript",
    "faces",
    "singular_faces",
    "is_smooth",
    "star_subdivide",
    "support_contains",
    "uv_xyz_cone",
    "resolve_demo",
    "parse_fan_script",
]

DIM = 4
_RAY_CAP = 8
# Cone lines a fan script may hold.  The fan condition is checked on every
# pair of its cones; 16, the complete fan of (P^1)^4, makes 120 pairs.
_CONE_CAP = 16

Vec = tuple[int, ...]


class FanParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class FanScriptError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# integer-vector utilities


def _as_vec(v) -> Vec:
    t = tuple(v)
    if len(t) != DIM or not all(isinstance(x, int) for x in t):
        raise ValueError(f"lattice vectors have {DIM} integer coordinates, got {v!r}")
    return t


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _neg(v) -> Vec:
    return tuple(-x for x in v)


def _sum(vectors) -> Vec:
    """The sum of ``vectors``; the zero vector for none."""
    return tuple(map(sum, zip((0,) * DIM, *vectors)))


def _gcd_all(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def _primitive(v) -> Vec:
    g = _gcd_all(v)
    if g == 0:
        raise ValueError("the zero vector has no primitive representative")
    return tuple(x // g for x in v)


def _is_primitive(v) -> bool:
    return _gcd_all(v) == 1


def _bareiss(rows) -> tuple[int, int]:
    """Rank of an integer matrix and, if it is square, its determinant.

    Fraction-free (Bareiss) elimination: when row ``r`` pivots on column
    ``c``, every later row becomes ``(row * p - row[c] * m[r]) // prev``,
    where ``p = m[r][c]`` and ``prev`` is the pivot before it (1 at the
    start).  By Sylvester's identity each entry is then a minor of the
    row-permuted input, so every division is exact.  Returns
    ``(rank, d)``, where ``d`` is the last pivot signed by the row swaps:
    the determinant of a square matrix of full rank.
    """
    m = [list(r) for r in rows]
    n = len(m)
    rank, prev, sign = 0, 1, 1
    for c in range(len(m[0]) if m else 0):
        for i in range(rank, n):
            if m[i][c]:
                break
        else:
            continue
        if i != rank:
            m[rank], m[i] = m[i], m[rank]
            sign = -sign
        top = m[rank]
        p = top[c]
        for i in range(rank + 1, n):
            row = m[i]
            a = row[c]
            m[i] = [(x * p - a * y) // prev for x, y in zip(row, top)]
        prev = p
        rank += 1
    return rank, sign * prev


def _det(m) -> int:
    """Determinant of a square integer matrix (1 for the empty one)."""
    rank, d = _bareiss(m)
    return d if rank == len(m) else 0


def _rank(vectors) -> int:
    """Rank over Q."""
    return _bareiss(vectors)[0]


def _pair_minors(b, c) -> Vec:
    """The six 2x2 minors of the rows ``b``, ``c``, columns (0,1), (0,2),
    (0,3), (1,2), (1,3), (2,3)."""
    b0, b1, b2, b3 = b
    c0, c1, c2, c3 = c
    return (
        b0 * c1 - b1 * c0,
        b0 * c2 - b2 * c0,
        b0 * c3 - b3 * c0,
        b1 * c2 - b2 * c1,
        b1 * c3 - b3 * c1,
        b2 * c3 - b3 * c2,
    )


def _cofactor_normal(rows: tuple[Vec, ...]) -> Vec | None:
    """Vector orthogonal to DIM-1 given vectors, by cofactors.

    Entry ``j`` is ``(-1)**j`` times the 3x3 minor without column ``j``,
    expanded along the first row over the 2x2 minors of the other two.
    Returns None when the input has rank below DIM-1 (no unique normal).
    """
    a0, a1, a2, a3 = rows[0]
    p01, p02, p03, p12, p13, p23 = _pair_minors(rows[1], rows[2])
    n = (
        a1 * p23 - a2 * p13 + a3 * p12,
        a2 * p03 - a0 * p23 - a3 * p02,
        a0 * p13 - a1 * p03 + a3 * p01,
        a1 * p02 - a0 * p12 - a2 * p01,
    )
    if not any(n):
        return None
    return n


def _minor_gcd(rays) -> int:
    """The gcd of the k x k minors of the k x DIM ray matrix, k = len(rays).

    It is the product of the Smith invariant factors when the rays are
    independent and 0 otherwise, so the rays span a smooth cone exactly
    when it is 1.  No Smith form is computed: one ray's minors are its
    entries, two rays' are their 2x2 minors, three rays' are the entries
    of their cofactor normal, and DIM rays' is the determinant.
    """
    k = len(rays)
    if k == 0:
        return 1  # the empty minor
    if k == 1:
        return _gcd_all(rays[0])
    if k == 2:
        return _gcd_all(_pair_minors(*rays))
    if k == DIM - 1:
        return _gcd_all(_cofactor_normal(rays) or ())
    if k == DIM:
        return abs(_det(rays))
    return 0  # more rays than dimensions: there is no k x k minor


def _smith_normal_form(rows: list[Vec]) -> tuple[list[int], list[list[int]]]:
    """Invariant factors and the column-operation matrix V (U*M*V diagonal).

    Only V is kept: V^-1 is unique, so the certificate, the one reader of
    its rows, computes them from V by cofactors."""
    m = [list(r) for r in rows]
    k = len(m)
    v = [[int(i == j) for j in range(DIM)] for i in range(DIM)]

    def col_swap(a, b):
        for row in m + v:
            row[a], row[b] = row[b], row[a]

    def col_add(src, dst, q):
        for row in m + v:
            row[dst] += q * row[src]

    t = 0
    while t < min(k, DIM):
        entries = [(abs(m[i][j]), i, j) for i in range(t, k) for j in range(t, DIM) if m[i][j]]
        if not entries:
            break
        _, i, j = min(entries)
        m[t], m[i] = m[i], m[t]
        col_swap(t, j)
        while True:
            p = m[t][t]
            for i in range(k):
                if i != t and m[i][t]:
                    q = m[i][t] // p
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
            for j in range(DIM):
                if j != t and m[t][j]:
                    col_add(t, j, -(m[t][j] // p))
            # every entry left beside the pivot is a remainder, smaller than
            # the pivot, so the smallest of them becomes the next pivot
            rest = [(abs(m[i][t]), 0, i) for i in range(k) if i != t and m[i][t]]
            rest += [(abs(m[t][j]), 1, j) for j in range(DIM) if j != t and m[t][j]]
            if not rest:
                break
            _, in_row_t, i = min(rest)
            if in_row_t:
                col_swap(t, i)
            else:
                m[t], m[i] = m[i], m[t]
        offender = next((i for i in range(t + 1, k) if any(m[i][j] % m[t][t] for j in range(t + 1, DIM))), None)
        if offender is not None:
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
            continue
        if m[t][t] < 0:
            col_add(t, t, -2)  # negates column t
        t += 1
    return [m[i][i] for i in range(t)], v


def _nullspace(vectors) -> list[Vec]:
    """Saturated lattice basis of {x in Z^4 : <x, v> = 0 for all v}."""
    diag, v = _smith_normal_form(list(vectors))
    kernel = []
    for j in range(len(diag), DIM):
        col = tuple(v[i][j] for i in range(DIM))
        kernel.append(_primitive(col))
    return sorted(kernel)


# ---------------------------------------------------------------------------
# dual cones


def _facet_normals(vectors: list[Vec]) -> list[Vec]:
    """Extremal rays of the dual of a full-dimensional cone in Z^4.

    Every facet of cone(vectors) is spanned by generators lying in it, so
    candidate normals come from (DIM-1)-subsets; sign feasibility keeps
    the supporting ones.
    """
    normals: set[Vec] = set()
    for subset in itertools.combinations(vectors, DIM - 1):
        n = _cofactor_normal(subset)
        if n is None:
            continue
        # n is nonzero and the vectors span, so at most one sign supports
        if all(_dot(n, v) >= 0 for v in vectors):
            normals.add(_primitive(n))
        elif all(_dot(n, v) <= 0 for v in vectors):
            normals.add(_primitive(_neg(n)))
    return sorted(normals)


# Duals ``_dual_rays`` keeps: a toric-demo op reads about 13 and a check of the
# 16-cone orthant fan 56, and a long-lived process must not grow without bound.
_DUAL_CACHE = 256


@lru_cache(maxsize=_DUAL_CACHE)
def _dual_rays(vectors: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """Minimal generating set of {m : <m, v> >= 0 for all v}.

    Accepts an arbitrary vector list (the cone it generates need not be
    pointed).  When the input does not span, the dual has the lineality
    space L = span(vectors)^perp, and the result contains +/- a lattice
    basis of L.  Adding those to the input spans Q^4 without changing the
    dual, so the dual's pointed generators are the facet normals of the
    enlarged set.
    """
    # a spanning input has no lineality space: no Smith form is needed
    lineal = [] if _rank(vectors) == DIM else _nullspace(vectors)
    lines = lineal + [_neg(b) for b in lineal]
    return tuple(sorted(_facet_normals(list(vectors) + lines) + lines))


# ---------------------------------------------------------------------------
# cones and fans


class Cone(namedtuple("Cone", "rays", defaults=((),))):
    """A strongly convex rational cone given by its primitive rays.

    Rays are stored canonically sorted, so structural equality is
    equality of ray sets.  Construction validates primitivity, pairwise
    non-proportionality, and pointedness.

    Fields:
        rays: tuple[Vec, ...]
    """

    __slots__ = ()

    def __new__(cls, rays: tuple[Vec, ...] = ()) -> Cone:
        rays = tuple(sorted(_as_vec(r) for r in rays))
        for r in rays:
            if not any(r):
                raise ValueError("zero vector cannot be a ray")
            if not _is_primitive(r):
                raise ValueError(f"ray {r} is not primitive")
        for a, b in itertools.combinations(rays, 2):
            if a == b or a == _neg(b):
                raise ValueError(f"rays {a} and {b} are proportional")
        # pointedness: the dual is full-dimensional exactly for pointed cones
        if rays and _rank(_dual_rays(rays)) != DIM:
            raise ValueError("cone contains a line (not strongly convex)")
        return tuple.__new__(cls, (rays,))

    @classmethod
    def _from_proven(cls, rays) -> "Cone":
        """A cone whose rays are already known to pass every check above.

        Only ``faces`` and ``star_subdivide`` build cones this way; each
        says there why its rays need no second proof.
        """
        return tuple.__new__(cls, (tuple(sorted(rays)),))

    @property
    def dim(self) -> int:
        return _rank(self.rays)

    def contains(self, x) -> bool:
        point = _as_vec(x)
        return all(_dot(m, point) >= 0 for m in _dual_rays(self.rays))


class Fan(namedtuple("Fan", "maximal_cones", defaults=((),))):
    """A collection of maximal cones; order is presentation only.

    Fields:
        maximal_cones: tuple[Cone, ...]
    """

    __slots__ = ()

    def __new__(cls, maximal_cones: tuple[Cone, ...] = ()) -> Fan:
        return tuple.__new__(cls, (tuple(maximal_cones),))


def _face_masks(rays: tuple[Vec, ...]) -> set[int]:
    """Every face of the pointed cone over ``rays``, as a mask with bit ``i`` for ``rays[i]``.

    A face is spanned by the rays it holds and is an intersection of the
    faces the dual generators cut out, so the generators' zero masks, closed
    under AND from the whole cone down, are the faces.
    """
    cuts = {sum(1 << i for i, r in enumerate(rays) if not _dot(m, r)) for m in _dual_rays(tuple(sorted(rays)))}
    known = {(1 << len(rays)) - 1}
    frontier = list(known)
    while frontier:
        f = frontier.pop()
        new = {f & cut for cut in cuts} - known
        known |= new
        frontier += new
    return known


def faces(c: Cone) -> list[Cone]:
    """All faces of ``c`` (including itself and the zero face)."""
    subsets = [tuple(r for i, r in enumerate(c.rays) if mask >> i & 1) for mask in _face_masks(c.rays)]
    # a subset of a pointed cone's primitive, pairwise non-proportional
    # rays spans a pointed cone with the same properties
    return [Cone._from_proven(rs) for rs in sorted(subsets, key=lambda rs: (len(rs), rs))]


def singular_faces(c: Cone) -> list[Cone]:
    """Proper faces of ``c`` that fail the smoothness test.

    Only the verdict is read, so it comes from ``_minor_gcd``: the same
    answer as ``is_smooth(f).smooth``, with no certificate built.
    """
    return [f for f in faces(c) if len(f.rays) < len(c.rays) and _minor_gcd(f.rays) != 1]


class SmoothnessCertificate(
    namedtuple("SmoothnessCertificate", "cone smooth reason matrix determinant", defaults=(None, None))
):
    """Self-verifying witness: for a smooth cone, ``matrix`` stacks the
    rays with integral completion rows and has determinant +/-1.

    Fields:
        cone: Cone
        smooth: bool
        reason: str
        matrix: tuple[Vec, ...] | None
        determinant: int | None
    """

    __slots__ = ()


class SmoothnessReport(namedtuple("SmoothnessReport", "smooth certificates")):
    """What ``is_smooth`` returns; true exactly when every cone is smooth.

    Fields:
        smooth: bool
        certificates: tuple[SmoothnessCertificate, ...]
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.smooth


def _cone_certificate(c: Cone) -> SmoothnessCertificate:
    k = len(c.rays)
    if k == DIM:
        # a full-dimensional cone is smooth exactly when its rays are a
        # lattice basis; the Smith path would return the same certificate
        det = _det(c.rays)
        if abs(det) == 1:
            return SmoothnessCertificate(c, True, "unimodular", c.rays, det)
    diag, v = _smith_normal_form(list(c.rays))
    if len(diag) != k:
        return SmoothnessCertificate(c, False, "not simplicial")
    if any(d != 1 for d in diag):
        return SmoothnessCertificate(c, False, f"invariant factors {tuple(diag)}")
    # the completion is rows k..DIM-1 of V^-1.  Row i is orthogonal to every
    # column of V but column i and meets it in 1; since |det V| = 1, it is
    # the cofactor normal of the other three columns, signed
    cols = list(zip(*v))
    completion = []
    for i in range(k, DIM):
        n = _cofactor_normal(tuple(cols[:i] + cols[i + 1 :]))
        completion.append(n if _dot(n, cols[i]) == 1 else _neg(n))
    matrix = tuple(list(c.rays) + completion)
    det = _det(matrix)
    if abs(det) != 1:
        raise AssertionError("smooth certificate completion failed")
    return SmoothnessCertificate(c, True, "unimodular", matrix, det)


def is_smooth(obj: "Cone | Fan") -> SmoothnessReport:
    """Smoothness of a cone, or of every maximal cone of a fan.

    A cone is smooth iff it is simplicial and the Smith normal form of
    its ray matrix has all invariant factors equal to 1; the certificate
    records a unimodular completion of the ray matrix as a witness.  A
    full-dimensional cone whose rays have determinant +/-1 is its own
    witness, with an empty completion, so no Smith form is computed.
    """
    cones = obj.maximal_cones if isinstance(obj, Fan) else (obj,)
    certs = tuple(_cone_certificate(c) for c in cones)
    return SmoothnessReport(all(ct.smooth for ct in certs), certs)


def support_contains(f: Fan, x) -> bool:
    point = _as_vec(x)
    return any(c.contains(point) for c in f.maximal_cones)


def star_subdivide(f: Fan, rho) -> Fan:
    """Star subdivision of a fan at a primitive ray in its support.

    Cones not containing ``rho`` survive; a cone containing it is
    replaced by cone(facet, rho) for each of its facets whose supporting
    hyperplane separates strictly from ``rho``.  Support is preserved.
    """
    ray = _as_vec(rho)
    if not any(ray):
        raise ValueError("subdivision ray must be nonzero")
    if not _is_primitive(ray):
        raise ValueError(f"subdivision ray {ray} is not primitive")
    inside = [c.contains(ray) for c in f.maximal_cones]
    if not any(inside):
        raise ValueError(f"subdivision ray {ray} lies outside the support of the fan")
    new_cones: list[Cone] = []
    for c, holds in zip(f.maximal_cones, inside):
        if not holds:
            new_cones.append(c)
            continue
        for m in _dual_rays(c.rays):
            if _dot(m, ray) <= 0:
                continue
            # cone(facet, ray) is pointed, since m is 0 on the facet and
            # positive on ray, and ray is primitive and not +/- a facet ray
            facet = tuple(r for r in c.rays if _dot(m, r) == 0)
            new_cones.append(Cone._from_proven(facet + (ray,)))
    return Fan(tuple(dict.fromkeys(new_cones)))


def _meet_is_a_face(a: Cone, b: Cone) -> bool:
    """Whether ``a ∩ b`` is a face of both cones, without building the meet.

    Every generator of the dual of ``a``'s rays and ``b``'s negated rays is
    >= 0 on ``a`` and <= 0 on ``b``, so 0 on ``a ∩ b``; their sum ``m`` is in
    the relative interior of that dual.  By the separation lemma (Cox, Little
    and Schenck, *Toric Varieties*, 1.2.13) ``a ∩ b`` is a face of both iff
    ``a ∩ m^⊥ = a ∩ b = b ∩ m^⊥``.  Each side holds ``a ∩ b``, and the face
    ``a ∩ m^⊥`` is the cone over the rays of ``a`` where ``m`` is 0, so it
    lies in ``a ∩ b`` iff those rays lie in ``b``; the same for ``b``.
    """
    m = _sum(_dual_rays(tuple(sorted(a.rays + tuple(_neg(r) for r in b.rays)))))
    return all(b.contains(r) for r in a.rays if not _dot(m, r)) and all(
        a.contains(r) for r in b.rays if not _dot(m, r)
    )


def _first_overlap(cones: list[Cone]) -> tuple[int, int] | None:
    """Indices ``(i, j)``, ``i < j``, of the first pair of cones whose meet is
    not a face of both, scanning each cone against the ones before it."""
    for j, b in enumerate(cones):
        for i in range(j):
            if not _meet_is_a_face(cones[i], b):
                return i, j
    return None


# ---------------------------------------------------------------------------
# the uv = xyz resolution demo


def uv_xyz_cone() -> Cone:
    """The cone whose affine toric variety is the hypersurface uv = xyz."""
    return Cone(
        (
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (1, 0, 1, 0),
            (0, 1, 1, 0),
            (1, 0, 0, 1),
            (0, 1, 0, 1),
        )
    )


class SubdivisionStep(namedtuple("SubdivisionStep", "ray fan support_ok")):
    """One star subdivision: the ray added, the fan it gives, and its support verdict.

    Fields:
        ray: Vec
        fan: Fan
        support_ok: bool
    """

    __slots__ = ()


class ResolutionReport(namedtuple("ResolutionReport", "cone singular candidates steps smoothness samples")):
    """What ``resolve_demo`` returns.

    Fields:
        cone: Cone
        singular: tuple[Cone, ...]
        candidates: tuple[Vec, ...]
        steps: tuple[SubdivisionStep, ...]
        smoothness: SmoothnessReport
        samples: int
    """

    __slots__ = ()


_SUPPORT_SAMPLES = 1000
_SAMPLE_SEED = 48112


# randint(0, 4) is _randbelow(5): getrandbits(3), drawn again while it is
# 5 or more.  getrandbits(3) is the top 3 bits of one 32-bit output, the top
# byte shifted right by 5, and the top bits are 5..7 exactly for bytes 160..255.
_TOP3 = bytes(b >> 5 for b in range(256))
_REDRAWN = bytes(range(160, 256))


def _draws(rng: random.Random, n: int) -> bytes:
    """The next ``n`` values of ``rng.randint(0, 4)``, one per byte.

    ``getrandbits(32 * m)`` packs ``m`` outputs, the first in the lowest
    word, so the top byte of each little-endian word is ``[3::4]``.  Five
    of eight outputs are kept on average, so a batch of ``2 * n`` outputs
    nearly always suffices.
    """
    out = b""
    while len(out) < n:
        words = 2 * (n - len(out)) + 8
        batch = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        out += batch[3::4].translate(_TOP3, _REDRAWN)
    return out[:n]


def _support_verdicts(cone: Cone, fans: list[Fan], count: int, seed: int) -> list[bool]:
    """For each fan, whether ``count`` sampled points of ``cone`` lie in its support.

    Point ``p`` is ``sum_i t_i * r_i``, each ``t_i`` the next ``randint(0, 4)``
    of ``random.Random(seed)``.  Ray ``i``'s ``t_i`` are one int ``T_i`` with a
    lane per point, so ``sum_i <m, r_i> * T_i`` holds every ``<m, p>``.  A
    lane is whole bytes, room for ``4 * sum_i |<m, r_i>|`` and a sign; plus
    ``2**(width-1)`` per lane, its top bit is set exactly where ``<m, p> >= 0``.
    That is one mask per distinct facet normal ``m``; a cone's points are the
    AND of its normals' masks, and a fan covers them when the OR of its
    cones' masks has every lane's bit.  A lane that overflows its width is
    a bug in that bound: it raises ``AssertionError``, under ``python -O`` too.
    """
    k = len(cone.rays)
    coeffs = _draws(random.Random(seed), count * k)
    normals = {m for f in fans for c in f.maximal_cones for m in _dual_rays(c.rays)}
    weights = {m: [_dot(m, r) for r in cone.rays] for m in normals}
    bound = max((4 * sum(map(abs, w)) for w in weights.values()), default=0)
    lane = bound.bit_length() // 8 + 1
    width = 8 * lane
    planes = []
    for i in range(k):
        spread = bytearray(lane * count)
        spread[::lane] = coeffs[i::k]
        planes.append(int.from_bytes(spread, "little"))
    top = 1 << (width * count)
    ones = (top - 1) // ((1 << width) - 1)
    half = ones << (width - 1)
    masks = {}
    for m, w in weights.items():
        biased = sum(a * t for a, t in zip(w, planes)) + half
        if not 0 <= biased < top:
            raise AssertionError("a lane of <m, p> overflowed its width")
        masks[m] = (biased >> (width - 1)) & ones
    verdicts = []
    for f in fans:
        covered = 0
        for c in f.maximal_cones:
            inside = ones
            for m in _dual_rays(c.rays):
                inside &= masks[m]
            covered |= inside
        verdicts.append(covered == ones)
    return verdicts


def resolve_demo() -> ResolutionReport:
    """Resolve the uv = xyz cone by three star subdivisions.

    Candidate rays are the primitive halved ray-sums of the three
    singular faces.  The cone is subdivided at them in sorted order, and
    the result is reported with per-step support verification on sampled
    points.  Every order gives a smooth fan, so a final fan that is not
    smooth is a bug, not an outcome to report: it raises ``AssertionError``.
    """
    sigma = uv_xyz_cone()
    singular = tuple(singular_faces(sigma))
    candidates = tuple(sorted(_primitive(_sum(f.rays)) for f in singular))
    fans = list(itertools.accumulate(candidates, star_subdivide, initial=Fan((sigma,))))[1:]
    report = is_smooth(fans[-1])
    if not report.smooth:
        raise AssertionError("the candidate subdivisions do not give a smooth fan")
    verdicts = _support_verdicts(sigma, fans, _SUPPORT_SAMPLES, _SAMPLE_SEED)
    return ResolutionReport(
        cone=sigma,
        singular=singular,
        candidates=candidates,
        steps=tuple(map(SubdivisionStep, candidates, fans, verdicts)),
        smoothness=report,
        samples=_SUPPORT_SAMPLES,
    )


# ---------------------------------------------------------------------------
# fan script format: `ray a b c d`, `cone i j ...`, `subdivide a b c d`


class FanScript(namedtuple("FanScript", "fan subdivisions")):
    """A parsed fan script: its fan and its ``subdivide`` lines.

    Fields:
        fan: Fan
        subdivisions: tuple[tuple[int, Vec], ...], each (source line, ray)
    """

    __slots__ = ()


_TOKEN = re.compile(r"\S+")
# ``int`` would also read ``1_0`` and non-ASCII digits such as a fullwidth ``１``
_INTEGER = re.compile(r"[-+]?[0-9]+")


def _integers(spans: list[tuple[str, int]], expected: int | None, lineno: int) -> list[int]:
    """The integer arguments after a line's keyword, ``expected`` of them unless None.

    ``spans`` holds the line's tokens with their 1-based columns.
    """
    (keyword, key_col), *args = spans
    if expected is not None and len(args) != expected:
        raise FanParseError(f"{keyword} expects {expected} integers, got {len(args)}", lineno, key_col)
    out = []
    for tok, col in args:
        try:
            if not _INTEGER.fullmatch(tok):
                raise ValueError(tok)
            out.append(int(tok))  # raises past the interpreter's limit on digits
        except ValueError:
            raise FanParseError(f"expected an integer, got {tok!r}", lineno, col) from None
    return out


def parse_fan_script(text: str) -> FanScript:
    """Parse the fan text format.

    Raises:
        FanParseError: malformed syntax, with 1-based line/column.
        FanScriptError: structurally valid text with bad semantics
            (unknown ray index, a cone past the ray cap, a cone line past
            the cone cap, invalid cone, a cone listing a ray that is not
            extremal, empty fan, cones that meet outside a common face).
    """
    rays: list[Vec] = []
    cones: list[tuple[int, Cone]] = []  # (source line, cone)
    subdivisions: list[tuple[int, Vec]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        spans = [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]
        keyword, key_col = spans[0]
        if keyword == "ray":
            rays.append(tuple(_integers(spans, DIM, lineno)))
        elif keyword == "cone":
            idx = _integers(spans, None, lineno)
            if not idx:
                raise FanParseError("cone needs at least one ray index", lineno, key_col)
            if len(idx) > _RAY_CAP:
                raise FanScriptError(f"cone lists {len(idx)} rays; the cap is {_RAY_CAP}", lineno)
            if len(cones) == _CONE_CAP:
                raise FanScriptError(f"script lists more than {_CONE_CAP} cones; the cap is {_CONE_CAP}", lineno)
            picked = []
            for i in idx:
                if not 0 <= i < len(rays):
                    raise FanScriptError(f"ray index {i} is out of range", lineno)
                picked.append(rays[i])
            try:
                cones.append((lineno, Cone(tuple(picked))))
            except ValueError as exc:
                raise FanScriptError(str(exc), lineno) from None
            # certificates read the listed rays, so each must be a one-ray face
            masks = _face_masks(tuple(picked))
            for i, r in enumerate(picked):
                if 1 << i not in masks:
                    raise FanScriptError(f"ray {r} is not an extremal ray of the cone", lineno)
        elif keyword == "subdivide":
            subdivisions.append((lineno, tuple(_integers(spans, DIM, lineno))))
        else:
            raise FanParseError(f"unknown keyword {keyword!r}", lineno, key_col)
    if not cones:
        raise FanScriptError("fan has no cones", len(text.splitlines()) or 1)
    overlap = _first_overlap([c for _, c in cones])
    if overlap is not None:
        (line_a, _), (line_b, _) = (cones[k] for k in overlap)
        raise FanScriptError(f"cone meets the cone of line {line_a} outside a common face; not a fan", line_b)
    return FanScript(Fan(tuple(c for _, c in cones)), tuple(subdivisions))
