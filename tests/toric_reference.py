"""Lattice-geometry reference helpers that the tests use as oracles.

``toric`` keeps only what ``toric demo`` and ``toric check`` run.  The
dual generators of a cone, its Hilbert basis, the meet of two cones, the
pairwise fan check and the point-by-point support test are read only by
the tests, so they live here.
Each builds its cones through the public ``Cone(...)``, which re-proves
every ray, never through ``Cone._from_proven``.
"""

import itertools

from isbbrauer.toric import DIM, Cone, Fan, Vec, _as_vec, _dot, _dual_rays, _first_overlap


def dual_generators(c: Cone) -> list[Vec]:
    """Primitive generators of the dual cone, canonically sorted.

    For a full-dimensional cone these are exactly the extremal rays of
    the dual; otherwise the dual's lineality is returned as +/- basis
    pairs alongside its pointed part.
    """
    return list(_dual_rays(c.rays))


def hilbert_basis(c: Cone) -> list[Vec]:
    """Minimal generating set of the semigroup of lattice points of ``c``.

    Every irreducible element lies in the zonotope spanned by the rays,
    so enumerating that box and greedily filtering by a strictly positive
    functional yields the (unique) minimal set; irreducibility of the
    result is re-verified before returning.  The box is not bounded: the
    tests pass rays with coordinates in 0..3, at most 13^4 box points.
    """
    if not c.rays:
        return []
    dual = _dual_rays(c.rays)

    def inside(p: Vec) -> bool:
        return all(_dot(m, p) >= 0 for m in dual)

    def sub(a: Vec, b: Vec) -> Vec:
        return tuple(x - y for x, y in zip(a, b))

    lo = [sum(min(0, r[j]) for r in c.rays) for j in range(DIM)]
    hi = [sum(max(0, r[j]) for r in c.rays) for j in range(DIM)]
    weight = tuple(sum(m[j] for m in dual) for j in range(DIM))
    candidates = [
        p
        for p in itertools.product(*[range(lo[j], hi[j] + 1) for j in range(DIM)])
        if any(p) and inside(p)
    ]
    candidates.sort(key=lambda p: (_dot(weight, p), p))
    basis: list[Vec] = []
    for h in candidates:
        reducible = False
        for a in basis:
            diff = sub(h, a)
            if any(diff) and inside(diff):
                reducible = True
                break
        if not reducible:
            basis.append(h)
    for h in basis:
        for a in basis:
            diff = sub(h, a)
            if a != h and any(diff) and inside(diff):
                raise AssertionError(f"hilbert basis element {h} is reducible by {a}")
    return sorted(basis)


def intersection_cone(a: Cone, b: Cone) -> Cone:
    """The cone a ∩ b (pointed whenever a is), via double duality."""
    combined = tuple(sorted(set(_dual_rays(a.rays)) | set(_dual_rays(b.rays))))
    # a pointed ``a`` has a full-dimensional dual, so ``combined`` spans and its
    # dual rays are the primitive extremal rays of the pointed meet
    return Cone(_dual_rays(combined))


def fan_intersections_are_faces(f: Fan) -> bool:
    """The defining fan condition, checked pairwise by brute force."""
    return _first_overlap(list(f.maximal_cones)) is None


def support_contains(f: Fan, x) -> bool:
    """Whether the point ``x`` lies in a maximal cone of ``f``."""
    point = _as_vec(x)
    return any(c.contains(point) for c in f.maximal_cones)
