"""Exact lattice geometry: duals, Hilbert bases, smoothness, subdivisions."""

import hashlib
import itertools
import random
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isbbrauer import toric
from isbbrauer.toric import (
    Cone,
    Fan,
    FanParseError,
    FanScriptError,
    faces,
    is_smooth,
    parse_fan_script,
    resolve_demo,
    singular_faces,
    star_subdivide,
    support_contains,
    uv_xyz_cone,
)

from toric_reference import dual_generators, fan_intersections_are_faces, hilbert_basis, intersection_cone

E1, E2, E3, E4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
ORTHANT = Cone((E1, E2, E3, E4))
# the cone of uv = xyz: a 2x2 determinantal singularity in a 4-torus chart
SIGMA_RAYS = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1))


def pad2(rays2d):
    return Cone(tuple(r + (0, 0) for r in rays2d))


# --- cone construction ----------------------------------------------------------


def test_rays_are_stored_sorted():
    c = Cone((E2, E1))
    assert c.rays == tuple(sorted((E1, E2)))
    with pytest.raises(ValueError):
        Cone((E2, E1, E2))  # a repeated ray is proportional to itself


def test_rejects_bad_rays():
    with pytest.raises(ValueError):
        Cone(((2, 0, 0, 0),))  # not primitive
    with pytest.raises(ValueError):
        Cone(((1, 1, 0, 0), (2, 2, 0, 0)))  # proportional
    with pytest.raises(ValueError):
        Cone((E1, (-1, 0, 0, 0)))  # contains a line
    with pytest.raises(ValueError):
        Cone(((1, 0, 0),))  # wrong ambient rank
    with pytest.raises(ValueError, match="zero vector"):
        Cone(((0, 0, 0, 0),))
    with pytest.raises(ValueError, match="contains a line"):
        Cone((E1, E2, (-1, -1, 0, 0)))  # E1 + E2 and its negative


# --- duality --------------------------------------------------------------------


def test_orthant_is_self_dual():
    assert set(dual_generators(ORTHANT)) == {E1, E2, E3, E4}


def test_dual_generators_are_supporting():
    for c in (ORTHANT, uv_xyz_cone(), pad2([(1, 0), (1, 2)])):
        for m in dual_generators(c):
            assert all(sum(a * b for a, b in zip(m, r)) >= 0 for r in c.rays)


def test_dual_of_low_dimensional_cone_spans_orthogonal_lines():
    edge = Cone((E1,))
    gens = dual_generators(edge)
    # one supporting functional plus both signs on the orthogonal complement
    assert (1, 0, 0, 0) in gens
    for sign in (1, -1):
        for m in ((0, sign, 0, 0), (0, 0, sign, 0), (0, 0, 0, sign)):
            assert m in gens


def test_sigma_dual_generators():
    assert sorted(dual_generators(uv_xyz_cone())) == [
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (1, 1, -1, -1),
    ]


@pytest.mark.parametrize(
    "cone,expected",
    [
        (
            Cone((E1,)),
            [(0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)],
        ),
        (
            pad2([(1, 0), (1, 2)]),
            [(0, 0, -1, 0), (0, 0, 0, -1), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (2, -1, 0, 0)],
        ),
        (
            # a singular 3-dim face of uv_xyz_cone()
            Cone(((0, 1, 0, 0), (0, 1, 0, 1), (1, 0, 0, 0), (1, 0, 0, 1))),
            [(0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, -1)],
        ),
        (
            Cone(((1, 2, 0, -1), (0, 1, 3, 1))),
            [(-6, 3, -1, 0), (-3, 1, 0, -1), (-1, 4, 18, 7), (3, -1, 0, 1), (6, -3, 1, 0), (11, 21, -3, -12)],
        ),
    ],
)
def test_lower_rank_dual_generators_are_pinned(cone, expected):
    assert dual_generators(cone) == expected


# --- Hilbert bases ---------------------------------------------------------------


def test_orthant_hilbert_basis_is_units():
    assert set(hilbert_basis(ORTHANT)) == {E1, E2, E3, E4}


def test_quadric_cone_hilbert_basis():
    cone = pad2([(1, 0), (1, 2)])
    assert sorted(hilbert_basis(cone)) == [(1, 0, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0)]


def test_sigma_dual_hilbert_basis_has_five_elements():
    dual = Cone(tuple(dual_generators(uv_xyz_cone())))
    hb = sorted(hilbert_basis(dual))
    assert hb == [
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (1, 1, -1, -1),
    ]
    # the single additive relation: a pair of generators shares its sum
    # with the complementary triple, the binomial of the singularity
    pairs = [
        (set(two), set(hb) - set(two))
        for two in itertools.combinations(hb, 2)
        if tuple(map(sum, zip(*two))) == tuple(map(sum, zip(*(set(hb) - set(two)))))
    ]
    assert pairs, "no 2-vs-3 partition with equal sums"


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * 4).filter(any),
        min_size=1,
        max_size=4,
    )
)
@example([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)])  # (1,1,0,0) is not extremal
def test_hilbert_basis_properties(raw):
    from math import gcd

    rays = []
    for v in raw:
        g = gcd(gcd(v[0], v[1]), gcd(v[2], v[3]))
        p = tuple(x // g for x in v)
        if all(p != r and not _proportional(p, r) for r in rays):
            rays.append(p)
    cone = Cone(tuple(rays))
    hb = hilbert_basis(cone)
    duals = dual_generators(cone)
    members = set(hb)
    for h in hb:
        assert all(sum(a * b for a, b in zip(m, h)) >= 0 for m in duals)
    for r in cone.rays:
        others = tuple(o for o in cone.rays if o != r)
        if not Cone(others).contains(r):  # extremal rays are irreducible
            assert r in members
    for x, y in itertools.combinations(hb, 2):
        assert tuple(a + b for a, b in zip(x, y)) not in members


def _proportional(u, v):
    return all(a * d == b * c for (a, b), (c, d) in itertools.combinations(zip(u, v), 2))


# --- faces and smoothness ---------------------------------------------------------


def test_orthant_face_lattice():
    fs = faces(ORTHANT)
    assert len(fs) == 16  # all subsets of the four rays, zero cone included
    sizes = sorted(len(f.rays) for f in fs)
    assert sizes == sorted(len(s) for k in range(5) for s in itertools.combinations(range(4), k))


def _frozenset_faces(c):
    """Faces as the closure of the dual generators' zero ray sets under
    intersection, sorted by size and then by rays: an independent copy of
    the frozenset closure ``faces`` ran before it read bit masks."""
    all_rays = frozenset(c.rays)
    cuts = [frozenset(r for r in c.rays if toric._dot(m, r) == 0) for m in dual_generators(c)]
    known, frontier = {all_rays}, [all_rays]
    while frontier:
        f = frontier.pop()
        for cut in cuts:
            if f & cut not in known:
                known.add(f & cut)
                frontier.append(f & cut)
    return [tuple(sorted(rs)) for rs in sorted(known, key=lambda rs: (len(rs), tuple(sorted(rs))))]


def test_faces_match_the_frozenset_closure():
    sizes = set()
    for c in _random_pointed_cones(300, 5):
        found = [f.rays for f in faces(c)]
        assert found == _frozenset_faces(c), c.rays
        sizes.add(len(found))
    assert len(sizes) > 10


def test_faces_past_eight_rays_match_the_frozenset_closure():
    # Rays on the moment curve span the cone over a cyclic 3-polytope with
    # n vertices, 3n - 6 edges and 2n - 4 facets; with the zero face and
    # the cone itself that is 6n - 8 faces.  The fan script's 8-ray cap
    # does not bound ``faces``.
    for n in (9, 12, 16):
        c = Cone(tuple((1, t, t * t, t**3) for t in range(n)))
        found = [f.rays for f in faces(c)]
        assert found == _frozenset_faces(c)
        assert len(found) == 6 * n - 8


def test_sigma_singular_faces():
    sigma = uv_xyz_cone()
    assert len(faces(sigma)) == 22
    bad = singular_faces(sigma)
    assert len(bad) == 3
    for f in bad:
        assert len(f.rays) == 4
        assert toric._rank(f.rays) == 3
    # the primitive halved ray sums are the demo's subdivision candidates
    sums = sorted(tuple(s // 2 for s in map(sum, zip(*f.rays))) for f in bad)
    assert sums == [(1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)]


def test_smoothness_reports():
    assert is_smooth(ORTHANT)
    report = is_smooth(pad2([(1, 0), (1, 2)]))
    assert not report
    (cert,) = [c for c in report.certificates if not c.smooth]
    assert "invariant factors" in cert.reason

    assert not is_smooth(uv_xyz_cone())
    fan = Fan((ORTHANT, pad2([(1, 0), (1, 2)])))
    assert not is_smooth(fan)


def test_smooth_certificate_carries_unimodular_completion():
    report = is_smooth(Cone((E1, (1, 1, 0, 0))))
    assert report
    for cert in report.certificates:
        assert cert.determinant in (1, -1)


def test_certificate_matrices_are_pinned():
    # the demo's final cones are full-dimensional, so each matrix is the rays
    expected = [
        (((0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0)), 1),
        (((1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 1), (1, 1, 1, 0)), 1),
        (((0, 1, 0, 0), (0, 1, 1, 0), (1, 1, 0, 1), (1, 1, 1, 0)), -1),
        (((0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 1), (1, 1, 1, 0)), -1),
        (((1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 1)), -1),
        (((0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1)), 1),
        (((0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 1), (1, 1, 1, 1)), 1),
        (((1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 1), (1, 1, 1, 1)), -1),
        (((0, 1, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1), (1, 1, 1, 1)), 1),
        (((0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1), (1, 1, 1, 1)), -1),
    ]
    certs = resolve_demo().smoothness.certificates
    assert [(c.matrix, c.determinant) for c in certs] == expected
    # a 2-dim cone: the two rows after the rays are the unimodular completion
    (cert,) = is_smooth(Cone(((1, 2, 0, -1), (0, 1, 3, 1)))).certificates
    assert cert.matrix == ((0, 1, 3, 1), (1, 2, 0, -1), (0, 0, 1, 0), (0, 0, 0, 1))
    assert cert.determinant == -1


# --- fan operations ----------------------------------------------------------------


def test_support_contains():
    fan = Fan((ORTHANT,))
    assert support_contains(fan, (3, 1, 2, 5))
    assert support_contains(fan, (0, 0, 0, 0))
    assert not support_contains(fan, (-1, 0, 0, 0))


def test_star_subdivision_at_interior_point():
    fan = Fan((ORTHANT,))
    divided = star_subdivide(fan, (1, 1, 1, 1))
    assert len(divided.maximal_cones) == 4
    assert all((1, 1, 1, 1) in c.rays for c in divided.maximal_cones)
    assert fan_intersections_are_faces(divided)
    for pt in ((2, 1, 1, 3), (1, 1, 1, 1), (0, 2, 0, 1)):
        assert support_contains(divided, pt)


def test_star_subdivision_at_existing_ray_is_identity():
    fan = Fan((ORTHANT,))
    assert star_subdivide(fan, E1) == fan


def test_star_subdivision_outside_support_rejected():
    with pytest.raises(ValueError):
        star_subdivide(Fan((ORTHANT,)), (1, -1, 0, 0))


def test_star_subdivision_needs_a_primitive_ray():
    with pytest.raises(ValueError, match="nonzero"):
        star_subdivide(Fan((ORTHANT,)), (0, 0, 0, 0))
    with pytest.raises(ValueError, match="not primitive"):
        star_subdivide(Fan((ORTHANT,)), (2, 0, 0, 0))


def test_intersection_cone_of_adjacent_cones():
    left = Cone((E1, E2, E3, E4))
    right = Cone(((-1, 0, 0, 0), E2, E3, E4))
    shared = intersection_cone(left, right)
    assert set(shared.rays) == {E2, E3, E4}
    assert fan_intersections_are_faces(Fan((left, right)))


def test_overlapping_cones_are_not_a_fan():
    narrow = Cone((E1, (1, 2, 0, 0), E3, E4))
    assert not fan_intersections_are_faces(Fan((ORTHANT, narrow)))


def _same_points(c, d):
    return all(d.contains(r) for r in c.rays) and all(c.contains(r) for r in d.rays)


def test_is_face_of_matches_the_face_lattice():
    # random cones may list a ray that is not extremal, so faces are compared
    # as point sets, never by their listed rays
    cones = _random_pointed_cones(30, 5)
    pairs = list(itertools.combinations(cones, 2))
    # the first cone lists e1 + e2; the two meet in cone(e1, e2), a face of both
    pairs.append((Cone((E1, E2, (1, 1, 0, 0), E3)), Cone((E1, E2, (0, 0, -1, 0)))))
    lattices = {c: faces(c) for pair in pairs for c in pair}
    verdicts = []
    for a, b in pairs:
        meet = intersection_cone(a, b)
        verdicts.append(toric._meet_is_a_face(a, b))
        assert verdicts[-1] == all(any(_same_points(meet, f) for f in lattices[c]) for c in (a, b)), (a.rays, b.rays)
    assert verdicts[-1] is True
    assert set(verdicts) == {True, False}


def _spans_from_the_others(listed, i):
    """Whether the cone over the other listed rays holds ``listed[i]``: for
    pairwise non-proportional rays of a pointed cone, exactly when that ray
    is not extremal."""
    others = listed[:i] + listed[i + 1 :]
    return bool(others) and Cone(tuple(others)).contains(listed[i])


def _script(cones):
    """A fan script listing each cone's rays and then its ``cone`` line;
    returns the text and the ``cone`` lines' numbers."""
    lines, cone_lines, count = [], [], 0
    for rays in cones:
        lines += ["ray " + " ".join(map(str, r)) for r in rays]
        lines.append("cone " + " ".join(map(str, range(count, count + len(rays)))))
        count += len(rays)
        cone_lines.append(len(lines))
    return "\n".join(lines) + "\n", cone_lines


def test_fan_script_refuses_exactly_the_non_extremal_rays():
    rng = random.Random(7)
    refused = []
    for c in _random_pointed_cones(300, 5):
        listed = rng.sample(c.rays, len(c.rays))
        text, (line,) = _script([listed])
        spare = next((r for i, r in enumerate(listed) if _spans_from_the_others(listed, i)), None)
        refused.append(spare is not None)
        if spare is None:
            assert parse_fan_script(text).fan == Fan((c,))
            continue
        with pytest.raises(FanScriptError) as caught:
            parse_fan_script(text)
        assert str(caught.value) == f"line {line}: ray {spare} is not an extremal ray of the cone", listed
    assert set(refused) == {True, False}


def _pair_loop_refusal(cones, cone_lines):
    """The fan check's message, by the nested loop ``parse_fan_script`` ran
    before it shared one scan with ``fan_intersections_are_faces``."""
    for j, b in enumerate(cones):
        for i, a in enumerate(cones[:j]):
            if not toric._meet_is_a_face(a, b):
                return f"line {cone_lines[j]}: cone meets the cone of line {cone_lines[i]} outside a common face; not a fan"
    return None


def test_fan_script_refusal_matches_the_nested_pair_loop():
    rng = random.Random(17)
    orthants = [Cone(rays) for rays in itertools.product(*[(e, toric._neg(e)) for e in (E1, E2, E3, E4)])]
    pool = []
    for c in _random_pointed_cones(60, 9):
        listed = list(c.rays)
        pool.append(Cone(tuple(r for i, r in enumerate(listed) if not _spans_from_the_others(listed, i))))
    outcomes = []
    for _ in range(150):
        cones = rng.sample(orthants, rng.randint(1, 6)) + rng.sample(pool, rng.randint(0, 2))
        rng.shuffle(cones)
        text, cone_lines = _script([c.rays for c in cones])
        expected = _pair_loop_refusal(cones, cone_lines)
        assert fan_intersections_are_faces(Fan(tuple(cones))) == (expected is None)
        try:
            parse_fan_script(text)
            outcomes.append(None)
        except FanScriptError as exc:
            outcomes.append(str(exc))
        assert outcomes[-1] == expected, text
    # fans, and refusals naming many different pairs of lines
    assert None in outcomes and len(set(outcomes)) > 20


# --- the demo resolution -------------------------------------------------------------


def test_resolve_demo_certificate_chain():
    report = resolve_demo()
    assert report.smoothness.smooth
    assert len(report.candidates) == 3
    assert set(report.candidates) == {(1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)}
    assert [len(s.fan.maximal_cones) for s in report.steps] == [4, 7, 10]
    assert all(step.support_ok for step in report.steps)
    for step in report.steps:
        assert fan_intersections_are_faces(step.fan)
    final = report.steps[-1].fan
    assert all(len(c.rays) == 4 for c in final.maximal_cones)


def _support_gaps(sigma, fan):
    """Every reason ``fan`` might not cover exactly ``sigma``, found with no sampling.

    The cones lie in ``sigma`` when their rays do.  Full-dimensional cones
    that meet in faces cover all of ``sigma`` when each facet of each cone
    lies on a facet of ``sigma`` or is a facet of exactly one other cone:
    crossing any inner facet leads into a cone again.
    """
    cones = list(fan.maximal_cones)
    gaps = [f"ray {r} is outside sigma" for c in cones for r in c.rays if not sigma.contains(r)]
    gaps += [f"cone {c.rays} is not full-dimensional" for c in cones if c.dim != toric.DIM]
    overlap = toric._first_overlap(cones)
    if overlap is not None:
        gaps.append(f"cones {overlap} meet outside a common face")
    facets = [{frozenset(r for r in c.rays if not toric._dot(m, r)) for m in toric._dual_rays(c.rays)} for c in cones]
    walls = toric._dual_rays(sigma.rays)
    for i, own in enumerate(facets):
        for facet in own:
            if any(all(not toric._dot(n, r) for r in facet) for n in walls):
                continue
            partners = sum(facet in other for j, other in enumerate(facets) if j != i)
            if partners != 1:
                gaps.append(f"facet {sorted(facet)} of cone {i} is shared by {partners} other cones")
    return gaps


def test_demo_steps_cover_sigma_exactly():
    # The exact check behind the sampled "support preserved" lines: star
    # subdivisions keep the support (Cox, Little and Schenck, Toric
    # Varieties, 11.1), and each step fan is shown to tile sigma.
    report = resolve_demo()
    sigma = report.cone
    for step in report.steps:
        assert _support_gaps(sigma, step.fan) == [], step.ray
        # the check sees a hole, an overlap and a cone outside sigma
        for drop in range(len(step.fan.maximal_cones)):
            assert _support_gaps(sigma, _holed(step.fan, drop)), (step.ray, drop)
        assert _support_gaps(sigma, Fan(step.fan.maximal_cones + (sigma,)))
    assert _support_gaps(sigma, Fan((ORTHANT,)))


# sha256 of repr(_per_point_sample(uv_xyz_cone(), 1000, 48112)), computed
# when each point was built by repeated vector additions of scaled rays.
SAMPLE_POINTS_DIGEST = "3557bfce4ac44afa0ff64c920c5f4bdecbfbe586143daaf30d70335f52cb18f3"


def _holed(f, drop):
    """``f`` without its maximal cone at index ``drop``: a hole in the support."""
    return Fan(f.maximal_cones[:drop] + f.maximal_cones[drop + 1 :])


def _assert_verdicts_match(cone, fans, count, seed):
    """``_support_verdicts`` against the per-point loop; returns the verdicts."""
    points = _per_point_sample(cone, count, seed)
    expected = [all(support_contains(f, p) for p in points) for f in fans]
    assert toric._support_verdicts(cone, fans, count, seed) == expected, (cone, count, seed)
    return expected


def test_sample_points_are_pinned():
    sigma = uv_xyz_cone()
    points = _per_point_sample(sigma, 1000, 48112)
    assert len(set(points)) == 838
    assert hashlib.sha256(repr(points).encode()).hexdigest() == SAMPLE_POINTS_DIGEST
    # the demo's own check: its three step fans, and each with a cone dropped
    steps = [step.fan for step in resolve_demo().steps]
    fans = steps + [_holed(f, 0) for f in steps]
    assert _assert_verdicts_match(sigma, fans, 1000, 48112) == [True] * 3 + [False] * 3


def _unimodular(rng, steps=6):
    """A product of elementary integer matrices: determinant 1."""
    m = [[int(i == j) for j in range(4)] for i in range(4)]
    for _ in range(steps):
        i, j = rng.sample(range(4), 2)
        s = rng.choice((-1, 1))
        m[i] = [x + s * y for x, y in zip(m[i], m[j])]
    return m


def _apply(m, v):
    return tuple(sum(m[i][k] * v[k] for k in range(4)) for i in range(4))


RESOLVING_RAYS = ((1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1))


def test_fans_cover_agrees_with_support_contains():
    verdicts = set()
    for seed in range(3):
        rng = random.Random(seed)
        u = _unimodular(rng)
        sigma = Cone(tuple(_apply(u, r) for r in SIGMA_RAYS))
        # the orthant's image holds points outside sigma's
        orthant = Cone(tuple(_apply(u, r) for r in (E1, E2, E3, E4)))
        for order in itertools.permutations(RESOLVING_RAYS):
            fan = Fan((sigma,))
            fans = [fan]
            for ray in order:
                fan = star_subdivide(fan, _apply(u, ray))
                fans.append(fan)
            fans += [_holed(f, rng.randrange(len(f.maximal_cones))) for f in fans]
            for cone in (sigma, orthant):
                for count in (0, 1, 60):
                    verdicts.update(_assert_verdicts_match(cone, fans, count, rng.randrange(1000)))
    assert verdicts == {True, False}


def _randint_stream(seed, n):
    rng = random.Random(seed)
    return bytes(rng.randint(0, 4) for _ in range(n))


def test_draws_are_the_randint_stream():
    for seed in range(200):
        for n in (0, 1, 5, 6, 7, 313, 6000):
            assert toric._draws(random.Random(seed), n) == _randint_stream(seed, n), (seed, n)


def _per_point_sample(cone, count, seed):
    """The sampler as a loop over points: ``count * len(rays)`` randint calls."""
    randint = random.Random(seed).randint
    columns = list(zip(*cone.rays)) or [()] * 4
    points = []
    for _ in range(count):
        coeffs = [randint(0, 4) for _ in cone.rays]
        points.append(tuple(sum(t * x for t, x in zip(coeffs, col)) for col in columns))
    return points


def _scaled_sigma(scale):
    """The rays of uv_xyz_cone() times ``scale``, plus 1 in the last coordinate.

    Every ray stays primitive and positive on (1, 1, 0, 0), so the cone is
    pointed; ``4 * sum_i |r_i3|`` is ``8 * scale + 24``.
    """
    return tuple((scale * a, scale * b, scale * c, scale * d + 1) for a, b, c, d in SIGMA_RAYS)


def test_sample_points_match_the_per_point_loop():
    # 2**60 and 2**61 put the bound just past a 64-bit word; 2**125 needs
    # lanes of many words
    scales = (1, 10**6, 2**40, 2**60, 2**61, 2**125)
    cones = [Cone(SIGMA_RAYS), Cone(())]
    for seed, scale in enumerate(scales):
        rays = _scaled_sigma(scale) if scale > 1 else SIGMA_RAYS
        cones.append(Cone(rays))
        u = _unimodular(random.Random(seed))
        cones.append(Cone(tuple(_apply(u, r) for r in rays)))  # negative entries
    verdicts = set()
    for cone in cones:
        fans = [Fan((cone,)), Fan(())]
        if cone.rays:
            rho = toric._primitive(tuple(map(sum, zip(*cone.rays))))
            inner = star_subdivide(Fan((cone,)), rho)
            fans += [inner, _holed(inner, 0)]
        for count, seed in ((0, 1), (1, 2), (300, 3)):
            verdicts.update(_assert_verdicts_match(cone, fans, count, seed))
    assert verdicts == {True, False}


def _orthant_fan(u):
    """The 16 orthants mapped by the unimodular ``u``: a complete fan."""
    cones = []
    for signs in itertools.product((1, -1), repeat=4):
        rays = [tuple(s * int(i == j) for j in range(4)) for i, s in enumerate(signs)]
        cones.append(Cone(tuple(_apply(u, r) for r in rays)))
    return Fan(tuple(cones))


def _sign_rays(reach, patterns):
    """Rays ``reach * s`` on the first three coordinates, 1 on the last.

    The last coordinate keeps every ray primitive and the cone pointed.
    """
    return tuple(tuple(reach * x for x in signs) + (1,) for signs in patterns)


def test_fans_cover_lane_widths_at_large_coordinates():
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    shear = [[1, 3**25, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]  # a normal (1, -3**25, 0, 0)
    rng = random.Random(7)
    patterns = list(itertools.product((1, 0, -1), repeat=3))
    verdicts = set()
    for reach in (2**40, 2**40 - 1, 2**70, 2**70 - 1, 3**44):
        # one-ray cones reach the bound the width is chosen from whenever a
        # draw is 4; cones of more rays mix the signs
        cones = [Cone(_sign_rays(reach, rng.sample(patterns, k))) for k in (1, 1, 3, 8)]
        for u in (identity, shear, _unimodular(rng)):
            full = _orthant_fan(u)
            holed = Fan(full.maximal_cones[1:])
            inner = star_subdivide(Fan((full.maximal_cones[0],)), _apply(u, (1, 1, 1, 1)))
            for fans in ([full, holed], [full, holed, inner, Fan(())]):
                for cone in cones:
                    for count, seed in ((0, 1), (1, 2), (300, 3)):
                        verdicts.update(_assert_verdicts_match(cone, fans, count, seed))
    assert verdicts == {True, False}


@pytest.mark.parametrize("lane", [1, 2, 8, 9, 16])
def test_support_verdicts_at_a_lane_byte_boundary(lane):
    # A one-ray cone's bound is 4 * max |<m, r>| = 4 * c over the orthant
    # normals.  The largest bound below 2**(8 * lane - 1) fits a lane of
    # ``lane`` bytes with its sign; 2**(8 * lane - 1) itself needs one more.
    fans = [_orthant_fan([[int(i == j) for j in range(4)] for i in range(4)])]
    fans.append(Fan(fans[0].maximal_cones[1:]))  # no positive orthant
    verdicts = set()
    below, at = 2 ** (8 * lane - 3) - 1, 2 ** (8 * lane - 3)
    assert (4 * below).bit_length() == 8 * lane - 1 and (4 * at).bit_length() == 8 * lane
    for c in (below, at):
        for ray in ((1, c, 1, 1), (1, -c, 1, 1)):
            verdicts.update(_assert_verdicts_match(Cone((ray,)), fans, 300, lane))
    assert verdicts == {True, False}


def test_support_verdicts_raise_when_a_lane_overflows(monkeypatch):
    # Draws of 255 break the bound's premise of draws at most 4; the guard
    # is an explicit raise, so it fires under ``python -O`` as well.
    fans = [step.fan for step in resolve_demo().steps]
    monkeypatch.setattr(toric, "_draws", lambda rng, n: bytes([255]) * n)
    with pytest.raises(AssertionError, match=r"^a lane of <m, p> overflowed its width$"):
        toric._support_verdicts(uv_xyz_cone(), fans, 10, 0)


def test_resolve_demo_checks_support_once_per_subdivision(monkeypatch):
    callers = []
    original = toric.support_contains

    def counted(f, x):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(f, x)

    monkeypatch.setattr(toric, "support_contains", counted)
    report = resolve_demo()
    assert all(step.support_ok for step in report.steps)
    assert len(callers) <= 3
    assert set(callers) <= {"star_subdivide"}


def test_star_subdivide_tests_each_cone_against_the_ray_once(monkeypatch):
    sigma = uv_xyz_cone()
    report = resolve_demo()
    fans = [Fan((sigma,))] + [step.fan for step in report.steps]
    tested = []
    original = Cone.contains

    def counted(self, x):
        tested.append(self)
        return original(self, x)

    monkeypatch.setattr(Cone, "contains", counted)
    for fan, ray in zip(fans, report.candidates):
        tested.clear()
        star_subdivide(fan, ray)
        assert tested == list(fan.maximal_cones)
    tested.clear()
    with pytest.raises(ValueError, match="lies outside the support"):
        star_subdivide(fans[-1], (-1, 0, 0, 0))
    assert tested == list(fans[-1].maximal_cones)


def test_resolve_demo_is_deterministic():
    a = resolve_demo()
    b = resolve_demo()
    assert a.candidates == b.candidates
    assert a.steps[-1].fan == b.steps[-1].fan


# --- exact kernels: rank, determinant, certificates ------------------------------------


def _smith_rank(rows):
    """The rank as the number of Smith invariant factors."""
    return len(toric._smith_normal_form(list(rows))[0])


def _seeded_int_matrices(count, seed):
    """``count`` matrices of 0 to 8 rows in Z^4, with entries in -4..4 or up
    to 2**40; a row may repeat an earlier one or combine two of them."""
    rng = random.Random(seed)
    matrices = []
    for _ in range(count):
        bound = rng.choice((4, 2**40))
        rows = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.choice(("fresh", "copy", "combination")) if rows else "fresh"
            if kind == "fresh":
                rows.append(tuple(rng.randint(-bound, bound) for _ in range(toric.DIM)))
            elif kind == "copy":
                rows.append(rng.choice(rows))
            else:
                a, b = rng.choice(rows), rng.choice(rows)
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
        matrices.append(rows)
    return matrices


# sha256 over repr((diag, V)) for each of _seeded_int_matrices(2000, 0), in order
SMITH_FORM_DIGEST = "f2c8577537516f95cf474c23693a5b8958936e3d4b7dac275548a48985405349"


def test_smith_form_is_pinned():
    # the invariant factors and the column transform V, with its choice of
    # pivots and ties, are part of the output: _nullspace reads V
    h = hashlib.sha256()
    for rows in _seeded_int_matrices(2000, 0):
        h.update(repr(toric._smith_normal_form(rows)).encode())
    assert h.hexdigest() == SMITH_FORM_DIGEST


def _cofactor_det(m):
    """The determinant by cofactor expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _cofactor_det([tuple(row[:j]) + tuple(row[j + 1 :]) for row in m[1:]])
        for j in range(n)
    )


_ENTRIES = st.integers(-3, 3) | st.integers(-(2**70), 2**70)


@st.composite
def _int_rows(draw, width, min_rows, max_rows):
    """Integer rows; a row may repeat an earlier one or combine two of them."""
    rows = []
    for _ in range(draw(st.integers(min_rows, max_rows))):
        kind = draw(st.sampled_from(("fresh", "copy", "combination"))) if rows else "fresh"
        if kind == "fresh":
            rows.append(tuple(draw(st.lists(_ENTRIES, min_size=width, max_size=width))))
        elif kind == "copy":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
    return rows


@settings(max_examples=300, deadline=None)
@given(_int_rows(4, 0, 8))
@example([])
@example([E1, E1, E2])
@example([(0, 0, 0, 0), (0, 2, 4, 6), (0, 1, 2, 3), (0, 0, 0, 5)])
def test_rank_matches_the_smith_form(rows):
    assert toric._rank(rows) == _smith_rank(rows)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: _int_rows(n, n, n)))
@example([])
@example([(0, 1), (1, 0)])
@example([(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)])
@example([(2, 1, 0, 0), (4, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
def test_det_matches_cofactor_expansion(m):
    assert toric._det(m) == _cofactor_det(m)
    if len(m) == 4:
        assert (toric._rank(m) == 4) == (_cofactor_det(m) != 0)


def _adjugate_inverse(v):
    """The inverse of a unimodular matrix as its adjugate over the
    determinant, both by cofactor expansion."""
    n, d = len(v), _cofactor_det(v)
    assert abs(d) == 1

    def cofactor(i, j):
        return (-1) ** (i + j) * _cofactor_det([row[:j] + row[j + 1 :] for r, row in enumerate(v) if r != i])

    return [[cofactor(j, i) * d for j in range(n)] for i in range(n)]


def _smith_certificate(c):
    """The certificate as the Smith form alone decides it."""
    k = len(c.rays)
    diag, v = toric._smith_normal_form(list(c.rays))
    if len(diag) != k:
        return (False, "not simplicial", None, None)
    if any(d != 1 for d in diag):
        return (False, f"invariant factors {tuple(diag)}", None, None)
    w = _adjugate_inverse(v)
    matrix = tuple(list(c.rays) + [tuple(w[i]) for i in range(k, toric.DIM)])
    return (True, "unimodular", matrix, _cofactor_det(matrix))


def _certificate_fields(c):
    (cert,) = is_smooth(c).certificates
    return (cert.smooth, cert.reason, cert.matrix, cert.determinant)


def test_certificates_match_the_smith_form_on_resolved_fans():
    kinds = set()
    for seed in range(50):
        u = _unimodular(random.Random(seed))
        sigma = Cone(tuple(_apply(u, r) for r in SIGMA_RAYS))
        cones, resolved = set(faces(sigma)), set()
        for order in itertools.permutations(RESOLVING_RAYS):
            fan = Fan((sigma,))
            for ray in order:
                fan = star_subdivide(fan, _apply(u, ray))
                cones.update(fan.maximal_cones)
            assert is_smooth(fan)
            resolved.update(fan.maximal_cones)
        for c in resolved:
            cones.update(faces(c))
        for c in cones:
            fields = _certificate_fields(c)
            assert fields == _smith_certificate(c), c.rays
            kinds.add((len(c.rays), fields[1].split(" ")[0]))
    # full-dimensional unimodular cones, lower-dimensional faces and the
    # singular 4-ray faces all occur
    assert {(4, "unimodular"), (3, "unimodular"), (0, "unimodular"), (4, "not")} <= kinds


def test_certificates_match_the_smith_form_off_the_unimodular_path():
    cones = [
        Cone((E1, E2, E3, (1, 1, 1, 2))),  # |det| 2
        Cone((E1, E2, (1, 1, 2, 0), (0, 1, 0, 3))),  # |det| 6 = 2 * 3
        Cone((E1, E2, E3, (1, 2, 0, 3))),  # |det| 3
        Cone((E1, (1, 1, 0, 0), (0, 1, 3, 0), (0, 0, 2, 3))),  # |det| 9
        Cone((E1, E2, E3, (1, 1, -1, 0))),  # four rays spanning only three dimensions
        Cone(((0, 1, 0, 0), (0, 1, 0, 1), (1, 0, 0, 0), (1, 0, 0, 1))),  # a singular face of sigma
        Cone((E1, E2, (1, 0, 2, 0), (0, 1, 2, 0))),  # a 3-dim cone over a quadrilateral
    ]
    seen = set()
    for seed in range(20):
        u = _unimodular(random.Random(seed))
        for c in cones:
            image = Cone(tuple(_apply(u, r) for r in c.rays))
            fields = _certificate_fields(image)
            assert fields == _smith_certificate(image), image.rays
            assert not fields[0]
            seen.add(fields[1])
    assert "not simplicial" in seen
    assert {"invariant factors (1, 1, 1, 2)", "invariant factors (1, 1, 1, 3)"} <= seen


def test_warm_demo_runs_smith_forms_only_on_lower_dimensional_faces(monkeypatch):
    report = resolve_demo()  # fills the dual cache, as a long-running process has it
    calls = []
    original = toric._smith_normal_form

    def counted(rows):
        calls.append((sys._getframe(1).f_code.co_name, tuple(map(tuple, rows))))
        return original(rows)

    monkeypatch.setattr(toric, "_smith_normal_form", counted)
    # faces are judged by their minor gcd and the resolved fan's cones by a
    # unimodular determinant: no Smith form at all
    assert resolve_demo() == report
    assert calls == []

    # the first public construction of a lower-dimensional face computes its
    # dual, and the dual's lineality space reads a Smith form; a second
    # construction proves pointedness by rank on the cached dual alone
    built = [f.rays for f in report.singular] + [c.rays for s in report.steps for c in s.fan.maximal_cones]
    built += [f.rays for f in faces(report.cone)]
    for rays in built:
        Cone(rays)
    assert {name for name, _ in calls} <= {"_nullspace"}
    assert all(toric._rank(rows) < toric.DIM for _, rows in calls)
    calls.clear()
    for rays in built:
        Cone(rays)
    assert calls == []
    # a cone seen for the first time computes its dual; only the lattice
    # basis of a lower-dimensional dual's lineality space reads a Smith form
    toric._dual_rays.cache_clear()
    Cone(((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 7, 0), (1, 1, 0, 7)))
    assert calls == []
    Cone(((3, 0, 0, 1), (0, 3, 0, 1), (1, 1, 7, 0)))
    assert [name for name, _ in calls] == ["_nullspace"]


# One resolve_demo() in a fresh interpreter, counting the cold dual
# computations and the exact kernels they and the smoothness checks run.
COLD_DEMO = """\
import sys
sys.path.insert(0, sys.argv[1])
from isbbrauer import toric
counts = dict.fromkeys(("_bareiss", "_smith_normal_form"), 0)
def counted(name, original):
    def call(*args):
        counts[name] += 1
        return original(*args)
    return call
for name in counts:
    setattr(toric, name, counted(name, getattr(toric, name)))
toric.resolve_demo()
print(toric._dual_rays.cache_info().misses, *counts.values())
"""


def test_dual_cache_stays_bounded_over_many_scripts():
    toric._dual_rays.cache_clear()
    for seed in range(400):
        script = parse_fan_script(_seeded_demo_script(seed))
        fan = script.fan
        for _, ray in script.subdivisions:
            fan = star_subdivide(fan, ray)
        assert is_smooth(fan)
    info = toric._dual_rays.cache_info()
    assert info.misses > info.maxsize == toric._DUAL_CACHE
    assert info.currsize <= toric._DUAL_CACHE
    # the demo's working set fits: once it is read, a second demo misses nothing
    resolve_demo()
    misses = toric._dual_rays.cache_info().misses
    resolve_demo()
    assert toric._dual_rays.cache_info().misses == misses


def test_cold_demo_computes_each_dual_once_and_no_smith_form():
    src = str(Path(toric.__file__).parents[1])
    run = subprocess.run([sys.executable, "-I", "-c", COLD_DEMO, src], capture_output=True, text=True, check=True)
    misses, bareiss, smith = map(int, run.stdout.split())
    # before faces and subdivision cones inherited their parent's proofs:
    # 33 dual misses, 2265 eliminations and 54 Smith forms
    assert misses <= 13
    assert bareiss <= 30
    assert smith == 0


# --- cones built without a second proof -----------------------------------------------


def _random_pointed_cones(count, seed):
    """``count`` pointed cones of 1 to 8 rays and every dimension.

    Rays are primitive combinations of 1 to 4 random lattice vectors,
    flipped to be positive on a random functional (so the cone is
    pointed); a combination on the functional's hyperplane is dropped.
    """
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        # every third cone takes 0/1 combinations of a lattice basis, so
        # smooth full-dimensional faces occur too
        frame = len(cones) % 3 == 0
        basis = _unimodular(rng) if frame else [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(4)]
        basis = basis[: rng.randint(1, 4)]
        low, high = (0, 1) if frame else (-2, 2)
        w = tuple(rng.randint(-3, 3) for _ in range(4))
        rays = set()
        for _ in range(rng.randint(1, 8)):
            v = tuple(sum(rng.randint(low, high) * b[j] for b in basis) for j in range(4))
            side = toric._dot(w, v)
            if side:
                rays.add(toric._primitive(v if side > 0 else toric._neg(v)))
        if rays:
            cones.append(Cone(tuple(rays)))
    return cones


def _assert_publicly_constructible(cones):
    for c in set(cones):
        assert Cone(c.rays) == c, c.rays


def _derived_cones(fan):
    """Every maximal cone of ``fan`` and every face of one."""
    return [f for c in fan.maximal_cones for f in [c] + faces(c)]


def test_derived_cones_pass_the_public_constructor_on_the_demo():
    report = resolve_demo()
    _assert_publicly_constructible(faces(report.cone))
    for step in report.steps:
        _assert_publicly_constructible(_derived_cones(step.fan))


def _seeded_demo_script(seed):
    """The fan script of the toric-demo benchmark workload at ``seed``."""
    rng = random.Random(seed)
    u = _unimodular(rng)
    order = rng.choice(list(itertools.permutations(RESOLVING_RAYS)))
    lines = ["ray " + " ".join(map(str, _apply(u, r))) for r in SIGMA_RAYS]
    lines.append("cone " + " ".join(map(str, range(len(SIGMA_RAYS)))))
    lines += ["subdivide " + " ".join(map(str, _apply(u, r))) for r in order]
    return "\n".join(lines) + "\n"


def test_derived_cones_pass_the_public_constructor_on_seeded_demo_scripts():
    for seed in range(30):
        script = parse_fan_script(_seeded_demo_script(seed))
        fan = script.fan
        _assert_publicly_constructible(_derived_cones(fan))
        for _, ray in script.subdivisions:
            fan = star_subdivide(fan, ray)
            _assert_publicly_constructible(_derived_cones(fan))
        assert is_smooth(fan)


def test_derived_cones_pass_the_public_constructor_on_random_cones():
    rng = random.Random(11)
    subdivided = 0
    cones = _random_pointed_cones(200, 3)
    for c in cones:
        _assert_publicly_constructible(faces(c))
        picks = [rng.sample(c.rays, rng.randint(1, len(c.rays))) for _ in range(2)] + [c.rays, c.rays[:1]]
        for pick in picks:
            rho = toric._primitive(tuple(map(sum, zip(*pick))))
            fan = star_subdivide(Fan((c,)), rho)
            _assert_publicly_constructible(_derived_cones(fan))
            subdivided += len(fan.maximal_cones) > 1
    assert subdivided > 100


def test_minor_gcd_verdict_matches_the_smith_form_on_random_faces():
    verdicts = set()
    checked = 0
    for c in _random_pointed_cones(300, 5):
        for f in faces(c):
            k = len(f.rays)
            diag = toric._smith_normal_form(list(f.rays))[0]
            g = toric._minor_gcd(f.rays)
            assert g == (prod(diag) if len(diag) == k else 0), f.rays
            assert (g == 1) == is_smooth(f).smooth, f.rays
            verdicts.add((k, g == 1))
            checked += 1
    assert checked > 3000
    # smooth and singular faces of every size up to DIM, and non-simplicial ones
    assert {(k, s) for k in range(2, 5) for s in (True, False)} | {(5, False)} <= verdicts


def _bareiss_normal(rows):
    """The cofactor normal as one determinant per deleted column."""
    n = tuple((-1) ** j * toric._det([[r[k] for k in range(4) if k != j] for r in rows]) for j in range(4))
    return n if any(n) else None


@settings(max_examples=300, deadline=None)
@given(_int_rows(4, 3, 3))
@example([E1, E2, E3])
@example([E1, E2, (1, 1, 0, 0)])
@example([(1, 2, 3, 4), (2, 4, 6, 8), (0, 0, 0, 1)])
@example([(0, 0, 0, 0), E1, E2])
def test_cofactor_normal_matches_the_bareiss_minors(rows):
    n = toric._cofactor_normal(tuple(rows))
    assert n == _bareiss_normal(rows)
    assert (n is None) == (toric._rank(rows) < 3)
    if n is not None:
        assert all(toric._dot(n, r) == 0 for r in rows)


# --- the fan text format ---------------------------------------------------------------


FAN_TEXT = """\
# quadric cone, then its resolution
ray 1 0 0 0
ray 1 2 0 0
cone 0 1
subdivide 1 1 0 0
"""


def test_parse_fan_script():
    script = parse_fan_script(FAN_TEXT)
    assert script.fan == Fan((pad2([(1, 0), (1, 2)]),))
    assert script.subdivisions == ((5, (1, 1, 0, 0)),)
    resolved = script.fan
    for _, ray in script.subdivisions:
        resolved = star_subdivide(resolved, ray)
    assert is_smooth(resolved)


@pytest.mark.parametrize(
    "text,exc,line",
    [
        ("ray 1 0\ncone 0\n", FanParseError, 1),
        ("ray 1 0 0 x\ncone 0\n", FanParseError, 1),
        ("blah 1\n", FanParseError, 1),
        ("ray 1 0 0 0\ncone 0 3\n", FanScriptError, 2),
        ("ray 1 0 0 0\nray 2 0 0 0\ncone 0 1\n", FanScriptError, 3),
        ("ray 1 0 0 0\n", FanScriptError, 1),
    ],
)
def test_fan_script_errors_carry_positions(text, exc, line):
    with pytest.raises(exc) as caught:
        parse_fan_script(text)
    assert caught.value.line == line
    if isinstance(caught.value, FanParseError):
        assert caught.value.column >= 1


def _fan_of_rays(count):
    """One cone over ``count`` rays (1, i, i * i, 0), all of them extremal:
    the points (i, i * i) of a parabola are in convex position."""
    text = "".join(f"ray 1 {i} {i * i} 0\n" for i in range(count))
    return text + "cone " + " ".join(map(str, range(count))) + "\n"


def test_fan_script_accepts_a_cone_at_the_ray_cap():
    (cone,) = parse_fan_script(_fan_of_rays(8)).fan.maximal_cones
    assert len(cone.rays) == 8


@pytest.mark.parametrize("count", [9, 30])
def test_fan_script_refuses_a_cone_past_the_ray_cap(monkeypatch, count):
    text = _fan_of_rays(count)
    duals = []
    monkeypatch.setattr(toric, "_dual_rays", duals.append)
    with pytest.raises(FanScriptError) as caught:
        parse_fan_script(text)
    assert caught.value.line == count + 1
    assert str(caught.value) == f"line {count + 1}: cone lists {count} rays; the cap is 8"
    assert duals == []


ORTHANT_SCRIPT = "ray 1 0 0 0\nray 0 1 0 0\nray 0 0 1 0\nray 0 0 0 1\nray 1 1 0 0\ncone 0 1 2 3\n"


def test_fan_script_refuses_cones_that_do_not_form_a_fan():
    # The second cone lies inside the first: their meet is not a face of the first.
    with pytest.raises(FanScriptError) as caught:
        parse_fan_script(ORTHANT_SCRIPT + "cone 4 1 2 3\n")
    assert caught.value.line == 7
    assert "cone of line 6" in str(caught.value)
    # A later syntax error still wins: the fan condition is checked last.
    with pytest.raises(FanParseError):
        parse_fan_script(ORTHANT_SCRIPT + "cone 4 1 2 3\nray 1 0\n")


NON_EXTREMAL_SCRIPT = "ray 1 0 0 0\nray 0 1 0 0\nray 1 1 0 0\nray 0 0 1 0\nray 0 0 -1 0\ncone 0 1 2 3\ncone 0 1 4\n"


def test_fan_script_refuses_a_ray_that_is_not_extremal():
    # certificates read the listed rays: cone(e1, e2, e3) listed with e1 + e2
    # would be certified "not simplicial"
    with pytest.raises(FanScriptError) as caught:
        parse_fan_script(NON_EXTREMAL_SCRIPT)
    assert str(caught.value) == "line 6: ray (1, 1, 0, 0) is not an extremal ray of the cone"
    with pytest.raises(FanScriptError) as caught:
        parse_fan_script(NON_EXTREMAL_SCRIPT.replace("cone 0 1 2 3", "cone 3 2 1 0"))
    assert str(caught.value) == "line 6: ray (1, 1, 0, 0) is not an extremal ray of the cone"
    # without the spare ray the cones meet in cone(e1, e2), a face of both
    fan = parse_fan_script(NON_EXTREMAL_SCRIPT.replace("cone 0 1 2 3", "cone 0 1 3")).fan
    assert is_smooth(fan)


def test_fan_script_integers_are_ascii_decimal():
    # int() also reads a digit group separator and non-ASCII decimal digits
    tokens = ["1_0", "\uff11", "\u0663", "1_000"]
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        tokens.append("9" * (sys.get_int_max_str_digits() + 1))  # past int()'s limit
    for token in tokens:
        with pytest.raises(FanParseError) as caught:
            parse_fan_script(f"ray {token} 0 0 1\ncone 0\n")
        assert str(caught.value) == f"1:5: expected an integer, got {token!r}"
        assert (caught.value.line, caught.value.column) == (1, 5)
    assert parse_fan_script("ray +1 -0 00 0\ncone 0\n").fan.maximal_cones[0].rays == (E1,)


def test_a_cold_fan_check_builds_only_the_script_cones(monkeypatch):
    # the pair check reads one dual per pair and builds no meet
    built = []
    new = Cone.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Cone, "__new__", counting_new)
    toric._dual_rays.cache_clear()
    text = (Path(__file__).parent / "fans" / "orthants.fan").read_text()
    assert len(parse_fan_script(text).fan.maximal_cones) == len(built) == 16


def test_fan_script_accepts_a_cone_that_is_a_face_of_another():
    fan = parse_fan_script(ORTHANT_SCRIPT + "cone 0 1\ncone 0 1 2 3\n").fan
    assert len(fan.maximal_cones) == 3


def test_fan_script_refuses_cone_lines_past_the_cap():
    # The complete fan of (P^1)^4: 16 orthants, at the cap.
    rays = [tuple(s if j == i else 0 for j in range(4)) for i in range(4) for s in (1, -1)]
    text = "".join("ray " + " ".join(map(str, r)) + "\n" for r in rays)
    for signs in itertools.product((0, 1), repeat=4):
        text += "cone " + " ".join(str(2 * i + s) for i, s in enumerate(signs)) + "\n"
    assert len(parse_fan_script(text).fan.maximal_cones) == toric._CONE_CAP == 16
    with pytest.raises(FanScriptError) as caught:
        parse_fan_script(text + "cone 0\n")
    assert caught.value.line == 8 + 16 + 1
    assert str(caught.value) == "line 25: script lists more than 16 cones; the cap is 16"


DEMO_FAN_TEXT = """\
# the uv = xyz cone and the three subdivisions that resolve it
ray 1 0 0 0
ray 0 1 0 0
ray 1 0 1 0
ray 0 1 1 0
ray 1 0 0 1
ray 0 1 0 1
cone 0 1 2 3 4 5
subdivide 1 1 0 1
subdivide 1 1 1 0
subdivide 1 1 1 1
"""


def _fan_outcome(text):
    try:
        script = parse_fan_script(text)
    except FanParseError as exc:
        return f"parse {exc.line}:{exc.column} {exc}"
    except FanScriptError as exc:
        return f"script {exc.line} {exc}"
    return f"ok {script!r}"


def _fan_mutants(count, seed):
    """Demo fan scripts with one to three ASCII bytes inserted, replaced or deleted."""
    rng = random.Random(seed)
    source = DEMO_FAN_TEXT.encode("ascii")
    for _ in range(count):
        data = bytearray(source)
        for _ in range(rng.randint(1, 3)):
            byte = rng.choice(b"0123456789 -\n#") if rng.random() < 0.5 else rng.randrange(128)
            op = rng.randrange(3)
            if op == 0 or not data:
                data.insert(rng.randrange(len(data) + 1), byte)
            elif op == 1:
                data[rng.randrange(len(data))] = byte
            else:
                del data[rng.randrange(len(data))]
        yield data.decode("ascii")


# sha256 over the newline-joined outcomes of _fan_mutants(200, 5), computed
# once cone lines were refused for a ray that is not extremal and integers
# were read as ASCII decimal only.
FAN_MUTANT_DIGEST = "d17554b6c4d38777999541acb1c667306b9762f8d0efeb2dab3294c6451b3dd5"


def test_fan_script_diagnostics_are_pinned():
    assert _fan_outcome("ray 1 0\ncone 0\n") == "parse 1:1 1:1: ray expects 4 integers, got 2"
    assert _fan_outcome("ray 1 0 0 x\ncone 0\n") == "parse 1:11 1:11: expected an integer, got 'x'"
    assert _fan_outcome("blah 1\n") == "parse 1:1 1:1: unknown keyword 'blah'"
    assert _fan_outcome("ray 1 0 0 0\ncone 0 3\n") == "script 2 line 2: ray index 3 is out of range"
    assert (
        _fan_outcome("ray 1 0 0 0\nray 2 0 0 0\ncone 0 1\n")
        == "script 3 line 3: ray (2, 0, 0, 0) is not primitive"
    )
    assert _fan_outcome("ray 1 0 0 0\n") == "script 1 line 1: fan has no cones"
    assert _fan_outcome("ray 1 0 zz 0\ncone 0\n") == "parse 1:9 1:9: expected an integer, got 'zz'"
    outcomes = [_fan_outcome(t) for t in _fan_mutants(200, 5)]
    assert {o.split(" ", 1)[0] for o in outcomes} == {"ok", "parse", "script"}
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == FAN_MUTANT_DIGEST


def test_fan_script_column_points_at_offending_token():
    with pytest.raises(FanParseError) as caught:
        parse_fan_script("ray 1 0 zz 0\ncone 0\n")
    assert (caught.value.line, caught.value.column) == (1, 9)
