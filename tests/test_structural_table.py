"""Structural validation from the per-kind table, against the rule-by-rule walk.

``model._structural_diagnostics`` takes what a curve's type, behavior and
cover kind decide from one lookup in ``model._CURVE_KINDS``;
``tests/model_reference.py`` keeps the walk that re-derived every rule
per curve.  Both must give the same errors and warnings, with the same
codes, messages, subjects and order: on every kind of curve, on sampled
configurations with one field mutated, and on the mutation corpus of the
command-line fuzz.
"""

import itertools
import random

from isbbrauer import dsl, model, sampling
from isbbrauer.model import (
    Configuration,
    CoverBehavior,
    CoverKind,
    Curve,
    CurveType,
    Extension,
    ResidueClass,
    SingularPoint,
)

from model_reference import structural_diagnostics
from test_fuzz import CONFIG_SOURCES, Seeded, mutate

CURVE_CODES = {
    "CURVE_BEHAVIOR", "SPLIT_COVER", "EXT_COUNT", "SHEET", "TYPE_I_RESIDUE", "MARKING",
    "UNMARKED_RESIDUE", "CORES_INPUT", "RESIDUE_SYMBOLS",
    "W_TYPE_II_ZERO", "W_RAMIFIED_ZERO", "W_INERT_IV", "W_CORES_DEFAULTED",
}


def check(cfg: Configuration) -> tuple[list, list]:
    got = model._structural_diagnostics(cfg)
    assert got == structural_diagnostics(cfg), cfg
    return got


def codes(found: tuple[list, list]) -> set[str]:
    return {d.code for diagnostics in found for d in diagnostics}


def test_the_table_holds_every_kind():
    assert set(model._CURVE_KINDS) == set(itertools.product(CurveType, CoverBehavior, CoverKind))


# --- every kind of curve ---------------------------------------------------------

RESIDUES = (ResidueClass.of("a"), ResidueClass.of("a", "z"))  # "z" is undeclared
SHEETS = {
    CoverKind.IRREDUCIBLE: ((None, None, None), (1, None, None)),
    CoverKind.SPLIT_EVERYWHERE: ((1, 2, 1), (2, 2, None)),
}


def kind_cases():
    """One curve of each kind with 0-3 extensions, each with residue or not,
    a marking that is absent, names its first extension or names none, a
    cores input absent, declared or undeclared, and two sheet patterns."""
    for cover, t, b in itertools.product(CoverKind, CurveType, CoverBehavior):
        for n in range(4):
            for carried in itertools.product((False, True), repeat=n):
                for marking, cores, sheets in itertools.product(
                    (None, "k0", "elsewhere"),
                    (None, ResidueClass.of("a"), ResidueClass.of("z")),
                    SHEETS[cover],
                ):
                    exts = tuple(
                        Extension(f"k{i}", RESIDUES[i % 2] if carried[i] else ResidueClass(), sheets[i])
                        for i in range(n)
                    )
                    curve = Curve("c", t, b, exts, marking, cores)
                    yield Configuration(cover, ("a", "b"), (curve,))


def test_every_kind_matches_the_rule_by_rule_walk():
    seen = set()
    for cfg in kind_cases():
        seen |= codes(check(cfg))
    assert seen == CURVE_CODES


# --- sampled configurations, one field mutated -----------------------------------


def mutate_curve(rng: random.Random, cfg: Configuration, i: int) -> Curve:
    c = cfg.curves[i]
    ext_ids = [e.id for c2 in cfg.curves for e in c2.extensions]
    field = rng.randrange(8)
    if field == 0:
        return c._replace(deg_type=rng.choice(list(CurveType)))
    if field == 1:
        return c._replace(cover_behavior=rng.choice(list(CoverBehavior)))
    if field == 2:
        return c._replace(marking=rng.choice([None, "nowhere", *ext_ids]))
    if field == 3:
        choices = [None, ResidueClass(), ResidueClass.of("a"), ResidueClass.of("q")]
        return c._replace(cores_residue_input=rng.choice(choices))
    if field == 4:
        others = [e for c2 in cfg.curves for e in c2.extensions]
        return c._replace(extensions=c.extensions + (rng.choice(others),))
    if field == 5:
        return c._replace(id=rng.choice(["", *ext_ids, *(c2.id for c2 in cfg.curves)]))
    if not c.extensions:
        return c
    j = rng.randrange(len(c.extensions))
    ext = c.extensions[j]
    if field == 6:
        ext = ext._replace(id=rng.choice(["", *ext_ids, *(c2.id for c2 in cfg.curves)]))
    else:
        ext = ext._replace(sheet=rng.choice([None, 1, 2, 3]))
    return c._replace(extensions=c.extensions[:j] + (ext,) + c.extensions[j + 1:])


def mutate_point(rng: random.Random, cfg: Configuration, i: int) -> SingularPoint:
    p = cfg.points[i]
    curve_ids = [c.id for c in cfg.curves]
    ext_ids = [e.id for c in cfg.curves for e in c.extensions]
    field = rng.randrange(3)
    if field == 0:
        return p._replace(id=rng.choice(["", *ext_ids, *curve_ids]))
    if field == 1:
        a = rng.choice(curve_ids)
        choices = [(a,), (a, a), (a, "ghost"), (a, *p.incident), tuple(rng.sample(curve_ids, 2))]
        return p._replace(incident=rng.choice(choices))
    k = rng.randint(0, 3)
    return p._replace(meets_marked=frozenset(rng.sample(ext_ids + ["ghost"], min(k, len(ext_ids) + 1))))


def mutated_draw(rng: random.Random) -> Configuration:
    cfg = sampling._draw(rng)
    roll = rng.random()
    if roll < 0.1:
        split = cfg.cover_kind is CoverKind.SPLIT_EVERYWHERE
        return cfg._replace(cover_kind=CoverKind.IRREDUCIBLE if split else CoverKind.SPLIT_EVERYWHERE)
    if roll < 0.7 or not cfg.points:
        i = rng.randrange(len(cfg.curves))
        curves = cfg.curves[:i] + (mutate_curve(rng, cfg, i),) + cfg.curves[i + 1:]
        return cfg._replace(curves=curves)
    i = rng.randrange(len(cfg.points))
    return cfg._replace(points=cfg.points[:i] + (mutate_point(rng, cfg, i),) + cfg.points[i + 1:])


def test_mutated_draws_match_the_rule_by_rule_walk():
    rng = random.Random(30)
    seen = set()
    for _ in range(6000):
        seen |= codes(check(mutated_draw(rng)))
    assert seen >= CURVE_CODES | {"DUP_ID", "POINT_PAIR", "BAD_REF", "POINT_TYPE", "MEETS_MARKED"}


# --- the command-line fuzz corpus ---------------------------------------------------


def test_fuzz_corpus_matches_the_rule_by_rule_walk():
    pick = Seeded(3030)
    corpus = list(CONFIG_SOURCES) + [mutate(pick.element(CONFIG_SOURCES), pick) for _ in range(8000)]
    parsed = 0
    seen = set()
    for data in corpus:
        try:
            cfg = dsl.parse(data.decode("utf-8", "replace"))
        except dsl.ConfigParseError:
            continue
        seen |= codes(check(cfg))
        parsed += 1
    assert parsed > 250
    assert {"CURVE_BEHAVIOR", "EXT_COUNT", "MARKING", "W_TYPE_II_ZERO"} <= seen
