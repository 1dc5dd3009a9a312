"""Random valid configurations for oracle and round-trip testing.

Draws structurally sensible data (curve types, behaviors, residues,
crossing points) and keeps only what passes ``validate``; geometric
rejections (the GC checks) weed out combinations that no actual
degeneration exhibits.  Type III and inert Type IV curves get a cores
residue equal to their extension residue, matching the compatibility
the geometry forces; inert Type II curves sample theirs freely.
"""

from __future__ import annotations

import random

from .model import (
    _ALLOWED_PAIRS,
    Configuration,
    CoverBehavior,
    CoverKind,
    Curve,
    CurveType,
    Extension,
    PointType,
    ResidueClass,
    SingularPoint,
    validate,
    vp_basis,
)

__all__ = ["random_configuration", "random_corpus"]

_SYMBOL_POOL = ("a", "b", "c", "d")
_MAX_ATTEMPTS = 500


def _random_class(rng: random.Random, symbols, nonzero_bias: float = 0.0) -> ResidueClass:
    lo = 1 if rng.random() < nonzero_bias else 0
    k = rng.randint(lo, min(2, len(symbols)))
    return ResidueClass(frozenset(rng.sample(symbols, k)))


def _draw(rng: random.Random) -> Configuration:
    split_cover = rng.random() < 0.3
    symbols = _SYMBOL_POOL[: rng.randint(1, len(_SYMBOL_POOL))]
    curves: list[Curve] = []
    for i in range(rng.randint(1, 5)):
        cid = f"c{i}"
        if split_cover:
            deg_type = rng.choice((CurveType.II,) * 3 + (CurveType.IV,))
            behavior = CoverBehavior.SPLIT
        else:
            deg_type = rng.choice(
                (CurveType.I, CurveType.II, CurveType.II, CurveType.II, CurveType.III, CurveType.IV)
            )
            if deg_type in (CurveType.I, CurveType.III):
                behavior = CoverBehavior.RAMIFIED
            else:
                behavior = rng.choice((CoverBehavior.SPLIT,) * 4 + (CoverBehavior.INERT,))

        n_ext = 2 if behavior is CoverBehavior.SPLIT else 1
        exts = []
        for j in range(n_ext):
            if deg_type is CurveType.I:
                residue = ResidueClass()
            else:
                residue = _random_class(rng, symbols, nonzero_bias=0.7)
            sheet = (j + 1) if split_cover else None
            exts.append(Extension(f"{cid}e{j}", residue, sheet))

        marking = None
        cores: ResidueClass | None = None
        if deg_type is CurveType.IV:
            mark_at = rng.randrange(n_ext)
            marking = exts[mark_at].id
            exts = [
                e if k == mark_at else Extension(e.id, ResidueClass(), e.sheet)
                for k, e in enumerate(exts)
            ]
            if behavior is CoverBehavior.INERT:
                cores = exts[mark_at].residue
        if deg_type is CurveType.III:
            cores = exts[0].residue
        if deg_type is CurveType.II and behavior is CoverBehavior.INERT:
            cores = rng.choice((None, ResidueClass(), _random_class(rng, symbols)))

        curves.append(
            Curve(
                id=cid,
                deg_type=deg_type,
                cover_behavior=behavior,
                extensions=tuple(exts),
                marking=marking,
                cores_residue_input=cores,
            )
        )

    points: list[SingularPoint] = []
    if len(curves) >= 2:
        for j in range(rng.randint(0, 3)):
            a, b = rng.sample(curves, 2)
            key = tuple(sorted((a.deg_type.value, b.deg_type.value)))
            allowed = _ALLOWED_PAIRS.get(key)
            if allowed is None:
                continue
            etype = rng.choice(allowed)
            meets: frozenset[str] = frozenset()
            if etype is PointType.IV_II:
                type_ii = a if a.deg_type is CurveType.II else b
                ext_ids = [e.id for e in type_ii.extensions]
                roll = rng.random()
                if roll < 0.45:
                    meets = frozenset(ext_ids)
                elif roll < 0.65:
                    meets = frozenset(rng.sample(ext_ids, 1))
            points.append(SingularPoint(f"p{j}", (a.id, b.id), etype, meets))

    return Configuration(
        cover_kind=CoverKind.SPLIT_EVERYWHERE if split_cover else CoverKind.IRREDUCIBLE,
        symbols=symbols,
        curves=tuple(curves),
        points=tuple(points),
    )


def random_configuration(rng: random.Random, max_p: int = 12) -> Configuration:
    """One random configuration that passes validate, with dim P capped."""
    for _ in range(_MAX_ATTEMPTS):
        cfg = _draw(rng)
        if len(vp_basis(cfg)) > max_p:
            continue
        if validate(cfg).errors:
            continue
        return cfg
    raise RuntimeError(f"no valid configuration found in {_MAX_ATTEMPTS} attempts")


def random_corpus(seed: int, count: int) -> list[Configuration]:
    """A reproducible list of valid configurations, each of dim P at most 10."""
    rng = random.Random(seed)
    return [random_configuration(rng) for _ in range(count)]
