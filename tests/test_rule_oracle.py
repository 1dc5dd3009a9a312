"""The component-wise rule oracle of ``tests/rule_oracle.py`` against the product.

The oracle rebuilds P, R, Q and S from the stated rules and enumerates
each connected component of the curves, so unions of relabelled corpus
blocks reach dim P 200, the gen-heavy workload's size, ten times the
cap of 20 at which ``brute_force_unramified`` refuses.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isbbrauer import brauer, model
from isbbrauer.brauer import unramified_brauer
from isbbrauer.f2 import F2Matrix, kernel_basis
from isbbrauer.model import Configuration, CoverKind, validate, vp_basis
from isbbrauer.sampling import random_corpus

from rule_oracle import COMPONENT_CAP, curve_components, rule_oracle
from test_spaces import relabel, union


def dims(cfg: Configuration) -> tuple[int, int]:
    report = unramified_brauer(cfg)
    return report.kernel_dim, report.h2nr_dim


def union_past(kind: CoverKind, seed: int, min_p: int) -> Configuration:
    """A valid disjoint union of relabelled corpus blocks of one cover kind, of dim P at least ``min_p``.

    A block joins only if the union stays valid, as in
    ``test_spaces.corpus_union``.
    """
    blocks: list[Configuration] = []
    p = 0
    for cfg in random_corpus(seed, 600):
        if cfg.cover_kind is not kind or not vp_basis(cfg):
            continue
        trial = blocks + [relabel(cfg, len(blocks))]
        if not validate(union(kind, trial)).errors:
            blocks = trial
            p += len(vp_basis(cfg))
        if p >= min_p:
            return union(kind, blocks)
    raise AssertionError("corpus too small for the requested union")


def test_the_oracle_imports_only_value_types_and_the_rules():
    tree = ast.parse(Path(__file__).with_name("rule_oracle.py").read_text())
    imports = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not any(isinstance(node, ast.Import) for node in ast.walk(tree))
    assert imports == {("isbbrauer.f2", "F2Vector"), ("isbbrauer.model", "vp_basis")} | {
        ("isbbrauer.model", name)
        for name in (
            "Configuration", "CoverBehavior", "CoverKind", "Curve", "CurveType", "Extension", "PointType",
            "ResidueClass", "SingularPoint",
        )
    }


def test_the_oracle_loads_without_pytest():
    # ``scripts/oracle_sweep.py`` imports it where only the package is installed.
    probe = "import sys, rule_oracle; print(sorted(m for m in sys.modules if m.startswith(('pytest', '_pytest', 'test_'))))"
    path = os.pathsep.join([str(Path(model.__file__).parents[1]), str(Path(__file__).parent)])
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_rule_oracle_matches_on_corpus():
    kinds = set()
    for cfg in random_corpus(3, 300):
        assert rule_oracle(cfg) == dims(cfg), cfg
        kinds.add((cfg.cover_kind, len(curve_components(cfg)) > 1))
    assert kinds == {(kind, several) for kind in CoverKind for several in (False, True)}


@pytest.mark.parametrize("kind,seed", [(CoverKind.IRREDUCIBLE, 5), (CoverKind.SPLIT_EVERYWHERE, 0)])
def test_rule_oracle_matches_on_unions_past_the_brute_force_cap(kind, seed):
    cfg = union_past(kind, seed, 200)
    assert 200 <= len(vp_basis(cfg)) <= 210
    components = curve_components(cfg)
    assert len(components) > 20 and max(m.bit_count() for m in components) <= COMPONENT_CAP
    kernel_dim, h2nr_dim = rule_oracle(cfg)
    assert (kernel_dim, h2nr_dim) == dims(cfg)
    assert h2nr_dim > 20


def test_rule_oracle_catches_a_builder_that_drops_the_constraints(monkeypatch):
    # A builder that leaves R empty passes every GC check, and
    # ``brute_force_unramified``, which reads the same spaces, agrees with
    # the product's larger kernel; the oracle, built from the rules, does not.
    cfg = next(c for c in random_corpus(3, 300) if kernel_basis(model._build_spaces(c).m_pr).dim < len(vp_basis(c)))
    honest = rule_oracle(cfg)
    assert honest == dims(cfg)
    built = model._build_spaces

    def unconstrained(cfg):
        spaces = built(cfg)
        p = len(spaces.vp)
        return model._spaces(
            spaces.vp, spaces.vq, (), F2Matrix(0, p), [0] * p, spaces.q_columns, spaces.lift_rows,
            spaces.s_labels, spaces.s_vectors,
        )

    monkeypatch.setattr(model, "_build_spaces", unconstrained)
    faulty = dims(cfg)
    assert faulty[0] > honest[0]
    assert brauer.brute_force_unramified(cfg) == faulty
    assert rule_oracle(cfg) == honest
