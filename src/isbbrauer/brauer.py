"""The unramified Brauer group computation, all over GF(2).

A configuration has the spaces P, Q, R, S and the maps ``m_pr: P -> R``,
``m_qp: Q -> P`` and ``m_sp: S -> P``, which ``model._build_spaces``
builds (the two maps into P on read).  Every public function that reads
them validates the configuration first (``model._checked``, through
``_valid_spaces``), raises ``InvalidConfigurationError`` on any error,
and reads the spaces that validation built.  The group of interest is
``ker(P/Q -> R) / S``; its dimension and explicit coset generators (with
their ramification on the base curves) make up the report.
``brute_force_unramified`` recomputes the dimensions by plain
enumeration over those same spaces, so it checks the kernel and the
Q+S echelon, but not the builder that made them.  The independent
oracle is the tests' rule oracle (``tests/rule_oracle.py``), which
rebuilds the rows, the Q columns and S from the stated rules and
enumerates each connected component of the curves.
"""

from __future__ import annotations

from collections import namedtuple

from . import model
from .f2 import F2Matrix, F2Vector, _insert, kernel_basis
from .model import (
    Configuration,
    CoverBehavior,
    Curve,
    CurveType,
    ResidueClass,
    ValidationReport,
    _Spaces,
)

__all__ = [
    "BrauerReport",
    "Generator",
    "InvalidConfigurationError",
    "KernelContractError",
    "CapExceededError",
    "matrix_p_to_r",
    "unramified_brauer",
    "ramification_lift",
    "residue_kernel",
    "brute_force_unramified",
]


class InvalidConfigurationError(ValueError):
    """Computation refused: the configuration failed validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        lines = "; ".join(f"[{d.code}] {d.message}" for d in report.errors)
        super().__init__(f"configuration rejected: {lines}")


class KernelContractError(ValueError):
    """A vector was not in ker(m_pr).

    ``ramification_lift`` raises it for the vector it was handed, and
    ``unramified_brauer`` for a generator it chose, which would be a bug.
    """


class CapExceededError(ValueError):
    """brute_force_unramified refused to enumerate past its size cap."""


class Generator(namedtuple("Generator", "vector ramification")):
    """A coset representative in ker(m_pr) with its ramification lift.

    Fields:
        vector: F2Vector
        ramification: tuple[tuple[str, ResidueClass], ...]
    """

    __slots__ = ()


class BrauerReport(
    namedtuple(
        "BrauerReport",
        "s_labels p_labels q_labels r_labels m_pr m_qp m_sp kernel_dim h2nr_dim generators assertions",
    )
):
    """What ``unramified_brauer`` returns: the spaces, maps, dimensions and generators.

    Fields:
        s_labels: tuple[str, ...]
        p_labels: tuple[str, ...]
        q_labels: tuple[str, ...]
        r_labels: tuple[str, ...]
        m_pr: F2Matrix
        m_qp: F2Matrix
        m_sp: F2Matrix
        kernel_dim: int
        h2nr_dim: int
        generators: tuple[Generator, ...]
        assertions: tuple[tuple[str, str], ...]
    """

    __slots__ = ()

    @property
    def dims(self) -> dict[str, int]:
        return {
            "s": len(self.s_labels),
            "p": len(self.p_labels),
            "q": len(self.q_labels),
            "r": len(self.r_labels),
            "kernel": self.kernel_dim,
            "h2nr": self.h2nr_dim,
        }


def _valid_spaces(cfg: Configuration) -> _Spaces:
    """The spaces that validating ``cfg`` built; ``InvalidConfigurationError`` if it found errors."""
    report, spaces = model._checked(cfg)
    if report.errors:
        raise InvalidConfigurationError(report)
    return spaces


def matrix_p_to_r(cfg: Configuration) -> F2Matrix:
    """``m_pr: P -> R`` of a valid ``cfg``; kept because perfbench calls it and traces it by name."""
    return _valid_spaces(cfg).m_pr


def ramification_lift(
    cfg: Configuration, vec: F2Vector
) -> list[tuple[str, ResidueClass]]:
    """Ramification on the base curves of a class given in P-coordinates.

    Each extension with coefficient 1 contributes at its base curve: the
    extension residue for split and ramified curves, the corestriction
    residue for inert ones.  Curves whose total vanishes are omitted.
    ``unramified_brauer`` lifts each generator through the same rule.

    Raises:
        InvalidConfigurationError: when validation reports errors.
        KernelContractError: if ``vec`` is not in ker(m_pr) — such a
            vector does not define a class on which the lift makes sense.
    """
    spaces = _valid_spaces(cfg)
    _check_kernel(spaces, [vec])
    return _lift(spaces, vec)


def _check_kernel(spaces: _Spaces, vectors: list[F2Vector]) -> None:
    """Raise KernelContractError unless every vector lies in ker(m_pr).

    Each vector's image is the XOR of the ``m_pr`` columns on its
    support, the columns the GC1/GC3 checks built: the cost is the total
    support of the vectors, with no matrix-vector product per vector.
    """
    p = len(spaces.vp)
    for vec in vectors:
        if vec.length != p:
            raise KernelContractError(f"vector has length {vec.length}, expected dim P = {p}")
        if spaces.r_image(vec.mask):
            raise KernelContractError("vector is not in the kernel of P -> R")


_NO_SYMBOLS: frozenset[str] = frozenset()


def _lift(spaces: _Spaces, vec: F2Vector) -> list[tuple[str, ResidueClass]]:
    """The per-curve ramification of ``vec``, curves with a zero total left out.

    P's coordinates come curve by curve in declaration order, so the walk
    over the set bits, lowest first, meets the curves in that order.
    A curve's total vanishes only when ``vec`` picks none of the curve's
    P coordinates, or all of them on a split or inert curve whose
    corestriction residue is 0: the support of that curve's Q relation.
    So the lift is empty only on image(Q), and generator selection,
    which seeds its echelon basis with the Q columns, never picks a
    vector whose lift is empty.
    """
    rows = spaces.lift_rows
    acc: dict[str, frozenset[str]] = {}
    mask = vec.mask
    while mask:
        low = mask & -mask
        cid, symbols = rows[low.bit_length() - 1]
        acc[cid] = acc.get(cid, _NO_SYMBOLS) ^ symbols
        mask ^= low
    return [(cid, ResidueClass(symbols)) for cid, symbols in acc.items() if symbols]


def residue_kernel(c: Curve) -> list[ResidueClass]:
    """Generators of the local kernel at a curve, zero classes included.

    Type I contributes nothing; Type IV curves contribute their marked
    extension's residue; inert Type II curves their corestriction
    residue; split Type II curves both extension residues; Type III
    curves their single extension residue.
    """
    if c.deg_type is CurveType.I:
        return []
    if c.deg_type is CurveType.IV:
        return [ext.residue for ext in c.extensions if ext.id == c.marking]
    if c.cover_behavior is CoverBehavior.INERT:
        return [c.cores_residue]
    return [ext.residue for ext in c.extensions]


# Not derived: a report is built only after validation ran GC1-GC4 and all four passed.
_REPORT_ASSERTIONS = (("gc1", "ok"), ("gc2", "ok"), ("gc3", "ok"), ("gc4", "ok"))


def unramified_brauer(cfg: Configuration) -> BrauerReport:
    """Compute the full report for a valid configuration.

    Validation is ``validate``'s, through ``_valid_spaces``, and the
    computation goes on from the spaces its GC checks read: each basis and
    map is built once.
    kernel_dim is dim ker(m_pr) minus dim image(m_qp); subtracting dim S
    gives h2nr_dim.  Generators complete image(Q) +
    image(S) to the kernel greedily over the canonical kernel basis: an
    echelon basis seeded with the Q columns and the S vectors takes each
    kernel row in turn, and a row that is not already in its span becomes
    a generator.  Output is therefore deterministic in the declaration
    order.

    Raises:
        InvalidConfigurationError: when validation reports errors; its
            report carries the errors and the warnings.
    """
    spaces = _valid_spaces(cfg)
    kernel = kernel_basis(spaces.m_pr)
    q_rank, qs_pivots = spaces.qs_echelon
    kernel_dim = kernel.dim - q_rank
    h2nr_dim = kernel_dim - len(spaces.s_labels)

    pivots = dict(qs_pivots)
    chosen = [row for row in kernel.basis if _insert(pivots, row.mask)]
    _check_kernel(spaces, chosen)
    generators = [Generator(row, tuple(_lift(spaces, row))) for row in chosen]

    return BrauerReport(
        s_labels=spaces.s_labels,
        p_labels=tuple(ext.id for ext in spaces.vp),
        q_labels=tuple(c.id for c in spaces.vq),
        r_labels=tuple(p.id for p in spaces.zr),
        m_pr=spaces.m_pr,
        m_qp=spaces.m_qp,
        m_sp=spaces.m_sp,
        kernel_dim=kernel_dim,
        h2nr_dim=h2nr_dim,
        generators=tuple(generators),
        assertions=_REPORT_ASSERTIONS,
    )


_BRUTE_FORCE_CAP = 20


def brute_force_unramified(cfg: Configuration) -> tuple[int, int]:
    """(kernel_dim, h2nr_dim) by enumerating all of P.

    Walks every vector of P, keeps those annihilated by m_pr, and counts
    cosets of image(m_qp) among them by marking.  Exponential in dim P,
    hence the hard cap; exists purely as an oracle for the linear-algebra
    path.

    Raises:
        InvalidConfigurationError: when validation reports errors.
        CapExceededError: when dim P exceeds 20.
        AssertionError: when a Q column lies outside the kernel of m_pr,
            or the kernel found is not a subspace.
    """
    spaces = _valid_spaces(cfg)
    p = len(spaces.vp)
    if p > _BRUTE_FORCE_CAP:
        raise CapExceededError(f"dim P = {p} exceeds enumeration cap {_BRUTE_FORCE_CAP}")
    rows = spaces.m_pr.row_masks
    if any((r & col).bit_count() % 2 for col in spaces.q_columns for r in rows):
        raise AssertionError("a Q column is not in the kernel of m_pr")
    kernel = [v for v in range(1 << p) if all((r & v).bit_count() % 2 == 0 for r in rows)]

    image = {0}
    for col in spaces.q_columns:
        image |= {x ^ col for x in image}

    visited: set[int] = set()
    cosets = 0
    for v in kernel:
        if v in visited:
            continue
        cosets += 1
        visited.update(v ^ w for w in image)
    if cosets & (cosets - 1):
        raise AssertionError("coset count is not a power of two; the kernel found is not a subspace")
    kernel_dim = cosets.bit_length() - 1
    return kernel_dim, kernel_dim - len(spaces.s_labels)
