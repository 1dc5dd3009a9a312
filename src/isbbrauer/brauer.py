"""The unramified Brauer group computation, all over GF(2).

From a validated configuration this module builds four spaces:

* ``P``  — one coordinate per extension with nonzero residue,
* ``Q``  — one relation per curve whose corestriction residue vanishes,
* ``R``  — one constraint per contributing crossing point,
* ``S``  — the kernel of restriction to the generic fiber,

together with the incidence map ``m_pr: P -> R``, the relation map
``m_qp: Q -> P``, and the diagonal inclusion ``S -> P``.  The group of
interest is ``ker(P/Q -> R) / S``; its dimension and explicit coset
generators (with their ramification on the base curves) make up the
report.  ``brute_force_unramified`` recomputes the dimensions by plain
enumeration and serves as an independent oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .f2 import F2Matrix, F2Vector, _insert, _set_bits, column_space, kernel_basis, member
from .model import (
    Configuration,
    CoverBehavior,
    CoverKind,
    Curve,
    CurveType,
    Extension,
    PointType,
    ResidueClass,
    SingularPoint,
    ValidationReport,
    _validate_with_spaces,
    extension_owner,
    validate,  # re-exported: ``brauer.validate`` is ``model.validate``
    vp_basis,
    vq_basis,
    zr_basis,
)

__all__ = [
    "SpaceS",
    "BrauerReport",
    "Generator",
    "InvalidConfigurationError",
    "KernelContractError",
    "CapExceededError",
    "s_space",
    "matrix_p_to_r",
    "matrix_q_to_p",
    "s_to_p_vectors",
    "unramified_brauer",
    "coset_equivalent",
    "ramification_lift",
    "residue_kernel",
    "restriction_kernel",
    "brute_force_unramified",
]


class InvalidConfigurationError(ValueError):
    """Computation refused: the configuration failed validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        lines = "; ".join(f"[{d.code}] {d.message}" for d in report.errors)
        super().__init__(f"configuration rejected: {lines}")


class KernelContractError(ValueError):
    """A vector handed to ramification_lift was not in ker(m_pr)."""


class CapExceededError(ValueError):
    """brute_force_unramified refused to enumerate past its size cap."""


@dataclass(frozen=True)
class SpaceS:
    """Kernel of restriction to the generic fiber, with named generators."""

    dim: int
    generator_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.dim != len(self.generator_labels):
            raise ValueError("dim must equal the number of generator labels")


@dataclass(frozen=True)
class Generator:
    """A coset representative in ker(m_pr) with its ramification lift."""

    vector: F2Vector
    ramification: tuple[tuple[str, ResidueClass], ...]


@dataclass(frozen=True)
class BrauerReport:
    cover_kind: CoverKind
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


def _sheet_residues(c: Curve) -> dict[int, ResidueClass]:
    return {ext.sheet: ext.residue for ext in c.extensions if ext.sheet in (1, 2)}


def s_space(cfg: Configuration) -> SpaceS:
    """Dimension and generators of the restriction kernel.

    Irreducible cover: one generator, cores(beta), iff some curve has a
    nonzero corestriction residue.  Split cover: beta_i is nonzero iff
    some sheet-i extension carries residue, and beta_1 = beta_2 iff the
    sheet-wise residues agree curve by curve; generators are the distinct
    nonzero classes among beta_1, beta_2.
    """
    if cfg.cover_kind is CoverKind.IRREDUCIBLE:
        if any(not c.cores_residue.is_zero for c in cfg.curves):
            return SpaceS(1, ("cores(beta)",))
        return SpaceS(0, ())
    nonzero = {1: False, 2: False}
    equal = True
    for c in cfg.curves:
        res = _sheet_residues(c)
        for i in (1, 2):
            if not res.get(i, ResidueClass()).is_zero:
                nonzero[i] = True
        if res.get(1, ResidueClass()) != res.get(2, ResidueClass()):
            equal = False
    labels: list[str] = []
    if nonzero[1]:
        labels.append("beta_1")
    if nonzero[2] and not (equal and nonzero[1]):
        labels.append("beta_2")
    return SpaceS(len(labels), tuple(labels))


def _point_relates(point: SingularPoint, curve: Curve, ext_id: str) -> bool:
    """Whether the extension contributes to the point's constraint row.

    Encodes the incidence rules: II_II fires for split curves; III_II
    always fires; IV_II fires for the marked extension on the Type IV
    side and for listed extensions on the Type II side; IVp_IV fires for
    the marked extensions.
    """
    et = point.etype
    if et is PointType.II_II:
        return curve.cover_behavior is CoverBehavior.SPLIT
    if et is PointType.III_II:
        return True
    if et is PointType.IV_II:
        if curve.deg_type is CurveType.IV:
            return ext_id == curve.marking
        return ext_id in point.meets_marked
    if et is PointType.IVP_IV:
        return ext_id == curve.marking
    return False


def _incidence_matrix(
    vp: list[Extension], zr: list[SingularPoint], owner: dict[str, Curve]
) -> F2Matrix:
    """m_pr, by walking each point's incident curves.

    Bit j of a point's row is set when the owner of extension j is one of
    the point's curves and ``_point_relates`` fires, exactly as a scan of
    every (point, extension) pair would find, but each point only visits
    the P coordinates of its own curves.
    """
    by_curve: dict[str, list[tuple[int, Extension, Curve]]] = {}
    for j, ext in enumerate(vp):
        curve = owner[ext.id]
        by_curve.setdefault(curve.id, []).append((j, ext, curve))
    masks = []
    for point in zr:
        mask = 0
        for curve_id in point.incident:
            for j, ext, curve in by_curve.get(curve_id, ()):
                if _point_relates(point, curve, ext.id):
                    mask |= 1 << j
        masks.append(mask)
    return F2Matrix(len(zr), len(vp), tuple(masks))


def _relation_matrix(
    vp: list[Extension], vq: list[Curve], owner: dict[str, Curve]
) -> F2Matrix:
    index = {c.id: i for i, c in enumerate(vq)}
    masks = []
    for ext in vp:
        col = index.get(owner[ext.id].id)
        masks.append(0 if col is None else 1 << col)
    return F2Matrix(len(vp), len(vq), tuple(masks))


def _s_vectors(vp: list[Extension], labels: tuple[str, ...]) -> list[F2Vector]:
    p = len(vp)
    vectors = []
    for label in labels:
        if label == "cores(beta)":
            mask = (1 << p) - 1
        else:
            sheet = 1 if label == "beta_1" else 2
            mask = 0
            for j, ext in enumerate(vp):
                if ext.sheet == sheet:
                    mask |= 1 << j
        vectors.append(F2Vector(p, mask))
    return vectors


def matrix_p_to_r(cfg: Configuration) -> F2Matrix:
    """Incidence map P -> R; rows follow zr_basis, columns vp_basis."""
    return _incidence_matrix(vp_basis(cfg), zr_basis(cfg), extension_owner(cfg))


def matrix_q_to_p(cfg: Configuration) -> F2Matrix:
    """Relation map Q -> P; column of a curve marks its extensions in P."""
    return _relation_matrix(vp_basis(cfg), vq_basis(cfg), extension_owner(cfg))


def s_to_p_vectors(cfg: Configuration) -> list[F2Vector]:
    """Images in P of the s_space generators (diagonal inclusions)."""
    return _s_vectors(vp_basis(cfg), s_space(cfg).generator_labels)


@dataclass(frozen=True)
class _Spaces:
    """Every basis and map of one configuration, built once and shared.

    The GC checks, the computation and the ramification lift all read
    this value.  ``owner`` maps an extension id to its curve and
    ``curve_rank`` a curve id to its declaration index; both let the
    last declaration win, as ``extension_owner`` does.
    """

    cfg: Configuration
    vp: tuple[Extension, ...]
    vq: tuple[Curve, ...]
    zr: tuple[SingularPoint, ...]
    owner: dict[str, Curve]
    curve_rank: dict[str, int]
    m_pr: F2Matrix
    m_qp: F2Matrix
    s_labels: tuple[str, ...]
    s_vectors: tuple[F2Vector, ...]

    @cached_property
    def pr_columns(self) -> list[int]:
        """The column masks of ``m_pr``: the image in R of each basis vector of P."""
        return self.m_pr.column_masks()

    def r_image(self, mask: int) -> int:
        """The image in R of the P vector ``mask``.

        That is the XOR of the ``m_pr`` columns on the support of ``mask``.
        """
        columns = self.pr_columns
        image = 0
        for j in _set_bits(mask):
            image ^= columns[j]
        return image

    @cached_property
    def q_columns(self) -> list[int]:
        """The column masks of ``m_qp``: each Q relation as a vector of P."""
        return self.m_qp.column_masks()

    @cached_property
    def qs_echelon(self) -> tuple[int, dict[int, int]]:
        """Rank of Q, and an echelon basis of image(Q) + image(S).

        Built by pivot insertion, the Q columns first and then the S
        vectors.  The GC2/GC4 checks count ranks with it and generator
        selection extends a copy of it.
        """
        pivots: dict[int, int] = {}
        q_rank = sum(_insert(pivots, col) for col in self.q_columns)
        for vec in self.s_vectors:
            _insert(pivots, vec.mask)
        return q_rank, pivots


def _build_spaces(cfg: Configuration) -> _Spaces:
    """The spaces of ``cfg``; each piece equals its public builder's result."""
    vp = vp_basis(cfg)
    vq = vq_basis(cfg)
    zr = zr_basis(cfg)
    owner = extension_owner(cfg)
    s_labels = s_space(cfg).generator_labels
    return _Spaces(
        cfg=cfg,
        vp=tuple(vp),
        vq=tuple(vq),
        zr=tuple(zr),
        owner=owner,
        curve_rank={c.id: i for i, c in enumerate(cfg.curves)},
        m_pr=_incidence_matrix(vp, zr, owner),
        m_qp=_relation_matrix(vp, vq, owner),
        s_labels=s_labels,
        s_vectors=tuple(_s_vectors(vp, s_labels)),
    )


def ramification_lift(
    cfg: Configuration, vec: F2Vector
) -> list[tuple[str, ResidueClass]]:
    """Ramification on the base curves of a class given in P-coordinates.

    Each extension with coefficient 1 contributes at its base curve: the
    extension residue for split and ramified curves, the corestriction
    residue for inert ones.  Curves whose total vanishes are omitted.
    ``unramified_brauer`` lifts each generator through the same rule on
    the spaces it has already built; this entry point builds them for
    one call.

    Raises:
        KernelContractError: if ``vec`` is not in ker(m_pr) — such a
            vector does not define a class on which the lift makes sense.
    """
    spaces = _build_spaces(cfg)
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


def _lift(spaces: _Spaces, vec: F2Vector) -> list[tuple[str, ResidueClass]]:
    acc: dict[str, ResidueClass] = {}
    for j in vec.support():
        ext = spaces.vp[j]
        curve = spaces.owner[ext.id]
        if curve.cover_behavior is CoverBehavior.INERT:
            contribution = curve.cores_residue
        else:
            contribution = ext.residue
        acc[curve.id] = acc.get(curve.id, ResidueClass()) + contribution
    order = sorted(acc, key=spaces.curve_rank.__getitem__)
    return [(cid, acc[cid]) for cid in order if not acc[cid].is_zero]


def residue_kernel(cfg: Configuration, c: Curve) -> list[ResidueClass]:
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


def restriction_kernel(cfg: Configuration) -> tuple[SpaceS, str]:
    """The s_space together with a one-line description of its case."""
    space = s_space(cfg)
    if cfg.cover_kind is CoverKind.IRREDUCIBLE:
        if space.dim == 0:
            return space, "trivial: cores(beta) has no ramification"
        return space, "generated by cores(beta)"
    if space.dim == 0:
        return space, "trivial: beta_1 and beta_2 are both unramified"
    return space, "generated by " + ", ".join(space.generator_labels)


def _report_assertions() -> tuple[tuple[str, str], ...]:
    return (("gc1", "ok"), ("gc2", "ok"), ("gc3", "ok"), ("gc4", "ok"))


def unramified_brauer(cfg: Configuration) -> BrauerReport:
    """Compute the full report for a valid configuration.

    Validation is the same as ``validate``'s, and the spaces it builds for
    the GC checks are the ones the computation reads: each basis and map
    is built once.  kernel_dim is dim ker(m_pr) minus dim image(m_qp);
    subtracting dim S gives h2nr_dim.  Generators complete image(Q) +
    image(S) to the kernel greedily over the canonical kernel basis: an
    echelon basis seeded with the Q columns and the S vectors takes each
    kernel row in turn, and a row that is not already in its span becomes
    a generator.  Output is therefore deterministic in the declaration
    order.

    Raises:
        InvalidConfigurationError: when validation reports errors; its
            report carries the errors and the warnings.
    """
    report, spaces = _validate_with_spaces(cfg)
    if report.errors:
        raise InvalidConfigurationError(report)

    kernel = kernel_basis(spaces.m_pr)
    q_rank, qs_pivots = spaces.qs_echelon
    kernel_dim = kernel.dim - q_rank
    h2nr_dim = kernel_dim - len(spaces.s_labels)

    pivots = dict(qs_pivots)
    chosen = [row for row in kernel.basis if _insert(pivots, row.mask)]
    _check_kernel(spaces, chosen)
    generators = [Generator(row, tuple(_lift(spaces, row))) for row in chosen]

    return BrauerReport(
        cover_kind=cfg.cover_kind,
        s_labels=spaces.s_labels,
        p_labels=tuple(ext.id for ext in spaces.vp),
        q_labels=tuple(c.id for c in spaces.vq),
        r_labels=tuple(p.id for p in spaces.zr),
        m_pr=spaces.m_pr,
        m_qp=spaces.m_qp,
        m_sp=F2Matrix.from_columns(spaces.s_vectors, rows=len(spaces.vp)),
        kernel_dim=kernel_dim,
        h2nr_dim=h2nr_dim,
        generators=tuple(generators),
        assertions=_report_assertions(),
    )


def coset_equivalent(report: BrauerReport, a: F2Vector, b: F2Vector) -> bool:
    """Whether two vectors in P represent the same class modulo image(Q)."""
    return member(column_space(report.m_qp), a + b)


_BRUTE_FORCE_CAP = 20


def brute_force_unramified(cfg: Configuration) -> tuple[int, int]:
    """(kernel_dim, h2nr_dim) by enumerating all of P.

    Walks every vector of P, keeps those annihilated by m_pr, and counts
    cosets of image(m_qp) among them by marking.  Exponential in dim P,
    hence the hard cap; exists purely as an oracle for the linear-algebra
    path.

    Raises:
        CapExceededError: when dim P exceeds 20.
    """
    p = len(vp_basis(cfg))
    if p > _BRUTE_FORCE_CAP:
        raise CapExceededError(f"dim P = {p} exceeds enumeration cap {_BRUTE_FORCE_CAP}")
    m_pr = matrix_p_to_r(cfg)
    m_qp = matrix_q_to_p(cfg)
    rows = m_pr.row_masks
    kernel = [v for v in range(1 << p) if all((r & v).bit_count() % 2 == 0 for r in rows)]

    image = {0}
    for j in range(m_qp.cols):
        col = m_qp.column(j).mask
        image |= {x ^ col for x in image}

    visited: set[int] = set()
    cosets = 0
    for v in kernel:
        if v in visited:
            continue
        cosets += 1
        visited.update(v ^ w for w in image)
    if cosets & (cosets - 1):
        raise AssertionError("coset count is not a power of two; image not in kernel?")
    kernel_dim = cosets.bit_length() - 1
    return kernel_dim, kernel_dim - s_space(cfg).dim
