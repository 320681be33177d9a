"""Two-term differential graded structure on an algebra with a marked
central element, and the cohomology that separates the mixed theory from
the stable one.

A pair (R, z) with z central determines the complex

    R --(right multiplication by z)--> R      (degrees -1 and 0)

whose degree -1 cohomology taken together with centrality,

    hh_minus_one(R, z) = { r in R : r z = 0 and r central },

is the invariant that distinguishes the full two-term structure from its
quotient by z.  For a central z the two-sided ideal (z) equals the image
of right multiplication by z, so the plain kernel of the differential
always has the dimension of R/(z); the sharper questions are whether the
differential is diagonalizable and how big the centrality-constrained
kernel is.
"""

from dataclasses import dataclass

from .cyclotomic import ONE, ZERO, Cyclotomic, root_of_unity
from .linalg import (
    InvariantError,
    Matrix,
    Subspace,
    eigensplit,
    kernel,
    matrix_order,
    minimal_polynomial,
    poly_is_squarefree,
)
from .algebra import AlgebraElement, QuotientResult, StructureAlgebra
from .report import FAIL, PASS, CheckReport


@dataclass
class TwoTermDga:
    """An algebra with a central element acting as the degree -1 -> 0
    differential of the two-term complex."""

    ring: StructureAlgebra
    z: AlgebraElement

    def __post_init__(self):
        if self.z.algebra is not self.ring:
            raise ValueError("marked element does not live in the ring")
        if not self.ring.is_central(self.z):
            raise ValueError("marked element must be central")

    def differential(self) -> Matrix:
        return self.ring.right_mult_matrix(self.z)


def stable_quotient(dga: TwoTermDga) -> QuotientResult:
    """The quotient of the ring by the two-sided ideal generated by z."""
    return dga.ring.quotient([dga.z])


def stable_dga(q: QuotientResult) -> TwoTermDga:
    """The induced pair on the stable quotient q (stable_quotient of a pair),
    where z maps to zero."""
    return TwoTermDga(q.algebra, q.algebra.zero_element())


def hh_minus_one(dga: TwoTermDga) -> Subspace:
    """{ r : r z = 0 and r central }, as a subspace of the ring: the center
    (StructureAlgebra.center) intersected with the kernel of the
    differential.  A subspace is held as its reduced echelon basis, which
    the subspace determines, so the basis does not depend on the route."""
    return dga.ring.center().intersection(kernel(dga.differential()))


@dataclass
class CohomologyProfile:
    """Dimension data of the two-term complex of (R, z)."""

    dim_h_minus1: int
    dim_h0: int
    image_dim: int
    overlap_dim: int


def complex_cohomology(dga: TwoTermDga) -> CohomologyProfile:
    """Kernel and cokernel dimensions of the differential, plus the
    kernel/image overlap (zero exactly when the 0-generalized-eigenspace
    splits off).  By rank-nullity the two cohomology dimensions agree."""
    rz = dga.differential()
    ker = kernel(rz)
    n = dga.ring.dim
    image = Subspace.from_vectors(n, rz.transpose().data)
    profile = CohomologyProfile(
        dim_h_minus1=ker.dim,
        dim_h0=n - image.dim,
        image_dim=image.dim,
        overlap_dim=ker.intersection(image).dim,
    )
    if profile.dim_h_minus1 != profile.dim_h0:
        raise InvariantError(
            f"rank-nullity violated: dim H^-1 {ker.dim} != dim H^0 {n - image.dim}"
        )
    return profile


# the largest multiplicative order of z + 1 that _candidate_eigenvalues detects
ORDER_LIMIT = 64


def _candidate_eigenvalues(dga: TwoTermDga) -> list[Cyclotomic]:
    """Candidate pool for eigenvalues of the differential.

    The typical z is s - 1 for a central s of finite multiplicative order
    m, which confines the eigenvalues to { xi^a - 1 : xi^m = 1 }.  The
    order of z + 1 is detected from its matrix (up to ORDER_LIMIT); the
    pool built from it is extended by xi^a - 1 over the ring's scalar
    order and by 0 and +-2 as a safety net.
    """
    orders = [max(dga.ring.order, 1)]
    rz1 = dga.differential().add_scalar_diag(ONE)
    m = matrix_order(rz1, ORDER_LIMIT)
    if m is not None:
        orders.append(m)
    pool: list[Cyclotomic] = []
    for order in orders:
        for a in range(order):
            v = root_of_unity(order, a) - ONE
            if all(v != w for w in pool):
                pool.append(v)
    for extra in (ZERO, Cyclotomic.from_int(2), Cyclotomic.from_int(-2)):
        if all(extra != w for w in pool):
            pool.append(extra)
    return pool


def diagonalizability_report(
    dga: TwoTermDga,
    q: QuotientResult,
    profile: CohomologyProfile,
    check_id: str = "diag-report",
) -> CheckReport:
    """Diagonalizability of the differential and its consequences, given
    the pair's stable quotient q (stable_quotient) and its cohomology
    profile (complex_cohomology).

    When the minimal polynomial is squarefree the report verifies the
    eigensplit over the candidate pool is complete and that the
    0-eigenspace has the dimension of the stable quotient.  When it is
    not, the report exhibits the nonzero kernel/image overlap as the
    witness.  Either finding is a pass; a fail means the internal
    consistency checks themselves broke (an eigenvalue outside the pool,
    or a dimension mismatch).
    """
    rz = dga.differential()
    mp = minimal_polynomial(rz)
    squarefree = poly_is_squarefree(mp)
    quotient_dim = q.algebra.dim
    witnesses: dict = {
        "minimal_polynomial": [t.pretty() for t in mp],
        "diagonalizable": squarefree,
        "kernel_dim": profile.dim_h_minus1,
        "stable_quotient_dim": quotient_dim,
        "kernel_matches_quotient": profile.dim_h_minus1 == quotient_dim,
    }
    ok = profile.dim_h_minus1 == quotient_dim
    if squarefree:
        pairs, complete = eigensplit(rz, _candidate_eigenvalues(dga))
        zero_dim = 0
        spectrum = []
        for value, space in pairs:
            if space.dim:
                spectrum.append({"eigenvalue": value.pretty(), "dim": space.dim})
            if not value:
                zero_dim = space.dim
        witnesses["split_complete"] = complete
        witnesses["spectrum"] = spectrum
        witnesses["zero_eigenspace_dim"] = zero_dim
        ok = ok and complete and zero_dim == quotient_dim
    else:
        witnesses["kernel_image_overlap_dim"] = profile.overlap_dim
        ok = ok and profile.overlap_dim > 0
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)
