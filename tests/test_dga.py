"""Two-term dga layer: the marked-element complex, its cohomology, the
stable quotient, and the centrality-constrained degree -1 kernel."""

import random

import pytest

from hopfcheck.cyclotomic import Cyclotomic
from hopfcheck.hopf import group_algebra, taft
from hopfcheck.linalg import Matrix, Subspace, invert_matrix, rank, sparse_of
from hopfcheck.algebra import StructureAlgebra
from hopfcheck.doubles import (
    build_twisted_double,
    split_blocks,
    taft_double_generators,
)
from hopfcheck.dga import (
    TwoTermDga,
    complex_cohomology,
    diagonalizability_report,
    hh_minus_one,
    stable_dga,
    stable_quotient,
)

c = Cyclotomic.coerce


@pytest.fixture(scope="module")
def p2_blocks():
    d = build_twisted_double(taft(2))
    gens = taft_double_generators(d)
    blocks = split_blocks(d, gens)
    dgas = [
        TwoTermDga(blk.algebra, blk.project(d.sigma) - blk.algebra.unit_element())
        for blk in blocks
    ]
    return d, blocks, gens, dgas


def test_marked_element_must_be_central():
    d = build_twisted_double(taft(2))
    x = taft_double_generators(d)["x"]
    with pytest.raises(ValueError):
        TwoTermDga(d.algebra, x)
    TwoTermDga(d.algebra, d.sigma - d.one)  # sigma - 1 is fine


def test_differential_is_x_prime_x_on_odd_block(p2_blocks):
    d, blocks, gens, dgas = p2_blocks
    w = blocks[1].project(gens["x'"]) * blocks[1].project(gens["x"])
    assert dgas[1].z == w


def test_hh_minus_one_separation(p2_blocks):
    # the invariant that tells the two-term structure apart from its
    # stable quotient: dim 2 before quotienting, dim 1 after
    d, blocks, gens, dgas = p2_blocks
    blk = blocks[1]
    hh = hh_minus_one(dgas[1])
    assert hh.dim == 2
    xxp = blk.project(gens["x"] * gens["x'"])
    xxpg = blk.project(gens["x"] * gens["x'"] * gens["g"])
    claimed = Subspace.from_vectors(
        blk.algebra.dim, [sparse_of(xxp.coords), sparse_of(xxpg.coords)]
    )
    assert hh == claimed

    sdga, q = stable_dga(dgas[1])
    shh = hh_minus_one(sdga)
    assert shh.dim == 1
    assert shh == Subspace.from_vectors(q.algebra.dim, [sparse_of(q.algebra.unit)])


def test_centers_drop_across_stabilization(p2_blocks):
    d, blocks, gens, dgas = p2_blocks
    assert blocks[1].algebra.center().dim == 3
    _, q = stable_dga(dgas[1])
    assert q.algebra.center().dim == 1


def test_cohomology_profile_on_odd_block(p2_blocks):
    d, blocks, gens, dgas = p2_blocks
    prof = complex_cohomology(dgas[1])
    assert (prof.dim_h_minus1, prof.dim_h0) == (6, 6)
    assert prof.image_dim == 2
    assert prof.overlap_dim == 2  # kernel meets image: not diagonalizable


def test_even_block_is_diagonalizable(p2_blocks):
    d, blocks, gens, dgas = p2_blocks
    rep = diagonalizability_report(dgas[0])
    assert rep.passed, rep.witnesses
    assert rep.witnesses["diagonalizable"]
    assert rep.witnesses["zero_eigenspace_dim"] == 4
    assert rep.witnesses["stable_quotient_dim"] == 4
    prof = complex_cohomology(dgas[0])
    assert prof.overlap_dim == 0


def test_odd_block_is_not_diagonalizable(p2_blocks):
    d, blocks, gens, dgas = p2_blocks
    rep = diagonalizability_report(dgas[1])
    assert rep.passed, rep.witnesses
    assert not rep.witnesses["diagonalizable"]
    assert rep.witnesses["kernel_image_overlap_dim"] == 2
    assert rep.witnesses["kernel_matches_quotient"]


def test_even_block_stable_quotient_is_matrix_algebra(p2_blocks):
    # dim 4, trivial radical, one-dimensional center: 2x2 matrices
    d, blocks, gens, dgas = p2_blocks
    q = stable_quotient(dgas[0])
    assert q.algebra.dim == 4
    assert q.algebra.radical().dim == 0
    assert q.algebra.center().dim == 1
    assert not q.algebra.is_commutative()


def test_group_double_differentials_are_diagonalizable():
    for n in (1, 2, 3):
        dg = build_twisted_double(group_algebra(n))
        dga = TwoTermDga(dg.algebra, dg.sigma - dg.one)
        rep = diagonalizability_report(dga)
        assert rep.passed, (n, rep.witnesses)
        assert rep.witnesses["diagonalizable"]
        assert rep.witnesses["zero_eigenspace_dim"] == rep.witnesses["stable_quotient_dim"]


def test_invertible_marked_element_kills_everything():
    dg = build_twisted_double(group_algebra(3))
    dga = TwoTermDga(dg.algebra, dg.sigma)
    assert hh_minus_one(dga).dim == 0
    assert stable_quotient(dga).algebra.dim == 0


def test_zero_marked_element_gives_center():
    dg = build_twisted_double(group_algebra(2))
    dga = TwoTermDga(dg.algebra, dg.algebra.zero_element())
    assert hh_minus_one(dga) == dg.algebra.center()


def _change_basis(alg: StructureAlgebra, p: Matrix) -> StructureAlgebra:
    """The same algebra written in the basis given by the columns of p."""
    n = alg.dim
    pinv = invert_matrix(p)
    cols = [tuple(p.column(j)) for j in range(n)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = alg.mul_coords(cols[i], cols[j])
            new = pinv.apply(list(prod))
            row.append({k: v for k, v in enumerate(new) if v})
        rows.append(row)
    unit = pinv.apply(list(alg.unit))
    return StructureAlgebra(n, rows, unit, name=f"{alg.name}~", check="pure")


def test_invariants_survive_a_change_of_basis(p2_blocks):
    d, blocks, gens, dgas = p2_blocks
    dga = dgas[1]
    n = dga.ring.dim
    rng = random.Random(20240801)
    while True:
        data = [[c(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(n)]
        p = Matrix(data, ncols=n)
        if rank(p) == n:
            break
    moved = _change_basis(dga.ring, p)
    z_new = moved.element(invert_matrix(p).apply(list(dga.z.coords)))
    moved_dga = TwoTermDga(moved, z_new)
    assert hh_minus_one(moved_dga).dim == hh_minus_one(dga).dim
    prof0 = complex_cohomology(dga)
    prof1 = complex_cohomology(moved_dga)
    assert (prof0.dim_h_minus1, prof0.image_dim, prof0.overlap_dim) == (
        prof1.dim_h_minus1,
        prof1.image_dim,
        prof1.overlap_dim,
    )
    rep0 = diagonalizability_report(dga)
    rep1 = diagonalizability_report(moved_dga)
    assert rep0.witnesses["diagonalizable"] == rep1.witnesses["diagonalizable"]


def test_rank_nullity_failure_raises(p2_blocks, monkeypatch):
    # the cohomology dimensions are cross-checked by an InvariantError, which
    # python -O keeps
    from hopfcheck import dga as dga_module
    from hopfcheck.linalg import InvariantError

    d, blocks, gens, dgas = p2_blocks
    monkeypatch.setattr(dga_module, "kernel", lambda m: Subspace.zero(m.ncols))
    with pytest.raises(InvariantError, match="rank-nullity"):
        complex_cohomology(dgas[1])
