"""Exact linear algebra tests: elimination, kernels, minimal polynomials."""

import random

import pytest

from hopfcheck.cyclotomic import Cyclotomic, root_of_unity
from hopfcheck.linalg import (
    EchelonBasis,
    InvariantError,
    Matrix,
    Subspace,
    eigensplit,
    is_diagonalizable,
    kernel,
    matrix_from_json,
    minimal_polynomial,
    poly_eval_matrix,
    poly_gcd,
    poly_is_squarefree,
    rank,
    rref,
    solve,
    sparse_of,
)


def c(v) -> Cyclotomic:
    return Cyclotomic.coerce(v)


def cm(rows) -> Matrix:
    return Matrix([[c(x) for x in r] for r in rows], ncols=len(rows[0]) if rows else 0)


def dense(vec: dict, n: int) -> list:
    return [vec.get(j, c(0)) for j in range(n)]


def rand_matrix(rng, nrows, ncols, order=1, span=9):
    from hopfcheck.cyclotomic import phi_degree

    deg = phi_degree(order)
    return Matrix(
        [
            [
                Cyclotomic(order, tuple(rng.randint(-span, span) for _ in range(deg)))
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ],
        ncols=ncols,
    )


def test_rref_simple():
    rows, pivots = rref(cm([[2, 4], [1, 2]]))
    assert pivots == [0]
    assert rows[0] == {0: c(1), 1: c(2)}


def test_rank_via_product_factorization():
    # A (5x3) @ B (3x5) has rank <= 3, so the kernel has dim >= 2.
    rng = random.Random(11)
    for _ in range(10):
        a = rand_matrix(rng, 5, 3)
        b = rand_matrix(rng, 3, 5)
        m = a @ b
        assert rank(m) <= 3
        ker = kernel(m)
        assert ker.dim >= 2
        for v in ker.basis:
            assert all(not x for x in m.apply(dense(v, m.ncols)))


def test_kernel_rank_nullity_random():
    rng = random.Random(23)
    for order in [1, 3]:
        for _ in range(8):
            m = rand_matrix(rng, 4, 6, order=order, span=4)
            ker = kernel(m)
            assert ker.dim + rank(m) == 6


def test_kernel_of_empty_and_zero():
    assert kernel(Matrix([], ncols=0)).dim == 0
    assert kernel(Matrix([], ncols=3)).dim == 3
    assert kernel(Matrix.zeros(2, 4)).dim == 4


def test_solve_consistent_and_inconsistent():
    rng = random.Random(5)
    for _ in range(10):
        m = rand_matrix(rng, 4, 4, order=3, span=3)
        x0 = [Cyclotomic(3, (rng.randint(-3, 3), rng.randint(-3, 3))) for _ in range(4)]
        b = m.apply(x0)
        x = solve(m, sparse_of(b))
        assert x is not None
        assert m.apply(dense(x, 4)) == b
    bad = solve(cm([[1, 0], [1, 0]]), {0: c(1), 1: c(2)})
    assert bad is None


def test_solve_shape_mismatch_raises():
    with pytest.raises(ValueError):
        solve(cm([[1, 0]]), {0: c(1), 1: c(2)})


def test_minimal_polynomial_basic():
    assert minimal_polynomial(Matrix([], ncols=0)) == [c(1)]
    assert minimal_polynomial(Matrix.zeros(3, 3)) == [c(0), c(1)]
    assert minimal_polynomial(Matrix.identity(4)) == [c(-1), c(1)]
    nil = cm([[0, 1], [0, 0]])
    assert minimal_polynomial(nil) == [c(0), c(0), c(1)]


def test_minimal_polynomial_annihilates_random():
    rng = random.Random(99)
    for _ in range(6):
        m = rand_matrix(rng, 5, 5, span=3)
        poly = minimal_polynomial(m)
        assert poly[-1] == 1
        assert poly_eval_matrix(poly, m).is_zero()


def _block_diag(a: Matrix, b: Matrix) -> Matrix:
    n = a.nrows + b.nrows
    data = [[c(0)] * n for _ in range(n)]
    for off, m in ((0, a), (a.nrows, b)):
        for i in range(m.nrows):
            for j in range(m.ncols):
                data[off + i][off + j] = m[i, j]
    return Matrix(data, ncols=n)


@pytest.mark.parametrize("order", [1, 3, 4, 12])
def test_minimal_polynomial_has_no_lower_degree_relation(order):
    # for degree d, I, M, ..., M^(d-1) have rank d: no lower-degree
    # polynomial annihilates M.  Block copies A + A and A + 0 (and sparse
    # entries) give degrees below the size of the matrix.
    rng = random.Random(order)
    for size in (1, 2, 3):
        a = rand_matrix(rng, size, size, order=order, span=2)
        sparse = Matrix(
            [[x if rng.random() < 0.4 else c(0) for x in a.row(i)] for i in range(size)],
            ncols=size,
        )
        for m in (a, sparse, _block_diag(a, a), _block_diag(sparse, Matrix.zeros(2, 2))):
            poly = minimal_polynomial(m)
            d = len(poly) - 1
            assert poly[-1] == 1 and poly_eval_matrix(poly, m).is_zero()
            powers, power = [], Matrix.identity(m.nrows)
            for _ in range(d):
                powers.append([x for i in range(m.nrows) for x in power.row(i)])
                power = power @ m
            assert rank(Matrix(powers, ncols=m.nrows**2)) == d


def test_eigensplit_diagonal():
    z = root_of_unity(3)
    m = Matrix(
        [
            [c(1), c(0), c(0)],
            [c(0), c(1), c(0)],
            [c(0), c(0), z],
        ]
    )
    spaces, complete = eigensplit(m, [c(1), z, z * z])
    assert complete
    dims = {(lam == 1, lam == z): s.dim for lam, s in spaces}
    assert dims[(True, False)] == 2
    assert dims[(False, True)] == 1


def test_eigensplit_nilpotent_incomplete():
    nil = cm([[0, 1], [0, 0]])
    spaces, complete = eigensplit(nil, [c(0), c(1), c(-1)])
    assert not complete
    assert len(spaces) == 1 and spaces[0][1].dim == 1


def test_is_diagonalizable():
    assert is_diagonalizable(Matrix.identity(3))
    assert is_diagonalizable(Matrix.zeros(2, 2))
    assert not is_diagonalizable(cm([[0, 1], [0, 0]]))
    assert is_diagonalizable(cm([[0, 1], [1, 0]]))


def test_poly_gcd_and_squarefree():
    # (t-1)^2 (t+2) vs its derivative share the factor (t-1)
    p = [c(2), c(-3), c(0), c(1)]  # t^3 - 3t + 2 = (t-1)^2 (t+2)
    assert not poly_is_squarefree(p)
    q = [c(-1), c(0), c(1)]  # t^2 - 1
    assert poly_is_squarefree(q)
    g = poly_gcd(p, q)
    assert g == [c(-1), c(1)]  # common factor t - 1


def test_echelon_basis_incremental():
    eb = EchelonBasis(3)
    assert eb.add({0: c(1), 1: c(2)})
    assert not eb.add({0: c(2), 1: c(4)})
    assert eb.add({2: c(5)})
    assert eb.dim == 2
    assert eb.contains({0: c(3), 1: c(6), 2: c(7)})
    assert not eb.contains({1: c(1)})
    coords = eb.coordinates({0: c(3), 1: c(6), 2: c(7)})
    assert coords == {0: c(3), 1: c(7)}


def test_subspace_equality_and_intersection():
    a = Subspace.from_vectors(3, [{0: c(1), 2: c(1)}, {1: c(1)}])
    b = Subspace.from_vectors(3, [{0: c(2), 2: c(2)}, {1: c(3)}])
    assert a == b
    w = Subspace.from_vectors(3, [{2: c(1)}])
    inter = a.intersection(w)
    assert inter.dim == 0
    u = Subspace.from_vectors(3, [{0: c(1), 2: c(1)}])
    assert a.intersection(u) == u


def test_matrix_json_round_trip():
    z = root_of_unity(3)
    m = Matrix([[z, c(0)], [c(1) / 2, z * z]])
    assert matrix_from_json(m.to_json()) == m


def test_matmul_and_transpose_consistency():
    rng = random.Random(3)
    a = rand_matrix(rng, 3, 4, order=3, span=2)
    b = rand_matrix(rng, 4, 2, order=3, span=2)
    prod = a @ b
    assert prod.transpose() == b.transpose() @ a.transpose()


def test_subspace_queries_match_a_fresh_echelon_basis():
    # repeated queries run against the subspace's own echelon basis; they
    # must agree with an EchelonBasis built afresh and leave the basis untouched
    rng = random.Random(11)
    n = 6
    gm = rand_matrix(rng, 3, n, order=3)
    gens = gm.data
    space = Subspace.from_vectors(n, gens)
    before = [dict(r) for r in space.basis]
    probes = [dict(r) for r in rand_matrix(rng, 4, n, order=3).data]
    cmat = rand_matrix(rng, 4, 3, order=3)
    for i in range(cmat.nrows):
        combo = [c(0)] * n
        for k, f in enumerate(cmat.row(i)):
            combo = [x + f * y for x, y in zip(combo, gm.row(k))]
        probes.append(sparse_of(combo))
    for _ in range(2):
        for v in probes:
            fresh = EchelonBasis(n)
            for g in gens:
                fresh.add(g)
            assert space.contains(v) == fresh.contains(v)
            assert space.coordinates(v) == fresh.coordinates(v)
    assert sum(space.contains(v) for v in probes) == 4
    assert space.basis == before


def test_kernel_rank_nullity_failure_raises(monkeypatch):
    monkeypatch.setattr(
        Subspace, "from_vectors", classmethod(lambda cls, ambient, vecs: cls.zero(ambient))
    )
    with pytest.raises(InvariantError, match="rank-nullity"):
        kernel(cm([[1, 1], [2, 2]]))


def test_minimal_polynomial_annihilation_failure_raises(monkeypatch):
    from hopfcheck import linalg

    monkeypatch.setattr(linalg, "poly_eval_matrix", lambda poly, m: Matrix.identity(m.nrows))
    with pytest.raises(InvariantError, match="annihilate"):
        minimal_polynomial(cm([[0, 1], [0, 0]]))
