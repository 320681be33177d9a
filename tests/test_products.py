"""The sparse product kernel and the checks built on it, against a dense
schoolbook reference: products, unit laws, centrality and algebra maps."""

import random
import re

import pytest

from hopfcheck.algebra import StructureAlgebra, UnitLawError, sparse_of
from hopfcheck.cyclotomic import Cyclotomic, root_of_unity
from hopfcheck.doubles import build_classical_double, build_twisted_double, uhu_map
from hopfcheck.hopf import check_algebra_map, taft
from hopfcheck.linalg import Matrix

ONE = Cyclotomic.one()


def mul_coords_dense_reference(alg, a, b):
    """sum over every (i, j, k) of a_i b_j c_ij^k e_k, skipping only zero a_i, b_j."""
    n = alg.dim
    out = [Cyclotomic.zero()] * n
    for i in range(n):
        if not a[i]:
            continue
        for j in range(n):
            if not b[j]:
                continue
            for k in range(n):
                out[k] = out[k] + a[i] * b[j] * alg.structure_entry(i, j, k)
    return out


def dense(alg, d):
    coords = [Cyclotomic.zero()] * alg.dim
    for k, v in d.items():
        coords[k] = v
    return coords


def twisted_group_z6() -> StructureAlgebra:
    """k[Z/6] with g^i g^j = a_i a_j / a_(i+j) g^(i+j) for a_i = zeta_3^i zeta_4^(i^2):
    structure constants of orders 1, 3, 4 and 12, lifted to 12 on construction."""
    n = 6
    a = [root_of_unity(3, i) * root_of_unity(4, i * i) for i in range(n)]
    rows = [[{(i + j) % n: a[i] * a[j] / a[(i + j) % n]} for j in range(n)] for i in range(n)]
    unit = [ONE if i == 0 else Cyclotomic.zero() for i in range(n)]
    return StructureAlgebra(n, rows, unit, name="twisted kZ/6")


@pytest.fixture(scope="module")
def d3():
    return build_twisted_double(taft(3))


@pytest.fixture(scope="module")
def mixed():
    return twisted_group_z6()


def random_sparse(rng, n, size):
    pool = [
        ONE,
        Cyclotomic.from_int(-2),
        Cyclotomic.from_fraction("3/5"),
        root_of_unity(3),
        root_of_unity(4, 3),
        root_of_unity(5, 2) + Cyclotomic.from_fraction("1/2"),
        root_of_unity(12, 5),
    ]
    return {k: rng.choice(pool) for k in rng.sample(range(n), size)}


def cancelling_pair(alg, rng):
    """u = e_i + e_i2 and v = e_j + y e_j2 with y chosen so that the e_k
    coefficient of u v is zero although two terms contribute to it."""
    n = alg.dim
    while True:
        i, i2, j, j2 = (rng.randrange(n) for _ in range(4))
        if i == i2 or j == j2:
            continue
        u = {i: ONE, i2: ONE}
        p = alg.mul_sparse(u, {j: ONE})
        q = alg.mul_sparse(u, {j2: ONE})
        common = sorted(set(p) & set(q))
        if common:
            k = common[0]
            return u, {j: ONE, j2: -(p[k] / q[k])}, k


@pytest.mark.parametrize("name", ["d3", "mixed"])
def test_mul_sparse_matches_dense_reference(name, request):
    fixture = request.getfixturevalue(name)
    alg = fixture.algebra if name == "d3" else fixture
    rng = random.Random(20240801)
    pairs = [
        tuple(random_sparse(rng, alg.dim, rng.randint(1, 4)) for _ in range(2))
        for _ in range(30)
    ]
    cancels = [cancelling_pair(alg, rng) for _ in range(8)]
    pairs += [(u, v) for u, v, _ in cancels]
    for u, v in pairs:
        got = alg.mul_sparse(u, v)
        want = mul_coords_dense_reference(alg, dense(alg, u), dense(alg, v))
        assert got == sparse_of(want)
        assert all(got.values()), "no key may map to zero"
        assert list(alg.mul_coords(dense(alg, u), dense(alg, v))) == want
    for u, v, k in cancels:
        assert k not in alg.mul_sparse(u, v)


def unit_law_first_failure(alg, unit):
    """First basis index j with unit e_j != e_j or e_j unit != e_j in alg's
    product (dense), or None."""
    for j in range(alg.dim):
        e = [ONE if k == j else Cyclotomic.zero() for k in range(alg.dim)]
        left = mul_coords_dense_reference(alg, unit, e)
        right = mul_coords_dense_reference(alg, e, unit)
        if not (left == e and right == e):
            return j
    return None


def diagonal_algebra(n) -> StructureAlgebra:
    """k^n: e_i e_i = e_i, all other products zero."""
    rows = [[{i: ONE} if i == j else {} for j in range(n)] for i in range(n)]
    return StructureAlgebra(n, rows, [ONE] * n, name=f"k^{n}")


@pytest.mark.parametrize("corrupt", ["drop", "add", "scale", "diagonal"])
def test_unit_law_error_names_first_failing_basis_element(corrupt):
    if corrupt == "diagonal":
        alg = diagonal_algebra(8)
        unit = [ONE] * 5 + [Cyclotomic.zero()] + [ONE] * 2
    else:
        alg = build_twisted_double(taft(2)).algebra
        unit = list(alg.unit)
    support = [k for k, v in enumerate(unit) if v]
    if corrupt == "drop":
        unit[support[-1]] = Cyclotomic.zero()
    elif corrupt == "add":
        unit[10] = unit[10] + root_of_unity(4)
    elif corrupt == "scale":
        unit = [v * 2 for v in unit]
    want = unit_law_first_failure(alg, unit)
    assert want is not None
    with pytest.raises(UnitLawError) as info:
        StructureAlgebra(alg.dim, alg.rows, unit, check="none")
    assert int(re.search(r"basis element (\d+)", str(info.value)).group(1)) == want


def upper_triangular_2x2() -> StructureAlgebra:
    """Upper triangular 2x2 matrices on the basis E00, E11, E01, so that E00
    commutes with every basis element but the last."""
    rows = [[{} for _ in range(3)] for _ in range(3)]
    rows[0][0] = {0: ONE}  # E00 E00 = E00
    rows[1][1] = {1: ONE}  # E11 E11 = E11
    rows[0][2] = {2: ONE}  # E00 E01 = E01
    rows[2][1] = {2: ONE}  # E01 E11 = E01
    return StructureAlgebra(3, rows, [ONE, ONE, Cyclotomic.zero()], name="T2")


def test_is_central_matches_dense_reference():
    d = build_twisted_double(taft(2))
    alg = d.algebra
    rng = random.Random(7)
    elements = [d.sigma, d.one, alg.basis_element(0), alg.basis_element(5)]
    elements += [alg.element(dense(alg, random_sparse(rng, alg.dim, 3))) for _ in range(6)]
    elements.append(d.sigma * 3 + d.one * root_of_unity(4))
    t2 = upper_triangular_2x2()
    elements += [t2.basis_element(0), t2.unit_element()]
    verdicts = []
    for a in elements:
        alg = a.algebra
        want = all(
            mul_coords_dense_reference(alg, a.coords, e.coords)
            == mul_coords_dense_reference(alg, e.coords, a.coords)
            for e in alg.basis_elements()
        )
        assert alg.is_central(a) == want
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def algebra_map_first_failure(src, dst, matrix):
    """First basis pair (i, j) with M(e_i e_j) != M(e_i) M(e_j), all dense."""
    for i in range(src.dim):
        for j in range(src.dim):
            want = matrix.apply([src.structure_entry(i, j, k) for k in range(src.dim)])
            got = mul_coords_dense_reference(dst, matrix.column(i), matrix.column(j))
            if want != got:
                return (i, j)
    return None


@pytest.mark.parametrize("corrupt", ["scale-column", "bump-entry", "swap-columns"])
def test_algebra_map_first_failure_matches_dense(corrupt):
    h = taft(2)
    u = h.algebra.basis_element(2)  # g, the pivot of taft(2)
    dd = build_classical_double(h, "drinfeld")
    da = build_classical_double(h, "anti")
    matrix, rep = uhu_map(h, u, doubles=(dd, da))
    assert rep.passed
    data = [matrix.row(i) for i in range(matrix.nrows)]
    if corrupt == "scale-column":
        for r in data:
            r[6] = r[6] * 2
    elif corrupt == "bump-entry":
        data[3][11] = data[3][11] + ONE
    else:
        for r in data:
            r[4], r[9] = r[9], r[4]
    bad = Matrix(data)
    want = algebra_map_first_failure(dd.algebra, da.algebra, bad)
    assert want is not None
    got = check_algebra_map(dd.algebra, da.algebra, bad)
    assert got.witnesses["multiplicative"]["first_failure"] == want
