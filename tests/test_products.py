"""The sparse product kernel and the checks built on it, against a dense
schoolbook reference: products, element arithmetic, unit laws, centrality
and algebra maps."""

import functools
import itertools
import random
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_linalg import matrix_apply

from hopfcheck import algebra as algebra_module
from hopfcheck.algebra import StructureAlgebra, UnitLawError, sparse_of
from hopfcheck.cyclotomic import Cyclotomic, root_of_unity
from hopfcheck.doubles import build_classical_double, build_twisted_double, uhu_map
from hopfcheck.hopf import check_algebra_map, taft
from hopfcheck.linalg import Matrix, _axpy

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
                out[k] = out[k] + a[i] * b[j] * alg.rows[i][j].get(k, Cyclotomic.zero())
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


def cancel_then_add(alg, rng):
    """u, v, k and c such that, in mul_sparse's order (u outer, v inner),
    the first two terms at e_k cancel and at least one more follows; c is
    the e_k coefficient of u v, the sum of the terms after the two."""
    n = alg.dim
    while True:
        u = dict.fromkeys(rng.sample(range(n), 3), ONE)
        js = rng.sample(range(n), 3)
        at: dict = {}
        for i in u:
            for j in js:
                for k, ck in alg.rows[i][j].items():
                    at.setdefault(k, []).append((j, ck))
        for k, terms in sorted(at.items()):
            if len(terms) < 3 or terms[0][0] == terms[1][0]:
                continue
            (_, ca), (jb, cb) = terms[:2]
            v = {j: ONE for j in js}
            v[jb] = -(ca / cb)
            rest = sum((v[j] * ck for j, ck in terms[2:]), Cyclotomic.zero())
            if rest:
                return u, v, k, rest


@pytest.mark.parametrize("name", ["d3", "mixed"])
def test_mul_sparse_matches_dense_reference(name, request, monkeypatch):
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
        assert list(alg.multiply(alg.from_dict(u), alg.from_dict(v)).coords) == want
    for u, v, k in cancels:
        assert k not in alg.mul_sparse(u, v)
    # a key whose running sum cancels and then takes a third term: it is
    # dropped when it cancels, so no step of the sum ever holds a zero
    u, v, k, third = cancel_then_add(alg, rng)
    steps = []

    def axpy(y, f, x):
        had = k in y
        _axpy(y, f, x)
        assert all(y.values()), "a cancelled key stayed as a zero"
        steps.append(had and k not in y)

    monkeypatch.setattr(algebra_module, "_axpy", axpy)
    got = alg.mul_sparse(u, v)
    assert any(steps), "the running sum never cancelled"
    assert got[k] == third and all(got.values())
    assert got == sparse_of(mul_coords_dense_reference(alg, dense(alg, u), dense(alg, v)))


def corrupted_d2() -> StructureAlgebra:
    """The twisted double of taft(2) with its first nonempty cell (i, j),
    i and j outside the unit's support, doubled: unital, not associative."""
    alg = build_twisted_double(taft(2)).algebra
    outside = [i for i in range(alg.dim) if not alg.unit[i]]
    i, j = next((i, j) for i in outside for j in outside if alg.rows[i][j])
    rows = [list(row) for row in alg.rows]
    rows[i][j] = {k: v * 2 for k, v in rows[i][j].items()}
    return StructureAlgebra(alg.dim, rows, alg.unit, check="none")


@pytest.mark.parametrize("build", [corrupted_d2, twisted_group_z6], ids=["corrupted-d2", "mixed"])
def test_exact_triple_check_matches_a_dense_associator(build):
    # every triple, against (e_i e_j) e_k - e_i (e_j e_k) in dense coordinates
    alg = build()
    n = alg.dim
    basis = [dense(alg, alg.basis_sparse(i)) for i in range(n)]
    dense_first = None
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = mul_coords_dense_reference(alg, dense(alg, alg.rows[i][j]), basis[k])
        rhs = mul_coords_dense_reference(alg, basis[i], dense(alg, alg.rows[j][k]))
        assert alg._assoc_triple_exact(i, j, k) == (lhs == rhs), (i, j, k)
        if lhs != rhs and dense_first is None:
            dense_first = (i, j, k)
    assert alg.associativity_failure(itertools.product(range(n), repeat=3)) == dense_first
    assert (dense_first is None) == (build is twisted_group_z6)


SCALARS = [
    Cyclotomic.zero(),
    Cyclotomic.zero(12),
    ONE,
    -ONE,
    Cyclotomic.from_fraction("3/5"),
    root_of_unity(3),
    root_of_unity(4, 3),
    root_of_unity(12, 5) - root_of_unity(3),
]


@functools.cache
def property_algebras():
    return {"mixed": twisted_group_z6(), "d2": build_twisted_double(taft(2)).algebra}


def dense_pretty(coords):
    parts = [f"{v.pretty()}*e{k}" for k, v in enumerate(coords) if v]
    return " + ".join(parts) if parts else "0"


def same_dense(a, b):
    return all(x == y for x, y in zip(a, b))


@st.composite
def element_pairs(draw):
    alg = property_algebras()[draw(st.sampled_from(["mixed", "d2"]))]
    terms = st.dictionaries(
        st.integers(0, alg.dim - 1), st.sampled_from(SCALARS), max_size=5
    )
    return alg, draw(terms), draw(terms), draw(st.sampled_from(SCALARS))


@seed(20240801)
@settings(max_examples=60, deadline=None, database=None)
@given(element_pairs())
def test_element_arithmetic_matches_dense_reference(case):
    alg, u, v, c = case
    x, y = alg.from_dict(u), alg.from_dict(v)
    # zero inputs are dropped, whatever their order
    assert x.terms == {k: a for k, a in u.items() if a}
    assert alg.element(dense(alg, u)) == x
    # the reference starts from the nonzero inputs: a zero of higher order
    # would lift what it is added to, and pretty names the order
    dx, dy = dense(alg, x.terms), dense(alg, y.terms)
    want = {
        "x + y": [a + b for a, b in zip(dx, dy)],
        "x - y": [a - b for a, b in zip(dx, dy)],
        "-x": [-a for a in dx],
        "x * c": [a * c for a in dx],
        "c * x": [c * a for a in dx],
        "x * y": mul_coords_dense_reference(alg, dx, dy),
        "x - x": [Cyclotomic.zero()] * alg.dim,
    }
    got = {
        "x + y": x + y,
        "x - y": x - y,
        "-x": -x,
        "x * c": x * c,
        "c * x": c * x,
        "x * y": x * y,
        "x - x": x - x,
    }
    for name, z in got.items():
        ref = want[name]
        assert z.algebra is alg
        assert all(z.terms.values()), f"{name} stores a zero"
        assert same_dense(z.coords, ref) and len(z.coords) == alg.dim, name
        assert list(z.coords) == [z.terms.get(k, 0) for k in range(alg.dim)]
        assert z.is_zero() == (not any(ref)) == (not z)
        assert z.support() == [k for k, a in enumerate(ref) if a]
        # the reference product also adds the zero products c_ij^k = 0,
        # which lift its coefficients to a larger field, and pretty names
        # the field; so that one is read off the dense view
        assert z.pretty() == dense_pretty(z.coords if name == "x * y" else ref)
    assert got["x - x"].terms == {}
    assert (x == y) == same_dense(dx, dy)
    assert x == alg.element(dx)
    # the same terms inserted in the opposite order make the same element
    xr, yr = alg.from_dict(dict(reversed(list(u.items())))), alg.from_dict(v)
    assert xr == x
    for z, zr in ((x + y, xr + yr), (x * y, xr * yr), (y * x, yr * xr), (x * c, xr * c)):
        assert zr == z and zr.pretty() == z.pretty() and zr.support() == z.support()


def test_dense_edges_stay():
    # coords, dense multiplication-matrix operands and the dense unit are the
    # forms outside code reads and passes back
    d = build_twisted_double(taft(2))
    a = d.algebra
    x = d.sigma * 3 + d.one * root_of_unity(4) - a.basis_element(5)
    assert isinstance(x.coords, tuple)
    assert list(x.coords) == [x.terms.get(k, 0) for k in range(a.dim)]
    assert [k for k, v in enumerate(x.coords) if v] == x.support()
    assert a.left_mult_matrix(x.coords) == a.left_mult_matrix(x)
    assert a.right_mult_matrix(list(x.coords)) == a.right_mult_matrix(x)
    assert a.element(x.coords) == x
    again = StructureAlgebra(a.dim, a.rows, a.unit, check="modular")
    assert again.same_structure(a) and again.unit == a.unit
    with pytest.raises(ValueError, match="different algebra"):
        again.left_mult_matrix(x)


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
            for e in map(alg.basis_element, range(alg.dim))
        )
        assert alg.is_central(a) == want
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def algebra_map_first_failure(src, dst, matrix):
    """First basis pair (i, j) with M(e_i e_j) != M(e_i) M(e_j), all dense."""
    for i in range(src.dim):
        for j in range(src.dim):
            want = matrix_apply(matrix, [src.rows[i][j].get(k, Cyclotomic.zero()) for k in range(src.dim)])
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
    matrix, rep = uhu_map(h, u, (dd, da))
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


def test_a_corrupted_uhu_matrix_reports_the_full_scans_first_failure():
    # both classical doubles of taft(3) are proven and the corrupted map
    # still sends 1 to 1, so its generator pairs are compared first; one of
    # them fails, and the full scan that follows reports the first pair (a
    # row of Light's greedy S, as it always is when 1 maps to 1)
    h = taft(3)
    dd = build_classical_double(h, "drinfeld")
    da = build_classical_double(h, "anti")
    assert dd.algebra.proven and da.algebra.proven
    matrix, rep = uhu_map(h, h.algebra.basis_element(3) ** 2, (dd, da))
    assert rep.passed
    data = [matrix.row(i) for i in range(matrix.nrows)]
    for r in data:
        r[40] = r[40] * 2
    bad = Matrix(data)
    cols = bad.transpose().data
    assert algebra_module.lincomb(cols, sparse_of(dd.algebra.unit)) == sparse_of(da.algebra.unit)
    want = algebra_map_first_failure(dd.algebra, da.algebra, bad)
    assert want is not None and want[0] in dd.algebra.light_generators
    got = check_algebra_map(dd.algebra, da.algebra, bad)
    assert got.witnesses["multiplicative"] == {"holds": False, "first_failure": want}
