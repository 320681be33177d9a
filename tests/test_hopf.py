"""Hopf layer tests: constructors, axioms, duals, self-duality, pivots."""

import pytest

from hopfcheck.cyclotomic import Cyclotomic, q_int, root_of_unity
from hopfcheck.hopf import (
    HopfAxiomError,
    HopfData,
    check_algebra_map,
    check_hopf_axioms,
    check_hopf_map,
    check_pivotal,
    dual_hopf,
    group_algebra,
    is_group_like,
    taft,
    taft_self_duality,
    tensor_mult,
)
from hopfcheck.linalg import Matrix, matrix_order, sparse_of


def c(v):
    return Cyclotomic.coerce(v)


def tidx(p, i, j):
    return i * p + j


def test_taft_constructor_validates_xi():
    with pytest.raises(ValueError):
        taft(3, c(1))
    with pytest.raises(ValueError):
        taft(3, c(-1))
    taft(3, root_of_unity(3, 2))  # the other primitive root works


def test_taft_axioms_pass():
    for p in (2, 3):
        h = taft(p)
        report = check_hopf_axioms(h)
        assert report.passed, report.witnesses


def test_taft_defining_relations():
    for p in (2, 3):
        h = taft(p)
        xi = h.meta["xi"]
        a = h.algebra
        g = a.basis_element(tidx(p, 1, 0))
        x = a.basis_element(tidx(p, 0, 1))
        assert g**p == a.unit_element()
        assert (x**p).is_zero()
        assert g * x == xi * (x * g)


def test_taft_antipode_values():
    # S(g) = g^{p-1}, S(x) = -g^{p-1} x, S^2(x) = xi^{-1} x
    for p in (2, 3):
        h = taft(p)
        xi = h.meta["xi"]
        a = h.algebra
        x = a.basis_element(tidx(p, 0, 1))
        sx = a.element(h.antipode_of(x.coords))
        assert sx == -a.basis_element(tidx(p, p - 1, 1))
        s2x = a.element(h.antipode_of(sx.coords))
        assert s2x == xi.inverse() * x


def test_taft_s_squared_is_conjugation():
    h = taft(3)
    a = h.algebra
    ginv = a.basis_element(tidx(3, 2, 0))
    g = a.basis_element(tidx(3, 1, 0))
    s2 = h.antipode @ h.antipode
    for i in range(a.dim):
        conj = ginv * a.basis_element(i) * g
        assert list(conj.coords) == s2.column(i)


def test_antipode_matrix_order():
    # S^2 is conjugation by a group-like of order p, and S^2 != id, so the
    # antipode has matrix order 2p
    assert matrix_order(taft(2).antipode, 10) == 4
    assert matrix_order(taft(3).antipode, 10) == 6
    for n in (1, 2, 3):
        s = group_algebra(n).antipode
        assert (s @ s) == Matrix.identity(n)


def test_broken_antipode_rejected():
    h = taft(2)
    with pytest.raises(HopfAxiomError) as info:
        HopfData(
            h.algebra,
            [h.comult_col(j) for j in range(h.dim)],
            list(h.counit),
            Matrix.identity(h.dim),
            name="broken",
        )
    assert info.value.axiom == "antipode"


def test_group_algebra_structure():
    for n in (1, 2, 3):
        h = group_algebra(n)
        assert h.algebra.is_commutative()
        assert h.is_cocommutative()
    # n = 2: inversion is trivial, so S = id
    assert group_algebra(2).antipode == Matrix.identity(2)
    # n = 3: S != id but S^2 = id
    s3 = group_algebra(3).antipode
    assert s3 != Matrix.identity(3)
    assert s3 @ s3 == Matrix.identity(3)


def test_comult_of_monomials_q_binomial():
    # Delta(x^2) = x^2 (x) 1 + (2)_{xi^{-1}} gx (x) x + g^2 (x) x^2 for p=3,
    # a consequence of the multiplicative extension (never hand-entered)
    p = 3
    h = taft(p)
    xi = h.meta["xi"]
    n = h.dim
    col = h.comult_col(tidx(p, 0, 2))
    expected = {
        tidx(p, 0, 2) * n + tidx(p, 0, 0): c(1),
        tidx(p, 1, 1) * n + tidx(p, 0, 1): q_int(2, xi.inverse()),
        tidx(p, 2, 0) * n + tidx(p, 0, 2): c(1),
    }
    assert set(col) == set(expected)
    assert all(col[k] == expected[k] for k in expected)


def test_tensor_mult_matches_outer_products():
    h = group_algebra(3)
    a = h.algebra
    n = a.dim
    u = {1 * n + 2: c(1)}  # g (x) g^2
    v = {2 * n + 2: c(1)}  # g^2 (x) g^2
    out = tensor_mult(a, u, v)
    assert out == {0 * n + 1: c(1)}  # g^3 (x) g^4 = 1 (x) g


def test_dual_hopf_double_dual_is_identity():
    for h in (group_algebra(3), taft(2), taft(3)):
        dd = dual_hopf(dual_hopf(h))
        assert dd.same_data(h)


def test_dual_of_group_algebra_commutative_cocommutative():
    d = dual_hopf(group_algebra(2))
    assert d.algebra.is_commutative()
    assert d.is_cocommutative()


def test_hopf_data_accepts_matrix_comult():
    h = taft(2)
    rebuilt = HopfData(
        h.algebra,
        h.comult_matrix(),
        list(h.counit),
        h.antipode,
        name="rebuilt",
    )
    assert rebuilt.same_data(h)


def test_antipode_inverse():
    for h in (taft(2), taft(3), group_algebra(3)):
        assert h.antipode_inverse @ h.antipode == Matrix.identity(h.dim)


def test_taft_radical():
    # the radical is spanned by the monomials with a positive x power
    for p in (2, 3):
        h = taft(p)
        rad = h.algebra.radical()
        assert rad.dim == p * (p - 1)
        x = h.algebra.basis_element(tidx(p, 0, 1))
        assert rad.contains(sparse_of(x.coords))


def test_self_duality_p2_und_p3():
    for p in (2, 3):
        sd = taft_self_duality(p)
        assert sd.report.passed, sd.report.witnesses
        ident = Matrix.identity(sd.hopf.dim)
        assert sd.forward @ sd.inverse == ident
        assert sd.inverse @ sd.forward == ident


def test_self_duality_preserves_group_likes():
    sd = taft_self_duality(3)
    g = sd.hopf.algebra.basis_element(tidx(3, 1, 0))
    image = sd.dual.algebra.element(sd.forward.apply(list(g.coords)))
    assert is_group_like(sd.dual, image)


def test_is_group_like():
    h = taft(3)
    a = h.algebra
    assert is_group_like(h, a.unit_element())
    assert is_group_like(h, a.basis_element(tidx(3, 1, 0)))
    assert is_group_like(h, a.basis_element(tidx(3, 2, 0)))
    assert not is_group_like(h, a.basis_element(tidx(3, 0, 1)))
    assert not is_group_like(h, 2 * a.unit_element())


def test_check_pivotal():
    # u = g^{p-1} works for every p; u = g works only when p = 2
    for p in (2, 3):
        h = taft(p)
        u = h.algebra.basis_element(tidx(p, p - 1, 0))
        assert check_pivotal(h, u).passed
    h2 = taft(2)
    assert check_pivotal(h2, h2.algebra.basis_element(tidx(2, 1, 0))).passed
    h3 = taft(3)
    wrong = check_pivotal(h3, h3.algebra.basis_element(tidx(3, 1, 0)))
    assert wrong.status == "fail"
    assert not wrong.witnesses["conjugation"]["holds"]
    # non-invertible candidate is a precondition failure
    x = h3.algebra.basis_element(tidx(3, 0, 1))
    assert check_pivotal(h3, x).status == "precondition-failed"
    triv = group_algebra(2)
    assert check_pivotal(triv, triv.algebra.unit_element()).passed


def test_check_algebra_map_reports():
    h = group_algebra(2)
    a = h.algebra
    ident = Matrix.identity(2)
    assert check_algebra_map(a, a, ident, require_bijective=True).passed
    swap = Matrix([[c(0), c(1)], [c(1), c(0)]])
    bad = check_algebra_map(a, a, swap)
    assert bad.status == "fail"
    assert not bad.witnesses["unit"]["holds"]
    # doubling map on kZ/4 is a non-bijective algebra map
    h4 = group_algebra(4)
    dbl = Matrix.from_columns([{(2 * i) % 4: c(1)} for i in range(4)], 4)
    ok = check_algebra_map(h4.algebra, h4.algebra, dbl)
    assert ok.passed
    bij = check_algebra_map(h4.algebra, h4.algebra, dbl, require_bijective=True)
    assert bij.status == "fail"
    assert not bij.witnesses["bijective"]["holds"]


def test_check_hopf_map_negative():
    # the swap g <-> g^2 on kZ/3 is the antipode, a Hopf map; the map
    # sending g to g^2 only on the algebra side fails comultiplicativity
    h = group_algebra(3)
    s = check_hopf_map(h, h, h.antipode)
    assert s.passed
    proj = Matrix.from_columns(
        [{0: c(1)}, {0: c(1)}, {0: c(1)}], 3
    )  # everything to 1: algebra map (counit-like) but not bijective
    rep = check_hopf_map(h, h, proj)
    assert rep.status == "fail"


def test_taft_dual_transport_is_algebra_but_not_coalgebra_map():
    # the transport map multiplies and is bijective, but it is not the
    # self-duality isomorphism: it fails on the coalgebra side for p = 3
    from hopfcheck.hopf import taft_dual_transport

    for p in (2, 3):
        h = taft(p)
        dual = dual_hopf(h)
        t = taft_dual_transport(h)
        rep = check_algebra_map(h.algebra, dual.algebra, t, require_bijective=True)
        assert rep.passed, (p, rep.witnesses)
    h3 = taft(3)
    rep3 = check_hopf_map(h3, dual_hopf(h3), taft_dual_transport(h3))
    assert rep3.status == "fail"
    assert not rep3.witnesses["comultiplicative"]["holds"]
    with pytest.raises(ValueError):
        taft_dual_transport(group_algebra(2))
