"""Hopf layer tests: constructors, axioms, duals, self-duality, pivots."""

import copy

import pytest
from test_linalg import matrix_apply

from hopfcheck import hopf
from hopfcheck.cyclotomic import ONE, ZERO, Cyclotomic, q_int, root_of_unity
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
from hopfcheck.serialize import hopf_to_json


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


def test_iterated_coproducts_are_kept_for_the_doubles_only(monkeypatch):
    # check_hopf_axioms computes (Delta (x) id) Delta(e_j) and keeps none of
    # it; h.delta2 computes each on first use and reads it after that
    calls = []
    real = hopf.tensor_map

    def counting(n, t, f, g, width):
        calls.append((f, g))
        return real(n, t, f, g, width)

    monkeypatch.setattr(hopf, "tensor_map", counting)
    h = taft(3)
    cols = h._comult_cols
    assert sum(f is cols and g is None for f, g in calls) == h.dim
    assert h._delta2 == {}
    calls.clear()
    tensors = [h.delta2(j) for j in range(h.dim)]
    assert calls == [(cols, None)] * h.dim
    assert [h.delta2(j) for j in range(h.dim)] == tensors
    assert len(calls) == h.dim


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
        sx = a.element(matrix_apply(h.antipode, x.coords))
        assert sx == -a.basis_element(tidx(p, p - 1, 1))
        s2x = a.element(matrix_apply(h.antipode, sx.coords))
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


def flip(n):
    """The matrix of a (x) b -> b (x) a on the n^2 coordinates a * n + b."""
    return Matrix.from_columns([{(f % n) * n + f // n: c(1)} for f in range(n * n)], n * n)


def test_group_algebra_structure():
    for n in (1, 2, 3):
        h = group_algebra(n)
        assert h.algebra.is_commutative()
        assert flip(n) @ h.comult_matrix() == h.comult_matrix()
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
        # equal values; the double dual may hold them at a higher order
        assert dd.algebra.same_structure(h.algebra)
        assert dd.comult_matrix() == h.comult_matrix()
        assert dd.counit == h.counit and dd.antipode == h.antipode


def test_dual_of_group_algebra_commutative_cocommutative():
    d = dual_hopf(group_algebra(2))
    assert d.algebra.is_commutative()
    assert flip(2) @ d.comult_matrix() == d.comult_matrix()


def test_hopf_data_accepts_matrix_comult():
    h = taft(2)
    rebuilt = HopfData(
        h.algebra,
        h.comult_matrix(),
        list(h.counit),
        h.antipode,
        name="rebuilt",
    )
    assert hopf_to_json(rebuilt) == hopf_to_json(h)


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
        sd = taft_self_duality(taft(p))
        assert sd.report.passed, sd.report.witnesses
        ident = Matrix.identity(sd.hopf.dim)
        assert sd.forward @ sd.inverse == ident
        assert sd.inverse @ sd.forward == ident


def test_self_duality_preserves_group_likes():
    sd = taft_self_duality(taft(3))
    g = sd.hopf.algebra.basis_element(tidx(3, 1, 0))
    image = sd.dual.algebra.element(matrix_apply(sd.forward, list(g.coords)))
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
    assert check_algebra_map(a, a, ident).passed
    swap = Matrix([[c(0), c(1)], [c(1), c(0)]])
    bad = check_algebra_map(a, a, swap)
    assert bad.status == "fail"
    assert not bad.witnesses["unit"]["holds"]
    # the doubling map on kZ/4 is a unital algebra map, but not bijective
    h4 = group_algebra(4)
    dbl = Matrix.from_columns([{(2 * i) % 4: c(1)} for i in range(4)], 4)
    rep = check_algebra_map(h4.algebra, h4.algebra, dbl)
    assert rep.witnesses["unit"]["holds"]
    assert rep.witnesses["multiplicative"]["holds"]
    assert rep.witnesses["bijective"] == {"holds": False, "rank": 2}
    assert rep.status == "fail"


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
        rep = check_algebra_map(h.algebra, dual.algebra, t)
        assert rep.passed, (p, rep.witnesses)
    h3 = taft(3)
    rep3 = check_hopf_map(h3, dual_hopf(h3), taft_dual_transport(h3))
    assert rep3.status == "fail"
    assert not rep3.witnesses["comultiplicative"]["holds"]
    with pytest.raises(ValueError):
        taft_dual_transport(group_algebra(2))


# -- the comultiplication and counit as algebra maps, against brute force --


def with_structure_maps(h, comult=None, counit=None):
    """A copy of h whose comultiplication columns or counit are replaced,
    built without the construction-time axiom check."""
    bad = copy.copy(h)
    if comult is not None:
        bad._comult_cols = tuple(comult)
    if counit is not None:
        bad.counit = tuple(counit)
    return bad


def brute_force_comult_failure(h):
    """"unit" when Delta(1) != 1 (x) 1, else the first basis pair (i, j) in
    row-major order with Delta(e_i e_j) != Delta(e_i) Delta(e_j), the
    tensor-square product taken as (a (x) b)(c (x) d) = ac (x) bd on dense
    coordinate lists."""
    n, rows = h.dim, h.algebra.rows
    cols = [[h.comult_col(t).get(f, ZERO) for f in range(n * n)] for t in range(n)]
    if cols[0] != [ONE if f == 0 else ZERO for f in range(n * n)]:  # the unit is e_0
        return "unit"
    for i in range(n):
        for j in range(n):
            lhs = [ZERO] * (n * n)
            for t in range(n):
                for f in range(n * n):
                    lhs[f] = lhs[f] + rows[i][j].get(t, ZERO) * cols[t][f]
            rhs = [ZERO] * (n * n)
            for ab in range(n * n):
                for cd in range(n * n):
                    coeff = cols[i][ab] * cols[j][cd]
                    if not coeff:
                        continue
                    (a, b), (c_, d) = divmod(ab, n), divmod(cd, n)
                    for p1, w1 in rows[a][c_].items():
                        for p2, w2 in rows[b][d].items():
                            rhs[p1 * n + p2] = rhs[p1 * n + p2] + coeff * w1 * w2
            if lhs != rhs:
                return (i, j)
    return None


def brute_force_counit_failure(h):
    """"unit" when eps(1) != 1, else the first basis pair (i, j) in row-major
    order with eps(e_i e_j) != eps(e_i) eps(e_j), summed over every t."""
    n, rows, eps = h.dim, h.algebra.rows, h.counit
    if eps[0] != ONE:  # the unit is e_0
        return "unit"
    for i in range(n):
        for j in range(n):
            total = ZERO
            for t in range(n):
                total = total + rows[i][j].get(t, ZERO) * eps[t]
            if total != eps[i] * eps[j]:
                return (i, j)
    return None


@pytest.mark.parametrize("p, k, f", [(2, 1, 0), (2, 3, 15), (3, 4, 40), (3, 8, 0)])
def test_corrupted_comult_first_failure_matches_brute_force(p, k, f):
    h = taft(p)
    cols = [dict(h.comult_col(t)) for t in range(h.dim)]
    cols[k][f] = cols[k].get(f, ZERO) + c(1)
    bad = with_structure_maps(h, comult=cols)
    want = brute_force_comult_failure(bad)
    assert want not in (None, "unit")
    witness = check_hopf_axioms(bad).witnesses["comult-algebra-map"]
    assert witness == {"holds": False, "first_failure": want}
    assert check_hopf_axioms(bad).witnesses["counit-algebra-map"] == {"holds": True}


@pytest.mark.parametrize("p, k, value", [(2, 1, 1), (2, 2, 2), (3, 4, 1), (3, 3, -1)])
def test_corrupted_counit_first_failure_matches_brute_force(p, k, value):
    h = taft(p)
    eps = list(h.counit)
    eps[k] = c(value)
    bad = with_structure_maps(h, counit=eps)
    want = brute_force_counit_failure(bad)
    assert want not in (None, "unit")
    witness = check_hopf_axioms(bad).witnesses["counit-algebra-map"]
    assert witness == {"holds": False, "first_failure": want}
    assert check_hopf_axioms(bad).witnesses["comult-algebra-map"] == {"holds": True}



# -- the coalgebra and antipode laws and the Hopf-map checks, against brute force --


def dense_comult(h):
    """cols[t][f]: the coefficient of the flat tensor key f in Delta(e_t)."""
    n = h.dim
    return [[h.comult_col(t).get(f, ZERO) for f in range(n * n)] for t in range(n)]


def dense_cols(m):
    """The columns of a Matrix as dense lists."""
    return [m.column(j) for j in range(m.ncols)]


def brute_force_axiom_witnesses(h):
    """The coassociativity, counit and antipode witnesses of check_hopf_axioms,
    each naming the first basis index j at which its law fails, computed on
    dense coordinate lists by summing over every index."""
    n, rows, eps = h.dim, h.algebra.rows, h.counit
    delta = dense_comult(h)
    s = [[h.antipode_col(t).get(k, ZERO) for k in range(n)] for t in range(n)]
    unit = list(h.algebra.unit)

    def coassociative(j):
        left = [ZERO] * n**3
        right = [ZERO] * n**3
        for a in range(n):
            for b in range(n):
                for u in range(n):
                    for v in range(n):
                        left[(u * n + v) * n + b] += delta[j][a * n + b] * delta[a][u * n + v]
                        right[(a * n + u) * n + v] += delta[j][a * n + b] * delta[b][u * n + v]
        return left == right

    def counital(j):
        want = [ONE if k == j else ZERO for k in range(n)]
        lhs = [sum((delta[j][a * n + b] * eps[a] for a in range(n)), ZERO) for b in range(n)]
        rhs = [sum((delta[j][a * n + b] * eps[b] for b in range(n)), ZERO) for a in range(n)]
        return lhs == want and rhs == want

    def antipodal(j):
        want = [eps[j] * u for u in unit]
        left = [ZERO] * n
        right = [ZERO] * n
        for a in range(n):
            for b in range(n):
                for k in range(n):
                    for t in range(n):
                        left[t] += delta[j][a * n + b] * s[a][k] * rows[k][b].get(t, ZERO)
                        right[t] += delta[j][a * n + b] * s[b][k] * rows[a][k].get(t, ZERO)
        return left == want and right == want

    out = {}
    for name, law in (("coassociativity", coassociative), ("counit", counital), ("antipode", antipodal)):
        bad = next((j for j in range(n) if not law(j)), None)
        out[name] = {"holds": True} if bad is None else {"holds": False, "first_failure": bad}
    return out


def brute_force_hopf_map_witnesses(src, dst, matrix):
    """The comultiplicative, counit and antipode-commutes witnesses of
    check_hopf_map for the dense matrix M: (M (x) M) Delta(e_j) against
    Delta(M e_j), eps(M e_j) against eps(e_j) and M S e_j against S M e_j,
    each at the first failing j."""
    n, m = src.dim, dst.dim
    mcols = dense_cols(matrix)
    src_delta, dst_delta = dense_comult(src), dense_comult(dst)
    src_s, dst_s = dense_cols(src.antipode), dense_cols(dst.antipode)

    def apply(cols, vec):
        return [sum((cols[k][r] * vec[k] for k in range(len(vec))), ZERO) for r in range(len(cols[0]))]

    def comultiplicative(j):
        lhs = [ZERO] * m * m
        for a in range(n):
            for b in range(n):
                for u in range(m):
                    for v in range(m):
                        lhs[u * m + v] += src_delta[j][a * n + b] * mcols[a][u] * mcols[b][v]
        return lhs == apply(dst_delta, mcols[j])

    def counital(j):
        return sum((dst.counit[k] * mcols[j][k] for k in range(m)), ZERO) == src.counit[j]

    def commutes(j):
        return apply(mcols, src_s[j]) == apply(dst_s, mcols[j])

    def first(law):
        return next((j for j in range(n) if not law(j)), None)

    bad = first(comultiplicative)
    comult = {"holds": True} if bad is None else {"holds": False, "first_failure": bad}
    bad = first(commutes)
    anti = {"holds": True} if bad is None else {"holds": False, "first_failure": bad}
    return {"comultiplicative": comult, "counit": {"holds": first(counital) is None}, "antipode-commutes": anti}


def with_antipode(h, cols):
    """A copy of h whose antipode has these sparse columns, built without the
    construction-time axiom check."""
    bad = copy.copy(h)
    bad.antipode = Matrix.from_columns(cols, h.dim)
    bad._antipode_cols = tuple(cols)
    return bad


def shifted(vec, key, value):
    """A copy of the sparse vector vec with value added at key, zero-free."""
    out = dict(vec)
    out[key] = out.get(key, ZERO) + c(value)
    return {k: v for k, v in out.items() if v}


# each case names a failing index other than the corrupted one for some law
@pytest.mark.parametrize("p, k, f", [(2, 2, 8), (2, 3, 12), (3, 6, 60), (3, 7, 63)])
def test_corrupted_comult_axiom_witnesses_match_brute_force(p, k, f):
    h = taft(p)
    cols = [h.comult_col(t) for t in range(h.dim)]
    cols[k] = shifted(cols[k], f, 1)
    bad = with_structure_maps(h, comult=cols)
    want = brute_force_axiom_witnesses(bad)
    assert not any(part["holds"] for part in want.values())
    got = check_hopf_axioms(bad).witnesses
    assert {key: got[key] for key in want} == want


@pytest.mark.parametrize("p, k, t", [(2, 2, 0), (2, 3, 1), (3, 3, 0), (3, 3, 2), (3, 4, 0)])
def test_corrupted_antipode_axiom_witnesses_match_brute_force(p, k, t):
    h = taft(p)
    cols = [h.antipode_col(i) for i in range(h.dim)]
    cols[k] = shifted(cols[k], t, 1)
    bad = with_antipode(h, cols)
    want = brute_force_axiom_witnesses(bad)
    assert want["coassociativity"] == want["counit"] == {"holds": True}
    assert not want["antipode"]["holds"]
    got = check_hopf_axioms(bad).witnesses
    assert {key: got[key] for key in want} == want


# both maps corrupted so that m(S (x) id)Delta = eps 1 holds at j = 1, or
# everywhere, while m(id (x) S)Delta = eps 1 fails there
@pytest.mark.parametrize("k, f, value, ks, t", [(1, 0, -1, 1, 0), (1, 7, 1, 3, 0)])
def test_the_right_antipode_law_is_checked(k, f, value, ks, t):
    h = taft(2)
    comult = [h.comult_col(i) for i in range(h.dim)]
    comult[k] = shifted(comult[k], f, value)
    anti = [h.antipode_col(i) for i in range(h.dim)]
    anti[ks] = shifted(anti[ks], t, 1)
    bad = with_antipode(with_structure_maps(h, comult=comult), anti)
    want = brute_force_axiom_witnesses(bad)
    assert want["antipode"] == {"holds": False, "first_failure": 1}
    got = check_hopf_axioms(bad).witnesses
    assert {key: got[key] for key in want} == want


def test_dual_transport_hopf_map_witnesses_match_brute_force():
    from hopfcheck.hopf import taft_dual_transport

    h = taft(3)
    dual = dual_hopf(h)
    t = taft_dual_transport(h)
    want = brute_force_hopf_map_witnesses(h, dual, t)
    assert not want["comultiplicative"]["holds"]
    got = check_hopf_map(h, dual, t).witnesses
    assert {key: got[key] for key in want} == want


# (3, 0, 6) also breaks the counit; (2, 2, 1) keeps comultiplicativity
@pytest.mark.parametrize("p, row, col", [(2, 2, 1), (2, 1, 3), (3, 0, 6), (3, 4, 7)])
def test_corrupted_hopf_map_witnesses_match_brute_force(p, row, col):
    sd = taft_self_duality(taft(p))
    assert sd.report.passed
    cols = list(sd.forward.transpose().data)
    cols[col] = shifted(cols[col], row, 1)
    bad = Matrix.from_columns(cols, sd.forward.nrows)
    want = brute_force_hopf_map_witnesses(sd.hopf, sd.dual, bad)
    assert not want["antipode-commutes"]["holds"]
    got = check_hopf_map(sd.hopf, sd.dual, bad).witnesses
    assert {key: got[key] for key in want} == want
