"""Sparse exact elimination against a dense Gauss-Jordan reference.

The reference below works on dense lists and pivots on the first nonzero
entry of each incoming row, as the dense EchelonBasis that the sparse rows
replaced did.  The reduced row echelon form of a matrix is unique, so the
sparse rref must reproduce the reference's rows and pivots exactly.  The
matrices come from seeded hypothesis strategies over Q(zeta_N) for N in
{1, 3, 4, 12}: dense ones, mostly-zero ones and rank-deficient products.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hopfcheck.cyclotomic import Cyclotomic, phi_degree
from hopfcheck.linalg import (
    EchelonBasis,
    Matrix,
    Subspace,
    invert_matrix,
    kernel,
    rank,
    rref,
    solve,
    sparse_of,
)

ORDERS = [1, 3, 4, 12]
PROPERTY = settings(max_examples=40, deadline=None, database=None)


# -- dense reference -----------------------------------------------------


def zero(order):
    return Cyclotomic.zero(order)


def ref_rref(rows, ncols):
    """Gauss-Jordan on dense rows: each row is reduced against the basis so
    far, normalized at its first nonzero entry and eliminated from the
    other rows.  Returns (rows, pivots) in ascending pivot order."""
    basis, pivots = [], []
    for r in rows:
        v = list(r)
        for b, p in zip(basis, pivots):
            f = v[p]
            if f:
                v = [x - f * y for x, y in zip(v, b)]
        piv = next((j for j in range(ncols) if v[j]), None)
        if piv is None:
            continue
        inv = v[piv].inverse()
        v = [x * inv for x in v]
        basis = [[x - b[piv] * y for x, y in zip(b, v)] if b[piv] else b for b in basis]
        pos = sum(1 for p in pivots if p < piv)
        basis.insert(pos, v)
        pivots.insert(pos, piv)
    return basis, pivots


def ref_matmul(a, b, inner, ncols, order):
    return [
        [sum((r[k] * b[k][j] for k in range(inner)), zero(order)) for j in range(ncols)]
        for r in a
    ]


def ref_apply(rows, vec, order):
    return [sum((x * y for x, y in zip(r, vec)), zero(order)) for r in rows]


def ref_solve(rows, rhs, ncols):
    """x with M x = rhs from the rref of [M | rhs] (free variables 0), or None."""
    aug, pivots = ref_rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    x = [zero(1)] * ncols
    for r, p in zip(aug, pivots):
        x[p] = r[ncols]
    return x


def dense(vec: dict, n: int, order: int) -> list:
    return [vec.get(j, zero(order)) for j in range(n)]


def zero_free(vec: dict) -> bool:
    return all(vec.values())


# -- strategies ------------------------------------------------------------


def scalars(order):
    deg = phi_degree(order)
    return st.builds(
        lambda num, den: Cyclotomic(order, num, den),
        st.tuples(*[st.integers(-3, 3)] * deg),
        st.integers(1, 3),
    )


@st.composite
def matrices(draw, order, square=False):
    """(dense rows, ncols): dense, mostly-zero, or a rank-deficient product."""
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["dense", "mostly-zero", "rank-deficient"]))
    entry = scalars(order)
    if kind == "dense":
        rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    elif kind == "mostly-zero":
        rows = [
            [draw(entry) if draw(st.integers(0, 4)) == 0 else zero(order) for _ in range(ncols)]
            for _ in range(nrows)
        ]
    else:
        inner = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
        a = [[draw(entry) for _ in range(inner)] for _ in range(nrows)]
        b = [[draw(entry) for _ in range(ncols)] for _ in range(inner)]
        rows = ref_matmul(a, b, inner, ncols, order)
    return rows, ncols


def with_vectors(order, square=False):
    """A matrix together with coefficient and probe vectors fitting its shape."""
    return matrices(order, square).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(scalars(order), min_size=len(m[0]), max_size=len(m[0])),
            st.lists(scalars(order), min_size=m[1], max_size=m[1]),
            st.lists(scalars(order), min_size=len(m[0]), max_size=len(m[0])),
        )
    )


# -- properties ----------------------------------------------------------


@pytest.mark.parametrize("order", ORDERS)
@seed(20240801)
@PROPERTY
@given(data=st.data())
def test_rref_rank_and_kernel_match_the_dense_reference(order, data):
    rows, ncols = data.draw(matrices(order))
    m = Matrix(rows, ncols=ncols)
    got_rows, got_pivots = rref(m)
    want_rows, want_pivots = ref_rref(rows, ncols)
    assert got_pivots == want_pivots
    assert [dense(r, ncols, order) for r in got_rows] == want_rows
    assert all(zero_free(r) and min(r) == p for r, p in zip(got_rows, got_pivots))
    assert rank(m) == len(want_pivots)

    ker = kernel(m)
    assert ker.dim + len(want_pivots) == ncols
    for v in ker.basis:
        assert zero_free(v)
        assert not any(ref_apply(rows, dense(v, ncols, order), order))
    free = [j for j in range(ncols) if j not in want_pivots]
    ref_kernel = []
    for f in free:
        v = [zero(order)] * ncols
        v[f] = Cyclotomic.one(order)
        for r, p in zip(want_rows, want_pivots):
            v[p] = -r[f]
        ref_kernel.append(v)
    assert [dense(v, ncols, order) for v in ker.basis] == ref_rref(ref_kernel, ncols)[0]


@pytest.mark.parametrize("order", ORDERS)
@seed(20240801)
@PROPERTY
@given(data=st.data())
def test_coordinates_round_trip_inside_the_span_and_refuse_outside(order, data):
    (rows, ncols), coeffs, probe, _ = data.draw(with_vectors(order))
    space = Subspace.from_vectors(ncols, [sparse_of(r) for r in rows])
    eb = EchelonBasis(ncols)
    for r in rows:
        eb.add(sparse_of(r))
    assert space.basis == eb.rows and space.pivots == eb.pivots
    # a combination of the rows lies in the span, and its coordinates rebuild it
    inside = [sum((c * r[j] for c, r in zip(coeffs, rows)), zero(order)) for j in range(ncols)]
    coords = space.coordinates(sparse_of(inside))
    assert coords is not None and zero_free(coords)
    rebuilt = [zero(order)] * ncols
    for k, c in coords.items():
        rebuilt = [x + c * y for x, y in zip(rebuilt, dense(space.basis[k], ncols, order))]
    assert rebuilt == inside
    assert space.contains(sparse_of(inside))
    # a probe lies outside exactly when it raises the reference rank
    outside = len(ref_rref(rows + [probe], ncols)[1]) > len(ref_rref(rows, ncols)[1])
    assert (space.coordinates(sparse_of(probe)) is None) == outside
    assert space.contains(sparse_of(probe)) == (not outside)
    assert eb.contains(sparse_of(probe)) == (not outside)
    residual = eb.reduce(sparse_of(probe))
    assert zero_free(residual) and bool(residual) == outside


@pytest.mark.parametrize("order", ORDERS)
@seed(20240801)
@PROPERTY
@given(data=st.data())
def test_solve_matches_the_dense_reference(order, data):
    (rows, ncols), _, x0, rhs = data.draw(with_vectors(order))
    m = Matrix(rows, ncols=ncols)
    for b in (rhs, ref_apply(rows, x0, order)):
        got = solve(m, sparse_of(b))
        want = ref_solve(rows, b, ncols)
        if want is None:
            assert got is None
        else:
            assert got is not None and zero_free(got)
            assert dense(got, ncols, order) == want
            assert ref_apply(rows, want, order) == b
    assert solve(m, sparse_of(ref_apply(rows, x0, order))) is not None


@pytest.mark.parametrize("order", ORDERS)
@seed(20240801)
@PROPERTY
@given(data=st.data())
def test_inverse_times_matrix_is_the_identity(order, data):
    rows, n = data.draw(matrices(order, square=True))
    m = Matrix(rows, ncols=n)
    if len(ref_rref(rows, n)[1]) < n:
        with pytest.raises(ValueError, match="singular"):
            invert_matrix(m)
        return
    inv = invert_matrix(m)
    assert all(zero_free(r) for r in inv.data)
    ident = Matrix.identity(n)
    assert inv @ m == ident and m @ inv == ident
    product = inv @ m
    assert all(zero_free(r) for r in product.data)


def walk_every_row(eb, vec):
    """(residual, coordinates) of vec by eliminating against every basis row
    in turn, the form that reduce and coordinates index: their dicts must
    match these item for item, key order included."""
    coords = {}
    v = dict(vec)
    for k, (row, piv) in enumerate(zip(eb.rows, eb.pivots)):
        f = v.get(piv)
        if f is not None:
            coords[k] = f
            for c, x in row.items():
                w = v.get(c, zero(x.order)) - f * x
                if w:
                    v[c] = w
                else:
                    v.pop(c, None)
    return v, coords


@pytest.mark.parametrize("order", ORDERS)
@seed(20240801)
@PROPERTY
@given(data=st.data())
def test_indexed_elimination_matches_the_dense_reference(order, data):
    rows, ncols = data.draw(matrices(order))
    eb = EchelonBasis(ncols)
    for r in rows:
        eb.add(sparse_of(r))
    want_rows, want_pivots = ref_rref(rows, ncols)
    assert eb.pivots == want_pivots and set(eb.by_pivot) == set(want_pivots)
    assert all(eb.by_pivot[p] is r for r, p in zip(eb.rows, eb.pivots))
    # the query: a combination of the basis rows, half the time plus a
    # random sparse vector, which may take it out of the span
    query = [zero(order)] * ncols
    for r in want_rows:
        f = data.draw(scalars(order))
        query = [x + f * y for x, y in zip(query, r)]
    if data.draw(st.booleans()):
        for j in data.draw(st.lists(st.integers(0, ncols - 1), max_size=ncols)) if ncols else []:
            query[j] = query[j] + data.draw(scalars(order).filter(bool))
    vec = sparse_of(query)
    # shuffle the query's keys: elimination must visit the pivots in
    # ascending order whatever order the query lists them in
    vec = {j: vec[j] for j in data.draw(st.permutations(list(vec)))}
    residual, coords = walk_every_row(eb, vec)
    got = eb.reduce(vec)
    assert list(got.items()) == list(residual.items())
    assert zero_free(got)
    # the dense reference agrees on the residual
    v = dense(vec, ncols, order)
    for r, p in zip(want_rows, want_pivots):
        v = [x - v[p] * y for x, y in zip(v, r)]
    assert dense(got, ncols, order) == v
    got_coords = eb.coordinates(vec)
    if residual:
        assert got_coords is None
    else:
        assert list(got_coords.items()) == list(coords.items())
        rebuilt = [zero(order)] * ncols
        for k, f in got_coords.items():
            rebuilt = [x + f * y for x, y in zip(rebuilt, want_rows[k])]
        assert rebuilt == dense(vec, ncols, order)
