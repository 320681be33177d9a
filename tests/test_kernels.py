"""The two linear-combination kernels against dense references:
linalg.lincomb (sum_j c_j v_j over sparse vectors) and hopf.tensor_map
((f (x) g)(t) for a flat tensor t), on seeded sparse data at several
cyclotomic orders, with terms built to cancel."""

import random

import pytest

from hopfcheck.cyclotomic import ZERO, Cyclotomic, phi_degree
from hopfcheck.hopf import tensor_map
from hopfcheck.linalg import dense_of, lincomb

ORDERS = [1, 3, 4, 12]


def scalar(rng, order):
    """A nonzero scalar of Q(zeta_order) with small integer coordinates."""
    while True:
        num = tuple(rng.randint(-3, 3) for _ in range(phi_degree(order)))
        value = Cyclotomic(order, num, rng.randint(1, 4))
        if value:
            return value


def sparse(rng, order, n, size):
    """A sparse vector of dim n with size nonzero entries."""
    return {k: scalar(rng, order) for k in rng.sample(range(n), size)}


def zero_free(vec):
    return all(v for v in vec.values())


def dense_lincomb(cols, coeffs, n):
    return [sum((c * cols[j].get(r, ZERO) for j, c in coeffs.items()), ZERO) for r in range(n)]


@pytest.mark.parametrize("order", ORDERS)
def test_lincomb_matches_dense_reference(order):
    rng = random.Random(order)
    n = 8
    for _ in range(20):
        cols = [sparse(rng, order, n, rng.randint(0, 5)) for _ in range(6)]
        coeffs = {j: scalar(rng, order) for j in rng.sample(range(6), rng.randint(0, 6))}
        got = lincomb(cols, coeffs)
        assert dense_of(got, n) == tuple(dense_lincomb(cols, coeffs, n))
        assert zero_free(got)


@pytest.mark.parametrize("order", ORDERS)
def test_lincomb_drops_the_entries_that_cancel(order):
    rng = random.Random(100 + order)
    n = 8
    for _ in range(20):
        cols = {j: sparse(rng, order, n, 4) for j in range(3)}
        coeffs = {j: scalar(rng, order) for j in range(3)}
        partial = lincomb(cols, coeffs)
        # a last column that cancels the partial sum on a subset of its keys
        gone = set(rng.sample(sorted(partial), min(len(partial), 2)))
        last = scalar(rng, order)
        cols[3] = {k: -(v / last) for k, v in partial.items() if k in gone}
        coeffs[3] = last
        got = lincomb(cols, coeffs)
        assert not gone & set(got)
        assert dense_of(got, n) == tuple(dense_lincomb(cols, coeffs, n))
        assert zero_free(got)
    # a dict of columns, read in the order of the coefficients
    v = sparse(rng, order, n, 4)
    one = Cyclotomic.one(order)
    assert lincomb({"a": v, "b": v}, {"b": one, "a": -one}) == {}


def dense_tensor_map(n, t, f, g, width, rows):
    """sum over every (a, b, x, y) of t_ab f(a)_x g(b)_y at x*width + y, the
    identity leg read as the unit matrix; rows is the number of keys."""
    def leg(h, a):
        return {a: Cyclotomic.one()} if h is None else h[a]

    out = [ZERO] * rows
    for ab in range(n * n):
        c = t.get(ab, ZERO)
        a, b = divmod(ab, n)
        for x, u in leg(f, a).items():
            for y, w in leg(g, b).items():
                out[x * width + y] += c * u * w
    return out


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("legs", ["f g", "id g", "f id", "id id"])
def test_tensor_map_matches_dense_reference(order, legs):
    rng = random.Random(f"{order} {legs}")
    n, fdim, gdim = 3, 4, 5
    for _ in range(10):
        fcols = [sparse(rng, order, fdim, rng.randint(0, 3)) for _ in range(n)]
        gcols = [sparse(rng, order, gdim, rng.randint(0, 3)) for _ in range(n)]
        f = None if legs.startswith("id") else fcols
        g = None if legs.endswith("id") else gcols
        xdim = n if f is None else fdim
        width = n if g is None else gdim
        t = sparse(rng, order, n * n, rng.randint(0, 6))
        got = tensor_map(n, t, f, g, width)
        assert dense_of(got, xdim * width) == tuple(dense_tensor_map(n, t, f, g, width, xdim * width))
        assert zero_free(got)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("side", ["f", "g"])
def test_tensor_map_drops_the_terms_that_cancel(order, side):
    rng = random.Random(f"cancel {order} {side}")
    n, dim = 3, 4
    for _ in range(10):
        cols = [sparse(rng, order, dim, 2) for _ in range(n)]
        cols[2] = dict(cols[0])  # e_0 and e_2 map alike
        other = rng.randrange(n)
        s = scalar(rng, order)
        # the mapped leg meets e_0 and e_2, the other leg is the identity
        if side == "f":
            f, g, xdim, width = cols, None, dim, n
            cancelling = {0 * n + other: s, 2 * n + other: -s}
        else:
            f, g, xdim, width = None, cols, n, dim
            cancelling = {other * n + 0: s, other * n + 2: -s}
        assert tensor_map(n, cancelling, f, g, width) == {}
        t = {**sparse(rng, order, n * n, 4), **cancelling}
        got = tensor_map(n, t, f, g, width)
        assert dense_of(got, xdim * width) == tuple(dense_tensor_map(n, t, f, g, width, xdim * width))
        assert zero_free(got)
