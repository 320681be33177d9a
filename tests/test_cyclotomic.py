"""Exact scalar arithmetic tests, including frozen small-value oracles."""

import random
import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import cyclotomic
from hopfcheck.cyclotomic import (
    MAX_ORDER,
    Cyclotomic,
    ScalarMemo,
    cyc_from_json,
    cyclotomic_polynomial,
    phi_degree,
    q_factorial,
    q_int,
    root_of_unity,
    scalar_hook,
)


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_phi_degree():
    assert [phi_degree(n) for n in [1, 2, 3, 4, 5, 6, 12]] == [1, 1, 2, 2, 4, 2, 4]


def test_third_root_relations():
    z = root_of_unity(3)
    assert z**3 == 1
    assert 1 + z + z**2 == 0
    assert z.inverse() == z**2
    assert (z**2).inverse() == z


def test_root_orders():
    for order in [1, 2, 3, 4, 5, 6, 8, 12]:
        for e in range(order):
            from math import gcd

            w = root_of_unity(order, e)
            assert w.multiplicative_order() == order // gcd(order, e)


def test_rational_field_ops():
    a = Cyclotomic.from_fraction(Fraction(3, 4))
    b = Cyclotomic.from_fraction(Fraction(-2, 5))
    assert (a + b).rational_value() == Fraction(7, 20)
    assert (a * b).rational_value() == Fraction(-3, 10)
    assert (a / b).rational_value() == Fraction(-15, 8)
    assert a - a == 0
    assert not (a - a)


def test_mixed_order_coercion():
    z3 = root_of_unity(3)
    m1 = root_of_unity(2)  # -1 at order 2
    assert m1 == -1
    assert z3 * m1 == -z3
    z6 = root_of_unity(6)
    assert z6**3 == -1
    assert z6**2 == z3
    assert z6 == -(z3**2)  # zeta_6 = -zeta_3^2


def test_field_axioms_random():
    rng = random.Random(20240801)
    for order in [1, 2, 3, 4, 5, 6]:
        deg = phi_degree(order)

        def rand():
            num = tuple(rng.randint(-9, 9) for _ in range(deg))
            return Cyclotomic(order, num, rng.randint(1, 7))

        for _ in range(40):
            a, b, c = rand(), rand(), rand()
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            if a:
                assert a * a.inverse() == 1
            if b:
                assert (a / b) * b == a


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(3).inverse()
    with pytest.raises(ZeroDivisionError):
        _ = 1 / Cyclotomic.zero(5)


def test_q_int_at_one_is_n():
    one = Cyclotomic.one()
    for n in range(21):
        assert q_int(n, one) == n


def test_q_int_geometric_series():
    # (n)_w * (w - 1) == w^n - 1 for any root w
    for order in [2, 3, 5, 6]:
        w = root_of_unity(order)
        for n in range(8):
            assert q_int(n, w) * (w - 1) == w**n - 1


def test_q_factorial_small_oracle():
    # (2)_w! = 1 + w by direct expansion
    w = root_of_unity(3, 2)  # zeta_3 inverse
    assert q_factorial(2, w) == 1 + w
    assert q_factorial(0, w) == 1
    assert q_factorial(1, w) == 1


def test_q_factorial_vanishing_at_p():
    for p in [2, 3, 5]:
        z = root_of_unity(p)
        assert q_factorial(p, z) == 0
        assert q_factorial(p - 1, z) != 0
        assert q_factorial(p - 1, z**(p - 1)) != 0  # inverse root too


def test_power_negative_exponent():
    z = root_of_unity(5)
    assert z**-1 == z**4
    assert (z + 1) ** -1 == (z + 1).inverse()


def test_json_round_trip():
    rng = random.Random(7)
    for order in [1, 2, 3, 4, 5, 6]:
        deg = phi_degree(order)
        for _ in range(20):
            x = Cyclotomic(
                order,
                tuple(rng.randint(-50, 50) for _ in range(deg)),
                rng.randint(1, 12),
            )
            assert cyc_from_json(x.to_json()) == x
    assert cyc_from_json(Cyclotomic.zero(3).to_json()) == 0


def test_json_shape():
    z = root_of_unity(3)
    obj = (z / 2).to_json()
    assert obj == {"order": 3, "coeffs": [["0", "1"], ["1", "2"]]}


def test_normalization_canonical():
    a = Cyclotomic(3, (2, 4), 6)
    b = Cyclotomic(3, (1, 2), 3)
    assert a.num == b.num and a.den == b.den


def test_lift_preserves_value():
    z3 = root_of_unity(3)
    lifted = z3.lift(12)
    assert lifted.order == 12
    assert lifted == z3
    assert lifted**3 == 1


# -- cyc_from_json against a Fraction reference ---------------------------------

_ints = st.integers(min_value=-(10**30), max_value=10**30)
_dens = _ints.filter(bool)


@st.composite
def _spellings(draw):
    """(order, coefficient pairs): unreduced, negative-denominator, huge."""
    order = draw(st.sampled_from([1, 3, 4, 5, 8, 12]))
    pairs = []
    for _ in range(phi_degree(order)):
        scale = draw(st.sampled_from([1, 1, -1, 6, -35, 10**12]))
        pairs.append((draw(_ints) * scale, draw(_dens) * scale))
    return order, pairs


@given(_spellings())
@settings(max_examples=300, deadline=None)
def test_cyc_from_json_matches_fraction_reference(spelling):
    order, pairs = spelling
    obj = {"order": order, "coeffs": [[str(n), str(d)] for n, d in pairs]}
    fracs = [Fraction(n, d) for n, d in pairs]
    den = lcm(*(f.denominator for f in fracs))
    got = cyc_from_json(obj)
    assert got.order == order
    assert got.den == den
    assert got.num == tuple(int(f * den) for f in fracs)
    reduced = [[str(f.numerator), str(f.denominator)] for f in fracs]
    assert got.to_json() == {"order": order, "coeffs": reduced}
    back = cyc_from_json(got.to_json())
    assert (back.order, back.num, back.den) == (got.order, got.num, got.den)


@pytest.mark.parametrize(
    "obj",
    [
        {"order": 1, "coeffs": [["1", "0"]]},
        {"order": 3, "coeffs": [["1", "2"], ["5", "-0"]]},
        {"order": 3.7, "coeffs": [["1", "1"], ["0", "1"]]},
        {"order": "3", "coeffs": [["1", "1"], ["0", "1"]]},
        {"order": True, "coeffs": [["1", "1"]]},
        {"order": 0, "coeffs": []},
        {"order": MAX_ORDER + 1, "coeffs": []},
        {"order": 1, "coeffs": [["1", "1", "1"]]},
        {"order": 1, "coeffs": [[1, 1]]},
        {"order": 1, "coeffs": [["1.5", "1"]]},
        {"order": 1, "coeffs": "11"},
    ],
)
def test_cyc_from_json_rejects_malformed(obj):
    with pytest.raises((TypeError, ValueError)):
        cyc_from_json(obj)


def test_cyc_from_json_memo_shares_values_and_forgets_failures():
    memo = ScalarMemo()
    a = cyc_from_json({"order": 3, "coeffs": [["2", "4"], ["0", "1"]]}, memo)
    b = cyc_from_json({"order": 3, "coeffs": [["2", "4"], ["0", "1"]]}, memo)
    c = cyc_from_json({"order": 3, "coeffs": [["1", "2"], ["0", "1"]]}, memo)
    assert a is b and a == c and a is not c
    assert len(memo) == 2
    bad = {"order": 1, "coeffs": [["1", "0"]]}
    for _ in range(2):
        with pytest.raises(ValueError, match="zero denominator"):
            cyc_from_json(bad, memo)
    assert len(memo) == 2
    # an exact int order only: true never stands in for 1
    assert cyc_from_json({"order": 1, "coeffs": [["1", "1"]]}, memo) == 1
    with pytest.raises(TypeError):
        cyc_from_json({"order": True, "coeffs": [["1", "1"]]}, memo)


def test_cyc_from_json_memo_is_capped_but_still_tracks_orders(monkeypatch):
    monkeypatch.setattr(cyclotomic, "MEMO_LIMIT", 3)
    memo = ScalarMemo()
    for d in range(1, 6):
        assert cyc_from_json({"order": 1, "coeffs": [["0", str(d)]]}, memo) == 0
    assert len(memo) == 3
    fifth = {"order": 5, "coeffs": [["0", "1"]] * 4}
    seventh = {"order": 7, "coeffs": [["0", "1"]] * 6}
    cyc_from_json(fifth, memo)
    assert (len(memo), memo.order) == (3, 5)
    cyc_from_json(fifth, memo)  # a miss again, with the order already counted
    monkeypatch.setattr(cyclotomic, "MAX_ORDER", 34)
    with pytest.raises(ValueError, match="lcm 35 "):
        cyc_from_json(seventh, memo)
    assert memo.order == 5


def test_cyc_from_json_takes_parsed_values_under_the_lcm_cap(monkeypatch):
    memo = ScalarMemo()
    fifth = root_of_unity(5)
    assert cyc_from_json(fifth, memo) is fifth and memo.order == 5
    monkeypatch.setattr(cyclotomic, "MAX_ORDER", 34)
    with pytest.raises(ValueError, match="lcm 35 "):
        cyc_from_json(root_of_unity(7), memo)
    assert memo.order == 5


def _zero_json(order):
    return {"order": order, "coeffs": [["0", "1"]] * phi_degree(order)}


def test_scalar_hook_leaves_other_objects_as_they_are():
    other = {"rows": 1, "cols": 1, "entries": [[_zero_json(3)]]}
    bad = {"order": 1, "coeffs": [["1", "0"]]}
    got = json.loads(json.dumps([other, bad]), object_hook=scalar_hook())
    assert got[1] == bad and type(got[0]) is dict
    assert got[0]["entries"][0][0] == Cyclotomic.zero(3)


def test_scalar_hook_parses_only_orders_of_one_common_order(monkeypatch):
    # 997 and 991 lie within MAX_ORDER but their lcm does not: the hook builds
    # the field of the first only, and leaves the second for reading to refuse
    got = json.loads(json.dumps([_zero_json(997), _zero_json(991), _zero_json(1)]),
                     object_hook=scalar_hook())
    assert [type(v) for v in got] == [Cyclotomic, dict, Cyclotomic]
    monkeypatch.setattr(cyclotomic, "MEMO_LIMIT", 1)
    got = json.loads(json.dumps([_zero_json(1), _zero_json(2), _zero_json(2)]),
                     object_hook=scalar_hook())
    assert got[1] == got[2] and got[1] is not got[2]  # past the limit, parsed each time


# -- field axioms across mixed orders, and the same-order fast path ------------

_ORDERS = (1, 3, 4, 5, 8, 12)


@st.composite
def _scalars(draw):
    """A scalar of one of _ORDERS, with a small denominator so products of
    integral values also exercise the den == 1 constructor."""
    order = draw(st.sampled_from(_ORDERS))
    deg = phi_degree(order)
    num = draw(st.lists(st.integers(-30, 30), min_size=deg, max_size=deg))
    den = draw(st.sampled_from([1, 1, 1, 2, 3, 12]))
    return Cyclotomic(order, tuple(num), den)


def _triple(x):
    return (x.order, x.num, x.den)


def _reference_mul(a, b):
    """a * b by Fraction polynomial product and long division by Phi_L."""
    order = lcm(a.order, b.order)
    a, b = a.lift(order), b.lift(order)
    prod = [Fraction(0)] * (2 * len(a.num) - 1)
    for i, x in enumerate(a.num):
        for j, y in enumerate(b.num):
            prod[i + j] += Fraction(x * y, a.den * b.den)
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    for top in range(len(prod) - 1, deg - 1, -1):
        c = prod[top]
        for t in range(deg + 1):
            prod[top - deg + t] -= c * phi[t]
    coeffs = prod[:deg]
    den = lcm(*(f.denominator for f in coeffs))
    return Cyclotomic(order, tuple(int(f * den) for f in coeffs), den)


@given(_scalars(), _scalars(), _scalars())
@settings(max_examples=200, deadline=None)
def test_ring_axioms_across_mixed_orders(a, b, c):
    zero, one = Cyclotomic.zero(), Cyclotomic.one()
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a + (-a) == 0 and a - a == 0
    assert a * zero == 0
    if a:
        assert a * a.inverse() == 1
    assert (a == b) == (not (a - b))


@given(_scalars(), _scalars())
@settings(max_examples=300, deadline=None)
def test_same_order_fast_path_matches_general_path(a, b):
    """Operands of different orders go through coerce and _common; the same
    values lifted to one order take the fast path.  Both give one (order,
    num, den), which is the gcd-normalized form __init__ builds."""
    order = lcm(a.order, b.order)
    la, lb = a.lift(order), b.lift(order)
    assert _triple(la * lb) == _triple(a * b) == _triple(_reference_mul(a, b))
    assert _triple(la + lb) == _triple(a + b)
    assert _triple(la - lb) == _triple(a - b)
    assert _triple(-la) == _triple(a.lift(order) * -1)
    assert (la == lb) == (a == b)
    for r in (a * b, a + b, a - b, -a, la * lb, la + lb):
        assert _triple(r) == _triple(Cyclotomic(r.order, r.num, r.den))
    # ints and Fractions are coerced (general path) to the same values
    k = b.num[0]
    assert _triple(a * k) == _triple(a * Cyclotomic.from_int(k, a.order))
    f = Fraction(k, 7)
    assert _triple(a + f) == _triple(a + Cyclotomic.from_fraction(f, a.order))
    assert (a == k) == (a == Cyclotomic.from_int(k, a.order))
