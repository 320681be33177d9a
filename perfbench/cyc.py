"""Exact arithmetic in Q(zeta_N), written apart from hopfcheck.

The benchmark generates its ingest documents and re-checks the doubles it
times with this module, so that no check of the program's output relies on
the program's own scalar code.  An element is a tuple of phi(N) Fractions:
coordinates in the power basis 1, z, ..., z^(phi(N)-1) modulo the N-th
cyclotomic polynomial.
"""

from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def cyclo_poly(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _divide_monic(num, cyclo_poly(d))
    return tuple(num)


def _divide_monic(num: list, den: tuple) -> list:
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            q[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact cyclotomic division")
    return q


def degree(n: int) -> int:
    return len(cyclo_poly(n)) - 1


def _reduce(coeffs: list, n: int) -> tuple:
    poly = cyclo_poly(n)
    deg = len(poly) - 1
    c = list(coeffs)
    for k in range(len(c) - 1, deg - 1, -1):
        top = c[k]
        if top:
            for j in range(deg + 1):
                c[k - deg + j] -= top * poly[j]
    c = c[:deg] + [0] * (deg - len(c))
    return tuple(Fraction(x) for x in c)


def zero(n: int) -> tuple:
    return (Fraction(0),) * degree(n)


def rational(q, n: int) -> tuple:
    return (Fraction(q),) + (Fraction(0),) * (degree(n) - 1)


def zeta(n: int, t: int) -> tuple:
    """zeta_n ** t."""
    coeffs = [0] * ((t % n) + 1)
    coeffs[t % n] = 1
    return _reduce(coeffs, n)


def add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mul(a: tuple, b: tuple, n: int) -> tuple:
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    return _reduce(conv, n)


def is_zero(a: tuple) -> bool:
    return not any(a)


def from_json(obj: dict, n: int) -> tuple:
    """A scalar in hopfcheck's JSON form, rewritten in Q(zeta_n)."""
    order = int(obj["order"])
    if n % order:
        raise ValueError(f"order {order} does not divide {n}")
    step = n // order
    acc = zero(n)
    for t, (num, den) in enumerate(obj["coeffs"]):
        q = Fraction(int(num), int(den))
        if q:
            acc = add(acc, tuple(q * c for c in zeta(n, t * step)))
    return acc


def to_json(a: tuple, n: int) -> str:
    """JSON text of a scalar in hopfcheck's schema (order n, reduced terms)."""
    parts = ", ".join(f'["{q.numerator}", "{q.denominator}"]' for q in a)
    return f'{{"order": {n}, "coeffs": [{parts}]}}'
