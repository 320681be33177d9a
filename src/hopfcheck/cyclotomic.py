"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A scalar is stored as an integer vector of length phi(N) (coordinates with
respect to the power basis 1, z, ..., z^(phi(N)-1), reduced modulo the N-th
cyclotomic polynomial) together with a positive integer denominator.  Vector
and denominator are kept gcd-normalized, so equal values at the same order
have identical representations.  Scalars of different orders are compared and
combined by lifting both to the lcm order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, neg

# The largest order cyc_from_json accepts.  A document names its own order,
# and the cyclotomic polynomial and power tables take time superlinear in it
# (about 0.5 s at order 2520, effectively unbounded for huge orders).  The
# cap lies far above any order the catalogue builds.
MAX_ORDER = 1000

# The most spellings one document's memo keeps (a ScalarMemo, or the one of a
# scalar_hook).  A dense document repeats a few spellings (the 101-dim
# benchmark documents: 1,287 of 1,030,402); one whose spellings are mostly
# distinct gains nothing from a memo, and the cap keeps it from holding a key
# and a value for each of them.
MEMO_LIMIT = 1 << 16

# Products and inverses of degree >= 2, each computed once: the doubles and
# the checks on them repeat a few distinct scalar operations many times (the
# drinfeld double of taft(5) makes 396,373 products of 850 distinct pairs).
# Keys hold the common order and both (num, den), so a value is shared only
# with an equal computation.  Each memo stops growing at MEMO_LIMIT entries;
# degree 1 is a single integer multiply and is never stored.
_PRODUCTS: dict[tuple, "Cyclotomic"] = {}
_INVERSES: dict[tuple, "Cyclotomic"] = {}

_CYCLO: dict[int, list[int]] = {}
_REDUCE: dict[int, list[tuple[int, ...]]] = {}
_POWERS: dict[int, list[tuple[int, ...]]] = {}


def _poly_div_exact_int(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials; divisor has leading coefficient 1.
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    if any(num):
        raise ArithmeticError(f"polynomial division leaves the remainder {num}")
    return q


def cyclotomic_polynomial(order: int) -> list[int]:
    """Integer coefficients of the order-th cyclotomic polynomial, ascending."""
    if order in _CYCLO:
        return _CYCLO[order]
    if order < 1:
        raise ValueError("order must be a positive integer")
    if order == 1:
        poly = [-1, 1]
    else:
        num = [0] * (order + 1)
        num[0] = -1
        num[order] = 1
        for d in range(1, order):
            if order % d == 0:
                num = _poly_div_exact_int(num, cyclotomic_polynomial(d))
        poly = num
    _CYCLO[order] = poly
    return poly


def _tables(order: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    # Power tables: x^k mod Phi_order for k in [0, max(order, 2*deg-1)).
    if order in _POWERS:
        return _REDUCE[order], _POWERS[order]
    poly = cyclotomic_polynomial(order)
    deg = len(poly) - 1
    top = [-c for c in poly[:deg]]  # x^deg reduces to this vector
    powers: list[list[int]] = []
    cur = [0] * deg
    if deg > 0:
        cur[0] = 1
    for _ in range(max(order, 2 * deg - 1)):
        powers.append(list(cur))
        carry = cur[deg - 1]
        nxt = [0] + cur[: deg - 1]
        if carry:
            for t in range(deg):
                nxt[t] += carry * top[t]
        cur = nxt
    ptuple = [tuple(v) for v in powers]
    _POWERS[order] = ptuple
    _REDUCE[order] = ptuple[deg : 2 * deg - 1] if deg > 1 else []
    return _REDUCE[order], _POWERS[order]


def phi_degree(order: int) -> int:
    """Degree of Q(zeta_order) over Q."""
    return len(cyclotomic_polynomial(order)) - 1


class IntegerImage:
    """Scalars of Q(zeta_order) reduced to integers modulo `modulus`.

    The image of a value v is (scale * v) with zeta sent to `root`, that is
    sum_s num_s root^s * (scale // den) mod modulus; every den it meets must
    divide scale.  When modulus divides Phi_order(root), zeta -> root is a
    ring map Z[zeta] -> Z/modulus, so sums and products of scaled values map
    to the sums and products of their images.  Each distinct value (num,
    den) is reduced once.
    """

    __slots__ = ("modulus", "scale", "_powers", "_memo")

    def __init__(self, order: int, root: int, modulus: int, scale: int):
        self.modulus = modulus
        self.scale = scale
        self._powers = [pow(root, s, modulus) for s in range(phi_degree(order))]
        self._memo: dict[tuple, int] = {}

    def __call__(self, v: Cyclotomic) -> int:
        key = (v.num, v.den)
        r = self._memo.get(key)
        if r is None:
            r = sum(c * w for c, w in zip(v.num, self._powers)) * (self.scale // v.den) % self.modulus
            self._memo[key] = r
        return r


class Cyclotomic:
    """An element of Q(zeta_order), stored exactly."""

    __slots__ = ("order", "num", "den")
    __hash__ = None  # equality spans orders; hashing would be inconsistent

    def __init__(self, order: int, num: tuple[int, ...], den: int = 1):
        deg = phi_degree(order)
        if len(num) != deg:
            raise ValueError(f"need {deg} coordinates for order {order}, got {len(num)}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = tuple(-c for c in num)
        g = den
        for c in num:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            num = tuple(c // g for c in num)
            den //= g
        self.order = order
        self.num = tuple(num)
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order: int = 1) -> Cyclotomic:
        return cls(order, (0,) * phi_degree(order), 1)

    @classmethod
    def one(cls, order: int = 1) -> Cyclotomic:
        return cls(order, (1,) + (0,) * (phi_degree(order) - 1), 1)

    @classmethod
    def from_int(cls, value: int, order: int = 1) -> Cyclotomic:
        return cls(order, (value,) + (0,) * (phi_degree(order) - 1), 1)

    @classmethod
    def from_fraction(cls, value, order: int = 1) -> Cyclotomic:
        value = Fraction(value)
        pad = (0,) * (phi_degree(order) - 1)
        return cls(order, (value.numerator,) + pad, value.denominator)

    @classmethod
    def coerce(cls, value) -> Cyclotomic:
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, int):
            return cls.from_int(value)
        if isinstance(value, Fraction):
            return cls.from_fraction(value)
        raise TypeError(f"cannot interpret {value!r} as a cyclotomic scalar")

    # -- order handling ---------------------------------------------------

    def lift(self, target: int) -> Cyclotomic:
        """Rewrite in Q(zeta_target); target must be a multiple of self.order."""
        if self.order == target:
            return self
        if target % self.order != 0:
            raise ValueError(f"cannot lift order {self.order} into order {target}")
        step = target // self.order
        _, powers = _tables(target)
        deg = phi_degree(target)
        acc = [0] * deg
        for t, c in enumerate(self.num):
            if c:
                row = powers[t * step]
                for k in range(deg):
                    if row[k]:
                        acc[k] += c * row[k]
        return Cyclotomic(target, tuple(acc), self.den)

    def lowest(self) -> Cyclotomic:
        """This value at the lowest order at which it lives: the least
        divisor d of its order with the value in Q(zeta_d)."""
        order, num = self.order, self.num
        if order == 1:
            return self
        if not any(num[1:]):
            # normalized, so num[0] and den are coprime
            return _trusted(1, num[:1], self.den)
        for d in range(2, order // 2 + 1):
            if order % d == 0:
                pivots, solve = _descent(order, d)
                coords = [sum(num[p] * row[t] for p, row in zip(pivots, solve))
                          for t in range(len(pivots))]
                scale = lcm(*(c.denominator for c in coords))
                value = Cyclotomic(d, tuple(int(c * scale) for c in coords), self.den * scale)
                lifted = value.lift(order)
                if lifted.num == num and lifted.den == self.den:
                    return value
        return self

    def _common(self, other: Cyclotomic) -> tuple[Cyclotomic, Cyclotomic]:
        if self.order == other.order:
            return self, other
        target = lcm(self.order, other.order)
        return self.lift(target), other.lift(target)

    # -- ring operations ---------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.num)

    # Same-order Cyclotomic operands take a fast path past coerce and _common,
    # and an integral result (den 1) is built by _trusted: with den 1 the gcd
    # pass of __init__ would leave it unchanged.

    def __eq__(self, other) -> bool:
        if type(other) is Cyclotomic and other.order == self.order:
            return self.num == other.num and self.den == other.den
        try:
            other = Cyclotomic.coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    def __neg__(self) -> Cyclotomic:
        # negation keeps num and den coprime
        return _trusted(self.order, tuple(map(neg, self.num)), self.den)

    def __add__(self, other) -> Cyclotomic:
        if type(other) is Cyclotomic and other.order == self.order:
            a, b = self, other
        else:
            try:
                other = Cyclotomic.coerce(other)
            except TypeError:
                return NotImplemented
            a, b = self._common(other)
        if a.den == 1 and b.den == 1:
            return _trusted(a.order, tuple(map(add, a.num, b.num)))
        return Cyclotomic(
            a.order,
            tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num)),
            a.den * b.den,
        )

    __radd__ = __add__

    def __sub__(self, other) -> Cyclotomic:
        try:
            other = Cyclotomic.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Cyclotomic:
        return Cyclotomic.coerce(other) + (-self)

    def __mul__(self, other) -> Cyclotomic:
        if type(other) is Cyclotomic and other.order == self.order:
            a, b = self, other
        else:
            try:
                other = Cyclotomic.coerce(other)
            except TypeError:
                return NotImplemented
            a, b = self._common(other)
        den = a.den * b.den
        deg = len(a.num)
        if deg == 1:
            out = (a.num[0] * b.num[0],)
            return _trusted(a.order, out) if den == 1 else Cyclotomic(a.order, out, den)
        key = (a.order, a.num, a.den, b.num, b.den)
        hit = _PRODUCTS.get(key)
        if hit is not None:
            return hit
        conv = [0] * (2 * deg - 1)
        for i, ai in enumerate(a.num):
            if ai:
                for j, bj in enumerate(b.num):
                    if bj:
                        conv[i + j] += ai * bj
        reduce_rows, _ = _tables(a.order)
        out = conv[:deg]
        for k in range(deg, 2 * deg - 1):
            c = conv[k]
            if c:
                row = reduce_rows[k - deg]
                for t in range(deg):
                    if row[t]:
                        out[t] += c * row[t]
        out = tuple(out)
        value = _trusted(a.order, out) if den == 1 else Cyclotomic(a.order, out, den)
        if len(_PRODUCTS) < MEMO_LIMIT:
            _PRODUCTS[key] = value
        return value

    __rmul__ = __mul__

    def inverse(self) -> Cyclotomic:
        if not any(self.num):
            raise ZeroDivisionError("inverse of zero")
        deg = len(self.num)
        if deg == 1:
            return Cyclotomic(self.order, (self.den,), self.num[0])
        key = (self.order, self.num, self.den)
        hit = _INVERSES.get(key)
        if hit is not None:
            return hit
        # Extended Euclid in Q[x]: s*self + t*Phi = const, so s/const inverts self.
        r0 = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r1 = [Fraction(c, self.den) for c in self.num]
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) <= 1:
                break
            q, r = _frac_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _frac_sub(s0, _frac_mul(q, s1))
        if not r1:
            raise ZeroDivisionError("inverse of zero")
        c = r1[0]
        coeffs = [si / c for si in s1] + [Fraction(0)] * deg
        den = 1
        for f in coeffs[:deg]:
            den = lcm(den, f.denominator)
        value = Cyclotomic(self.order, tuple(int(f * den) for f in coeffs[:deg]), den)
        if len(_INVERSES) < MEMO_LIMIT:
            _INVERSES[key] = value
        return value

    def __truediv__(self, other) -> Cyclotomic:
        try:
            other = Cyclotomic.coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> Cyclotomic:
        return Cyclotomic.coerce(other) * self.inverse()

    def __pow__(self, k: int) -> Cyclotomic:
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        out = Cyclotomic.one(base.order)
        cur = base
        while k:
            if k & 1:
                out = out * cur
            cur = cur * cur
            k >>= 1
        return out

    # -- queries ---------------------------------------------------

    def multiplicative_order(self):
        """Smallest k >= 1 with self**k == 1, or None if not a root of unity."""
        if not any(self.num):
            return None
        one = Cyclotomic.one(self.order)
        cur = self
        for k in range(1, 2 * self.order + 1):
            if cur == one:
                return k
            cur = cur * self
        return None

    def pretty(self) -> str:
        if not any(self.num):
            return "0"
        parts = []
        for t, c in enumerate(self.num):
            if not c:
                continue
            q = Fraction(c, self.den)
            if t == 0:
                parts.append(str(q))
            else:
                mag = "" if abs(q) == 1 else f"{abs(q)}*"
                sign = "-" if q < 0 else ""
                parts.append(f"{sign}{mag}" + ("z" if t == 1 else f"z^{t}"))
        s = parts[0]
        for p in parts[1:]:
            s += p if p.startswith("-") else "+" + p
        return s if self.order == 1 else f"{s} [z=zeta_{self.order}]"

    def __repr__(self) -> str:
        return f"Cyclotomic({self.pretty()!r})"

    def to_json(self) -> dict:
        """The JSON form, at the lowest order at which the value lives, so
        that equal values are written alike."""
        value = self.lowest()
        coeffs = []
        for c in value.num:
            q = Fraction(c, value.den)
            coeffs.append([str(q.numerator), str(q.denominator)])
        return {"order": value.order, "coeffs": coeffs}


# (order, d) -> what Cyclotomic.lowest needs to read a value of Q(zeta_order)
# in the power basis of its subfield Q(zeta_d), filled on first use.
_DESCENT: dict[tuple[int, int], tuple[list[int], list[list[Fraction]]]] = {}


def _descent(order: int, d: int) -> tuple[list[int], list[list[Fraction]]]:
    """(pivots, solve) for d dividing order: a value of Q(zeta_order) whose
    coordinates are num lies in Q(zeta_d) only as sum_t a_t zeta_d^t with
    a_t = sum_r num[pivots[r]] * solve[r][t].  The lifts of zeta_d^t are
    independent rows, reduced here with the identity beside them."""
    key = (order, d)
    if key not in _DESCENT:
        _, powers = _tables(order)
        m, step = phi_degree(d), order // d
        rows = [[Fraction(x) for x in powers[t * step]] + [Fraction(int(t == s)) for s in range(m)]
                for t in range(m)]
        pivots = []
        for col in range(phi_degree(order)):
            r = len(pivots)
            lead = next((i for i in range(r, m) if rows[i][col]), None)
            if lead is None:
                continue
            rows[r], rows[lead] = rows[lead], rows[r]
            rows[r] = [x / rows[r][col] for x in rows[r]]
            for i in range(m):
                if i != r and rows[i][col]:
                    f = rows[i][col]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append(col)
        _DESCENT[key] = pivots, [row[-m:] for row in rows]
    return _DESCENT[key]


def _trusted(order: int, num: tuple[int, ...], den: int = 1) -> Cyclotomic:
    """A Cyclotomic built without __init__'s checks: num must already have
    phi(order) entries and be coprime with den > 0 (true for any den == 1)."""
    c = object.__new__(Cyclotomic)
    c.order = order
    c.num = num
    c.den = den
    return c


# Shared order-1 constants.  Cyclotomic values are immutable, so these two
# instances stand for every zero and one that needs no particular order.
ZERO = Cyclotomic.zero()
ONE = Cyclotomic.one()


def _frac_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i, bi in enumerate(b):
            a[shift + i] -= f * bi
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _frac_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _frac_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def root_of_unity(order: int, exponent: int = 1) -> Cyclotomic:
    """zeta_order ** exponent, exactly."""
    _, powers = _tables(order)
    return Cyclotomic(order, powers[exponent % order], 1)


def _spelling(obj) -> tuple:
    """(order, num_0, den_0, num_1, den_1, ...) as spelled in a JSON scalar.

    Two spellings give equal tuples exactly when they are the same JSON: the
    order must be an exact int (so true and 3.0 never stand in for 1 and 3)
    and every coefficient part a string.  Raises KeyError or TypeError for
    anything not shaped like a scalar.
    """
    order = obj["order"]
    coeffs = obj["coeffs"]
    if type(order) is not int:
        raise TypeError(f"order must be an integer, got {order!r}")
    if type(coeffs) is not list:
        raise TypeError(f"coeffs must be a list, got {coeffs!r}")
    key = [order]
    for pair in coeffs:
        if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not str \
                or type(pair[1]) is not str:
            raise TypeError(f"a coefficient must be a pair of integer strings, got {pair!r}")
        key += pair
    return tuple(key)


def _from_spelling(key: tuple) -> Cyclotomic:
    return _from_parts(key[0], key[1::2], key[2::2])


def _from_parts(order: int, nums: tuple, dens: tuple) -> Cyclotomic:
    """The scalar of an int order and its coefficients' numerator and
    denominator strings, which are as many as each other."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in 1..{MAX_ORDER}, got {order}")
    deg = phi_degree(order)
    if len(nums) != deg:
        raise ValueError(f"order {order} needs a list of {deg} coefficients")
    nums = [int(s) for s in nums]
    dens = [int(s) for s in dens]
    if not all(dens):
        raise ValueError("zero denominator")
    den = lcm(*dens)  # positive; Cyclotomic() gcd-normalizes what is left
    return Cyclotomic(order, tuple(n * (den // d) for n, d in zip(nums, dens)), den)


class ScalarMemo(dict):
    """What cyc_from_json has read of one document: a dict from the first
    MEMO_LIMIT distinct spellings that parsed to their values, and `order`,
    the lcm of the orders of every scalar read.  Arithmetic lifts mixed
    orders to their lcm, so the cap on orders applies to that lcm."""

    def __init__(self):
        super().__init__()
        self.order = 1


def cyc_from_json(obj: dict | Cyclotomic, memo: ScalarMemo | None = None) -> Cyclotomic:
    """Parse the JSON form written by `Cyclotomic.to_json`.

    `order` must be an integer in 1..MAX_ORDER and `coeffs` a list of
    phi(order) [numerator, denominator] pairs of integer strings with nonzero
    denominators (unreduced or negative ones are fine).  Anything else raises
    KeyError, TypeError or ValueError.  A Cyclotomic, which scalar_hook made
    while the document was decoded, is taken as it is.

    With a `memo` kept for the scalars of one document, a spelling the
    document repeats is parsed once and its (immutable) value shared, and a
    scalar that takes the lcm of the document's orders above MAX_ORDER raises
    ValueError, wherever it recurs.  A spelling that does not parse is never
    stored, so it fails again wherever it recurs.
    """
    if type(obj) is Cyclotomic:
        value = obj
    else:
        key = _spelling(obj)
        if memo is None:
            return _from_spelling(key)
        value = memo.get(key)
        if value is None:
            value = _from_spelling(key)
            if len(memo) < MEMO_LIMIT:
                memo[key] = value
    if memo is not None and memo.order % value.order:
        order = lcm(memo.order, value.order)
        if order > MAX_ORDER:
            raise ValueError(
                f"order {value.order} takes the lcm {order} of the document's "
                f"orders above {MAX_ORDER}"
            )
        memo.order = order
    return value


def scalar_hook():
    """A json `object_hook` that parses scalars while a document is decoded.

    An object whose keys are exactly `order` and `coeffs` and whose spelling
    parses becomes its Cyclotomic.  Like a ScalarMemo, the hook parses each
    distinct spelling once (up to MEMO_LIMIT of them), and it shares each
    value it parsed by (order, num, den) (up to MEMO_LIMIT of them), so the
    decoded tree holds one value per distinct value, however it is spelled,
    instead of a dict, two lists and two strings per scalar.  Both memos
    only gain absent keys, so the hook is idempotent: called again on an
    object, it returns an equal value.  A spelling met again costs
    one key and one lookup, whatever its order: its types are checked, from
    that key, only when it is first parsed.  Every other object is returned
    as it is, for cyc_from_json to report where it is read; the cap on the
    lcm of orders is applied there too, in reading order.  The hook parses
    only scalars whose orders divide one common order within MAX_ORDER, so a
    document cannot make it build the fields of orders that reading would
    refuse.
    """
    memo: dict[tuple, Cyclotomic] = {}
    get = memo.get
    values: dict[tuple, Cyclotomic] = {}  # by (order, num, den)
    seen = 1  # lcm of the orders parsed so far

    def hook(obj: dict):
        nonlocal seen
        if len(obj) != 2:
            return obj
        # The order's type and value, then each pair's entries followed by
        # the pair's type.  A stored key spells a scalar that was vetted: an
        # int order, and lists of two strings.  The types keep true, 1.0, a
        # string or an object apart from those, and strings equal only
        # strings, so a key equals a stored one only when obj spells the
        # same scalar.
        try:
            order = obj["order"]
            key = [type(order), order]
            for pair in obj["coeffs"]:
                key += pair
                key.append(type(pair))
            key = tuple(key)
            value = get(key)
        except (KeyError, TypeError):  # a key missing, a part not iterable or unhashable
            return obj
        if value is not None:
            return value
        # Vetted from the key.  No JSON value is a type, so the pair types
        # fall on every third place exactly when each pair has two entries,
        # and they are list only when the pairs are lists (coeffs that is
        # not a list gives no list, or no pair, which no order has).
        if type(order) is not int or len(key) % 3 != 2:
            return obj
        parts = iter(key[2:])
        for num, den, kind in zip(parts, parts, parts):
            if kind is not list or type(num) is not str or type(den) is not str:
                return obj
        both = lcm(seen, order)
        if not 1 <= both <= MAX_ORDER:
            return obj
        try:
            value = _from_parts(order, key[2::3], key[3::3])
        except ValueError:
            return obj
        seen = both
        shared = (value.order, value.num, value.den)
        if len(values) < MEMO_LIMIT:
            value = values.setdefault(shared, value)
        else:
            value = values.get(shared, value)
        if len(memo) < MEMO_LIMIT:
            memo[key] = value
        return value

    return hook


def q_int(n: int, omega: Cyclotomic) -> Cyclotomic:
    """The q-integer (n)_omega = 1 + omega + ... + omega**(n-1)."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    acc = Cyclotomic.zero(omega.order)
    cur = Cyclotomic.one(omega.order)
    for _ in range(n):
        acc = acc + cur
        cur = cur * omega
    return acc


def q_factorial(n: int, omega: Cyclotomic) -> Cyclotomic:
    """The q-factorial (n)_omega! = (n)_omega (n-1)_omega ... (1)_omega."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    acc = Cyclotomic.one(omega.order)
    for k in range(1, n + 1):
        acc = acc * q_int(k, omega)
    return acc
