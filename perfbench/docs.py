"""Seeded ingest documents, built with the benchmark's own arithmetic.

Every valid document is associative and unital by construction: it is a
(twisted) group algebra, a matrix algebra, or a tensor product or direct
sum of these, written in a rescaled basis and, for the small tensor
factor, a dense change of basis.  Hopf documents are Taft algebras in a
rescaled basis, which are Hopf algebras by construction.  A corrupted copy
perturbs one structure constant or one antipode entry, and the generator
proves the copy broken by exhibiting a failing triple or basis element
with its own arithmetic before it writes the document.

Documents are written as text in the dense schema of hopfcheck.serialize,
every entry spelled out at the document's field order.
"""

import json
import os
import random
from fractions import Fraction

import cyc


class Alg:
    """Sparse structure constants over Q(zeta_n): rows[(i, j)] = {k: scalar}."""

    def __init__(self, dim, n, rows, unit):
        self.dim = dim
        self.n = n
        self.rows = rows
        self.unit = unit  # {k: scalar}

    def mul(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for i, a in u.items():
            for j, b in v.items():
                cell = self.rows.get((i, j))
                if cell:
                    ab = cyc.mul(a, b, self.n)
                    for k, c in cell.items():
                        out[k] = cyc.add(out.get(k, cyc.zero(self.n)), cyc.mul(ab, c, self.n))
        return {k: v for k, v in out.items() if not cyc.is_zero(v)}


class Hopf:
    def __init__(self, alg, comult, counit, antipode):
        self.alg = alg
        self.comult = comult  # j -> {(a, b): scalar}
        self.counit = counit  # j -> scalar
        self.antipode = antipode  # j -> {k: scalar}


def _one(n):
    return cyc.rational(1, n)


def twisted_group(orders, n, twist):
    """k_omega[Z/orders[0] x ...] with omega(g, h) = zeta_n^(twist g_0 h_1);
    a bicharacter, hence a 2-cocycle, when n divides twist*orders[0] and
    twist*orders[1]."""
    if twist and ((twist * orders[0]) % n or (twist * orders[1]) % n):
        raise ValueError("twist is not a bicharacter on these orders")
    elems = [()]
    for m in orders:
        elems = [e + (x,) for e in elems for x in range(m)]
    index = {e: i for i, e in enumerate(elems)}
    rows = {}
    for g in elems:
        for h in elems:
            gh = tuple((x + y) % m for x, y, m in zip(g, h, orders))
            w = cyc.zeta(n, twist * g[0] * h[1]) if twist else _one(n)
            rows[(index[g], index[h])] = {index[gh]: w}
    return Alg(len(elems), n, rows, {0: _one(n)})


def matrix_algebra(m, n):
    rows = {}
    for i in range(m):
        for j in range(m):
            for l in range(m):
                rows[(i * m + j, j * m + l)] = {i * m + l: _one(n)}
    return Alg(m * m, n, rows, {i * m + i: _one(n) for i in range(m)})


def tensor(a: Alg, b: Alg) -> Alg:
    n = a.n
    rows = {}
    for (i, j), ca in a.rows.items():
        for (k, l), cb in b.rows.items():
            cell = {}
            for u, x in ca.items():
                for v, y in cb.items():
                    cell[u * b.dim + v] = cyc.mul(x, y, n)
            rows[(i * b.dim + k, j * b.dim + l)] = cell
    unit = {
        u * b.dim + v: cyc.mul(x, y, n) for u, x in a.unit.items() for v, y in b.unit.items()
    }
    return Alg(a.dim * b.dim, n, rows, unit)


def direct_sum(a: Alg, b: Alg) -> Alg:
    rows = dict(a.rows)
    for (i, j), cell in b.rows.items():
        rows[(i + a.dim, j + a.dim)] = {k + a.dim: v for k, v in cell.items()}
    unit = dict(a.unit)
    unit.update({k + a.dim: v for k, v in b.unit.items()})
    return Alg(a.dim + b.dim, a.n, rows, unit)


def _invertible(rng, n):
    """A random nonzero scalar r * zeta^t with its inverse."""
    r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    t = rng.randrange(n)
    z = cyc.zeta(n, t)
    return tuple(r * c for c in z), tuple(c / r for c in cyc.zeta(n, -t))


def rescale(a: Alg, rng) -> tuple:
    """The same algebra in the basis f_i = c_i e_i; returns (algebra, c, c^-1)."""
    n = a.n
    c, ci = zip(*(_invertible(rng, n) for _ in range(a.dim)))
    rows = {}
    for (i, j), cell in a.rows.items():
        f = cyc.mul(c[i], c[j], n)
        rows[(i, j)] = {k: cyc.mul(cyc.mul(f, v, n), ci[k], n) for k, v in cell.items()}
    unit = {k: cyc.mul(v, ci[k], n) for k, v in a.unit.items()}
    return Alg(a.dim, n, rows, unit), c, ci


def dense_basis(a: Alg, rng) -> Alg:
    """The same algebra in the basis f_b = sum_i P[i][b] e_i for a random
    unimodular integer P = L U, so every structure constant is dense."""
    d, n = a.dim, a.n
    lower = [[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(d)] for i in range(d)]
    upper = [[1 if i == j else (rng.randint(-2, 2) if i < j else 0) for j in range(d)] for i in range(d)]
    p = [[sum(lower[i][t] * upper[t][j] for t in range(d)) for j in range(d)] for i in range(d)]
    pinv = _inverse(p)
    rows = {}
    for x in range(d):
        for y in range(d):
            acc: dict = {}
            for i in range(d):
                for j in range(d):
                    w = p[i][x] * p[j][y]
                    if w:
                        for k, v in a.rows.get((i, j), {}).items():
                            acc[k] = cyc.add(acc.get(k, cyc.zero(n)), tuple(w * c for c in v))
            cell = {}
            for z in range(d):
                s = cyc.zero(n)
                for k, v in acc.items():
                    if pinv[z][k]:
                        s = cyc.add(s, tuple(pinv[z][k] * c for c in v))
                if not cyc.is_zero(s):
                    cell[z] = s
            rows[(x, y)] = cell
    unit = {}
    for z in range(d):
        s = cyc.zero(n)
        for k, v in a.unit.items():
            s = cyc.add(s, tuple(pinv[z][k] * c for c in v))
        if not cyc.is_zero(s):
            unit[z] = s
    return Alg(d, n, rows, unit)


def _inverse(p):
    d = len(p)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(p)]
    for col in range(d):
        piv = next(r for r in range(col, d) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(d):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[d:] for row in m]


def _qbinom(j, r, xi_exp, n):
    """Gaussian binomial [j choose r]_q at q = zeta_n^xi_exp."""
    def qint(k):
        acc = cyc.zero(n)
        for t in range(k):
            acc = cyc.add(acc, cyc.zeta(n, xi_exp * t))
        return acc

    num, den = _one(n), _one(n)
    for t in range(r):
        num = cyc.mul(num, qint(j - t), n)
        den = cyc.mul(den, qint(t + 1), n)
    # den is a product of q-integers (k)_q with 0 < k < p, hence invertible
    return _divide(num, den, n)


def _divide(a, b, n):
    # b is invertible; solve b * x = a by linear algebra over Q
    deg = cyc.degree(n)
    cols = [cyc.mul(b, cyc.zeta(n, t), n) for t in range(deg)]
    m = [[cols[t][r] for t in range(deg)] for r in range(deg)]
    x = [sum(row[k] * a[k] for k in range(deg)) for row in _inverse(m)]
    return tuple(Fraction(v) for v in x)


def taft(p, xi_exp):
    """The Taft algebra on g, x with g x = xi x g, xi = zeta_p^xi_exp; basis
    g^i x^j at index i*p + j."""
    n = p
    xi = lambda t: cyc.zeta(n, xi_exp * t)
    idx = lambda i, j: (i % p) * p + j
    rows = {}
    for i in range(p):
        for j in range(p):
            for k in range(p):
                for l in range(p - j):
                    rows[(idx(i, j), idx(k, l))] = {idx(i + k, j + l): xi(-j * k)}
    alg = Alg(p * p, n, rows, {0: _one(n)})
    comult, counit, antipode = {}, {}, {}
    for i in range(p):
        for j in range(p):
            col = {}
            for r in range(j + 1):
                w = cyc.mul(_qbinom(j, r, xi_exp, n), xi(-r * (j - r)), n)
                col[(idx(i + j - r, r), idx(i, j - r))] = w
            comult[idx(i, j)] = col
            counit[idx(i, j)] = _one(n) if j == 0 else cyc.zero(n)
    # S(g^i x^j) = S(x)^j S(g)^i with S(g) = g^{-1}, S(x) = -g^{-1} x
    sg = {idx(-1, 0): _one(n)}
    sx = {idx(-1, 1): cyc.rational(-1, n)}
    for i in range(p):
        for j in range(p):
            v = {0: _one(n)}
            for _ in range(j):
                v = alg.mul(v, sx)
            for _ in range(i):
                v = alg.mul(v, sg)
            antipode[idx(i, j)] = v
    return Hopf(alg, comult, counit, antipode)


def rescale_hopf(h: Hopf, rng) -> Hopf:
    n = h.alg.n
    alg, c, ci = rescale(h.alg, rng)
    dim = alg.dim
    comult = {
        j: {(a, b): cyc.mul(cyc.mul(c[j], v, n), cyc.mul(ci[a], ci[b], n), n) for (a, b), v in col.items()}
        for j, col in h.comult.items()
    }
    counit = {j: cyc.mul(c[j], h.counit[j], n) for j in range(dim)}
    antipode = {
        j: {k: cyc.mul(cyc.mul(c[j], v, n), ci[k], n) for k, v in col.items()}
        for j, col in h.antipode.items()
    }
    return Hopf(alg, comult, counit, antipode)


# -- corruption with a proof that the copy is broken -------------------------


def _assoc_fails(a: Alg, i, j, k) -> bool:
    e = lambda t: {t: _one(a.n)}
    return a.mul(a.mul(e(i), e(j)), e(k)) != a.mul(e(i), a.mul(e(j), e(k)))


def perturb_structure(a: Alg, rng) -> Alg:
    """Copy of a with one structure constant changed, once a triple is found
    on which the copy is not associative."""
    n = a.n
    while True:
        i, j, k = rng.randrange(a.dim), rng.randrange(a.dim), rng.randrange(a.dim)
        rows = dict(a.rows)
        cell = dict(rows.get((i, j), {}))
        cell[k] = cyc.add(cell.get(k, cyc.zero(n)), cyc.rational(rng.randint(1, 5), n))
        if cyc.is_zero(cell[k]):
            del cell[k]
        rows[(i, j)] = cell
        bad = Alg(a.dim, n, rows, a.unit)
        for t in range(a.dim):
            if _assoc_fails(bad, i, j, t) or _assoc_fails(bad, t, i, j):
                return bad


def perturb_antipode(h: Hopf, rng) -> Hopf:
    """Copy of h with one antipode entry changed, once a basis element is
    found on which m(S (x) id) Delta = unit * counit fails."""
    n = h.alg.n
    while True:
        j, k = rng.randrange(h.alg.dim), rng.randrange(h.alg.dim)
        antipode = dict(h.antipode)
        col = dict(antipode[j])
        col[k] = cyc.add(col.get(k, cyc.zero(n)), cyc.rational(rng.randint(1, 5), n))
        antipode[j] = col
        bad = Hopf(h.alg, h.comult, h.counit, antipode)
        for b in range(h.alg.dim):
            if not _antipode_law(bad, b):
                return bad


def _antipode_law(h: Hopf, b) -> bool:
    n = h.alg.n
    acc: dict = {}
    for (x, y), w in h.comult[b].items():
        term = h.alg.mul(h.antipode[x], {y: w})
        for k, v in term.items():
            acc[k] = cyc.add(acc.get(k, cyc.zero(n)), v)
    want = {k: cyc.mul(v, h.counit[b], n) for k, v in h.alg.unit.items()}
    nonzero = lambda d: {k: v for k, v in d.items() if not cyc.is_zero(v)}
    return nonzero(acc) == nonzero(want)


# -- writing ------------------------------------------------------------------


def write_doc(path, a: Alg, h: Hopf | None = None) -> None:
    n, dim = a.n, a.dim
    zero = cyc.to_json(cyc.zero(n), n)

    def vector(d: dict) -> str:
        return "[" + ", ".join(cyc.to_json(d[k], n) if k in d else zero for k in range(dim)) + "]"

    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(f'{{"dim": {dim}, "unit": {vector(a.unit)}, "structure": [')
        for i in range(dim):
            fh.write("[" if i == 0 else ", [")
            fh.write(", ".join(vector(a.rows.get((i, j), {})) for j in range(dim)))
            fh.write("]")
        fh.write("]")
        if h is not None:
            fh.write(f', "comult": {{"rows": {dim * dim}, "cols": {dim}, "entries": [')
            for f in range(dim * dim):
                pair = divmod(f, dim)
                row = ", ".join(
                    cyc.to_json(h.comult[j][pair], n) if pair in h.comult[j] else zero
                    for j in range(dim)
                )
                fh.write(("[" if f == 0 else ", [") + row + "]")
            fh.write("]}")
            fh.write(', "counit": [' + ", ".join(cyc.to_json(h.counit[j], n) for j in range(dim)) + "]")
            fh.write(f', "antipode": {{"rows": {dim}, "cols": {dim}, "entries": [')
            fh.write(", ".join(
                "[" + ", ".join(
                    cyc.to_json(h.antipode[j][r], n) if r in h.antipode[j] else zero
                    for j in range(dim)
                ) + "]"
                for r in range(dim)
            ))
            fh.write("]}")
        fh.write("}\n")
    os.replace(tmp, path)


# -- the batch ----------------------------------------------------------------


def _valid_and_corrupt(seed):
    """(name, algebra, hopf or None, expected exit, dim) for the seeded batch."""
    rng = random.Random(seed)

    def unit_ring(orders, n, twist=0):
        return rescale(twisted_group(orders, n, twist), rng)[0]

    def dense_m2(n):
        return dense_basis(matrix_algebra(2, n), rng)

    twist3 = rng.choice((1, 2))
    twist5 = rng.randrange(1, 5)
    xi3 = rng.choice((1, 2))
    xi5 = rng.randrange(1, 5)
    v_pure1 = tensor(unit_ring((4,), 1), dense_m2(1))
    v_pure3 = unit_ring((3, 3, 2), 3, twist3)
    h_taft3 = rescale_hopf(taft(3, xi3), rng)
    h_taft5 = rescale_hopf(taft(5, xi5), rng)
    v_mod5 = unit_ring((5, 5), 5, twist5)
    v_mod3 = tensor(unit_ring((3, 3), 3, twist3), dense_m2(3))
    v_samp1 = unit_ring((101,), 1)
    c_pure1 = perturb_structure(v_pure1, rng)
    c_mod3 = perturb_structure(v_mod3, rng)
    c_taft3 = perturb_antipode(h_taft3, rng)
    return [
        ("pure-o1", v_pure1, None, 0),
        ("pure-o3", v_pure3, None, 0),
        ("hopf-taft3", h_taft3.alg, h_taft3, 0),
        ("hopf-taft5", h_taft5.alg, h_taft5, 0),
        ("modular-o5", v_mod5, None, 0),
        ("modular-o3", v_mod3, None, 0),
        ("sampled-o1", v_samp1, None, 0),
        ("corrupt-pure-o1", c_pure1, None, 2),
        ("corrupt-modular-o3", c_mod3, None, 2),
        ("corrupt-antipode-taft3", c_taft3.alg, c_taft3, 2),
    ]


def _fixed_faults():
    """Seed-independent documents that hopfcheck mishandles today; each is
    counted as a failed operation until the fault behind it is mended."""
    one = cyc.rational(1, 1)
    m10 = direct_sum(matrix_algebra(10, 1), twisted_group((1,), 1, 0))
    rows = dict(m10.rows)
    # E_01 E_12 = 2 E_02 instead of E_02: ((E_01 E_12) E_2l) = 2 E_0l but
    # E_01 (E_12 E_2l) = E_0l, so the copy is not associative
    rows[(0 * 10 + 1, 1 * 10 + 2)] = {0 * 10 + 2: cyc.rational(2, 1)}
    broken = Alg(m10.dim, 1, rows, m10.unit)
    if not _assoc_fails(broken, 1, 12, 20):
        raise ArithmeticError("the perturbed matrix-unit product must break associativity")
    return [
        ("fault-dim-not-int", '{"dim": "abc", "unit": [], "structure": []}\n', None, 2),
        ("fault-structure-not-list",
         '{"dim": 1, "unit": [' + cyc.to_json(one, 1) + '], "structure": [5]}\n', None, 2),
        ("fault-sampled-misses-101", broken, None, 2),
    ]


def batch(seed: int, root: str) -> list:
    """Write (once per seed) and list the batch: dicts with the document path,
    the exit code the mathematics fixes, the dim a valid document must
    report, and whether the operation is one of the known faults."""
    out = []
    for sub, entries, fault in (
        (f"seed-{seed}", lambda: _valid_and_corrupt(seed), False),
        ("fixed", _fixed_faults, True),
    ):
        folder = os.path.join(root, sub)
        manifest = os.path.join(folder, "manifest.json")
        if not os.path.exists(manifest):
            os.makedirs(folder, exist_ok=True)
            listing = []
            for name, body, hopf, expect in entries():
                path = os.path.join(folder, name + ".json")
                if isinstance(body, str):
                    with open(path, "w") as fh:
                        fh.write(body)
                    dim = None
                else:
                    write_doc(path, body, hopf)
                    dim = body.dim
                listing.append({
                    "name": name,
                    "path": path,
                    "expect_exit": expect,
                    "dim": dim if expect == 0 else None,
                    "hopf": hopf is not None,
                    "known_fault": fault,
                })
            with open(manifest + ".tmp", "w") as fh:
                json.dump(listing, fh, indent=1)
            os.replace(manifest + ".tmp", manifest)
        with open(manifest) as fh:
            out.extend(json.load(fh))
    return out
