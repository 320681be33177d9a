"""Double constructions over a finite-dimensional Hopf algebra.

The twisted double lives on End(H) with the convolution-twisted product

    (f * g)(v) = f(v1)^2 g( S(f(v1)^3) v2 f(v1)^1 )

where superscripts are Sweedler legs; its unit is eps(-)1 and the identity
map sigma is a central invertible element whose inverse is the map S^{-1}.
The basis used here is the elementary maps E_ab : e_b -> e_a, stored at
flat index b*n + a (functional leg major), matching the tensor order of
H^* (x) H under E_ab = e^b (x) e_a.

The classical doubles live on H (x) H^* (flat index a*n + b) with the
product defined by straightening functionals past algebra elements:

    chi . h = h^2 chi( h^3 (-) A(h^1) ),    A = S^{-1} or A = S

for the two flavors, followed by convolution in H^*.  All structure
constants are computed from these defining formulas directly, so the
generator relations and central-element facts verified downstream are
consequences of the construction rather than inputs to it.
"""

import itertools
from dataclasses import dataclass

from .cyclotomic import ONE, ZERO, Cyclotomic, q_factorial
from .linalg import InvariantError, Matrix, Subspace, kernel, sparse_of
from .algebra import (
    DEFAULT_PURE_LIMIT,
    EMPTY_CELL,
    AlgebraElement,
    CentralBlock,
    StructureAlgebra,
    gen,
    sampled_triples,
)
from .hopf import (
    HopfData,
    _acc,
    check_algebra_map,
    check_pivotal,
    taft_dual_transport,
)
from .report import FAIL, PASS, PRECONDITION_FAILED, CheckReport


@dataclass
class TwistedDouble:
    """The twisted convolution algebra on End(H) with its marked elements."""

    base: HopfData
    algebra: StructureAlgebra
    sigma: AlgebraElement
    one: AlgebraElement

    def flat(self, a: int, b: int) -> int:
        """Index of the elementary map E_ab : e_b -> e_a."""
        return b * self.base.dim + a

    def endo_element(self, matrix: Matrix) -> AlgebraElement:
        """The element of End(H) with the given matrix."""
        n = self.base.dim
        if matrix.nrows != n or matrix.ncols != n:
            raise ValueError("matrix shape does not match the base")
        coords = [ZERO] * (n * n)
        for a in range(n):
            for b in range(n):
                coords[self.flat(a, b)] = matrix[a, b]
        return self.algebra.element(coords)

    def embed_hopf(self, coords) -> AlgebraElement:
        """h -> eps(-)h, the algebra embedding of the base."""
        n = self.base.dim
        eps = self.base.counit
        out = [ZERO] * (n * n)
        for a, ca in enumerate(coords):
            if ca:
                for b in range(n):
                    if eps[b]:
                        out[self.flat(a, b)] = ca * eps[b]
        return self.algebra.element(out)

    def embed_dual(self, coeffs) -> AlgebraElement:
        """chi -> chi(-)1, the convolution-algebra embedding of the dual."""
        n = self.base.dim
        unit = self.base.algebra.unit
        out = [ZERO] * (n * n)
        for b, cb in enumerate(coeffs):
            if cb:
                for a in range(n):
                    if unit[a]:
                        out[self.flat(a, b)] = cb * unit[a]
        return self.algebra.element(out)


def build_twisted_double(h: HopfData) -> TwistedDouble:
    """Structure constants of the twisted product on End(H), evaluated from
    the defining formula on all pairs of elementary maps.

    For f = E_ab, g = E_cd and argument e_k: the first Sweedler leg of e_k
    must hit e_b (weight from Delta), f outputs e_a, whose triple Sweedler
    legs (a1, a2, a3) then sandwich the second leg e_m of e_k into
    v = S(e_a3) e_m e_a1; the result is e_a2 * e_c weighted by the e_d
    coefficient of v.
    """
    n = h.dim
    alg = h.algebra
    nn = n * n

    def flat(a: int, b: int) -> int:
        return b * n + a

    # bucket Delta(e_k) entries by their first leg
    by_first: list[list[tuple]] = [[] for _ in range(n)]
    for k in range(n):
        for f, cf in h.comult_col(k).items():
            b, m = divmod(f, n)
            by_first[b].append((k, m, cf))

    # cells start as the shared EMPTY_CELL and get a dict on their first
    # write; every stored value goes through pool, so equal scalars are one
    # object
    rows: list[list] = [[EMPTY_CELL] * nn for _ in range(nn)]
    pool: dict = {}
    for a in range(n):
        triples = h.delta2_triples(a)
        for b in range(n):
            row = rows[flat(a, b)]
            for k, m, cf in by_first[b]:
                for a1, a2, a3, t in triples:
                    w = cf * t
                    v = alg.mul_sparse(h.antipode_col(a3), alg.basis_sparse(m))
                    v = alg.mul_sparse(v, alg.basis_sparse(a1))
                    for d, vd in v.items():
                        wd = w * vd
                        for c in range(n):
                            prod = alg.rows[a2][c]
                            if not prod:
                                continue
                            cell = row[flat(c, d)]
                            if cell is EMPTY_CELL:
                                cell = row[flat(c, d)] = {}
                            for u, cu in prod.items():
                                key = flat(u, k)
                                s = cell.get(key)
                                s = wd * cu if s is None else s + wd * cu
                                if s:
                                    cell[key] = pool.setdefault((s.order, s.num, s.den), s)
                                elif key in cell:
                                    del cell[key]

    zero = ZERO
    unit_coords = [zero] * nn
    hunit = alg.unit
    eps = h.counit
    for a in range(n):
        if hunit[a]:
            for b in range(n):
                if eps[b]:
                    unit_coords[flat(a, b)] = hunit[a] * eps[b]

    dalg = StructureAlgebra(nn, rows, unit_coords, name=f"twisted-double({h.name})")
    sigma_coords = [zero] * nn
    for a in range(n):
        sigma_coords[flat(a, a)] = ONE
    double = TwistedDouble(
        h, dalg, dalg.element(sigma_coords), dalg.unit_element()
    )
    if not dalg.is_central(double.sigma):
        raise InvariantError("identity map must be central")
    sinv = double.endo_element(h.antipode_inverse)
    if double.sigma * sinv != double.one or sinv * double.sigma != double.one:
        raise InvariantError("sigma inverse must be S^{-1}")
    return double


def check_double_unital_associative(
    double: TwistedDouble, check_id: str = "double-assoc-unital", samples: int = 2000,
    seed: int = 20240801,
) -> CheckReport:
    """Re-verify the unit law on every basis element and associativity on
    basis triples, independent of the construction-time certificate:
    exhaustively up to dim DEFAULT_PURE_LIMIT (24), above it on the samples
    triples of sampled_triples(dim, samples, seed).  first_failure is the
    first failing triple in that order.
    """
    alg = double.algebra
    nn = alg.dim
    if nn <= DEFAULT_PURE_LIMIT:
        mode, count = "exhaustive", nn**3
        triples = itertools.product(range(nn), repeat=3)
    else:
        triples = sampled_triples(nn, samples, seed)
        mode, count = "sampled", len(triples)
    unit_ok = alg.unit_failure() is None
    bad = alg.associativity_failure(triples)
    witnesses = {
        "dim": nn,
        "unit": {"holds": unit_ok},
        "associativity": {"holds": bad is None, "mode": mode, "triples": count},
    }
    if bad is not None:
        witnesses["associativity"]["first_failure"] = bad
    ok = unit_ok and bad is None
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def check_sigma_central_invertible(
    double: TwistedDouble, check_id: str = "sigma-central-invertible"
) -> CheckReport:
    """sigma commutes with every basis element and its two-sided inverse is
    the endomorphism S^{-1}."""
    alg = double.algebra
    central = alg.is_central(double.sigma)
    sinv = double.endo_element(double.base.antipode_inverse)
    left = double.sigma * sinv == double.one
    right = sinv * double.sigma == double.one
    witnesses = {
        "central": {"holds": central},
        "inverse-is-antipode-inverse": {"holds": left and right},
    }
    ok = central and left and right
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def check_cross_relation(
    double: TwistedDouble, check_id: str = "double-cross-relation"
) -> CheckReport:
    """The straightening identity moving an embedded base element past an
    embedded functional:

        h . chi = chi( S(h3) (-) h1 ) h2

    evaluated for every basis pair (h = e_k, chi = e^d) directly against
    the constructed product.
    """
    h = double.base
    alg = h.algebra
    n = h.dim
    chis = [sparse_of(double.embed_dual(alg._basis_coords(d)).coords) for d in range(n)]
    bad = None
    for k in range(n):
        if bad is not None:
            break
        hk = sparse_of(double.embed_hopf(alg._basis_coords(k)).coords)
        # the products S(e_k3) e_v e_k1 for every Sweedler triple of e_k and
        # every v, read by every d below
        legs = []
        for k1, k2, k3, t in h.delta2_triples(k):
            for v in range(n):
                w = alg.mul_sparse(h.antipode_col(k3), alg.basis_sparse(v))
                legs.append((double.flat(k2, v), t, alg.mul_sparse(w, alg.basis_sparse(k1))))
        for d in range(n):
            rhs: dict = {}
            for pos, t, w in legs:
                cd = w.get(d)
                if cd:
                    _acc(rhs, pos, t * cd)
            if double.algebra.mul_sparse(hk, chis[d]) != rhs:
                bad = (k, d)
                break
    witnesses = {"pairs": n * n, "holds": bad is None}
    if bad is not None:
        witnesses["first_failure"] = bad
    return CheckReport(check_id, PASS if bad is None else FAIL, witnesses)


# -- classical doubles -------------------------------------------------


@dataclass
class ClassicalDouble:
    """H (x) H^* with the straightening product of the chosen flavor."""

    base: HopfData
    flavor: str
    algebra: StructureAlgebra
    sigma: AlgebraElement | None

    def flat(self, a: int, b: int) -> int:
        """Index of e_a (x) e^b."""
        return a * self.base.dim + b

    def embed_hopf(self, coords) -> AlgebraElement:
        n = self.base.dim
        eps = self.base.counit
        out = [ZERO] * (n * n)
        for a, ca in enumerate(coords):
            if ca:
                for b in range(n):
                    if eps[b]:
                        out[self.flat(a, b)] = ca * eps[b]
        return self.algebra.element(out)

    def embed_dual(self, coeffs) -> AlgebraElement:
        n = self.base.dim
        unit = self.base.algebra.unit
        out = [ZERO] * (n * n)
        for b, cb in enumerate(coeffs):
            if cb:
                for a in range(n):
                    if unit[a]:
                        out[self.flat(a, b)] = cb * unit[a]
        return self.algebra.element(out)


def build_classical_double(h: HopfData, flavor: str) -> ClassicalDouble:
    """The double on H (x) H^* for flavor "drinfeld" (straightening twists
    by S^{-1}) or "anti" (twists by S; carries the central element
    sigma = sum_i e_i (x) e^i).
    """
    if flavor not in ("drinfeld", "anti"):
        raise ValueError("flavor must be 'drinfeld' or 'anti'")
    n = h.dim
    alg = h.algebra
    nn = n * n

    def flat(a: int, b: int) -> int:
        return a * n + b

    # convolution products of dual basis functionals: e^i e^j on e_k reads
    # the (i, j) coefficient of Delta(e_k)
    dual_rows: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for f, cf in h.comult_col(k).items():
            i, j = divmod(f, n)
            dual_rows[i][j][k] = cf

    anti_col = h.antipode_inv_col if flavor == "drinfeld" else h.antipode_col

    # cells and scalars as in build_twisted_double: EMPTY_CELL until the
    # first write, values shared through pool
    rows: list[list] = [[EMPTY_CELL] * nn for _ in range(nn)]
    pool: dict = {}
    for c in range(n):
        # the products e_c3 e_v A(e_c1) for every Sweedler triple of e_c and
        # every v, read by every b below
        legs = []
        for c1, c2, c3, t in h.delta2_triples(c):
            for v in range(n):
                w = alg.mul_sparse(alg.basis_sparse(c3), alg.basis_sparse(v))
                legs.append((c2, v, t, alg.mul_sparse(w, anti_col(c1))))
        # straighten e^b . e_c once per (b, c); reuse across a and d
        for b in range(n):
            # list of (c2, v, weight) with e^b e_c = sum weight e_{c2} (x) e^v
            straightened = [(c2, v, t * w[b]) for c2, v, t, w in legs if b in w]
            for a in range(n):
                arow = alg.rows[a]
                row = rows[flat(a, b)]
                for c2, v, weight in straightened:
                    left = arow[c2]
                    if not left:
                        continue
                    vrow = dual_rows[v]
                    for d in range(n):
                        conv = vrow[d]
                        if not conv:
                            continue
                        cell = row[flat(c, d)]
                        if cell is EMPTY_CELL:
                            cell = row[flat(c, d)] = {}
                        for u, cu in left.items():
                            f1 = weight * cu
                            for kk, ck in conv.items():
                                key = flat(u, kk)
                                s = cell.get(key)
                                s = f1 * ck if s is None else s + f1 * ck
                                if s:
                                    cell[key] = pool.setdefault((s.order, s.num, s.den), s)
                                elif key in cell:
                                    del cell[key]

    zero = ZERO
    unit_coords = [zero] * nn
    hunit = alg.unit
    eps = h.counit
    for a in range(n):
        if hunit[a]:
            for b in range(n):
                if eps[b]:
                    unit_coords[flat(a, b)] = hunit[a] * eps[b]
    dalg = StructureAlgebra(nn, rows, unit_coords, name=f"double[{flavor}]({h.name})")
    sigma = None
    if flavor == "anti":
        coords = [zero] * nn
        for i in range(n):
            coords[flat(i, i)] = ONE
        sigma = dalg.element(coords)
        if not dalg.is_central(sigma):
            raise InvariantError("sigma must be central in the anti flavor")
    return ClassicalDouble(h, flavor, dalg, sigma)


def check_straightening(
    double: ClassicalDouble, check_id: str = "straightening"
) -> CheckReport:
    """The flavor's straightening rule, evaluated for every basis pair
    (chi = e^b, h = e_c): the product of the embedded elements equals the
    expansion  sum  e_{c2} (x) e^b( e_{c3} (-) A(e_{c1}) )."""
    h = double.base
    alg = h.algebra
    n = h.dim
    anti_col = (
        h.antipode_inv_col if double.flavor == "drinfeld" else h.antipode_col
    )
    hs = [sparse_of(double.embed_hopf(alg._basis_coords(c)).coords) for c in range(n)]
    # the products e_c3 e_v A(e_c1) for every Sweedler triple of e_c and
    # every v, computed once per c and read by every b below
    legs = []
    for c in range(n):
        legs_c = []
        for c1, c2, c3, t in h.delta2_triples(c):
            for v in range(n):
                w = alg.mul_sparse(alg.basis_sparse(c3), alg.basis_sparse(v))
                legs_c.append((double.flat(c2, v), t, alg.mul_sparse(w, anti_col(c1))))
        legs.append(legs_c)
    bad = None
    for b in range(n):
        if bad is not None:
            break
        chi = sparse_of(double.embed_dual(alg._basis_coords(b)).coords)
        for c in range(n):
            rhs: dict = {}
            for pos, t, w in legs[c]:
                cb = w.get(b)
                if cb:
                    _acc(rhs, pos, t * cb)
            if double.algebra.mul_sparse(chi, hs[c]) != rhs:
                bad = (b, c)
                break
    witnesses = {"flavor": double.flavor, "pairs": n * n, "holds": bad is None}
    if bad is not None:
        witnesses["first_failure"] = bad
    return CheckReport(check_id, PASS if bad is None else FAIL, witnesses)


def uhu_map(
    h: HopfData, u: AlgebraElement, check_id: str = "uhu-iso", doubles=None
) -> tuple[Matrix, CheckReport]:
    """The comparison map between the two classical double flavors induced
    by a pivot u (group-like, implementing the square of the antipode by
    conjugation): e_a (x) e^b  ->  e_a (x) e^b((-) u).

    Precondition: check_pivotal(h, u) passes; then the map is verified to
    be a unital bijective algebra isomorphism on all basis pairs.
    """
    n = h.dim
    ru = h.algebra.right_mult_matrix(u.coords)
    matrix = Matrix.from_columns(
        [{a * n + v: cv for v, cv in ru.data[b].items()} for a in range(n) for b in range(n)],
        n * n,
    )
    pivotal = check_pivotal(h, u, check_id=f"{check_id}-pivot")
    if not pivotal.passed:
        report = CheckReport(
            check_id,
            PRECONDITION_FAILED,
            {"pivot": pivotal.witnesses, "pivot-status": pivotal.status},
        )
        return matrix, report
    if doubles is None:
        doubles = (
            build_classical_double(h, "drinfeld"),
            build_classical_double(h, "anti"),
        )
    dd, da = doubles
    report = check_algebra_map(
        dd.algebra, da.algebra, matrix, check_id, require_bijective=True
    )
    witnesses = dict(report.witnesses)
    witnesses["pivot"] = {"holds": True}
    return matrix, CheckReport(check_id, report.status, witnesses)


# -- generators of the Taft-algebra double ------------------------------


def taft_double_generators(double: TwistedDouble) -> dict[str, AlgebraElement]:
    """The four distinguished elements x, x', g, g' of the twisted double
    of a Taft algebra: the base generators embed via eps(-)h, and the
    primed generators are the dual-transport images of x and g embedded
    via chi(-)1.
    """
    meta = double.base.meta or {}
    if meta.get("family") != "taft":
        raise ValueError("generators are defined for Taft-algebra doubles")
    p = meta["p"]
    transport = taft_dual_transport(double.base)

    def idx(i: int, j: int) -> int:
        return i * p + j

    x_coords = [ZERO] * (p * p)
    x_coords[idx(0, 1)] = ONE
    g_coords = [ZERO] * (p * p)
    g_coords[idx(1, 0)] = ONE
    return {
        "x": double.embed_hopf(x_coords),
        "x'": double.embed_dual(transport.apply(x_coords)),
        "g": double.embed_hopf(g_coords),
        "g'": double.embed_dual(transport.apply(g_coords)),
    }


def taft_double_relations(p: int, xi: Cyclotomic) -> list:
    """The defining relations of the twisted double of a Taft algebra as
    free expressions in x, x', g, g'."""
    x = gen("x")
    xp = gen("x'")
    g = gen("g")
    gp = gen("g'")
    xi_inv = xi.inverse()
    return [
        x ** p,
        xp ** p,
        g ** p - 1,
        gp ** p - 1,
        g * gp - gp * g,
        g * x - (x * g) * xi,
        gp * xp - (xp * gp) * xi,
        g * xp - (xp * g) * xi_inv,
        gp * x - (x * gp) * xi_inv,
        x * xp - (xp * x) * xi_inv - 1 + (gp.inv * g) * xi_inv,
    ]


def check_generator_presentation(
    double: TwistedDouble, check_id: str = "double-presentation"
) -> CheckReport:
    """All defining relations of the Taft double hold for the constructed
    generators, the generators generate the whole algebra, and g g' is
    central with (g g')^p = 1."""
    meta = double.base.meta or {}
    p = meta["p"]
    xi = meta["xi"]
    gens = taft_double_generators(double)
    rels = taft_double_relations(p, xi)
    report = double.algebra.check_presentation(gens, rels, check_id)
    witnesses = dict(report.witnesses)
    z = gens["g"] * gens["g'"]
    central = double.algebra.is_central(z)
    power_one = z ** p == double.one
    witnesses["gg'"] = {"central": central, "pth-power-is-one": power_one}
    ok = report.passed and central and power_one
    status = report.status if report.status == PRECONDITION_FAILED else (
        PASS if ok else FAIL
    )
    return CheckReport(check_id, status, witnesses)


def split_blocks(
    double: TwistedDouble, gens: dict[str, AlgebraElement]
) -> list[CentralBlock]:
    """Block decomposition of the Taft double along the central element
    g g' (gens as from taft_double_generators), whose eigenvalues are the
    p-th roots of unity; block s belongs to eigenvalue xi^s and has
    dimension p^3."""
    meta = double.base.meta or {}
    p = meta["p"]
    xi = meta["xi"]
    z = gens["g"] * gens["g'"]
    candidates = [xi ** s for s in range(p)]
    return double.algebra.central_eigensplit(z, candidates)


def taft_eigencomponents(
    double: TwistedDouble, gens: dict[str, AlgebraElement]
) -> dict[tuple[int, int], Subspace]:
    """The joint eigencomponents V_ij of left multiplication by g' and g
    (eigenvalues xi^i and xi^j) in the Taft double, keyed (i, j) in
    row-major order; gens as from taft_double_generators."""
    meta = double.base.meta or {}
    p = meta["p"]
    xi = meta["xi"]
    alg = double.algebra
    lgp = alg.left_mult_matrix(gens["g'"].coords)
    lg = alg.left_mult_matrix(gens["g"].coords)
    out = {}
    for i in range(p):
        mi = lgp.add_scalar_diag(-(xi ** i))
        for j in range(p):
            mj = lg.add_scalar_diag(-(xi ** j))
            out[(i, j)] = kernel(Matrix.vstack([mi, mj]))
    return out


def check_block_split(
    double: TwistedDouble, blocks: list[CentralBlock], check_id: str = "double-block-split"
) -> CheckReport:
    """The g g' eigensplit (blocks as from split_blocks) is complete with
    p blocks of dimension p^3."""
    meta = double.base.meta or {}
    p = meta["p"]
    dims = [blk.algebra.dim for blk in blocks]
    ok = len(blocks) == p and all(d == p ** 3 for d in dims)
    witnesses = {
        "blocks": [
            {"s": s, "eigenvalue": blk.eigenvalue.pretty(), "dim": blk.algebra.dim}
            for s, blk in enumerate(blocks)
        ],
        "expected-dim": p ** 3,
    }
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def verify_sigma_graded_action(
    double: TwistedDouble,
    gens: dict[str, AlgebraElement],
    components: dict[tuple[int, int], Subspace],
    check_id: str = "sigma-graded-action",
) -> CheckReport:
    """On each joint eigencomponent V_ij of left multiplication by g' and g
    (eigenvalues xi^i and xi^j), the identity map sigma acts as

        sum_l  xi^{(i-l)(j+l)} / (l)_{xi^{-1}}!  x'^l x^l.

    Verified on a basis of every V_ij (components as from
    taft_eigencomponents) in the regular representation; the components
    must jointly exhaust the double.
    """
    meta = double.base.meta or {}
    p = meta["p"]
    xi = meta["xi"]
    xi_inv = xi.inverse()
    alg = double.algebra
    nn = alg.dim
    # x'^l x^l built as x'^l * x^l, not (x' x)^l; the factors do not commute
    xp_pows = [double.one]
    x_pows = [double.one]
    for _ in range(p - 1):
        xp_pows.append(xp_pows[-1] * gens["x'"])
        x_pows.append(x_pows[-1] * gens["x"])
    witness_components = []
    total = 0
    all_hold = True
    for (i, j), space in components.items():
        total += space.dim
        op = alg.zero_element()
        for l in range(p):
            scale = (xi ** ((i - l) * (j + l))) * q_factorial(l, xi_inv).inverse()
            op = op + (xp_pows[l] * x_pows[l]) * scale
        diff = sparse_of((double.sigma - op).coords)
        holds = not any(alg.mul_sparse(diff, v) for v in space.basis)
        all_hold = all_hold and holds
        witness_components.append({"i": i, "j": j, "dim": space.dim, "holds": holds})
    complete = total == nn
    witnesses = {
        "components": witness_components,
        "total-dim": total,
        "complete": complete,
    }
    ok = all_hold and complete
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def check_generator_grading(
    double: TwistedDouble,
    gens: dict[str, AlgebraElement],
    components: dict[tuple[int, int], Subspace],
    check_id: str = "generator-grading",
) -> CheckReport:
    """The joint eigencomponents V_ij of left multiplication by g' and g
    (eigenvalues xi^i, xi^j; as from taft_eigencomponents) grade the
    double, and the generators shift degrees by x: (-1, +1),
    x': (+1, -1), g and g': (0, 0)."""
    meta = double.base.meta or {}
    p = meta["p"]
    alg = double.algebra
    total = sum(space.dim for space in components.values())
    complete = total == alg.dim
    shifts = {"x": (-1, 1), "x'": (1, -1), "g": (0, 0), "g'": (0, 0)}
    witnesses: dict = {"complete": complete, "total-dim": total}
    ok = complete
    for name, (di, dj) in shifts.items():
        g = sparse_of(gens[name].coords)
        holds = True
        for (i, j), space in components.items():
            target = components[((i + di) % p, (j + dj) % p)]
            for v in space.basis:
                if not target.contains(alg.mul_sparse(g, v)):
                    holds = False
                    break
            if not holds:
                break
        witnesses[name] = {"shift": [di, dj], "holds": holds}
        ok = ok and holds
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def check_sigma_block_forms_p2(
    double: TwistedDouble,
    gens: dict[str, AlgebraElement],
    components: dict[tuple[int, int], Subspace],
    check_id: str = "sigma-block-forms",
) -> CheckReport:
    """For the p = 2 double: sigma restricted to the four components (as
    from taft_eigencomponents) equals 1 - x'x on V_00, -1 + x'x on V_11,
    and 1 + x'x on V_01 and V_10."""
    meta = double.base.meta or {}
    if meta.get("p") != 2:
        return CheckReport(
            check_id, PRECONDITION_FAILED, {"precondition": "requires p = 2"}
        )
    alg = double.algebra
    xpx = gens["x'"] * gens["x"]
    one = double.one
    forms = {
        (0, 0): one - xpx,
        (1, 1): -one + xpx,
        (0, 1): one + xpx,
        (1, 0): one + xpx,
    }
    witnesses = {}
    ok = True
    for (i, j), form in forms.items():
        space = components[(i, j)]
        diff = sparse_of((double.sigma - form).coords)
        holds = not any(alg.mul_sparse(diff, v) for v in space.basis)
        ok = ok and holds
        witnesses[f"V{i}{j}"] = {"dim": space.dim, "holds": holds}
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def uqsl2_check(
    double: TwistedDouble,
    gens: dict[str, AlgebraElement],
    blocks: list[CentralBlock],
    s: int,
    check_id: str = "uqsl2",
) -> CheckReport:
    """Inside block s of the Taft double (odd p; gens and blocks as from
    taft_double_generators and split_blocks): with q the p-th root of
    unity satisfying q^2 = xi^{-1},

        E = q^{s+1}/(q - q^{-1}) x',   F = x g',   K = q^{s+1} g

    satisfy E^p = F^p = K^p - 1 = 0, [E, F] = (K - K^{-1})/(q - q^{-1}),
    K E K^{-1} = q^2 E, K F K^{-1} = q^{-2} F, and generate the block."""
    meta = double.base.meta or {}
    p = meta["p"]
    xi = meta["xi"]
    if p == 2:
        return CheckReport(
            check_id, PRECONDITION_FAILED, {"precondition": "requires odd p"}
        )
    q = None
    for t in range(1, p):
        cand = xi ** t
        if cand * cand * xi == ONE:
            q = cand
            break
    if q is None:
        raise InvariantError("no square root of xi^{-1} among the p-th roots of unity")
    blk = blocks[s]
    q_inv = q.inverse()
    coeff = ((q ** (s + 1))) * (q - q_inv).inverse()
    e_elem = blk.project(gens["x'"]) * coeff
    f_elem = blk.project(gens["x"]) * blk.project(gens["g'"])
    k_elem = blk.project(gens["g"]) * (q ** (s + 1))
    ee = gen("E")
    ff = gen("F")
    kk = gen("K")
    scale = (q - q_inv).inverse()
    rels = [
        ee ** p,
        ff ** p,
        kk ** p - 1,
        (ee * ff - ff * ee) - (kk - kk.inv) * scale,
        kk * ee - (ee * kk) * (q ** 2),
        kk * ff - (ff * kk) * (q_inv ** 2),
    ]
    report = blk.algebra.check_presentation(
        {"E": e_elem, "F": f_elem, "K": k_elem}, rels, check_id
    )
    witnesses = dict(report.witnesses)
    witnesses["s"] = s
    witnesses["q"] = q.pretty()
    return CheckReport(check_id, report.status, witnesses)


# -- module checks ------------------------------------------------------


def check_module_action(
    algebra: StructureAlgebra,
    action: list[Matrix],
    check_id: str = "module-action",
) -> CheckReport:
    """The matrices (one per basis element, acting on a module space)
    assemble to a unital algebra map: rho(1) = id, and for every basis pair
    rho(e_i) rho(e_j) = sum_k c_ij^k rho(e_k).  Both sides are summed over
    nonzero entries only; first_failure is the first failing pair (i, j)
    in row-major order."""
    nn = algebra.dim
    if len(action) != nn:
        raise ValueError("one action matrix per basis element required")
    m = action[0].nrows if action else 0
    if any(a.nrows != m or a.ncols != m for a in action):
        raise ValueError("action matrices must be square of one size")
    rows = [a.data for a in action]

    def combination(coeffs) -> dict:
        out: dict = {}
        for k, ck in coeffs:
            for u, row in enumerate(rows[k]):
                for v, a in row.items():
                    _acc(out, (u, v), ck * a)
        return out

    rho_unit = combination((a, ca) for a, ca in enumerate(algebra.unit) if ca)
    unit_ok = rho_unit == {(u, u): ONE for u in range(m)}
    bad = None
    for i in range(nn):
        if bad is not None:
            break
        for j in range(nn):
            got: dict = {}
            rj = rows[j]
            for u, row in enumerate(rows[i]):
                for v, a in row.items():
                    for w, b in rj[v].items():
                        _acc(got, (u, w), a * b)
            if got != combination(algebra.rows[i][j].items()):
                bad = (i, j)
                break
    witnesses = {"unit": {"holds": unit_ok}, "multiplicative": {"holds": bad is None}}
    if bad is not None:
        witnesses["multiplicative"]["first_failure"] = bad
    ok = unit_ok and bad is None
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def _rho(algebra: StructureAlgebra, action: list[Matrix], coords) -> Matrix:
    m = action[0].nrows
    out = Matrix.zeros(m, m)
    for a, ca in enumerate(coords):
        if ca:
            out = out + action[a].scale(ca)
    return out


def acts_as_identity(
    algebra: StructureAlgebra, element: AlgebraElement, action: list[Matrix]
) -> bool:
    """rho(element) is the identity of the module space."""
    m = action[0].nrows
    return _rho(algebra, action, element.coords) == Matrix.identity(m)


def check_stable_module(
    algebra: StructureAlgebra,
    sigma: AlgebraElement,
    action: list[Matrix],
    check_id: str = "stable-module",
) -> CheckReport:
    """A valid module on which the marked central element acts as the
    identity."""
    base = check_module_action(algebra, action, check_id)
    witnesses = dict(base.witnesses)
    stable = acts_as_identity(algebra, sigma, action)
    witnesses["sigma-acts-as-identity"] = {"holds": stable}
    ok = base.passed and stable
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def check_mixed_module(
    algebra: StructureAlgebra,
    sigma: AlgebraElement,
    action: list[Matrix],
    degrees: list[int],
    differential: Matrix,
    homotopy: Matrix,
    check_id: str = "mixed-module",
) -> CheckReport:
    """A valid module with a degree +1 differential d and a degree -1
    homotopy h, both commuting with the action, with d^2 = 0 and
    d h + h d = rho(sigma) - id."""
    base = check_module_action(algebra, action, check_id)
    witnesses = dict(base.witnesses)
    m = action[0].nrows

    def has_degree(mat: Matrix, shift: int) -> bool:
        for u in range(m):
            for v in range(m):
                if mat[u, v] and degrees[u] != degrees[v] + shift:
                    return False
        return True

    deg_ok = has_degree(differential, 1) and has_degree(homotopy, -1)
    witnesses["degrees"] = {"holds": deg_ok}
    d2_ok = (differential @ differential).is_zero()
    witnesses["d-squared"] = {"holds": d2_ok}
    commute_bad = None
    for a in range(algebra.dim):
        if (
            differential @ action[a] != action[a] @ differential
            or homotopy @ action[a] != action[a] @ homotopy
        ):
            commute_bad = a
            break
    witnesses["module-maps"] = {"holds": commute_bad is None}
    if commute_bad is not None:
        witnesses["module-maps"]["first_failure"] = commute_bad
    lhs = differential @ homotopy + homotopy @ differential
    rhs = _rho(algebra, action, sigma.coords) - Matrix.identity(m)
    homotopy_ok = lhs == rhs
    witnesses["homotopy-identity"] = {"holds": homotopy_ok}
    ok = base.passed and deg_ok and d2_ok and commute_bad is None and homotopy_ok
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def regular_mixed_module(double: TwistedDouble):
    """The two-term regular fixture: two copies of the double in degrees
    -1 and 0, action by left multiplication on both, d = right
    multiplication by (sigma - 1) from degree -1 to degree 0, h = the
    identity from degree 0 to degree -1.  Returns (action, degrees,
    differential, homotopy).
    """
    alg = double.algebra
    nn = alg.dim
    action = []
    for a in range(nn):
        la = alg.left_mult_matrix(alg._basis_coords(a)).data
        shifted = [{nn + v: c for v, c in row.items()} for row in la]
        action.append(Matrix.sparse(la + shifted, 2 * nn))
    degrees = [-1] * nn + [0] * nn
    rz = alg.right_mult_matrix((double.sigma - double.one).coords)
    differential = Matrix.sparse([{} for _ in range(nn)] + rz.data, 2 * nn)
    homotopy = Matrix.sparse(
        [{nn + u: ONE} for u in range(nn)] + [{} for _ in range(nn)], 2 * nn
    )
    return action, degrees, differential, homotopy
