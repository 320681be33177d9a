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

from dataclasses import dataclass

from .cyclotomic import ONE, ZERO, Cyclotomic, q_factorial
from .linalg import InvariantError, Matrix, Subspace, kernel, vec_is_zero
from .algebra import AlgebraElement, CentralBlock, StructureAlgebra, gen, sparse_of
from .hopf import (
    HopfData,
    _acc,
    _sparse_eq,
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


def build_twisted_double(h: HopfData, *, check: str = "auto") -> TwistedDouble:
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

    rows: list[list[dict]] = [[{} for _ in range(nn)] for _ in range(nn)]
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
                            for u, cu in prod.items():
                                key = flat(u, k)
                                s = cell.get(key)
                                s = wd * cu if s is None else s + wd * cu
                                if s:
                                    cell[key] = s
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

    dalg = StructureAlgebra(
        nn, rows, unit_coords, name=f"twisted-double({h.name})", check=check
    )
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
    """Re-verify the unit law exhaustively and associativity on triples
    (exhaustively up to dim 24, seeded samples above), independent of the
    construction-time certificate.
    """
    alg = double.algebra
    nn = alg.dim
    unit = sparse_of(alg.unit)
    unit_ok = True
    for i in range(nn):
        e = alg.basis_sparse(i)
        if alg.mul_sparse(unit, e) != e or alg.mul_sparse(e, unit) != e:
            unit_ok = False
            break
    if nn <= 24:
        mode = "exhaustive"
        triples = [(i, j, k) for i in range(nn) for j in range(nn) for k in range(nn)]
    else:
        import random

        mode = "sampled"
        rng = random.Random(seed)
        triples = [
            (rng.randrange(nn), rng.randrange(nn), rng.randrange(nn))
            for _ in range(samples)
        ]
    bad = None
    for i, j, k in triples:
        ei = alg.basis_sparse(i)
        ej = alg.basis_sparse(j)
        ek = alg.basis_sparse(k)
        lhs = alg.mul_sparse(alg.mul_sparse(ei, ej), ek)
        rhs = alg.mul_sparse(ei, alg.mul_sparse(ej, ek))
        if lhs != rhs:
            bad = (i, j, k)
            break
    witnesses = {
        "dim": nn,
        "unit": {"holds": unit_ok},
        "associativity": {"holds": bad is None, "mode": mode, "triples": len(triples)},
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
    bad = None
    for k in range(n):
        if bad is not None:
            break
        hk = double.embed_hopf(alg._basis_coords(k))
        triples = h.delta2_triples(k)
        for d in range(n):
            dual_coeffs = [ZERO] * n
            dual_coeffs[d] = ONE
            lhs = hk * double.embed_dual(dual_coeffs)
            rhs_coords = [ZERO] * (n * n)
            for k1, k2, k3, t in triples:
                for v in range(n):
                    w = alg.mul_sparse(h.antipode_col(k3), alg.basis_sparse(v))
                    w = alg.mul_sparse(w, alg.basis_sparse(k1))
                    cd = w.get(d)
                    if cd:
                        pos = double.flat(k2, v)
                        rhs_coords[pos] = rhs_coords[pos] + t * cd
            if lhs != double.algebra.element(rhs_coords):
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


def build_classical_double(
    h: HopfData, flavor: str, *, check: str = "auto"
) -> ClassicalDouble:
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

    rows: list[list[dict]] = [[{} for _ in range(nn)] for _ in range(nn)]
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
                for c2, v, weight in straightened:
                    left = arow[c2]
                    if not left:
                        continue
                    vrow = dual_rows[v]
                    for d in range(n):
                        conv = vrow[d]
                        if not conv:
                            continue
                        cell = rows[flat(a, b)][flat(c, d)]
                        for u, cu in left.items():
                            f1 = weight * cu
                            for kk, ck in conv.items():
                                key = flat(u, kk)
                                s = cell.get(key)
                                s = f1 * ck if s is None else s + f1 * ck
                                if s:
                                    cell[key] = s
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
    dalg = StructureAlgebra(
        nn, rows, unit_coords, name=f"double[{flavor}]({h.name})", check=check
    )
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
    bad = None
    for b in range(n):
        if bad is not None:
            break
        dual_coeffs = [ZERO] * n
        dual_coeffs[b] = ONE
        chi = double.embed_dual(dual_coeffs)
        for c in range(n):
            lhs = chi * double.embed_hopf(alg._basis_coords(c))
            rhs_coords = [ZERO] * (n * n)
            for c1, c2, c3, t in h.delta2_triples(c):
                for v in range(n):
                    w = alg.mul_sparse(alg.basis_sparse(c3), alg.basis_sparse(v))
                    w = alg.mul_sparse(w, anti_col(c1))
                    cb = w.get(b)
                    if cb:
                        pos = double.flat(c2, v)
                        rhs_coords[pos] = rhs_coords[pos] + t * cb
            if lhs != double.algebra.element(rhs_coords):
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
    nn = n * n
    zero = ZERO
    cols = []
    for a in range(n):
        for b in range(n):
            col = [zero] * nn
            for v in range(n):
                cv = ru[b, v]
                if cv:
                    col[a * n + v] = cv
            cols.append(col)
    matrix = Matrix.from_columns(cols)
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
        diff = alg.left_mult_matrix((double.sigma - op).coords)
        holds = all(vec_is_zero(diff.apply(list(v))) for v in space.basis)
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
        lmat = alg.left_mult_matrix(gens[name].coords)
        holds = True
        for (i, j), space in components.items():
            target = components[((i + di) % p, (j + dj) % p)]
            for v in space.basis:
                if not target.contains(lmat.apply(list(v))):
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
        diff = alg.left_mult_matrix((double.sigma - form).coords)
        holds = all(vec_is_zero(diff.apply(list(v))) for v in space.basis)
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


def _sparse_rows(matrix: Matrix) -> list[list[tuple]]:
    """The nonzero entries of each row, as (column, value) pairs."""
    return [[(v, a) for v, a in enumerate(row) if a] for row in matrix.data]


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
    rows = [_sparse_rows(a) for a in action]

    def combination(coeffs) -> dict:
        out: dict = {}
        for k, ck in coeffs:
            for u, row in enumerate(rows[k]):
                for v, a in row:
                    _acc(out, (u, v), ck * a)
        return out

    rho_unit = combination((a, ca) for a, ca in enumerate(algebra.unit) if ca)
    unit_ok = _sparse_eq(rho_unit, {(u, u): ONE for u in range(m)})
    bad = None
    for i in range(nn):
        if bad is not None:
            break
        for j in range(nn):
            got: dict = {}
            rj = rows[j]
            for u, row in enumerate(rows[i]):
                for v, a in row:
                    for w, b in rj[v]:
                        _acc(got, (u, w), a * b)
            if not _sparse_eq(got, combination(algebra.rows[i][j].items())):
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
    zero = ZERO
    action = []
    for a in range(nn):
        la = alg.left_mult_matrix(alg._basis_coords(a))
        data = [[zero] * (2 * nn) for _ in range(2 * nn)]
        for u in range(nn):
            for v in range(nn):
                c = la[u, v]
                if c:
                    data[u][v] = c
                    data[nn + u][nn + v] = c
        action.append(Matrix(data, ncols=2 * nn))
    degrees = [-1] * nn + [0] * nn
    rz = alg.right_mult_matrix((double.sigma - double.one).coords)
    ddata = [[zero] * (2 * nn) for _ in range(2 * nn)]
    for u in range(nn):
        for v in range(nn):
            c = rz[u, v]
            if c:
                ddata[nn + u][v] = c
    differential = Matrix(ddata, ncols=2 * nn)
    hdata = [[zero] * (2 * nn) for _ in range(2 * nn)]
    one = ONE
    for u in range(nn):
        hdata[u][nn + u] = one
    homotopy = Matrix(hdata, ncols=2 * nn)
    return action, degrees, differential, homotopy
