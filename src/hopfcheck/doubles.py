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

for the two flavors, followed by convolution in H^*.

Both families are built from the same pieces: _embed (the embeddings of H
and H^*, and the unit) and _diagonal (sigma) in either flat layout, as
sparse terms {flat index: scalar}, and the
Sweedler-sandwich kernel _sandwiches, which gives left(e_c3) e_v right(e_c1)
with (left, right) = (S, id) for the twisted product and (id, A) for the
straightening rule, to the builders and to their re-checks alike.  So all
structure constants are computed from the defining formulas directly, and
the generator relations and central-element facts verified downstream are
consequences of the construction rather than inputs to it.
"""

import functools
import gc
import itertools
from dataclasses import dataclass

from .cyclotomic import ONE, Cyclotomic, q_factorial
from .linalg import InvariantError, Matrix, Subspace, dense_of, kernel, lincomb, sparse_of
from .algebra import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    DEFAULT_SEED,
    EMPTY_CELL,
    AlgebraElement,
    CentralBlock,
    StructureAlgebra,
    gen,
    sampled_triples,
)
from .hopf import (
    HopfData,
    _axiom_witness,
    check_algebra_map,
    check_pivotal,
    taft_dual_transport,
)
from .report import FAIL, PASS, PRECONDITION_FAILED, CheckReport

# D2.2 re-checks every basis triple of a double exactly up to dim
# EXHAUSTIVE_RECHECK_LIMIT (its witness mode "exhaustive"); above it, it
# reports the certificate ("certificate") up to algebra.DEFAULT_EXHAUSTIVE_LIMIT
# and RECHECK_SAMPLES triples ("sampled", seeded by DEFAULT_SEED) beyond,
# read from construction's record and run only on a double built unchecked
EXHAUSTIVE_RECHECK_LIMIT = 24
RECHECK_SAMPLES = 2000


class _Pool:
    """The scalars of one double build: one object per distinct value, and
    each product of two operands computed and pooled once.  Products are
    keyed by the operands' ids, so every operand must be pooled here or held
    by the base for the whole build (an id is reused once its object dies)."""

    def __init__(self):
        self.values: dict = {}
        self.products: dict = {}
        self.scaled: dict = {}

    def __call__(self, s: Cyclotomic) -> Cyclotomic:
        return self.values.setdefault((s.order, s.num, s.den), s)

    def mul(self, x: Cyclotomic, y: Cyclotomic) -> Cyclotomic:
        key = (id(x), id(y))
        p = self.products.get(key)
        if p is None:
            p = self.products[key] = self(x * y)
        return p

    def scale(self, x: Cyclotomic, tag, cells: list) -> list:
        """The terms [(k, x c[k]) for k in c] of each cell c of cells, the
        cells that tag names, computed once per (x, tag)."""
        key = (id(x), tag)
        out = self.scaled.get(key)
        if out is None:
            out = self.scaled[key] = [
                [(k, self.mul(x, ck)) for k, ck in cell.items()] for cell in cells
            ]
        return out


def _accumulate(cell: dict, key: int, s: Cyclotomic, pool: _Pool) -> None:
    """Store the sum s at cell[key], pooled, or drop key when s is zero."""
    if any(s.num):
        cell[key] = pool(s)
    else:
        del cell[key]


def _collector_paused(build):
    """build with cyclic garbage collection paused while it runs, and the
    collector's prior state restored after.  A build's tables hold no
    reference cycles, but their hundreds of thousands of containers would
    trigger collection passes that free nothing."""

    @functools.wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def _key_blocks(n: int) -> list[list[int]]:
    """blocks[k][u] is the key k n + u, one int object per key of an
    (n n)-dim double, so that its cells share their keys (CPython caches
    only the ints up to 256)."""
    keys = list(range(n * n))
    return [keys[k * n:(k + 1) * n] for k in range(n)]


def _embed(flat, left: dict, right: dict) -> dict:
    """Terms of sum_{a,b} left[a] right[b] e_{flat(a, b)}, for the terms
    left and right of two vectors of the base's dimension."""
    return {flat(a, b): ca * cb for a, ca in left.items() for b, cb in right.items()}


def _diagonal(n: int, flat) -> dict:
    """Terms of sum_i e_{flat(i, i)}."""
    return {flat(i, i): ONE for i in range(n)}


def _sandwiches(h: HopfData, c: int, left, right) -> list:
    """(c2, v, t, left(e_c3) e_v right(e_c1)) for every Sweedler triple
    (c1, c2, c3, t) of e_c, in the key order of h.delta2(c), and every v;
    left and right map a basis index to a sparse column."""
    alg = h.algebra
    n = h.dim
    out = []
    for k, t in h.delta2(c).items():
        c12, c3 = divmod(k, n)
        c1, c2 = divmod(c12, n)
        for v in range(n):
            w = alg.mul_sparse(left(c3), alg.basis_sparse(v))
            out.append((c2, v, t, alg.mul_sparse(w, right(c1))))
    return out


def _twist_col(h: HopfData, flavor: str):
    """Columns of the flavor's twist A: S^{-1} for "drinfeld", S for "anti"."""
    if flavor not in ("drinfeld", "anti"):
        raise ValueError("flavor must be 'drinfeld' or 'anti'")
    return h.antipode_inv_col if flavor == "drinfeld" else h.antipode_col


def _expansion_check(double, check_id, witnesses, left, right, hopf_first) -> CheckReport:
    """Compare, on every basis pair, the product of embedded elements with
    its expansion sum t e^b(w) e_{flat(c2, v)} over (c2, v, t, w) in
    _sandwiches(h, c, left, right): e_c . e^b, pairs (c, b) c-major, if
    hopf_first, else e^b . e_c, pairs (b, c) b-major.  first_failure is the
    first failing pair in that order."""
    h = double.base
    n = h.dim
    basis = h.algebra.basis_sparse
    hs = [double.embed_hopf(basis(c)).terms for c in range(n)]
    chis = [double.embed_dual(basis(b)).terms for b in range(n)]
    legs = [_sandwiches(h, c, left, right) for c in range(n)]
    # one column {flat(c2, v): t} per Sweedler leg (c2, v, t, w) of each e_c
    leg_cols = [[{double.flat(c2, v): t} for c2, v, t, _ in leg] for leg in legs]
    first, second = (hs, chis) if hopf_first else (chis, hs)
    bad = None
    for i, j in itertools.product(range(n), repeat=2):
        c, b = (i, j) if hopf_first else (j, i)
        coeffs = {k: w[b] for k, (*_, w) in enumerate(legs[c]) if b in w}
        if double.algebra.mul_sparse(first[i], second[j]) != lincomb(leg_cols[c], coeffs):
            bad = (i, j)
            break
    witnesses.update(pairs=n * n, holds=bad is None)
    if bad is not None:
        witnesses["first_failure"] = bad
    return CheckReport(check_id, PASS if bad is None else FAIL, witnesses)


class _Embeddings:
    """The embeddings of H and H^* into a double indexed by flat(a, b), of
    vectors given by their terms {index: scalar}."""

    def embed_hopf(self, terms: dict) -> AlgebraElement:
        """h -> eps(-)h = h (x) eps, the algebra embedding of the base."""
        counit = sparse_of(self.base.counit)
        return self.algebra.from_dict(_embed(self.flat, terms, counit))

    def embed_dual(self, terms: dict) -> AlgebraElement:
        """chi -> chi(-)1 = 1 (x) chi, the convolution-algebra embedding of the dual."""
        unit = self.base.algebra.unit_element().terms
        return self.algebra.from_dict(_embed(self.flat, unit, terms))


@dataclass
class TwistedDouble(_Embeddings):
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
        return self.algebra.from_dict(
            {self.flat(a, b): v for a, row in enumerate(matrix.data) for b, v in row.items()}
        )


@_collector_paused
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

    # nonempty cells of each row of H: cols[a2] the c with c[a2][c] nonempty,
    # cells[a2] those cells
    cols = [[c for c, cell in enumerate(row) if cell] for row in alg.rows]
    cells = [[cell for cell in row if cell] for row in alg.rows]

    # cells start as the shared EMPTY_CELL and get a dict on their first
    # write, which stores a pooled product as it is under a shared key
    # from blocks
    rows: list[list] = [[EMPTY_CELL] * nn for _ in range(nn)]
    blocks = _key_blocks(n)
    pool = _Pool()
    for a in range(n):
        # the sandwiches S(e_a3) e_m e_a1 of e_a, bucketed by m and read by
        # every (b, k) below
        by_m: list[list[tuple]] = [[] for _ in range(n)]
        for a2, m, t, v in _sandwiches(h, a, h.antipode_col, alg.basis_sparse):
            by_m[m].append((a2, t, v))
        for b in range(n):
            row = rows[flat(a, b)]
            for k, m, cf in by_first[b]:
                kkeys = blocks[k]
                for a2, t, v in by_m[m]:
                    w = cf * t
                    for d, vd in v.items():
                        dn = d * n
                        scaled = pool.scale(pool(w * vd), a2, cells[a2])
                        for c, terms in zip(cols[a2], scaled):
                            cell = row[dn + c]
                            if cell is EMPTY_CELL:
                                cell = row[dn + c] = {}
                            for u, s in terms:
                                key = kkeys[u]
                                prev = cell.get(key)
                                if prev is None:
                                    cell[key] = s
                                else:
                                    _accumulate(cell, key, prev + s, pool)

    unit = _embed(flat, alg.unit_element().terms, sparse_of(h.counit))
    dalg = StructureAlgebra(nn, rows, dense_of(unit, nn), name=f"twisted-double({h.name})")
    double = TwistedDouble(h, dalg, dalg.from_dict(_diagonal(n, flat)), dalg.unit_element())
    if not dalg.is_central(double.sigma):
        raise InvariantError("identity map must be central")
    sinv = double.endo_element(h.antipode_inverse)
    if double.sigma * sinv != double.one or sinv * double.sigma != double.one:
        raise InvariantError("sigma inverse must be S^{-1}")
    return double


def check_double_unital_associative(
    double: TwistedDouble, check_id: str = "double-assoc-unital"
) -> CheckReport:
    """Re-verify the unit law on every basis element and report associativity
    on basis triples: every triple in exact arithmetic up to dim
    EXHAUSTIVE_RECHECK_LIMIT (24), mode "exhaustive"; Light's certificate
    (StructureAlgebra._assoc_modular) up to DEFAULT_EXHAUSTIVE_LIMIT (230),
    and at any dim construction certified, mode "certificate" with its
    number of generators, which proves every triple; otherwise the
    RECHECK_SAMPLES (2,000) triples of sampled_triples(dim, RECHECK_SAMPLES,
    DEFAULT_SEED) in exact arithmetic, mode "sampled".  What construction
    proved or sampled is read from the algebra's `associativity` record,
    not run again: its certificate proves every triple, and its sample of
    DEFAULT_SAMPLES triples drawn from the same seed begins with these
    2,000.  So only a double built unchecked is certified (when the unit
    law holds) or sampled here.  first_failure is the first failing triple
    in row-major order, or in the sample's order.
    """
    alg = double.algebra
    nn = alg.dim
    unit_ok = alg.unit_failure() is None
    if nn <= EXHAUSTIVE_RECHECK_LIMIT:
        bad = alg.associativity_failure(itertools.product(range(nn), repeat=3))
        associativity = {"mode": "exhaustive", "triples": nn**3}
    elif alg.associativity == "certificate" or (unit_ok and nn <= DEFAULT_EXHAUSTIVE_LIMIT):
        # Light's test needs the unit laws, which hold here
        bad = None if alg.associativity == "certificate" else alg._assoc_modular()
        associativity = {"mode": "certificate", "generators": len(alg.light_generators)}
    else:
        sample = sampled_triples(nn, RECHECK_SAMPLES, DEFAULT_SEED)
        bad = None if alg.associativity == "sampled" else alg.associativity_failure(sample)
        associativity = {"mode": "sampled", "triples": RECHECK_SAMPLES}
    witnesses = {
        "dim": nn,
        "unit": {"holds": unit_ok},
        "associativity": {"holds": bad is None, **associativity},
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
    the constructed product; first_failure is the first failing (k, d),
    k-major.
    """
    h = double.base
    return _expansion_check(
        double, check_id, {}, h.antipode_col, h.algebra.basis_sparse, hopf_first=True
    )


# -- classical doubles -------------------------------------------------


@dataclass
class ClassicalDouble(_Embeddings):
    """H (x) H^* with the straightening product of the chosen flavor."""

    base: HopfData
    flavor: str
    algebra: StructureAlgebra
    sigma: AlgebraElement | None

    def flat(self, a: int, b: int) -> int:
        """Index of e_a (x) e^b."""
        return a * self.base.dim + b


@_collector_paused
def build_classical_double(h: HopfData, flavor: str) -> ClassicalDouble:
    """The double on H (x) H^* for flavor "drinfeld" (straightening twists
    by S^{-1}) or "anti" (twists by S; carries the central element
    sigma = sum_i e_i (x) e^i).
    """
    twist_col = _twist_col(h, flavor)
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

    # nonempty convolutions of each row: dual_cols[v] the d with e^v e^d
    # nonzero, dual_cells[v] those products
    dual_cols = [[d for d, conv in enumerate(vrow) if conv] for vrow in dual_rows]
    dual_cells = [[conv for conv in vrow if conv] for vrow in dual_rows]

    # cells, keys and scalars as in build_twisted_double: EMPTY_CELL until
    # the first write, keys from blocks, values from pool
    rows: list[list] = [[EMPTY_CELL] * nn for _ in range(nn)]
    blocks = _key_blocks(n)
    pool = _Pool()
    for c in range(n):
        # the sandwiches e_c3 e_v A(e_c1) of e_c, read by every b below
        legs = _sandwiches(h, c, alg.basis_sparse, twist_col)
        # targets[v]: the flat indices (c, d) of e^v's nonzero convolutions
        targets = [[flat(c, d) for d in cols] for cols in dual_cols]
        # straighten e^b . e_c once per (b, c); reuse across a and d
        for b in range(n):
            # list of (c2, v, weight) with e^b e_c = sum weight e_{c2} (x) e^v;
            # the weights are pooled, so they outlive this round
            straightened = [(c2, v, pool(t * w[b])) for c2, v, t, w in legs if b in w]
            for a in range(n):
                arow = alg.rows[a]
                row = rows[flat(a, b)]
                for c2, v, weight in straightened:
                    left = arow[c2]
                    if not left:
                        continue
                    # (the keys u n + kk, the convolutions e^v e^d scaled by
                    # weight c_{a c2}^u)
                    scaled = [
                        (blocks[u], pool.scale(pool.mul(weight, cu), v, dual_cells[v]))
                        for u, cu in left.items()
                    ]
                    for slot, t in enumerate(targets[v]):
                        cell = row[t]
                        if cell is EMPTY_CELL:
                            cell = row[t] = {}
                        for ukeys, sd in scaled:
                            for kk, s in sd[slot]:
                                key = ukeys[kk]
                                prev = cell.get(key)
                                if prev is None:
                                    cell[key] = s
                                else:
                                    _accumulate(cell, key, prev + s, pool)

    unit = _embed(flat, alg.unit_element().terms, sparse_of(h.counit))
    dalg = StructureAlgebra(nn, rows, dense_of(unit, nn), name=f"double[{flavor}]({h.name})")
    sigma = None
    if flavor == "anti":
        sigma = dalg.from_dict(_diagonal(n, flat))
        if not dalg.is_central(sigma):
            raise InvariantError("sigma must be central in the anti flavor")
    return ClassicalDouble(h, flavor, dalg, sigma)


def check_straightening(
    double: ClassicalDouble, check_id: str = "straightening"
) -> CheckReport:
    """The flavor's straightening rule, evaluated for every basis pair
    (chi = e^b, h = e_c): the product of the embedded elements equals the
    expansion  sum  e_{c2} (x) e^b( e_{c3} (-) A(e_{c1}) ); first_failure is
    the first failing (b, c), b-major."""
    h = double.base
    twist_col = _twist_col(h, double.flavor)
    return _expansion_check(
        double, check_id, {"flavor": double.flavor}, h.algebra.basis_sparse, twist_col,
        hopf_first=False,
    )


def uhu_map(
    h: HopfData,
    u: AlgebraElement,
    doubles: tuple[ClassicalDouble, ClassicalDouble],
    check_id: str = "uhu-iso",
) -> tuple[Matrix, CheckReport]:
    """The comparison map between the two classical double flavors induced
    by a pivot u (group-like, implementing the square of the antipode by
    conjugation): e_a (x) e^b  ->  e_a (x) e^b((-) u); doubles are the
    drinfeld and anti classical doubles of h, in that order.

    Precondition: check_pivotal(h, u) passes; then the map is verified to
    be a unital bijective algebra isomorphism on all basis pairs.
    """
    n = h.dim
    ru = h.algebra.right_mult_matrix(u)
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
    dd, da = doubles
    report = check_algebra_map(dd.algebra, da.algebra, matrix, check_id)
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
    transport = taft_dual_transport(double.base).transpose().data
    basis = double.base.algebra.basis_sparse
    # the Taft basis g^i x^j sits at index i*p + j: x is e_1 and g is e_p
    x, g = 1, meta["p"]
    return {
        "x": double.embed_hopf(basis(x)),
        "x'": double.embed_dual(transport[x]),
        "g": double.embed_hopf(basis(g)),
        "g'": double.embed_dual(transport[g]),
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
    double: TwistedDouble,
    gens: dict[str, AlgebraElement],
    check_id: str = "double-presentation",
) -> CheckReport:
    """All defining relations of the Taft double hold for the generators
    (gens as from taft_double_generators), the generators generate the whole
    algebra, and g g' is central with (g g')^p = 1."""
    meta = double.base.meta or {}
    p = meta["p"]
    xi = meta["xi"]
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
    lgp = alg.left_mult_matrix(gens["g'"])
    lg = alg.left_mult_matrix(gens["g"])
    mgp = [lgp.add_scalar_diag(-(xi ** i)) for i in range(p)]
    mg = [lg.add_scalar_diag(-(xi ** j)) for j in range(p)]
    return {(i, j): kernel(Matrix.vstack([mgp[i], mg[j]])) for i in range(p) for j in range(p)}


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
        diff = (double.sigma - op).terms
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
        g = gens[name].terms
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
        diff = (double.sigma - form).terms
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
    rho(e_i) rho(e_j) = sum_k c_ij^k rho(e_k), checked by
    algebra.map_failure with each rho(e_k) a sparse vector keyed (u, v);
    first_failure is the first failing pair (i, j) in row-major order."""
    nn = algebra.dim
    if len(action) != nn:
        raise ValueError("one action matrix per basis element required")
    m = action[0].nrows if action else 0
    if any(a.nrows != m or a.ncols != m for a in action):
        raise ValueError("action matrices must be square of one size")

    def entries(mat: Matrix) -> dict:
        return {(u, v): a for u, row in enumerate(mat.data) for v, a in row.items()}

    images = [entries(a) for a in action]
    identity = {(u, u): ONE for u in range(m)}
    unit_ok = lincomb(images, sparse_of(algebra.unit)) == identity
    # End(V) is associative, so the identity is passed as the target's unit
    bad = algebra.map_failure(images, lambda i, j: entries(action[i] @ action[j]), identity)
    witnesses = {"unit": {"holds": unit_ok}, "multiplicative": _axiom_witness(bad)}
    ok = unit_ok and bad is None
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def _rho(action: list[Matrix], element: AlgebraElement) -> Matrix:
    m = action[0].nrows
    out = Matrix.zeros(m, m)
    for a, ca in element.terms.items():
        out = out + action[a].scale(ca)
    return out


def acts_as_identity(
    algebra: StructureAlgebra, element: AlgebraElement, action: list[Matrix]
) -> bool:
    """rho(element) is the identity of the module space."""
    m = action[0].nrows
    return _rho(action, element) == Matrix.identity(m)


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
    rhs = _rho(action, sigma) - Matrix.identity(m)
    homotopy_ok = lhs == rhs
    witnesses["homotopy-identity"] = {"holds": homotopy_ok}
    ok = base.passed and deg_ok and d2_ok and commute_bad is None and homotopy_ok
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def regular_mixed_module(double: TwistedDouble, regular: list[Matrix]):
    """The two-term regular fixture: two copies of the double in degrees
    -1 and 0, action by left multiplication on both, d = right
    multiplication by (sigma - 1) from degree -1 to degree 0, h = the
    identity from degree 0 to degree -1.  regular holds the left
    multiplication matrices of the basis elements, which the fixture reads
    and does not compute again.  Returns (action, degrees, differential,
    homotopy).
    """
    alg = double.algebra
    nn = alg.dim
    action = []
    for la in regular:
        shifted = [{nn + v: c for v, c in row.items()} for row in la.data]
        action.append(Matrix.sparse(la.data + shifted, 2 * nn))
    degrees = [-1] * nn + [0] * nn
    rz = alg.right_mult_matrix(double.sigma - double.one)
    differential = Matrix.sparse([{} for _ in range(nn)] + rz.data, 2 * nn)
    homotopy = Matrix.sparse(
        [{nn + u: ONE} for u in range(nn)] + [{} for _ in range(nn)], 2 * nn
    )
    return action, degrees, differential, homotopy
