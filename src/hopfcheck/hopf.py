"""Finite-dimensional Hopf algebra data with exact axiom checking.

A HopfData bundles a StructureAlgebra with comultiplication, counit and
antipode matrices, verifies the full axiom set on construction, and caches
the sparse coproduct views (single and iterated Sweedler legs) that the
double constructions consume.  Tensor-square coordinates are flattened by
the rule e_a (x) e_b -> a*n + b throughout the package.

Constructors cover the two families everything else is built from: the
p^2-dimensional algebras taft(p, xi) on a group-like g and a skew-primitive
x (g^p = 1, x^p = 0, gx = xi*xg), and cyclic group algebras.  Also here:
duals, the explicit self-duality of taft(p, xi), group-like and pivotal
element checks, and generic algebra/Hopf morphism verification.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, StructureAlgebra
from .cyclotomic import ONE, ZERO, Cyclotomic, q_factorial, root_of_unity
from .linalg import Matrix, invert_matrix, lincomb, rank, sparse_of
from .report import FAIL, PASS, PRECONDITION_FAILED, CheckReport


class HopfAxiomError(ValueError):
    def __init__(self, axiom: str, message: str = ""):
        self.axiom = axiom
        super().__init__(message or f"hopf axiom fails: {axiom}")


def tensor_map(n: int, t: dict, f, g, width: int) -> dict:
    """(f (x) g)(t) for a flat tensor t of H (x) H (key a*n + b for
    e_a (x) e_b), keyed x*width + y.  f and g are sequences of sparse
    vectors, f[a] the image of e_a; None is the identity leg.  Terms are
    summed coefficient by coefficient of t, f's entries outside g's, and
    entries that cancel are removed."""
    out: dict = {}
    for ab, c in t.items():
        a, b = divmod(ab, n)
        right = ((b, None),) if g is None else g[b].items()
        if not right:
            continue
        for x, u in ((a, None),) if f is None else f[a].items():
            cu = c if u is None else c * u
            base = x * width
            for y, w in right:
                term = cu if w is None else cu * w
                key = base + y
                prev = out.get(key)
                if prev is None:
                    out[key] = term
                else:
                    total = prev + term
                    if total:
                        out[key] = total
                    else:
                        del out[key]
    return out


def tensor_mult(algebra: StructureAlgebra, u: dict, v: dict) -> dict:
    """Product of sparse flat-indexed tensors in H (x) H (componentwise):
    the sum over the terms e_a (x) e_b of u of u_ab (L_a (x) L_b)(v), L_a
    being left multiplication by e_a, whose column c is the cell e_a e_c."""
    n = algebra.dim
    rows = algebra.rows
    return lincomb({ab: tensor_map(n, v, rows[ab // n], rows[ab % n], n) for ab in u}, u)


def tensor_outer(n: int, u: dict, v: dict) -> dict:
    """u (x) v as a sparse flat tensor for sparse coordinate vectors u, v."""
    return {a * n + b: cu * cv for a, cu in u.items() for b, cv in v.items()}


class HopfData:
    """StructureAlgebra plus comultiplication, counit, antipode."""

    def __init__(
        self,
        algebra: StructureAlgebra,
        comult,
        counit,
        antipode: Matrix,
        *,
        name: str = "",
        meta: dict | None = None,
    ):
        self.algebra = algebra
        n = algebra.dim
        self.name = name or algebra.name
        self.meta = dict(meta or {})
        if isinstance(comult, Matrix):
            if comult.nrows != n * n or comult.ncols != n:
                raise ValueError("comultiplication matrix must be n^2 x n")
            self._comult_cols = tuple(comult.transpose().data)
        else:
            cols = [
                {k: Cyclotomic.coerce(v) for k, v in col.items() if v}
                for col in comult
            ]
            if len(cols) != n:
                raise ValueError("comultiplication needs one column per basis vector")
            self._comult_cols = tuple(cols)
        self.counit = tuple(Cyclotomic.coerce(v) for v in counit)
        if len(self.counit) != n:
            raise ValueError("counit length must equal dim")
        if antipode.nrows != n or antipode.ncols != n:
            raise ValueError("antipode matrix must be n x n")
        self.antipode = antipode
        self._antipode_cols = tuple(antipode.transpose().data)
        self._delta2: dict[int, dict] = {}
        self._antipode_inv: Matrix | None = None
        self._antipode_inv_cols = None
        report = check_hopf_axioms(self)
        if not report.passed:
            failing = [
                key
                for key, part in report.witnesses.items()
                if isinstance(part, dict) and not part.get("holds", True)
            ]
            raise HopfAxiomError(
                failing[0] if failing else "unknown",
                f"{self.name}: hopf axioms fail: {', '.join(failing)}",
            )

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def comult_col(self, j: int) -> dict:
        return self._comult_cols[j]

    def comult_matrix(self) -> Matrix:
        return Matrix.from_columns(self._comult_cols, self.dim**2)

    def comult_of(self, vec: dict) -> dict:
        """Delta of the vector with sparse coordinates vec, as a flat tensor."""
        return lincomb(self._comult_cols, vec)

    def delta2(self, j: int) -> dict:
        """(Delta (x) id) Delta(e_j) as a flat tensor of H (x) H (x) H, key
        (a*n + b)*n + c for e_a (x) e_b (x) e_c; computed on first use and
        kept, for the double builders, which read it once per double."""
        out = self._delta2.get(j)
        if out is None:
            n = self.dim
            out = self._delta2[j] = tensor_map(n, self._comult_cols[j], self._comult_cols, None, n)
        return out

    def counit_of(self, vec: dict) -> Cyclotomic:
        """eps of the vector with sparse coordinates vec."""
        total = ZERO
        for j, cj in vec.items():
            if self.counit[j]:
                total = total + cj * self.counit[j]
        return total

    def antipode_col(self, j: int) -> dict:
        return self._antipode_cols[j]

    @property
    def antipode_inverse(self) -> Matrix:
        if self._antipode_inv is None:
            self._antipode_inv = invert_matrix(self.antipode)
        return self._antipode_inv

    def antipode_inv_col(self, j: int) -> dict:
        if self._antipode_inv_cols is None:
            self._antipode_inv_cols = tuple(self.antipode_inverse.transpose().data)
        return self._antipode_inv_cols[j]

    def __repr__(self) -> str:
        return f"HopfData({self.name}, dim {self.dim})"


def check_hopf_axioms(h: HopfData, check_id: str = "hopf-axioms") -> CheckReport:
    """Exhaustive basis-level verification of the Hopf axioms.

    Witnesses one entry per axiom group: coassociativity, counit laws,
    comultiplication and counit being unital algebra maps, and the antipode
    identity m(S (x) id)Delta = unit*counit = m(id (x) S)Delta.
    """
    alg = h.algebra
    n = alg.dim
    cols, anti = h._comult_cols, h._antipode_cols
    # the counit as a map into the 1-dim algebra k = k (x) k (flat index 0)
    eps = [{0: e} if e else {} for e in h.counit]
    # column a*n + b of the product map m is the cell e_a e_b
    m = [cell for row in alg.rows for cell in row]

    def coassociative(j):
        # computed here and dropped, not kept through h.delta2: that would
        # hold sum_j |Delta^2(e_j)| entries (n^3 for k^G, |G| = n) on every HopfData
        return tensor_map(n, cols[j], cols, None, n) == tensor_map(n, cols[j], None, cols, n * n)

    def counital(j):
        want = {j: ONE}
        return (
            tensor_map(n, cols[j], eps, None, n) == want
            and tensor_map(n, cols[j], None, eps, 1) == want
        )

    def antipodal(j):
        want = {k: h.counit[j] * u for k, u in enumerate(alg.unit) if u and h.counit[j]}
        return (
            lincomb(m, tensor_map(n, cols[j], anti, None, n)) == want
            and lincomb(m, tensor_map(n, cols[j], None, anti, n)) == want
        )

    witnesses: dict = {
        "coassociativity": _axiom_witness(_first_failure(n, coassociative)),
        "counit": _axiom_witness(_first_failure(n, counital)),
    }

    # H (x) H is associative when H is, and k always is; map_failure checks
    # generator pairs only when H is proven
    unit_sparse = alg.unit_element().terms
    unit2 = tensor_outer(n, unit_sparse, unit_sparse)
    bad = "unit"
    if h.comult_of(unit_sparse) == unit2:
        bad = alg.map_failure(cols, lambda i, j: tensor_mult(alg, cols[i], cols[j]), unit2)
    witnesses["comult-algebra-map"] = _axiom_witness(bad)

    bad = "unit"
    if h.counit_of(unit_sparse) == ONE:
        bad = alg.map_failure(eps, lambda i, j: tensor_outer(1, eps[i], eps[j]), {0: ONE})
    witnesses["counit-algebra-map"] = _axiom_witness(bad)

    witnesses["antipode"] = _axiom_witness(_first_failure(n, antipodal))

    ok = all(part["holds"] for part in witnesses.values())
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def _first_failure(n: int, holds):
    """The first basis index j < n with not holds(j), or None."""
    return next((j for j in range(n) if not holds(j)), None)


def _axiom_witness(bad) -> dict:
    if bad is None:
        return {"holds": True}
    return {"holds": False, "first_failure": bad}


# -- constructors ------------------------------------------------------


def taft(p: int, xi: Cyclotomic | None = None) -> HopfData:
    """The p^2-dimensional Hopf algebra on g (group-like, g^p = 1) and x
    (skew-primitive, x^p = 0) with gx = xi*xg; basis g^i x^j at index i*p+j.

    Delta(g) = g (x) g and Delta(x) = x (x) 1 + g (x) x, extended to
    monomials by multiplying generator coproducts in the tensor square;
    S(g) = g^{p-1}, S(x) = -g^{p-1}x, extended by reversing words.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if xi is None:
        xi = root_of_unity(p)
    if xi.multiplicative_order() != p:
        raise ValueError("xi must have exact multiplicative order p")
    n = p * p

    def idx(i: int, j: int) -> int:
        return i * p + j

    xi_pow = [xi**t for t in range(p)]
    rows: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(p):
        for j in range(p):
            for k in range(p):
                # x^j g^k = xi^{-jk} g^k x^j since gx = xi*xg
                twist = xi_pow[(-j * k) % p]
                for l in range(p - j):
                    rows[idx(i, j)][idx(k, l)] = {idx((i + k) % p, j + l): twist}
    unit = [ZERO] * n
    unit[idx(0, 0)] = ONE
    alg = StructureAlgebra(n, rows, unit, name=f"taft({p})")

    one = ONE
    dg = {idx(1, 0) * n + idx(1, 0): one}
    dx = {idx(0, 1) * n + idx(0, 0): one, idx(1, 0) * n + idx(0, 1): one}
    cols: list[dict | None] = [None] * n
    cols[idx(0, 0)] = {0: one}
    for i in range(p):
        for j in range(p):
            if i == 0 and j == 0:
                continue
            if j == 0:
                cols[idx(i, 0)] = tensor_mult(alg, cols[idx(i - 1, 0)], dg)
            else:
                cols[idx(i, j)] = tensor_mult(alg, cols[idx(i, j - 1)], dx)

    counit = [one if j == 0 else ZERO for i in range(p) for j in range(p)]

    sg = alg.basis_element(idx((p - 1) % p, 0))
    sx = -alg.basis_element(idx(p - 1, 1))
    sg_pows = [alg.unit_element()]
    sx_pows = [alg.unit_element()]
    for _ in range(p - 1):
        sg_pows.append(sg_pows[-1] * sg)
        sx_pows.append(sx_pows[-1] * sx)
    scols = [(sx_pows[j] * sg_pows[i]).terms for i in range(p) for j in range(p)]
    antipode = Matrix.from_columns(scols, n)

    return HopfData(
        alg,
        cols,
        counit,
        antipode,
        name=f"taft({p})",
        meta={"family": "taft", "p": p, "xi": xi},
    )


def group_algebra(n: int) -> HopfData:
    """k[Z/n]: basis indexed by exponents, Delta(g^i) = g^i (x) g^i."""
    if n < 1:
        raise ValueError("n must be positive")
    one = ONE
    zero = ZERO
    rows = [[{(i + j) % n: one} for j in range(n)] for i in range(n)]
    unit = [one if i == 0 else zero for i in range(n)]
    alg = StructureAlgebra(n, rows, unit, name=f"kZ/{n}")
    cols = [{i * n + i: one} for i in range(n)]
    counit = [one] * n
    antipode = Matrix.from_columns([{(n - i) % n: one} for i in range(n)], n)
    return HopfData(
        alg, cols, counit, antipode, name=f"kZ/{n}", meta={"family": "group", "n": n}
    )


def dual_hopf(h: HopfData) -> HopfData:
    """The dual Hopf algebra on the dual basis.

    Multiplication is convolution (chi psi)(v) = chi(v^1) psi(v^2) (the
    transpose of comultiplication), comultiplication is the transpose of
    multiplication (<Delta(chi), a (x) b> = chi(ab)), unit is the counit,
    counit is evaluation at 1, antipode is the transpose of the antipode.
    Applying dual_hopf twice returns the original structure tensors.
    """
    n = h.dim
    alg = h.algebra
    rows: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for f, v in h.comult_col(j).items():
            a, b = divmod(f, n)
            rows[a][b][j] = v
    dual_alg = StructureAlgebra(n, rows, list(h.counit), name=f"{h.name}*")
    cols: list[dict] = [{} for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for c, v in alg.rows[i][j].items():
                cols[c][i * n + j] = v
    counit = list(alg.unit)
    antipode = h.antipode.transpose()
    return HopfData(
        dual_alg,
        cols,
        counit,
        antipode,
        name=f"{h.name}*",
        meta={"dual_of": h.name},
    )


# -- morphism checks ---------------------------------------------------


def check_algebra_map(
    src: StructureAlgebra,
    dst: StructureAlgebra,
    matrix: Matrix,
    check_id: str = "algebra-map",
) -> CheckReport:
    """Verify that the matrix is a bijective unital algebra map on all basis
    pairs: src.map_failure compares, for each pair (i, j) in row-major
    order, sum_t c_ij^t M[:, t] with the product M[:, i] M[:, j] of the
    sparse columns in dst (only the pairs (s, j) of src's generating set
    when both algebras are proven and M sends 1 to 1), and the rank shows
    bijectivity."""
    if matrix.ncols != src.dim or matrix.nrows != dst.dim:
        raise ValueError("matrix shape does not match the algebras")
    cols = matrix.transpose().data
    dst_unit = sparse_of(dst.unit)
    unit_ok = lincomb(cols, sparse_of(src.unit)) == dst_unit
    witnesses: dict = {"unit": {"holds": unit_ok}}
    bad = src.map_failure(
        cols, lambda i, j: dst.mul_sparse(cols[i], cols[j]), dst_unit if dst.proven else None
    )
    witnesses["multiplicative"] = _axiom_witness(bad)
    r = rank(matrix)
    bij = matrix.nrows == matrix.ncols and r == matrix.ncols
    witnesses["bijective"] = {"holds": bij, "rank": r}
    ok = unit_ok and bad is None and bij
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def check_hopf_map(
    src: HopfData,
    dst: HopfData,
    matrix: Matrix,
    check_id: str = "hopf-map",
) -> CheckReport:
    """Verify a matrix is a bijective Hopf algebra map."""
    alg_report = check_algebra_map(src.algebra, dst.algebra, matrix, check_id)
    witnesses = dict(alg_report.witnesses)
    n = src.dim
    m = dst.dim
    cols = matrix.transpose().data

    def comultiplicative(j):
        return tensor_map(n, src.comult_col(j), cols, cols, m) == dst.comult_of(cols[j])

    def counital(j):
        return dst.counit_of(cols[j]) == src.counit[j]

    def commutes(j):
        return lincomb(cols, src.antipode_col(j)) == lincomb(dst._antipode_cols, cols[j])

    witnesses["comultiplicative"] = _axiom_witness(_first_failure(n, comultiplicative))
    witnesses["counit"] = {"holds": _first_failure(n, counital) is None}
    witnesses["antipode-commutes"] = _axiom_witness(_first_failure(n, commutes))

    ok = alg_report.passed and all(
        part["holds"] for part in witnesses.values() if isinstance(part, dict)
    )
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


# -- self-duality ------------------------------------------------------


@dataclass
class SelfDuality:
    hopf: HopfData
    dual: HopfData
    forward: Matrix
    inverse: Matrix
    report: CheckReport


def taft_self_duality(h: HopfData, check_id: str = "self-duality") -> SelfDuality:
    """The explicit isomorphism h -> h* and its inverse, for h = taft(p, xi)
    (p and xi are read from h.meta).

    The map sends g to the character G = sum_l xi^l (g^l)^* and x to
    Y = X G where X = sum_l (g^l x)^*; G is group-like and Y satisfies
    Delta(Y) = Y (x) 1 + G (x) Y with G Y = xi Y G, matching (g, x).
    In closed form on the monomial basis:

    Forward: g^i x^j -> (j)_{xi}! * sum_l xi^{i(j+l) + jl} (g^l x^j)^*.
    Inverse: (g^i x^j)^* -> (1/(p*(j)_{xi}!)) * sum_l xi^{-l(i+j) - ij} g^l x^j.

    The report verifies the two maps are mutually inverse and the forward
    map preserves unit, products, coproducts, counit and antipode.
    """
    meta = h.meta or {}
    if meta.get("family") != "taft":
        raise ValueError("the self-duality is defined for Taft algebras")
    p = meta["p"]
    xi = meta["xi"]
    dual = dual_hopf(h)
    n = h.dim

    def idx(i: int, j: int) -> int:
        return i * p + j

    forward = Matrix.from_columns(
        [
            {idx(l, j): q_factorial(j, xi) * xi ** (i * (j + l) + j * l) for l in range(p)}
            for i in range(p)
            for j in range(p)
        ],
        n,
    )
    inverse = Matrix.from_columns(
        [
            {
                idx(l, j): (Cyclotomic.from_int(p) * q_factorial(j, xi)).inverse()
                * xi ** (-l * (i + j) - i * j)
                for l in range(p)
            }
            for i in range(p)
            for j in range(p)
        ],
        n,
    )

    ident = Matrix.identity(n)
    inv_ok = (forward @ inverse == ident) and (inverse @ forward == ident)
    hopf_report = check_hopf_map(h, dual, forward, check_id)
    witnesses = dict(hopf_report.witnesses)
    witnesses["mutually-inverse"] = {"holds": inv_ok}
    status = PASS if (hopf_report.passed and inv_ok) else FAIL
    return SelfDuality(h, dual, forward, inverse, CheckReport(check_id, status, witnesses))


def taft_dual_transport(h: HopfData) -> Matrix:
    """For h = taft(p, xi), the linear map h -> h* used to transport the
    generators x and g into the dual leg of the double:

        g^i x^j -> (j)_{xi^{-1}}! * sum_l xi^{i(j+l)} (g^l x^j)^*.

    As a map into the convolution algebra this is a unital bijective
    algebra map, but it is not the Hopf isomorphism of taft_self_duality
    (the two differ by a column-wise right-convolution twist and a
    rescaling).  It sends x to X = sum_l (g^l x)^* and g to
    G = sum_l xi^l (g^l)^*, the pair whose images in the double satisfy
    the mixed commutation relation with the embedded x and g.
    """
    meta = h.meta or {}
    if meta.get("family") != "taft":
        raise ValueError("the dual transport is defined for Taft algebras")
    p = meta["p"]
    xi = meta["xi"]
    xi_inv = xi.inverse()
    n = h.dim

    def idx(i: int, j: int) -> int:
        return i * p + j

    return Matrix.from_columns(
        [
            {idx(l, j): q_factorial(j, xi_inv) * xi ** (i * (j + l)) for l in range(p)}
            for i in range(p)
            for j in range(p)
        ],
        n,
    )


# -- group-likes and pivots -------------------------------------------


def is_group_like(h: HopfData, element: AlgebraElement) -> bool:
    """Delta(v) = v (x) v and eps(v) = 1."""
    v = element.terms
    return h.comult_of(v) == tensor_outer(h.dim, v, v) and h.counit_of(v) == ONE


def check_pivotal(
    h: HopfData, u: AlgebraElement, check_id: str = "pivotal"
) -> CheckReport:
    """u is group-like and S^2(a) = u a u^{-1} on every basis element."""
    witnesses: dict = {}
    u_inv = h.algebra.inverse_element(u)
    if u_inv is None:
        witnesses["precondition"] = "pivot candidate is not invertible"
        return CheckReport(check_id, PRECONDITION_FAILED, witnesses)
    witnesses["group-like"] = {"holds": is_group_like(h, u)}
    s2_cols = (h.antipode @ h.antipode).transpose().data
    bad = None
    for i in range(h.dim):
        conj = u * h.algebra.basis_element(i) * u_inv
        if conj.terms != s2_cols[i]:
            bad = i
            break
    witnesses["conjugation"] = _axiom_witness(bad)
    ok = witnesses["group-like"]["holds"] and bad is None
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)
