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
from .linalg import Matrix, invert_matrix, rank, sparse_of
from .report import FAIL, PASS, PRECONDITION_FAILED, CheckReport


class HopfAxiomError(ValueError):
    def __init__(self, axiom: str, message: str = ""):
        self.axiom = axiom
        super().__init__(message or f"hopf axiom fails: {axiom}")


def _acc(out: dict, key, value):
    prev = out.get(key)
    if prev is None:
        out[key] = value
    else:
        s = prev + value
        if s:
            out[key] = s
        else:
            del out[key]


def tensor_mult(algebra: StructureAlgebra, u: dict, v: dict) -> dict:
    """Product of sparse flat-indexed tensors in H (x) H (componentwise)."""
    n = algebra.dim
    rows = algebra.rows
    out: dict = {}
    for ab, cu in u.items():
        a, b = divmod(ab, n)
        for cd, cv in v.items():
            c, d = divmod(cd, n)
            cc = cu * cv
            for p1, w1 in rows[a][c].items():
                left = cc * w1
                for p2, w2 in rows[b][d].items():
                    _acc(out, p1 * n + p2, left * w2)
    return out


def tensor_outer(n: int, u: dict, v: dict) -> dict:
    """u (x) v as a sparse flat tensor for sparse coordinate vectors u, v."""
    out: dict = {}
    for a, cu in u.items():
        for b, cv in v.items():
            _acc(out, a * n + b, cu * cv)
    return out


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
        check: bool = True,
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
        self._delta2: dict[int, tuple] = {}
        self._antipode_inv: Matrix | None = None
        self._antipode_inv_cols = None
        if check and n:
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

    def comult_of(self, coords) -> dict:
        out: dict = {}
        for j, cj in enumerate(coords):
            if cj:
                for f, v in self._comult_cols[j].items():
                    _acc(out, f, cj * v)
        return out

    def delta2_triples(self, j: int) -> tuple:
        """(Delta (x) id) Delta(e_j) as tuples (a, b, c, coeff)."""
        cached = self._delta2.get(j)
        if cached is not None:
            return cached
        n = self.dim
        out: dict = {}
        for f, cval in self._comult_cols[j].items():
            a, b = divmod(f, n)
            for f2, d in self._comult_cols[a].items():
                u, v = divmod(f2, n)
                _acc(out, (u, v, b), cval * d)
        triples = tuple((a, b, c, val) for (a, b, c), val in out.items())
        self._delta2[j] = triples
        return triples

    def counit_of(self, coords) -> Cyclotomic:
        total = ZERO
        for j, cj in enumerate(coords):
            if cj and self.counit[j]:
                total = total + cj * self.counit[j]
        return total

    def antipode_col(self, j: int) -> dict:
        return self._antipode_cols[j]

    def antipode_of(self, coords) -> list:
        return self.antipode.apply(list(coords))

    @property
    def antipode_inverse(self) -> Matrix:
        if self._antipode_inv is None:
            self._antipode_inv = invert_matrix(self.antipode)
        return self._antipode_inv

    def antipode_inv_col(self, j: int) -> dict:
        if self._antipode_inv_cols is None:
            self._antipode_inv_cols = tuple(self.antipode_inverse.transpose().data)
        return self._antipode_inv_cols[j]

    def is_cocommutative(self) -> bool:
        n = self.dim
        for j in range(n):
            col = self._comult_cols[j]
            flipped = {}
            for f, v in col.items():
                a, b = divmod(f, n)
                flipped[b * n + a] = v
            if col != flipped:
                return False
        return True

    def same_data(self, other: "HopfData") -> bool:
        """Equality of all four structure tensors (same basis)."""
        if self.dim != other.dim:
            return False
        if not self.algebra.same_structure(other.algebra):
            return False
        if any(self._comult_cols[j] != other._comult_cols[j] for j in range(self.dim)):
            return False
        return self.counit == other.counit and self.antipode == other.antipode

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
    witnesses: dict = {}

    bad = None
    for j in range(n):
        left: dict = {}
        right: dict = {}
        for f, cval in h.comult_col(j).items():
            a, b = divmod(f, n)
            for f2, d in h.comult_col(a).items():
                u, v = divmod(f2, n)
                _acc(left, (u * n + v) * n + b, cval * d)
            for f2, d in h.comult_col(b).items():
                u, v = divmod(f2, n)
                _acc(right, (a * n + u) * n + v, cval * d)
        if left != right:
            bad = j
            break
    witnesses["coassociativity"] = _axiom_witness(bad)

    bad = None
    for j in range(n):
        lhs: dict = {}
        rhs: dict = {}
        for f, cval in h.comult_col(j).items():
            a, b = divmod(f, n)
            if h.counit[a]:
                _acc(lhs, b, cval * h.counit[a])
            if h.counit[b]:
                _acc(rhs, a, cval * h.counit[b])
        want = {j: ONE}
        if lhs != want or rhs != want:
            bad = j
            break
    witnesses["counit"] = _axiom_witness(bad)

    bad = None
    unit_sparse = sparse_of(alg.unit)
    if h.comult_of(alg.unit) != tensor_outer(n, unit_sparse, unit_sparse):
        bad = "unit"
    else:
        for i in range(n):
            if bad is not None:
                break
            di = h.comult_col(i)
            for j in range(n):
                prod = alg.rows[i][j]
                want: dict = {}
                for t, c in prod.items():
                    for f, v in h.comult_col(t).items():
                        _acc(want, f, c * v)
                if tensor_mult(alg, di, h.comult_col(j)) != want:
                    bad = (i, j)
                    break
    witnesses["comult-algebra-map"] = _axiom_witness(bad)

    bad = None
    if h.counit_of(alg.unit) != ONE:
        bad = "unit"
    else:
        for i in range(n):
            if bad is not None:
                break
            for j in range(n):
                total = ZERO
                for t, c in alg.rows[i][j].items():
                    if h.counit[t]:
                        total = total + c * h.counit[t]
                if total != h.counit[i] * h.counit[j]:
                    bad = (i, j)
                    break
    witnesses["counit-algebra-map"] = _axiom_witness(bad)

    bad = None
    for j in range(n):
        left = {}
        right = {}
        for f, cval in h.comult_col(j).items():
            a, b = divmod(f, n)
            for s_idx, s_val in h.antipode_col(a).items():
                for t, w in alg.rows[s_idx][b].items():
                    _acc(left, t, cval * s_val * w)
            for s_idx, s_val in h.antipode_col(b).items():
                for t, w in alg.rows[a][s_idx].items():
                    _acc(right, t, cval * s_val * w)
        want = {
            k: h.counit[j] * u for k, u in enumerate(alg.unit) if u and h.counit[j]
        }
        if left != want or right != want:
            bad = j
            break
    witnesses["antipode"] = _axiom_witness(bad)

    ok = all(part["holds"] for part in witnesses.values())
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


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
    scols = [
        sparse_of((sx_pows[j] * sg_pows[i]).coords) for i in range(p) for j in range(p)
    ]
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
                _acc(cols[c], i * n + j, v)
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
    require_bijective: bool = False,
) -> CheckReport:
    """Verify that the matrix is a unital algebra map on all basis pairs:
    for each pair (i, j) in row-major order, sum_t c_ij^t M[:, t] is compared
    with the product of the sparse columns M[:, i] M[:, j] in dst."""
    if matrix.ncols != src.dim or matrix.nrows != dst.dim:
        raise ValueError("matrix shape does not match the algebras")
    witnesses: dict = {}
    cols = matrix.transpose().data
    unit_ok = matrix.apply(src.unit) == list(dst.unit)
    witnesses["unit"] = {"holds": unit_ok}
    bad = None
    for i in range(src.dim):
        if bad is not None:
            break
        for j in range(src.dim):
            want: dict = {}
            for t, c in src.rows[i][j].items():
                for k, m in cols[t].items():
                    _acc(want, k, c * m)
            if dst.mul_sparse(cols[i], cols[j]) != want:
                bad = (i, j)
                break
    witnesses["multiplicative"] = _axiom_witness(bad)
    ok = unit_ok and bad is None
    if require_bijective:
        r = rank(matrix)
        bij = matrix.nrows == matrix.ncols and r == matrix.ncols
        witnesses["bijective"] = {"holds": bij, "rank": r}
        ok = ok and bij
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def check_hopf_map(
    src: HopfData,
    dst: HopfData,
    matrix: Matrix,
    check_id: str = "hopf-map",
    require_bijective: bool = True,
) -> CheckReport:
    """Verify a matrix is a Hopf algebra map (and by default bijective)."""
    alg_report = check_algebra_map(
        src.algebra, dst.algebra, matrix, check_id, require_bijective
    )
    witnesses = dict(alg_report.witnesses)
    n = src.dim
    m = dst.dim
    cols = matrix.transpose().data

    bad = None
    for j in range(n):
        lhs: dict = {}
        for f, cval in src.comult_col(j).items():
            a, b = divmod(f, n)
            for u, va in cols[a].items():
                left = cval * va
                for v, vb in cols[b].items():
                    _acc(lhs, u * m + v, left * vb)
        rhs: dict = {}
        for k, ck in cols[j].items():
            for f, v in dst.comult_col(k).items():
                _acc(rhs, f, ck * v)
        if lhs != rhs:
            bad = j
            break
    witnesses["comultiplicative"] = _axiom_witness(bad)

    bad = None
    for j in range(n):
        if dst.counit_of(matrix.column(j)) != src.counit[j]:
            bad = j
            break
    witnesses["counit"] = {"holds": bad is None}

    bad = None
    for j in range(n):
        if matrix.apply(src.antipode.column(j)) != dst.antipode.apply(matrix.column(j)):
            bad = j
            break
    witnesses["antipode-commutes"] = _axiom_witness(bad)

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


def taft_self_duality(
    p: int, xi: Cyclotomic | None = None, check_id: str = "self-duality"
) -> SelfDuality:
    """The explicit isomorphism taft(p, xi) -> taft(p, xi)* and its inverse.

    The map sends g to the character G = sum_l xi^l (g^l)^* and x to
    Y = X G where X = sum_l (g^l x)^*; G is group-like and Y satisfies
    Delta(Y) = Y (x) 1 + G (x) Y with G Y = xi Y G, matching (g, x).
    In closed form on the monomial basis:

    Forward: g^i x^j -> (j)_{xi}! * sum_l xi^{i(j+l) + jl} (g^l x^j)^*.
    Inverse: (g^i x^j)^* -> (1/(p*(j)_{xi}!)) * sum_l xi^{-l(i+j) - ij} g^l x^j.

    The report verifies the two maps are mutually inverse and the forward
    map preserves unit, products, coproducts, counit and antipode.
    """
    h = taft(p, xi)
    xi = h.meta["xi"]
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
    v = sparse_of(element.coords)
    return (
        h.comult_of(element.coords) == tensor_outer(h.dim, v, v)
        and h.counit_of(element.coords) == ONE
    )


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
    s2 = h.antipode @ h.antipode
    bad = None
    for i in range(h.dim):
        conj = u * h.algebra.basis_element(i) * u_inv
        if s2.column(i) != list(conj.coords):
            bad = i
            break
    witnesses["conjugation"] = _axiom_witness(bad)
    ok = witnesses["group-like"]["holds"] and bad is None
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)
