"""Exact dense linear algebra over cyclotomic fields.

Vectors are lists/tuples of Cyclotomic scalars; a Matrix is a thin wrapper
around a list of rows.  Pivoting always selects the first nonzero entry, so
every reduced form is deterministic.  kernel() checks rank-nullity on every
call and minimal_polynomial() checks that the returned polynomial
annihilates its matrix; both are cheap relative to the elimination itself,
and both raise InvariantError rather than assert, so they survive python -O.
"""

from __future__ import annotations

from .cyclotomic import ONE, ZERO, Cyclotomic, cyc_from_json

Vector = list  # list[Cyclotomic]


class InvariantError(RuntimeError):
    """A load-bearing internal invariant failed: the exact result at hand
    cannot be trusted, so the computation stops instead of reporting it."""


def vec_zero(n: int) -> list[Cyclotomic]:
    return [ZERO] * n


def vec_eq(a, b) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def vec_is_zero(a) -> bool:
    return not any(a)


class Matrix:
    """Dense matrix over Q(zeta_N) with exact entries."""

    __slots__ = ("data", "nrows", "ncols")

    def __init__(self, rows: list[list[Cyclotomic]], ncols: int | None = None):
        self.data = [list(r) for r in rows]
        self.nrows = len(self.data)
        if self.nrows:
            self.ncols = len(self.data[0])
            if any(len(r) != self.ncols for r in self.data):
                raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> Matrix:
        return cls([[ZERO] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def from_columns(cls, cols: list[list[Cyclotomic]]) -> Matrix:
        if not cols:
            return cls([], ncols=0)
        n = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> list[Cyclotomic]:
        return list(self.data[i])

    def column(self, j: int) -> list[Cyclotomic]:
        return [r[j] for r in self.data]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(vec_eq(a, b) for a, b in zip(self.data, other.data))
        )

    def __add__(self, other: Matrix) -> Matrix:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            ncols=self.ncols,
        )

    def __sub__(self, other: Matrix) -> Matrix:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix subtraction")
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            ncols=self.ncols,
        )

    def __neg__(self) -> Matrix:
        return Matrix([[-a for a in r] for r in self.data], ncols=self.ncols)

    def scale(self, c: Cyclotomic) -> Matrix:
        return Matrix([[c * a for a in r] for r in self.data], ncols=self.ncols)

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        zero = ZERO
        out = [[zero] * other.ncols for _ in range(self.nrows)]
        for i, arow in enumerate(self.data):
            orow = out[i]
            for k, aik in enumerate(arow):
                if aik:
                    brow = other.data[k]
                    for j, bkj in enumerate(brow):
                        if bkj:
                            prev = orow[j]
                            orow[j] = aik * bkj if prev is zero else prev + aik * bkj
        return Matrix(out, ncols=other.ncols)

    def apply(self, vec) -> list[Cyclotomic]:
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch in matrix-vector product")
        zero = ZERO
        out = [zero] * self.nrows
        for j, vj in enumerate(vec):
            if vj:
                for i in range(self.nrows):
                    aij = self.data[i][j]
                    if aij:
                        prev = out[i]
                        out[i] = aij * vj if prev is zero else prev + aij * vj
        return out

    def transpose(self) -> Matrix:
        return Matrix(
            [[self.data[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    @classmethod
    def vstack(cls, mats: list[Matrix]) -> Matrix:
        ncols = mats[0].ncols if mats else 0
        rows = []
        for m in mats:
            if m.ncols != ncols:
                raise ValueError("shape mismatch in vstack")
            rows.extend(m.data)
        return cls(rows, ncols=ncols)

    def is_zero(self) -> bool:
        return all(not a for r in self.data for a in r)

    def add_scalar_diag(self, c: Cyclotomic) -> Matrix:
        """self + c * identity (square only)."""
        if self.nrows != self.ncols:
            raise ValueError("square matrix required")
        out = [list(r) for r in self.data]
        for i in range(self.nrows):
            out[i][i] = out[i][i] + c
        return Matrix(out, ncols=self.ncols)

    def to_json(self) -> dict:
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [[a.to_json() for a in r] for r in self.data],
        }

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"


def matrix_from_json(obj: dict) -> Matrix:
    """Inverse of Matrix.to_json."""
    return shaped_matrix(obj, [[cyc_from_json(a) for a in r] for r in obj["entries"]])


def shaped_matrix(obj: dict, entries) -> Matrix:
    """The Matrix of the parsed `entries` of a Matrix.to_json form `obj`,
    checked against the integer "rows" and "cols" that obj declares."""
    nrows, ncols = obj["rows"], obj["cols"]
    for v in (nrows, ncols):
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"matrix rows and cols must be integers, got {v!r}")
    m = Matrix(entries, ncols=ncols)
    if m.nrows != nrows:
        raise ValueError("row count mismatch in matrix JSON")
    if m.nrows and m.ncols != ncols:
        raise ValueError("column count mismatch in matrix JSON")
    return m


class EchelonBasis:
    """Incrementally maintained reduced row echelon basis of a subspace."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list[list[Cyclotomic]] = []
        self.pivots: list[int] = []
        self._supports: list[list[int]] = []  # nonzero column indices per row

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list[Cyclotomic]:
        """Residual of vec after elimination against the basis (vec unchanged)."""
        v = list(vec)
        for row, piv, supp in zip(self.rows, self.pivots, self._supports):
            f = v[piv]
            if f:
                for c in supp:
                    v[c] = v[c] - f * row[c]
        return v

    def contains(self, vec) -> bool:
        return vec_is_zero(self.reduce(vec))

    def add(self, vec) -> bool:
        """Insert vec if independent; returns True when the dimension grew."""
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = v[piv].inverse()
        v = [x * inv if x else x for x in v]
        supp = [i for i, x in enumerate(v) if x]
        # eliminate the new pivot from existing rows to stay fully reduced
        for row, rsupp in zip(self.rows, self._supports):
            f = row[piv]
            if f:
                for c in supp:
                    row[c] = row[c] - f * v[c]
                rsupp[:] = [i for i, x in enumerate(row) if x]
        pos = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(pos, v)
        self.pivots.insert(pos, piv)
        self._supports.insert(pos, supp)
        return True

    def coordinates(self, vec):
        """Coordinates of vec in this basis, or None if vec lies outside."""
        coords = [vec[p] for p in self.pivots]
        v = list(vec)
        for row, supp, f in zip(self.rows, self._supports, coords):
            if f:
                for c in supp:
                    v[c] = v[c] - f * row[c]
        if vec_is_zero(v):
            return coords
        return None


def rref(matrix: Matrix) -> tuple[list[list[Cyclotomic]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    basis = EchelonBasis(matrix.ncols)
    for r in matrix.data:
        basis.add(r)
    return [list(r) for r in basis.rows], list(basis.pivots)


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1])


class Subspace:
    """A subspace of a coordinate space, held as a reduced echelon basis.

    Membership and coordinate queries run against an EchelonBasis view that
    shares the basis rows and is built once, on the first query.  Building
    it is idempotent, so concurrent first queries at worst build it twice.
    """

    __slots__ = ("ambient", "basis", "pivots", "_echelon")

    def __init__(self, ambient: int, basis: list[list[Cyclotomic]], pivots: list[int]):
        self.ambient = ambient
        self.basis = [list(r) for r in basis]
        self.pivots = list(pivots)
        self._echelon = None

    @classmethod
    def from_vectors(cls, ambient: int, vectors) -> Subspace:
        eb = EchelonBasis(ambient)
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
            eb.add(v)
        return cls(ambient, eb.rows, eb.pivots)

    @classmethod
    def zero(cls, ambient: int) -> Subspace:
        return cls(ambient, [], [])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        return self._eb().contains(vec)

    def contains_subspace(self, other: Subspace) -> bool:
        return all(self.contains(v) for v in other.basis)

    def _eb(self) -> EchelonBasis:
        # the view is only ever queried (reduce/coordinates), never added to,
        # so it may share the basis rows
        eb = self._echelon
        if eb is None:
            eb = EchelonBasis(self.ambient)
            eb.rows = self.basis
            eb.pivots = self.pivots
            eb._supports = [[i for i, x in enumerate(r) if x] for r in self.basis]
            self._echelon = eb
        return eb

    def coordinates(self, vec):
        return self._eb().coordinates(vec)

    def intersection(self, other: Subspace) -> Subspace:
        """Zassenhaus-free intersection via kernel of the stacked basis."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        if not self.basis or not other.basis:
            return Subspace.zero(self.ambient)
        cols = [list(v) for v in self.basis] + [list(v) for v in other.basis]
        m = Matrix.from_columns(cols)
        ker = kernel(m)
        vecs = []
        for kv in ker.basis:
            vec = vec_zero(self.ambient)
            for c, bas in zip(kv[: self.dim], self.basis):
                if c:
                    vec = [x + c * y for x, y in zip(vec, bas)]
            vecs.append(vec)
        return Subspace.from_vectors(self.ambient, vecs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.pivots == other.pivots
            and all(vec_eq(a, b) for a, b in zip(self.basis, other.basis))
        )

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient})"

    def to_json(self) -> dict:
        return {
            "ambient": self.ambient,
            "dim": self.dim,
            "basis": [[x.to_json() for x in row] for row in self.basis],
        }


def kernel(matrix: Matrix) -> Subspace:
    """Null space {v : M v = 0}, canonical basis; checks rank-nullity."""
    rows, pivots = rref(matrix)
    n = matrix.ncols
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    zero = ZERO
    one = ONE
    vecs = []
    for f in free:
        v = [zero] * n
        v[f] = one
        for row, p in zip(rows, pivots):
            if row[f]:
                v[p] = -row[f]
        vecs.append(v)
    out = Subspace.from_vectors(n, vecs)
    if out.dim + len(pivots) != n:
        raise InvariantError(
            f"rank-nullity violated: kernel dim {out.dim} + rank {len(pivots)} != {n}"
        )
    return out


def solve(matrix: Matrix, rhs) -> list[Cyclotomic] | None:
    """One solution of M x = rhs (free variables set to 0), or None."""
    if len(rhs) != matrix.nrows:
        raise ValueError("right-hand side length does not match row count")
    aug = Matrix([row + [b] for row, b in zip(matrix.data, rhs)], ncols=matrix.ncols + 1)
    rows, pivots = rref(aug)
    n = matrix.ncols
    if n in pivots:
        return None
    zero = ZERO
    x = [zero] * n
    for row, p in zip(rows, pivots):
        x[p] = row[n]
    return x


def invert_matrix(matrix: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    n = matrix.nrows
    if matrix.ncols != n:
        raise ValueError("square matrix required")
    ident = Matrix.identity(n)
    aug = Matrix(
        [list(row) + list(ident.data[i]) for i, row in enumerate(matrix.data)],
        ncols=2 * n,
    )
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix([r[n:] for r in rows], ncols=n)


def matrix_order(matrix: Matrix, limit: int) -> int | None:
    """Least k >= 1 with matrix^k = identity, or None if k > limit."""
    n = matrix.nrows
    if matrix.ncols != n:
        raise ValueError("square matrix required")
    ident = Matrix.identity(n)
    power = matrix
    for k in range(1, limit + 1):
        if power == ident:
            return k
        if k < limit:
            power = power @ matrix
    return None


def minimal_polynomial(matrix: Matrix) -> list[Cyclotomic]:
    """Monic minimal polynomial (ascending coefficients) of a square matrix.

    Found as the first linear dependence among I, M, M^2, ...: the rows
    [flat(M^k) | e_k] enter one EchelonBasis until flat(M^k) reduces to zero,
    and then the tail of its residual is the polynomial.  The result is
    evaluated back at M and must vanish there (InvariantError otherwise).
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("square matrix required")
    n = matrix.nrows
    if n == 0:
        return [ONE]
    nn = n * n
    eb = EchelonBasis(nn + n + 1)  # by Cayley-Hamilton the degree is at most n
    power = Matrix.identity(n)
    for k in range(n + 1):
        row = [x for r in power.data for x in r] + [ZERO] * (n + 1)
        row[nn + k] = ONE
        residual = eb.reduce(row)
        if vec_is_zero(residual[:nn]):
            poly = residual[nn : nn + k + 1]
            break
        eb.add(row)
        power = power @ matrix
    else:
        raise InvariantError("I, M, ..., M^n are independent")
    if not poly_eval_matrix(poly, matrix).is_zero():
        raise InvariantError("minimal polynomial does not annihilate its matrix")
    return poly


def poly_eval_matrix(poly: list[Cyclotomic], matrix: Matrix) -> Matrix:
    """Evaluate a polynomial (ascending coefficients) at a square matrix."""
    n = matrix.nrows
    out = Matrix.zeros(n, n)
    for c in reversed(poly):
        out = out @ matrix if out.nrows else out
        out = out.add_scalar_diag(c)
    return out


def poly_derivative(poly: list[Cyclotomic]) -> list[Cyclotomic]:
    return [c * k for k, c in enumerate(poly)][1:]


def poly_normalize(poly: list[Cyclotomic]) -> list[Cyclotomic]:
    p = list(poly)
    while p and not p[-1]:
        p.pop()
    return p


def poly_divmod(a: list[Cyclotomic], b: list[Cyclotomic]):
    a = poly_normalize(a)
    b = poly_normalize(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    zero = ZERO
    q = [zero] * max(0, len(a) - len(b) + 1)
    inv = b[-1].inverse()
    while len(a) >= len(b):
        f = a[-1] * inv
        shift = len(a) - len(b)
        q[shift] = f
        for i, bi in enumerate(b):
            if bi:
                a[shift + i] = a[shift + i] - f * bi
        a.pop()
        a = poly_normalize(a)
        if not a:
            break
    return q, a


def poly_gcd(a: list[Cyclotomic], b: list[Cyclotomic]) -> list[Cyclotomic]:
    """Monic gcd by Euclid's algorithm."""
    a = poly_normalize(a)
    b = poly_normalize(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return []
    inv = a[-1].inverse()
    return [c * inv for c in a]


def poly_is_squarefree(poly: list[Cyclotomic]) -> bool:
    g = poly_gcd(poly, poly_derivative(poly))
    return len(g) <= 1


def is_diagonalizable(matrix: Matrix) -> bool:
    """True iff the minimal polynomial is squarefree (over the algebraic closure)."""
    return poly_is_squarefree(minimal_polynomial(matrix))


def eigensplit(matrix: Matrix, candidates) -> tuple[list[tuple[Cyclotomic, Subspace]], bool]:
    """Eigenspaces for each candidate eigenvalue; flag says the sum fills the space.

    Candidate values that yield a zero eigenspace are dropped from the output.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("square matrix required")
    out = []
    total = 0
    for lam in candidates:
        lam = Cyclotomic.coerce(lam)
        space = kernel(matrix.add_scalar_diag(-lam))
        if space.dim:
            out.append((lam, space))
            total += space.dim
    return out, total == matrix.ncols
