"""Exact sparse linear algebra over cyclotomic fields.

A vector is a dict {index: nonzero Cyclotomic}: no zero value is ever
stored, so a zero test is a dict's emptiness and elimination touches only
the entries that are there.  A Matrix holds one such dict per row.  Dense
lists appear only at the edges: Matrix(dense_rows) converts each row once,
and Matrix.row, Matrix.column, Matrix.apply and to_json return dense forms.

Pivoting always selects the first nonzero entry, the least key of a row, so
every reduced form is deterministic.  kernel() checks rank-nullity on every
call and minimal_polynomial() checks that the returned polynomial
annihilates its matrix; both are cheap relative to the elimination itself,
and both raise InvariantError rather than assert, so they survive python -O.
"""

from __future__ import annotations

from bisect import bisect, bisect_left

from .cyclotomic import ONE, ZERO, Cyclotomic, cyc_from_json


class InvariantError(RuntimeError):
    """A load-bearing internal invariant failed: the exact result at hand
    cannot be trusted, so the computation stops instead of reporting it."""


def sparse_of(coords) -> dict:
    """The nonzero entries of a coordinate sequence, keyed by index."""
    return {i: v for i, v in enumerate(coords) if v}


def _axpy(y: dict, f: Cyclotomic | None, x: dict) -> None:
    """y += f * x in place, for a nonzero f (None stands for 1); entries
    that cancel are removed."""
    for c, xc in x.items():
        if f is not None:
            xc = f * xc
        prev = y.get(c)
        if prev is None:
            y[c] = xc
        else:
            s = prev + xc
            if s:
                y[c] = s
            else:
                del y[c]


class Matrix:
    """Matrix over Q(zeta_N) with exact entries, held as sparse rows.

    Matrices never change their rows after construction, so operations may
    share row dicts between matrices (vstack does).
    """

    __slots__ = ("data", "nrows", "ncols")

    def __init__(self, rows: list[list[Cyclotomic]], ncols: int | None = None):
        self.nrows = len(rows)
        if self.nrows:
            self.ncols = len(rows[0])
            if any(len(r) != self.ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols
        self.data = [sparse_of(r) for r in rows]

    @classmethod
    def sparse(cls, rows: list[dict], ncols: int) -> Matrix:
        """The matrix whose rows are these zero-free dicts, adopted as they are."""
        m = cls.__new__(cls)
        m.data = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls.sparse([{i: ONE} for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> Matrix:
        return cls.sparse([{} for _ in range(nrows)], ncols)

    @classmethod
    def from_columns(cls, cols, nrows: int) -> Matrix:
        """The nrows x len(cols) matrix with these sparse columns."""
        rows: list[dict] = [{} for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, v in col.items():
                rows[i][j] = v
        return cls.sparse(rows, len(cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i].get(j, ZERO)

    def row(self, i: int) -> list[Cyclotomic]:
        r = self.data[i]
        return [r.get(j, ZERO) for j in range(self.ncols)]

    def column(self, j: int) -> list[Cyclotomic]:
        return [r.get(j, ZERO) for r in self.data]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __add__(self, other: Matrix) -> Matrix:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        rows = []
        for ra, rb in zip(self.data, other.data):
            r = dict(ra)
            _axpy(r, None, rb)
            rows.append(r)
        return Matrix.sparse(rows, self.ncols)

    def __sub__(self, other: Matrix) -> Matrix:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix subtraction")
        return self + -other

    def __neg__(self) -> Matrix:
        return Matrix.sparse([{j: -a for j, a in r.items()} for r in self.data], self.ncols)

    def scale(self, c: Cyclotomic) -> Matrix:
        if not c:
            return Matrix.zeros(self.nrows, self.ncols)
        return Matrix.sparse([{j: c * a for j, a in r.items()} for r in self.data], self.ncols)

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        brows = other.data
        rows = []
        for arow in self.data:
            out: dict = {}
            for k, aik in arow.items():
                _axpy(out, aik, brows[k])
            rows.append(out)
        return Matrix.sparse(rows, other.ncols)

    def apply(self, vec) -> list[Cyclotomic]:
        """M v for a dense vector v, as a dense list."""
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch in matrix-vector product")
        out = []
        for row in self.data:
            s = None
            for j, a in row.items():
                vj = vec[j]
                if vj:
                    s = a * vj if s is None else s + a * vj
            out.append(ZERO if s is None else s)
        return out

    def transpose(self) -> Matrix:
        rows: list[dict] = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.data):
            for j, v in r.items():
                rows[j][i] = v
        return Matrix.sparse(rows, self.nrows)

    @classmethod
    def vstack(cls, mats: list[Matrix]) -> Matrix:
        ncols = mats[0].ncols if mats else 0
        rows = []
        for m in mats:
            if m.ncols != ncols:
                raise ValueError("shape mismatch in vstack")
            rows.extend(m.data)
        return cls.sparse(rows, ncols)

    def is_zero(self) -> bool:
        return not any(self.data)

    def add_scalar_diag(self, c: Cyclotomic) -> Matrix:
        """self + c * identity (square only)."""
        if self.nrows != self.ncols:
            raise ValueError("square matrix required")
        rows = [dict(r) for r in self.data]
        if c:
            for i, r in enumerate(rows):
                _axpy(r, None, {i: c})
        return Matrix.sparse(rows, self.ncols)

    def to_json(self) -> dict:
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [[a.to_json() for a in self.row(i)] for i in range(self.nrows)],
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
    """Incrementally maintained reduced row echelon basis of a subspace.

    rows[k] is a sparse row whose pivot, pivots[k] = min(rows[k]), holds a
    one; pivots ascend, and no row has an entry in another row's pivot
    column.  by_pivot maps each pivot to its row.

    Because the rows are fully reduced, eliminating a vector against them
    subtracts exactly the rows whose pivots the vector holds, each times the
    vector's own entry there: no subtraction changes an entry in another
    pivot column.  reduce and coordinates visit only those rows, in
    ascending pivot order.
    """

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list[dict] = []
        self.pivots: list[int] = []
        self.by_pivot: dict[int, dict] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec after elimination against the basis (vec unchanged)."""
        v = dict(vec)
        for piv in sorted(c for c in vec if c in self.by_pivot):
            _axpy(v, -v[piv], self.by_pivot[piv])
        return v

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def add(self, vec: dict) -> bool:
        """Insert vec if independent; returns True when the dimension grew."""
        v = self.reduce(vec)
        if not v:
            return False
        piv = min(v)
        inv = v[piv].inverse()
        v = {c: x * inv for c, x in v.items()}
        # eliminate the new pivot from existing rows to stay fully reduced
        for row in self.rows:
            f = row.get(piv)
            if f is not None:
                _axpy(row, -f, v)
        pos = bisect(self.pivots, piv)
        self.rows.insert(pos, v)
        self.pivots.insert(pos, piv)
        self.by_pivot[piv] = v
        return True

    def coordinates(self, vec: dict):
        """Coordinates {row index: scalar} of vec in this basis, or None if
        vec lies outside the span."""
        coords = {}
        v = dict(vec)
        for piv in sorted(c for c in vec if c in self.by_pivot):
            f = v[piv]
            coords[bisect_left(self.pivots, piv)] = f
            _axpy(v, -f, self.by_pivot[piv])
        return None if v else coords


def rref(matrix: Matrix) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form; returns (nonzero sparse rows, pivot columns)."""
    basis = EchelonBasis(matrix.ncols)
    for r in matrix.data:
        basis.add(r)
    return basis.rows, basis.pivots


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1])


class Subspace:
    """A subspace of a coordinate space, held as its reduced echelon basis."""

    __slots__ = ("echelon",)

    def __init__(self, echelon: EchelonBasis):
        self.echelon = echelon

    @classmethod
    def from_vectors(cls, ambient: int, vectors) -> Subspace:
        eb = EchelonBasis(ambient)
        for v in vectors:
            _check_ambient(ambient, v)
            eb.add(v)
        return cls(eb)

    @classmethod
    def zero(cls, ambient: int) -> Subspace:
        return cls(EchelonBasis(ambient))

    @property
    def ambient(self) -> int:
        return self.echelon.ambient

    @property
    def basis(self) -> list[dict]:
        return self.echelon.rows

    @property
    def pivots(self) -> list[int]:
        return self.echelon.pivots

    @property
    def dim(self) -> int:
        return self.echelon.dim

    def contains(self, vec: dict) -> bool:
        _check_ambient(self.ambient, vec)
        return self.echelon.contains(vec)

    def contains_subspace(self, other: Subspace) -> bool:
        return all(self.contains(v) for v in other.basis)

    def coordinates(self, vec: dict):
        return self.echelon.coordinates(vec)

    def intersection(self, other: Subspace) -> Subspace:
        """Zassenhaus-free intersection via kernel of the stacked basis."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        if not self.basis or not other.basis:
            return Subspace.zero(self.ambient)
        ker = kernel(Matrix.from_columns(self.basis + other.basis, self.ambient))
        vecs = []
        for kv in ker.basis:
            vec: dict = {}
            for t, c in kv.items():
                if t < self.dim:
                    _axpy(vec, c, self.basis[t])
            vecs.append(vec)
        return Subspace.from_vectors(self.ambient, vecs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.pivots == other.pivots
            and self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient})"


def _check_ambient(ambient: int, vec: dict) -> None:
    if any(not 0 <= i < ambient for i in vec):
        raise ValueError("vector index outside the ambient dimension")


def kernel(matrix: Matrix) -> Subspace:
    """Null space {v : M v = 0}, canonical basis; checks rank-nullity."""
    rows, pivots = rref(matrix)
    n = matrix.ncols
    pivot_set = set(pivots)
    vecs = {f: {f: ONE} for f in range(n) if f not in pivot_set}
    # every entry of a reduced row off its pivot lies in a free column
    for row, p in zip(rows, pivots):
        for f, x in row.items():
            if f != p:
                vecs[f][p] = -x
    out = Subspace.from_vectors(n, vecs.values())
    if out.dim + len(pivots) != n:
        raise InvariantError(
            f"rank-nullity violated: kernel dim {out.dim} + rank {len(pivots)} != {n}"
        )
    return out


def solve(matrix: Matrix, rhs: dict) -> dict | None:
    """One solution x of M x = rhs (free variables set to 0), or None; rhs
    and x are sparse vectors."""
    _check_ambient(matrix.nrows, rhs)
    n = matrix.ncols
    aug = [dict(row) for row in matrix.data]
    for i, b in rhs.items():
        aug[i][n] = b
    rows, pivots = rref(Matrix.sparse(aug, n + 1))
    if n in pivots:
        return None
    return {p: row[n] for row, p in zip(rows, pivots) if n in row}


def invert_matrix(matrix: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    n = matrix.nrows
    if matrix.ncols != n:
        raise ValueError("square matrix required")
    aug = [{**row, n + i: ONE} for i, row in enumerate(matrix.data)]
    rows, pivots = rref(Matrix.sparse(aug, 2 * n))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix.sparse([{c - n: v for c, v in r.items() if c >= n} for r in rows], n)


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
        row = {i * n + j: x for i, r in enumerate(power.data) for j, x in r.items()}
        row[nn + k] = ONE
        residual = eb.reduce(row)
        if min(residual) >= nn:
            poly = [residual.get(nn + t, ZERO) for t in range(k + 1)]
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
