"""Finite-dimensional associative algebras given by structure constants.

A StructureAlgebra holds a rank-3 tensor c[i][j][k] (stored as sparse rows:
for each basis pair (i, j) a cell mapping k to a nonzero scalar) plus the
coordinates of the unit.  The constants are held once: every empty cell is
the one read-only EMPTY_CELL, and a cell handed to the constructor zero-free
at the algebra's order is kept as it is, not copied, so no one may mutate a
cell once it is handed over.  The double builders of doubles.py also share
equal scalars, one object per distinct value within a build.

Construction verifies the unit laws exactly (unit_failure) and
associativity in one of three regimes, chosen by the work an exact check
would take.  That work is exact_products(), the number of scalar products
associativity_failure makes over every basis triple: the sum over entries
c_ab^m of nnz(row m) + nnz(column m), where row m holds the cells c[m][k]
and column m the cells c[i][m].  It takes O(dim^2 + nnz) to count, and the
count stops once it passes EXACT_PRODUCTS_LIMIT.

  dim <= DEFAULT_EXHAUSTIVE_LIMIT (230) and at most EXACT_PRODUCTS_LIMIT
  (25,000) products   associativity_failure on every basis triple at which
                      either side has a term (exact_triples); the others
                      compare two empty sums.  taft(5) (8,750 products) and
                      the 27-dim blocks of the taft(3) double (1,852) are
                      checked here, in exact arithmetic.
  dim <= DEFAULT_EXHAUSTIVE_LIMIT (230), more products
                      the certificate (_assoc_modular): Light's test over a
                      generating set, in Python integers.  A greedy set S
                      of basis elements is certified to generate modulo a
                      prime; the triples (i, a, k) with e_a in S are then
                      compared modulo Phi_N(w) for an integer w large
                      enough that a congruence is an exact equality, which
                      proves associativity on every triple.  On a mismatch
                      every pair (i, j) is compared the same way and the
                      first failing triple re-checked exactly, so the
                      witness is the one the exact loop would report.
                      taft(7) (57,624 products, 2 generators), the 81-dim
                      doubles of taft(3) (12 and 15 generators), the
                      125-dim blocks of the taft(5) double (88,488) and
                      dense 16-dim algebras (about 10^5) are checked here.
  above               associativity_failure on the DEFAULT_SAMPLES triples
                      of sampled_triples(dim, DEFAULT_SAMPLES, DEFAULT_SEED).
                      This is evidence, not a proof: a sample can miss
                      the few triples that break.  The product count is
                      not computed here.

The cut was set where the exact check of a dense 16-dim algebra (about 10^5
products, 0.5-0.7 s) began to cost more than the certificate did with its
numpy and scipy imports (0.36-0.41 s).  The certificate is now far cheaper
(taft(5), dim 25: 0.002-0.003 s against 0.02-0.04 s exact, in one process),
so the cut is worth measuring again.

check= forces a regime ("pure", "modular", "sample") or skips it ("none");
"modular" names the certificate at any dim.
The D2.2 re-check of the twisted doubles (doubles.py) checks every triple
up to dim 24 and samples above it.

An AlgebraElement holds its terms, a dict {basis index: nonzero scalar}, and
every product goes through one sparse kernel, StructureAlgebra.mul_sparse,
which multiplies two such dicts and visits only the structure-constant cells
their supports select.  All higher operations (center, radical, subalgebras,
ideals, quotients, central splitting) hand the same dicts to the exact linear
algebra of linalg.  Dense coordinates remain only at the edges: the unit
tuple, element(coords), an element's coords view and the dense operands that
left_mult_matrix and right_mult_matrix still accept.
"""

from __future__ import annotations

import random
import types
from dataclasses import dataclass
from math import lcm

from .cyclotomic import ONE, ZERO, Cyclotomic, IntegerImage, cyclotomic_polynomial, phi_degree
from .linalg import (
    EchelonBasis,
    InvariantError,
    Matrix,
    Subspace,
    _axpy,
    dense_of,
    eigensplit,
    invert_matrix,
    kernel,
    solve,
    sparse_of,
)
from .report import CheckReport

# The most scalar products (exact_products) for which construction checks
# every basis triple exactly; above it the modular certificate runs.
EXACT_PRODUCTS_LIMIT = 25_000

# The certificate's generating set is certified modulo a prime below this
# ceiling, so that a product of two residues stays within a machine word.
GENERATION_PRIME_CEILING = 1 << 31

# Up to this dim construction proves associativity (exactly or with the
# certificate); above it, it samples.
DEFAULT_EXHAUSTIVE_LIMIT = 230
DEFAULT_SAMPLES = 10_000
DEFAULT_SEED = 20240801


# The one empty cell, shared by every empty product e_i e_j of every algebra;
# read-only, so that no caller can fill it for all of them at once.
EMPTY_CELL = types.MappingProxyType({})


def _own_cell(cell, order: int):
    """A nonempty cell as the algebra keeps it: cell itself when it is
    zero-free at order, else a zero-free copy lifted to order (EMPTY_CELL
    when that copy is empty)."""
    for v in cell.values():
        if v.order != order or not any(v.num):
            break
    else:
        return cell
    kept = {k: v if v.order == order else v.lift(order) for k, v in cell.items() if v}
    return kept or EMPTY_CELL


class AlgebraError(ValueError):
    pass


class AssociativityError(AlgebraError):
    def __init__(self, triple, message="associativity fails"):
        super().__init__(f"{message} at basis triple {triple}")
        self.triple = triple


class UnitLawError(AlgebraError):
    pass


class StructureAlgebra:
    """Associative unital algebra over Q(zeta_N) with exact structure constants."""

    def __init__(self, dim: int, rows, unit, *, name: str = "", check: str = "auto"):
        """Take ownership of rows: rows[i][j] is the cell {k: c[i][j][k]}.

        A nonempty cell that holds no zero and only scalars at the algebra's
        order (the lcm of all orders) is kept as it is, not copied; any other
        nonempty cell is replaced by a copy without zeros and with its scalars
        lifted, and every empty cell by EMPTY_CELL.  So a caller must not
        mutate its cells once it has handed them over, and no one may mutate
        the cells of a built algebra (copy a cell to change it, as a new
        algebra's input).
        """
        if dim < 0:
            raise ValueError("dim must be nonnegative")
        self.dim = dim
        self.name = name or f"algebra(dim {dim})"
        # one pass over the values; only a value of an order not yet seen is
        # tested for zero (a zero does not set the algebra's order)
        orders = {v.order for v in unit}
        for row in rows:
            for cell in row:
                if cell:
                    for v in cell.values():
                        if v.order not in orders and any(v.num):
                            orders.add(v.order)
        order = lcm(*orders) if orders else 1
        self.order = order
        self.rows = [
            [_own_cell(cell, order) if (cell := given[j]) else EMPTY_CELL for j in range(dim)]
            for given in (rows[i] for i in range(dim))
        ]
        self.unit = tuple(v if v.order == order else v.lift(order) for v in unit)
        if len(self.unit) != dim:
            raise ValueError("unit vector length must equal dim")
        self._zero = Cyclotomic.zero(order)
        self._one = Cyclotomic.one(order)
        self._unit_terms = sparse_of(self.unit)
        self._center: Subspace | None = None
        if dim:
            j = self.unit_failure()
            if j is not None:
                raise UnitLawError(f"unit law fails on basis element {j} of {self.name}")
            self._check_associativity(check)

    # -- construction checks ------------------------------------------------

    def unit_failure(self):
        """The first basis index j with 1 e_j != e_j or e_j 1 != e_j, or None."""
        unit = self._unit_terms
        for j in range(self.dim):
            e = self.basis_sparse(j)
            if self.mul_sparse(unit, e) != e or self.mul_sparse(e, unit) != e:
                return j
        return None

    def associativity_failure(self, triples):
        """The first basis triple (i, j, k) of triples, in their order, with
        (e_i e_j) e_k != e_i (e_j e_k), or None; each triple is checked exactly."""
        for i, j, k in triples:
            if not self._assoc_triple_exact(i, j, k):
                return (i, j, k)
        return None

    def algebra_map_failure(self, dst: "StructureAlgebra", cols):
        """The first basis pair (i, j), in row-major order, at which the linear
        map e_t -> cols[t] into dst is not multiplicative, that is
        sum_t c_ij^t cols[t] != cols[i] cols[j], or None; cols holds one
        sparse vector of dst per basis index of this algebra."""
        for i in range(self.dim):
            for j in range(self.dim):
                want: dict = {}
                for t, c in self.rows[i][j].items():
                    _axpy(want, c, cols[t])
                if dst.mul_sparse(cols[i], cols[j]) != want:
                    return (i, j)
        return None

    def _check_associativity(self, mode):
        if mode == "none":
            return
        n = self.dim
        if mode == "auto":
            if n > DEFAULT_EXHAUSTIVE_LIMIT:
                mode = "sample"
            elif self.exact_products(EXACT_PRODUCTS_LIMIT) <= EXACT_PRODUCTS_LIMIT:
                mode = "pure"
            else:
                mode = "modular"
        if mode == "pure":
            bad = self.associativity_failure(self.exact_triples())
        elif mode == "modular":
            bad = self._assoc_modular()
        elif mode == "sample":
            bad = self.associativity_failure(sampled_triples(n, DEFAULT_SAMPLES, DEFAULT_SEED))
        else:
            raise ValueError(f"unknown associativity check mode {mode!r}")
        if bad is not None:
            raise AssociativityError(bad, f"{self.name}: associativity fails")

    def exact_products(self, limit: int | None = None) -> int:
        """The scalar products associativity_failure makes over every basis
        triple: (e_i e_j) e_k makes one per c_ij^m c_mk^t and e_i (e_j e_k)
        one per c_jk^m c_im^t, so the count is the sum over entries c_ab^m
        of nnz(row m) + nnz(column m).  With limit, the sum stops once it
        passes limit and returns what it has by then."""
        rows = self.rows
        row_nnz = [0] * self.dim
        col_nnz = [0] * self.dim
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                if cell:
                    row_nnz[i] += len(cell)
                    col_nnz[j] += len(cell)
        weight = [r + c for r, c in zip(row_nnz, col_nnz)]
        total = 0
        for row in rows:
            for cell in row:
                for m in cell:
                    total += weight[m]
            if limit is not None and total > limit:
                break
        return total

    def exact_triples(self):
        """Every basis triple (i, j, k) at which (e_i e_j) e_k or e_i (e_j e_k)
        has a term, in row-major order; at any other triple both sides are
        empty sums.  There are at most exact_products() of them."""
        rows = self.rows
        # right[t]: the k with c[t][k] nonempty; hits[m]: the (j, k) with m in c[j][k]
        right = [[k for k, cell in enumerate(row) if cell] for row in rows]
        hits: list[list] = [[] for _ in range(self.dim)]
        for j, row in enumerate(rows):
            for k, cell in enumerate(row):
                for m in cell:
                    hits[m].append((j, k))
        for i, row in enumerate(rows):
            pairs = set()
            for m, cell in enumerate(row):
                if cell:
                    # e_i (e_j e_k) meets c[i][m] wherever m is in c[j][k]
                    pairs.update(hits[m])
                    # (e_i e_m) e_k meets c[t][k] for each t in c[i][m]
                    for t in cell:
                        pairs.update((m, k) for k in right[t])
            for j, k in sorted(pairs):
                yield i, j, k

    def _assoc_triple_exact(self, i: int, j: int, k: int) -> bool:
        lhs: dict[int, Cyclotomic] = {}
        for m, c in self.rows[i][j].items():
            for t, d in self.rows[m][k].items():
                prev = lhs.get(t)
                lhs[t] = c * d if prev is None else prev + c * d
        for m, c in self.rows[j][k].items():
            for t, d in self.rows[i][m].items():
                prev = lhs.get(t)
                lhs[t] = -(c * d) if prev is None else prev - c * d
        return all(not v for v in lhs.values())

    def _assoc_modular(self):
        """The first basis triple (i, j, k), in row-major order, with
        (e_i e_j) e_k != e_i (e_j e_k), or None: Light's associativity test
        over a generating set, in integers.

        T = {t : (x t) y = x (t y) for all x, y} is a subspace closed under
        products, whether or not the algebra is associative, and it holds
        the unit once the unit laws hold (the constructor checks them
        first).  So if every element of a generating set S lies in T, then
        T is the whole algebra, and only the triples (i, a, k) with e_a in S
        need comparing.  S is picked greedily from the basis and certified
        to generate modulo a prime (_light_generators).

        The triples are compared modulo M = Phi_N(w), w = B + 2, with zeta
        sent to w: zeta -> w is a ring map Z[zeta_N] -> Z/M.  With every
        constant scaled by the common denominator D, a coordinate x of an
        associator is a sum of at most 2 dim products of two scaled
        constants, so each conjugate of x is at most B = 2 dim H^2 in
        absolute value, H the largest sum of |coordinates| of a scaled
        constant.  A nonzero x then has a nonzero norm below
        B^phi(N) < (w - 1)^phi(N) <= M that x divides in Z[zeta_N], so x
        maps to 0 mod M only when x = 0: a mismatch mod M is exactly a
        mismatch over Q(zeta_N).  If a generator triple fails, every pair
        (i, j) is compared mod M in row-major order, the least failing k of
        the first failing pair is reported, and the exact check confirms it.
        """
        n, order = self.dim, self.order
        values = {}  # one entry per scalar object of the constants
        for row in self.rows:
            for cell in row:
                for v in cell.values():
                    values[id(v)] = v
        den = lcm(*{v.den for v in values.values()})
        height = max(sum(map(abs, v.num)) * (den // v.den) for v in values.values())
        bound = 2 * n * height * height
        w, modulus = _light_modulus(order, bound)
        if modulus <= bound ** phi_degree(order):
            raise InvariantError(f"{self.name}: the modulus {modulus} does not exceed the bound")
        image = IntegerImage(order, w, modulus, den)
        ints = {key: image(v) for key, v in values.items()}
        irows = [
            [{k: ints[id(v)] for k, v in cell.items()} if cell else EMPTY_CELL for cell in row]
            for row in self.rows
        ]
        # row_terms[m]: (k n + t, c_mk^t) over row m; col_terms[j]: (k n, m, c_jk^m)
        row_terms: dict[int, list] = {}
        col_terms: dict[int, list] = {}

        def failing(i: int, j: int) -> list[int]:
            """The k at which (e_i e_j) e_k and e_i (e_j e_k) differ mod M."""
            acc: dict[int, int] = {}
            get = acc.get
            for m, x in irows[i][j].items():
                terms = row_terms.get(m)
                if terms is None:
                    terms = row_terms[m] = [
                        (k * n + t, y) for k, cell in enumerate(irows[m]) for t, y in cell.items()
                    ]
                for key, y in terms:
                    acc[key] = get(key, 0) + x * y
            terms = col_terms.get(j)
            if terms is None:
                terms = col_terms[j] = [
                    (k * n, m, x) for k, cell in enumerate(irows[j]) for m, x in cell.items()
                ]
            rowi = irows[i]
            for base, m, x in terms:
                for t, y in rowi[m].items():
                    acc[base + t] = get(base + t, 0) - x * y
            return [key // n for key, s in acc.items() if s % modulus]

        if all(not failing(i, a) for a in _light_generators(self, den) for i in range(n)):
            return None
        for i in range(n):
            for j in range(n):
                bad = failing(i, j)
                if bad:
                    k = min(bad)
                    if self._assoc_triple_exact(i, j, k):
                        raise InvariantError(
                            f"{self.name}: triple {(i, j, k)} differs modulo {modulus} "
                            "but associates exactly"
                        )
                    return (i, j, k)
        raise InvariantError(f"{self.name}: a generator triple differs modulo {modulus}, no triple does")

    # -- element plumbing ------------------------------------------------

    def basis_sparse(self, i: int) -> dict:
        """Sparse coordinates of basis element i, its one at the algebra's order."""
        return {i: self._one}

    def element(self, coords) -> "AlgebraElement":
        """The element with these dense coordinates, one per basis index."""
        coords = [Cyclotomic.coerce(v) for v in coords]
        if len(coords) != self.dim:
            raise ValueError("coordinate length must equal dim")
        return AlgebraElement(self, sparse_of(coords))

    def from_dict(self, d: dict) -> "AlgebraElement":
        """The element sum d[k] e_k; zero values are dropped."""
        return AlgebraElement(self, {k: c for k, v in d.items() if (c := Cyclotomic.coerce(v))})

    def basis_element(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self, self.basis_sparse(i))

    def unit_element(self) -> "AlgebraElement":
        return AlgebraElement(self, self._unit_terms)

    def zero_element(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def basis_elements(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def mul_sparse(self, u: dict, v: dict) -> dict:
        """The product of two sparse coordinate dicts {index: scalar}.

        Only the cells c[i][j] with i in u and j in v are visited, and empty
        ones are skipped; the result holds no zero-valued keys.
        """
        rows = self.rows
        out: dict = {}
        for i, ci in u.items():
            rowi = rows[i]
            for j, cj in v.items():
                cell = rowi[j]
                if not cell:
                    continue
                f = ci * cj
                for k, ck in cell.items():
                    w = out.get(k)
                    out[k] = f * ck if w is None else w + f * ck
        return {k: w for k, w in out.items() if w}

    def multiply(self, a: "AlgebraElement", b: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self, self.mul_sparse(self._terms(a), self._terms(b)))

    def _terms(self, a: "AlgebraElement") -> dict:
        if a.algebra is not self:
            raise ValueError("elements belong to a different algebra")
        return a.terms

    def _operand(self, a) -> dict:
        """The terms of a, an element of this algebra or its dense coordinates."""
        return self._terms(a) if isinstance(a, AlgebraElement) else sparse_of(a)

    def left_mult_matrix(self, a) -> Matrix:
        """Matrix of v -> a*v in the basis (columns are a * e_j); a is an
        element of this algebra or its dense coordinates."""
        u = self._operand(a)
        n = self.dim
        return Matrix.from_columns([self.mul_sparse(u, self.basis_sparse(j)) for j in range(n)], n)

    def right_mult_matrix(self, a) -> Matrix:
        """Matrix of v -> v*a in the basis (columns are e_j * a); a is an
        element of this algebra or its dense coordinates."""
        u = self._operand(a)
        n = self.dim
        return Matrix.from_columns([self.mul_sparse(self.basis_sparse(j), u) for j in range(n)], n)

    def structure_entry(self, i: int, j: int, k: int) -> Cyclotomic:
        return self.rows[i][j].get(k, self._zero)

    def same_structure(self, other: "StructureAlgebra") -> bool:
        return self.unit == other.unit and self.rows == other.rows

    def is_commutative(self) -> bool:
        return all(
            self.rows[i][j] == self.rows[j][i] for i in range(self.dim) for j in range(i)
        )

    def __repr__(self) -> str:
        return f"StructureAlgebra({self.name}, dim {self.dim})"

    # -- subspaces of interest ------------------------------------------------

    def center(self) -> Subspace:
        """Kernel of all commutator maps v -> e_j v - v e_j, computed on the
        first call and kept, since a built algebra's constants never change;
        every caller gets the same Subspace, so none may change it."""
        if self._center is None:
            n = self.dim
            if n == 0:
                self._center = Subspace.zero(0)
            else:
                blocks = []
                for j in range(n):
                    ej = self.basis_element(j)
                    blocks.append(self.left_mult_matrix(ej) - self.right_mult_matrix(ej))
                self._center = kernel(Matrix.vstack(blocks))
        return self._center

    def radical(self) -> Subspace:
        """Jacobson radical via the trace-form criterion (characteristic zero)."""
        n = self.dim
        if n == 0:
            return Subspace.zero(0)
        zero = ZERO
        tr = [zero] * n
        for k in range(n):
            t = zero
            for m in range(n):
                t = t + self.rows[k][m].get(m, zero)
            tr[k] = t
        gram = []
        for i in range(n):
            grow = []
            for j in range(n):
                s = zero
                for k, c in self.rows[i][j].items():
                    if tr[k]:
                        s = s + c * tr[k]
                grow.append(s)
            gram.append(grow)
        return kernel(Matrix(gram, ncols=n))

    def subalgebra_generated(self, gens) -> Subspace:
        """Smallest unital subalgebra containing gens (closure to a fixed point)."""
        eb = EchelonBasis(self.dim)
        unit = self._unit_terms
        eb.add(unit)
        gvecs = [self._terms(g) for g in gens]
        frontier = [unit]
        while frontier:
            new = []
            for v in frontier:
                for g in gvecs:
                    w = self.mul_sparse(v, g)
                    if eb.add(w):
                        new.append(w)
            frontier = new
        return Subspace(eb)

    def ideal_generated(self, gens) -> Subspace:
        """Two-sided ideal generated by gens: the closure of their span under
        multiplication by every basis element on either side."""
        n = self.dim
        mults = [self.basis_sparse(i) for i in range(n)]
        eb = EchelonBasis(n)
        frontier = []
        for g in gens:
            v = self._terms(g)
            if eb.add(v):
                frontier.append(v)
        while frontier:
            new = []
            for v in frontier:
                for m in mults:
                    for w in (self.mul_sparse(m, v), self.mul_sparse(v, m)):
                        if eb.add(w):
                            new.append(w)
            frontier = new
        return Subspace(eb)

    def quotient(self, gens) -> "QuotientResult":
        """Quotient by the two-sided ideal generated by gens.

        The complement basis is the lexicographically earliest subset of the
        original basis that is independent modulo the ideal.  The ideal is a
        fixed point under multiplication by the whole basis, so the projection
        is an algebra map by construction; for parents up to dim 32 that is
        also checked on every basis pair (algebra_map_failure).
        """
        n = self.dim
        ideal = self.ideal_generated(gens)
        eb = EchelonBasis(n)
        for row in ideal.basis:
            eb.add(row)
        chosen = [i for i in range(n) if eb.add({i: ONE})]
        q = len(chosen)
        if q == 0:
            algebra = StructureAlgebra(0, [], (), name=f"{self.name}/ideal")
            return QuotientResult(algebra, Matrix([], ncols=n), tuple(), ideal)
        # base-change matrix: columns are chosen representatives then ideal basis
        try:
            binv = invert_matrix(Matrix.from_columns([{i: ONE} for i in chosen] + ideal.basis, n))
        except ValueError as exc:
            raise AlgebraError(str(exc)) from exc
        proj = Matrix.sparse(binv.data[:q], n)
        # column j of the projection, as a sparse vector of the quotient
        pcols = proj.transpose().data

        def project(vec: dict) -> dict:
            out: dict = {}
            for j, vj in vec.items():
                _axpy(out, vj, pcols[j])
            return out

        rows = [[project(self.rows[a][b]) for b in chosen] for a in chosen]
        unit_q = project(self._unit_terms)
        algebra = StructureAlgebra(
            q, rows, dense_of(unit_q, q),
            name=f"{self.name}/ideal", check="auto",
        )
        if n <= 32:
            bad = self.algebra_map_failure(algebra, pcols)
            if bad is not None:
                raise InvariantError(f"quotient projection is not an algebra map at {bad}")
        return QuotientResult(algebra, proj, tuple(chosen), ideal)

    def inverse_element(self, a: "AlgebraElement"):
        """Two-sided inverse of a, or None.  Verifies both product orders."""
        unit = self._unit_terms
        x = solve(self.left_mult_matrix(a), unit)
        if x is None or self.mul_sparse(x, a.terms) != unit:
            return None
        return AlgebraElement(self, x)

    def is_central(self, a: "AlgebraElement") -> bool:
        u = self._terms(a)
        for i in range(self.dim):
            e = self.basis_sparse(i)
            if self.mul_sparse(u, e) != self.mul_sparse(e, u):
                return False
        return True

    def central_eigensplit(self, z: "AlgebraElement", candidates) -> list["CentralBlock"]:
        """Split along a central element acting with the given eigenvalues.

        Requires z central and the candidate list to exhaust the spectrum;
        raises AlgebraError otherwise.  Cross-block products vanish because z
        is central and acts by distinct scalars; the direct-sum reassembly is
        compared against the original tensor explicitly for small dims.
        """
        if not self.is_central(z):
            raise AlgebraError(f"{self.name}: element is not central")
        lz = self.left_mult_matrix(z)
        spaces, complete = eigensplit(lz, candidates)
        if not complete:
            raise AlgebraError(
                f"{self.name}: candidate eigenvalues do not split the algebra"
            )
        eigs = [lam for lam, _ in spaces]
        zs = z.terms
        blocks = []
        for lam, space in spaces:
            # Lagrange idempotent for this eigenvalue
            idem = self._unit_terms
            for mu in eigs:
                if mu == lam:
                    continue
                factor = (lam - mu).inverse()
                shifted = self.mul_sparse(idem, zs)
                _axpy(shifted, -mu, idem)
                idem = {t: w * factor for t, w in shifted.items()}
            unit_coords = space.coordinates(idem)
            if unit_coords is None:
                raise InvariantError("idempotent escapes its eigenspace")
            d = space.dim
            basis = space.basis
            rows = []
            for a in range(d):
                arow = []
                for b in range(d):
                    coords = space.coordinates(self.mul_sparse(basis[a], basis[b]))
                    if coords is None:
                        raise InvariantError("block product escapes the block")
                    arow.append(coords)
                rows.append(arow)
            algebra = StructureAlgebra(
                d,
                rows,
                dense_of(unit_coords, d),
                name=f"{self.name}[z={lam.pretty()}]",
                check="auto",
            )
            blocks.append(CentralBlock(lam, algebra, space, self, idem))
        if self.dim <= 32:
            self._verify_reassembly(blocks)
        return blocks

    def _verify_reassembly(self, blocks):
        n = self.dim
        offsets = []
        off = 0
        for blk in blocks:
            offsets.append(off)
            off += blk.algebra.dim
        if off != n:
            raise InvariantError("block dimensions do not add up to the algebra's")
        vectors = [row for blk in blocks for row in blk.space.basis]
        if Subspace.from_vectors(n, vectors).dim != n:
            raise InvariantError("block bases do not span")
        for ai, arow in enumerate(vectors):
            for bi, brow in enumerate(vectors):
                w = self.mul_sparse(arow, brow)
                blk_a = _block_index(offsets, ai)
                blk_b = _block_index(offsets, bi)
                if blk_a != blk_b:
                    if w:
                        raise InvariantError("cross-block product must vanish")
                else:
                    blk = blocks[blk_a]
                    coords = blk.space.coordinates(w)
                    if coords is None:
                        raise InvariantError("block product escapes the block")
                    la, lb = ai - offsets[blk_a], bi - offsets[blk_b]
                    if blk.algebra.rows[la][lb] != coords:
                        raise InvariantError("direct sum does not reassemble the algebra")

    def check_presentation(self, assignment: dict, relations, check_id="presentation") -> CheckReport:
        """Evaluate free-algebra relations at the assignment; report results.

        Passing requires every relation to evaluate to zero and the assigned
        elements to generate the whole algebra.  A generator whose formal
        inverse is demanded but which is not invertible yields status
        precondition-failed.
        """
        witnesses: dict = {"relations": [], "dim": self.dim}
        try:
            results = []
            for rel in relations:
                value = rel.evaluate(assignment, self)
                holds = value.is_zero()
                results.append((rel, holds, value))
                witnesses["relations"].append(
                    {
                        "expr": repr(rel),
                        "holds": holds,
                        "residual_support": value.support(),
                    }
                )
        except NotInvertibleError as exc:
            witnesses["precondition"] = str(exc)
            return CheckReport(check_id, "precondition-failed", witnesses)
        span = self.subalgebra_generated(list(assignment.values()))
        witnesses["generated_dim"] = span.dim
        ok = all(h for _, h, _ in results) and span.dim == self.dim
        return CheckReport(check_id, "pass" if ok else "fail", witnesses)


def sampled_triples(n: int, samples: int, seed: int) -> list[tuple[int, int, int]]:
    """samples basis triples (i, j, k) of range(n), drawn from random.Random(seed)."""
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(samples)]


def _block_index(offsets, i):
    for t in range(len(offsets) - 1, -1, -1):
        if i >= offsets[t]:
            return t
    raise IndexError


@dataclass
class QuotientResult:
    algebra: StructureAlgebra
    projection: Matrix  # quotient-dim x parent-dim
    complement: tuple  # indices of parent basis vectors representing the quotient
    ideal: Subspace

    def project(self, element: "AlgebraElement") -> "AlgebraElement":
        cols = self.projection.transpose().data
        out: dict = {}
        for j, c in element.terms.items():
            _axpy(out, c, cols[j])
        return AlgebraElement(self.algebra, out)


@dataclass
class CentralBlock:
    eigenvalue: Cyclotomic
    algebra: StructureAlgebra
    space: Subspace  # block as a subspace of the parent
    parent: StructureAlgebra
    idempotent: dict  # terms in the parent

    def project(self, element: "AlgebraElement") -> "AlgebraElement":
        comp = self.parent.mul_sparse(self.idempotent, element.terms)
        coords = self.space.coordinates(comp)
        if coords is None:
            raise InvariantError("projected component escapes the block")
        return AlgebraElement(self.algebra, coords)

    def embed(self, element: "AlgebraElement"):
        vec: dict = {}
        for t, c in element.terms.items():
            _axpy(vec, c, self.space.basis[t])
        return AlgebraElement(self.parent, vec)


class AlgebraElement:
    """An element of a StructureAlgebra, held as its terms {basis index:
    nonzero scalar}: no zero is stored, and the dict, which elements may
    share, is never mutated.  support and pretty read it in index order."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: StructureAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    @property
    def coords(self) -> tuple:
        """Dense coordinates in index order, made on demand."""
        return dense_of(self.terms, self.algebra.dim)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same(other)
        terms = dict(self.terms)
        _axpy(terms, None, other.terms)
        return AlgebraElement(self.algebra, terms)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + -other

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.multiply(self, other)
        c = Cyclotomic.coerce(other)
        return AlgebraElement(self.algebra, {k: c * v for k, v in self.terms.items()} if c else {})

    # a scalar times an element; an element on the left is handled by __mul__
    __rmul__ = __mul__

    def __pow__(self, k: int) -> "AlgebraElement":
        if k < 0:
            inv = self.algebra.inverse_element(self)
            if inv is None:
                raise NotInvertibleError("negative power of a non-invertible element")
            return inv ** (-k)
        out = self.algebra.unit_element()
        cur = self
        while k:
            if k & 1:
                out = out * cur
            cur = cur * cur
            k >>= 1
        return out

    def commutator(self, other: "AlgebraElement") -> "AlgebraElement":
        return self * other - other * self

    def inverse(self) -> "AlgebraElement":
        inv = self.algebra.inverse_element(self)
        if inv is None:
            raise NotInvertibleError("element is not invertible")
        return inv

    def _same(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different algebras")

    def support(self):
        return sorted(self.terms)

    def pretty(self) -> str:
        parts = [f"{self.terms[k].pretty()}*e{k}" for k in sorted(self.terms)]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<{self.pretty()} in {self.algebra.name}>"


class NotInvertibleError(AlgebraError):
    pass


# -- free expressions for presentation checking ------------------------------


class FreeExpr:
    """Formal expression in named generators; inverses only on generators."""

    def __add__(self, other):
        return _FSum([self, _as_expr(other)])

    def __radd__(self, other):
        return _FSum([_as_expr(other), self])

    def __sub__(self, other):
        return _FSum([self, _FScale(Cyclotomic.from_int(-1), _as_expr(other))])

    def __rsub__(self, other):
        return _FSum([_as_expr(other), _FScale(Cyclotomic.from_int(-1), self)])

    def __neg__(self):
        return _FScale(Cyclotomic.from_int(-1), self)

    def __mul__(self, other):
        if isinstance(other, FreeExpr):
            return _FProd([self, other])
        return _FScale(Cyclotomic.coerce(other), self)

    def __rmul__(self, other):
        return _FScale(Cyclotomic.coerce(other), self)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("free expressions support only nonnegative integer powers")
        return _FPow(self, k)

    def evaluate(self, assignment: dict, algebra: StructureAlgebra) -> AlgebraElement:
        raise NotImplementedError


class FreeGen(FreeExpr):
    def __init__(self, name: str):
        self.name = name

    @property
    def inv(self) -> "FreeExpr":
        return _FGenInv(self.name)

    def evaluate(self, assignment, algebra):
        return assignment[self.name]

    def __repr__(self):
        return self.name


class _FGenInv(FreeExpr):
    def __init__(self, name: str):
        self.name = name

    def evaluate(self, assignment, algebra):
        inv = algebra.inverse_element(assignment[self.name])
        if inv is None:
            raise NotInvertibleError(f"generator {self.name} is not invertible")
        return inv

    def __repr__(self):
        return f"{self.name}^-1"


class _FConst(FreeExpr):
    def __init__(self, value: Cyclotomic):
        self.value = value

    def evaluate(self, assignment, algebra):
        return algebra.unit_element() * self.value

    def __repr__(self):
        return f"({self.value.pretty()})"


class _FSum(FreeExpr):
    def __init__(self, terms):
        self.terms = list(terms)

    def evaluate(self, assignment, algebra):
        out = algebra.zero_element()
        for t in self.terms:
            out = out + t.evaluate(assignment, algebra)
        return out

    def __repr__(self):
        return " + ".join(repr(t) for t in self.terms)


class _FProd(FreeExpr):
    def __init__(self, factors):
        self.factors = list(factors)

    def evaluate(self, assignment, algebra):
        out = algebra.unit_element()
        for f in self.factors:
            out = out * f.evaluate(assignment, algebra)
        return out

    def __repr__(self):
        return "*".join(_paren(f) for f in self.factors)


class _FScale(FreeExpr):
    def __init__(self, scalar: Cyclotomic, expr: FreeExpr):
        self.scalar = scalar
        self.expr = expr

    def evaluate(self, assignment, algebra):
        return self.expr.evaluate(assignment, algebra) * self.scalar

    def __repr__(self):
        return f"({self.scalar.pretty()})*{_paren(self.expr)}"


class _FPow(FreeExpr):
    def __init__(self, base: FreeExpr, k: int):
        self.base = base
        self.k = k

    def evaluate(self, assignment, algebra):
        return self.base.evaluate(assignment, algebra) ** self.k

    def __repr__(self):
        return f"{_paren(self.base)}^{self.k}"


def _paren(e: FreeExpr) -> str:
    s = repr(e)
    return s if isinstance(e, (FreeGen, _FGenInv, _FPow)) else f"({s})"


def _as_expr(x) -> FreeExpr:
    if isinstance(x, FreeExpr):
        return x
    return _FConst(Cyclotomic.coerce(x))


def gen(name: str) -> FreeGen:
    return FreeGen(name)


# -- modular helpers ------------------------------------------------


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _light_modulus(order: int, bound: int) -> tuple[int, int]:
    """(w, M) with w = bound + 2 and M = Phi_order(w), so that zeta -> w is a
    ring map Z[zeta_order] -> Z/M and M >= (w - 1)^phi(order) > bound^phi(order):
    each of the phi(order) factors w - zeta' of M is at least w - 1 in
    absolute value."""
    w = bound + 2
    return w, sum(c * w**s for s, c in enumerate(cyclotomic_polynomial(order)))


def _generation_prime(order: int, den: int) -> int:
    """The largest prime p < GENERATION_PRIME_CEILING with p = 1 mod order
    that does not divide den."""
    p = ((GENERATION_PRIME_CEILING - 2) // order) * order + 1
    while not (_is_probable_prime(p) and den % p):
        p -= order
    return p


def _light_generators(alg: StructureAlgebra, den: int) -> list[int]:
    """Basis indices a, in increasing order, whose e_a generate alg: e_a is
    taken whenever it is not yet in the span, which is the closure of the
    span of the unit under left multiplication by the e_a taken so far.

    The span is computed modulo a prime p = 1 mod N that divides neither
    den (a common denominator of the constants) nor the unit's denominators,
    with zeta sent to a primitive N-th root r mod p.  Every vector it holds
    is the image of a word s_1 (s_2 (... (s_k 1))) in the scaled constants,
    which lie in Z[zeta_N]; if n of them are independent mod p, their
    determinant is nonzero modulo a prime of Z[zeta_N] over p, so nonzero,
    and the words span the algebra.  The closure reaches full rank whenever
    the unit laws hold (e_a 1 = e_a); otherwise InvariantError is raised.
    """
    n, order = alg.dim, alg.order
    unit_den = lcm(*(u.den for u in alg.unit))
    p = _generation_prime(order, den * unit_den)
    r = _root_mod(order, p)
    image = IntegerImage(order, r, p, den)
    unit_image = IntegerImage(order, r, p, unit_den)
    # the span, fully reduced: pivot column -> the row's other entries (its
    # entry at the pivot is 1, and it is 0 at every other pivot column)
    pivots: dict[int, dict] = {}

    def reduce(v: dict) -> dict:
        for c in [c for c in v if c in pivots]:
            f = v.pop(c)
            for k, y in pivots[c].items():
                s = (v.get(k, 0) - f * y) % p
                if s:
                    v[k] = s
                else:
                    del v[k]
        return v

    def absorb(v: dict) -> bool:
        """Add v to the span; False when it is already there."""
        v = reduce(dict(v))
        if not v:
            return False
        c = min(v)
        inv = pow(v.pop(c), -1, p)
        new = {k: y * inv % p for k, y in v.items()}
        for row in pivots.values():
            f = row.pop(c, 0)
            if f:
                for k, y in new.items():
                    s = (row.get(k, 0) - f * y) % p
                    if s:
                        row[k] = s
                    else:
                        del row[k]
        pivots[c] = new
        return True

    def left(gen_row: list, v: dict) -> dict:
        out: dict = {}
        for j, x in v.items():
            for k, y in gen_row[j].items():
                out[k] = out.get(k, 0) + x * y
        return {k: y for k, s in out.items() if (y := s % p)}

    unit = {j: x for j, u in enumerate(alg.unit) if (x := unit_image(u))}
    words = [unit] if absorb(unit) else []
    gens: list[int] = []
    gen_rows: list[list] = []
    for a in range(n):
        if len(pivots) == n:
            break
        if not reduce({a: 1}):
            continue
        gens.append(a)
        gen_row = [{k: image(v) for k, v in cell.items()} for cell in alg.rows[a]]
        gen_rows.append(gen_row)
        work = [(gen_row, v) for v in words]
        while work:
            g, v = work.pop()
            u = left(g, v)
            if absorb(u):
                words.append(u)
                work.extend((h, u) for h in gen_rows)
    if len(pivots) != n:
        raise InvariantError(
            f"{alg.name}: the closure of the unit has rank {len(pivots)} of {n} modulo {p}"
        )
    return gens


def _root_mod(order: int, p: int) -> int:
    """An element of exact multiplicative order `order` mod prime p."""
    if order == 1:
        return 1
    fac = []
    n = order
    d = 2
    while d * d <= n:
        if n % d == 0:
            fac.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        fac.append(n)
    for a in range(2, p):
        w = pow(a, (p - 1) // order, p)
        if w == 1:
            continue
        if all(pow(w, order // q, p) != 1 for q in fac):
            return w
    raise RuntimeError("no root of unity found (is p = 1 mod order?)")
