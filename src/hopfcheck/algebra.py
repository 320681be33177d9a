"""Finite-dimensional associative algebras given by structure constants.

A StructureAlgebra holds a rank-3 tensor c[i][j][k] (stored as sparse rows:
for each basis pair (i, j) a cell mapping k to a nonzero scalar) plus the
coordinates of the unit.  The constants are held once: every empty cell is
the one read-only EMPTY_CELL, and a cell handed to the constructor zero-free
at the algebra's order is kept as it is, not copied, so no one may mutate a
cell once it is handed over.  The double builders of doubles.py also share
equal scalars, one object per distinct value within a build.

Construction verifies the unit laws exactly (unit_failure) and
associativity in one of three regimes, by size:

  dim <= DEFAULT_PURE_LIMIT (24)  associativity_failure on every basis triple
  dim <= DEFAULT_EXHAUSTIVE_LIMIT (MODULAR_LIMIT, 230)
                           modular certificate, still covering all triples:
                           denominators are cleared (associativity is
                           homogeneous under scaling, so truth is preserved
                           both ways), the integer tensors are evaluated at
                           every primitive N-th root of unity modulo several
                           primes P = 1 mod N, and both association orders are
                           compared via sparse integer matrix products.  An
                           explicit height bound on the difference tensor
                           makes the congruences a proof of exact equality;
                           any mismatch is re-checked exactly for a witness.
                           Its int64 sums are exact only up to MODULAR_LIMIT;
                           above it the certificate refuses to run.
                           The products are formed for a block of first
                           indices at a time, so their memory is bounded.
  above                    associativity_failure on the DEFAULT_SAMPLES triples
                           of sampled_triples(dim, DEFAULT_SAMPLES, DEFAULT_SEED).
                           This is evidence, not a proof: a sample can miss
                           the few triples that break.

check= forces a regime ("pure", "modular", "sample") or skips it ("none").
The D2.2 re-check of the twisted doubles uses the same two methods.

Every product in the algebra goes through one sparse kernel,
StructureAlgebra.mul_sparse, which multiplies coordinate dicts {index: nonzero
scalar} and visits only the structure-constant cells their supports select;
mul_coords is its dense wrapper for AlgebraElement coordinates.  All higher
operations (center, radical, subalgebras, ideals, quotients, central
splitting) hand the same sparse dicts to the exact linear algebra of linalg,
which keeps its vectors and matrix rows in that form.
"""

from __future__ import annotations

import itertools
import random
import types
from dataclasses import dataclass
from math import gcd, lcm

from .cyclotomic import ONE, ZERO, Cyclotomic, phi_degree, reduction_expansion_bound
from .linalg import (
    EchelonBasis,
    InvariantError,
    Matrix,
    Subspace,
    _axpy,
    eigensplit,
    invert_matrix,
    kernel,
    solve,
    sparse_of,
)
from .report import CheckReport

# The modular certificate works with primes P < PRIME_CEILING and sums up to
# n products, each below P^2, in int64; MODULAR_LIMIT is the largest n for
# which such a sum cannot overflow (230).
PRIME_CEILING = 200_000_000
MODULAR_LIMIT = (2**63 - 1) // PRIME_CEILING**2

# The certificate compares the two sides of associativity on one block of
# first indices i at a time, each block's products bounded by about this many
# nonzeros (or a single i, at most dim^3 of them); this bounds its memory by
# that of a block instead of the dim^4 of a dense algebra's whole products.
CERT_BLOCK_ENTRIES = 1 << 20

DEFAULT_PURE_LIMIT = 24
DEFAULT_EXHAUSTIVE_LIMIT = MODULAR_LIMIT
DEFAULT_SAMPLES = 10_000
DEFAULT_SEED = 20240801


# The one empty cell, shared by every empty product e_i e_j of every algebra;
# read-only, so that no caller can fill it for all of them at once.
EMPTY_CELL = types.MappingProxyType({})


def _own_cell(cell, order: int):
    """cell as the algebra keeps it: EMPTY_CELL when empty, cell itself when it
    is zero-free at order, else a zero-free copy lifted to order."""
    if not cell:
        return EMPTY_CELL
    if all(v.order == order and v for v in cell.values()):
        return cell
    kept = {k: v if v.order == order else v.lift(order) for k, v in cell.items() if v}
    return kept or EMPTY_CELL


class AlgebraError(ValueError):
    pass


class ModularOverflowError(RuntimeError):
    """The modular certificate was asked to run where its int64 sums could
    overflow (dim above MODULAR_LIMIT); it refuses rather than wrap."""


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
        orders = {v.order for row in rows for cell in row if cell for v in cell.values() if v}
        orders.update(v.order for v in unit)
        order = lcm(*orders) if orders else 1
        self.order = order
        self.rows = [[_own_cell(rows[i][j], order) for j in range(dim)] for i in range(dim)]
        self.unit = tuple(v if v.order == order else v.lift(order) for v in unit)
        if len(self.unit) != dim:
            raise ValueError("unit vector length must equal dim")
        self._zero = Cyclotomic.zero(order)
        self._one = Cyclotomic.one(order)
        if dim:
            j = self.unit_failure()
            if j is not None:
                raise UnitLawError(f"unit law fails on basis element {j} of {self.name}")
            self._check_associativity(check)

    # -- construction checks ------------------------------------------------

    def unit_failure(self):
        """The first basis index j with 1 e_j != e_j or e_j 1 != e_j, or None."""
        unit = sparse_of(self.unit)
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

    def _check_associativity(self, mode):
        if mode == "none":
            return
        n = self.dim
        if mode == "auto":
            if n <= DEFAULT_PURE_LIMIT:
                mode = "pure"
            elif n <= DEFAULT_EXHAUSTIVE_LIMIT:
                mode = "modular"
            else:
                mode = "sample"
        if mode == "pure":
            bad = self.associativity_failure(itertools.product(range(n), repeat=3))
        elif mode == "modular":
            bad = self._assoc_modular()
        elif mode == "sample":
            bad = self.associativity_failure(sampled_triples(n, DEFAULT_SAMPLES, DEFAULT_SEED))
        else:
            raise ValueError(f"unknown associativity check mode {mode!r}")
        if bad is not None:
            raise AssociativityError(bad, f"{self.name}: associativity fails")

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
        # loaded on first use, so that importing hopfcheck does not load them
        import numpy as np
        from scipy import sparse

        n = self.dim
        if n > MODULAR_LIMIT:
            raise ModularOverflowError(
                f"{self.name}: the modular certificate is exact only up to dim "
                f"{MODULAR_LIMIT}, got {n}"
            )
        order = self.order
        deg = phi_degree(order)
        den_all = 1
        for i in range(n):
            for j in range(n):
                for v in self.rows[i][j].values():
                    den_all = lcm(den_all, v.den)
        entries = []  # (i, j, k, scaled integer coordinate vector)
        height = 1
        for i in range(n):
            for j in range(n):
                for k, v in self.rows[i][j].items():
                    f = den_all // v.den
                    vec = tuple(c * f for c in v.num)
                    entries.append((i, j, k, vec))
                    height = max(height, max(abs(c) for c in vec))
        rho = reduction_expansion_bound(order)
        bound = 2 * n * rho * height * height
        primes = _primes_for(order, bound)
        factors = [f for f in range(1, order + 1) if gcd(f, order) == 1][:deg]
        ivec = np.array([e[0] for e in entries], dtype=np.int64)
        jvec = np.array([e[1] for e in entries], dtype=np.int64)
        kvec = np.array([e[2] for e in entries], dtype=np.int64)
        # The two sides are compared on the rows (i, j) of one block of i at a
        # time.  cost[i] bounds the nonzeros that i adds to the two products:
        # row (i, j) of t1 has at most sum_m nnz(c2 row m) over c[i][j][m] != 0,
        # and column block i of t2 at most sum_m nnz(c1 column m) over
        # c[i][m][l] != 0.
        first = np.bincount(ivec, minlength=n)
        third = np.bincount(kvec, minlength=n)
        cost = np.bincount(ivec, weights=first[kvec] + third[jvec], minlength=n)
        blocks = _blocks(cost, CERT_BLOCK_ENTRIES)
        for p in primes:
            w = _root_mod(order, p)
            for e in factors:
                we = pow(w, e, p)
                wp = [pow(we, t, p) for t in range(deg)]
                data = np.empty(len(entries), dtype=np.int64)
                for t, (i, j, k, vec) in enumerate(entries):
                    val = 0
                    for s, cc in enumerate(vec):
                        if cc:
                            val += cc * wp[s]
                    data[t] = val % p
                # c1[(i,j), m] = c[i][j][m]; c2[m, (k,l)] = c[m][k][l];
                # e2[m, (i,l)] = c[i][m][l]  (all built from the one entry list)
                c1 = sparse.csr_matrix(
                    (data, (ivec * n + jvec, kvec)), shape=(n * n, n), dtype=np.int64
                )
                c2 = sparse.csr_matrix(
                    (data, (ivec, jvec * n + kvec)), shape=(n, n * n), dtype=np.int64
                )
                e2 = sparse.csc_matrix(
                    (data, (jvec, ivec * n + kvec)), shape=(n, n * n), dtype=np.int64
                )
                for i0, i1 in blocks:
                    # [(i,j), (k,l)] = sum_m c[i,j,m] c[m,k,l], i in the block
                    t1 = c1[i0 * n : i1 * n] @ c2
                    # [(j,k), (i,l)] = sum_m c[j,k,m] c[i,m,l], i in the block
                    t2 = (c1 @ e2[:, i0 * n : i1 * n]).tocoo()
                    i2 = t2.col // n
                    l2 = t2.col % n
                    j2 = t2.row // n
                    k2 = t2.row % n
                    t2a = sparse.csr_matrix(
                        (t2.data, (i2 * n + j2, k2 * n + l2)),
                        shape=((i1 - i0) * n, n * n),
                        dtype=np.int64,
                    )
                    diff = t1 - t2a
                    if diff.nnz:
                        diff.data %= p
                        diff.eliminate_zeros()
                    if diff.nnz:
                        dc = diff.tocoo()
                        pos = int(np.lexsort((dc.col, dc.row))[0])
                        i0r, j0 = divmod(int(dc.row[pos]), n)
                        k0 = int(dc.col[pos]) // n
                        if not self._assoc_triple_exact(i0 + i0r, j0, k0):
                            return (i0 + i0r, j0, k0)
                        # congruence noise cannot happen: a mod-p mismatch is exact
                        raise AssertionError("modular mismatch without exact witness")
        return None

    # -- element plumbing ------------------------------------------------

    def _basis_coords(self, i: int):
        coords = [ZERO] * self.dim
        coords[i] = ONE
        return tuple(coords)

    def basis_sparse(self, i: int) -> dict:
        """Sparse coordinates of basis element i, its one at the algebra's order."""
        return {i: self._one}

    def element(self, coords) -> "AlgebraElement":
        coords = tuple(Cyclotomic.coerce(v) for v in coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate length must equal dim")
        return AlgebraElement(self, coords)

    def from_dict(self, d: dict) -> "AlgebraElement":
        coords = [ZERO] * self.dim
        for k, v in d.items():
            coords[k] = Cyclotomic.coerce(v)
        return AlgebraElement(self, tuple(coords))

    def basis_element(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self, self._basis_coords(i))

    def unit_element(self) -> "AlgebraElement":
        return AlgebraElement(self, self.unit)

    def zero_element(self) -> "AlgebraElement":
        return AlgebraElement(self, (self._zero,) * self.dim)

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

    def mul_coords(self, a, b):
        """Dense form of mul_sparse: coordinate sequences in, a tuple out."""
        prod = self.mul_sparse(sparse_of(a), sparse_of(b))
        return tuple(prod.get(k, ZERO) for k in range(self.dim))

    def multiply(self, a: "AlgebraElement", b: "AlgebraElement") -> "AlgebraElement":
        if a.algebra is not self or b.algebra is not self:
            raise ValueError("elements belong to a different algebra")
        return AlgebraElement(self, self.mul_coords(a.coords, b.coords))

    def left_mult_matrix(self, coords) -> Matrix:
        """Matrix of v -> a*v in the basis (columns are a * e_j)."""
        a = sparse_of(coords)
        n = self.dim
        return Matrix.from_columns([self.mul_sparse(a, self.basis_sparse(j)) for j in range(n)], n)

    def right_mult_matrix(self, coords) -> Matrix:
        """Matrix of v -> v*a in the basis (columns are e_j * a)."""
        a = sparse_of(coords)
        n = self.dim
        return Matrix.from_columns([self.mul_sparse(self.basis_sparse(j), a) for j in range(n)], n)

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
        """Kernel of all commutator maps v -> e_j v - v e_j."""
        n = self.dim
        if n == 0:
            return Subspace.zero(0)
        blocks = []
        for j in range(n):
            cj = self._basis_coords(j)
            blocks.append(self.left_mult_matrix(cj) - self.right_mult_matrix(cj))
        return kernel(Matrix.vstack(blocks))

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
        unit = sparse_of(self.unit)
        eb.add(unit)
        gvecs = [_sparse_element(g) for g in gens]
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

    def ideal_generated(self, gens, multipliers=None) -> Subspace:
        """Two-sided ideal generated by gens.

        Closure multiplies new vectors on both sides by the multiplier set;
        by default that set is the whole basis.  A caller that knows a set of
        algebra generators may pass those instead: invariance under a
        generating set already forces invariance under everything.
        """
        n = self.dim
        if multipliers is None:
            mults = [self.basis_sparse(i) for i in range(n)]
        else:
            mults = [_sparse_element(m) for m in multipliers]
        eb = EchelonBasis(n)
        frontier = []
        for g in gens:
            v = _sparse_element(g)
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

    def quotient(self, gens, multipliers=None, assume_generating=False) -> "QuotientResult":
        """Quotient by the two-sided ideal generated by gens.

        The complement basis is the lexicographically earliest subset of the
        original basis that is independent modulo the ideal.  That the
        projection is an algebra map is asserted pairwise for small parents;
        for larger ones it is forced by construction (the ideal is a verified
        fixed point under the multiplier set, and the multiplier set is
        verified to generate, unless assume_generating says the caller
        already did so).
        """
        n = self.dim
        if multipliers is not None and not assume_generating:
            span = self.subalgebra_generated(list(multipliers))
            if span.dim != n:
                raise AlgebraError(
                    f"{self.name}: quotient multipliers generate only dim {span.dim}"
                )
        ideal = self.ideal_generated(gens, multipliers)
        eb = EchelonBasis(n)
        for row in ideal.basis:
            eb.add(row)
        chosen = [i for i in range(n) if eb.add({i: ONE})]
        q = len(chosen)
        if q == 0:
            algebra = StructureAlgebra(0, [], (), name=f"{self.name}/ideal", check="none")
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
        unit_q = project(sparse_of(self.unit))
        algebra = StructureAlgebra(
            q, rows, tuple(unit_q.get(t, ZERO) for t in range(q)),
            name=f"{self.name}/ideal", check="auto",
        )
        if n <= 32:
            # check the algebra-map property on every basis pair outright
            for i in range(n):
                for j in range(n):
                    want = project(self.rows[i][j])
                    if algebra.mul_sparse(pcols[i], pcols[j]) != want:
                        raise InvariantError(
                            f"quotient projection is not an algebra map at ({i}, {j})"
                        )
        return QuotientResult(algebra, proj, tuple(chosen), ideal)

    def inverse_element(self, a: "AlgebraElement"):
        """Two-sided inverse of a, or None.  Verifies both product orders."""
        unit = sparse_of(self.unit)
        x = solve(self.left_mult_matrix(a.coords), unit)
        if x is None or self.mul_sparse(x, sparse_of(a.coords)) != unit:
            return None
        return self.from_dict(x)

    def is_central(self, a: "AlgebraElement") -> bool:
        u = sparse_of(a.coords)
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
        lz = self.left_mult_matrix(z.coords)
        spaces, complete = eigensplit(lz, candidates)
        if not complete:
            raise AlgebraError(
                f"{self.name}: candidate eigenvalues do not split the algebra"
            )
        eigs = [lam for lam, _ in spaces]
        zs = sparse_of(z.coords)
        blocks = []
        for lam, space in spaces:
            # Lagrange idempotent for this eigenvalue
            idem = sparse_of(self.unit)
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
                tuple(unit_coords.get(t, ZERO) for t in range(d)),
                name=f"{self.name}[z={lam.pretty()}]",
                check="auto",
            )
            idem = tuple(idem.get(t, ZERO) for t in range(self.dim))
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
                        "residual_support": [
                            k for k, v in enumerate(value.coords) if v
                        ],
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


def _sparse_element(x) -> dict:
    """Sparse coordinates of an AlgebraElement or a coordinate sequence."""
    return sparse_of(x.coords if isinstance(x, AlgebraElement) else x)


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
        return self.algebra.element(self.projection.apply(list(element.coords)))


@dataclass
class CentralBlock:
    eigenvalue: Cyclotomic
    algebra: StructureAlgebra
    space: Subspace  # block as a subspace of the parent
    parent: StructureAlgebra
    idempotent: tuple  # coordinates in the parent

    def project(self, element: "AlgebraElement") -> "AlgebraElement":
        comp = self.parent.mul_sparse(sparse_of(self.idempotent), sparse_of(element.coords))
        coords = self.space.coordinates(comp)
        if coords is None:
            raise InvariantError("projected component escapes the block")
        return self.algebra.from_dict(coords)

    def embed(self, element: "AlgebraElement"):
        vec: dict = {}
        for c, row in zip(element.coords, self.space.basis):
            if c:
                _axpy(vec, c, row)
        return self.parent.from_dict(vec)


class AlgebraElement:
    """An element of a StructureAlgebra, held as exact coordinates."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: StructureAlgebra, coords: tuple):
        self.algebra = algebra
        self.coords = coords

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and all(
            a == b for a, b in zip(self.coords, other.coords)
        )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same(other)
        return AlgebraElement(
            self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same(other)
        return AlgebraElement(
            self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.multiply(self, other)
        c = Cyclotomic.coerce(other)
        return AlgebraElement(self.algebra, tuple(c * a for a in self.coords))

    def __rmul__(self, other):
        c = Cyclotomic.coerce(other)
        return AlgebraElement(self.algebra, tuple(c * a for a in self.coords))

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
        return [k for k, v in enumerate(self.coords) if v]

    def pretty(self) -> str:
        parts = [f"{v.pretty()}*e{k}" for k, v in enumerate(self.coords) if v]
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


def _blocks(cost, budget: int) -> list[tuple[int, int]]:
    """Consecutive ranges [i0, i1) covering range(len(cost)), each with total
    cost at most budget unless it is a single index."""
    out, start, acc = [], 0, 0
    for i, c in enumerate(cost):
        if acc and acc + c > budget:
            out.append((start, i))
            start, acc = i, 0
        acc += c
    out.append((start, len(cost)))
    return out


def _primes_for(order: int, bound: int) -> list[int]:
    """Primes P = 1 mod order whose product exceeds 2*bound, each < PRIME_CEILING."""
    start = ((PRIME_CEILING - 2) // order) * order + 1
    primes = []
    prod = 1
    p = start
    while prod <= 2 * bound:
        while not _is_probable_prime(p):
            p -= order
            if p < 3:
                raise RuntimeError("ran out of primes (bound too large)")
        primes.append(p)
        prod *= p
        p -= order
    return primes


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
