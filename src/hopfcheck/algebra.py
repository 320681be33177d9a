"""Finite-dimensional associative algebras given by structure constants.

A StructureAlgebra holds a rank-3 tensor c[i][j][k] (stored as sparse rows:
for each basis pair (i, j) a cell mapping k to a nonzero scalar) plus the
coordinates of the unit.  The constants are held once: every empty cell is
the one read-only EMPTY_CELL, a cell handed to the constructor zero-free at
the algebra's order is kept as it is, not copied, and so is a row list
whose cells all are kept (or are EMPTY_CELL).  So no one may mutate a cell
or a row list once it is handed over.  The constructor reads each row
once: a clean row (every cell EMPTY_CELL or zero-free, all its values at
one order) gives its order and, when that is the algebra's order, is kept
without a second look; only the other rows are read value by value for
their orders and then owned cell by cell.  The double builders of
doubles.py build clean rows, share equal scalars, one object per distinct
value within a build, and equal keys, one int object per basis index.

Construction verifies the unit laws exactly (unit_failure) and
associativity in one of two regimes, chosen by dim:

  dim <= DEFAULT_EXHAUSTIVE_LIMIT (230)
                      the certificate (_assoc_modular): Light's test over a
                      generating set, in Python integers.  A greedy set S
                      of basis elements is certified to generate modulo a
                      prime; the triples (i, a, k) with e_a in S are then
                      compared modulo Phi_N(w) for an integer w large
                      enough that a congruence is an exact equality, which
                      proves associativity on every triple.  The cells are
                      read in place: each value object is mapped to its
                      integer mod Phi_N(w) once, and no copy of the table
                      is made.  On a mismatch every pair (i, j) is
                      compared the same way and the first failing triple
                      re-checked exactly, so the witness is the one the
                      exact loop would report.
                      taft(p) (2 generators), the 81-dim doubles of
                      taft(3) (12 and 15) and the 125-dim blocks of the
                      taft(5) double are checked here.
  above               associativity_failure on the DEFAULT_SAMPLES triples
                      of sampled_triples(dim, DEFAULT_SAMPLES, DEFAULT_SEED).
                      This is evidence, not a proof: a sample can miss
                      the few triples that break.

check= takes "auto" (the rule above), "modular" (the certificate at any
dim) or "none" (no associativity check).  The algebra records which ran in
`associativity`: "certificate", "sampled" or "unchecked", and "exhaustive"
at dim 0.  A block that central_eigensplit reads off a proven parent is
built with check="none" and records "inherited": it is the ideal A idem of
an associative A, and its table holds the coordinates of products taken
in A.  The modes in PROVEN_MODES ("certificate", "exhaustive" and
"inherited") count as proven (the property `proven`); "sampled" and
"unchecked" do not.
The D2.2 re-check of the twisted doubles (doubles.py) checks every triple
up to dim 24; above it, it reports the record: the certificate that
construction ran up to dim 230 and, above it, the first 2,000 triples of
construction's sample.  It runs a check itself only on a double built with
check="none".

A proof is used again after construction, through the generating-set
lemma behind Light's test (Clifford & Preston, The Algebraic Theory of
Semigroups I, 1961, section 1.2): in an associative algebra, the elements
with a property that holds at 1 and is closed under products form a
unital subalgebra, so the property holds everywhere once it holds on a
generating set S.  A certified algebra keeps its S in `light_generators`,
and map_failure (multiplicativity) and is_central (commuting with z) check
only S when the algebra is proven with an S; an algebra that is sampled,
unchecked or without an S (an inherited block) takes the full check.
map_failure falls back to the full scan whenever a generator pair fails,
so the reported pair is always the full scan's first failure.

Both generation closures, Light's S and subalgebra_generated's first
pass, run modulo a prime p on one span, _ModSpan, which holds the one
residue map Q(zeta_N) -> Z/p, the one closure under tables and the one
rank argument that makes rank n mod p a proof of generation.

An AlgebraElement holds its terms, a dict {basis index: nonzero scalar}, and
every product goes through one sparse kernel, StructureAlgebra.mul_sparse,
which multiplies two such dicts, visits only the structure-constant cells
their supports select and sums each cell in through linalg._axpy.  The
exact check of a triple reads its two sides off the cells, as two lincomb
sums of rows (no product by a basis vector).  All higher operations (center,
radical, subalgebras, ideals, quotients, central splitting) hand the same
dicts to the exact linear algebra of linalg.  Dense coordinates remain only
at the edges: the unit tuple, element(coords), an element's coords view and
the dense operands that left_mult_matrix and right_mult_matrix still accept.
"""

from __future__ import annotations

import random
import types
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from math import lcm
from operator import mul

from .cyclotomic import ONE, ZERO, Cyclotomic, cyclotomic_polynomial, phi_degree
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
    lincomb,
    solve,
    sparse_of,
)
from .report import CheckReport

# The certificate's generating set is certified modulo a prime below this
# ceiling, so that a product of two residues stays within a machine word.
GENERATION_PRIME_CEILING = 1 << 31

# Up to this dim construction proves associativity with the certificate;
# above it, it samples.
DEFAULT_EXHAUSTIVE_LIMIT = 230
DEFAULT_SAMPLES = 10_000
DEFAULT_SEED = 20240801

# The associativity modes that are proofs.
PROVEN_MODES = frozenset({"certificate", "exhaustive", "inherited"})


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


def _clean_order(row) -> int:
    """The order of row's values when row is clean: every cell EMPTY_CELL
    or zero-free, and all values at one order.  0 when every cell is
    EMPTY_CELL, -1 when row is not clean."""
    o = 0
    for cell in row:
        if cell is not EMPTY_CELL:
            if not cell:
                return -1
            for v in cell.values():
                if v.order != o:
                    if o:
                        return -1
                    o = v.order
                if not any(v.num):
                    return -1
    return o


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
        order (the lcm of the orders of the unit and of the nonzero
        constants) is kept as it is, not copied; any other nonempty cell is
        replaced by a copy without zeros and with its scalars lifted, and
        every empty cell by EMPTY_CELL.  A row list rows[i] of dim cells is
        kept as the algebra's row when every cell in it is kept or is
        EMPTY_CELL; only a row that needs a change is built anew, so the
        caller's lists never change.  The rows are read in one pass: a clean
        row (_clean_order) gives its one order, and only a row that is not
        clean has its values read for their orders and its cells owned.  So
        a caller must not mutate its cells or row lists once it has handed
        them over, and no one may mutate those of a built algebra (copy a
        row or a cell to change it, as a new algebra's input).
        """
        if dim < 0:
            raise ValueError("dim must be nonnegative")
        if check not in ("auto", "modular", "none"):
            raise ValueError(f"unknown associativity check mode {check!r}")
        self.dim = dim
        self.name = name or f"algebra(dim {dim})"
        # one pass over the rows: a clean row gives its one order, and a row
        # that is not clean gives the orders of its nonzero values (a zero
        # does not set the algebra's order); only a value of an order not yet
        # seen is tested for zero there
        orders = {v.order for v in unit}
        row_orders = []
        for row in rows:
            o = _clean_order(row)
            if o > 0:
                orders.add(o)
            elif o < 0:
                for cell in row:
                    if cell:
                        for v in cell.values():
                            if v.order not in orders and any(v.num):
                                orders.add(v.order)
            row_orders.append(o)
        order = lcm(*orders) if orders else 1
        self.order = order
        # a clean row of dim cells at the algebra's order (or all EMPTY_CELL)
        # is kept as it is; any other row is a new list of its dim cells,
        # each owned (the caller's list is never changed)
        self.rows = []
        for i in range(dim):
            row, o = rows[i], row_orders[i]
            if (o != order and o) or len(row) != dim:
                row = [_own_cell(x, order) if (x := row[j]) else EMPTY_CELL for j in range(dim)]
            self.rows.append(row)
        self.unit = tuple(v if v.order == order else v.lift(order) for v in unit)
        if len(self.unit) != dim:
            raise ValueError("unit vector length must equal dim")
        self._one = Cyclotomic.one(order)
        self._unit_terms = sparse_of(self.unit)
        self._center: Subspace | None = None
        self.associativity = "exhaustive"  # at dim 0 there is no triple to check
        self.light_generators: list[int] | None = None
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

    @property
    def proven(self) -> bool:
        """Whether associativity was proven (`associativity` in PROVEN_MODES)."""
        return self.associativity in PROVEN_MODES

    def _proven_generators(self):
        """The certified generating set S when associativity is proven with
        one, else None."""
        return self.light_generators if self.proven else None

    def map_failure(self, images, product, unit=None):
        """The first basis pair (i, j), in row-major order, at which the linear
        map e_t -> images[t] is not multiplicative, that is
        sum_t c_ij^t images[t] != product(i, j), or None.

        images holds one sparse vector of the target per basis index of this
        algebra (a dict from the target's coordinate keys to nonzero
        scalars), and product(i, j) is the target's product images[i]
        images[j] as such a vector.  This is the one multiplicativity check:
        algebra maps and quotient projections (into a StructureAlgebra),
        module actions (into End(V), keyed (u, v)) and the comultiplication
        and counit of a Hopf algebra (into H (x) H, and into k, keyed 0).

        unit is the target's unit as such a vector, passed only when the
        target is associative (a proven StructureAlgebra, End(V), H (x) H of
        a proven H, or k).  When it is, this algebra is proven with a
        generating set S and the map sends 1 to unit, only the pairs (s, j)
        with s in S are compared: M = {x : phi(x y) = phi(x) phi(y) for
        every basis y} holds 1 and is closed under products, since
        phi((x x') y) = phi(x) phi(x' y) = phi(x) phi(x') phi(y), so M is
        the whole algebra once it holds S.  If a generator pair fails, every
        pair is compared, so the pair reported is the full scan's first."""
        n, rows = self.dim, self.rows
        gens = self._proven_generators()
        if unit is not None and gens is not None and lincomb(images, self._unit_terms) == unit:
            if all(product(s, j) == lincomb(images, rows[s][j]) for s in gens for j in range(n)):
                return None
        for i in range(n):
            for j in range(n):
                if product(i, j) != lincomb(images, rows[i][j]):
                    return (i, j)
        return None

    def _check_associativity(self, mode):
        """Check associativity as check= asks, and record in `associativity`
        how it was checked: "certificate" (proven), "sampled" (only the
        DEFAULT_SAMPLES triples of the sample) or "unchecked"."""
        if mode == "none":
            self.associativity = "unchecked"
            return
        n = self.dim
        if mode == "modular" or n <= DEFAULT_EXHAUSTIVE_LIMIT:
            self.associativity = "certificate"
            bad = self._assoc_modular()
        else:
            self.associativity = "sampled"
            bad = self.associativity_failure(sampled_triples(n, DEFAULT_SAMPLES, DEFAULT_SEED))
        if bad is not None:
            raise AssociativityError(bad, f"{self.name}: associativity fails")

    def _assoc_triple_exact(self, i: int, j: int, k: int) -> bool:
        """(e_i e_j) e_k == e_i (e_j e_k), both sides read off the cells:
        sum_m c_ij^m (e_m e_k) against sum_m c_jk^m (e_i e_m)."""
        rows = self.rows
        left = rows[i][j]
        return lincomb({m: rows[m][k] for m in left}, left) == lincomb(rows[i], rows[j][k])

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
        S is kept, as basis indices, in `light_generators`.
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
        # each value object's image mod M, zeta -> w, scaled by den
        powers = [pow(w, s, modulus) for s in range(phi_degree(order))]
        ints = {
            key: sum(map(mul, v.num, powers)) * (den // v.den) % modulus for key, v in values.items()
        }
        rows = self.rows
        # row_terms[m]: (k n + t, c_mk^t) over row m; col_terms[j]: (k n, m, c_jk^m)
        row_terms: dict[int, list] = {}
        col_terms: dict[int, list] = {}

        def failing(i: int, j: int) -> list[int]:
            """The k at which (e_i e_j) e_k and e_i (e_j e_k) differ mod M."""
            acc: dict[int, int] = {}
            get = acc.get
            for m, v in rows[i][j].items():
                x = ints[id(v)]
                terms = row_terms.get(m)
                if terms is None:
                    terms = row_terms[m] = [
                        (k * n + t, ints[id(y)])
                        for k, cell in enumerate(rows[m])
                        for t, y in cell.items()
                    ]
                for key, y in terms:
                    acc[key] = get(key, 0) + x * y
            terms = col_terms.get(j)
            if terms is None:
                terms = col_terms[j] = [
                    (k * n, m, ints[id(x)]) for k, cell in enumerate(rows[j]) for m, x in cell.items()
                ]
            rowi = rows[i]
            for base, m, x in terms:
                for t, y in rowi[m].items():
                    acc[base + t] = get(base + t, 0) - x * ints[id(y)]
            return [key // n for key, s in acc.items() if s % modulus]

        self.light_generators = _light_generators(self, den)
        if all(not failing(i, a) for a in self.light_generators for i in range(n)):
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

    def mul_sparse(self, u: dict, v: dict) -> dict:
        """The product of two sparse coordinate dicts {index: nonzero scalar}.

        u and v hold no zero: every caller passes an element's terms, a
        cell, a basis vector or another zero-free vector of linalg's.
        Only the cells c[i][j] with i in u and j in v are visited, and empty
        ones are skipped; each cell is summed in through _axpy, so a key
        that cancels is dropped at once and the result holds no zero.
        """
        rows = self.rows
        out: dict = {}
        for i, ci in u.items():
            rowi = rows[i]
            for j, cj in v.items():
                cell = rowi[j]
                if cell:
                    _axpy(out, ci * cj, cell)
        return out

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
        """Smallest unital subalgebra containing gens: the closure of the
        span of the unit under right multiplication by gens, to a fixed point.

        The closure runs first modulo a prime (_generates_modulo_a_prime).
        Reaching rank dim there proves that gens generate the whole algebra
        (_ModSpan's rank argument), and the whole space is returned; when
        the modular rank falls short, the exact closure runs.
        """
        n = self.dim
        gvecs = [self._terms(g) for g in gens]
        if n and _generates_modulo_a_prime(self, gvecs):
            return Subspace.whole(n)
        eb = EchelonBasis(n)
        unit = self._unit_terms
        eb.add(unit)
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
        also checked (map_failure, on every basis pair, or on the pairs of a
        proven parent's generating set).
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
        rows = [[lincomb(pcols, self.rows[a][b]) for b in chosen] for a in chosen]
        unit_q = lincomb(pcols, self._unit_terms)
        algebra = StructureAlgebra(q, rows, dense_of(unit_q, q), name=f"{self.name}/ideal")
        if n <= 32:
            bad = self.map_failure(
                pcols,
                lambda i, j: algebra.mul_sparse(pcols[i], pcols[j]),
                algebra._unit_terms if algebra.proven else None,
            )
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
        """Whether a commutes with every basis element e_j: e_j a is the
        combination of row j's cells and a e_j that of column j's, with a's
        coordinates as coefficients, so no product (by one) is formed.  When
        the algebra is proven with a generating set S, only the e_s with s in
        S are compared: the centralizer of a is a unital subalgebra of an
        associative algebra, so it is everything once it holds S."""
        order = self.order
        # a's coordinates lifted once to the algebra's order where they live
        # in it, so that each product with a cell's scalar is taken at one order
        u = {i: x.lift(order) if order % x.order == 0 else x for i, x in self._terms(a).items()}
        rows = self.rows
        gens = self._proven_generators()
        for j in range(self.dim) if gens is None else gens:
            rowj = rows[j]
            left: dict = {}
            right: dict = {}
            for i, x in u.items():
                if cell := rowj[i]:
                    _axpy(left, x, cell)
                if cell := rows[i][j]:
                    _axpy(right, x, cell)
            if left != right:
                return False
        return True

    def central_eigensplit(self, z: "AlgebraElement", candidates) -> list["CentralBlock"]:
        """Split along a central element acting with the given eigenvalues.

        Requires z central and the candidate list to exhaust the spectrum;
        raises AlgebraError otherwise.  Cross-block products vanish because z
        is central and acts by distinct scalars; the direct-sum reassembly is
        compared against the original tensor explicitly for small dims.

        On a proven parent each block's table is read at the pivot cells
        (_pivot_table), and the block is built with check="none" and records
        "inherited": it is the ideal A idem of an associative A.  Otherwise,
        or when the pivot read's run-time checks fail, each cell is formed
        from the product of two block basis vectors (_product_table) and
        construction checks the block's associativity.
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
                if mu:  # _axpy takes a nonzero factor; a zero one would store zeros
                    _axpy(shifted, -mu, idem)
                idem = {t: w * factor for t, w in shifted.items()}
            unit_coords = space.coordinates(idem)
            if unit_coords is None:
                raise InvariantError("idempotent escapes its eigenspace")
            d = space.dim
            rows = self._pivot_table(space, idem) if self.proven else None
            inherited = rows is not None
            algebra = StructureAlgebra(
                d,
                rows if inherited else self._product_table(space),
                dense_of(unit_coords, d),
                name=f"{self.name}[z={lam.pretty()}]",
                check="none" if inherited else "auto",
            )
            if inherited:
                algebra.associativity = "inherited"
            blocks.append(CentralBlock(lam, algebra, space, self, idem))
        if self.dim <= 32:
            self._verify_reassembly(blocks)
        return blocks

    def _product_table(self, space: Subspace) -> list[list]:
        """The table of the block spanned by space: cell (a, b) holds the
        coordinates of b_a b_b in the basis b of space."""
        basis = space.basis
        rows = []
        for ba in basis:
            arow = []
            for bb in basis:
                coords = space.coordinates(self.mul_sparse(ba, bb))
                if coords is None:
                    raise InvariantError("block product escapes the block")
                arow.append(coords or EMPTY_CELL)
            rows.append(arow)
        return rows

    def _pivot_table(self, space: Subspace, idem: dict):
        """The table of the block A idem, read at the pivot cells, or None
        when idem^2 != idem or the pivot matrix is not diagonal.

        The caller knows this algebra associative and idem central, with
        z idem = lambda idem, so that each idem e_m lies in the block, which
        space spans with its reduced basis b_a (pivot j_a).  The pivot
        matrix reads idem e_m at the pivot columns, and an element of the
        block is fixed by those coordinates.  When the matrix is diagonal,
        idem e_(j_a) = g_a b_a with g_a nonzero, so
            b_a b_b = (g_a g_b)^(-1) idem e_(j_a) e_(j_b)
                    = (g_a g_b)^(-1) sum_m c_(j_a j_b)^m idem e_m,
        and cell (a, b) is that sum read at the pivots.  No block product
        can escape the block, since each idem e_m lies in it.
        """
        if self.mul_sparse(idem, idem) != idem:
            return None
        rows = self.rows
        pivots = space.pivots
        at = {j: a for a, j in enumerate(pivots)}
        reads: dict[int, dict] = {}  # m -> idem e_m at the pivots, keyed by a

        def read(m: int) -> dict:
            r = reads.get(m)
            if r is None:
                v = lincomb({i: rows[i][m] for i in idem}, idem)
                r = reads[m] = {at[k]: x for k, x in v.items() if k in at}
            return r

        inverses = []
        for a, j in enumerate(pivots):
            r = read(j)
            if len(r) != 1 or a not in r:
                return None
            inverses.append(r[a].inverse())
        table = []
        for a, ja in enumerate(pivots):
            rowa = rows[ja]
            arow = []
            for b, jb in enumerate(pivots):
                cell = rowa[jb]
                for m in cell:
                    read(m)
                v = lincomb(reads, cell)
                f = inverses[a] * inverses[b]
                arow.append({k: x * f for k, x in v.items()} if v else EMPTY_CELL)
            table.append(arow)
        return table

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


def sampled_triples(n: int, samples: int, seed: int) -> Iterator[tuple[int, int, int]]:
    """samples basis triples (i, j, k) of range(n), drawn lazily from
    random.Random(seed), each when it is asked for."""
    randrange = random.Random(seed).randrange
    for _ in range(samples):
        yield randrange(n), randrange(n), randrange(n)


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
        return AlgebraElement(self.algebra, lincomb(cols, element.terms))


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
        return AlgebraElement(self.parent, lincomb(self.space.basis, element.terms))


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
    den (a common denominator of the constants) nor the unit's denominators
    (_ModSpan, whose rank argument makes rank n mod p a proof that the
    e_a generate).  The closure reaches full rank whenever the unit laws
    hold (e_a 1 = e_a); otherwise InvariantError is raised.
    """
    n, order = alg.dim, alg.order
    p = _generation_prime(order, den * lcm(*(u.den for u in alg.unit)))
    span = _ModSpan(order, p, n)
    span.absorb(span.vector(alg._unit_terms))
    gens: list[int] = []
    for a in range(n):
        if len(span) == n:
            break
        if span.reduce({a: 1}):
            gens.append(a)
            # left multiplication by e_a: e_a e_j = sum_k c_aj^k e_k
            span.close([[span.vector(cell) for cell in alg.rows[a]]])
    if len(span) != n:
        raise InvariantError(
            f"{alg.name}: the closure of the unit has rank {len(span)} of {n} modulo {p}"
        )
    return gens


class _ModSpan:
    """A span of sparse vectors in (Z/p)^n, p a prime = 1 mod N, closed
    under tables, with the scalars of Q(zeta_N) read through one residue
    map.  The modular span of both generation closures, _light_generators
    and _generates_modulo_a_prime.

    value(v) sends a value of order d dividing N, coordinates num and
    denominator den, to sum_s num_s r^(s N / d) / den mod p, r = root of
    exact multiplicative order N mod p: zeta_N -> r is a ring map onto Z/p
    from the values whose den p does not divide (pow(den, -1, p) raises
    ValueError for the others).  Each distinct value is reduced once.

    The span is kept fully reduced: pivots maps each pivot column to its
    row's other entries (the row is 1 at its pivot and 0 at every other
    pivot column).  words are the vectors absorbed, in order;
    close(tables) closes the span under v -> sum_i v_i t[i] mod p for each
    table t given and each taken before.

    The rank argument.  Each table is the residue of an exact table of
    values, so each word is the residue of the exact word, the same tables
    applied in the same order to the same exact vector.  The entries of the
    exact words lie in the ring of values whose den p does not divide, and
    the residue map is a ring map there, so the residue of the determinant
    of n exact words is the determinant of their residues.  If n words are
    independent mod p, that determinant is nonzero, so the exact one is:
    the exact closure reaches rank n too.
    """

    __slots__ = ("p", "n", "order", "root", "pivots", "words", "tables", "_powers", "_memo")

    def __init__(self, order: int, p: int, n: int):
        self.p, self.n, self.order = p, n, order
        self.root = _root_mod(order, p)
        self.pivots: dict[int, dict] = {}
        self.words: list[dict] = []
        self.tables: list[list] = []
        self._powers: dict[int, list[int]] = {}
        self._memo: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self.pivots)

    def value(self, v: Cyclotomic) -> int:
        """v mod p, zeta_N sent to root."""
        key = (v.order, v.num, v.den)
        x = self._memo.get(key)
        if x is None:
            p, pw = self.p, self._powers.get(v.order)
            if pw is None:
                step = pow(self.root, self.order // v.order, p)
                pw = self._powers[v.order] = [pow(step, s, p) for s in range(len(v.num))]
            x = self._memo[key] = sum(map(mul, v.num, pw)) * pow(v.den, -1, p) % p
        return x

    def vector(self, v: dict) -> dict:
        """The residues of a sparse vector of values, zeros dropped."""
        return {k: x for k, c in v.items() if (x := self.value(c))}

    def apply(self, t, v: dict) -> dict:
        """sum_i v_i t[i] mod p, t[i] a sparse vector mod p for each i in v."""
        out: dict = {}
        get = out.get
        for i, x in v.items():
            for k, y in t[i].items():
                out[k] = get(k, 0) + x * y
        p = self.p
        return {k: s for k, a in out.items() if (s := a % p)}

    def close(self, new: list) -> None:
        """Close the span under the tables in new and every table taken
        before: apply each table to each word, breadth first, until nothing
        new is absorbed or the span is the whole space."""
        tables = self.tables
        tables += new
        work = deque((t, v) for v in self.words for t in new)
        while work and len(self.pivots) < self.n:
            t, v = work.popleft()
            u = self.apply(t, v)
            if self.absorb(u):
                work.extend((s, u) for s in tables)

    def _sub(self, row: dict, f: int, vec: dict) -> None:
        """row -= f vec mod p in place, for f nonzero mod p; entries that
        vanish are removed (the integer twin of linalg._axpy)."""
        p = self.p
        for k, y in vec.items():
            s = (row.get(k, 0) - f * y) % p
            if s:
                row[k] = s
            else:
                del row[k]

    def reduce(self, v: dict) -> dict:
        """v reduced against the span, in place."""
        pivots = self.pivots
        for c in [c for c in v if c in pivots]:
            self._sub(v, v.pop(c), pivots[c])
        return v

    def absorb(self, v: dict) -> bool:
        """Add v (left unchanged) to the span and to words; False when it is
        already in the span."""
        r = self.reduce(dict(v))
        if not r:
            return False
        p = self.p
        c = min(r)
        inv = pow(r.pop(c), -1, p)
        new = {k: y * inv % p for k, y in r.items()}
        for row in self.pivots.values():
            f = row.pop(c, 0)
            if f:
                self._sub(row, f, new)
        self.pivots[c] = new
        self.words.append(v)
        return True


def _generates_modulo_a_prime(alg: StructureAlgebra, gvecs: list[dict]) -> bool:
    """Whether the closure of the span of alg's unit under right
    multiplication by the sparse vectors gvecs reaches rank alg.dim modulo
    a prime p = 1 mod N, N the lcm of the orders of the constants and of
    gvecs; by _ModSpan's rank argument the exact closure then has rank n
    too.  False when the rank falls short, or when p divides a denominator
    it meets (the exact closure decides then).
    """
    n = alg.dim
    order = lcm(alg.order, *(v.order for g in gvecs for v in g.values()))
    span = _ModSpan(order, _generation_prime(order, 1), n)
    try:
        span.absorb(span.vector(alg._unit_terms))
        # right multiplication by g: e_i g = sum_j g_j e_i e_j
        gvecs = [span.vector(g) for g in gvecs]
        span.close([[span.apply({j: span.vector(r[j]) for j in g}, g) for r in alg.rows] for g in gvecs])
    except ValueError:  # pow(den, -1, p) for a den that p divides
        return False
    return len(span) == n


def _root_mod(order: int, p: int) -> int:
    """An element of exact multiplicative order `order` mod prime p: the
    first (p - 1)/order-th power of 2, 3, ... that no proper divisor of
    order sends to 1."""
    divisors = [d for d in range(1, order) if order % d == 0]
    for a in range(2, p):
        w = pow(a, (p - 1) // order, p)
        if all(pow(w, d, p) != 1 for d in divisors):
            return w
    raise RuntimeError("no root of unity found (is p = 1 mod order?)")
