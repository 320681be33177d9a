"""Structure-constant algebra tests: construction checks, center, radical,
quotients, closures, presentations, central splitting."""

import itertools
import math
import random

import pytest

from hopfcheck import algebra as algebra_module
from hopfcheck.algebra import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    EMPTY_CELL,
    AlgebraError,
    AssociativityError,
    NotInvertibleError,
    StructureAlgebra,
    UnitLawError,
    gen,
    sampled_triples,
)
from hopfcheck.cyclotomic import Cyclotomic, phi_degree, root_of_unity
from hopfcheck.doubles import build_twisted_double, split_blocks, taft_double_generators
from hopfcheck.hopf import check_algebra_map, taft
from hopfcheck.linalg import EchelonBasis, InvariantError, Matrix, Subspace, lincomb, sparse_of


def c(v):
    return Cyclotomic.coerce(v)


def group_algebra_plain(n: int, check="auto") -> StructureAlgebra:
    """k[Z/n] with basis indexed by exponents."""
    rows = [[{(i + j) % n: c(1)} for j in range(n)] for i in range(n)]
    unit = [c(1 if i == 0 else 0) for i in range(n)]
    return StructureAlgebra(n, rows, unit, name=f"kZ/{n}", check=check)


def matrix_algebra_2x2() -> StructureAlgebra:
    """M_2(k) on the basis E00, E01, E10, E11 (row-major); E_ab E_cd = delta_bc E_ad."""
    idx = {(a, b): 2 * a + b for a in range(2) for b in range(2)}
    rows = [[{} for _ in range(4)] for _ in range(4)]
    for (a, b), i in idx.items():
        for (d, e), j in idx.items():
            if b == d:
                rows[i][j] = {idx[(a, e)]: c(1)}
    unit = [c(0)] * 4
    unit[idx[(0, 0)]] = c(1)
    unit[idx[(1, 1)]] = c(1)
    return StructureAlgebra(4, rows, unit, name="M2")


def dual_numbers() -> StructureAlgebra:
    """k[t]/(t^2): unit e0, nilpotent e1."""
    rows = [
        [{0: c(1)}, {1: c(1)}],
        [{1: c(1)}, {}],
    ]
    return StructureAlgebra(2, rows, [c(1), c(0)], name="k[t]/(t^2)")


def test_construction_keeps_clean_cells_and_copies_the_others():
    # the twisted group algebra e_i e_j = zeta^(ij) e_{i+j} of Z/3, order 3;
    # cell (0, 1) gains a zero and cell (0, 2) holds an order-1 one, so only
    # row 0 needs a change
    z = root_of_unity(3)
    rows = [[{(i + j) % 3: z ** (i * j)} for j in range(3)] for i in range(3)]
    rows[0][1] = {1: z**0, 2: Cyclotomic.zero(3)}
    rows[0][2] = {2: c(1)}
    given = [[dict(cell) for cell in row] for row in rows]
    lists = [list(row) for row in rows]
    alg = StructureAlgebra(3, rows, [c(1), c(0), c(0)])
    assert alg.order == 3
    assert alg.rows[1] is rows[1] and alg.rows[2] is rows[2]
    assert alg.rows[0] is not rows[0] and alg.rows[0][0] is rows[0][0]
    assert alg.rows[1][2] is rows[1][2]
    assert alg.rows[0][1] is not rows[0][1] and alg.rows[0][1] == {1: z**0}
    assert alg.rows[0][2] is not rows[0][2] and alg.rows[0][2] == {2: z**0}
    assert alg.rows[0][2][2].order == 3
    assert [[dict(cell) for cell in row] for row in rows] == given
    assert rows[0][1][2].order == 3 and rows[0][2][2].order == 1
    # the caller's row lists hold the same cells as before
    assert all(len(row) == 3 and all(x is y for x, y in zip(row, kept))
               for row, kept in zip(rows, lists))
    # k[t]/(t^2): a row is kept when its empty cells are EMPTY_CELL, and
    # copied when one is another empty mapping, {} here
    rows = [[{0: c(1)}, {1: c(1)}], [{1: c(1)}, EMPTY_CELL]]
    alg = StructureAlgebra(2, rows, [c(1), c(0)])
    assert alg.rows[0] is rows[0] and alg.rows[1] is rows[1]
    rows = [[{0: c(1)}, {1: c(1)}], [{1: c(1)}, {}]]
    empty = rows[1][1]
    alg = StructureAlgebra(2, rows, [c(1), c(0)])
    assert alg.rows[0] is rows[0] and alg.rows[1] is not rows[1]
    assert alg.rows[1][0] is rows[1][0] and alg.rows[1][1] is EMPTY_CELL
    assert rows[1][1] is empty


def test_construction_shares_one_empty_cell():
    # k[t]/(t^2) with the product t t = 0 spelled as a zero coefficient
    rows = [[{0: c(1)}, {1: c(1)}], [{1: c(1)}, {1: c(0)}]]
    alg = StructureAlgebra(2, rows, [c(1), c(0)], name="k[t]/(t^2)")
    assert alg.rows[1][1] is EMPTY_CELL and rows[1][1] == {1: c(0)}
    assert alg.same_structure(dual_numbers())
    with pytest.raises(TypeError):
        alg.rows[1][1][0] = c(1)


class _TableOnly(StructureAlgebra):
    """A StructureAlgebra whose unit law is not checked, so that any table
    can be handed to the constructor; built with check="none"."""

    def unit_failure(self):
        return None


def _random_table(seed: int, kinds=("clean", "clean", "zero", "mixed", "braces",
                                    "all-empty", "long", "short")):
    """(dim, rows, unit) of a random table over one chain of orders, so that
    the algebra's order is often a row's own.  Each row is clean at one
    order, or has a zero, a value of another order, an empty cell spelled
    {}, no nonempty cell, extra cells or too few cells, as kinds allows;
    rows may also run past dim."""
    rng = random.Random(seed)
    chain = rng.choice([(1,), (1, 3), (1, 2, 4), (2, 6), (3, 6)])
    dim = rng.randint(1, 5)

    def value(order, zero=False):
        num = [0] * phi_degree(order)
        if not zero:
            num = [rng.randint(-2, 2) for _ in num]
            num[0] = num[0] or 1
        return Cyclotomic(order, tuple(num), rng.randint(1, 3))

    def cell(order):
        return {k: value(order) for k in rng.sample(range(dim), rng.randint(1, dim))}

    def row():
        o = rng.choice(chain)
        cells = [cell(o) if rng.random() < 0.5 else EMPTY_CELL for _ in range(dim)]
        kind = rng.choice(kinds)
        j, k = rng.randrange(dim), rng.randrange(dim)
        if kind == "zero":
            cells[j] = {**(cells[j] or {}), k: value(o, zero=True)}
        elif kind == "mixed":
            cells[j] = {**(cells[j] or {}), k: value(rng.choice(chain))}
        elif kind == "braces":
            cells[j] = {}
        elif kind == "all-empty":
            cells = [EMPTY_CELL] * dim
        elif kind == "long":
            cells += [cell(rng.choice(chain)) for _ in range(rng.randint(1, 2))]
        elif kind == "short":
            cells = cells[:j]
        return cells

    rows = [row() for _ in range(dim + rng.choice([0, 0, 1]))]
    unit = [value(rng.choice(chain), zero=rng.random() < 0.5) for _ in range(dim)]
    return dim, rows, unit


def _two_pass(dim: int, rows, unit):
    """(order, rows) as the two-pass rule owns a table: the order is the lcm
    of the unit's orders and of the nonzero values' orders; then a row is
    kept when it has dim cells, each EMPTY_CELL or zero-free at that order,
    and is otherwise rebuilt cell by cell, keeping each such cell."""
    orders = {v.order for v in unit}
    orders |= {v.order for row in rows for cell in row for v in cell.values() if any(v.num)}
    order = math.lcm(*orders) if orders else 1

    def own_cell(cell):
        if all(v.order == order and any(v.num) for v in cell.values()):
            return cell
        return {k: v.lift(order) for k, v in cell.items() if any(v.num)} or EMPTY_CELL

    def own_row(row):
        if len(row) == dim and all(x is EMPTY_CELL or (x and own_cell(x) is x) for x in row):
            return row
        return [own_cell(row[j]) if row[j] else EMPTY_CELL for j in range(dim)]

    return order, [own_row(rows[i]) for i in range(dim)]


def _assert_owned_as_the_two_pass_rule_does(dim, rows, unit):
    given = [list(row) for row in rows]
    try:
        order, want = _two_pass(dim, rows, unit)
    except IndexError:
        with pytest.raises(IndexError):
            _TableOnly(dim, rows, unit, check="none")
        return
    alg = _TableOnly(dim, rows, unit, check="none")
    assert alg.order == order
    assert all(map(list.__eq__, rows, given))
    for i in range(dim):
        assert (alg.rows[i] is rows[i]) == (want[i] is rows[i])
        for j in range(dim):
            got, cell = alg.rows[i][j], want[i][j]
            assert (got is rows[i][j]) == (cell is rows[i][j])
            assert (got is EMPTY_CELL) == (cell is EMPTY_CELL)
            assert got == cell and all(v.order == order and any(v.num) for v in got.values())


def test_construction_owns_a_table_as_the_two_pass_rule_does():
    # the same order, the same cells and the same kept rows and cells, and
    # the caller's row lists unchanged
    for seed in range(300):
        _assert_owned_as_the_two_pass_rule_does(*_random_table(seed))


def _first_failure_by_products(alg, triples):
    """The first triple of triples at which (e_i e_j) e_k != e_i (e_j e_k),
    both sides multiplied out through mul_sparse."""
    e, mul = alg.basis_sparse, alg.mul_sparse
    for i, j, k in triples:
        if mul(mul(e(i), e(j)), e(k)) != mul(e(i), mul(e(j), e(k))):
            return (i, j, k)
    return None


def test_triple_check_reads_cells_as_the_products_do():
    # on random tables of mixed orders, mostly not associative, the first
    # failing triple of a shuffled list is the one the products give
    failures = 0
    for seed in range(60):
        dim, rows, unit = _random_table(seed, kinds=("clean", "zero", "mixed", "braces"))
        alg = _TableOnly(dim, rows[:dim], unit, check="none")
        triples = list(itertools.product(range(dim), repeat=3))
        random.Random(seed).shuffle(triples)
        first = alg.associativity_failure(triples)
        assert first == _first_failure_by_products(alg, triples)
        failures += first is not None
    assert failures > 30


def test_a_variant_built_from_copied_cells_leaves_the_original_unchanged():
    # k[Z/3]; the variant shares every cell but (2, 2), which it copies
    # before the write, as with_corrupted_cell in test_doubles does
    alg = group_algebra_plain(3)
    before = [[dict(cell) for cell in row] for row in alg.rows]
    rows = [list(row) for row in alg.rows]
    rows[2][2] = dict(rows[2][2])
    rows[2][2][0] = c(1)
    variant = StructureAlgebra(3, rows, alg.unit, check="none")
    assert variant.rows[2][2] == {0: c(1), 1: c(1)}
    assert variant.rows[1][2] is alg.rows[1][2]
    assert [[dict(cell) for cell in row] for row in alg.rows] == before
    assert alg.rows[2][2] == {1: c(1)}


def test_construction_rejects_broken_associativity():
    # corrupt one product of k[Z/3]: e2*e2 = e0 + e1 instead of e1, so that
    # (e1 e1) e2 = e2 e2 = e0 + e1 while e1 (e1 e2) = e1 e0 = e1
    broken = [[{(i + j) % 3: c(1)} for j in range(3)] for i in range(3)]
    broken[2][2] = {0: c(1), 1: c(1)}
    ok = True
    try:
        StructureAlgebra(3, broken, [c(1), c(0), c(0)])
    except AssociativityError as exc:
        ok = False
        assert len(exc.triple) == 3
    assert not ok


def test_construction_rejects_broken_unit():
    rows = [
        [{0: c(1)}, {1: c(1)}],
        [{1: c(1)}, {}],
    ]
    with pytest.raises(UnitLawError):
        StructureAlgebra(2, rows, [c(1), c(1)])


def test_modular_check_agrees_with_pure():
    # the certificate against the exact loop over every triple: both pass
    # k[Z/6], and both reject a broken k[Z/5] at the same triple
    a = group_algebra_plain(6, check="none")
    assert a.associativity_failure(itertools.product(range(6), repeat=3)) is None
    b = group_algebra_plain(6, check="modular")
    assert a.same_structure(b)
    broken = [[{(i + j) % 5: c(1)} for j in range(5)] for i in range(5)]
    broken[3][4] = {2: c(1), 0: c(1)}
    unit = [c(1), c(0), c(0), c(0), c(0)]
    first = StructureAlgebra(5, broken, unit, check="none").associativity_failure(
        itertools.product(range(5), repeat=3)
    )
    assert first is not None
    with pytest.raises(AssociativityError) as modular:
        StructureAlgebra(5, broken, unit, check="modular")
    assert modular.value.triple == first


def test_modular_check_with_cyclotomic_entries():
    # twisted group algebra of Z/3 with a 3rd root of unity cocycle:
    # e_i e_j = zeta^(i*j) e_{i+j}; associativity needs zeta^(jk+(i+j)k... ) to match,
    # and zeta^(ij) is a 2-cocycle on Z/3 only when the exponents balance; the
    # bilinear form i*j mod 3 is a valid 2-cocycle since (i+j)k + ij = i(j+k) + jk
    # fails in general -- so use the symmetric cocycle zeta^(i*j) with zeta^3=1 and
    # check associativity exactly: (i*j) + (i+j)*k vs j*k + i*(j+k) -- both equal
    # ij + ik + jk mod 3.  This exercises non-rational entries in the modular path.
    z = root_of_unity(3)
    rows = [[{(i + j) % 3: z ** (i * j)} for j in range(3)] for i in range(3)]
    StructureAlgebra(3, rows, [c(1), c(0), c(0)], check="modular")
    exact = StructureAlgebra(3, rows, [c(1), c(0), c(0)], check="none")
    assert exact.associativity_failure(itertools.product(range(3), repeat=3)) is None


def test_construction_refuses_an_unknown_check_mode():
    # check= takes auto, modular and none, at every dim
    for n in (0, 1):
        for mode in ("pure", "sample"):
            with pytest.raises(ValueError, match=f"unknown associativity check mode '{mode}'"):
                StructureAlgebra(n, [[{0: c(1)}]] * n, [c(1)] * n, check=mode)


def test_sampled_check_path(monkeypatch):
    # k[Z/231] with e_5 e_j = e_(5+j+1) for j != 0: the unit laws hold and
    # about one triple in a hundred fails, so auto's sample meets one, and
    # its witness is the sample's first failing triple
    def refuse(self):
        raise AssertionError(f"{self.name}: the modular certificate ran")

    n = DEFAULT_EXHAUSTIVE_LIMIT + 1
    rows = [[{(i + j) % n: c(1)} for j in range(n)] for i in range(n)]
    rows[5] = [{(5 + j + (j > 0)) % n: c(1)} for j in range(n)]
    unit = [c(1)] + [c(0)] * (n - 1)
    monkeypatch.setattr(StructureAlgebra, "_assoc_modular", refuse)
    with pytest.raises(AssociativityError) as err:
        StructureAlgebra(n, rows, unit)
    alg = StructureAlgebra(n, rows, unit, check="none")
    sample = sampled_triples(n, DEFAULT_SAMPLES, DEFAULT_SEED)
    assert err.value.triple == next(t for t in sample if not alg._assoc_triple_exact(*t))


def test_sampled_triples_are_pinned():
    # the sample the 625-dim doubles are checked on: drawing it lazily keeps
    # the seed's order and its length
    sample = sampled_triples(625, DEFAULT_SAMPLES, DEFAULT_SEED)
    first = list(itertools.islice(sample, 4))
    assert first == [(573, 450, 29), (201, 160, 22), (421, 593, 197), (514, 505, 82)]
    rest = list(sample)
    assert len(first) + len(rest) == DEFAULT_SAMPLES == 10_000
    assert rest[-1] == (322, 174, 369)


# -- the construction-time regime rule -----------------------------------


def _random_sparse_algebra(n: int, seed: int) -> StructureAlgebra:
    """A random unital algebra with sparse cells, e_0 its unit; not
    associative in general, so associativity is not checked."""
    rng = random.Random(seed)
    rows = [
        [{k: c(rng.randint(1, 3)) for k in rng.sample(range(n), rng.randint(0, 2))}
         if rng.random() < 0.4 else {} for _ in range(n)]
        for _ in range(n)
    ]
    for i in range(n):
        rows[0][i] = rows[i][0] = {i: c(1)}
    return StructureAlgebra(n, rows, [c(1)] + [c(0)] * (n - 1), check="none")


def _dense_group_algebra(n: int):
    """(rows, unit) of k[Z/n] in the basis f_i = g^i + g^(i+1) + ... + g^(n-1),
    in which most structure constants are nonzero (g^a = f_a - f_(a+1))."""
    def g_in_f(a):
        a %= n
        return {a: 1, a + 1: -1} if a + 1 < n else {a: 1}

    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: dict = {}
            for a in range(i, n):
                for b in range(j, n):
                    for k, v in g_in_f(a + b).items():
                        acc[k] = acc.get(k, 0) + v
            row.append({k: c(v) for k, v in acc.items() if v})
        rows.append(row)
    unit = [c(1), c(-1)] + [c(0)] * (n - 2)
    return rows, unit


def _spy_on_the_certificate(monkeypatch) -> list:
    """The dims of the algebras _assoc_modular certifies from now on."""
    certified = []
    modular = StructureAlgebra._assoc_modular

    def spy(self):
        certified.append(self.dim)
        return modular(self)

    monkeypatch.setattr(StructureAlgebra, "_assoc_modular", spy)
    return certified


def test_taft5_is_proven_on_the_exact_path(monkeypatch):
    # Light's certificate, a proof in integers, is the construction check
    # of taft(5); the exact loop over every triple agrees
    certified = _spy_on_the_certificate(monkeypatch)
    alg = taft(5).algebra
    assert certified == [25]
    assert alg.associativity_failure(itertools.product(range(25), repeat=3)) is None


def test_dense_algebra_above_the_cut_takes_the_modular_path(monkeypatch):
    # dense k[Z/n] goes through the certificate at dim 16 and at dim 8 alike
    certified = _spy_on_the_certificate(monkeypatch)
    StructureAlgebra(16, *_dense_group_algebra(16))
    StructureAlgebra(8, *_dense_group_algebra(8))
    assert certified == [16, 8]


def _twisted_taft3_block():
    """The first 27-dim block of the twisted double of taft(3)."""
    d = build_twisted_double(taft(3))
    return split_blocks(d, taft_double_generators(d))[0].algebra


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: taft(3).algebra, id="taft3"),
        pytest.param(lambda: taft(5).algebra, id="taft5"),
        pytest.param(lambda: build_twisted_double(taft(2)).algebra, id="twisted-taft2"),
        pytest.param(_twisted_taft3_block, id="taft3-double-block"),
    ],
)
def test_dim25_algebra_with_a_corrupted_cell_fails_at_its_first_bad_triple(build):
    # double the first nonempty cell (i, j) with i and j outside the unit's
    # support, which no unit law reads (in taft(p), x x)
    alg = build()
    n = alg.dim
    outside = [i for i in range(n) if not alg.unit[i]]
    i, j = next((i, j) for i in outside for j in outside if alg.rows[i][j])
    rows = [list(row) for row in alg.rows]
    rows[i][j] = {k: v * 2 for k, v in rows[i][j].items()}
    bad = StructureAlgebra(n, rows, alg.unit, check="none")
    assert bad.unit_failure() is None
    first = bad.associativity_failure(itertools.product(range(n), repeat=3))
    assert first is not None
    with pytest.raises(AssociativityError) as err:
        StructureAlgebra(n, rows, alg.unit)
    assert err.value.triple == first


def test_element_arithmetic_and_powers():
    a = group_algebra_plain(4)
    g = a.basis_element(1)
    assert g**4 == a.unit_element()
    assert g**-1 == a.basis_element(3)
    h = g + 2 * g**2
    assert h * a.unit_element() == h
    assert (g * h) * g == g * (h * g)


def test_inverse_element():
    a = dual_numbers()
    t = a.basis_element(1)
    assert a.inverse_element(t) is None
    u = a.unit_element() + t
    inv = a.inverse_element(u)
    assert inv is not None
    assert u * inv == a.unit_element()
    with pytest.raises(NotInvertibleError):
        t.inverse()


def test_center_of_matrix_algebra():
    m2 = matrix_algebra_2x2()
    z = m2.center()
    assert z.dim == 1
    assert z.contains(sparse_of(m2.unit))


def test_center_of_commutative_algebra_is_everything():
    a = group_algebra_plain(3)
    assert a.center().dim == 3
    assert a.is_commutative()


def test_radical_semisimple_is_zero():
    assert group_algebra_plain(2).radical().dim == 0
    assert group_algebra_plain(3).radical().dim == 0
    assert matrix_algebra_2x2().radical().dim == 0


def test_radical_of_dual_numbers():
    a = dual_numbers()
    rad = a.radical()
    assert rad.dim == 1
    assert rad.contains({1: c(1)})
    # radical is nilpotent: the product of any two radical elements vanishes here
    t = a.basis_element(1)
    assert (t * t).is_zero()


def test_subalgebra_generated():
    a = group_algebra_plain(6)
    g2 = a.basis_element(2)
    span = a.subalgebra_generated([g2])
    assert span.dim == 3  # unit, g^2, g^4
    assert a.subalgebra_generated([]).dim == 1
    assert a.subalgebra_generated([a.basis_element(1)]).dim == 6


def test_quotient_by_zero_and_by_unit():
    a = group_algebra_plain(3)
    q0 = a.quotient([a.zero_element()])
    assert q0.algebra.dim == 3
    assert q0.algebra.same_structure(a)
    q1 = a.quotient([a.unit_element()])
    assert q1.algebra.dim == 0


def test_quotient_group_algebra():
    # k[Z/4]/(g^2 - 1) collapses to k[Z/2]
    a = group_algebra_plain(4)
    g = a.basis_element(1)
    q = a.quotient([g * g - a.unit_element()])
    assert q.algebra.dim == 2
    assert q.algebra.same_structure(group_algebra_plain(2))
    # projection respects products on a random sample
    rng = random.Random(2)
    for _ in range(10):
        x = a.element([c(rng.randint(-3, 3)) for _ in range(4)])
        y = a.element([c(rng.randint(-3, 3)) for _ in range(4)])
        assert q.project(x * y) == q.project(x) * q.project(y)


def test_central_eigensplit_group_algebra():
    # k[Z/2] splits along g into eigenvalues +1, -1
    a = group_algebra_plain(2)
    g = a.basis_element(1)
    blocks = a.central_eigensplit(g, [c(1), c(-1)])
    assert [blk.algebra.dim for blk in blocks] == [1, 1]
    half = c(1) / c(2)
    idems = [blk.idempotent for blk in blocks]
    expected = [{0: half, 1: half}, {0: half, 1: -half}]  # (1 +/- g)/2
    assert all(i in idems for i in expected) and len(idems) == 2
    for blk in blocks:
        back = blk.embed(blk.algebra.unit_element())
        assert back.terms == blk.idempotent
        assert blk.project(back) == blk.algebra.unit_element()


def test_split_blocks_adopt_the_rows_the_split_built(monkeypatch):
    # a zero block product is the shared empty cell, so each block keeps the
    # row lists of its products instead of copying them
    d = build_twisted_double(taft(3))
    gens = taft_double_generators(d)
    built = []

    class Recording(algebra_module.StructureAlgebra):
        def __init__(self, dim, rows, *args, **kwargs):
            built.append(rows)
            super().__init__(dim, rows, *args, **kwargs)

    monkeypatch.setattr(algebra_module, "StructureAlgebra", Recording)
    blocks = split_blocks(d, gens)
    assert len(built) == len(blocks) == 3
    for blk, rows in zip(blocks, built):
        assert len(blk.algebra.rows) == len(rows) == 27
        assert all(kept is row for kept, row in zip(blk.algebra.rows, rows))


def test_a_pivot_matrix_that_is_not_diagonal_takes_the_product_path():
    # k x k on e_0 = (1, 0) and e_1 = (1, 1) = 1, split by z = e_0: block 0
    # is spanned by e_0 - e_1 (pivot 0), and its idempotent 1 - e_0 sends
    # e_0 to 0, so its table is formed from products (b b = -b for
    # b = e_0 - e_1); block 1, spanned by e_0, is read at its pivot
    rows = [[{0: c(1)}, {0: c(1)}], [{0: c(1)}, {1: c(1)}]]
    a = StructureAlgebra(2, rows, [c(0), c(1)])
    assert a.proven
    blocks = a.central_eigensplit(a.basis_element(0), [c(0), c(1)])
    assert [blk.eigenvalue for blk in blocks] == [c(0), c(1)]
    assert [blk.algebra.associativity for blk in blocks] == ["certificate", "inherited"]
    assert [blk.algebra.rows for blk in blocks] == [[[{0: c(-1)}]], [[{0: c(1)}]]]


def test_central_eigensplit_requires_central():
    m2 = matrix_algebra_2x2()
    e01 = m2.basis_element(1)
    with pytest.raises(AlgebraError):
        m2.central_eigensplit(e01, [c(0)])


def test_central_eigensplit_requires_complete_candidates():
    a = group_algebra_plain(2)
    g = a.basis_element(1)
    with pytest.raises(AlgebraError):
        a.central_eigensplit(g, [c(1)])


def test_eigensplit_invariants_raise_instead_of_asserting(monkeypatch):
    a = group_algebra_plain(2)
    g = a.basis_element(1)
    blocks = a.central_eigensplit(g, [c(1), c(-1)])
    monkeypatch.setattr(Subspace, "coordinates", lambda self, vec: None)
    with pytest.raises(InvariantError, match="idempotent escapes its eigenspace"):
        a.central_eigensplit(g, [c(1), c(-1)])
    with pytest.raises(InvariantError, match="projected component escapes the block"):
        blocks[0].project(g)


def test_check_presentation_cyclic_group():
    a = group_algebra_plain(2)
    g = gen("g")
    report = a.check_presentation({"g": a.basis_element(1)}, [g * g - 1])
    assert report.passed
    assert report.witnesses["generated_dim"] == 2
    bad = a.check_presentation({"g": a.basis_element(1)}, [g * g + 1])
    assert bad.status == "fail"


def test_check_presentation_generation_failure():
    a = group_algebra_plain(4)
    g = gen("g")
    # g^2 satisfies (g^2)^2 = 1 but generates only half the algebra
    report = a.check_presentation({"g": a.basis_element(2)}, [g * g * g * g - 1])
    assert report.status == "fail"
    assert report.witnesses["generated_dim"] == 2


def test_check_presentation_inverse_precondition():
    a = dual_numbers()
    t = gen("t")
    report = a.check_presentation({"t": a.basis_element(1)}, [t.inv * t - 1])
    assert report.status == "precondition-failed"


def test_free_expression_repr_round_trip_eval():
    a = group_algebra_plain(3)
    g = gen("g")
    expr = 2 * g**2 - g.inv + 1
    val = expr.evaluate({"g": a.basis_element(1)}, a)
    expected = (
        2 * a.basis_element(2) - a.basis_element(2) + a.unit_element()
    )  # g^-1 = g^2 in Z/3
    assert val == expected
    assert "g" in repr(expr)


def test_zero_dim_algebra_is_legal():
    z = StructureAlgebra(0, [], (), check="none")
    assert z.dim == 0
    assert z.center().dim == 0
    assert z.radical().dim == 0


def _twisted_group_algebra(n: int, order: int) -> StructureAlgebra:
    """k[Z/n] twisted by the 2-cocycle zeta_order^(i j) (order divides n), on
    the basis e_i / (i + 1), so that its constants have denominators."""
    z = root_of_unity(order)
    rows = [
        [{(i + j) % n: z ** (i * j) * c(i + 1) * c(j + 1) / c((i + j) % n + 1)} for j in range(n)]
        for i in range(n)
    ]
    return StructureAlgebra(n, rows, [c(1)] + [c(0)] * (n - 1), check="none")


def test_certificate_modulus_exceeds_the_norm_bound(monkeypatch):
    # the modulus must exceed (2 n H^2)^phi(N), H the largest sum of
    # |coordinates| of a constant scaled by the common denominator D
    moduli = []
    light_modulus = algebra_module._light_modulus

    def spy(order, bound):
        moduli.append(light_modulus(order, bound)[1])
        return light_modulus(order, bound)

    monkeypatch.setattr(algebra_module, "_light_modulus", spy)
    algebras = [StructureAlgebra(10, *_dense_group_algebra(10), check="none")]
    algebras += [_twisted_group_algebra(order, order) for order in (3, 4, 5, 12)]
    assert [alg.order for alg in algebras] == [1, 3, 4, 5, 12]
    for alg in algebras:
        values = [v for row in alg.rows for cell in row for v in cell.values()]
        den = 1
        for v in values:
            den = den * v.den // math.gcd(den, v.den)
        height = max(sum(abs(x) for x in v.num) * den // v.den for v in values)
        moduli.clear()
        assert alg._assoc_modular() is None
        assert len(moduli) == 1
        assert moduli[0] > (2 * alg.dim * height * height) ** phi_degree(alg.order)
    assert DEFAULT_EXHAUSTIVE_LIMIT == 230


def test_corrupted_101_dim_algebra_is_rejected():
    # only a few triples break, so a sample can miss them; at dim 101 the
    # modular certificate covers all
    n, rows, unit = _corrupted_matrix_algebra(10)
    with pytest.raises(AssociativityError) as err:
        StructureAlgebra(n, rows, unit)
    assert err.value.triple == (1, 10, 2)
    alg = StructureAlgebra(n, rows, unit, check="none")
    assert not alg._assoc_triple_exact(1, 10, 2)


def _idempotents(n: int):
    """(rows, unit) of Q^n on its idempotents: e_i e_i = e_i, unit their sum.
    Every cell of Q^n is read by a unit law, so a copy with one changed cell
    breaks one; the tests that certify such a copy switch the unit check off
    to reach the associativity check."""
    rows = [[{i: c(1)} if i == j else {} for j in range(n)] for i in range(n)]
    return rows, [c(1)] * n


def _triples_with_a_term(alg):
    """The basis triples (i, j, k) in row-major order, less those whose cells
    c[i][j] and c[j][k] are both empty: there (e_i e_j) e_k and
    e_i (e_j e_k) are both empty sums, so the exact loop over these triples
    reports what it reports over every triple."""
    n, rows = alg.dim, alg.rows
    nonempty = [[k for k in range(n) if row[k]] for row in rows]
    for i, j in itertools.product(range(n), repeat=2):
        for k in range(n) if rows[i][j] else nonempty[j]:
            yield i, j, k


def test_forced_modular_check_proves_dim_231_and_rejects_a_corrupted_copy(monkeypatch):
    n = DEFAULT_EXHAUSTIVE_LIMIT + 1
    rows, unit = _idempotents(n)
    StructureAlgebra(n, rows, unit, check="modular")
    StructureAlgebra(n, rows, unit)  # auto samples above the limit
    # a built algebra may keep the row lists it was given: copy row 228 first
    rows[228] = list(rows[228])
    rows[228][229] = {230: c(1)}
    monkeypatch.setattr(StructureAlgebra, "unit_failure", lambda self: None)
    bad = StructureAlgebra(n, rows, unit, check="none")
    first = bad.associativity_failure(_triples_with_a_term(bad))
    with pytest.raises(AssociativityError) as modular:
        StructureAlgebra(n, rows, unit, check="modular")
    assert modular.value.triple == first == (228, 228, 229)


def test_certificate_needs_39_generators_of_q40_and_finds_a_corrupted_cell(monkeypatch):
    # greedy S: span{1} misses e_0, ..., e_38, and e_39 = 1 - e_0 - ... - e_38
    picked = []
    light_generators = algebra_module._light_generators

    def spy(alg, den):
        picked.append(light_generators(alg, den))
        return picked[-1]

    monkeypatch.setattr(algebra_module, "_light_generators", spy)
    rows, unit = _idempotents(40)
    StructureAlgebra(40, rows, unit, check="modular")
    assert picked == [list(range(39))]
    # e_37 e_38 = e_39 breaks only triples whose middle index is 37, 38 or
    # 39, so a generating set short of e_37 would pass the copy; row 37 is
    # copied first, since a built algebra may keep the row lists it was given
    rows[37] = list(rows[37])
    rows[37][38] = {39: c(1)}
    monkeypatch.setattr(StructureAlgebra, "unit_failure", lambda self: None)
    first = StructureAlgebra(40, rows, unit, check="none").associativity_failure(
        itertools.product(range(40), repeat=3)
    )
    with pytest.raises(AssociativityError) as modular:
        StructureAlgebra(40, rows, unit, check="modular")
    assert modular.value.triple == first == (37, 37, 38)


def test_certificate_sees_an_associator_of_seven():
    # k[Z/3] with e_1 e_1 = 8 e_2: every associator is +-7 e_k, so a modulus
    # that divides 7 would pass it
    rows = [[{(i + j) % 3: c(1)} for j in range(3)] for i in range(3)]
    rows[1][1] = {2: c(8)}
    unit = [c(1), c(0), c(0)]
    first = StructureAlgebra(3, rows, unit, check="none").associativity_failure(
        itertools.product(range(3), repeat=3)
    )
    with pytest.raises(AssociativityError) as modular:
        StructureAlgebra(3, rows, unit, check="modular")
    assert modular.value.triple == first == (1, 1, 2)


@pytest.mark.parametrize("seed", range(8))
def test_certificate_agrees_with_the_exact_loop_on_random_algebras(seed):
    # unital and mostly not associative: the certificate's verdict and
    # witness are the exact loop's over every triple
    alg = _random_sparse_algebra(7, seed)
    assert alg._assoc_modular() == alg.associativity_failure(itertools.product(range(7), repeat=3))


def test_certificate_checks_raise_instead_of_asserting(monkeypatch):
    # the bound on the modulus and the exact re-check of a witness survive
    # python -O
    n, rows, unit = _corrupted_matrix_algebra(4)
    monkeypatch.setattr(algebra_module, "_light_modulus", lambda order, bound: (bound + 2, bound))
    with pytest.raises(InvariantError, match="does not exceed"):
        StructureAlgebra(n, rows, unit, check="modular")
    monkeypatch.undo()
    monkeypatch.setattr(StructureAlgebra, "_assoc_triple_exact", lambda self, i, j, k: True)
    with pytest.raises(InvariantError, match="associates exactly"):
        StructureAlgebra(n, rows, unit, check="modular")


def test_auto_check_counts_no_products_above_the_modular_limit(monkeypatch):
    # above DEFAULT_EXHAUSTIVE_LIMIT auto samples: the certificate does not
    # run (the 625-dim doubles never pay it)
    def refuse(self):
        raise AssertionError(f"{self.name}: the modular certificate ran")

    monkeypatch.setattr(StructureAlgebra, "_assoc_modular", refuse)
    n = DEFAULT_EXHAUSTIVE_LIMIT + 1
    rows = [[{i: c(1)} if i == j else {} for j in range(n)] for i in range(n)]
    StructureAlgebra(n, rows, [c(1)] * n)


def _corrupted_matrix_algebra(m: int):
    """M_m + Q with E_01 E_12 changed to 2 E_02 (unit laws still hold)."""
    n = m * m + 1
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for a in range(m):
        for b in range(m):
            for d in range(m):
                rows[a * m + b][b * m + d] = {a * m + d: c(1)}
    rows[n - 1][n - 1] = {n - 1: c(1)}
    rows[1][m + 2] = {2: c(2)}
    unit = [c(1 if (i < m * m and i // m == i % m) or i == n - 1 else 0) for i in range(n)]
    return n, rows, unit


@pytest.mark.parametrize("slack", [1, 100, 1 << 20])
def test_certificate_blocks_report_the_first_failing_triple(monkeypatch, slack):
    # whatever modulus above the bound the certificate works in, the witness
    # is the lexicographically first failing triple, as the exact triple
    # loop finds
    light_modulus = algebra_module._light_modulus
    n, rows, unit = _corrupted_matrix_algebra(4)
    first = StructureAlgebra(n, rows, unit, check="none").associativity_failure(
        itertools.product(range(n), repeat=3)
    )
    monkeypatch.setattr(
        algebra_module, "_light_modulus", lambda order, bound: light_modulus(order, bound + slack)
    )
    with pytest.raises(AssociativityError) as modular:
        StructureAlgebra(n, rows, unit, check="modular")
    assert modular.value.triple == first == (1, 4, 2)
    # k[Z/3] with e_1 e_2 = 2 e_0: the first failing pair (1, 1) fails at
    # k = 1 and at k = 2, and the witness takes the least k
    rows = [[{(i + j) % 3: c(1)} for j in range(3)] for i in range(3)]
    rows[1][2] = {0: c(2)}
    unit = [c(1), c(0), c(0)]
    alg = StructureAlgebra(3, rows, unit, check="none")
    assert [k for k in range(3) if not alg._assoc_triple_exact(1, 1, k)] == [1, 2]
    with pytest.raises(AssociativityError) as modular:
        StructureAlgebra(3, rows, unit, check="modular")
    assert modular.value.triple == (1, 1, 1)


def test_algebra_map_failure_finds_the_first_broken_pair():
    # the quotient projection is an algebra map; doubling e_1 of k[Z/3]
    # first breaks at e_1 e_1 = e_2: the images multiply to 4 e_2, not e_2
    a = group_algebra_plain(6)
    q = a.quotient([a.basis_element(3) - a.unit_element()])
    pcols = q.projection.transpose().data
    assert a.map_failure(pcols, lambda i, j: q.algebra.mul_sparse(pcols[i], pcols[j])) is None
    b = group_algebra_plain(3)
    cols = [b.basis_sparse(0), {1: c(2)}, b.basis_sparse(2)]
    assert b.map_failure(cols, lambda i, j: b.mul_sparse(cols[i], cols[j])) == (1, 1)


def counted(product, calls):
    def spy(i, j):
        calls.append((i, j))
        return product(i, j)

    return spy


def test_map_failure_checks_the_generator_pairs_only_when_the_lemma_applies():
    # k[Z/3] is proven with S = [1]: given an associative target's unit
    # that the map sends 1 to, only the pairs (1, j) are compared
    a = group_algebra_plain(3)
    assert a.associativity == "certificate" and a.light_generators == [1]
    cols = [a.basis_sparse(t) for t in range(3)]
    calls = []
    product = counted(lambda i, j: a.mul_sparse(cols[i], cols[j]), calls)
    assert a.map_failure(cols, product, a._unit_terms) is None
    assert calls == [(1, 0), (1, 1), (1, 2)]
    for unit in (None, {0: c(2)}):  # no target unit, or one that 1 does not map to
        calls.clear()
        assert a.map_failure(cols, product, unit) is None
        assert calls == list(itertools.product(range(3), repeat=2))
    # an unchecked source has no proof to use
    calls.clear()
    assert group_algebra_plain(3, check="none").map_failure(cols, product, a._unit_terms) is None
    assert len(calls) == 9


def test_map_failure_reports_the_full_scans_pair_whatever_generating_set_is_kept():
    # with Light's greedy S the first failing row is always a generator: a
    # row before it lies in the subalgebra that the generators before it
    # generate.  Kept with S = [2] (a^2 also generates k[Z/3]), phi(a) = 2 a
    # first fails at (1, 1), and the generator pairs first fail at (2, 1);
    # the full scan after that failure reports (1, 1)
    a = group_algebra_plain(3)
    a.light_generators = [2]
    cols = [a.basis_sparse(0), {1: c(2)}, a.basis_sparse(2)]
    calls = []
    product = counted(lambda i, j: a.mul_sparse(cols[i], cols[j]), calls)
    assert a.map_failure(cols, product, a._unit_terms) == (1, 1)
    assert calls[:3] == [(2, 0), (2, 1), (0, 0)]


def test_a_map_that_does_not_send_one_to_one_takes_the_full_scan():
    # on k[t]/(t^2), S = [1] (t), phi(1) = 2 and phi(t) = 0 into k pass both
    # generator pairs (t, 1) and (t, t), yet phi(1 1) = 2 != 4 = phi(1) phi(1)
    a = dual_numbers()
    assert a.light_generators == [1]
    eps = [{0: c(2)}, {}]

    def product(i, j):
        return {0: x * y for x in eps[i].values() for y in eps[j].values()}

    assert all(product(1, j) == lincomb(eps, a.rows[1][j]) for j in range(2))
    assert a.map_failure(eps, product, {0: c(1)}) == (0, 0)


@pytest.mark.parametrize("target", ["sampled", "unchecked", "proven"])
def test_algebra_maps_into_an_unproven_target_take_the_full_scan(monkeypatch, target):
    # the identity of k[Z/3] into a copy of it: a proven copy is compared on
    # the generator pairs (1, j), a sampled or unchecked one on every pair
    a = group_algebra_plain(3)
    if target == "sampled":
        monkeypatch.setattr(algebra_module, "DEFAULT_EXHAUSTIVE_LIMIT", 2)
    b = group_algebra_plain(3, check="none" if target == "unchecked" else "auto")
    assert b.associativity == {"sampled": "sampled", "unchecked": "unchecked"}.get(target, "certificate")
    calls = []
    mul_sparse = b.mul_sparse
    b.mul_sparse = lambda u, v: calls.append(1) or mul_sparse(u, v)
    report = check_algebra_map(a, b, Matrix.identity(3))
    assert report.passed
    assert len(calls) == (3 if target == "proven" else 9)


def test_an_unchecked_nonassociative_target_reports_its_first_broken_pair():
    # in b, e_2 e_2 = 2 e_1 instead of e_1: b is not associative, yet the
    # generator pairs (1, j) of the identity map all hold; the full scan,
    # which an unchecked target gets, finds (2, 2)
    a = group_algebra_plain(3)
    rows = [[{(i + j) % 3: c(1)} for j in range(3)] for i in range(3)]
    rows[2][2] = {1: c(2)}
    b = StructureAlgebra(3, rows, a.unit, check="none")
    report = check_algebra_map(a, b, Matrix.identity(3))
    assert report.witnesses["multiplicative"] == {"holds": False, "first_failure": (2, 2)}


def test_is_central_compares_the_generators_not_their_complement():
    # M_2 is proven with S = E00, E01, E10; E00 commutes with E11, the
    # complement of S, but not with E01
    m2 = matrix_algebra_2x2()
    assert m2.light_generators == [0, 1, 2]
    e00 = m2.basis_element(0)
    assert e00 * m2.basis_element(3) == m2.basis_element(3) * e00
    assert not m2.is_central(e00)
    assert m2.is_central(m2.unit_element() * c(3))


def exact_closure(alg, gens):
    """The closure of the unit's span under right multiplication by gens,
    computed exactly with EchelonBasis (the reference for
    subalgebra_generated)."""
    eb = EchelonBasis(alg.dim)
    eb.add(alg.unit_element().terms)
    frontier = [alg.unit_element().terms]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = alg.mul_sparse(v, g.terms)
                if eb.add(w):
                    new.append(w)
        frontier = new
    return Subspace(eb)


def test_generation_modulo_a_prime_matches_the_exact_closure():
    # x and g generate taft(3); g alone, and x alone, do not, and the
    # subspace they generate is the exact closure's, not the whole space
    h = taft(3).algebra
    x, g = h.basis_element(1), h.basis_element(3)
    for gens, dim in (([x, g], 9), ([g], 3), ([x], 3), ([x + g, g], 9), ([], 1)):
        got = h.subalgebra_generated(gens)
        assert got.dim == dim
        assert got == exact_closure(h, gens)
