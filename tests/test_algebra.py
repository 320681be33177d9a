"""Structure-constant algebra tests: construction checks, center, radical,
quotients, closures, presentations, central splitting."""

import random

import pytest

from hopfcheck import algebra as algebra_module
from hopfcheck.algebra import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    EMPTY_CELL,
    MODULAR_LIMIT,
    PRIME_CEILING,
    AlgebraError,
    AssociativityError,
    ModularOverflowError,
    NotInvertibleError,
    StructureAlgebra,
    UnitLawError,
    _blocks,
    gen,
)
from hopfcheck.cyclotomic import Cyclotomic, root_of_unity
from hopfcheck.linalg import InvariantError, Subspace, sparse_of


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
    # cell (0, 1) gains a zero and cell (0, 2) holds an order-1 one
    z = root_of_unity(3)
    rows = [[{(i + j) % 3: z ** (i * j)} for j in range(3)] for i in range(3)]
    rows[0][1] = {1: z**0, 2: Cyclotomic.zero(3)}
    rows[0][2] = {2: c(1)}
    given = [[dict(cell) for cell in row] for row in rows]
    alg = StructureAlgebra(3, rows, [c(1), c(0), c(0)], check="pure")
    assert alg.order == 3
    assert alg.rows[1][2] is rows[1][2]
    assert alg.rows[0][1] is not rows[0][1] and alg.rows[0][1] == {1: z**0}
    assert alg.rows[0][2] is not rows[0][2] and alg.rows[0][2] == {2: z**0}
    assert alg.rows[0][2][2].order == 3
    assert [[dict(cell) for cell in row] for row in rows] == given
    assert rows[0][1][2].order == 3 and rows[0][2][2].order == 1


def test_construction_shares_one_empty_cell():
    # k[t]/(t^2) with the product t t = 0 spelled as a zero coefficient
    rows = [[{0: c(1)}, {1: c(1)}], [{1: c(1)}, {1: c(0)}]]
    alg = StructureAlgebra(2, rows, [c(1), c(0)], name="k[t]/(t^2)")
    assert alg.rows[1][1] is EMPTY_CELL and rows[1][1] == {1: c(0)}
    assert alg.same_structure(dual_numbers())
    with pytest.raises(TypeError):
        alg.rows[1][1][0] = c(1)


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
    # same algebra checked both ways; also verify the modular path catches breakage
    a = group_algebra_plain(6, check="pure")
    b = group_algebra_plain(6, check="modular")
    assert a.same_structure(b)
    broken = [[{(i + j) % 5: c(1)} for j in range(5)] for i in range(5)]
    broken[3][4] = {2: c(1), 0: c(1)}
    with pytest.raises(AssociativityError):
        StructureAlgebra(5, broken, [c(1), c(0), c(0), c(0), c(0)], check="modular")


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
    StructureAlgebra(3, rows, [c(1), c(0), c(0)], check="pure")


def test_sampled_check_path():
    # force the sampled path on a small broken algebra; the seed makes it deterministic
    broken = [[{(i + j) % 5: c(1)} for j in range(5)] for i in range(5)]
    broken[3][4] = {2: c(1), 0: c(1)}
    with pytest.raises(AssociativityError):
        StructureAlgebra(
            5,
            broken,
            [c(1), c(0), c(0), c(0), c(0)],
            check="sample",
        )


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


def test_quotient_with_generator_multipliers_matches_full_closure():
    a = group_algebra_plain(6)
    g = a.basis_element(1)
    target = a.basis_element(3) - a.unit_element()  # g^3 - 1
    full = a.quotient([target])
    viagen = a.quotient([target], multipliers=[g])
    assert full.algebra.dim == viagen.algebra.dim == 3
    assert full.ideal == viagen.ideal


def test_quotient_multipliers_must_generate():
    a = group_algebra_plain(6)
    g2 = a.basis_element(2)
    with pytest.raises(AlgebraError):
        a.quotient([a.basis_element(3) - a.unit_element()], multipliers=[g2])


def test_central_eigensplit_group_algebra():
    # k[Z/2] splits along g into eigenvalues +1, -1
    a = group_algebra_plain(2)
    g = a.basis_element(1)
    blocks = a.central_eigensplit(g, [c(1), c(-1)])
    assert [blk.algebra.dim for blk in blocks] == [1, 1]
    half = c(1) / c(2)
    idems = [tuple(blk.idempotent) for blk in blocks]
    expected = [(half, half), (half, -half)]  # (1 +/- g)/2
    assert all(i in idems for i in expected) and len(idems) == 2
    for blk in blocks:
        back = blk.embed(blk.algebra.unit_element())
        assert tuple(back.coords) == tuple(blk.idempotent)
        assert blk.project(back) == blk.algebra.unit_element()


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


def test_limits_keep_the_modular_certificate_in_int64():
    assert DEFAULT_EXHAUSTIVE_LIMIT == MODULAR_LIMIT == 230
    assert MODULAR_LIMIT * (PRIME_CEILING - 1) ** 2 <= 2**63 - 1
    assert (MODULAR_LIMIT + 1) * (PRIME_CEILING - 1) ** 2 > 2**63 - 1


def test_corrupted_101_dim_algebra_is_rejected():
    # only a few triples break, so a sample can miss them; at dim 101 the
    # modular certificate covers all
    n, rows, unit = _corrupted_matrix_algebra(10)
    with pytest.raises(AssociativityError) as err:
        StructureAlgebra(n, rows, unit)
    assert err.value.triple == (1, 10, 2)
    alg = StructureAlgebra(n, rows, unit, check="none")
    assert not alg._assoc_triple_exact(1, 10, 2)


def test_forced_modular_check_refuses_overflow():
    n = MODULAR_LIMIT + 1
    rows = [[{i: c(1)} if i == j else {} for j in range(n)] for i in range(n)]
    unit = [c(1)] * n
    with pytest.raises(ModularOverflowError):
        StructureAlgebra(n, rows, unit, check="modular")
    StructureAlgebra(n, rows, unit)  # auto samples above the limit


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


@pytest.mark.parametrize("budget", [1, 100, algebra_module.CERT_BLOCK_ENTRIES])
def test_certificate_blocks_report_the_first_failing_triple(monkeypatch, budget):
    # one block per i, a few blocks, one block: the witness is always the
    # lexicographically first failing triple, as the exact triple loop finds
    n, rows, unit = _corrupted_matrix_algebra(4)
    with pytest.raises(AssociativityError) as pure:
        StructureAlgebra(n, rows, unit, check="pure")
    monkeypatch.setattr(algebra_module, "CERT_BLOCK_ENTRIES", budget)
    with pytest.raises(AssociativityError) as modular:
        StructureAlgebra(n, rows, unit, check="modular")
    assert modular.value.triple == pure.value.triple == (1, 4, 2)


def test_certificate_blocks_cover_every_index():
    assert _blocks([5, 5, 5, 5], 10) == [(0, 2), (2, 4)]
    assert _blocks([50, 1, 1, 50], 10) == [(0, 1), (1, 3), (3, 4)]
    assert _blocks([0, 0], 1) == [(0, 2)]
