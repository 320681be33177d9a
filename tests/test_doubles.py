"""Double constructions: twisted double internals, generator relations,
block structure, classical doubles and the pivot comparison, module checks."""

import hashlib
import inspect
import itertools
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import hopfcheck
from hopfcheck.algebra import EMPTY_CELL, AlgebraError, StructureAlgebra, UnitLawError
from hopfcheck.cyclotomic import Cyclotomic
from hopfcheck import algebra as algebra_module
from hopfcheck import doubles as doubles_module
from hopfcheck.hopf import HopfData, check_algebra_map, dual_hopf, group_algebra, taft
from hopfcheck.linalg import InvariantError, Matrix, _axpy, dense_of, minimal_polynomial
from hopfcheck.doubles import (
    ClassicalDouble,
    TwistedDouble,
    build_classical_double,
    build_twisted_double,
    check_block_split,
    check_cross_relation,
    check_double_unital_associative,
    check_generator_presentation,
    check_mixed_module,
    check_module_action,
    check_sigma_block_forms_p2,
    check_sigma_central_invertible,
    check_stable_module,
    check_straightening,
    regular_mixed_module,
    split_blocks,
    taft_double_generators,
    taft_eigencomponents,
    uhu_map,
    uqsl2_check,
    verify_sigma_graded_action,
)

c = Cyclotomic.coerce


@pytest.fixture(scope="module")
def d2():
    return build_twisted_double(taft(2))


@pytest.fixture(scope="module")
def d3():
    return build_twisted_double(taft(3))


def taft_parts(d):
    """Generators, block split and (g', g) eigencomponents of a Taft double."""
    gens = taft_double_generators(d)
    return gens, split_blocks(d, gens), taft_eigencomponents(d, gens)


def tidx(p, i, j):
    return i * p + j


# -- twisted double construction ----------------------------------------


def test_twisted_double_trivial_base():
    d = build_twisted_double(group_algebra(1))
    assert d.algebra.dim == 1
    assert d.sigma == d.one


def test_twisted_double_group_algebra_is_commutative():
    # cocommutative base with S^2 = id: End(H) becomes H (x) H^* with
    # componentwise structure, hence commutative for an abelian group
    for n in (2, 3):
        d = build_twisted_double(group_algebra(n))
        assert d.algebra.dim == n * n
        assert d.algebra.is_commutative()
        assert check_double_unital_associative(d).passed


def _taft3_doubles(ctx):
    return [
        ctx.twisted_taft(3).algebra,
        ctx.classical_taft(3, "drinfeld").algebra,
        ctx.classical_taft(3, "anti").algebra,
    ]


def test_empty_cells_of_the_doubles_are_the_one_read_only_cell(shared_ctx):
    for alg in _taft3_doubles(shared_ctx):
        cells = [cell for row in alg.rows for cell in row]
        empty = [cell for cell in cells if not cell]
        assert empty and all(cell is EMPTY_CELL for cell in empty)
        with pytest.raises(TypeError):
            empty[0][0] = c(1)
    assert not EMPTY_CELL


def test_doubles_share_one_object_per_distinct_scalar(shared_ctx):
    for alg in _taft3_doubles(shared_ctx):
        values = [v for row in alg.rows for cell in row for v in cell.values()]
        distinct = {(v.order, v.num, v.den) for v in values}
        assert len({id(v) for v in values}) == len(distinct) < len(values)


def test_p5_doubles_share_one_key_object_per_index():
    # CPython caches only the ints up to 256, so a key computed per cell
    # would be a new object above it (111,707 objects per 625-dim double)
    h = taft(5)
    for d in (build_twisted_double(h), build_classical_double(h, "anti")):
        alg = d.algebra
        keys = {id(k) for row in alg.rows for cell in row for k in cell}
        assert alg.dim == 625 and len(keys) <= alg.dim


def constants_digest(alg):
    """sha256 of every structure constant, as repr((i, j, k, order, num, den))
    per cell in row order with k sorted, then of the unit's (order, num, den)."""
    h = hashlib.sha256()
    for i, row in enumerate(alg.rows):
        for j, cell in enumerate(row):
            for k in sorted(cell):
                v = cell[k]
                h.update(repr((i, j, k, v.order, v.num, v.den)).encode())
    h.update(repr([(v.order, v.num, v.den) for v in alg.unit]).encode())
    return h.hexdigest()


# recorded before the builders shared their embedding helper and sandwich
# kernel; any change of a constant, of its scalar's representation or of the
# unit changes a digest
CONSTANTS_DIGESTS = {
    ("taft2", "twisted"): "607b8ae4291d4b3dc4fd4860dcc4e33346524e7b8c3eccaa0b094b97bfbd80c7",
    ("taft2", "drinfeld"): "cd5a0b6c7ff023fe4a22d58c3351a4e440c133b57ccde961ce56dcf99c8a01ec",
    ("taft2", "anti"): "baf0a1a62a5dd3616907011510a495cfe1010278095aa2110abefa3903b7843b",
    ("taft3", "twisted"): "29fc3389006ced4ebf44a454d23c3838e4eab068c7f293ea5b7dc54ad4a3924e",
    ("taft3", "drinfeld"): "2223ef8253c4b8af4832add91a560a824523a8d377c78e33b544606370fa6dca",
    ("taft3", "anti"): "f514f2b0d0d60e360096f884eb2ee1814a4bb764874da544300cc7e3959e2128",
    ("kZ3", "twisted"): "301c7c6e8bb90e317378b3b3eb3fabfe4590f30ceb7ae0561b8e2627911e4603",
    ("kZ3", "drinfeld"): "cb7210cae4337e94a6638e080caefd0ec52ce5b3caf99be6b2977b5f879cae10",
    ("kZ3", "anti"): "cb7210cae4337e94a6638e080caefd0ec52ce5b3caf99be6b2977b5f879cae10",
}


@pytest.mark.parametrize("base, flavor", sorted(CONSTANTS_DIGESTS))
def test_double_structure_constants_are_pinned(shared_ctx, base, flavor):
    if base == "kZ3":
        h = group_algebra(3)
        d = build_twisted_double(h) if flavor == "twisted" else build_classical_double(h, flavor)
    elif flavor == "twisted":
        d = shared_ctx.twisted_taft(int(base[-1]))
    else:
        d = shared_ctx.classical_taft(int(base[-1]), flavor)
    assert constants_digest(d.algebra) == CONSTANTS_DIGESTS[(base, flavor)]


def _in_summed_basis(h: HopfData) -> HopfData:
    """h in the basis f_a = e_a + e_(a+1) + ... + e_(n-1), so e_a = f_a - f_(a+1):
    its structure constants are sums, and in the double builders terms meet
    in a cell, add up and cancel, which they never do in the monomial bases."""
    n = h.dim
    one = c(1)

    def to_f(vec):
        out: dict = {}
        for a, v in vec.items():
            _axpy(out, None, {a: v})
            if a + 1 < n:
                _axpy(out, None, {a + 1: -v})
        return out

    def f(a):
        return {i: one for i in range(a, n)}

    alg = h.algebra
    rows = [[to_f(alg.mul_sparse(f(a), f(b))) for b in range(n)] for a in range(n)]
    comult = []
    for a in range(n):
        col: dict = {}
        for flat, v in h.comult_of(f(a)).items():
            u, w = divmod(flat, n)
            for s, cs in to_f({u: v}).items():
                for t, ct in to_f({w: one}).items():
                    _axpy(col, None, {s * n + t: cs * ct})
        comult.append(col)
    antipode = []
    for a in range(n):
        col = {}
        for i in range(a, n):
            for k, v in h.antipode_col(i).items():
                _axpy(col, None, {k: v})
        antipode.append(to_f(col))
    return HopfData(
        StructureAlgebra(n, rows, dense_of(to_f(alg.unit_element().terms), n)),
        comult, [h.counit_of(f(a)) for a in range(n)], Matrix.from_columns(antipode, n),
        name=f"{h.name} in a summed basis",
    )


# recorded with the builders that pooled every sum through (order, num, den)
# keys and computed each term's product afresh
SUMMED_BASIS_DIGESTS = {
    ("kZ3", "twisted"): "c1d0c707235c02d37c7088cce04f4b4353c171268d30d095af279cbf6e9f67e1",
    ("kZ3", "drinfeld"): "e609b94ee4ecaf111224c314a878d4147fc3977ed3e9d0db94a39e6a32bd19d4",
    ("kZ3", "anti"): "e609b94ee4ecaf111224c314a878d4147fc3977ed3e9d0db94a39e6a32bd19d4",
    ("taft2", "twisted"): "45dbf43d889d3e00fbd1cbdc3f9e62629099bd3669847abfee1cbc4e229ecc06",
    ("taft2", "drinfeld"): "cd263884641e71467a49b196c514f3a4ed8a806206c57902ad1b2dd078a0fb17",
    ("taft2", "anti"): "97fa3d1638bb84a3f709660db62396287faa5738ae8e032b203c739d1799dd7c",
}


@pytest.mark.parametrize("base, flavor", sorted(SUMMED_BASIS_DIGESTS))
def test_doubles_that_add_and_cancel_terms_are_pinned(monkeypatch, base, flavor):
    h = _in_summed_basis(group_algebra(3) if base == "kZ3" else taft(2))
    sums = []
    accumulate = doubles_module._accumulate

    def counting(cell, key, s, pool):
        sums.append(bool(s))
        accumulate(cell, key, s, pool)

    monkeypatch.setattr(doubles_module, "_accumulate", counting)
    d = build_twisted_double(h) if flavor == "twisted" else build_classical_double(h, flavor)
    # both the nonzero sums and the cancellations were taken
    assert True in sums and False in sums
    assert constants_digest(d.algebra) == SUMMED_BASIS_DIGESTS[(base, flavor)]


# the anti double of taft(5), pinned before its builder kept a product table
# keyed by operand ids; the CI workflow pins all three p = 5 doubles
P5_ANTI_DIGEST = "f8cb4bb9a7131ef91c2dbfcd0bcba11833e7080ccac3f42e271dde22f9c8b3b4"

_P5_ANTI_BUILD = """
import sys
from hopfcheck.doubles import build_classical_double
from hopfcheck.hopf import taft
print(constants_digest(build_classical_double(taft(5), "anti").algebra))
print(sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"}))
"""


def test_p5_build_keeps_its_constants_and_loads_neither_numpy_nor_scipy():
    # taft(5) is proven by the exact triple check, and the 625-dim double
    # samples; in a fresh process neither loads numpy or scipy
    script = "import hashlib\n" + inspect.getsource(constants_digest) + _P5_ANTI_BUILD
    src = os.path.dirname(os.path.dirname(hopfcheck.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:2] == [P5_ANTI_DIGEST, "[]"]


_SIGMA_NOT_CENTRAL = """
import sys
from hopfcheck.algebra import StructureAlgebra
from hopfcheck.doubles import build_twisted_double
from hopfcheck.hopf import group_algebra
from hopfcheck.linalg import InvariantError

StructureAlgebra.is_central = lambda self, a: False
try:
    build_twisted_double(group_algebra(2))
except InvariantError as exc:
    print(sys.flags.optimize, exc)
    sys.exit(0)
sys.exit(1)
"""


def test_build_invariants_survive_optimize(monkeypatch):
    monkeypatch.setattr(StructureAlgebra, "is_central", lambda self, a: False)
    with pytest.raises(InvariantError, match="identity map must be central"):
        build_twisted_double(group_algebra(2))
    with pytest.raises(InvariantError, match="sigma must be central in the anti flavor"):
        build_classical_double(group_algebra(2), "anti")
    src = os.path.dirname(os.path.dirname(hopfcheck.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", _SIGMA_NOT_CENTRAL], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "1 identity map must be central"


def test_twisted_double_internals(d2, d3):
    for d in (d2, d3):
        assert check_double_unital_associative(d).passed
        assert check_sigma_central_invertible(d).passed
        assert check_cross_relation(d).passed


def test_twisted_double_embeddings_are_algebra_maps(d2):
    # H and H^* embed into D(H) as unital algebra maps of rank n, not n^2
    h = d2.base
    n = h.dim
    cols = [d2.embed_hopf(h.algebra.basis_sparse(k)).terms for k in range(n)]
    dual = dual_hopf(h)
    dcols = [d2.embed_dual({dpos: c(1)}).terms for dpos in range(n)]
    for src, embedding in ((h, cols), (dual, dcols)):
        rep = check_algebra_map(src.algebra, d2.algebra, Matrix.from_columns(embedding, n * n))
        assert rep.witnesses["unit"]["holds"]
        assert rep.witnesses["multiplicative"]["holds"]
        assert rep.witnesses["bijective"] == {"holds": False, "rank": n}


def test_twisted_double_pbw_basis(d2):
    # iota(e^b) * iota(e_a) is the elementary map E_ab on the nose
    h = d2.base
    n = h.dim
    for a in range(n):
        ha = d2.embed_hopf(h.algebra.basis_sparse(a))
        for b in range(n):
            chi = d2.embed_dual({b: c(1)})
            expected = d2.algebra.basis_element(d2.flat(a, b))
            assert chi * ha == expected


# -- generator relations -------------------------------------------------


def test_generator_presentation(d2, d3):
    for d, p in ((d2, 2), (d3, 3)):
        rep = check_generator_presentation(d, taft_double_generators(d))
        assert rep.passed, rep.witnesses
        assert rep.witnesses["generated_dim"] == p**4
        assert rep.witnesses["gg'"] == {"central": True, "pth-power-is-one": True}


def test_generators_require_taft_base():
    d = build_twisted_double(group_algebra(2))
    with pytest.raises(ValueError):
        taft_double_generators(d)


def test_block_split(d2, d3):
    for d, p in ((d2, 2), (d3, 3)):
        blocks = split_blocks(d, taft_double_generators(d))
        rep = check_block_split(d, blocks)
        assert rep.passed, rep.witnesses
        assert len(blocks) == p
        assert all(blk.algebra.dim == p**3 for blk in blocks)


def cells(rows):
    """A table's cells as (key, order, num, den) lists, so that equal tables
    also agree on how each value is held."""
    return [[sorted((k, v.order, v.num, v.den) for k, v in cell.items()) for cell in row]
            for row in rows]


def test_pivot_read_blocks_equal_the_product_path_cell_by_cell(d2, d3):
    # a proven double's blocks are read at the pivot cells and inherit its
    # proof; each table is the one the block products give
    for d in (d2, d3):
        assert d.algebra.proven
        for blk in split_blocks(d, taft_double_generators(d)):
            assert blk.algebra.associativity == "inherited"
            assert blk.algebra.light_generators is None
            assert cells(blk.algebra.rows) == cells(d.algebra._product_table(blk.space))


def test_a_sampled_or_unchecked_parent_takes_the_product_path(monkeypatch, d2):
    # the blocks of a parent whose associativity is not proven are formed
    # from products, and their construction certifies them
    gens = taft_double_generators(d2)
    unchecked = StructureAlgebra(d2.algebra.dim, d2.algebra.rows, d2.algebra.unit, check="none")
    monkeypatch.setattr(algebra_module, "DEFAULT_EXHAUSTIVE_LIMIT", 8)
    sampled = build_twisted_double(taft(2))
    assert sampled.algebra.associativity == "sampled"
    assert unchecked.associativity == "unchecked"
    want = [cells(blk.algebra.rows) for blk in split_blocks(d2, gens)]
    for parent in (sampled.algebra, unchecked):
        z = (gens["g"] * gens["g'"]).terms
        blocks = parent.central_eigensplit(parent.from_dict(z), [c(1), c(-1)])
        assert [blk.algebra.associativity for blk in blocks] == ["certificate", "certificate"]
        assert [cells(blk.algebra.rows) for blk in blocks] == want


def test_sigma_graded_action(d2, d3):
    for d in (d2, d3):
        gens, _, components = taft_parts(d)
        rep = verify_sigma_graded_action(d, gens, components)
        assert rep.passed, rep.witnesses
        assert rep.witnesses["complete"]


def test_sigma_block_forms_p2(d2, d3):
    gens, _, components = taft_parts(d2)
    rep = check_sigma_block_forms_p2(d2, gens, components)
    assert rep.passed, rep.witnesses
    assert all(part["dim"] == 4 for part in rep.witnesses.values())
    gens3 = taft_double_generators(d3)
    rep3 = check_sigma_block_forms_p2(d3, gens3, taft_eigencomponents(d3, gens3))
    assert rep3.status == "precondition-failed"


def test_block_anticommutator_p2(d2):
    # in block s: x x' + x' x = (1 + (-1)^s) 1
    gens = taft_double_generators(d2)
    for s, blk in enumerate(split_blocks(d2, gens)):
        x = blk.project(gens["x"])
        xp = blk.project(gens["x'"])
        scalar = c(1 + (-1) ** s)
        assert x * xp + xp * x == blk.algebra.unit_element() * scalar


def test_block_minimal_polynomials_p2(d2):
    # minimal polynomial of x'x per block: t^2 - 2t at s = 0, t^2 at s = 1
    gens = taft_double_generators(d2)
    blocks = split_blocks(d2, gens)
    expected = [[c(0), c(-2), c(1)], [c(0), c(0), c(1)]]
    for s, blk in enumerate(blocks):
        w = blk.project(gens["x'"]) * blk.project(gens["x"])
        mp = minimal_polynomial(blk.algebra.left_mult_matrix(w.coords))
        assert mp == expected[s], (s, [t.pretty() for t in mp])


def test_uqsl2_blocks(d3):
    gens, blocks, _ = taft_parts(d3)
    for s in range(3):
        rep = uqsl2_check(d3, gens, blocks, s)
        assert rep.passed, (s, rep.witnesses)
        assert rep.witnesses["generated_dim"] == 27


def test_uqsl2_without_square_root_raises():
    # xi = -1 has order 2, so no cube root of unity squares to xi^{-1}
    meta = {"family": "taft", "p": 3, "xi": c(-1)}
    fake = SimpleNamespace(base=SimpleNamespace(meta=meta))
    with pytest.raises(InvariantError, match="square root"):
        uqsl2_check(fake, {}, [], 0)


def test_uqsl2_requires_odd_p(d2):
    gens, blocks, _ = taft_parts(d2)
    assert uqsl2_check(d2, gens, blocks, 0).status == "precondition-failed"


# -- classical doubles ---------------------------------------------------


def test_classical_flavors_agree_when_s2_is_identity():
    for n in (2, 3):
        h = group_algebra(n)
        dd = build_classical_double(h, "drinfeld")
        da = build_classical_double(h, "anti")
        assert dd.algebra.same_structure(da.algebra)
        assert check_straightening(dd).passed
        assert check_straightening(da).passed


def test_classical_flavors_differ_on_taft():
    h = taft(2)
    dd = build_classical_double(h, "drinfeld")
    da = build_classical_double(h, "anti")
    assert not dd.algebra.same_structure(da.algebra)
    assert check_straightening(dd).passed
    assert check_straightening(da).passed


def test_sigma_central_in_anti_flavor_only():
    h = taft(2)
    da = build_classical_double(h, "anti")
    assert da.sigma is not None
    assert da.algebra.is_central(da.sigma)
    dd = build_classical_double(h, "drinfeld")
    assert dd.sigma is None
    # the diagonal element is off-center in the other flavor
    n = h.dim
    coords = [c(0)] * (n * n)
    for i in range(n):
        coords[dd.flat(i, i)] = c(1)
    assert not dd.algebra.is_central(dd.algebra.element(coords))


def test_straightening_past_a_group_like_by_hand():
    # for h = g group-like the rule collapses to
    # chi . g = g . chi( g (-) S^{-1}(g) ), and at p = 2 conjugation by g
    # scales the monomial e_d = g^i x^j by (-1)^j
    p = 2
    h = taft(p)
    dd = build_classical_double(h, "drinfeld")
    g = dd.embed_hopf(h.algebra.basis_sparse(tidx(p, 1, 0)))
    for i in range(p):
        for j in range(p):
            chi = dd.embed_dual({tidx(p, i, j): c(1)})
            assert chi * g == (g * chi) * c((-1) ** j)


def classical_pair(h):
    return build_classical_double(h, "drinfeld"), build_classical_double(h, "anti")


def test_uhu_comparison_map():
    for p in (2, 3):
        h = taft(p)
        u = h.algebra.basis_element(tidx(p, p - 1, 0))  # g^{p-1}
        matrix, rep = uhu_map(h, u, classical_pair(h))
        assert rep.passed, rep.witnesses
        assert rep.witnesses["bijective"]["holds"]


def test_uhu_requires_a_pivot():
    h = taft(2)
    doubles = classical_pair(h)
    x = h.algebra.basis_element(tidx(2, 0, 1))
    _, rep = uhu_map(h, x, doubles)
    assert rep.status == "precondition-failed"
    # the unit is not a pivot for taft (S^2 is not the identity)
    _, rep = uhu_map(h, h.algebra.unit_element(), doubles)
    assert rep.status == "precondition-failed"


def test_uhu_trivial_when_s2_is_identity():
    h = group_algebra(3)
    matrix, rep = uhu_map(h, h.algebra.unit_element(), classical_pair(h))
    assert rep.passed
    assert matrix == Matrix.identity(9)


# -- module checks -------------------------------------------------------


def regular_action(d):
    alg = d.algebra
    return [
        alg.left_mult_matrix(alg.basis_element(a)) for a in range(alg.dim)
    ]


def test_regular_module_is_valid_but_not_stable(d2):
    action = regular_action(d2)
    assert check_module_action(d2.algebra, action).passed
    rep = check_stable_module(d2.algebra, d2.sigma, action)
    assert not rep.passed
    assert not rep.witnesses["sigma-acts-as-identity"]["holds"]


def test_corrupted_action_fails_with_witness(d2):
    action = regular_action(d2)
    bad = [m for m in action]
    bad[3] = bad[3].scale(c(2))
    rep = check_module_action(d2.algebra, bad)
    assert not rep.passed
    assert "first_failure" in rep.witnesses["multiplicative"]


def brute_force_first_failure(alg, action):
    """First basis pair (i, j) with rho(e_i) rho(e_j) != sum_k c_ij^k rho(e_k),
    compared as dense matrices over every k."""
    m = action[0].nrows
    for i in range(alg.dim):
        for j in range(alg.dim):
            want = Matrix.zeros(m, m)
            for k in range(alg.dim):
                want = want + action[k].scale(alg.rows[i][j].get(k, Cyclotomic.zero()))
            if action[i] @ action[j] != want:
                return (i, j)
    return None


@pytest.mark.parametrize("target, u, v", [(3, None, None), (11, 5, 7), (15, 15, 0)])
def test_corrupted_action_first_failure_matches_dense(d2, target, u, v):
    bad = regular_action(d2)
    if u is None:
        bad[target] = bad[target].scale(c(2))
    else:
        data = [bad[target].row(r) for r in range(bad[target].nrows)]
        data[u][v] = data[u][v] + c(1)
        bad[target] = Matrix(data)
    rep = check_module_action(d2.algebra, bad)
    want = brute_force_first_failure(d2.algebra, bad)
    assert want is not None
    assert rep.witnesses["multiplicative"]["first_failure"] == want


def test_stable_pullback_module(d2):
    q = d2.algebra.quotient([d2.sigma - d2.one])
    action = [q.algebra.left_mult_matrix(q.projection.column(a)) for a in range(d2.algebra.dim)]
    rep = check_stable_module(d2.algebra, d2.sigma, action)
    assert rep.passed, rep.witnesses


def test_regular_mixed_module(d2):
    action, degrees, diff, hom = regular_mixed_module(d2, regular_action(d2))
    rep = check_mixed_module(d2.algebra, d2.sigma, action, degrees, diff, hom)
    assert rep.passed, rep.witnesses


def test_perturbed_homotopy_fails(d2):
    action, degrees, diff, hom = regular_mixed_module(d2, regular_action(d2))
    rep = check_mixed_module(
        d2.algebra, d2.sigma, action, degrees, diff, hom.scale(c(2))
    )
    assert not rep.passed
    assert not rep.witnesses["homotopy-identity"]["holds"]


def test_mixed_module_degree_check(d2):
    action, degrees, diff, hom = regular_mixed_module(d2, regular_action(d2))
    wrong = [0 for _ in degrees]
    rep = check_mixed_module(d2.algebra, d2.sigma, action, wrong, diff, hom)
    assert not rep.passed
    assert not rep.witnesses["degrees"]["holds"]


# -- the D2.2 re-check against the construction-time checks ----------------


def _corrupted_double(d, cell):
    """A copy of d built with check="none", then structure constant cell
    (i, j, k) doubled (after construction, whose unit check would refuse it).
    The copy shares d's cells, so the row list and the one cell are copied
    before the write."""
    i, j, k = cell
    alg = StructureAlgebra(d.algebra.dim, d.algebra.rows, d.algebra.unit, check="none")
    alg.rows[i] = list(alg.rows[i])
    alg.rows[i][j] = dict(alg.rows[i][j])
    alg.rows[i][j][k] = alg.rows[i][j][k] * 2
    return TwistedDouble(d.base, alg, alg.element(d.sigma.coords), alg.unit_element())


@pytest.mark.parametrize("cell", [(1, 4, 0), (3, 6, 0), (0, 3, 3), (8, 8, 8)])
def test_double_recheck_matches_construction_checks(d2, cell):
    i, j, k = cell
    assert k in d2.algebra.rows[i][j]
    before = d2.algebra.rows[i][j][k]
    bad = _corrupted_double(d2, cell)
    assert d2.algebra.rows[i][j][k] is before
    report = check_double_unital_associative(bad)
    assert not report.passed
    witnesses = report.witnesses["associativity"]
    assert witnesses["mode"] == "exhaustive" and witnesses["triples"] == 16**3
    with pytest.raises(AlgebraError) as err:
        StructureAlgebra(bad.algebra.dim, bad.algebra.rows, bad.algebra.unit)
    if isinstance(err.value, UnitLawError):
        # the unit verdict and the index construction names
        assert report.witnesses["unit"]["holds"] is False
        assert f"basis element {bad.algebra.unit_failure()} " in str(err.value)
    else:
        assert report.witnesses["unit"]["holds"] is True
        assert witnesses["first_failure"] == err.value.triple
    # D2.2's witness is the first failing triple of the exact loop over
    # every triple in row-major order
    first = bad.algebra.associativity_failure(itertools.product(range(16), repeat=3))
    assert witnesses.get("first_failure") == first


def test_double_recheck_proves_the_81_dim_double(d3):
    witnesses = check_double_unital_associative(d3).witnesses["associativity"]
    assert witnesses == {"holds": True, "mode": "certificate", "generators": 15}


@pytest.mark.parametrize("pair", [(9, 64), (40, 41), (80, 80)])
def test_double_recheck_certificate_finds_the_first_failing_triple(d3, pair):
    # above dim 24 and up to 230 D2.2 runs Light's certificate, whose
    # witness is the first failing triple of the exact row-major loop
    i, j = pair
    bad = _corrupted_double(d3, (i, j, min(d3.algebra.rows[i][j])))
    report = check_double_unital_associative(bad)
    witnesses = report.witnesses["associativity"]
    assert not report.passed and report.witnesses["unit"]["holds"]
    assert witnesses["mode"] == "certificate" and witnesses["generators"] == 15
    first = bad.algebra.associativity_failure(itertools.product(range(81), repeat=3))
    assert first is not None and witnesses["first_failure"] == first


def test_double_recheck_samples_when_the_unit_law_fails(d3):
    # Light's test needs the unit laws, so without them D2.2 samples
    bad = _corrupted_double(d3, (0, 5, 5))
    report = check_double_unital_associative(bad)
    assert report.witnesses["unit"]["holds"] is False
    assert report.witnesses["associativity"]["mode"] == "sampled"


def _refuse(*args):
    raise AssertionError("D2.2 ran a check that construction already ran")


def test_double_recheck_reads_the_certificate_from_the_record(d3, monkeypatch):
    assert d3.algebra.associativity == "certificate"
    monkeypatch.setattr(StructureAlgebra, "_assoc_modular", _refuse)
    monkeypatch.setattr(StructureAlgebra, "associativity_failure", _refuse)
    witnesses = check_double_unital_associative(d3).witnesses["associativity"]
    assert witnesses == {"holds": True, "mode": "certificate", "generators": 15}


def test_recheck_sample_is_the_head_of_the_construction_sample():
    # D2.2 reads a sampled double's record because its 2,000 triples are the
    # first of the DEFAULT_SAMPLES that construction checked
    samples, recheck, seed = (
        algebra_module.DEFAULT_SAMPLES, doubles_module.RECHECK_SAMPLES, algebra_module.DEFAULT_SEED
    )
    assert recheck <= samples
    for n in (231, 625):
        head = itertools.islice(algebra_module.sampled_triples(n, samples, seed), recheck)
        assert list(algebra_module.sampled_triples(n, recheck, seed)) == list(head)


def test_double_recheck_reads_the_sample_from_the_record(monkeypatch):
    # with the certificate's limit below 81, construction samples the
    # 81-dim double, and D2.2 reports that sample's first 2,000 triples
    monkeypatch.setattr(algebra_module, "DEFAULT_EXHAUSTIVE_LIMIT", 80)
    monkeypatch.setattr(doubles_module, "DEFAULT_EXHAUSTIVE_LIMIT", 80)
    d = build_twisted_double(taft(3))
    assert d.algebra.associativity == "sampled"
    monkeypatch.setattr(StructureAlgebra, "_assoc_modular", _refuse)
    monkeypatch.setattr(StructureAlgebra, "associativity_failure", _refuse)
    report = check_double_unital_associative(d)
    assert report.passed
    assert report.witnesses["associativity"] == {"holds": True, "mode": "sampled", "triples": 2000}


# -- straightening and cross relation on corrupted doubles ----------------


def with_corrupted_cell(alg, i, j):
    """alg rebuilt with check="none" after adding 1 to the e_0 coefficient
    of the product e_i e_j.  The cells are copied first: a built algebra's
    cells are shared with whatever was built from them, so a variant is made
    by copying, changing the copy and constructing anew, never by writing
    to alg.rows."""
    rows = [[dict(cell) for cell in row] for row in alg.rows]
    rows[i][j][0] = rows[i][j].get(0, c(0)) + 1
    if not rows[i][j][0]:
        del rows[i][j][0]
    return StructureAlgebra(alg.dim, rows, alg.unit, check="none")


def sweedler_triples(h, j):
    """(c1, c2, c3, t) for each term t e_c1 (x) e_c2 (x) e_c3 of
    (Delta (x) id) Delta(e_j), in the key order of h.delta2(j)."""
    n = h.dim
    return [(k // (n * n), k // n % n, k % n, t) for k, t in h.delta2(j).items()]


def straightening_first_failure(double):
    """First (b, c), b-major, where e^b . e_c differs from the expansion
    sum e_{c2} (x) e^b(e_{c3} (-) A(e_{c1})), all with element arithmetic."""
    h = double.base
    n = h.dim
    anti = h.antipode_inverse if double.flavor == "drinfeld" else h.antipode
    basis = h.algebra.basis_element
    for b in range(n):
        chi = double.embed_dual(h.algebra.basis_sparse(b))
        for c in range(n):
            lhs = chi * double.embed_hopf(h.algebra.basis_sparse(c))
            rhs = double.algebra.zero_element()
            for c1, c2, c3, t in sweedler_triples(h, c):
                for v in range(n):
                    w = basis(c3) * basis(v) * h.algebra.element(anti.column(c1))
                    e = double.algebra.basis_element(double.flat(c2, v))
                    rhs = rhs + e * (t * w.coords[b])
            if lhs != rhs:
                return (b, c)
    return None


def cross_relation_first_failure(double):
    """First (k, d), k-major, where e_k . e^d differs from the expansion
    sum e^d(S(e_{k3}) (-) e_{k1}) e_{k2}, all with element arithmetic."""
    h = double.base
    n = h.dim
    basis = h.algebra.basis_element
    for k in range(n):
        hk = double.embed_hopf(h.algebra.basis_sparse(k))
        for d in range(n):
            lhs = hk * double.embed_dual(h.algebra.basis_sparse(d))
            rhs = double.algebra.zero_element()
            for k1, k2, k3, t in sweedler_triples(h, k):
                for v in range(n):
                    w = h.algebra.element(h.antipode.column(k3)) * basis(v) * basis(k1)
                    e = double.algebra.basis_element(double.flat(k2, v))
                    rhs = rhs + e * (t * w.coords[d])
            if lhs != rhs:
                return (k, d)
    return None


@pytest.mark.parametrize("flavor", ["drinfeld", "anti"])
@pytest.mark.parametrize("cell", [(1, 4), (1, 10), (3, 6), (3, 14)])
def test_corrupted_classical_double_straightening_first_failure(flavor, cell):
    good = build_classical_double(taft(2), flavor)
    assert check_straightening(good).passed
    assert straightening_first_failure(good) is None
    bad = ClassicalDouble(good.base, flavor, with_corrupted_cell(good.algebra, *cell), None)
    want = straightening_first_failure(bad)
    assert want is not None
    rep = check_straightening(bad)
    assert rep.status == "fail" and rep.witnesses["first_failure"] == want


@pytest.mark.parametrize("cell", [(1, 4), (3, 12), (10, 12), (11, 4)])
def test_corrupted_twisted_double_cross_relation_first_failure(d2, cell):
    assert cross_relation_first_failure(d2) is None
    alg = with_corrupted_cell(d2.algebra, *cell)
    bad = TwistedDouble(d2.base, alg, alg.element(d2.sigma.coords), alg.unit_element())
    want = cross_relation_first_failure(bad)
    assert want is not None
    rep = check_cross_relation(bad)
    assert rep.status == "fail" and rep.witnesses["first_failure"] == want
