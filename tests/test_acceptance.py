"""Acceptance gate: one test per acceptance criterion, in order.

Criteria with runtime bounds are timed around fresh constructions so the
measured cost is the real cost, not a cache hit.
"""

import json
import random
import subprocess
import sys
import time

from hopfcheck.cyclotomic import Cyclotomic, root_of_unity
from hopfcheck.linalg import (
    Matrix,
    Subspace,
    kernel,
    minimal_polynomial,
    poly_eval_matrix,
    rank,
    sparse_of,
)
from hopfcheck.hopf import (
    check_hopf_axioms,
    check_pivotal,
    group_algebra,
    taft,
    taft_self_duality,
)
from hopfcheck.doubles import (
    build_classical_double,
    build_twisted_double,
    check_block_split,
    check_cross_relation,
    check_double_unital_associative,
    check_generator_presentation,
    check_sigma_block_forms_p2,
    check_sigma_central_invertible,
    check_straightening,
    split_blocks,
    taft_double_generators,
    uhu_map,
    uqsl2_check,
    verify_sigma_graded_action,
)
from hopfcheck.dga import (
    TwoTermDga,
    complex_cohomology,
    diagonalizability_report,
    hh_minus_one,
    stable_dga,
    stable_quotient,
)

c = Cyclotomic.coerce


def test_criterion_1_separation_witness():
    # dim 2 with basis {xx', xx'g} on the odd block, dim 1 with basis {1}
    # on its stable quotient; center dims 3 and 1; all inside 5 seconds
    start = time.perf_counter()
    d = build_twisted_double(taft(2))
    gens = taft_double_generators(d)
    blk = split_blocks(d, gens)[1]
    dga = TwoTermDga(blk.algebra, blk.project(d.sigma) - blk.algebra.unit_element())
    assert dga.z == blk.project(gens["x'"]) * blk.project(gens["x"])

    hh = hh_minus_one(dga)
    xxp = blk.project(gens["x"] * gens["x'"])
    xxpg = blk.project(gens["x"] * gens["x'"] * gens["g"])
    assert hh.dim == 2
    assert hh == Subspace.from_vectors(
        blk.algebra.dim, [sparse_of(xxp.coords), sparse_of(xxpg.coords)]
    )
    assert blk.algebra.center().dim == 3

    sdga, q = stable_dga(dga)
    shh = hh_minus_one(sdga)
    assert shh.dim == 1
    assert shh == Subspace.from_vectors(q.algebra.dim, [sparse_of(q.algebra.unit)])
    assert q.algebra.center().dim == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


def test_criterion_2_relations_and_split():
    for p in (2, 3):
        start = time.perf_counter()
        d = build_twisted_double(taft(p))
        rep = check_generator_presentation(d)
        assert rep.passed, rep.witnesses
        assert len(rep.witnesses["relations"]) == 10
        assert rep.witnesses["generated_dim"] == p**4
        assert rep.witnesses["gg'"] == {"central": True, "pth-power-is-one": True}
        split = check_block_split(d, split_blocks(d, taft_double_generators(d)))
        assert split.passed, split.witnesses
        assert len(split.witnesses["blocks"]) == p
        elapsed = time.perf_counter() - start
        if p == 3:
            assert elapsed < 60.0, f"criterion 2 (p=3) took {elapsed:.2f}s"


def test_criterion_3_sigma_action_formula(shared_ctx):
    for p in (2, 3):
        rep = verify_sigma_graded_action(
            shared_ctx.twisted_taft(p),
            shared_ctx.taft_generators(p),
            shared_ctx.taft_components(p),
        )
        assert rep.passed, rep.witnesses
        assert rep.witnesses["complete"]
        assert len(rep.witnesses["components"]) == p * p
    # p = 2 reproduces the four closed-form restrictions
    rep = check_sigma_block_forms_p2(
        shared_ctx.twisted_taft(2),
        shared_ctx.taft_generators(2),
        shared_ctx.taft_components(2),
    )
    assert rep.passed, rep.witnesses
    assert sorted(rep.witnesses) == ["V00", "V01", "V10", "V11"]


def test_criterion_4_self_duality():
    for p in (2, 3):
        duality = taft_self_duality(p)
        rep = duality.report
        assert rep.passed, rep.witnesses
        for leg in ("unit", "multiplicative", "comultiplicative", "counit",
                    "antipode-commutes", "mutually-inverse", "bijective"):
            assert rep.witnesses[leg]["holds"], leg
        n = duality.hopf.dim
        assert duality.forward @ duality.inverse == Matrix.identity(n)
        assert duality.inverse @ duality.forward == Matrix.identity(n)


def test_criterion_5_quantum_sl2_blocks(shared_ctx):
    d = shared_ctx.twisted_taft(3)
    gens = shared_ctx.taft_generators(3)
    blocks = shared_ctx.taft_blocks(3)
    for s in range(3):
        rep = uqsl2_check(d, gens, blocks, s)
        assert rep.passed, (s, rep.witnesses)
        assert rep.witnesses["generated_dim"] == 27
        assert all(r["holds"] for r in rep.witnesses["relations"])


def test_criterion_6_twisted_double_internals(shared_ctx):
    fixtures = [shared_ctx.twisted_group(n) for n in (1, 2, 3)]
    fixtures += [shared_ctx.twisted_taft(p) for p in (2, 3)]
    for d in fixtures:
        assert check_double_unital_associative(d).passed
        assert check_sigma_central_invertible(d).passed
        assert check_cross_relation(d).passed


def test_criterion_7_classical_doubles(shared_ctx):
    # flavors agree entrywise when S^2 = id
    for n in (2, 3):
        dd = shared_ctx.classical_group(n, "drinfeld")
        da = shared_ctx.classical_group(n, "anti")
        assert dd.algebra.same_structure(da.algebra)
        assert check_straightening(dd).passed
        assert check_straightening(da).passed
    for p in (2, 3):
        h = shared_ctx.taft(p)
        dd = shared_ctx.classical_taft(p, "drinfeld")
        da = shared_ctx.classical_taft(p, "anti")
        assert check_straightening(dd).passed
        assert check_straightening(da).passed
        assert da.algebra.is_central(da.sigma)
        u = h.algebra.basis_element((p - 1) * p)  # g^{p-1} = g^{-1}
        pivot = check_pivotal(h, u)
        assert pivot.passed, pivot.witnesses  # S^2(h) = g^{-1} h g on basis
        matrix, rep = uhu_map(h, u, doubles=(dd, da))
        assert rep.passed, rep.witnesses
        assert rep.witnesses["bijective"]["holds"]


def test_criterion_8_diagonalizability_numerology(shared_ctx):
    d2 = shared_ctx.twisted_taft(2)
    blocks = shared_ctx.taft_blocks(2)
    dgas = shared_ctx.block_dgas_p2()
    rep0 = diagonalizability_report(dgas[0])
    assert rep0.passed and rep0.witnesses["diagonalizable"]
    assert (
        rep0.witnesses["zero_eigenspace_dim"]
        == rep0.witnesses["stable_quotient_dim"]
    )
    rep1 = diagonalizability_report(dgas[1])
    assert rep1.passed and not rep1.witnesses["diagonalizable"]
    assert rep1.witnesses["kernel_image_overlap_dim"] > 0
    for n in (1, 2, 3):
        dg = shared_ctx.twisted_group(n)
        rep = diagonalizability_report(TwoTermDga(dg.algebra, dg.sigma - dg.one))
        assert rep.passed and rep.witnesses["diagonalizable"]
        assert (
            rep.witnesses["zero_eigenspace_dim"]
            == rep.witnesses["stable_quotient_dim"]
        )
    q0 = stable_quotient(dgas[0])
    assert q0.algebra.dim == 4
    assert q0.algebra.radical().dim == 0
    assert q0.algebra.center().dim == 1


def _random_matrix(rng, n, order):
    zeta = root_of_unity(order)
    data = []
    for _ in range(n):
        row = []
        for _ in range(n):
            row.append(c(rng.randrange(-2, 3)) + zeta * c(rng.randrange(-1, 2)))
        data.append(row)
    return Matrix(data, ncols=n)


def test_criterion_9_property_suites(shared_ctx):
    # rank-nullity on seeded matrices over a cyclotomic field, and the
    # minimal polynomial annihilating its matrix
    rng = random.Random(20240801)
    for _ in range(8):
        n = rng.randrange(2, 6)
        m = _random_matrix(rng, n, 12)
        assert rank(m) + kernel(m).dim == n
        mp = minimal_polynomial(m)
        assert poly_eval_matrix(mp, m).is_zero()
    # quotient projections are algebra maps (verified in-construction, spot
    # checked here), and hh_minus_one lands in the center
    d = shared_ctx.twisted_taft(2)
    q = d.algebra.quotient([(d.sigma - d.one).coords])
    for _ in range(20):
        i = rng.randrange(d.algebra.dim)
        j = rng.randrange(d.algebra.dim)
        a = d.algebra.basis_element(i)
        b = d.algebra.basis_element(j)
        assert q.project(a * b) == q.project(a) * q.project(b)
    for dga in shared_ctx.block_dgas_p2():
        assert dga.ring.center().contains_subspace(hh_minus_one(dga))
        prof = complex_cohomology(dga)
        assert prof.dim_h_minus1 == prof.dim_h0  # two-term Euler characteristic 0


def test_criterion_9_full_cli_run(tmp_path):
    report_path = tmp_path / "report.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "hopfcheck",
            "run",
            "--all",
            "--p",
            "2,3",
            "--json",
            str(report_path),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 300.0, f"full run took {elapsed:.2f}s"
    doc = json.loads(report_path.read_text())
    assert doc["summary"]["all-pass"] is True
    assert doc["summary"]["total"] == 25
    assert doc["summary"]["pass"] == 25
