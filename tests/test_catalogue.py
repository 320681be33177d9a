"""Catalogue plumbing: ids, selection, ordering, caching, summaries."""

import os
import subprocess
import sys
import time

import pytest

import hopfcheck
from hopfcheck.catalogue import (
    CATALOGUE,
    CatalogueError,
    Context,
    catalogue_ids,
    get_entry,
    run_checks,
)
from hopfcheck.cyclotomic import MAX_ORDER
from hopfcheck.report import summarize

REQUIRED_IDS = [
    "D2.2-assoc-unital",
    "D2.2-sigma-central-invertible",
    "L2.3-stable-quotient",
    "L2.4-diag-report",
    "P2.5-instance",
    "S3-taft-axioms",
    "S3-S-squared",
    "L3.1-self-duality",
    "C3.2-relations",
    "C3.2-grading",
    "C3.2-sigma-action",
    "E3.15-split",
    "S3.2-uqsl2",
    "E3.22-anticommutator",
    "E3.23-minpoly",
    "E3.24-sigma-blocks",
    "L3.4-matrix-algebra",
    "P3.5-centers",
    "P3.5-hh-separation",
    "A.1/A.2-straightening",
    "A.2-sigma-central",
    "A.3-uhu-iso",
    "A-pivotal-taft",
]


def test_catalogue_covers_the_required_ids():
    ids = catalogue_ids()
    assert len(ids) == len(set(ids))
    for required in REQUIRED_IDS:
        assert required in ids, required
    # the two documented additions
    assert "D2.2-cross-relation" in ids
    assert "D2.1-mixed-module" in ids
    assert len(ids) == 25


def test_entries_have_descriptions():
    for entry in CATALOGUE:
        assert entry.statement
        assert entry.params
        assert callable(entry.runner)


def test_get_entry_unknown_id():
    with pytest.raises(CatalogueError):
        get_entry("nope")


def test_run_checks_sorts_by_id():
    ctx = Context((2,))
    ids = ["S3-taft-axioms", "A-pivotal-taft", "L3.1-self-duality"]
    reports = run_checks(ids, ctx)
    assert [r.id for r in reports] == sorted(ids)
    assert all(r.passed for r in reports)
    assert all(r.elapsed >= 0 for r in reports)


def test_serial_and_parallel_agree():
    # checks run serially; two fresh Contexts give the same reports
    ids = ["S3-taft-axioms", "S3-S-squared", "A-pivotal-taft"]
    first = run_checks(ids, Context((2,)))
    second = run_checks(ids, Context((2,)))
    assert [(r.id, r.status, r.witnesses) for r in first] == [
        (r.id, r.status, r.witnesses) for r in second
    ]


def test_elapsed_values_add_up_to_at_most_the_wall_time():
    # each check's elapsed is its own time: serially they cannot overlap
    start = time.perf_counter()
    reports = run_checks(None, Context())
    wall = time.perf_counter() - start
    assert len(reports) == 25
    assert sum(r.elapsed for r in reports) <= wall


def test_context_caches_fixtures():
    ctx = Context((2,))
    assert ctx.taft(2) is ctx.taft(2)
    assert ctx.twisted_taft(2) is ctx.twisted_taft(2)
    assert ctx.classical_taft(2, "anti") is ctx.classical_taft(2, "anti")


def test_taft_double_fixtures_are_computed_once_per_p(monkeypatch):
    # the Taft algebra, the block split, the generators and the (g', g)
    # eigencomponents are Context fixtures shared by every check that needs
    # them; no verifier builds its own
    from hopfcheck import catalogue, doubles, hopf

    seen = {"split_blocks": [], "taft_double_generators": [], "taft_eigencomponents": []}
    for name, calls in seen.items():
        original = getattr(doubles, name)

        def counted(double, *args, _original=original, _calls=calls):
            _calls.append(double.base.meta["p"])
            return _original(double, *args)

        for module in (doubles, catalogue):
            monkeypatch.setattr(module, name, counted)
    seen["taft"] = []
    original_taft = hopf.taft

    def counted_taft(p, *args):
        seen["taft"].append(p)
        return original_taft(p, *args)

    for module in (hopf, catalogue):
        monkeypatch.setattr(module, "taft", counted_taft)
    ids = ["E3.15-split", "S3.2-uqsl2", "C3.2-grading", "C3.2-sigma-action",
           "E3.24-sigma-blocks", "C3.2-relations", "L3.1-self-duality"]
    reports = run_checks(ids, Context((2, 3)))
    assert all(r.passed for r in reports)
    for name, calls in seen.items():
        assert sorted(calls) == [2, 3], (name, calls)


def test_p35_checks_compute_each_center_once(monkeypatch):
    # P3.5-centers and P3.5-hh-separation (through hh_minus_one) both read
    # the centers of the odd p = 2 block and of its stable quotient; an
    # algebra keeps its center, so each is computed once
    from hopfcheck import algebra

    ctx = Context((2,))
    block = ctx.taft_blocks(2)[1].algebra
    stable = ctx.stable_block_dga_p2(1)[1].algebra
    computed = []
    original = algebra.kernel

    def counted(matrix):
        # center() is the one caller of algebra.kernel that these checks reach
        computed.append(matrix.ncols)
        return original(matrix)

    monkeypatch.setattr(algebra, "kernel", counted)
    reports = run_checks(["P3.5-centers", "P3.5-hh-separation"], ctx)
    assert all(r.passed for r in reports)
    assert sorted(computed) == sorted([block.dim, stable.dim]), computed


_DUPLICATE_ID = """
import sys
from hopfcheck import catalogue

try:
    catalogue._index(catalogue.CATALOGUE + catalogue.CATALOGUE[:1])
except ValueError as exc:
    print(sys.flags.optimize, exc)
    sys.exit(0)
sys.exit(1)
"""


def test_unique_ids_are_checked_under_optimize():
    src = os.path.dirname(os.path.dirname(hopfcheck.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-O", "-c", _DUPLICATE_ID], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "1 catalogue ids must be unique"


def test_p35_checks_share_one_stable_quotient(monkeypatch):
    # P3.5-centers and P3.5-hh-separation both read the stable pair of the
    # odd p = 2 block, a Context fixture built once
    from hopfcheck import catalogue

    calls = []
    original = catalogue.stable_dga

    def counted(dga):
        calls.append(dga)
        return original(dga)

    monkeypatch.setattr(catalogue, "stable_dga", counted)
    reports = run_checks(["P3.5-centers", "P3.5-hh-separation"], Context((2,)))
    assert all(r.passed for r in reports)
    assert len(calls) == 1


def test_run_computes_each_stable_quotient_and_cohomology_once(monkeypatch):
    # L2.3, L2.4 and P2.5 read the quotients and cohomology profiles of the
    # p = 2 blocks and the kZ/n doubles, and L3.4 and the P3.5 checks the
    # blocks' quotients, from Context; D2.1 takes the one quotient of the
    # taft(2) double
    from collections import Counter

    from hopfcheck import catalogue
    from hopfcheck.algebra import StructureAlgebra

    quotients, profiles = [], []
    original_quotient = StructureAlgebra.quotient
    original_cohomology = catalogue.complex_cohomology

    def counted_quotient(self, gens):
        quotients.append(self)
        return original_quotient(self, gens)

    def counted_cohomology(dga):
        profiles.append(dga.ring)
        return original_cohomology(dga)

    monkeypatch.setattr(StructureAlgebra, "quotient", counted_quotient)
    monkeypatch.setattr(catalogue, "complex_cohomology", counted_cohomology)
    reports = run_checks(None, Context((2, 3)))
    assert all(r.passed for r in reports)
    assert sorted(Counter(map(id, quotients)).values()) == [1] * 6
    assert sorted(Counter(map(id, profiles)).values()) == [1] * 5


def test_uqsl2_without_odd_p_reports_precondition():
    ctx = Context((2,))
    (report,) = run_checks(["S3.2-uqsl2"], ctx)
    assert report.status == "precondition-failed"


def test_summarize_counts():
    ctx = Context((2,))
    reports = run_checks(["S3-taft-axioms", "S3.2-uqsl2"], ctx)
    summary = summarize(reports)
    assert summary["total"] == 2
    assert summary["pass"] == 1
    assert summary["precondition-failed"] == 1
    assert summary["all-pass"] is False


def test_config_validation():
    # the run configuration is the p list, which Context sorts and checks
    with pytest.raises(ValueError):
        Context(())
    with pytest.raises(ValueError):
        Context((1,))
    with pytest.raises(ValueError, match=f"at most {MAX_ORDER}"):
        Context((2, MAX_ORDER + 1))
    assert Context((3, 2, 2)).ps == (2, 3)
    assert Context((3, 2, MAX_ORDER)).ps == (2, 3, MAX_ORDER)
