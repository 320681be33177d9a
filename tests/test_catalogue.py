"""Catalogue plumbing: ids, selection, ordering, caching, summaries."""

import time

import pytest

from hopfcheck.catalogue import (
    CATALOGUE,
    CatalogueError,
    Context,
    RunConfig,
    catalogue_ids,
    get_entry,
    run_checks,
    summarize,
)

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
    ctx = Context(RunConfig(ps=(2,)))
    ids = ["S3-taft-axioms", "A-pivotal-taft", "L3.1-self-duality"]
    reports = run_checks(ids, ctx)
    assert [r.id for r in reports] == sorted(ids)
    assert all(r.passed for r in reports)
    assert all(r.elapsed >= 0 for r in reports)


def test_serial_and_parallel_agree():
    # checks run serially; two fresh Contexts give the same reports
    ids = ["S3-taft-axioms", "S3-S-squared", "A-pivotal-taft"]
    first = run_checks(ids, Context(RunConfig(ps=(2,))))
    second = run_checks(ids, Context(RunConfig(ps=(2,))))
    assert [(r.id, r.status, r.witnesses) for r in first] == [
        (r.id, r.status, r.witnesses) for r in second
    ]


def test_elapsed_values_add_up_to_at_most_the_wall_time():
    # each check's elapsed is its own time: serially they cannot overlap
    start = time.perf_counter()
    reports = run_checks(None, Context(RunConfig()))
    wall = time.perf_counter() - start
    assert len(reports) == 25
    assert sum(r.elapsed for r in reports) <= wall


def test_context_caches_fixtures():
    ctx = Context(RunConfig(ps=(2,)))
    assert ctx.taft(2) is ctx.taft(2)
    assert ctx.twisted_taft(2) is ctx.twisted_taft(2)
    assert ctx.classical_taft(2, "anti") is ctx.classical_taft(2, "anti")


def test_taft_double_fixtures_are_computed_once_per_p(monkeypatch):
    # the block split, the generators and the (g', g) eigencomponents are
    # Context fixtures shared by every check that needs them
    from hopfcheck import catalogue, doubles

    seen = {"split_blocks": [], "taft_double_generators": [], "taft_eigencomponents": []}
    for name, calls in seen.items():
        original = getattr(doubles, name)

        def counted(double, *args, _original=original, _calls=calls):
            _calls.append(double.base.meta["p"])
            return _original(double, *args)

        for module in (doubles, catalogue):
            monkeypatch.setattr(module, name, counted)
    ids = ["E3.15-split", "S3.2-uqsl2", "C3.2-grading", "C3.2-sigma-action",
           "E3.24-sigma-blocks"]
    reports = run_checks(ids, Context(RunConfig(ps=(2, 3))))
    assert all(r.passed for r in reports)
    for name, calls in seen.items():
        assert sorted(calls) == [2, 3], (name, calls)


def test_uqsl2_without_odd_p_reports_precondition():
    ctx = Context(RunConfig(ps=(2,)))
    (report,) = run_checks(["S3.2-uqsl2"], ctx)
    assert report.status == "precondition-failed"


def test_summarize_counts():
    ctx = Context(RunConfig(ps=(2,)))
    reports = run_checks(["S3-taft-axioms", "S3.2-uqsl2"], ctx)
    summary = summarize(reports)
    assert summary["total"] == 2
    assert summary["pass"] == 1
    assert summary["precondition-failed"] == 1
    assert summary["all-pass"] is False


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(ps=())
    with pytest.raises(ValueError):
        RunConfig(ps=(1,))
    with pytest.raises(ValueError):
        RunConfig(samples=0)
    assert RunConfig(ps=(3, 2, 2)).ps == (2, 3)
