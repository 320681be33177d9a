"""CLI contract: exit codes, determinism of JSON reports, ingest."""

import json
import os
import subprocess
import sys

import pytest

import hopfcheck

from hopfcheck import catalogue, cli
from hopfcheck.catalogue import CheckCrashed, catalogue_ids
from hopfcheck.cyclotomic import MAX_ORDER, phi_degree
from hopfcheck.hopf import taft
from hopfcheck.serialize import hopf_to_json

CHEAP = ["--id", "S3-taft-axioms", "--id", "A-pivotal-taft", "--p", "2"]


def test_run_cheap_selection_passes(capsys):
    code = cli.main(["run"] + CHEAP)
    out = capsys.readouterr().out
    assert code == 0
    assert "S3-taft-axioms" in out
    assert "2/2 pass" in out


def test_unknown_id_is_usage_error(capsys):
    code = cli.main(["run", "--id", "nope"])
    assert code == 2
    assert "unknown check ids" in capsys.readouterr().err


def test_all_and_id_conflict(capsys):
    code = cli.main(["run", "--all", "--id", "S3-taft-axioms"])
    assert code == 2


def test_bad_p_flag(capsys):
    assert cli.main(["run", "--p", "two"] + CHEAP[:2]) == 2
    assert cli.main(["run", "--p", "1", "--id", "S3-taft-axioms"]) == 2


def test_malformed_config(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{ not json")
    assert cli.main(["run", "--config", str(bad)] + CHEAP) == 2
    bad.write_text(json.dumps({"p": "2"}))
    assert cli.main(["run", "--config", str(bad)] + CHEAP) == 2
    bad.write_text(json.dumps({"mystery": 1}))
    assert cli.main(["run", "--config", str(bad)] + CHEAP) == 2


def test_config_file_sets_p_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": [2]}))
    # config alone: no odd p, so the quantum-sl2 check cannot run -> not pass
    code = cli.main(["run", "--id", "S3.2-uqsl2", "--config", str(cfg)])
    assert code == 1
    assert "precondition-failed" in capsys.readouterr().out
    # flag overrides the file
    code = cli.main(["run", "--id", "S3.2-uqsl2", "--p", "3", "--config", str(cfg)])
    assert code == 0


def test_env_var_supplies_config(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": [2]}))
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg))
    assert cli.main(["run", "--id", "S3.2-uqsl2"]) == 1
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(tmp_path / "missing.json"))
    assert cli.main(["run"] + CHEAP) == 2


def _stripped(path):
    doc = json.loads(path.read_text())
    for check in doc["checks"]:
        check.pop("elapsed", None)
    return json.dumps(doc, sort_keys=True)


def test_json_reports_are_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    ids = ["--id", "L3.1-self-duality", "--id", "S3-S-squared", "--p", "2"]
    assert cli.main(["run", "--json", str(a)] + ids) == 0
    assert cli.main(["run", "--json", str(b)] + ids) == 0
    assert _stripped(a) == _stripped(b)
    doc = json.loads(a.read_text())
    assert set(doc) == {"checks", "summary"}
    assert doc["summary"]["all-pass"] is True
    assert [c["id"] for c in doc["checks"]] == sorted(
        ["L3.1-self-duality", "S3-S-squared"]
    )


def test_json_report_is_the_same_under_optimize(tmp_path, capsys):
    """Invariants that survive python -O must not change any verdict."""
    plain = tmp_path / "plain.json"
    optimized = tmp_path / "optimized.json"
    checks = ["D2.2-sigma-central-invertible", "E3.15-split", "L2.4-diag-report",
              "P3.5-hh-separation", "L2.3-stable-quotient"]
    ids = [arg for check in checks for arg in ("--id", check)] + ["--p", "2"]
    assert cli.main(["run", "--json", str(plain)] + ids) == 0
    src = os.path.dirname(os.path.dirname(hopfcheck.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "hopfcheck", "run", "--json", str(optimized)] + ids,
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 0, run.stderr
    assert _stripped(optimized) == _stripped(plain)


def test_max_workers_is_accepted_and_ignored(tmp_path, capsys):
    # checks run serially whatever max_workers says; it must still be a
    # positive integer, so that a mistyped config file is reported
    reports = {}
    ids = ["--id", "S3-S-squared", "--id", "E3.23-minpoly", "--id", "D2.2-assoc-unital"]
    for workers in (1, 4):
        cfg = tmp_path / f"cfg{workers}.json"
        cfg.write_text(json.dumps({"max_workers": workers, "p": [2]}))
        out = tmp_path / f"out{workers}.json"
        assert cli.main(["run", "--config", str(cfg), "--json", str(out)] + ids) == 0
        reports[workers] = _stripped(out)
    assert reports[1] == reports[4]
    for bad in (0, "x"):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"max_workers": bad}))
        assert cli.main(["run", "--config", str(cfg)] + CHEAP) == 2
        assert "max_workers" in capsys.readouterr().err


def test_list_shows_all_ids(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for check_id in catalogue_ids():
        assert check_id in out


def test_ingest_round_trip(tmp_path, capsys):
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(hopf_to_json(taft(2))))
    assert cli.main(["ingest", str(path)]) == 0
    assert "hopf algebra, dim 4" in capsys.readouterr().out


def test_ingest_corrupted_antipode(tmp_path, capsys):
    doc = hopf_to_json(taft(2))
    doc["antipode"]["entries"][0][0] = {"order": 1, "coeffs": [["7", "1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["ingest", str(path)]) == 2
    assert "antipode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": "abc", "unit": [], "structure": []}',
        '{"dim": 1, "unit": [{"order": 1, "coeffs": [["1", "1"]]}], "structure": [5]}',
    ],
    ids=["dim-not-int", "plane-not-list"],
)
def test_ingest_mistyped_document_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "mistyped.json"
    path.write_text(text)
    assert cli.main(["ingest", str(path)]) == 2
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [
        b"[" * 200_000 + b"]" * 200_000,
        b'{"dim": ' + b"1" * 5001 + b', "unit": [], "structure": []}',
        b"\xff\xfe{",
    ],
    ids=["nested-200000-deep", "dim-of-5001-digits", "not-utf8"],
)
def test_ingest_undecodable_document_is_usage_error(tmp_path, capsys, data):
    # past the recursion limit, past Python's 4,300-digit int limit, not text
    path = tmp_path / "undecodable.json"
    path.write_bytes(data)
    assert cli.main(["ingest", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err and "internal error" not in err


def test_ingest_missing_file(capsys):
    assert cli.main(["ingest", "/nonexistent/path.json"]) == 2


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(ids, ctx):
        raise CheckCrashed("S3-taft-axioms", RuntimeError("boom"))

    monkeypatch.setattr(cli, "run_checks", boom)
    assert cli.main(["run", "--id", "S3-taft-axioms"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_failed_invariant_is_internal_error(monkeypatch, capsys):
    # a minimal polynomial that does not annihilate its matrix crashes E3.23
    from hopfcheck import linalg

    monkeypatch.setattr(linalg, "poly_eval_matrix", lambda poly, m: linalg.Matrix.identity(1))
    assert cli.main(["run", "--id", "E3.23-minpoly", "--p", "2"]) == 3
    assert "InvariantError" in capsys.readouterr().err


def test_usage_errors_from_argparse():
    # argparse handles unknown subcommands/flags with its own exit code 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main([]) == 2


def _bad_scalar_docs():
    zero_den = {"order": 1, "coeffs": [["1", "0"]]}
    docs = {}
    for field in ("unit", "counit", "comult", "antipode"):
        doc = hopf_to_json(taft(2))
        if field in ("comult", "antipode"):
            doc[field]["entries"][1][1] = zero_den
        else:
            doc[field][0] = zero_den
        docs[f"zero-den-{field}"] = doc
    # taft(3) is written at order 3; int(3.7) would read its entry unchanged
    doc = hopf_to_json(taft(3))
    doc["structure"][1][1][2]["order"] = 3.7
    docs["order-non-integer"] = doc
    for label, order in (("over-cap", MAX_ORDER + 1), ("huge", 10**18)):
        doc = hopf_to_json(taft(2))
        deg = phi_degree(order) if order == MAX_ORDER + 1 else 1
        doc["structure"][0][0][0] = {"order": order, "coeffs": [["0", "1"]] * deg}
        docs[f"order-{label}"] = doc
    # zeros of orders 997 and 991: each order is within the cap, their lcm is not
    doc = hopf_to_json(taft(2))
    for k, order in ((2, 997), (3, 991)):
        doc["unit"][k] = {"order": order, "coeffs": [["0", "1"]] * phi_degree(order)}
    docs["order-lcm-over-cap"] = doc
    return docs


@pytest.mark.parametrize("name", sorted(_bad_scalar_docs()))
def test_ingest_malformed_scalar_is_usage_error(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_bad_scalar_docs()[name]))
    assert cli.main(["ingest", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad scalar" in err and "internal error" not in err


@pytest.mark.parametrize(
    "config",
    [
        {"samples": True},
        {"seed": False},
        {"max_workers": True},
        {"p": [True]},
        {"p": [2, False]},
    ],
)
def test_config_booleans_are_not_integers(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(cfg)] + CHEAP) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("value", [7, 1, ["r.json"]])
def test_config_json_must_be_a_string(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"json": value}))
    assert cli.main(["run", "--config", str(cfg)] + CHEAP) == 2
    assert "'json' must be a string" in capsys.readouterr().err


def test_unwritable_report_path_is_usage_error_before_the_run(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("checks ran although the report cannot be written")

    monkeypatch.setattr(cli, "run_checks", refuse)
    path = tmp_path / "nonexistent" / "r.json"
    assert cli.main(["run", "--json", str(path)] + CHEAP) == 2
    assert str(path) in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"json": str(tmp_path)}))  # a directory
    assert cli.main(["run", "--config", str(cfg)] + CHEAP) == 2
    assert str(tmp_path) in capsys.readouterr().err
