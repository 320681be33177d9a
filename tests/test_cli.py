"""CLI contract: exit codes, determinism of JSON reports, ingest."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest
from test_serialize import decode_ways

import hopfcheck

from hopfcheck import algebra, catalogue, cli
from hopfcheck.catalogue import CheckCrashed, catalogue_ids
from hopfcheck.cyclotomic import MAX_ORDER, phi_degree
from hopfcheck.hopf import taft
from hopfcheck.serialize import algebra_to_json, hopf_to_json

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


@pytest.mark.parametrize(
    "data",
    [
        b"\xff\xfe{",
        b"[" * 200_000 + b"]" * 200_000,
        b'{"seed": ' + b"1" * 5001 + b"}",
    ],
    ids=["not-utf8", "nested-200000-deep", "seed-of-5001-digits"],
)
def test_undecodable_config_is_usage_error(tmp_path, capsys, data):
    # not text, past the recursion limit, past Python's 4,300-digit int limit
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    assert cli.main(["run", "--id", "S3-S-squared", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: config" in err and "not valid JSON" in err and "internal error" not in err


def test_p_above_the_field_order_cap_is_usage_error(capsys):
    # taft(p) lives in Q(zeta_p): a p past MAX_ORDER is refused before any check runs
    assert cli.main(["run", "--id", "S3-S-squared", "--p", "99999999999999999999999"]) == 2
    err = capsys.readouterr().err
    assert f"at most {MAX_ORDER}" in err and "internal error" not in err


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


def test_no_module_of_the_package_asserts():
    """python -O strips assert statements, so no check of the package may be one."""
    package = pathlib.Path(hopfcheck.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 12
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


_CERTIFIED_IN_A_FRESH_PROCESS = """
import sys
from hopfcheck import cli
from hopfcheck.algebra import StructureAlgebra

certified = []
modular = StructureAlgebra._assoc_modular

def spy(self):
    certified.append(self.dim)
    return modular(self)

StructureAlgebra._assoc_modular = spy
code = cli.main(sys.argv[1:])
print(code, certified, sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"}))
"""


@pytest.mark.parametrize("command", ["run", "ingest"])
def test_certified_verdicts_load_neither_numpy_nor_scipy(tmp_path, command):
    # the associativity certificate runs on every algebra that run --all
    # --p 2,3 builds, the three 81-dim doubles of taft(3) among them, and on
    # taft(7) (dim 49); D2.2 reads the twisted double's certificate from its
    # record, and the g g' blocks (8, 8 at p = 2 and 27, 27, 27 at p = 3)
    # inherit their proof from the proven double, so neither certifies again
    if command == "run":
        dims = [1, 1, 2, 4, 3, 9, 4, 16, 9, 81, 10, 4, 6, 1, 3, 5, 4, 9,
                4, 4, 9, 9, 16, 16, 81, 81]
        args = ["run", "--all", "--p", "2,3"]
    else:
        path = tmp_path / "taft7.json"
        path.write_text(json.dumps(algebra_to_json(taft(7).algebra)))
        args, dims = ["ingest", str(path)], [49]
    src = os.path.dirname(os.path.dirname(hopfcheck.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", _CERTIFIED_IN_A_FRESH_PROCESS] + args,
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().split("\n")[-1] == f"0 {dims} []"


_CATALOGUE_MODULES = ["hopfcheck.catalogue", "hopfcheck.doubles", "hopfcheck.dga"]


@pytest.mark.parametrize("command", ["ingest", "run"])
def test_only_run_and_list_load_the_catalogue(tmp_path, command):
    # ingest runs none of the catalogue, the doubles or the dga module, so a
    # fresh `verify ingest` does not import them
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(hopf_to_json(taft(3))))
    args = ["ingest", str(path)] if command == "ingest" else ["run"] + CHEAP
    script = (
        "import sys\n"
        "from hopfcheck import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        f"print(code, sorted(set(sys.modules) & set({_CATALOGUE_MODULES!r})))\n"
    )
    src = os.path.dirname(os.path.dirname(hopfcheck.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script] + args,
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    loaded = [] if command == "ingest" else _CATALOGUE_MODULES
    assert run.stdout.strip().split("\n")[-1] == f"0 {sorted(loaded)}"


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


def test_samples_and_seed_are_accepted_and_ignored(tmp_path, capsys):
    # D2.2's sample is fixed: a config that sets samples and seed writes
    # the report of a run without them
    reports = []
    for config in ({}, {"samples": 1, "seed": 7}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.json"
        args = ["run", "--id", "D2.2-assoc-unital", "--p", "3", "--config", str(cfg)]
        assert cli.main(args + ["--json", str(out)]) == 0
        reports.append(_stripped(out))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("samples", [0, -3])
def test_ignored_samples_must_still_be_positive(tmp_path, capsys, samples):
    # as max_workers: a mistyped config file is reported, not ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": samples}))
    assert cli.main(["run", "--config", str(cfg)] + CHEAP) == 2
    assert "samples must be positive" in capsys.readouterr().err


def test_list_shows_all_ids(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for check_id in catalogue_ids():
        assert check_id in out


def _ingest(path, capsys) -> tuple:
    """(exit code, stdout, stderr) of `verify ingest path`, once every way
    ingest can decode the file is seen to give the same three."""
    seen = []
    for way in decode_ways():
        with way:
            code = cli.main(["ingest", str(path)])
        seen.append((code, *capsys.readouterr()))
    assert seen[1:] == seen[:1] * 2, seen
    return seen[0]


def test_ingest_round_trip(tmp_path, capsys):
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(hopf_to_json(taft(2))))
    code, out, _ = _ingest(path, capsys)
    assert code == 0
    assert "hopf algebra, dim 4" in out


@pytest.mark.parametrize("hopf", [True, False])
def test_ingest_says_when_associativity_is_only_sampled(tmp_path, capsys, monkeypatch, hopf):
    # above DEFAULT_EXHAUSTIVE_LIMIT construction samples associativity, and
    # ingest says so in place of "axioms verified"; up to it, the line holds
    doc = hopf_to_json(taft(3)) if hopf else algebra_to_json(taft(3).algebra)
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(doc))
    kind = "hopf algebra" if hopf else "algebra"
    lines = {}
    for limit in (9, 8):
        monkeypatch.setattr(algebra, "DEFAULT_EXHAUSTIVE_LIMIT", limit)
        lines[limit] = _ingest(path, capsys)
    assert lines[9] == (0, f"ok: {kind}, dim 9, axioms verified\n", "")
    assert lines[8] == (0, f"ok: {kind}, dim 9, associativity sampled (10,000 triples), not proven\n", "")


def test_ingest_corrupted_antipode(tmp_path, capsys):
    doc = hopf_to_json(taft(2))
    doc["antipode"]["entries"][0][0] = {"order": 1, "coeffs": [["7", "1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = _ingest(path, capsys)
    assert code == 2
    assert "antipode" in err


def _bare_list_comult(doc):
    doc["comult"] = doc["comult"]["entries"]


def _short_counit(doc):
    del doc["counit"][-1]


def _int_antipode(doc):
    doc["antipode"] = 7


def _short_antipode(doc):
    del doc["antipode"]["entries"][-1]


@pytest.mark.parametrize(
    "put,error",
    [
        (_bare_list_comult, 'comult must be a 16 x 4 matrix, an object with "rows", "cols" '
                            'and "entries"; got list'),
        (_short_counit, "counit must have length dim"),
        (_int_antipode, 'antipode must be a 4 x 4 matrix, an object with "rows", "cols" '
                        'and "entries"; got int'),
        (_short_antipode, "antipode must be a 4 x 4 matrix, got 3 x 4 entries"),
    ],
    ids=["comult", "counit", "antipode", "antipode-rows"],
)
def test_ingest_names_the_hopf_field_and_its_shape(tmp_path, capsys, put, error):
    doc = hopf_to_json(taft(2))
    put(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = _ingest(path, capsys)
    assert code == 2
    assert error in err and "internal error" not in err


# the zero ring has 1 = 0, so eps(1) = 1 cannot hold
ZERO_DIM_HOPF = json.dumps({
    "dim": 0, "unit": [], "structure": [],
    "comult": {"rows": 0, "cols": 0, "entries": []}, "counit": [],
    "antipode": {"rows": 0, "cols": 0, "entries": []},
})


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": "abc", "unit": [], "structure": []}',
        '{"dim": 1, "unit": [{"order": 1, "coeffs": [["1", "1"]]}], "structure": [5]}',
        ZERO_DIM_HOPF,
    ],
    ids=["dim-not-int", "plane-not-list", "zero-dim-hopf"],
)
def test_ingest_mistyped_document_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "mistyped.json"
    path.write_text(text)
    code, _, err = _ingest(path, capsys)
    assert code == 2
    assert "internal error" not in err


def test_zero_dim_hopf_fails_the_counit_axiom_but_a_zero_dim_algebra_is_valid(
    tmp_path, capsys
):
    path = tmp_path / "zero.json"
    path.write_text(ZERO_DIM_HOPF)
    code, _, err = _ingest(path, capsys)
    assert code == 2
    assert "counit-algebra-map" in err
    path.write_text('{"dim": 0, "unit": [], "structure": []}')
    code, out, _ = _ingest(path, capsys)
    assert code == 0
    assert "algebra, dim 0" in out


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
    code, _, err = _ingest(path, capsys)
    assert code == 2
    assert "not valid JSON" in err and "internal error" not in err


def test_ingest_missing_file(capsys):
    assert cli.main(["ingest", "/nonexistent/path.json"]) == 2


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(ids, ctx):
        raise CheckCrashed("S3-taft-axioms", RuntimeError("boom"))

    monkeypatch.setattr(catalogue, "run_checks", boom)
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
    # in k x k, whose unit holds no zero, a null as the first entry read and
    # in a cell read before any zero
    one, zero = {"order": 1, "coeffs": [["1", "1"]]}, {"order": 1, "coeffs": [["0", "1"]]}
    for label, unit, cell in (("first-in-unit", [None, one], [one, zero]),
                              ("before-any-zero", [one, one], [one, None])):
        docs[f"null-{label}"] = {
            "dim": 2, "unit": unit,
            "structure": [[cell, [zero, zero]], [[zero, zero], [zero, one]]],
        }
    return docs


@pytest.mark.parametrize("name", sorted(_bad_scalar_docs()))
def test_ingest_malformed_scalar_is_usage_error(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_bad_scalar_docs()[name]))
    code, _, err = _ingest(path, capsys)
    assert code == 2
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

    monkeypatch.setattr(catalogue, "run_checks", refuse)
    path = tmp_path / "nonexistent" / "r.json"
    assert cli.main(["run", "--json", str(path)] + CHEAP) == 2
    assert str(path) in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"json": str(tmp_path)}))  # a directory
    assert cli.main(["run", "--config", str(cfg)] + CHEAP) == 2
    assert str(tmp_path) in capsys.readouterr().err
