"""Command-line front end: run catalogue checks, list them, ingest
user-supplied algebra files.

Exit codes: 0 all selected checks pass, 1 at least one does not,
2 usage or configuration error, 3 internal error.
"""

import argparse
import json
import os
import sys

from .catalogue import (
    CatalogueError,
    CheckCrashed,
    CATALOGUE,
    Context,
    RunConfig,
    catalogue_ids,
    run_checks,
    summarize,
)
from .hopf import HopfData
from .serialize import IngestError, ingest_algebra

CONFIG_ENV_VAR = "HOPFCHECK_CONFIG"

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    pass


def _parse_p_list(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"cannot parse p list {text!r}; expected e.g. 2,3")
    if not values:
        raise UsageError("empty p list")
    return values


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    allowed = {"p", "samples", "seed", "max_workers", "json"}
    unknown = set(data) - allowed
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _is_int(value) -> bool:
    """A JSON integer; JSON true and false decode to bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _effective_config(args) -> tuple:
    """Merge defaults, config file and flags; returns (RunConfig, json_path)."""
    file_values: dict = {}
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if path:
        file_values = _load_config_file(path)
    ps = (2, 3)
    if "p" in file_values:
        raw = file_values["p"]
        if not isinstance(raw, list) or not all(_is_int(v) for v in raw):
            raise UsageError("config key 'p' must be a list of integers")
        ps = tuple(raw)
    if args.p is not None:
        ps = _parse_p_list(args.p)
    kwargs = {"ps": ps}
    for key in ("samples", "seed", "max_workers"):
        if key in file_values:
            if not _is_int(file_values[key]):
                raise UsageError(f"config key {key!r} must be an integer")
            kwargs[key] = file_values[key]
    # checks run serially; max_workers is validated for old config files, then ignored
    if kwargs.pop("max_workers", 1) < 1:
        raise UsageError("max_workers must be positive")
    if not isinstance(file_values.get("json", ""), str):
        raise UsageError("config key 'json' must be a string")
    json_path = args.json or file_values.get("json")
    if json_path:
        try:
            open(json_path, "a").close()  # fail before the run, not after it
        except OSError as exc:
            raise UsageError(f"cannot write report {json_path}: {exc.strerror}")
    try:
        config = RunConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))
    return config, json_path


def _report_documents(reports) -> dict:
    return {
        "checks": [r.to_json() for r in reports],
        "summary": summarize(reports),
    }


def _print_text(reports, out) -> None:
    width = max((len(r.id) for r in reports), default=0)
    for r in reports:
        print(f"{r.status:<20} {r.id:<{width}}  {r.elapsed:7.2f}s", file=out)
        if r.status != "pass":
            print(f"    witnesses: {json.dumps(r.witnesses, sort_keys=True)}", file=out)
    summary = summarize(reports)
    print(
        f"{summary['pass']}/{summary['total']} pass, "
        f"{summary['fail']} fail, "
        f"{summary['precondition-failed']} precondition-failed",
        file=out,
    )


def _cmd_run(args, out) -> int:
    config, json_path = _effective_config(args)
    if args.all and args.id:
        raise UsageError("--all and --id are mutually exclusive")
    ids = None
    if args.id:
        ids = list(dict.fromkeys(args.id))  # preserve user order, drop repeats
        known = set(catalogue_ids())
        unknown = [i for i in ids if i not in known]
        if unknown:
            raise UsageError(f"unknown check ids: {', '.join(unknown)}")
    ctx = Context(config)
    reports = run_checks(ids, ctx)
    _print_text(reports, out)
    if json_path:
        doc = _report_documents(reports)
        with open(json_path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _cmd_list(args, out) -> int:
    width = max(len(e.id) for e in CATALOGUE)
    for entry in sorted(CATALOGUE, key=lambda e: e.id):
        print(f"{entry.id:<{width}}  {entry.statement}", file=out)
        print(f"{'':<{width}}  params: {entry.params}", file=out)
    return EXIT_PASS


def _cmd_ingest(args, out) -> int:
    obj = ingest_algebra(args.file)
    kind = "hopf algebra" if isinstance(obj, HopfData) else "algebra"
    print(f"ok: {kind}, dim {obj.dim}, axioms verified", file=out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="run exact verification checks from the catalogue",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run all or selected checks")
    run_p.add_argument("--all", action="store_true", help="run the whole catalogue")
    run_p.add_argument(
        "--id", action="append", default=None, metavar="CHECK-ID",
        help="run one check (repeatable)",
    )
    run_p.add_argument("--p", default=None, help="comma-separated p values, e.g. 2,3")
    run_p.add_argument("--json", default=None, help="write a JSON report to this path")
    run_p.add_argument(
        "--config", default=None,
        help=f"config file (default: ${CONFIG_ENV_VAR} if set)",
    )

    sub.add_parser("list", help="list catalogue entries")

    ingest_p = sub.add_parser("ingest", help="load and axiom-check a JSON algebra file")
    ingest_p.add_argument("file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help; keep both
        return int(exc.code or 0)
    out = sys.stdout
    try:
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "list":
            return _cmd_list(args, out)
        if args.command == "ingest":
            return _cmd_ingest(args, out)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, CatalogueError, IngestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckCrashed as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
