"""The catalogue's verdicts and witnesses, pinned byte for byte.

tests/golden/run_p23.json holds the `checks` (without `elapsed`) and the
`summary` of `verify run --all --p 2,3 --json`; run_p5.json holds the same
for `--p 5` and is compared in CI, since that run takes about 10 s.
Both were written before the linear algebra moved to sparse rows, so any
change of representation that alters a witness shows up here.  To
regenerate one after a deliberate change of the report, run the CLI with
--json and drop every check's `elapsed` key (json.dump with sort_keys=True,
indent=2 and a trailing newline).
"""

import json
from pathlib import Path

from hopfcheck.catalogue import Context, run_checks
from hopfcheck.cli import _report_documents

GOLDEN = Path(__file__).parent / "golden"


def without_elapsed(doc: dict) -> dict:
    return {
        "checks": [{k: v for k, v in c.items() if k != "elapsed"} for c in doc["checks"]],
        "summary": doc["summary"],
    }


def test_run_p23_matches_the_golden_report():
    reports = run_checks(None, Context((2, 3)))
    got = json.loads(json.dumps(_report_documents(reports), sort_keys=True))
    want = json.loads((GOLDEN / "run_p23.json").read_text())
    assert without_elapsed(got) == want
