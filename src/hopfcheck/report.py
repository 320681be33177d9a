"""Check reports: the uniform result record produced by every verifier,
and the two ways a run of the catalogue can end without one."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
PRECONDITION_FAILED = "precondition-failed"

_STATUSES = (PASS, FAIL, PRECONDITION_FAILED)


@dataclass
class CheckReport:
    """Outcome of one named check.

    witnesses holds small, JSON-serializable evidence backing the verdict:
    dimensions, relation residual supports, offending basis indices and the
    like.  elapsed is wall time in seconds, excluded from determinism
    comparisons.
    """

    id: str
    status: str
    witnesses: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json(self) -> dict:
        return {"id": self.id, "status": self.status, "witnesses": self.witnesses,
                "elapsed": round(self.elapsed, 6)}


def combine(check_id: str, parts: dict[str, CheckReport]) -> CheckReport:
    """Merge sub-reports (e.g. one per parameter value) into one report.

    The merged status is the worst of the parts: any fail dominates, then any
    precondition failure, else pass.
    """
    status = PASS
    if any(p.status == PRECONDITION_FAILED for p in parts.values()):
        status = PRECONDITION_FAILED
    if any(p.status == FAIL for p in parts.values()):
        status = FAIL
    witnesses = {key: {"status": p.status, **p.witnesses} for key, p in parts.items()}
    return CheckReport(check_id, status, witnesses)


def summarize(reports) -> dict:
    counts = {PASS: 0, FAIL: 0, PRECONDITION_FAILED: 0}
    for r in reports:
        counts[r.status] += 1
    return {
        "total": len(reports),
        "pass": counts[PASS],
        "fail": counts[FAIL],
        "precondition-failed": counts[PRECONDITION_FAILED],
        "all-pass": counts[PASS] == len(reports),
    }


class CatalogueError(KeyError):
    """Unknown check id requested."""


class CheckCrashed(RuntimeError):
    """A runner raised instead of reporting; maps to the internal-error exit."""

    def __init__(self, check_id: str, cause: BaseException):
        self.check_id = check_id
        self.cause = cause
        super().__init__(f"{check_id}: {cause!r}")
