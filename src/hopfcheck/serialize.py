"""JSON import/export for algebras and Hopf data.

Schemas (scalars are { "order": N, "coeffs": [["num","den"], ...] }):

  algebra: { "dim": n, "unit": [scalar...], "structure": [[[scalar...]...]...] }
           with structure[i][j] the dense coordinate vector of e_i e_j;
  hopf:    the algebra schema plus "comult" (an n^2 x n matrix, columns
           indexed by basis vectors, rows by first-leg-major tensor pairs),
           "counit" ([scalar...]) and "antipode" (an n x n matrix).

Ingest validates the defining axioms on construction and reports the first
broken one by name.  Each distinct scalar spelling of a document is parsed
once and the resulting immutable Cyclotomic shared.  ingest_algebra parses
scalars while json decodes the file, through cyclotomic.scalar_hook, so the
decoded tree holds one shared value per distinct spelling rather than a
dict, two lists and two strings per scalar.  The readers take those values
as they are, applying the cap on the lcm of orders, and parse and locate
whatever the hook left as JSON, through a ScalarMemo.  They consume
their document: they empty it once its fields are read, so that
ingest_algebra frees the decoded tree before the associativity certificate
runs.
"""

import json

from .cyclotomic import ZERO, ScalarMemo, cyc_from_json, scalar_hook
from .linalg import Matrix, shaped_matrix
from .algebra import AlgebraError, StructureAlgebra
from .hopf import HopfAxiomError, HopfData


class IngestError(ValueError):
    pass


def algebra_to_json(alg: StructureAlgebra) -> dict:
    n = alg.dim
    zero = ZERO
    structure = []
    for i in range(n):
        plane = []
        for j in range(n):
            vec = [zero] * n
            for k, v in alg.rows[i][j].items():
                vec[k] = v
            plane.append([v.to_json() for v in vec])
        structure.append(plane)
    return {
        "dim": n,
        "unit": [v.to_json() for v in alg.unit],
        "structure": structure,
    }


def hopf_to_json(h: HopfData) -> dict:
    out = algebra_to_json(h.algebra)
    out["comult"] = h.comult_matrix().to_json()
    out["counit"] = [v.to_json() for v in h.counit]
    out["antipode"] = h.antipode.to_json()
    return out


def _scalars(values, memo: ScalarMemo, where: str) -> list:
    """The scalars of a JSON list, read through the document's memo; the
    location of a bad entry is spelled out only when one is found."""
    out = []
    for k, obj in enumerate(values):
        try:
            out.append(cyc_from_json(obj, memo))
        except (KeyError, TypeError, ValueError) as exc:
            raise IngestError(f"bad scalar in {where}[{k}]: {exc}") from exc
    return out


def _require_list(value, n: int, where: str) -> None:
    if not isinstance(value, list):
        raise IngestError(f"{where} must be a list, got {type(value).__name__}")
    if len(value) != n:
        raise IngestError(f"{where} must have length dim")


def _read_algebra(obj: dict, memo: ScalarMemo):
    """Validated (dim, sparse rows, unit) of an algebra document."""
    try:
        n = obj["dim"]
        unit_json = obj["unit"]
        structure = obj["structure"]
    except (KeyError, TypeError) as exc:
        raise IngestError(f"missing algebra field: {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise IngestError(f"dim must be an integer, got {n!r}")
    if n < 0:
        raise IngestError("dim must be nonnegative")
    _require_list(unit_json, n, "unit")
    _require_list(structure, n, "structure")
    unit = _scalars(unit_json, memo, "unit")
    rows = []
    for i, plane in enumerate(structure):
        _require_list(plane, n, f"structure[{i}]")
        row = []
        for j, vec in enumerate(plane):
            where = f"structure[{i}][{j}]"
            _require_list(vec, n, where)
            row.append({k: c for k, c in enumerate(_scalars(vec, memo, where)) if c})
        rows.append(row)
    return n, rows, unit


def _read_matrix(obj: dict, memo: ScalarMemo, where: str) -> Matrix:
    entries = [_scalars(r, memo, f"{where}[{i}]") for i, r in enumerate(obj["entries"])]
    return shaped_matrix(obj, entries)


def _read_hopf(obj: dict, memo: ScalarMemo):
    """(dim, rows, unit, comult, counit, antipode) of a Hopf document."""
    n, rows, unit = _read_algebra(obj, memo)
    try:
        comult = _read_matrix(obj["comult"], memo, "comult")
        counit = _scalars(obj["counit"], memo, "counit")
        antipode = _read_matrix(obj["antipode"], memo, "antipode")
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"bad hopf field: {exc}") from exc
    return n, rows, unit, comult, counit, antipode


def _build_algebra(n: int, rows, unit, name: str) -> StructureAlgebra:
    try:
        return StructureAlgebra(n, rows, unit, name=name, check="auto")
    except (AlgebraError, ValueError) as exc:
        raise IngestError(f"algebra axioms fail: {exc}") from exc


def algebra_from_json(obj: dict, *, name: str = "ingested") -> StructureAlgebra:
    """Validate and build an algebra document.  This consumes obj: it is
    emptied once its fields are read, so that a caller holding the only
    other reference frees the decoded tree before the axioms are checked."""
    n, rows, unit = _read_algebra(obj, ScalarMemo())
    obj.clear()
    return _build_algebra(n, rows, unit, name)


def hopf_from_json(obj: dict, *, name: str = "ingested") -> HopfData:
    """Validate and build a Hopf document, consuming obj as algebra_from_json
    does.  Every field is read before any axiom is checked."""
    n, rows, unit, comult, counit, antipode = _read_hopf(obj, ScalarMemo())
    obj.clear()
    alg = _build_algebra(n, rows, unit, name)
    try:
        return HopfData(alg, comult, counit, antipode, name=name)
    except HopfAxiomError as exc:
        raise IngestError(f"hopf axiom fails: {exc.axiom}") from exc
    except ValueError as exc:
        raise IngestError(str(exc)) from exc


def ingest_algebra(path: str):
    """Load a JSON file holding either schema; returns HopfData when the
    coalgebra fields are present, else StructureAlgebra."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh, object_hook=scalar_hook())
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, bytes that are not text, an integer literal above
        # Python's digit limit, or nesting deeper than the recursion limit
        raise IngestError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise IngestError("top-level JSON value must be an algebra object")
    if "comult" in obj or "counit" in obj or "antipode" in obj:
        return hopf_from_json(obj)
    return algebra_from_json(obj)
