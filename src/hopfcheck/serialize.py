"""JSON import/export for algebras and Hopf data.

Schemas (scalars are { "order": N, "coeffs": [["num","den"], ...] }):

  algebra: { "dim": n, "unit": [scalar...], "structure": [[[scalar...]...]...] }
           with structure[i][j] the dense coordinate vector of e_i e_j;
  hopf:    the algebra schema plus "comult" (an n^2 x n matrix, columns
           indexed by basis vectors, rows by first-leg-major tensor pairs),
           "counit" ([scalar...]) and "antipode" (an n x n matrix).

Ingest validates the defining axioms on construction and reports the first
broken one by name.
"""

import json

from .cyclotomic import ZERO, Cyclotomic, cyc_from_json
from .linalg import Matrix, matrix_from_json
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


def _scalar(obj, where: str) -> Cyclotomic:
    try:
        return cyc_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"bad scalar in {where}: {exc}") from exc


def _require_list(value, n: int, where: str) -> None:
    if not isinstance(value, list):
        raise IngestError(f"{where} must be a list, got {type(value).__name__}")
    if len(value) != n:
        raise IngestError(f"{where} must have length dim")


def algebra_from_json(obj: dict, *, name: str = "ingested") -> StructureAlgebra:
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
    unit = [_scalar(v, "unit") for v in unit_json]
    rows = []
    for i, plane in enumerate(structure):
        _require_list(plane, n, f"structure[{i}]")
        row = []
        for j, vec in enumerate(plane):
            _require_list(vec, n, f"structure[{i}][{j}]")
            cell = {}
            for k, v in enumerate(vec):
                c = _scalar(v, f"structure[{i}][{j}][{k}]")
                if c:
                    cell[k] = c
            row.append(cell)
        rows.append(row)
    try:
        return StructureAlgebra(n, rows, unit, name=name, check="auto")
    except (AlgebraError, ValueError) as exc:
        raise IngestError(f"algebra axioms fail: {exc}") from exc


def hopf_from_json(obj: dict, *, name: str = "ingested") -> HopfData:
    alg = algebra_from_json(obj, name=name)
    try:
        comult = matrix_from_json(obj["comult"])
        counit = [_scalar(v, "counit") for v in obj["counit"]]
        antipode = matrix_from_json(obj["antipode"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"bad hopf field: {exc}") from exc
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
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IngestError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise IngestError("top-level JSON value must be an object")
    if "comult" in obj or "counit" in obj or "antipode" in obj:
        return hopf_from_json(obj)
    return algebra_from_json(obj)
