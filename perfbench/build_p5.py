"""One build-p5 operation, run in a fresh process: build taft(5) and one of
its doubles (twisted, drinfeld or anti) through hopfcheck's public calls,
then write what run.py needs to re-check the double with its own
arithmetic.

Usage: python3 build_p5.py SEED DOUBLE OUT_JSON   (with hopfcheck importable)

The export holds the double's dim, its unit and sigma coordinates, and the
structure-constant cells that a seeded sample of associativity triples,
unit-law basis elements and sigma-centrality basis elements reads.  An
export is a few hundred cells, so it costs milliseconds of the timed
operation.  A failed build writes {"error": ...} instead.
"""

import json
import random
import sys

from hopfcheck.doubles import build_classical_double, build_twisted_double
from hopfcheck.hopf import taft

P = 5
SAMPLES = 8


def _scalars(d: dict) -> dict:
    return {str(k): v.to_json() for k, v in d.items()}


def _coords(coords) -> dict:
    return {str(k): v.to_json() for k, v in enumerate(coords) if v}


def export(alg, sigma, rng) -> dict:
    n = alg.dim
    cells: dict = {}

    def need(i, j):
        key = f"{i},{j}"
        if key not in cells:
            cells[key] = _scalars(alg.rows[i][j])
        return alg.rows[i][j]

    unit_support = [k for k, v in enumerate(alg.unit) if v]
    sigma_support = [] if sigma is None else [k for k, v in enumerate(sigma.coords) if v]
    triples = [tuple(rng.randrange(n) for _ in range(3)) for _ in range(SAMPLES)]
    for i, j, k in triples:
        for m in need(i, j):
            need(m, k)
        for m in need(j, k):
            need(i, m)
    unit_basis = [rng.randrange(n) for _ in range(SAMPLES)]
    sigma_basis = [rng.randrange(n) for _ in range(SAMPLES)]
    for b in unit_basis:
        for a in unit_support:
            need(a, b)
            need(b, a)
    for b in sigma_basis if sigma is not None else []:
        for a in sigma_support:
            need(a, b)
            need(b, a)
    return {
        "dim": n,
        "order": alg.order,
        "unit": _coords(alg.unit),
        "sigma": None if sigma is None else _coords(sigma.coords),
        "triples": triples,
        "unit_basis": unit_basis,
        "sigma_basis": sigma_basis if sigma is not None else [],
        "cells": cells,
    }


BUILDS = {
    "twisted": lambda h: build_twisted_double(h),
    "drinfeld": lambda h: build_classical_double(h, "drinfeld"),
    "anti": lambda h: build_classical_double(h, "anti"),
}


def main(argv) -> int:
    seed, which, out_path = int(argv[0]), argv[1], argv[2]
    try:
        double = BUILDS[which](taft(P))
        result = export(double.algebra, double.sigma, random.Random(f"{seed}-{which}"))
    except Exception as exc:  # a failed build is a failed operation, reported
        result = {"error": repr(exc)}
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
