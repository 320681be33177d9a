"""Traced and counting passes, and the fixed layer micro-calls.

Usage (with hopfcheck importable):
  python3 traced.py spans  OUT_JSON OP...   run one operation with timing spans
  python3 traced.py counts OUT_JSON OP...   run it with call counters
  python3 traced.py probes OUT_JSON SEED    time fixed calls into each layer

OP is either `cli ARG...` (hopfcheck's `verify` entry point with ARG...)
or `build SEED OUT` (build_p5.py).  The process exits with the operation's
exit code, so run.py checks traced operations exactly like timed ones.

Spans come from wrappers installed around hopfcheck's public functions and
methods before the operation starts.  A module-level function is replaced
in every hopfcheck module that imported it.  Each span records its name,
start, end, parent span and attributes, is kept in memory, and is written
out when the operation ends.  Counters are a separate pass: they wrap the
hot scalar and elimination calls, whose per-call cost would distort the
spans, and they are reported only as counts.
"""

import functools
import json
import random
import statistics
import sys
import time
import types


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """fn with a span around every call; attrs(args) gives span attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            extra = attrs(*args, **kwargs) if attrs else {}
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = {"id": sid, "name": name, "start": start, "end": end,
                                   "parent": parent, **extra}

        return wrapper

    def wrap_fixture(self, name, fn):
        """A Context fixture method; only calls that built something keep a span."""
        spanned = self.wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(ctx, *args):
            before = len(self.spans)
            size = len(ctx._cache)
            try:
                return spanned(ctx, *args)
            finally:
                if len(ctx._cache) == size:
                    self.spans[before]["name"] = "fixture-hit"

        return wrapper


def _hopfcheck_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "hopfcheck" or name.startswith("hopfcheck.")]


def patch_function(module, attr, make):
    """Replace module.attr, and every other hopfcheck module's reference to
    the same object, by make(original)."""
    original = getattr(module, attr)
    replacement = make(original)
    for mod in _hopfcheck_modules():
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, replacement)


def patch_method(cls, attr, make):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _taft_p(h):
    meta = getattr(h, "meta", None) or {}
    return meta.get("p") if meta.get("family") == "taft" else None


def install_spans(tracer: Tracer) -> None:
    import hopfcheck.cli  # noqa: F401  loads every module before patching
    from hopfcheck import algebra, catalogue, dga, doubles, hopf, linalg, serialize

    w = tracer.wrap
    patch_method(algebra.StructureAlgebra, "__init__",
                 lambda f: w("algebra.construct", f,
                              lambda self, *a, **k: {"dim": a[0] if a else k["dim"]}))
    for name in ("central_eigensplit", "is_central"):
        patch_method(algebra.StructureAlgebra, name, lambda f, n=name: w(f"algebra.{n}", f))
    for name in ("kernel", "rref", "minimal_polynomial", "eigensplit"):
        patch_function(linalg, name, lambda f, n=name: w(f"linalg.{n}", f))
    for name in ("from_vectors", "contains", "contains_subspace", "coordinates", "intersection"):
        patch_method(linalg.Subspace, name, lambda f, n=name: w(f"linalg.Subspace.{n}", f))
    patch_function(hopf, "taft", lambda f: w("hopf.taft", f))
    patch_function(hopf, "check_algebra_map", lambda f: w("hopf.check_algebra_map", f))
    patch_function(hopf, "check_hopf_axioms", lambda f: w("hopf.check_hopf_axioms", f))
    patch_method(hopf.HopfData, "__init__", lambda f: w("hopf.construct", f))
    patch_function(doubles, "build_twisted_double",
                   lambda f: w("doubles.twisted", f, lambda h, *a, **k: {"p": _taft_p(h)}))
    patch_function(doubles, "build_classical_double",
                   lambda f: w("doubles.classical", f, lambda h, *a, **k: {"p": _taft_p(h)}))
    patch_function(doubles, "split_blocks", lambda f: w("doubles.split_blocks", f))
    patch_function(doubles, "taft_double_generators", lambda f: w("doubles.generators", f))
    for name in ("stable_quotient", "stable_dga", "hh_minus_one", "complex_cohomology",
                 "diagonalizability_report"):
        patch_function(dga, name, lambda f, n=name: w(f"dga.{n}", f))
    for name in ("algebra_from_json", "hopf_from_json"):
        patch_function(serialize, name, lambda f, n=name: w(f"serialize.{n}", f))
    # serialize decodes with json.load; give it a json namespace whose load is spanned
    decoder = types.SimpleNamespace(**vars(serialize.json))
    decoder.load = w("serialize.decode", serialize.json.load)
    serialize.json = decoder
    for name in ("taft", "group", "twisted_taft", "twisted_group", "classical_taft",
                 "classical_group", "taft_generators", "taft_blocks", "block_dgas_p2"):
        patch_method(catalogue.Context, name, lambda f: tracer.wrap_fixture("catalogue.fixture", f))
    for entry in catalogue.CATALOGUE:
        object.__setattr__(entry, "runner", w("catalogue.check", entry.runner,
                                              lambda ctx, i=entry.id: {"check": i}))


COUNTED = (
    ("cyclotomic.constructions", "hopfcheck.cyclotomic", "Cyclotomic", "__init__"),
    ("cyclotomic.lifts", "hopfcheck.cyclotomic", "Cyclotomic", "lift"),
    ("linalg.echelon_adds", "hopfcheck.linalg", "EchelonBasis", "add"),
    ("linalg.subspace_queries", "hopfcheck.linalg", "Subspace", "coordinates"),
    ("linalg.subspace_queries", "hopfcheck.linalg", "Subspace", "contains"),
)


def install_counters(counts: dict) -> None:
    import importlib

    for key, module, cls_name, attr in COUNTED:
        counts.setdefault(key, 0)
        cls = getattr(importlib.import_module(module), cls_name)

        def make(fn, key=key):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        patch_method(cls, attr, make)


def run_op(op) -> int:
    kind, args = op[0], op[1:]
    if kind == "cli":
        from hopfcheck.cli import main

        return main(args)
    if kind == "build":
        import build_p5

        return build_p5.main(args)
    raise SystemExit(f"unknown operation kind {kind!r}")


# -- fixed micro-calls --------------------------------------------------------


def _per_call(fn, calls, repeats=5):
    """Median seconds per call of fn over `repeats` timed batches."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def probes(seed: int) -> dict:
    from hopfcheck.algebra import StructureAlgebra
    from hopfcheck.cyclotomic import Cyclotomic, cyc_from_json, phi_degree, root_of_unity
    from hopfcheck.doubles import build_twisted_double, taft_double_generators
    from hopfcheck.hopf import taft
    from hopfcheck.linalg import kernel

    rng = random.Random(seed)

    def dense(order):
        deg = phi_degree(order)
        return Cyclotomic(order, tuple(rng.randint(-9, 9) or 1 for _ in range(deg)),
                          rng.randint(1, 9))

    out = {}
    pairs, rounds = 400, 10

    def per_op(op, xs):
        def batch():
            for _ in range(rounds):
                for a, b in xs:
                    op(a, b)

        return _per_call(batch, rounds * len(xs))

    add, mul = (lambda a, b: a + b), (lambda a, b: a * b)
    for order in (1, 3, 5):
        xs = [(dense(order), dense(order)) for _ in range(pairs)]
        out[f"cyclotomic.mul_ns.o{order}"] = per_op(mul, xs) * 1e9
        if order > 1:
            out[f"cyclotomic.add_ns.o{order}"] = per_op(add, xs) * 1e9
    mixed = [(Cyclotomic.from_int(rng.randint(-9, 9)), dense(3)) for _ in range(pairs)]
    out["cyclotomic.mixed_add_ns"] = per_op(add, mixed) * 1e9
    docs = [(dense(3).to_json(), None) for _ in range(pairs)]
    out["cyclotomic.from_json_us"] = per_op(lambda d, _: cyc_from_json(d), docs) * 1e6

    # elimination and certificate calls on the 81-dim twisted double of taft(3)
    double = build_twisted_double(taft(3))
    gens = taft_double_generators(double)
    z = gens["g"] * gens["g'"]
    lz = double.algebra.left_mult_matrix(z.coords)
    shifted = [lz.add_scalar_diag(-root_of_unity(3, s)) for s in range(3)]

    def kernels():
        for m in shifted:
            kernel(m)

    out["linalg.kernel_s.p3"] = _per_call(kernels, 1, repeats=3)
    alg = double.algebra

    def certify():
        StructureAlgebra(alg.dim, alg.rows, alg.unit, check="modular")

    certify()  # imports numpy and scipy, which the timed calls should not pay
    out["algebra.modular_cert_s.d81"] = _per_call(certify, 1, repeats=3)
    return out


def main(argv) -> int:
    mode, out_path, rest = argv[0], argv[1], argv[2:]
    if mode == "probes":
        result, code = probes(int(rest[0])), 0
    elif mode == "spans":
        tracer = Tracer()
        install_spans(tracer)
        code = run_op(rest)
        result = [s for s in tracer.spans if s is not None and s["name"] != "fixture-hit"]
    elif mode == "counts":
        counts: dict = {}
        install_counters(counts)
        code = run_op(rest)
        result = counts
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
