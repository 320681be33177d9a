"""hopfcheck's benchmark: time exact verdicts end to end, or trace them by layer.

Usage, from the root of a hopfcheck checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):
  gate-p23      `verify run --all --p 2,3` with max_workers 1: 25 checks
  build-p5      taft(5) with its twisted double, and with each classical double: 3 builds
  ingest-dense  `verify ingest` on a seeded batch of dense JSON documents

Every timed iteration runs the program in fresh processes, one per
operation, through its public entry points.  The calibration kernel
(kernel.py) is timed in this process just before and just after each
iteration and between its operations, while no workload process is alive;
verdict_ref_s rescales the iteration's wall time to the kernel's reference
time K0.  Another iteration starts while at least half of it fits in
--seconds.  Every output is checked
against the benchmark's own arithmetic or against what the mathematics
fixes.  The last line of stdout is the JSON result; with --trace 1 it
holds the per-layer metrics of one traced iteration instead.

Outputs (generated documents, reports, spans) go to .perfbench-out/ in the
checkout.  Without src/hopfcheck in the current directory the benchmark
exits with code 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import cyc
import docs
import kernel

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
SETUP_REPEATS = 5  # fresh imports timed before the first and after the last iteration
RUN_LIMIT_S = 170  # every child is killed past this point of the run
KEPT_DOC_SEEDS = 2
EDGE_RUNS = 6  # kernel runs in the readings before and after an iteration

CHECK_IDS = (
    "A-pivotal-taft", "A.1/A.2-straightening", "A.2-sigma-central", "A.3-uhu-iso",
    "C3.2-grading", "C3.2-relations", "C3.2-sigma-action", "D2.1-mixed-module",
    "D2.2-assoc-unital", "D2.2-cross-relation", "D2.2-sigma-central-invertible",
    "E3.15-split", "E3.22-anticommutator", "E3.23-minpoly", "E3.24-sigma-blocks",
    "L2.3-stable-quotient", "L2.4-diag-report", "L3.1-self-duality",
    "L3.4-matrix-algebra", "P2.5-instance", "P3.5-centers", "P3.5-hh-separation",
    "S3-S-squared", "S3-taft-axioms", "S3.2-uqsl2",
)

PER_LAYER = (
    "cyclotomic.mul_ns.o1", "cyclotomic.mul_ns.o3", "cyclotomic.mul_ns.o5",
    "cyclotomic.add_ns.o3", "cyclotomic.add_ns.o5", "cyclotomic.mixed_add_ns",
    "cyclotomic.constructions", "cyclotomic.lifts", "cyclotomic.from_json_us",
    "linalg.kernel_s.p3", "linalg.span_s", "linalg.echelon_adds", "linalg.subspace_queries",
    "algebra.construct_s.pure", "algebra.construct_s.modular", "algebra.construct_s.sampled",
    "algebra.constructions", "algebra.eigensplit_s", "algebra.eigensplits",
    "algebra.is_central_s", "algebra.modular_cert_s.d81",
    "hopf.taft_builds", "hopf.algebra_map_s", "hopf.axioms_s",
    "doubles.twisted_s.p5", "doubles.classical_s.p5", "doubles.twisted_s.p3",
    "doubles.split_blocks", "doubles.generators",
    "dga.span_s",
    "serialize.decode_s", "serialize.from_json_s",
    "catalogue.fixture_s", "catalogue.check_s", "catalogue.fixture_builds",
) + tuple(f"catalogue.check.{i.replace('/', '_')}_s" for i in CHECK_IDS) + ("trace.overhead_s",)


def unit_of(name: str) -> str:
    for suffix, unit in (("_ns", "ns"), ("_us", "us"), ("_s", "s")):
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "count"


# -- child processes ------------------------------------------------------------


class Result:
    def __init__(self, code, wall, rss_mb, stdout, stderr):
        self.code, self.wall, self.rss_mb = code, wall, rss_mb
        self.stdout, self.stderr = stdout, stderr


class Runner:
    """Starts workload processes one at a time and reaps each with wait4, which
    gives its peak resident set; kills any that outlive the run's limit."""

    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("HOPFCHECK_CONFIG", None)  # the CLI would read it
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env

    def run(self, argv) -> Result:
        out_path = os.path.join(self.root, OUT_DIR, "child.out")
        err_path = os.path.join(self.root, OUT_DIR, "child.err")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Result(proc.returncode, wall, usage.ru_maxrss / 1024,
                          out.read().decode(errors="replace"), err.read().decode(errors="replace"))


def command(op) -> list:
    kind, args = op[0], list(op[1:])
    if kind == "cli":
        return ["-m", "hopfcheck"] + args
    return [os.path.join(HERE, "build_p5.py")] + args


# -- workloads --------------------------------------------------------------------


class Gate:
    """`verify run --all --p 2,3` serially, the catalogue as the acceptance gate runs it."""

    def __init__(self, seed, out):
        self.config = os.path.join(out, "gate-config.json")
        self.report = os.path.join(out, "gate-report.json")
        with open(self.config, "w") as fh:
            # the seed drives the sampled associativity re-check of the 81-dim double
            json.dump({"max_workers": 1, "seed": seed}, fh)

    def ops(self):
        return [("cli", "run", "--all", "--p", "2,3", "--config", self.config,
                 "--json", self.report)]

    def before(self):
        if os.path.exists(self.report):
            os.remove(self.report)

    def check(self, results):
        problems = []
        try:
            with open(self.report) as fh:
                checks = {c["id"]: c for c in json.load(fh)["checks"]}
        except (OSError, ValueError, KeyError, TypeError):
            # a crashed run fails all 25 checks; a run that claims success needs its report
            code = results[0].code
            print(f"# gate: exit {code}, no report: {results[0].stderr[-300:]}", file=sys.stderr)
            return len(CHECK_IDS), len(CHECK_IDS), ["exit 0 without a report"] if code == 0 else []
        if tuple(sorted(checks)) != CHECK_IDS:
            problems.append(f"report ids differ from the 25 catalogue ids: {sorted(checks)}")
        failed = sum(1 for i in CHECK_IDS if checks.get(i, {}).get("status") != "pass")
        if results[0].code != (0 if failed == 0 else 1):
            problems.append(f"exit {results[0].code} with {failed} checks not passing")
        for check_id, verify in GATE_WITNESSES.items():
            c = checks.get(check_id)
            if c and c["status"] == "pass":
                try:
                    ok = verify(c["witnesses"])
                except (KeyError, TypeError, ValueError, IndexError):
                    ok = False
                if not ok:
                    problems.append(f"{check_id}: witnesses {json.dumps(c['witnesses'])}")
        return len(CHECK_IDS), failed, problems


def _coefficient(pretty: str) -> Fraction:
    # hopfcheck writes a rational scalar as e.g. "-2 [z=zeta_2]" or "0"
    return Fraction(pretty.split(" [")[0])


GATE_WITNESSES = {
    # p blocks of dimension p^3 each
    "E3.15-split": lambda w: all(
        len(w[f"p={p}"]["blocks"]) == p and all(b["dim"] == p ** 3 for b in w[f"p={p}"]["blocks"])
        for p in (2, 3)),
    # central annihilator of the differential: dim 2 mixed, dim 1 stable
    "P3.5-hh-separation": lambda w: w["mixed"] == 2 and w["stable"] == 1,
    # the antipode of the p^2-dim Taft algebra has order 2p
    "S3-S-squared": lambda w: all(w[f"p={p}"]["antipode-order"] == 2 * p for p in (2, 3)),
    # the even-block stable quotient is M_2: dim 4, radical 0, center 1
    "L3.4-matrix-algebra": lambda w: (w["dim"], w["radical_dim"], w["center_dim"]) == (4, 0, 1),
    # minimal polynomials t^2 - 2t (even block) and t^2 (odd block), ascending
    "E3.23-minpoly": lambda w: (
        [_coefficient(t) for t in w["s=0"]["minimal_polynomial"]] == [0, -2, 1]
        and [_coefficient(t) for t in w["s=1"]["minimal_polynomial"]] == [0, 0, 1]),
}


class Build:
    """taft(5) and one of its doubles per fresh process, for each of the three doubles."""

    P = 5
    DOUBLES = ("twisted", "drinfeld", "anti")

    def __init__(self, seed, out):
        self.seed = seed
        self.exports = {d: os.path.join(out, f"build-p5-{d}.json") for d in self.DOUBLES}

    def ops(self):
        return [("build", str(self.seed), d, self.exports[d]) for d in self.DOUBLES]

    def before(self):
        for path in self.exports.values():
            if os.path.exists(path):
                os.remove(path)

    def check(self, results):
        failed, problems = 0, []
        for name, r in zip(self.DOUBLES, results):
            try:
                with open(self.exports[name]) as fh:
                    d = json.load(fh)
            except (OSError, ValueError):
                d = {"error": f"no export (exit {r.code}): {r.stderr[-300:]}"}
            if r.code != 0 or "error" in d:
                failed += 1
                print(f"# build {name}: exit {r.code}, {d.get('error')}", file=sys.stderr)
                continue
            try:
                problems += [f"{name}: {p}" for p in self._check_double(name, d)]
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"{name}: malformed export ({exc!r})")
        return len(self.DOUBLES), failed, problems

    def _check_double(self, name, d):
        n = self.P
        if d["dim"] != self.P ** 4:
            return [f"dim {d['dim']} != {self.P ** 4}"]
        cells = {key: {int(k): cyc.from_json(v, n) for k, v in cell.items()}
                 for key, cell in d["cells"].items()}

        def vec(coords):
            return {int(k): cyc.from_json(v, n) for k, v in coords.items()}

        def mul(u, v):
            acc = {}
            for i, a in u.items():
                for j, b in v.items():
                    ab = cyc.mul(a, b, n)
                    for k, c in cells[f"{i},{j}"].items():
                        acc[k] = cyc.add(acc.get(k, cyc.zero(n)), cyc.mul(ab, c, n))
            return {k: x for k, x in acc.items() if not cyc.is_zero(x)}

        def basis(i):
            return {i: cyc.rational(1, n)}

        problems = []
        for i, j, k in d["triples"]:
            if mul(mul(basis(i), basis(j)), basis(k)) != mul(basis(i), mul(basis(j), basis(k))):
                problems.append(f"associativity fails at {(i, j, k)}")
        unit = vec(d["unit"])
        for b in d["unit_basis"]:
            if mul(unit, basis(b)) != basis(b) or mul(basis(b), unit) != basis(b):
                problems.append(f"unit law fails at e_{b}")
        if (d["sigma"] is None) != (name == "drinfeld"):
            problems.append("sigma must exist exactly in the twisted and anti doubles")
        if d["sigma"] is not None:
            sigma = vec(d["sigma"])
            for b in d["sigma_basis"]:
                if mul(sigma, basis(b)) != mul(basis(b), sigma):
                    problems.append(f"sigma does not commute with e_{b}")
        return problems


class Ingest:
    """`verify ingest` on each document of the seeded batch, one process each."""

    def __init__(self, seed, out):
        root = os.path.join(out, "ingest")
        self.batch = docs.batch(seed, root)
        seeds = sorted((e for e in os.scandir(root) if e.name.startswith("seed-")),
                       key=lambda e: e.stat().st_mtime, reverse=True)
        for old in seeds[KEPT_DOC_SEEDS:]:
            if old.name != f"seed-{seed}":
                shutil.rmtree(old.path)

    def ops(self):
        return [("cli", "ingest", entry["path"]) for entry in self.batch]

    def before(self):
        pass

    def check(self, results):
        failed, problems = 0, []
        for entry, r in zip(self.batch, results):
            if r.code != entry["expect_exit"]:
                failed += 1
                if not entry["known_fault"]:
                    print(f"# {entry['name']}: exit {r.code}, expected {entry['expect_exit']}",
                          file=sys.stderr)
                continue
            if r.code == 0:
                kind = "hopf algebra" if entry["hopf"] else "algebra"
                want = f"ok: {kind}, dim {entry['dim']}, axioms verified"
                if r.stdout.strip() != want:
                    problems.append(f"{entry['name']}: printed {r.stdout.strip()!r}, want {want!r}")
        return len(self.batch), failed, problems


WORKLOADS = {"gate-p23": Gate, "build-p5": Build, "ingest-dense": Ingest}


# -- one iteration ----------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def add(self, workload, results):
        attempted, failed, problems = workload.check(results)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def iterate(runner, workload, tally, wrap=None, readings=None):
    """Run every operation once; returns (wall seconds, peak RSS MB, results).

    The wall time is the sum of the operations' own wall times.  With a
    `readings` list, the calibration kernel is timed before the first
    operation, between operations and after the last, while no workload
    process is alive, and the readings are appended to the list.  The two
    readings at the ends average more runs: for a one-operation iteration
    they are all there is."""
    workload.before()
    results = []
    for i, op in enumerate(workload.ops()):
        if readings is not None:
            readings.append(kernel.measure(EDGE_RUNS if i == 0 else kernel.RUNS))
        results.append(runner.run(wrap(op) if wrap else command(op)))
    if readings is not None:
        readings.append(kernel.measure(EDGE_RUNS))
    tally.add(workload, results)
    return sum(r.wall for r in results), max(r.rss_mb for r in results), results


def machine_k(results, readings) -> float:
    """K for one iteration: each operation's wall time weighted by the mean of
    the kernel readings just before and just after it.  For a one-operation
    iteration this is the mean of the readings before and after it."""
    walls = [r.wall for r in results]
    return sum(w * (a + b) / 2 for w, a, b in zip(walls, readings, readings[1:])) / sum(walls)


def setup_samples(runner) -> list:
    """Wall times of fresh interpreters running up to a completed `import hopfcheck.cli`."""
    return [runner.run(["-c", "import hopfcheck.cli"]).wall for _ in range(SETUP_REPEATS)]


def timed_run(runner, workload, seconds) -> tuple:
    tally = Tally()
    # split around the iterations so the median spans more than one phase of machine speed
    setup = setup_samples(runner)
    walls, refs, peaks = [], [], []
    begin = time.perf_counter()
    while True:
        readings = []
        start = time.perf_counter()
        wall, peak, results = iterate(runner, workload, tally, readings=readings)
        k = machine_k(results, readings)
        walls.append(wall)
        refs.append(wall * kernel.K0_S / k)
        peaks.append(peak)
        print(f"iteration {len(walls)}: verdict {wall:.3f} s, K {k:.4f} s "
              f"({len(readings)} readings, {min(readings):.4f} to {max(readings):.4f}), "
              f"ref {refs[-1]:.3f} s, peak {peak:.1f} MB")
        # start another iteration only if at least half of it fits in --seconds
        if time.perf_counter() - begin + (time.perf_counter() - start) / 2 > seconds:
            break
    setup += setup_samples(runner)
    metrics = {
        "verdict_s": statistics.median(walls),
        "verdict_ref_s": statistics.median(refs),
        "peak_rss_mb": max(peaks),
        "setup_s": statistics.median(setup),
    }
    return tally, metrics


# -- traced run --------------------------------------------------------------------


def _load(paths, problems):
    """The JSON written by each traced process; a missing file is a problem."""
    for path in paths:
        try:
            with open(path) as fh:
                yield json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"traced process left no output: {exc}")


def layer_metrics(span_lists, counts, probes) -> dict:
    m = {name: (0 if unit_of(name) == "count" else 0.0) for name in PER_LAYER}
    m.update(counts)
    m.update(probes)
    for span_list in span_lists:
        spans = {s["id"]: s for s in span_list}
        children = {}
        for s in spans.values():
            children.setdefault(s["parent"], []).append(s)

        def dur(s):
            return s["end"] - s["start"]

        def own(s):
            return dur(s) - sum(dur(c) for c in children.get(s["id"], ()))

        def ancestors(s):
            while s["parent"] is not None:
                s = spans[s["parent"]]
                yield s

        def outermost(s, prefix):
            return not any(a["name"].startswith(prefix) for a in ancestors(s))

        fixture_time = {}  # check span id -> time in the fixture builds it triggered
        for s in spans.values():
            name = s["name"]
            if name.startswith("linalg."):
                m["linalg.span_s"] += own(s)
            elif name == "algebra.construct":
                mode = "pure" if s["dim"] <= 24 else "modular" if s["dim"] <= 100 else "sampled"
                m[f"algebra.construct_s.{mode}"] += dur(s)
                m["algebra.constructions"] += 1
            elif name == "algebra.central_eigensplit":
                m["algebra.eigensplit_s"] += dur(s)
                m["algebra.eigensplits"] += 1
            elif name == "algebra.is_central":
                m["algebra.is_central_s"] += dur(s)
            elif name == "hopf.taft":
                m["hopf.taft_builds"] += 1
            elif name == "hopf.check_algebra_map" and outermost(s, name):
                m["hopf.algebra_map_s"] += dur(s)
            elif name == "hopf.check_hopf_axioms" and outermost(s, name):
                m["hopf.axioms_s"] += dur(s)
            elif name in ("doubles.twisted", "doubles.classical"):
                key = f"{name}_s.p{s['p']}"
                if key in m:
                    m[key] += dur(s)
            elif name == "doubles.split_blocks":
                m["doubles.split_blocks"] += 1
            elif name == "doubles.generators":
                m["doubles.generators"] += 1
            elif name.startswith("dga.") and outermost(s, "dga."):
                m["dga.span_s"] += dur(s)
            elif name == "serialize.decode":
                m["serialize.decode_s"] += dur(s)
            elif name in ("serialize.algebra_from_json", "serialize.hopf_from_json"):
                m["serialize.from_json_s"] += own(s)
            elif name == "catalogue.fixture":
                m["catalogue.fixture_builds"] += 1
                if outermost(s, name):
                    m["catalogue.fixture_s"] += dur(s)
                    check = next((a for a in ancestors(s) if a["name"] == "catalogue.check"), None)
                    if check is not None:
                        fixture_time[check["id"]] = fixture_time.get(check["id"], 0.0) + dur(s)
        for s in spans.values():
            if s["name"] == "catalogue.check":
                own_time = dur(s) - fixture_time.get(s["id"], 0.0)
                m[f"catalogue.check.{s['check'].replace('/', '_')}_s"] += own_time
                m["catalogue.check_s"] += own_time
    return m


def trace_run(runner, workload, seed, out) -> tuple:
    tally = Tally()
    untraced, _, _ = iterate(runner, workload, tally)
    script = os.path.join(HERE, "traced.py")
    span_files, count_files = [], []

    def output(files, stem):
        files.append(os.path.join(out, f"{stem}-{len(files)}.json"))
        if os.path.exists(files[-1]):
            os.remove(files[-1])
        return files[-1]

    traced, _, _ = iterate(runner, workload, tally,
                           lambda op: [script, "spans", output(span_files, "spans")] + list(op))
    iterate(runner, workload, tally,
            lambda op: [script, "counts", output(count_files, "counts")] + list(op))
    counts = {}
    for found in _load(count_files, tally.problems):
        for key, value in found.items():
            counts[key] = counts.get(key, 0) + value
    probe_file = output([], "probes")
    runner.run([script, "probes", probe_file, str(seed)])
    probes = next(_load([probe_file], tally.problems), {})
    metrics = layer_metrics(_load(span_files, tally.problems), counts, probes)
    metrics["trace.overhead_s"] = traced - untraced
    print(f"traced {traced:.3f} s, untraced {untraced:.3f} s")
    return tally, metrics


# -- entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hopfcheck", "__init__.py")):
        print("error: run from the root of a hopfcheck checkout (no src/hopfcheck here)",
              file=sys.stderr)
        return 2
    out = os.path.join(root, OUT_DIR)
    os.makedirs(out, exist_ok=True)
    runner = Runner(root, start + RUN_LIMIT_S)
    where = runner.run(["-c", "import hopfcheck; print(hopfcheck.__file__)"])
    if where.code != 0 or not where.stdout.strip().startswith(os.path.join(root, "src")):
        print(f"error: hopfcheck does not import from {root}/src: {where.stdout}{where.stderr}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, out)
    if args.trace:
        tally, values = trace_run(runner, workload, args.seed, out)
        names = PER_LAYER
    else:
        tally, values = timed_run(runner, workload, args.seconds)
        names = ("verdict_s", "verdict_ref_s", "peak_rss_mb", "setup_s")
    for problem in tally.problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    units = {"verdict_s": "s", "verdict_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": units.get(n) or unit_of(n)} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
