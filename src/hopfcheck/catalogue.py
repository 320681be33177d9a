"""The check catalogue: every externally verifiable statement gets a
stable id, a one-line functional description, and a runner producing a
CheckReport.  Runners share expensive constructions through a Context
cache and run one after another; output order is fixed by sorting on id.
"""

import time
from dataclasses import dataclass, field

from .cyclotomic import ZERO, Cyclotomic
from .linalg import Matrix, Subspace, matrix_order, minimal_polynomial, sparse_of
from .algebra import AlgebraError, StructureAlgebra
from .hopf import (
    HopfData,
    check_hopf_axioms,
    check_pivotal,
    group_algebra,
    taft,
    taft_self_duality,
)
from .doubles import (
    acts_as_identity,
    build_classical_double,
    build_twisted_double,
    check_block_split,
    check_cross_relation,
    check_double_unital_associative,
    check_generator_grading,
    check_generator_presentation,
    check_mixed_module,
    check_module_action,
    check_sigma_block_forms_p2,
    check_sigma_central_invertible,
    check_stable_module,
    check_straightening,
    regular_mixed_module,
    split_blocks,
    taft_double_generators,
    taft_eigencomponents,
    uhu_map,
    uqsl2_check,
    verify_sigma_graded_action,
)
from .dga import (
    TwoTermDga,
    complex_cohomology,
    diagonalizability_report,
    hh_minus_one,
    stable_dga,
    stable_quotient,
)
from .report import FAIL, PASS, PRECONDITION_FAILED, CheckReport, combine


class CatalogueError(KeyError):
    """Unknown check id requested."""


class CheckCrashed(RuntimeError):
    """A runner raised instead of reporting; maps to the internal-error exit."""

    def __init__(self, check_id: str, cause: BaseException):
        self.check_id = check_id
        self.cause = cause
        super().__init__(f"{check_id}: {cause!r}")


@dataclass
class RunConfig:
    """Effective settings for a catalogue run."""

    ps: tuple = (2, 3)
    samples: int = 2000  # basis triples sampled by D2.2 above dim 24
    seed: int = 20240801  # seeds those samples

    def __post_init__(self):
        self.ps = tuple(sorted(set(int(p) for p in self.ps)))
        if not self.ps:
            raise ValueError("at least one p value is required")
        for p in self.ps:
            if p < 2:
                raise ValueError("p values must be at least 2")
        if self.samples < 1:
            raise ValueError("samples must be positive")


class Context:
    """Memoized fixtures shared across checks."""

    def __init__(self, config: RunConfig | None = None):
        self.config = config or RunConfig()
        self._cache: dict = {}

    @property
    def ps(self) -> tuple:
        return self.config.ps

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def taft(self, p: int) -> HopfData:
        return self._get(("taft", p), lambda: taft(p))

    def group(self, n: int) -> HopfData:
        return self._get(("group", n), lambda: group_algebra(n))

    def twisted_taft(self, p: int):
        return self._get(
            ("twisted", "taft", p), lambda: build_twisted_double(self.taft(p))
        )

    def twisted_group(self, n: int):
        return self._get(
            ("twisted", "group", n), lambda: build_twisted_double(self.group(n))
        )

    def classical_taft(self, p: int, flavor: str):
        return self._get(
            ("classical", "taft", p, flavor),
            lambda: build_classical_double(self.taft(p), flavor),
        )

    def classical_group(self, n: int, flavor: str):
        return self._get(
            ("classical", "group", n, flavor),
            lambda: build_classical_double(self.group(n), flavor),
        )

    def taft_generators(self, p: int) -> dict:
        return self._get(
            ("generators", p), lambda: taft_double_generators(self.twisted_taft(p))
        )

    def taft_blocks(self, p: int) -> list:
        return self._get(
            ("blocks", p),
            lambda: split_blocks(self.twisted_taft(p), self.taft_generators(p)),
        )

    def taft_components(self, p: int) -> dict:
        """The joint (g', g) eigencomponents V_ij of the Taft double."""
        return self._get(
            ("components", p),
            lambda: taft_eigencomponents(self.twisted_taft(p), self.taft_generators(p)),
        )

    def block_dgas_p2(self) -> list:
        def build():
            d = self.twisted_taft(2)
            return [
                TwoTermDga(
                    blk.algebra, blk.project(d.sigma) - blk.algebra.unit_element()
                )
                for blk in self.taft_blocks(2)
            ]

        return self._get(("block-dgas", 2), build)

    def twisted_fixtures(self) -> list:
        """The standard bases for double-internals checks: small cyclic
        group algebras plus the configured Taft algebras."""
        out = [(f"kZ/{n}", self.twisted_group(n)) for n in (1, 2, 3)]
        out.extend((f"T{p}", self.twisted_taft(p)) for p in self.ps)
        return out


@dataclass(frozen=True)
class CatalogueEntry:
    id: str
    statement: str
    params: str
    runner: object = field(repr=False)


# -- runners -------------------------------------------------------------


def _run_assoc_unital(ctx: Context) -> CheckReport:
    parts = {
        label: check_double_unital_associative(
            d, f"D2.2-assoc-unital[{label}]", samples=ctx.config.samples,
            seed=ctx.config.seed,
        )
        for label, d in ctx.twisted_fixtures()
    }
    return combine("D2.2-assoc-unital", parts)


def _run_sigma_central(ctx: Context) -> CheckReport:
    parts = {
        label: check_sigma_central_invertible(d, f"D2.2-sigma-central-invertible[{label}]")
        for label, d in ctx.twisted_fixtures()
    }
    return combine("D2.2-sigma-central-invertible", parts)


def _run_cross_relation(ctx: Context) -> CheckReport:
    parts = {
        label: check_cross_relation(d, f"D2.2-cross-relation[{label}]")
        for label, d in ctx.twisted_fixtures()
    }
    return combine("D2.2-cross-relation", parts)


def _run_mixed_module(ctx: Context) -> CheckReport:
    check_id = "D2.1-mixed-module"
    d = ctx.twisted_taft(2)
    alg = d.algebra
    action, degrees, diff, hom = regular_mixed_module(d)
    mixed = check_mixed_module(
        alg, d.sigma, action, degrees, diff, hom, f"{check_id}[regular-mixed]"
    )
    regular = [alg.left_mult_matrix(alg._basis_coords(a)) for a in range(alg.dim)]
    reg_valid = check_module_action(alg, regular, f"{check_id}[regular-action]")
    # a stable module is a valid one on which sigma acts as the identity
    reg_stable = reg_valid.passed and acts_as_identity(alg, d.sigma, regular)
    q = alg.quotient([(d.sigma - d.one).coords])
    pullback = [
        q.algebra.left_mult_matrix(q.projection.column(a))
        for a in range(alg.dim)
    ]
    stable = check_stable_module(alg, d.sigma, pullback, f"{check_id}[stable-pullback]")
    ok = (
        mixed.passed
        and reg_valid.passed
        and stable.passed
        and not reg_stable
    )
    witnesses = {
        "regular-mixed": mixed.witnesses,
        "regular-action": reg_valid.witnesses,
        "regular-is-not-stable": {"holds": not reg_stable},
        "stable-pullback": stable.witnesses,
    }
    return CheckReport(check_id, PASS if ok else FAIL, witnesses)


def _run_stable_quotient(ctx: Context) -> CheckReport:
    check_id = "L2.3-stable-quotient"
    parts = {}
    dgas = {f"D{s}": dga for s, dga in enumerate(ctx.block_dgas_p2())}
    for n in (1, 2, 3):
        d = ctx.twisted_group(n)
        dgas[f"kZ/{n}"] = TwoTermDga(d.algebra, d.sigma - d.one)
    for label, dga in dgas.items():
        q = stable_quotient(dga)
        prof = complex_cohomology(dga)
        ok = q.algebra.dim == prof.dim_h_minus1
        parts[label] = CheckReport(
            f"{check_id}[{label}]",
            PASS if ok else FAIL,
            {
                "quotient_dim": q.algebra.dim,
                "kernel_dim": prof.dim_h_minus1,
                "ideal_dim": dga.ring.dim - q.algebra.dim,
            },
        )
    return combine(check_id, parts)


def _run_diag_report(ctx: Context) -> CheckReport:
    check_id = "L2.4-diag-report"
    dgas = ctx.block_dgas_p2()
    parts = {
        "D0": diagonalizability_report(dgas[0], f"{check_id}[D0]"),
        "D1": diagonalizability_report(dgas[1], f"{check_id}[D1]"),
    }
    merged = combine(check_id, parts)
    expected = (
        parts["D0"].witnesses["diagonalizable"] is True
        and parts["D1"].witnesses["diagonalizable"] is False
    )
    merged.witnesses["expected-verdicts"] = {"holds": expected}
    if merged.status == PASS and not expected:
        return CheckReport(check_id, FAIL, merged.witnesses)
    return merged


def _run_group_instances(ctx: Context) -> CheckReport:
    check_id = "P2.5-instance"
    parts = {}
    for n in (1, 2, 3):
        d = ctx.twisted_group(n)
        dga = TwoTermDga(d.algebra, d.sigma - d.one)
        rep = diagonalizability_report(dga, f"{check_id}[kZ/{n}]")
        if rep.passed and not rep.witnesses["diagonalizable"]:
            rep = CheckReport(rep.id, FAIL, rep.witnesses)
        parts[f"kZ/{n}"] = rep
    return combine(check_id, parts)


def _run_taft_axioms(ctx: Context) -> CheckReport:
    check_id = "S3-taft-axioms"
    parts = {
        f"p={p}": check_hopf_axioms(ctx.taft(p), f"{check_id}[p={p}]")
        for p in ctx.ps
    }
    return combine(check_id, parts)


def _run_s_squared(ctx: Context) -> CheckReport:
    check_id = "S3-S-squared"
    parts = {}
    for p in ctx.ps:
        h = ctx.taft(p)
        xi = h.meta["xi"]
        s2 = h.antipode @ h.antipode
        bad = None
        for i in range(p):
            for j in range(p):
                col = s2.column(i * p + j)
                want = [ZERO] * h.dim
                want[i * p + j] = xi ** (-j)
                if col != want:
                    bad = (i, j)
                    break
            if bad:
                break
        order = matrix_order(h.antipode, 2 * p + 1)
        ok = bad is None and order == 2 * p
        parts[f"p={p}"] = CheckReport(
            f"{check_id}[p={p}]",
            PASS if ok else FAIL,
            {
                "s-squared-scales-x-powers": {"holds": bad is None},
                "antipode-order": order,
            },
        )
    return combine(check_id, parts)


def _run_self_duality(ctx: Context) -> CheckReport:
    check_id = "L3.1-self-duality"
    parts = {}
    for p in ctx.ps:
        parts[f"p={p}"] = taft_self_duality(p, check_id=f"{check_id}[p={p}]").report
    return combine(check_id, parts)


def _run_relations(ctx: Context) -> CheckReport:
    check_id = "C3.2-relations"
    parts = {
        f"p={p}": check_generator_presentation(
            ctx.twisted_taft(p), f"{check_id}[p={p}]"
        )
        for p in ctx.ps
    }
    return combine(check_id, parts)


def _run_grading(ctx: Context) -> CheckReport:
    check_id = "C3.2-grading"
    parts = {
        f"p={p}": check_generator_grading(
            ctx.twisted_taft(p), ctx.taft_generators(p), ctx.taft_components(p),
            f"{check_id}[p={p}]",
        )
        for p in ctx.ps
    }
    return combine(check_id, parts)


def _run_sigma_action(ctx: Context) -> CheckReport:
    check_id = "C3.2-sigma-action"
    parts = {
        f"p={p}": verify_sigma_graded_action(
            ctx.twisted_taft(p), ctx.taft_generators(p), ctx.taft_components(p),
            f"{check_id}[p={p}]",
        )
        for p in ctx.ps
    }
    return combine(check_id, parts)


def _run_block_split(ctx: Context) -> CheckReport:
    check_id = "E3.15-split"
    parts = {}
    for p in ctx.ps:
        part_id = f"{check_id}[p={p}]"
        try:
            blocks = ctx.taft_blocks(p)
        except AlgebraError as exc:
            parts[f"p={p}"] = CheckReport(part_id, FAIL, {"error": str(exc)})
        else:
            parts[f"p={p}"] = check_block_split(ctx.twisted_taft(p), blocks, part_id)
    return combine(check_id, parts)


def _run_uqsl2(ctx: Context) -> CheckReport:
    check_id = "S3.2-uqsl2"
    odd = [p for p in ctx.ps if p % 2 == 1]
    if not odd:
        return CheckReport(
            check_id,
            PRECONDITION_FAILED,
            {"precondition": "requires an odd p in the configured set"},
        )
    parts = {}
    for p in odd:
        d = ctx.twisted_taft(p)
        gens = ctx.taft_generators(p)
        blocks = ctx.taft_blocks(p)
        for s in range(p):
            parts[f"p={p},s={s}"] = uqsl2_check(
                d, gens, blocks, s, f"{check_id}[p={p},s={s}]"
            )
    return combine(check_id, parts)


def _require_p2(ctx: Context, check_id: str):
    if 2 not in ctx.ps:
        return CheckReport(
            check_id,
            PRECONDITION_FAILED,
            {"precondition": "requires p = 2 in the configured set"},
        )
    return None


def _run_anticommutator(ctx: Context) -> CheckReport:
    check_id = "E3.22-anticommutator"
    missing = _require_p2(ctx, check_id)
    if missing:
        return missing
    gens = ctx.taft_generators(2)
    parts = {}
    for s, blk in enumerate(ctx.taft_blocks(2)):
        x = blk.project(gens["x"])
        xp = blk.project(gens["x'"])
        want = blk.algebra.unit_element() * Cyclotomic.from_int(1 + (-1) ** s)
        ok = x * xp + xp * x == want
        parts[f"s={s}"] = CheckReport(
            f"{check_id}[s={s}]",
            PASS if ok else FAIL,
            {"anticommutator-scalar": 1 + (-1) ** s},
        )
    return combine(check_id, parts)


def _run_minpoly(ctx: Context) -> CheckReport:
    check_id = "E3.23-minpoly"
    missing = _require_p2(ctx, check_id)
    if missing:
        return missing
    gens = ctx.taft_generators(2)
    c = Cyclotomic.from_int
    expected = {0: [c(0), c(-2), c(1)], 1: [c(0), c(0), c(1)]}
    parts = {}
    for s, blk in enumerate(ctx.taft_blocks(2)):
        w = blk.project(gens["x'"]) * blk.project(gens["x"])
        mp = minimal_polynomial(blk.algebra.left_mult_matrix(w.coords))
        ok = mp == expected[s]
        parts[f"s={s}"] = CheckReport(
            f"{check_id}[s={s}]",
            PASS if ok else FAIL,
            {"minimal_polynomial": [t.pretty() for t in mp]},
        )
    return combine(check_id, parts)


def _run_sigma_blocks(ctx: Context) -> CheckReport:
    check_id = "E3.24-sigma-blocks"
    missing = _require_p2(ctx, check_id)
    if missing:
        return missing
    return check_sigma_block_forms_p2(
        ctx.twisted_taft(2), ctx.taft_generators(2), ctx.taft_components(2), check_id
    )


def _run_matrix_algebra(ctx: Context) -> CheckReport:
    check_id = "L3.4-matrix-algebra"
    missing = _require_p2(ctx, check_id)
    if missing:
        return missing
    dga0 = ctx.block_dgas_p2()[0]
    q = stable_quotient(dga0)
    dim = q.algebra.dim
    rad = q.algebra.radical().dim
    cen = q.algebra.center().dim
    comm = q.algebra.is_commutative()
    ok = dim == 4 and rad == 0 and cen == 1 and not comm
    return CheckReport(
        check_id,
        PASS if ok else FAIL,
        {"dim": dim, "radical_dim": rad, "center_dim": cen, "commutative": comm},
    )


def _p2_hh_data(ctx: Context):
    dga1 = ctx.block_dgas_p2()[1]
    blk = ctx.taft_blocks(2)[1]
    gens = ctx.taft_generators(2)
    xxp = blk.project(gens["x"] * gens["x'"])
    xxpg = blk.project(gens["x"] * gens["x'"] * gens["g"])
    return dga1, blk, xxp, xxpg


def _run_centers(ctx: Context) -> CheckReport:
    check_id = "P3.5-centers"
    missing = _require_p2(ctx, check_id)
    if missing:
        return missing
    dga1, blk, xxp, xxpg = _p2_hh_data(ctx)
    center = blk.algebra.center()
    members = all(
        center.contains(sparse_of(v.coords))
        for v in (blk.algebra.unit_element(), xxp, xxpg)
    )
    _, q = stable_dga(dga1)
    stable_center = q.algebra.center().dim
    ok = center.dim == 3 and members and stable_center == 1
    return CheckReport(
        check_id,
        PASS if ok else FAIL,
        {
            "mixed_center_dim": center.dim,
            "claimed-basis-inside": {"holds": members},
            "stable_center_dim": stable_center,
        },
    )


def _run_hh_separation(ctx: Context) -> CheckReport:
    check_id = "P3.5-hh-separation"
    missing = _require_p2(ctx, check_id)
    if missing:
        return missing
    dga1, blk, xxp, xxpg = _p2_hh_data(ctx)
    hh = hh_minus_one(dga1)
    claimed = Subspace.from_vectors(
        blk.algebra.dim, [sparse_of(xxp.coords), sparse_of(xxpg.coords)]
    )
    sdga, q = stable_dga(dga1)
    shh = hh_minus_one(sdga)
    unit_line = Subspace.from_vectors(q.algebra.dim, [sparse_of(q.algebra.unit)])
    ok = hh.dim == 2 and hh == claimed and shh.dim == 1 and shh == unit_line
    return CheckReport(
        check_id,
        PASS if ok else FAIL,
        {
            "mixed": hh.dim,
            "stable": shh.dim,
            "mixed-basis-matches": {"holds": hh == claimed},
            "stable-basis-is-unit": {"holds": shh == unit_line},
        },
    )


def _classical_fixtures(ctx: Context):
    out = []
    for n in (2, 3):
        out.append(
            (
                f"kZ/{n}",
                ctx.classical_group(n, "drinfeld"),
                ctx.classical_group(n, "anti"),
            )
        )
    for p in ctx.ps:
        out.append(
            (
                f"T{p}",
                ctx.classical_taft(p, "drinfeld"),
                ctx.classical_taft(p, "anti"),
            )
        )
    return out


def _run_straightening(ctx: Context) -> CheckReport:
    check_id = "A.1/A.2-straightening"
    parts = {}
    for label, dd, da in _classical_fixtures(ctx):
        parts[f"{label}:drinfeld"] = check_straightening(
            dd, f"{check_id}[{label}:drinfeld]"
        )
        parts[f"{label}:anti"] = check_straightening(da, f"{check_id}[{label}:anti]")
        if label.startswith("kZ/"):
            agree = dd.algebra.same_structure(da.algebra)
            parts[f"{label}:flavors-agree"] = CheckReport(
                f"{check_id}[{label}:flavors-agree]",
                PASS if agree else FAIL,
                {"entrywise-equal": agree},
            )
    return combine(check_id, parts)


def _run_classical_sigma(ctx: Context) -> CheckReport:
    check_id = "A.2-sigma-central"
    parts = {}
    for label, _, da in _classical_fixtures(ctx):
        central = da.sigma is not None and da.algebra.is_central(da.sigma)
        parts[label] = CheckReport(
            f"{check_id}[{label}]",
            PASS if central else FAIL,
            {"central": central},
        )
    return combine(check_id, parts)


def _run_uhu(ctx: Context) -> CheckReport:
    check_id = "A.3-uhu-iso"
    parts = {}
    for p in ctx.ps:
        h = ctx.taft(p)
        u = h.algebra.basis_element((p - 1) * p)
        _, rep = uhu_map(
            h,
            u,
            f"{check_id}[p={p}]",
            doubles=(ctx.classical_taft(p, "drinfeld"), ctx.classical_taft(p, "anti")),
        )
        parts[f"p={p}"] = rep
    return combine(check_id, parts)


def _run_pivotal(ctx: Context) -> CheckReport:
    check_id = "A-pivotal-taft"
    parts = {}
    for p in ctx.ps:
        h = ctx.taft(p)
        u = h.algebra.basis_element((p - 1) * p)
        parts[f"p={p}"] = check_pivotal(h, u, f"{check_id}[p={p}]")
    return combine(check_id, parts)


CATALOGUE: tuple[CatalogueEntry, ...] = (
    CatalogueEntry(
        "D2.2-assoc-unital",
        "the twisted convolution product on End(H) is associative and unital",
        "H in {kZ/1, kZ/2, kZ/3} and Taft algebras for configured p",
        _run_assoc_unital,
    ),
    CatalogueEntry(
        "D2.2-sigma-central-invertible",
        "the identity endomorphism is central with two-sided inverse S^{-1}",
        "same fixture set as D2.2-assoc-unital",
        _run_sigma_central,
    ),
    CatalogueEntry(
        "D2.2-cross-relation",
        "embedded algebra and functional legs satisfy the straightening identity",
        "same fixture set as D2.2-assoc-unital",
        _run_cross_relation,
    ),
    CatalogueEntry(
        "D2.1-mixed-module",
        "regular two-term fixture is a mixed module; quotient pullback is stable",
        "twisted double of the p = 2 Taft algebra",
        _run_mixed_module,
    ),
    CatalogueEntry(
        "L2.3-stable-quotient",
        "quotient by the ideal (sigma - 1) has the dimension of ker(right mult)",
        "p = 2 blocks and kZ/n doubles, n <= 3",
        _run_stable_quotient,
    ),
    CatalogueEntry(
        "L2.4-diag-report",
        "sigma - 1 is diagonalizable on the even block and not on the odd one",
        "the two central blocks of the p = 2 double",
        _run_diag_report,
    ),
    CatalogueEntry(
        "P2.5-instance",
        "group-algebra doubles have diagonalizable sigma - 1 (S^2 = id case)",
        "kZ/n for n = 1, 2, 3",
        _run_group_instances,
    ),
    CatalogueEntry(
        "S3-taft-axioms",
        "the Taft algebra satisfies all Hopf axioms",
        "configured p values",
        _run_taft_axioms,
    ),
    CatalogueEntry(
        "S3-S-squared",
        "S^2 scales g^i x^j by xi^{-j} and the antipode has order 2p",
        "configured p values",
        _run_s_squared,
    ),
    CatalogueEntry(
        "L3.1-self-duality",
        "explicit mutually inverse Hopf isomorphisms with the dual",
        "configured p values",
        _run_self_duality,
    ),
    CatalogueEntry(
        "C3.2-relations",
        "the four double generators satisfy the defining relations and generate",
        "configured p values",
        _run_relations,
    ),
    CatalogueEntry(
        "C3.2-grading",
        "generators shift the joint (g', g) eigencomponent grading by their degrees",
        "configured p values",
        _run_grading,
    ),
    CatalogueEntry(
        "C3.2-sigma-action",
        "sigma acts on each eigencomponent by the closed x'^l x^l formula",
        "configured p values",
        _run_sigma_action,
    ),
    CatalogueEntry(
        "E3.15-split",
        "the central element g g' splits the double into p blocks of dim p^3",
        "configured p values",
        _run_block_split,
    ),
    CatalogueEntry(
        "S3.2-uqsl2",
        "each odd block carries the small quantum sl2 presentation",
        "odd configured p, all blocks s",
        _run_uqsl2,
    ),
    CatalogueEntry(
        "E3.22-anticommutator",
        "x x' + x' x = (1 + (-1)^s) in block s of the p = 2 double",
        "p = 2, blocks s = 0, 1",
        _run_anticommutator,
    ),
    CatalogueEntry(
        "E3.23-minpoly",
        "minimal polynomial of x'x is t^2 - 2t on the even block, t^2 on the odd",
        "p = 2, blocks s = 0, 1",
        _run_minpoly,
    ),
    CatalogueEntry(
        "E3.24-sigma-blocks",
        "sigma restricts to 1 - x'x, -1 + x'x, 1 + x'x on the four components",
        "p = 2",
        _run_sigma_blocks,
    ),
    CatalogueEntry(
        "L3.4-matrix-algebra",
        "the even-block stable quotient is a 2x2 matrix algebra",
        "p = 2",
        _run_matrix_algebra,
    ),
    CatalogueEntry(
        "P3.5-centers",
        "center dims drop 3 -> 1 from the odd block to its stable quotient",
        "p = 2",
        _run_centers,
    ),
    CatalogueEntry(
        "P3.5-hh-separation",
        "central annihilator of the differential: dim 2 mixed vs dim 1 stable",
        "p = 2",
        _run_hh_separation,
    ),
    CatalogueEntry(
        "A.1/A.2-straightening",
        "both classical-double products obey their straightening rules",
        "kZ/2, kZ/3 (flavors equal) and Taft algebras for configured p",
        _run_straightening,
    ),
    CatalogueEntry(
        "A.2-sigma-central",
        "sum e_i (x) e^i is central in the S-twisted classical double",
        "same fixture set as A.1/A.2-straightening",
        _run_classical_sigma,
    ),
    CatalogueEntry(
        "A.3-uhu-iso",
        "the pivot-induced map is an isomorphism between the two flavors",
        "Taft algebras, pivot g^{p-1}, configured p",
        _run_uhu,
    ),
    CatalogueEntry(
        "A-pivotal-taft",
        "g^{p-1} is group-like and implements S^2 by conjugation",
        "configured p values",
        _run_pivotal,
    ),
)

_BY_ID = {entry.id: entry for entry in CATALOGUE}
assert len(_BY_ID) == len(CATALOGUE), "catalogue ids must be unique"


def catalogue_ids() -> list[str]:
    return sorted(_BY_ID)


def get_entry(check_id: str) -> CatalogueEntry:
    try:
        return _BY_ID[check_id]
    except KeyError:
        raise CatalogueError(check_id) from None


def _timed(entry: CatalogueEntry, ctx: Context) -> CheckReport:
    start = time.perf_counter()
    try:
        report = entry.runner(ctx)
    except Exception as exc:
        raise CheckCrashed(entry.id, exc) from exc
    report.elapsed = time.perf_counter() - start
    if report.id != entry.id:
        raise CheckCrashed(entry.id, ValueError(f"runner reported id {report.id!r}"))
    return report


def run_checks(ids=None, ctx: Context | None = None) -> list[CheckReport]:
    """Run the selected checks (all when ids is None) one after another and
    return reports sorted by id."""
    ctx = ctx or Context()
    entries = list(CATALOGUE) if ids is None else [get_entry(i) for i in ids]
    return sorted((_timed(entry, ctx) for entry in entries), key=lambda r: r.id)


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
