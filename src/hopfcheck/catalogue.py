"""The check catalogue: every externally verifiable statement gets a
stable id, a one-line functional description, and a runner producing a
CheckReport.  Runners share expensive constructions through a Context
cache and run one after another; output order is fixed by sorting on id.
"""

import time
from dataclasses import dataclass, field

from .cyclotomic import MAX_ORDER, ZERO, Cyclotomic
from .linalg import Subspace, matrix_order, minimal_polynomial
from .algebra import AlgebraElement, AlgebraError, QuotientResult
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
    CohomologyProfile,
    TwoTermDga,
    complex_cohomology,
    diagonalizability_report,
    hh_minus_one,
    stable_dga,
    stable_quotient,
)
from .report import (
    FAIL,
    PASS,
    PRECONDITION_FAILED,
    CatalogueError,
    CheckCrashed,
    CheckReport,
    combine,
)


class Context:
    """Memoized fixtures shared across checks, for the p values ps."""

    def __init__(self, ps=(2, 3)):
        self.ps = tuple(sorted(set(int(p) for p in ps)))
        if not self.ps:
            raise ValueError("at least one p value is required")
        for p in self.ps:
            if p < 2:
                raise ValueError("p values must be at least 2")
            if p > MAX_ORDER:
                # taft(p) lives in Q(zeta_p), and field orders stop at MAX_ORDER
                raise ValueError(f"p values must be at most {MAX_ORDER}")
        self._cache: dict = {}

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

    def group_dgas(self) -> dict:
        """The two-term pairs (double of kZ/n, sigma - 1) for n = 1, 2, 3,
        by label kZ/n."""

        def build():
            out = {}
            for n in (1, 2, 3):
                d = self.twisted_group(n)
                out[f"kZ/{n}"] = TwoTermDga(d.algebra, d.sigma - d.one)
            return out

        return self._get(("group-dgas",), build)

    def two_term_dga(self, label: str) -> TwoTermDga:
        """The two-term pair D0 or D1 (the p = 2 blocks) or kZ/1, kZ/2, kZ/3."""
        if label in ("D0", "D1"):
            return self.block_dgas_p2()[int(label[1])]
        return self.group_dgas()[label]

    def stable_quotient(self, label: str) -> QuotientResult:
        """The stable quotient of the two-term pair `label`."""
        return self._get(
            ("stable-quotient", label), lambda: stable_quotient(self.two_term_dga(label))
        )

    def cohomology(self, label: str) -> CohomologyProfile:
        """The cohomology profile of the two-term pair `label`."""
        return self._get(
            ("cohomology", label), lambda: complex_cohomology(self.two_term_dga(label))
        )

    def stable_block_dga_p2(self, s: int):
        """The pair on the stable quotient of block s's two-term pair at
        p = 2, and the quotient itself."""

        def build():
            q = self.stable_quotient(f"D{s}")
            return stable_dga(q), q

        return self._get(("stable-block-dga", 2, s), build)

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


def _combine_each(check_id: str, labelled, part) -> CheckReport:
    """combine(check_id, ...) of one part per (label, x) of labelled, in
    order: part(x, f"{check_id}[{label}]"), keyed by label."""
    return combine(check_id, {label: part(x, f"{check_id}[{label}]") for label, x in labelled})


def _per_p(ctx: Context) -> list:
    """(f"p={p}", p) for each configured p, the labels of per-p parts."""
    return [(f"p={p}", p) for p in ctx.ps]


def _pivot(h: HopfData) -> AlgebraElement:
    """The pivot g^{p-1} of taft(p)."""
    p = h.meta["p"]
    return h.algebra.basis_element((p - 1) * p)


def _run_assoc_unital(ctx: Context) -> CheckReport:
    return _combine_each(
        "D2.2-assoc-unital", ctx.twisted_fixtures(), check_double_unital_associative
    )


def _run_sigma_central(ctx: Context) -> CheckReport:
    return _combine_each(
        "D2.2-sigma-central-invertible", ctx.twisted_fixtures(), check_sigma_central_invertible
    )


def _run_cross_relation(ctx: Context) -> CheckReport:
    return _combine_each("D2.2-cross-relation", ctx.twisted_fixtures(), check_cross_relation)


def _run_mixed_module(ctx: Context) -> CheckReport:
    check_id = "D2.1-mixed-module"
    d = ctx.twisted_taft(2)
    alg = d.algebra
    regular = [alg.left_mult_matrix(alg.basis_element(a)) for a in range(alg.dim)]
    action, degrees, diff, hom = regular_mixed_module(d, regular)
    mixed = check_mixed_module(
        alg, d.sigma, action, degrees, diff, hom, f"{check_id}[regular-mixed]"
    )
    reg_valid = check_module_action(alg, regular, f"{check_id}[regular-action]")
    # a stable module is a valid one on which sigma acts as the identity
    reg_stable = reg_valid.passed and acts_as_identity(alg, d.sigma, regular)
    q = alg.quotient([d.sigma - d.one])
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
    for label in ("D0", "D1", *ctx.group_dgas()):
        dga = ctx.two_term_dga(label)
        q = ctx.stable_quotient(label)
        prof = ctx.cohomology(label)
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


def _diag_report(ctx: Context, label: str, check_id: str) -> CheckReport:
    return diagonalizability_report(
        ctx.two_term_dga(label),
        ctx.stable_quotient(label),
        ctx.cohomology(label),
        f"{check_id}[{label}]",
    )


def _run_diag_report(ctx: Context) -> CheckReport:
    check_id = "L2.4-diag-report"
    parts = {label: _diag_report(ctx, label, check_id) for label in ("D0", "D1")}
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
    for label in ctx.group_dgas():
        rep = _diag_report(ctx, label, check_id)
        if rep.passed and not rep.witnesses["diagonalizable"]:
            rep = CheckReport(rep.id, FAIL, rep.witnesses)
        parts[label] = rep
    return combine(check_id, parts)


def _run_taft_axioms(ctx: Context) -> CheckReport:
    return _combine_each(
        "S3-taft-axioms", _per_p(ctx), lambda p, part_id: check_hopf_axioms(ctx.taft(p), part_id)
    )


def _run_s_squared(ctx: Context) -> CheckReport:
    def part(p, part_id):
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
        return CheckReport(
            part_id,
            PASS if ok else FAIL,
            {
                "s-squared-scales-x-powers": {"holds": bad is None},
                "antipode-order": order,
            },
        )

    return _combine_each("S3-S-squared", _per_p(ctx), part)


def _run_self_duality(ctx: Context) -> CheckReport:
    return _combine_each(
        "L3.1-self-duality", _per_p(ctx),
        lambda p, part_id: taft_self_duality(ctx.taft(p), part_id).report,
    )


def _run_relations(ctx: Context) -> CheckReport:
    return _combine_each(
        "C3.2-relations", _per_p(ctx),
        lambda p, part_id: check_generator_presentation(
            ctx.twisted_taft(p), ctx.taft_generators(p), part_id
        ),
    )


def _run_grading(ctx: Context) -> CheckReport:
    return _combine_each(
        "C3.2-grading", _per_p(ctx),
        lambda p, part_id: check_generator_grading(
            ctx.twisted_taft(p), ctx.taft_generators(p), ctx.taft_components(p), part_id
        ),
    )


def _run_sigma_action(ctx: Context) -> CheckReport:
    return _combine_each(
        "C3.2-sigma-action", _per_p(ctx),
        lambda p, part_id: verify_sigma_graded_action(
            ctx.twisted_taft(p), ctx.taft_generators(p), ctx.taft_components(p), part_id
        ),
    )


def _run_block_split(ctx: Context) -> CheckReport:
    def part(p, part_id):
        try:
            blocks = ctx.taft_blocks(p)
        except AlgebraError as exc:
            return CheckReport(part_id, FAIL, {"error": str(exc)})
        return check_block_split(ctx.twisted_taft(p), blocks, part_id)

    return _combine_each("E3.15-split", _per_p(ctx), part)


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
        mp = minimal_polynomial(blk.algebra.left_mult_matrix(w))
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
    q = ctx.stable_quotient("D0")
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
    _, blk, xxp, xxpg = _p2_hh_data(ctx)
    center = blk.algebra.center()
    members = all(
        center.contains(v.terms)
        for v in (blk.algebra.unit_element(), xxp, xxpg)
    )
    stable_center = ctx.stable_quotient("D1").algebra.center().dim
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
        blk.algebra.dim, [xxp.terms, xxpg.terms]
    )
    sdga, q = ctx.stable_block_dga_p2(1)
    shh = hh_minus_one(sdga)
    unit_line = Subspace.from_vectors(q.algebra.dim, [q.algebra.unit_element().terms])
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
    def part(da, part_id):
        central = da.sigma is not None and da.algebra.is_central(da.sigma)
        return CheckReport(part_id, PASS if central else FAIL, {"central": central})

    anti = [(label, da) for label, _, da in _classical_fixtures(ctx)]
    return _combine_each("A.2-sigma-central", anti, part)


def _run_uhu(ctx: Context) -> CheckReport:
    def part(p, part_id):
        h = ctx.taft(p)
        doubles = (ctx.classical_taft(p, "drinfeld"), ctx.classical_taft(p, "anti"))
        return uhu_map(h, _pivot(h), doubles, part_id)[1]

    return _combine_each("A.3-uhu-iso", _per_p(ctx), part)


def _run_pivotal(ctx: Context) -> CheckReport:
    return _combine_each(
        "A-pivotal-taft", _per_p(ctx),
        lambda p, part_id: check_pivotal(ctx.taft(p), _pivot(ctx.taft(p)), part_id),
    )


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


def _index(entries) -> dict:
    """The entries keyed by id; ids must be unique."""
    by_id = {entry.id: entry for entry in entries}
    if len(by_id) != len(entries):
        raise ValueError("catalogue ids must be unique")
    return by_id


_BY_ID = _index(CATALOGUE)


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
