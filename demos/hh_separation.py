"""The headline computation: a two-term dg structure whose centrality-
constrained degree -1 cohomology drops from dimension 2 to dimension 1
when the marked element is quotiented away.

Run:  python3 demos/hh_separation.py
"""

from hopfcheck.hopf import taft
from hopfcheck.doubles import build_twisted_double, split_blocks, taft_double_generators
from hopfcheck.dga import (
    TwoTermDga,
    complex_cohomology,
    diagonalizability_report,
    hh_minus_one,
    stable_dga,
)

d = build_twisted_double(taft(2))
gens = taft_double_generators(d)
blocks = split_blocks(d, gens)

blk = blocks[1]  # the odd block: sigma - 1 restricts to x'x here
z = blk.project(d.sigma) - blk.algebra.unit_element()
dga = TwoTermDga(blk.algebra, z)
print("odd block: dim", blk.algebra.dim, " center dim", blk.algebra.center().dim)
print("z == x'x:", z == blk.project(gens["x'"]) * blk.project(gens["x"]))

prof = complex_cohomology(dga)
print(f"two-term complex: ker {prof.dim_h_minus1}, image {prof.image_dim},"
      f" ker/image overlap {prof.overlap_dim}")
rep = diagonalizability_report(dga)
print("differential diagonalizable:", rep.witnesses["diagonalizable"])

hh = hh_minus_one(dga)
print("\nmixed invariant { r central : r z = 0 }: dim", hh.dim)

sdga, q = stable_dga(dga)
shh = hh_minus_one(sdga)
print("stable quotient: dim", q.algebra.dim, " center dim", q.algebra.center().dim)
print("stable invariant: dim", shh.dim)
print("\nseparation:", hh.dim, "vs", shh.dim)
