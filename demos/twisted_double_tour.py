"""Tour of the twisted double: construction, generators, relations, blocks.

Run:  python3 demos/twisted_double_tour.py [p]
"""

import sys

from hopfcheck.hopf import taft
from hopfcheck.doubles import (
    build_twisted_double,
    check_block_split,
    check_generator_presentation,
    split_blocks,
    taft_double_generators,
    taft_eigencomponents,
    verify_sigma_graded_action,
)

p = int(sys.argv[1]) if len(sys.argv) > 1 else 2
h = taft(p)
print(f"base: {h.name}, dim {h.dim}")
d = build_twisted_double(h)
print(f"double: dim {d.algebra.dim} (expected p^4 = {p**4})")

gens = taft_double_generators(d)
rep = check_generator_presentation(d)
print(f"\ngenerator presentation: {rep.status}")
for r in rep.witnesses["relations"]:
    print(f"  {r['expr']}: {'0' if r['holds'] else 'NONZERO'}")
print(f"  generated dim: {rep.witnesses['generated_dim']}")
ggp = rep.witnesses["gg'"]
print(f"  g g' central, p-th power 1: {ggp}")

blocks = split_blocks(d, gens)
print(f"\nblock split along g g': {check_block_split(d, blocks).status}")
for s, blk in enumerate(blocks):
    print(f"  block s={s}: eigenvalue {blk.eigenvalue.pretty()}, dim {blk.algebra.dim},"
          f" center dim {blk.algebra.center().dim}")

components = taft_eigencomponents(d, gens)
rep = verify_sigma_graded_action(d, gens, components)
print(f"\nsigma graded action formula: {rep.status}")
