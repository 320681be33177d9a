"""The small quantum-plane Hopf algebra is isomorphic to its dual.

Builds the p-dimensional-squared algebra with g x = xi x g, its dual, and
the explicit isomorphism pair; prints the verification report.

Run:  python3 demos/self_duality.py [p]
"""

import sys

from hopfcheck.hopf import taft, taft_self_duality

p = int(sys.argv[1]) if len(sys.argv) > 1 else 3
duality = taft_self_duality(taft(p))
print(f"p = {p}: dim {duality.hopf.dim} vs dual dim {duality.dual.dim}")
print("status:", duality.report.status)
for key, part in duality.report.witnesses.items():
    print(f"  {key}: {part}")

n = duality.hopf.dim
print("\nforward image of x (column of the generator at index 1):")
col = duality.forward.column(1)
for k, v in enumerate(col):
    if v:
        print(f"  coefficient of dual basis vector {k}: {v.pretty()}")
