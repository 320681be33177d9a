"""The calibration kernel: fixed integer, tuple and Fraction work.

It imports nothing from hopfcheck, so no change to the program can change
its time; only the machine can.  run.py times it in its own process before
and after every operation of an iteration, while no workload process is
alive, and rescales the iteration's wall time by K0 / K.
"""

import time
from fractions import Fraction
from math import gcd

# The kernel's time on the reference machine (a 2-core x86-64 Linux box,
# CPython 3.11), fixed once: verdict_ref_s is the iteration's wall time as
# it would read on a machine whose kernel time is exactly K0.
K0_S = 0.18


def _work() -> int:
    # gcd-normalized integer tuples, convolutions and Fraction sums: the same
    # kinds of operations that dominate exact cyclotomic arithmetic
    acc = Fraction(0)
    vec = tuple(range(1, 9))
    check = 0
    for step in range(1, 10001):
        conv = [0] * 15
        for i, a in enumerate(vec):
            for j, b in enumerate(vec):
                conv[i + j] += a * b
        reduced = tuple(conv[k] - conv[k + 7] for k in range(8))
        g = 0
        for c in reduced:
            g = gcd(g, c)
        vec = tuple((c // (g or 1)) % 97 + 1 for c in reduced)
        acc += Fraction(vec[step % 8], step % 13 + 1)
        check ^= hash(vec)
    return check ^ acc.denominator % 1_000_003


RUNS = 2  # kernel runs in one reading between two operations


def measure(repeats: int = RUNS) -> float:
    """Mean seconds per run of the kernel over `repeats` back-to-back runs.

    Machine speed on a shared 2-core VM wanders by about 10% within
    seconds, so one reading averages a few runs, and run.py takes a reading
    between every two operations of an iteration as well as before and
    after it: over 200 s of interleaved sampling, kernel readings averaged
    over 20 s windows correlated with gate-like and ingest-like work at
    0.92 and 0.83, where single adjacent readings correlated at 0.4 to 0.5."""
    start = time.perf_counter()
    for _ in range(repeats):
        _work()
    return (time.perf_counter() - start) / repeats


if __name__ == "__main__":
    print(f"{measure():.6f}")
