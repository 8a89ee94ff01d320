"""Randomized scipy twins at length: many seeded problems, each solved by
odesolve.solve_ivp and by scipy's RK45, which must agree bit for bit.

    PYTHONPATH=src python tools/twins.py SEED [COUNT]

Draws COUNT problems (default 2000) from SEED with the generator of the
tier-1 test test_random_problems_match_scipy, which draws 100 at seed
20240915; give this command another seed.  Problem i is case
_TWIN_CASES[i % 10], as in the test, and each run is held to what
assert_same_run asserts at 200 dense points: times, states, termination,
nfev, every event and the dense output, vectorized and point by point.
The generator, the cases and the check are imported from
tests/test_odesolve.py and the scipy twin from tests/conftest.py, so this
command and tier-1 test one thing.

Prints one line per problem that differs, then a summary line with the
count, the accepted steps and the time.  Exit 0 when every problem
matches, 1 otherwise.  Needs scipy and the test dependencies.
"""
from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))

import numpy as np  # noqa: E402

from conftest import twin  # noqa: E402
from test_odesolve import _TWIN_CASES, _random_solve, assert_same_run  # noqa: E402


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    seed, count = int(argv[0]), int(argv[1]) if len(argv) > 1 else 2000
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    steps = differ = 0
    for i in range(count):
        desc, call = _random_solve(rng, _TWIN_CASES[i % len(_TWIN_CASES)])
        ours, ref = twin(*call)
        steps += len(ours.sol.steps)
        try:
            assert_same_run(ours, ref, points=200)
        except AssertionError as exc:
            differ += 1
            print(f"problem {i} ({desc}): {exc}")
    print(f"seed {seed}: {count - differ} of {count} problems match scipy, "
          f"{steps} steps in {time.perf_counter() - start:.1f} s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
