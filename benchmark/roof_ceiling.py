"""Rebuild the roof accuracy ceiling: excess of default roof estimates over Wootters' EoF.

Usage, from the root of a checkout (about one second per state):

    python3 benchmark/roof_ceiling.py

For 50 random two-qubit states (seed 100) of each rank 2, 3 and 4, the
ranks of the roof-search workload, it prints, per rank, the largest excess
of ``roof_estimate`` at default settings over the closed-form entanglement of formation, and the
smallest excess of the eigen-ensemble start the search begins from.
``ROOF_CEILING`` in ``workloads.py`` must lie between the two.
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

STATES = 50  # per rank
SEED = 100
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import entmono  # noqa: E402
import oracles  # noqa: E402


def main() -> int:
    rng = np.random.default_rng(SEED)
    e1 = entmono.monotone_by_name("e1")
    for rank in (2, 3, 4):
        excess, start_excess = [], []
        for _ in range(STATES):
            rho = oracles.wishart_density(4, rank, rng)
            est = entmono.roof_estimate(entmono.DensityMatrix(4, rho), 2, 2, e1,
                                        seed=int(rng.integers(2**31)))
            eof = oracles.eof_two_qubit(rho)
            excess.append(est.value - eof)
            start_excess.append(oracles.eigen_ensemble_average(rho, 2, 2, 1.0) - eof)
        print(f"rank {rank}: {STATES} states, search excess max {max(excess):.3g} "
              f"(min {min(excess):.3g}), eigen-start excess min {min(start_excess):.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
