"""The three workloads and why each is in the benchmark.

Each runs single-process (``workers=1``) through a user entry point:
``crlink sweep`` for the two sweeps, ``crlink validate`` for the oracle.
"""

WORKLOADS = {
    "ss_fig4": {
        "kind": "sweep",
        "calibration": "overhead",
        "why": "configs/fig4.cfg as shipped: ratio link through the hyp2f1 "
               "CDF, quadrature-bound, each (L,m) pair repeated at 11 "
               "budgets so work shared across grid points shows",
    },
    "osa_users": {
        "kind": "sweep",
        "calibration": "overhead",
        "why": "direct link with non-integer m through the scalar "
               "incomplete-gamma loop, no hyp2f1, each (L,m) pair once so "
               "cross-grid sharing has nothing to share",
    },
    "oracle": {
        "kind": "validate",
        "calibration": "bulk",
        "why": "crlink validate defaults: Monte Carlo sampling of the "
               "best-of-L law dominates, quadrature is a minor share",
    },
}

# The benchmark seed picks the validate seed from this pool. validate tests
# 30 estimates at 3 sigma, and at the commit that froze the reference
# 1 of the seeds 0..39 (seed 23, 3.13 sigma on one estimate) falls outside a
# band by chance alone; the pool holds the other 39, so a band miss at any
# of them after a change is a change in the numbers, not luck. A change to
# the Monte Carlo streams must screen the pool again.
ORACLE_SEEDS = tuple(s for s in range(40) if s != 23)


def oracle_seed(seed: int) -> int:
    return ORACLE_SEEDS[seed % len(ORACLE_SEEDS)]
