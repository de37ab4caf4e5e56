"""Certified quality bounds for the MUERP.

``repro.bounds`` turns "our heuristics look good" into "our heuristics
are within X% of a certified bound":

* :mod:`repro.bounds.lp` — the multi-commodity-flow LP relaxation,
  solved by column generation over a dependency-free revised simplex
  (:mod:`repro.bounds.simplex`) or the optional scipy backend,
  emitting a :class:`~repro.bounds.lp.BoundCertificate`.
* :mod:`repro.bounds.rounding` — the ``"lp_rounding"`` approximate
  solver: randomized rounding of the fractional tree, ledger-checked
  and verifier-audited.
* :mod:`repro.bounds.gap` — optimality-gap helpers the experiment
  tables and benchmarks report, and :func:`trial_bounds`, which
  certifies a trial with Algorithm 2's rate first and runs the LP only
  where no capacity-aware method reaches it.

See ``docs/BOUNDS.md`` for the formulation and a gap-table reading
guide.
"""

from repro.bounds.gap import (
    GapAggregate,
    TrialBounds,
    aggregate_gaps,
    gap_percent,
    optimality_gap,
    trial_bounds,
)
from repro.bounds.lp import (
    BoundCertificate,
    LPRelaxationResult,
    PathColumn,
    compute_bound,
    scipy_available,
    solve_relaxation,
)
from repro.bounds.rounding import solve_lp_rounding
from repro.bounds.simplex import LPResult, simplex_solve

__all__ = [
    "BoundCertificate",
    "GapAggregate",
    "LPRelaxationResult",
    "LPResult",
    "PathColumn",
    "TrialBounds",
    "aggregate_gaps",
    "compute_bound",
    "gap_percent",
    "optimality_gap",
    "scipy_available",
    "simplex_solve",
    "solve_lp_rounding",
    "solve_relaxation",
    "trial_bounds",
]
