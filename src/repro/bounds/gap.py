"""Optimality gaps, and the certified bounds of one trial network.

The gap of a solution against a :class:`~repro.bounds.lp.BoundCertificate`
is the relative shortfall in linear-rate space::

    gap = 1 − rate / bound_rate        ∈ [0, 1] for a sound bound

A gap of ``0.03`` reads "this tree is certified to be within 3% of the
best achievable rate".  Negative gaps beyond :data:`SOUNDNESS_TOLERANCE`
mean the solver *beat* the bound — impossible for a sound certificate,
so :func:`aggregate_gaps` counts them as violations (the CI soundness
gate asserts there are none; capacity-exempt methods must be compared
against an uncapacitated bound, see
:data:`repro.core.registry.CAPACITY_EXEMPT_METHODS`).

:func:`trial_bounds` is the one place that decides which bound a trial
gets.  Algorithm 2's rate is the uncapacitated optimum (Theorem 3), so
it bounds every capacity-feasible tree as well; the capacitated LP runs
only when no capacity-aware solver already reached it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Union

import repro.obs.metrics as obs_metrics
from repro.bounds.lp import BoundCertificate, compute_bound
from repro.core.optimal import solve_optimal
from repro.core.problem import MUERPSolution
from repro.core.registry import CAPACITY_EXEMPT_METHODS
from repro.network.graph import QuantumNetwork

__all__ = [
    "SOUNDNESS_TOLERANCE",
    "GapAggregate",
    "TrialBounds",
    "aggregate_gaps",
    "gap_percent",
    "optimality_gap",
    "trial_bounds",
]

#: Relative slack allowed before a negative gap counts as a soundness
#: violation (floating-point noise between rate and bound arithmetic).
SOUNDNESS_TOLERANCE = 1e-7

RateLike = Union[MUERPSolution, float]
BoundLike = Union[BoundCertificate, float]


def _as_rate(value: RateLike) -> float:
    if isinstance(value, MUERPSolution):
        return value.rate
    return float(value)


def _as_bound_rate(value: BoundLike) -> float:
    if isinstance(value, BoundCertificate):
        return value.rate_bound
    return float(value)


def optimality_gap(solution: RateLike, bound: BoundLike) -> float:
    """Relative gap ``1 − rate/bound`` of *solution* against *bound*.

    Accepts :class:`~repro.core.problem.MUERPSolution` or a raw rate,
    and :class:`~repro.bounds.lp.BoundCertificate` or a raw bound rate.
    Conventions for the degenerate cases:

    * bound 0, rate 0 → gap 0 (both certify "nothing achievable");
    * bound 0, rate > 0 → ``−inf`` (an unambiguous soundness violation);
    * otherwise the plain ratio — negative gaps *within*
      :data:`SOUNDNESS_TOLERANCE` are snapped to 0 (they are
      floating-point noise on a tight bound, e.g. a heuristic finding
      the LP-optimal tree exactly), while anything more negative is
      kept so soundness checks surface it.
    """
    rate = _as_rate(solution)
    bound_rate = _as_bound_rate(bound)
    if rate < 0.0 or bound_rate < 0.0:
        raise ValueError(
            f"rates must be nonnegative, got rate={rate!r} "
            f"bound={bound_rate!r}"
        )
    if bound_rate == 0.0:
        return 0.0 if rate == 0.0 else -math.inf
    gap = 1.0 - rate / bound_rate
    if -SOUNDNESS_TOLERANCE <= gap < 0.0:
        return 0.0
    return gap


def gap_percent(solution: RateLike, bound: BoundLike) -> float:
    """:func:`optimality_gap` scaled to percent."""
    return 100.0 * optimality_gap(solution, bound)


@dataclass(frozen=True)
class GapAggregate:
    """Per-method gap statistics across a set of trials."""

    method: str
    n_trials: int
    mean_gap: float
    min_gap: float
    max_gap: float
    violations: int

    @property
    def mean_gap_percent(self) -> float:
        return 100.0 * self.mean_gap

    @property
    def sound(self) -> bool:
        """No trial beat its bound beyond numerical tolerance."""
        return self.violations == 0


def aggregate_gaps(
    rates_by_method: Mapping[str, Sequence[float]],
    bounds: Sequence[float],
    tolerance: float = SOUNDNESS_TOLERANCE,
) -> Dict[str, GapAggregate]:
    """Per-method gap aggregation over aligned per-trial bounds.

    ``rates_by_method[m][t]`` is method *m*'s rate on trial *t* and
    ``bounds[t]`` the certified bound for the same trial's network.
    """
    aggregates: Dict[str, GapAggregate] = {}
    for method, rates in rates_by_method.items():
        if len(rates) != len(bounds):
            raise ValueError(
                f"method {method!r} has {len(rates)} rates but "
                f"{len(bounds)} bounds"
            )
        gaps = [
            optimality_gap(rate, bound)
            for rate, bound in zip(rates, bounds)
        ]
        violations = sum(1 for g in gaps if g < -tolerance)
        if gaps:
            mean_gap = math.fsum(gaps) / len(gaps)
            min_gap, max_gap = min(gaps), max(gaps)
        else:
            mean_gap = min_gap = max_gap = math.nan
        aggregates[method] = GapAggregate(
            method=method,
            n_trials=len(gaps),
            mean_gap=mean_gap,
            min_gap=min_gap,
            max_gap=max_gap,
            violations=violations,
        )
    return aggregates


@dataclass(frozen=True)
class TrialBounds:
    """Certified rate bounds of one trial network.

    Attributes:
        capacitated: Bound on every capacity-feasible tree.
        uncapacitated: Algorithm 2's rate, the exact optimum once
            capacity is dropped; the bound of capacity-exempt methods.
        certified_optimal: A capacity-aware solver reached
            ``uncapacitated``, so its tree is optimal under capacity
            too and ``capacitated == uncapacitated``.
        certificate: The capacitated LP certificate, or ``None`` when
            the trial was certified without an LP.
    """

    capacitated: float
    uncapacitated: float
    certified_optimal: bool
    certificate: Optional[BoundCertificate]

    def for_method(self, method: str) -> float:
        """The bound *method*'s rate must stay below."""
        if method in CAPACITY_EXEMPT_METHODS:
            return self.uncapacitated
        return self.capacitated


def trial_bounds(
    network: QuantumNetwork,
    rates: Mapping[str, float],
    *,
    backend: str = "auto",
) -> TrialBounds:
    """Certified bounds for *network* from the method rates already solved.

    Every channel of a capacity-feasible tree relays only through
    switches with at least 2 qubits, so its rate is at most Algorithm
    1's best channel for that pair at full budget, and the tree's rate
    is at most Algorithm 2's maximum spanning tree over those channels.
    Algorithm 2's rate is therefore a sound bound on every solver.

    * Algorithm 2's rate comes from ``rates`` when the trial ran it,
      else from :func:`~repro.core.optimal.solve_optimal`, which draws
      no randomness.
    * If the best capacity-aware rate in ``rates`` reaches it (within
      :data:`SOUNDNESS_TOLERANCE`) and it is positive, the trial is
      certified optimal and no LP runs.  A network with no tree (rate
      0) is never certified.
    * Otherwise the capacitated LP (*backend*) runs once, and the
      capacitated bound is the smaller of its bound and Algorithm 2's
      rate.

    The rates must come from trees that passed
    :func:`~repro.core.tree.validate_solution` (capacity enforced for
    every non-exempt method): an unverified capacity-violating tree at
    Algorithm 2's rate would certify itself.
    """
    exempt = sorted(m for m in CAPACITY_EXEMPT_METHODS if m in rates)
    algorithm2 = (
        rates[exempt[0]] if exempt else solve_optimal(network).rate
    )
    best = max(
        (r for m, r in rates.items() if m not in CAPACITY_EXEMPT_METHODS),
        default=None,
    )
    if (
        best is not None
        and algorithm2 > 0.0
        and best >= algorithm2 * (1.0 - SOUNDNESS_TOLERANCE)
    ):
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc("bounds.certified")
        return TrialBounds(algorithm2, algorithm2, True, None)
    certificate = compute_bound(network, backend=backend)
    return TrialBounds(
        min(certificate.rate_bound, algorithm2), algorithm2, False, certificate
    )
