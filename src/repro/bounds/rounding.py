"""Randomized rounding: integral entanglement trees from the LP.

The ``"lp_rounding"`` solver (registered in
:mod:`repro.core.registry`, appended to :func:`solve_robust`'s default
fallback chain) extracts a spanning tree from the fractional optimum
of :func:`repro.bounds.lp.solve_relaxation`:

1. Solve the LP relaxation once; its columns are concrete
   :class:`~repro.core.problem.Channel` objects with fractional mass.
2. Run a weighted Kruskal pass over the columns — attempt 0 visits
   them in deterministic descending-rate order, attempt 1 prefers the
   fractional support, and later attempts draw a mass-biased random
   order from the caller's rng stream (the standard exponential-key
   weighted shuffle, so same seed ⇒ byte-identical attempt
   sequence).  A column is accepted iff its endpoints are in
   different user components *and* the
   :class:`~repro.core.ledger.CapacityLedger` can still host it; each
   attempt runs inside a ledger transaction so a failed attempt rolls
   back to a clean slate.
3. If the accepted columns do not span every user (their mass sat on
   switches another column already drained), repair greedily with
   Algorithm 1 best-channel searches against the *residual* ledger —
   the same completion step Algorithm 2 uses.
4. Audit the result with :class:`~repro.verify.verifier.SolutionVerifier`
   (capacity enforced) and keep the best verified tree across attempts.

Because accepted channels only ever enter through
``try_reserve_channel`` / ``can_host`` checks against one ledger, the
output can never overbook a switch; the audit in step 4 re-derives
that from scratch anyway.
"""

from __future__ import annotations

import time
from typing import Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.bounds.lp import LPRelaxationResult, solve_relaxation
from repro.core.channel import RoundSearches, best_channels_from
from repro.core.ledger import CapacityLedger
from repro.core.problem import (
    Channel,
    MUERPSolution,
    infeasible_solution,
    resolve_users,
)
import repro.obs.metrics as obs_metrics
from repro.network.graph import QuantumNetwork
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.unionfind import UnionFind
from repro.verify.verifier import SolutionVerifier

__all__ = ["solve_lp_rounding", "DEFAULT_ATTEMPTS"]

#: Rounding attempts per solve (1 deterministic + the rest randomized).
DEFAULT_ATTEMPTS = 8

#: Columns with at least this much LP mass get a deterministic-pass
#: priority boost; pure-zero columns still participate (they are real
#: channels and the repair step may want them).
_MASS_FLOOR = 1e-4


class _AttemptFailed(Exception):
    """Raised inside a ledger transaction to roll an attempt back."""


def _attempt_order(
    attempt: int,
    relaxation: LPRelaxationResult,
    weights: np.ndarray,
    rng: np.random.Generator,
) -> List[int]:
    """Column visit order for one rounding attempt.

    Attempt 0 is a pure rate-greedy pass (empirically the strongest
    single ordering — it recovers the Algorithm-2 tree whenever the LP
    support contains it), attempt 1 prefers the fractional support and
    orders by rate within it, and later attempts draw a mass-biased
    random order (exponential-key weighted shuffle) from the caller's
    rng stream.
    """
    columns = relaxation.columns
    n = len(columns)
    if attempt == 0:
        return sorted(
            range(n), key=lambda j: (-columns[j].channel.log_rate, j)
        )
    if attempt == 1:
        return sorted(
            range(n),
            key=lambda j: (
                0 if weights[j] > _MASS_FLOOR else 1,
                -columns[j].channel.log_rate,
                j,
            ),
        )
    draws = rng.random(n)
    keys = draws ** (1.0 / weights)
    return sorted(
        range(n),
        key=lambda j: (-keys[j], -columns[j].channel.log_rate, j),
    )


def _kruskal_pass(
    network: QuantumNetwork,
    users: List[Hashable],
    relaxation: LPRelaxationResult,
    order: List[int],
    ledger: CapacityLedger,
) -> Tuple[List[Channel], UnionFind]:
    """One capacity-checked Kruskal sweep over the LP columns."""
    unions = UnionFind(users)
    chosen: List[Channel] = []
    for j in order:
        column = relaxation.columns[j]
        a, b = column.pair
        if unions.connected(a, b):
            continue
        if ledger.try_reserve_channel(column.channel):
            unions.union(a, b)
            chosen.append(column.channel)
        if len(chosen) == len(users) - 1:
            break
    return chosen, unions


def _repair(
    network: QuantumNetwork,
    users: List[Hashable],
    chosen: List[Channel],
    unions: UnionFind,
    ledger: CapacityLedger,
) -> int:
    """Greedy Algorithm-1 completion against the residual ledger.

    Returns the number of repair channels added; raises
    :class:`_AttemptFailed` when the remaining components cannot be
    joined under the residual capacities.
    """
    added = 0
    searches = RoundSearches(best_channels_from, network, ledger)
    while unions.n_components > 1:
        best: Optional[Channel] = None
        for source in users:
            targets = [
                u for u in users if not unions.connected(source, u)
            ]
            if not targets:
                continue
            found = searches.channels_from(source, targets)
            for channel in found.values():
                if best is None or channel.log_rate > best.log_rate:
                    best = channel
        if best is None:
            raise _AttemptFailed("components cannot be reconnected")
        if not ledger.try_reserve_channel(best):  # pragma: no cover
            raise _AttemptFailed("residual search returned a full switch")
        searches.reserved(best)
        a, b = best.endpoints
        unions.union(a, b)
        chosen.append(best)
        added += 1
    return added


def solve_lp_rounding(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    rng: RngLike = None,
    *,
    backend: str = "auto",
    attempts: int = DEFAULT_ATTEMPTS,
    relaxation: Optional[LPRelaxationResult] = None,
) -> MUERPSolution:
    """Round the LP relaxation into a verified entanglement tree.

    Args:
        network: The quantum network.
        users: User subset to span (defaults to all network users).
        rng: Seed or generator for the randomized attempts; the stream
            is consumed deterministically, so a fixed seed reproduces
            the solution byte for byte.
        backend: LP backend passed to :func:`solve_relaxation`.
        attempts: Total rounding attempts (first is deterministic).
        relaxation: Reuse an already-solved relaxation (the CLI and
            benchmarks do this to avoid paying for the LP twice).

    Returns:
        The best verified tree found, or the canonical infeasible
        solution when the LP itself is infeasible or every attempt
        fails.
    """
    started = time.perf_counter()
    user_list = sorted(resolve_users(network, users), key=repr)
    generator = ensure_rng(rng)
    metrics = obs_metrics.active()
    if metrics is not None:
        metrics.inc("bounds.rounding.calls")

    if relaxation is None:
        relaxation = solve_relaxation(network, user_list, backend=backend)
    if not relaxation.certificate.feasible or not relaxation.columns:
        if metrics is not None:
            metrics.inc("bounds.rounding.infeasible")
        return infeasible_solution(user_list, "lp_rounding")

    weights = np.maximum(
        np.asarray(relaxation.values, dtype=float), _MASS_FLOOR
    )
    verifier = SolutionVerifier()
    ledger = CapacityLedger.from_network(network)
    best_solution: Optional[MUERPSolution] = None
    attempts = max(1, attempts)
    failures = 0
    repairs = 0

    for attempt in range(attempts):
        order = _attempt_order(attempt, relaxation, weights, generator)
        try:
            with ledger.transaction():
                chosen, unions = _kruskal_pass(
                    network, user_list, relaxation, order, ledger
                )
                if unions.n_components > 1:
                    repairs += _repair(
                        network, user_list, chosen, unions, ledger
                    )
                candidate = MUERPSolution(
                    channels=tuple(chosen),
                    users=frozenset(user_list),
                    method="lp_rounding",
                )
                if verifier.audit(
                    network, candidate, users=user_list,
                    enforce_capacity=True,
                ):
                    raise _AttemptFailed("verifier rejected candidate")
                # Roll the reservations back either way: the solution
                # carries its own usage and callers own the real ledger.
                raise _AttemptFailed("unwind")
        except _AttemptFailed as failure:
            if str(failure) != "unwind":
                failures += 1
                continue
        if (
            best_solution is None
            or candidate.log_rate > best_solution.log_rate
        ):
            best_solution = candidate

    if metrics is not None:
        metrics.inc("bounds.rounding.attempts", attempts)
        metrics.inc("bounds.rounding.retries", failures)
        metrics.inc("bounds.rounding.repair_channels", repairs)
        metrics.observe(
            "bounds.rounding.solve_seconds", time.perf_counter() - started
        )
    if best_solution is None:
        if metrics is not None:
            metrics.inc("bounds.rounding.exhausted")
        return infeasible_solution(user_list, "lp_rounding")
    return best_solution
