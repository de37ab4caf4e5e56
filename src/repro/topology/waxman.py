"""Waxman random-graph generator (the paper's default topology).

Waxman (1988): nodes are scattered in the plane and each pair (i, j) is
wired with probability ``β · exp(-d(i,j) / (γ · L_max))`` where ``L_max``
is the maximum inter-node distance.  To hit the paper's average-degree
target exactly we rank pairs by their Waxman score perturbed with Gumbel
noise (equivalent to sampling without replacement proportionally to the
Waxman probability) and keep the top ``target_edges`` pairs, then repair
connectivity.
"""

from __future__ import annotations

import math
from typing import Sequence, Set, Tuple

import numpy as np

from repro.network.graph import QuantumNetwork
from repro.topology.base import (
    GeneratedTopology,
    TopologyConfig,
    assemble_network,
    choose_user_indices,
    repair_connectivity,
    scatter_positions,
    trim_to_edge_target,
)
from repro.utils.rng import RngLike, ensure_rng

#: Classic Waxman parameters; β scales overall density (we re-normalize to
#: the degree target anyway), γ controls how strongly distance suppresses
#: long edges.
DEFAULT_BETA = 0.4
DEFAULT_GAMMA = 0.2


def waxman_network(
    config: TopologyConfig,
    rng: RngLike = None,
    beta: float = DEFAULT_BETA,
    gamma: float = DEFAULT_GAMMA,
) -> QuantumNetwork:
    """Generate a Waxman-style quantum network per the paper's setup."""
    return waxman_topology(config, rng, beta=beta, gamma=gamma).network


def waxman_topology(
    config: TopologyConfig,
    rng: RngLike = None,
    beta: float = DEFAULT_BETA,
    gamma: float = DEFAULT_GAMMA,
) -> GeneratedTopology:
    """Like :func:`waxman_network` but returns generation metadata too."""
    generator = ensure_rng(rng)
    positions = scatter_positions(config, generator)
    n = config.n_nodes
    target = min(config.target_edges, n * (n - 1) // 2)
    edges = _sample_pairs(positions, target, beta, gamma, generator)
    edges = repair_connectivity(positions, edges)
    edges = trim_to_edge_target(positions, edges, target, generator)

    user_indices = choose_user_indices(config, generator)
    network = assemble_network(config, positions, edges, user_indices)
    return GeneratedTopology(
        network=network,
        config=config,
        method="waxman",
        positions={node.id: node.position for node in network.nodes},
    )


def _sample_pairs(
    positions: Sequence[Tuple[float, float]],
    target: int,
    beta: float,
    gamma: float,
    generator: np.random.Generator,
) -> Set[Tuple[int, int]]:
    """*target* Waxman-sampled pairs ``(i, j)``, ``i < j``.

    Every pair scores ``log(Waxman probability)`` plus Gumbel noise, one
    uniform draw per pair in ``(i, j)`` order; taking the top-k of such
    scores samples k pairs with probabilities proportional to the
    Waxman weights (the Gumbel-max trick).  The set is filled in
    descending ``(score, i, j)`` order, which fixes its iteration order.

    numpy's ``hypot`` and ``log`` can differ from :mod:`math`'s in the
    last bit, which could reorder near-equal scores.  So the vectorized
    scores only shortlist every pair within a safe margin of the top
    *target*; the shortlist is then scored and ranked with the scalar
    :mod:`math` formula, which makes the chosen pairs and their order
    exactly those of scoring every pair with :mod:`math`.
    """
    first, second = np.triu_indices(len(positions), k=1)
    xy = np.asarray(positions, dtype=float).reshape(-1, 2)
    dx = xy[first, 0] - xy[second, 0]
    dy = xy[first, 1] - xy[second, 1]
    uniforms = generator.uniform(1e-12, 1.0, size=len(first))

    distance = np.hypot(dx, dy)
    longest = np.flatnonzero(distance >= distance.max() * (1.0 - 1e-9))
    max_distance = max(
        map(math.hypot, dx[longest].tolist(), dy[longest].tolist())
    )
    if max_distance <= 0.0:
        max_distance = 1.0
    log_prob = math.log(beta) - distance / (gamma * max_distance)
    gumbel = -np.log(-np.log(uniforms))
    approx = log_prob + gumbel
    # Each vectorized score is within a few ulps of its scalar value.
    margin = 1e-9 * (1.0 + np.abs(log_prob).max() + np.abs(gumbel).max())
    cutoff = np.partition(approx, len(approx) - target)[len(approx) - target]
    shortlist = np.flatnonzero(approx >= cutoff - margin)

    exact = []
    for x, y, u in zip(
        dx[shortlist].tolist(),
        dy[shortlist].tolist(),
        uniforms[shortlist].tolist(),
    ):
        distance_k = math.hypot(x, y)
        log_prob_k = math.log(beta) - distance_k / (gamma * max_distance)
        gumbel_k = -math.log(-math.log(u))
        exact.append(log_prob_k + gumbel_k)
    rows, cols = first[shortlist], second[shortlist]
    ranked = np.lexsort((cols, rows, exact))[::-1][:target]
    return set(zip(rows[ranked].tolist(), cols[ranked].tolist()))
