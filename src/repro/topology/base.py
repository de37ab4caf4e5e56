"""Shared scaffolding for topology generation.

All generators follow the same recipe, mirroring the paper's setup:

1. scatter ``n_switches + n_users`` nodes uniformly at random in a square
   deployment area (default 10 000 × 10 000 km);
2. create fibers according to the generator's wiring rule, targeting a
   total edge count of ``⌈D · |V| / 2⌉`` for average degree ``D``;
3. repair connectivity by joining components with their geometrically
   shortest inter-component fiber;
4. pick which nodes are quantum users uniformly at random and assign the
   per-switch qubit budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Sequence, Set, Tuple

import numpy as np

from repro.network.graph import NetworkParams, QuantumNetwork
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import (
    ValidationError,
    require_positive,
    require_probability,
)


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters for random network generation (paper defaults).

    Attributes:
        n_switches: Number of quantum switches (paper default 50).
        n_users: Number of quantum users (paper default 10).
        avg_degree: Target average fiber degree ``D`` (paper default 6).
        qubits_per_switch: Qubit budget ``Q`` per switch (paper default 4).
        area: Side length of the square deployment area in km (10 000).
        alpha: Fiber attenuation constant (1e-4 per km).
        swap_prob: BSM swapping success probability ``q`` (0.9).
        n_edges: Optional explicit edge-count target overriding
            ``avg_degree`` (used by the Fig. 7(b) 600-fiber setup).
    """

    n_switches: int = 50
    n_users: int = 10
    avg_degree: float = 6.0
    qubits_per_switch: int = 4
    area: float = 10_000.0
    alpha: float = 1e-4
    swap_prob: float = 0.9
    n_edges: int = 0

    def __post_init__(self) -> None:
        if self.n_users < 2:
            raise ValidationError(f"need at least 2 users, got {self.n_users}")
        if self.n_switches < 0:
            raise ValidationError(
                f"n_switches must be >= 0, got {self.n_switches}"
            )
        require_positive(self.avg_degree, "avg_degree")
        require_positive(self.area, "area")
        require_positive(self.alpha, "alpha")
        require_probability(self.swap_prob, "swap_prob")
        if self.qubits_per_switch < 0:
            raise ValidationError("qubits_per_switch must be >= 0")

    @property
    def n_nodes(self) -> int:
        return self.n_switches + self.n_users

    @property
    def target_edges(self) -> int:
        """Edge-count target: explicit ``n_edges`` or ``⌈D·n/2⌉``."""
        if self.n_edges:
            return self.n_edges
        return int(math.ceil(self.avg_degree * self.n_nodes / 2.0))

    def network_params(self) -> NetworkParams:
        return NetworkParams(alpha=self.alpha, swap_prob=self.swap_prob)

    def replace(self, **changes) -> "TopologyConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass
class GeneratedTopology:
    """A generated network plus generation metadata."""

    network: QuantumNetwork
    config: TopologyConfig
    method: str
    positions: Dict[Hashable, Tuple[float, float]] = field(default_factory=dict)


def scatter_positions(
    config: TopologyConfig, rng: RngLike = None
) -> List[Tuple[float, float]]:
    """Uniform random (x, y) positions for all nodes inside the area."""
    generator = ensure_rng(rng)
    coords = generator.uniform(0.0, config.area, size=(config.n_nodes, 2))
    return [(float(x), float(y)) for x, y in coords]


def euclidean(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def choose_user_indices(
    config: TopologyConfig, rng: RngLike = None
) -> Set[int]:
    """Pick which of the ``n_nodes`` placed nodes become quantum users."""
    generator = ensure_rng(rng)
    chosen = generator.choice(config.n_nodes, size=config.n_users, replace=False)
    return {int(i) for i in chosen}


def assemble_network(
    config: TopologyConfig,
    positions: Sequence[Tuple[float, float]],
    edges: Set[Tuple[int, int]],
    user_indices: Set[int],
) -> QuantumNetwork:
    """Build a :class:`QuantumNetwork` from index-based edges.

    Users are named ``"u<i>"`` and switches ``"s<i>"`` with a stable
    renumbering so node ids are self-describing.
    """
    names: Dict[int, str] = {}
    user_counter = itertools.count()
    switch_counter = itertools.count()
    network = QuantumNetwork(config.network_params())
    for index in range(config.n_nodes):
        if index in user_indices:
            name = f"u{next(user_counter)}"
            network.add_user(name, positions[index])
        else:
            name = f"s{next(switch_counter)}"
            network.add_switch(
                name, positions[index], qubits=config.qubits_per_switch
            )
        names[index] = name
    for i, j in edges:
        network.add_fiber(
            names[i], names[j], euclidean(positions[i], positions[j])
        )
    return network


def repair_connectivity(
    positions: Sequence[Tuple[float, float]],
    edges: Set[Tuple[int, int]],
) -> Set[Tuple[int, int]]:
    """Join disconnected components with their shortest bridging edge.

    Mutates nothing; returns a new edge set that induces a connected
    graph over ``range(len(positions))``.  Greedy: repeatedly merge the
    component containing node 0 with the nearest outside node.
    """
    n = len(positions)
    if n == 0:
        return set(edges)
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(n)}
    result = set(edges)
    for i, j in result:
        adjacency[i].add(j)
        adjacency[j].add(i)

    def component_from(seed: int) -> Set[int]:
        seen: Set[int] = set()
        stack = [seed]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(adjacency[current] - seen)
        return seen

    component = component_from(0)
    while len(component) < n:
        outside = [i for i in range(n) if i not in component]
        best: Tuple[float, int, int] = (math.inf, -1, -1)
        for i in component:
            for j in outside:
                distance = euclidean(positions[i], positions[j])
                if distance < best[0]:
                    best = (distance, i, j)
        _, i, j = best
        edge = (i, j) if i < j else (j, i)
        result.add(edge)
        adjacency[i].add(j)
        adjacency[j].add(i)
        component |= component_from(j)
    return result


def trim_to_edge_target(
    positions: Sequence[Tuple[float, float]],
    edges: Set[Tuple[int, int]],
    target: int,
    rng: RngLike = None,
) -> Set[Tuple[int, int]]:
    """Randomly drop edges down to *target*, never disconnecting the graph.

    Edges whose removal would disconnect the graph (bridges at removal
    time) are kept.  If every remaining edge is a bridge the trim stops
    early, so the result may exceed *target* on tree-like graphs.
    """
    generator = ensure_rng(rng)
    result = set(edges)
    candidates = list(result)
    generator.shuffle(candidates)
    for edge in candidates:
        if len(result) <= target:
            break
        result.discard(edge)
        if not _is_connected(len(positions), result):
            result.add(edge)
    return result


def pad_to_edge_target(
    positions: Sequence[Tuple[float, float]],
    edges: Set[Tuple[int, int]],
    target: int,
    rng: RngLike = None,
) -> Set[Tuple[int, int]]:
    """Add shortest missing edges until the edge count reaches *target*."""
    n = len(positions)
    result = set(edges)
    missing = [
        (euclidean(positions[i], positions[j]), i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in result
    ]
    missing.sort()
    for _, i, j in missing:
        if len(result) >= target:
            break
        result.add((i, j))
    return result


def _is_connected(n: int, edges: Set[Tuple[int, int]]) -> bool:
    if n == 0:
        return True
    adjacency: Dict[int, List[int]] = {i: [] for i in range(n)}
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen: Set[int] = set()
    stack = [0]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(nb for nb in adjacency[current] if nb not in seen)
    return len(seen) == n
