"""Algorithm 1 — maximum-entanglement-rate channel between two users.

Eq. (1) is a product, not a sum, so Dijkstra does not apply directly.
Following Sec. IV-A, each fiber edge gets weight ``α·L − ln q`` so that a
shortest path in weight space is a maximum-rate channel, with the final
rate recovered as ``exp(−ln q − Dist)``.

Implementation notes (equivalent reformulation):

* We charge the ``−ln q`` term when *leaving* an intermediate switch
  rather than uniformly per edge, which is the same total for any
  user-switch-…-user path but also handles the degenerate ``q = 0`` case
  (direct user-user fibers still work; multi-hop rates collapse to 0).
* Only switches with at least 2 residual qubits may relay (Algorithm 1,
  line 11: ``Q_{u_h} ≥ 2``), and quantum users other than the endpoints
  can never relay (a channel is "a path through vertices in R", Def. 2).
* ``best_channels_from`` runs the search once per *source* and recovers
  all destinations through the ``Prev`` array — the complexity
  optimization described after Theorem 3, giving
  ``O(|U|(|E| + |V| log |V|))`` for the all-pairs step.
* The search loop walks the network's int-indexed routing snapshot
  with an inlined indexed binary heap, so a call does no per-step
  method calls or node-object lookups.
* :class:`RoundSearches` carries one solve's searches across its
  reservation rounds and searches a source again only after a
  reservation blocks a switch, so a round that blocks nothing costs no
  search at all.
"""

from __future__ import annotations

import math
import warnings
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.ledger import QUBITS_PER_CHANNEL
from repro.core.problem import Channel
from repro.core.rates import swap_log_rate
from repro.exec import cache as exec_cache
from repro.network.errors import UnknownNodeError
from repro.network.graph import QuantumNetwork
import repro.obs.metrics as obs_metrics

__all__ = [
    "dijkstra",
    "trace_path",
    "find_best_channel",
    "best_channels_from",
    "RoundSearches",
    "all_pairs_best_channels",
]


def _residual_qubits(
    network: QuantumNetwork,
    residual: Optional[Dict[Hashable, int]],
) -> Dict[Hashable, int]:
    """Effective residual qubit budget per switch."""
    if residual is None:
        return network.residual_qubits()
    return residual


def dijkstra(
    network: QuantumNetwork,
    source: Hashable,
    residual: Optional[Dict[Hashable, int]] = None,
    forbidden_fibers: Optional[Set[Tuple[Hashable, Hashable]]] = None,
    allow_switch_source: bool = False,
    penalties: Optional[Dict[Hashable, float]] = None,
) -> Tuple[Dict[Hashable, float], Dict[Hashable, Hashable]]:
    """Single-source max-rate search (Algorithm 1's main loop).

    This is the public channel-search primitive (the building block
    :func:`find_best_channel` / :func:`best_channels_from` and the
    Yen-style spur searches in :mod:`repro.core.kbest` share); pair it
    with :func:`trace_path` to materialize concrete paths.

    Returns ``(dist, prev)`` where ``dist[x]`` is the accumulated weight
    ``α·ΣL − (#swaps)·ln q`` of the best partial channel from *source* to
    ``x`` and ``prev`` traces the path.  Quantum users are reachable as
    terminals but never expanded; switches are expanded only while they
    hold at least 2 residual qubits.

    ``allow_switch_source`` lets spur-search callers start from a
    switch; the source's own swap cost is then the caller's
    responsibility (it is a constant offset across all returned paths,
    so argmax comparisons stay valid).

    ``penalties`` maps switches to an extra nonnegative cost charged
    each time the switch relays, on top of its ``−ln q``: the LP bound
    prices columns with it (:mod:`repro.bounds.lp`, capacity duals).  A
    relay then costs ``dist + (−ln q + penalty)`` before the fiber's
    ``α·L`` is added, so a penalty of ``0.0`` or ``−0.0`` gives exactly
    the unpenalized result.

    The search runs over ints on the network's memoized
    :meth:`~repro.network.graph.QuantumNetwork.routing_snapshot`.  Ties
    between equal distances break as an indexed binary min-heap breaks
    them (:class:`~repro.utils.heap.IndexedMinHeap`, inlined here), with
    neighbours scanned in adjacency insertion order; ``dist`` and
    ``prev`` are filled in first-relaxation order.

    Profiling: each call publishes ``core.dijkstra.calls`` /
    ``.heap_pops`` / ``.edges_scanned`` / ``.relaxations`` counters to
    the active :class:`~repro.obs.metrics.MetricsRegistry` (one batch
    at return, so per-iteration cost is local integer bumps).

    Caching: when a :class:`~repro.exec.cache.ChannelCache` is active
    (:func:`repro.exec.cache.caching`), results are memoized under an
    exact key — routing fingerprint, source, blocked-switch set,
    forbidden fibers — so a hit returns the byte-identical ``(dist,
    prev)`` a recomputation would have produced.  The search only reads
    residual capacities through the "≥ 2 free qubits" relay predicate,
    which is why the blocked-switch *set* (not the raw counts) fully
    captures the residual state's influence.  Penalties are not part of
    the key: a search with any nonzero penalty neither reads nor writes
    the cache, while all-zero penalties share the unpenalized entry.
    """
    if not allow_switch_source and not network.is_user(source):
        raise ValueError(f"source {source!r} must be a quantum user")
    qubits = _residual_qubits(network, residual)
    penalized = penalties is not None and any(penalties.values())
    cache = None if penalized else exec_cache.active()
    cache_key = None
    if cache is not None:
        cache_key = cache.key_for(
            network, qubits, source, forbidden_fibers, allow_switch_source
        )
        cached = cache.get(cache_key)
        if cached is not None:
            return cached
    snapshot = network.routing_snapshot()
    start = snapshot.index.get(source)
    if start is None:
        raise UnknownNodeError(source)
    ids = snapshot.ids
    rows = snapshot.rows
    is_switch = snapshot.is_switch
    alpha = network.params.alpha
    minus_ln_q = -swap_log_rate(network.params.swap_prob)  # in [0, +inf]
    # q = 0: nothing can extend beyond the source's own links.
    can_swap = not math.isinf(minus_ln_q)
    # swap_cost[i]: what relaying through switch i costs, when penalized.
    swap_cost = None
    if penalized:
        swap_cost = [minus_ln_q] * len(ids)
        index_of = snapshot.index.get
        for node_id, penalty in penalties.items():
            i = index_of(node_id)
            if i is not None:
                swap_cost[i] = minus_ln_q + penalty

    # open_[i]: node i may still be entered — it terminates (any user)
    # or can relay (switch with >= 2 residual qubits), and is unsettled.
    get = qubits.get
    open_ = [
        not (switch and get(node_id, 0) < 2)
        for node_id, switch in zip(ids, is_switch)
    ]
    size = len(ids)
    best = [math.inf] * size
    parent = [-1] * size
    slot = [-1] * size  # position in the heap; -1 before the first push
    order = [start]  # first-relaxation order, the order of dist and prev
    best[start] = 0.0
    # Indexed binary min-heap, inlined on int lists; it breaks equal-key
    # ties exactly as repro.utils.heap.IndexedMinHeap does.
    keys = [0.0]
    items = [start]
    slot[start] = 0
    edges_scanned = 0
    relaxations = 0

    while items:
        node = items[0]
        node_dist = keys[0]
        last = items.pop()
        last_key = keys.pop()
        count = len(items)
        if count:
            index = 0
            child = 1
            while child < count:
                right = child + 1
                if right < count and keys[right] < keys[child]:
                    child = right
                if keys[child] >= last_key:
                    break
                keys[index] = keys[child]
                moved = items[index] = items[child]
                slot[moved] = index
                index = child
                child = 2 * index + 1
            keys[index] = last_key
            items[index] = last
            slot[last] = index
        open_[node] = False
        # Only the source and capable switches relay onward; an entered
        # switch already holds >= 2 residual qubits.
        if node == start:
            base = node_dist
        elif is_switch[node] and can_swap:
            if swap_cost is None:
                base = node_dist + minus_ln_q
            else:
                base = node_dist + swap_cost[node]
        else:
            continue
        row = rows[node]
        edges_scanned += len(row)
        for neighbor, length, key in row:
            if not open_[neighbor]:
                continue
            if forbidden_fibers and key in forbidden_fibers:
                continue
            candidate = base + alpha * length
            if candidate < best[neighbor]:
                best[neighbor] = candidate
                parent[neighbor] = node
                relaxations += 1
                index = slot[neighbor]
                if index < 0:
                    order.append(neighbor)
                    index = len(items)
                    items.append(neighbor)
                    keys.append(candidate)
                while index:
                    up = (index - 1) >> 1
                    if candidate >= keys[up]:
                        break
                    keys[index] = keys[up]
                    moved = items[index] = items[up]
                    slot[moved] = index
                    index = up
                keys[index] = candidate
                items[index] = neighbor
                slot[neighbor] = index

    dist = {ids[i]: best[i] for i in order}
    prev = {ids[i]: ids[parent[i]] for i in order[1:]}
    metrics = obs_metrics.active()
    if metrics is not None:
        metrics.inc("core.dijkstra.calls")
        metrics.inc("core.dijkstra.heap_pops", len(order))
        metrics.inc("core.dijkstra.edges_scanned", edges_scanned)
        metrics.inc("core.dijkstra.relaxations", relaxations)
        metrics.inc("core.dijkstra.nodes_settled", len(order))
    if cache is not None:
        cache.put(cache_key, (dist, prev))
    return dist, prev


def trace_path(
    prev: Dict[Hashable, Hashable], source: Hashable, target: Hashable
) -> Tuple[Hashable, ...]:
    """Recover the source→target path from :func:`dijkstra`'s ``prev``.

    Raises ``KeyError`` when *target* was unreachable (absent from the
    predecessor map); callers are expected to test membership in the
    returned ``dist`` first, as the channel helpers here do.
    """
    path: List[Hashable] = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return tuple(path)


#: Deprecated pre-1.1 private names, kept as importable aliases.
_DEPRECATED_ALIASES = {"_dijkstra": dijkstra, "_trace_path": trace_path}


def __getattr__(name: str):
    if name in _DEPRECATED_ALIASES:
        warnings.warn(
            f"repro.core.channel.{name} is deprecated; use the public "
            f"repro.core.channel.{name.lstrip('_')} instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return _DEPRECATED_ALIASES[name]
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


def find_best_channel(
    network: QuantumNetwork,
    source: Hashable,
    target: Hashable,
    residual: Optional[Dict[Hashable, int]] = None,
    forbidden_fibers: Optional[Set[Tuple[Hashable, Hashable]]] = None,
) -> Optional[Channel]:
    """Algorithm 1: best channel between users *source* and *target*.

    Args:
        network: The quantum network.
        source, target: Distinct quantum-user ids.
        residual: Optional remaining-qubit map per switch (defaults to
            each switch's full budget); switches below 2 qubits are
            skipped, as in line 11 of Algorithm 1.
        forbidden_fibers: Optional set of fiber keys the channel must not
            use (supports the edge-removal study and ablations).

    Returns:
        The maximum-rate :class:`Channel`, or ``None`` when no feasible
        channel exists ("No valid channel", line 19).
    """
    if source == target:
        raise ValueError("source and target must differ")
    if not network.is_user(target):
        raise ValueError(f"target {target!r} must be a quantum user")
    metrics = obs_metrics.active()
    if metrics is not None:
        metrics.inc("core.channel_search.pair_calls")
    dist, prev = dijkstra(network, source, residual, forbidden_fibers)
    if target not in dist:
        return None
    return Channel.from_path(network, trace_path(prev, source, target))


def best_channels_from(
    network: QuantumNetwork,
    source: Hashable,
    targets: Iterable[Hashable],
    residual: Optional[Dict[Hashable, int]] = None,
) -> Dict[Hashable, Channel]:
    """Best channels from *source* to every reachable user in *targets*.

    One Dijkstra run serves all destinations (the paper's complexity
    optimization).  Unreachable targets are absent from the result.
    """
    target_list = list(targets)
    for target in target_list:
        if not network.is_user(target):
            raise ValueError(f"target {target!r} must be a quantum user")
    dist, prev = dijkstra(network, source, residual)
    channels: Dict[Hashable, Channel] = {}
    for target in target_list:
        if target == source or target not in dist:
            continue
        channels[target] = Channel.from_path(
            network, trace_path(prev, source, target)
        )
    metrics = obs_metrics.active()
    if metrics is not None:
        metrics.inc("core.channel_search.single_source_calls")
        metrics.inc("core.channel_search.channels_found", len(channels))
    return channels


class RoundSearches:
    """One solve's :func:`best_channels_from` results, reused across rounds.

    Algorithm 4, Algorithm 3's phase 2, the N-FUSION star and the repair
    loops all run rounds of "search from each source, take the best
    channel, reserve it".  The search reads *residual* only through the
    "≥ 2 free qubits" relay test, so until a reservation takes some
    switch below :data:`~repro.core.ledger.QUBITS_PER_CHANNEL` free
    qubits a source's search returns the same channels in the same
    order — the argument that makes the channel cache's blocked-set key
    exact.  :meth:`channels_from` therefore searches a source once and
    answers later rounds from the stored channels; :meth:`reserved`
    drops every stored search once a reservation blocks a switch.

    *search* is the caller's ``best_channels_from`` binding, so a
    patched or wrapped module attribute still sees every search.  The
    stored searches live as long as the object, one solve call.
    """

    __slots__ = ("_search", "_network", "_residual", "_found")

    def __init__(
        self,
        search: Callable[..., Dict[Hashable, Channel]],
        network: QuantumNetwork,
        residual: Dict[Hashable, int],
    ) -> None:
        self._search = search
        self._network = network
        self._residual = residual
        # source -> (targets searched, channels found for them)
        self._found: Dict[
            Hashable, Tuple[FrozenSet[Hashable], Dict[Hashable, Channel]]
        ] = {}

    def channels_from(
        self, source: Hashable, targets: Iterable[Hashable]
    ) -> Dict[Hashable, Channel]:
        """What ``search(network, source, targets, residual)`` returns now.

        Served from the stored search when the blocked set has not
        changed since and *targets* lies within the targets searched
        then; the result keeps *targets*' order either way.
        """
        target_list = list(targets)
        stored = self._found.get(source)
        if stored is not None and stored[0].issuperset(target_list):
            channels = stored[1]
            return {t: channels[t] for t in target_list if t in channels}
        channels = self._search(
            self._network, source, target_list, self._residual
        )
        self._found[source] = (frozenset(target_list), channels)
        return channels

    def reserved(self, channel: Channel) -> None:
        """Note that *channel*'s qubits were just taken from *residual*.

        Only its transit switches lost qubits, so the blocked set can
        have changed only if one of them is now below the threshold.
        """
        get = self._residual.get
        if any(get(s, 0) < QUBITS_PER_CHANNEL for s in channel.switches):
            self._found.clear()


def all_pairs_best_channels(
    network: QuantumNetwork,
    users: List[Hashable],
    residual: Optional[Dict[Hashable, int]] = None,
) -> Dict[frozenset, Channel]:
    """Best channel for every unordered user pair (step 1 of Algorithm 2).

    Pairs with no feasible channel are absent.  Runs ``|U| - 1``
    single-source searches instead of ``O(|U|²)`` pairwise ones.
    """
    channels: Dict[frozenset, Channel] = {}
    for index, source in enumerate(users[:-1]):
        found = best_channels_from(
            network, source, users[index + 1 :], residual
        )
        for target, channel in found.items():
            channels[frozenset((source, target))] = channel
    return channels
