"""Incremental re-solve engine: delta-aware routing for the hot path.

See docs/INCREMENTAL.md for the event taxonomy, the splice-vs-escalate
decision table, cache hygiene, and the metric catalog.
"""

from repro.incremental.delta import (
    DeltaBus,
    GraphDelta,
    active,
    disable,
    enable,
    region_of,
    tracking,
)
from repro.incremental.engine import EventOutcome, IncrementalRouter
from repro.incremental.events import DeltaEvent, DeltaKind
from repro.incremental.tree import (
    DISJOINT,
    REPLACEABLE,
    STRUCTURAL,
    broken_channels,
    classify_break,
    splice_solution,
)

__all__ = [
    "DeltaBus",
    "DeltaEvent",
    "DeltaKind",
    "EventOutcome",
    "GraphDelta",
    "IncrementalRouter",
    "DISJOINT",
    "REPLACEABLE",
    "STRUCTURAL",
    "active",
    "broken_channels",
    "classify_break",
    "disable",
    "enable",
    "region_of",
    "splice_solution",
    "tracking",
]
