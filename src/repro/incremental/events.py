"""Typed graph-delta events — the vocabulary of the incremental layer.

Every change the online hot path reacts to is one of five events:

* ``FIBER_CUT`` / ``FIBER_RESTORE`` — a fiber leaves / re-enters the
  topology (fault injection, transient flap repair, or a direct
  :meth:`~repro.network.graph.QuantumNetwork.remove_fiber` /
  ``add_fiber`` mutation);
* ``SWITCH_DARK`` / ``SWITCH_RECOVER`` — a switch loses / regains all
  of its incident fibers and its qubits (the dark-node fault model of
  :func:`repro.extensions.recovery.apply_failures`);
* ``CAPACITY_CROSSING`` — a switch's free-qubit count crosses the
  2-qubit relay threshold (Def. 3), flipping its polarity in every
  blocked-switch cache signature without touching the topology.

The first four are **structural**: they change the routing fingerprint
and therefore where channel searches can go.  Capacity crossings are
**residual-only**: the fingerprint is unchanged and only the blocked-set
component of cache keys moves.

Events are frozen, hashable, and carry a canonical target (fiber
endpoint pairs are normalized through
:func:`repro.network.link.fiber_key`), so event streams can be compared,
replayed, and serialized deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Hashable, Optional, Tuple

from repro.network.link import fiber_key

__all__ = ["DeltaKind", "DeltaEvent", "STRUCTURAL_KINDS"]


class DeltaKind(str, Enum):
    """The incremental layer's event taxonomy."""

    FIBER_CUT = "fiber-cut"
    FIBER_RESTORE = "fiber-restore"
    SWITCH_DARK = "switch-dark"
    SWITCH_RECOVER = "switch-recover"
    CAPACITY_CROSSING = "capacity-crossing"


#: Kinds that change the topology (and hence the routing fingerprint).
STRUCTURAL_KINDS = frozenset(
    {
        DeltaKind.FIBER_CUT,
        DeltaKind.FIBER_RESTORE,
        DeltaKind.SWITCH_DARK,
        DeltaKind.SWITCH_RECOVER,
    }
)

_FIBER_KINDS = (DeltaKind.FIBER_CUT, DeltaKind.FIBER_RESTORE)
_SWITCH_KINDS = (DeltaKind.SWITCH_DARK, DeltaKind.SWITCH_RECOVER)


@dataclass(frozen=True)
class DeltaEvent:
    """One typed change to the routing substrate.

    Attributes:
        kind: The event class.
        target: Canonical fiber key for fiber kinds, switch id for
            switch kinds and capacity crossings.
        slot: Optional slot index of the originating fault/mutation
            (informational; never affects routing decisions).
        now_blocked: For ``CAPACITY_CROSSING`` only — the switch's new
            relay polarity (``True`` = below 2 free qubits).
    """

    kind: DeltaKind
    target: Hashable
    slot: Optional[int] = None
    now_blocked: Optional[bool] = None

    def __post_init__(self) -> None:
        kind = DeltaKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in _FIBER_KINDS:
            if not isinstance(self.target, tuple) or len(self.target) != 2:
                raise ValueError(
                    f"{kind.value} needs a (u, v) fiber target, "
                    f"got {self.target!r}"
                )
            object.__setattr__(self, "target", fiber_key(*self.target))
        elif self.target is None:
            raise ValueError(f"{kind.value} needs a node target")
        if kind is DeltaKind.CAPACITY_CROSSING:
            if self.now_blocked is None:
                raise ValueError(
                    "capacity-crossing must carry its new polarity "
                    "(now_blocked)"
                )
        elif self.now_blocked is not None:
            raise ValueError(f"{kind.value} does not take now_blocked")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def fiber_cut(
        cls, u: Hashable, v: Hashable, slot: Optional[int] = None
    ) -> "DeltaEvent":
        return cls(DeltaKind.FIBER_CUT, (u, v), slot=slot)

    @classmethod
    def fiber_restore(
        cls, u: Hashable, v: Hashable, slot: Optional[int] = None
    ) -> "DeltaEvent":
        return cls(DeltaKind.FIBER_RESTORE, (u, v), slot=slot)

    @classmethod
    def switch_dark(
        cls, switch: Hashable, slot: Optional[int] = None
    ) -> "DeltaEvent":
        return cls(DeltaKind.SWITCH_DARK, switch, slot=slot)

    @classmethod
    def switch_recover(
        cls, switch: Hashable, slot: Optional[int] = None
    ) -> "DeltaEvent":
        return cls(DeltaKind.SWITCH_RECOVER, switch, slot=slot)

    @classmethod
    def capacity_crossing(
        cls,
        switch: Hashable,
        now_blocked: bool,
        slot: Optional[int] = None,
    ) -> "DeltaEvent":
        return cls(
            DeltaKind.CAPACITY_CROSSING,
            switch,
            slot=slot,
            now_blocked=bool(now_blocked),
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def structural(self) -> bool:
        """Whether this event changes the routing fingerprint."""
        return self.kind in STRUCTURAL_KINDS

    @property
    def is_fiber(self) -> bool:
        return self.kind in _FIBER_KINDS

    @property
    def is_switch(self) -> bool:
        return self.kind in _SWITCH_KINDS

    def element_nodes(self) -> Tuple[Hashable, ...]:
        """The graph nodes the changed element touches (region seeds)."""
        if self.is_fiber:
            return tuple(self.target)  # type: ignore[arg-type]
        return (self.target,)

    def describe(self) -> str:
        """A stable one-line description (used in logs and the CLI)."""
        where = f" at slot {self.slot}" if self.slot is not None else ""
        if self.kind is DeltaKind.CAPACITY_CROSSING:
            polarity = "blocked" if self.now_blocked else "unblocked"
            return f"{self.kind.value} {self.target!r} -> {polarity}{where}"
        return f"{self.kind.value} {self.target!r}{where}"

    def to_spec(self) -> Dict[str, object]:
        """Declarative dict form (stable across runs; JSON-friendly)."""
        spec: Dict[str, object] = {
            "kind": self.kind.value,
            "target": (
                list(self.target) if self.is_fiber else self.target
            ),
        }
        if self.slot is not None:
            spec["slot"] = self.slot
        if self.now_blocked is not None:
            spec["now_blocked"] = self.now_blocked
        return spec
