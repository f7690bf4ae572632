"""Value tracking: renaming, register locations and copy bookkeeping.

The rename stage of the paper's machine keeps, next to the usual map from
architectural to physical registers, the *location* of every value: which
cluster will produce it, and which clusters it has already been copied to.
That information drives both dependence-based steering (``OP`` reads it
through :meth:`~repro.steering.base.SteeringContext.register_location_mask`)
and copy generation (every scheme needs it to know whether a copy µop is
required).

Renaming is modelled precisely enough to be correct under register reuse:
every new definition of an architectural register creates a fresh
:class:`Value` instance; consumers that captured the previous instance keep
waiting for *that* value even after the architectural register is redefined.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class Value:
    """One renamed value (the result of one dynamic µop, or a live-in).

    Attributes
    ----------
    producer:
        The in-flight µop that will produce the value, or ``None`` when the
        value is already architecturally available (live-in or committed).
    ready_mask:
        Bitmask of clusters where the value is available right now.
    copies:
        In-flight copy µops per destination cluster (used to avoid generating
        duplicate copies for the same value and destination).
    home_cluster:
        Cluster where the value is (or will be) produced.
    """

    __slots__ = ("producer", "ready_mask", "copies", "home_cluster")

    def __init__(self, producer: Optional[object], home_cluster: int, ready_mask: int = 0) -> None:
        self.producer = producer
        self.home_cluster = int(home_cluster)
        self.ready_mask = int(ready_mask)
        self.copies: Dict[int, object] = {}

    def is_ready_in(self, cluster: int) -> bool:
        """True when the value is available in ``cluster``."""
        return bool(self.ready_mask & (1 << cluster))

    def mark_ready(self, cluster: int) -> None:
        """Record that the value is now available in ``cluster``."""
        self.ready_mask |= 1 << cluster


class RegisterLocationTable:
    """Map from architectural registers to their current :class:`Value`.

    Parameters
    ----------
    num_registers:
        Size of the architectural register namespace.
    num_clusters:
        Number of physical clusters (width of the location bitmask).

    Live-in values start available in every cluster, modelling a warmed-up
    machine where initial state has long been broadcast.
    """

    def __init__(self, num_registers: int, num_clusters: int) -> None:
        if num_registers < 1 or num_clusters < 1:
            raise ValueError("num_registers and num_clusters must be positive")
        self.num_registers = int(num_registers)
        self.num_clusters = int(num_clusters)
        every_cluster = (1 << num_clusters) - 1
        self._values: List[Value] = [
            Value(producer=None, home_cluster=0, ready_mask=every_cluster)
            for _ in range(self.num_registers)
        ]

    # -- steering-visible view -----------------------------------------------------
    def location_mask(self, reg: int) -> int:
        """Bitmask of clusters holding or about to produce register ``reg``.

        This is the information the dependence-check table of a hardware-only
        steering unit provides: the home cluster of the pending producer plus
        every cluster the value has already been copied to.
        """
        value = self._values[reg]
        return value.ready_mask | (1 << value.home_cluster)

    # -- rename operations -----------------------------------------------------------
    def current(self, reg: int) -> Value:
        """The value currently bound to architectural register ``reg``."""
        return self._values[reg]

    def define(self, reg: int, producer: object, cluster: int) -> Value:
        """Bind ``reg`` to a new value produced by ``producer`` in ``cluster``."""
        if not 0 <= cluster < self.num_clusters:
            raise ValueError(f"cluster {cluster} out of range")
        value = Value(producer=producer, home_cluster=cluster)
        self._values[reg] = value
        return value
