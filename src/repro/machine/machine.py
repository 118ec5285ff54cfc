"""The simulated distributed-memory machine.

A :class:`Machine` bundles a processor topology, one
:class:`~repro.machine.memory.LocalMemory` per processor, and a
cost-accounting :class:`~repro.machine.network.Network`.  It is the
substrate every higher layer runs on: the Vienna Fortran Engine
allocates array segments in local memories and routes redistribution
traffic through the network, so the benches can read message counts,
volumes and modeled times straight off the machine.

The paper's target platforms (Intel iPSC hypercubes, §5) are captured
by the :mod:`~repro.machine.cost_model` presets.
"""

from __future__ import annotations

from typing import Sequence

from ..backend.base import SERIAL
from ..backend.plan import PlanCache
from .cost_model import CostModel, ZERO_COST
from .memory import LocalMemory
from .network import Network, NetworkStats
from .topology import ProcessorArray, ProcessorSection

__all__ = ["Machine"]


class Machine:
    """A simulated multicomputer.

    Parameters
    ----------
    processors:
        Either a :class:`ProcessorArray` or a shape tuple (in which
        case a processor array named ``"P"`` is created).
    cost_model:
        Network/computation cost model; defaults to free communication
        (message *counts* are still recorded).
    memory_capacity:
        Optional per-processor byte limit.
    trace:
        Record every message (see :class:`~repro.machine.network.Network`).
    """

    def __init__(
        self,
        processors: ProcessorArray | Sequence[int] | int,
        cost_model: CostModel = ZERO_COST,
        memory_capacity: int | None = None,
        trace: bool = False,
    ):
        if not isinstance(processors, ProcessorArray):
            processors = ProcessorArray("P", processors)
        self.processors = processors
        self.network = Network(processors.size, cost_model, trace=trace)
        self.memories = [
            LocalMemory(rank, capacity=memory_capacity) for rank in processors.ranks()
        ]
        #: the backend that executes this machine's bulk ops (see
        #: :mod:`repro.backend.base`): the serial default until another
        #: one attaches, and again after it closes
        self.backend = SERIAL
        #: the store every plan lookup on this machine reaches (DISTRIBUTE,
        #: halo shifts, line sweeps, the planner's transfer matrices);
        #: assign another to share it, as a session does
        self.plans = PlanCache()

    # -- convenience ------------------------------------------------------
    @property
    def nprocs(self) -> int:
        """Number of processors ($NP intrinsic of Vienna Fortran, §4)."""
        return self.processors.size

    @property
    def cost_model(self) -> CostModel:
        return self.network.cost_model

    def memory(self, rank: int) -> LocalMemory:
        return self.memories[rank]

    def full_section(self) -> ProcessorSection:
        return self.processors.full_section()

    # -- accounting -------------------------------------------------------
    def stats(self) -> NetworkStats:
        return self.network.stats()

    @property
    def time(self) -> float:
        return self.network.time

    def total_memory_used(self) -> int:
        return sum(m.used for m in self.memories)

    def max_memory_used(self) -> int:
        return max(m.used for m in self.memories)

    def reset_network(self) -> None:
        """Zero communication counters (keeps memory contents)."""
        self.network.reset()

    # -- backend integration ----------------------------------------------
    def set_segment_allocator(self, allocator) -> None:
        """Install (or, with ``None``, remove) a segment allocator on
        every local memory — how an execution backend makes array
        segments visible to its worker processes."""
        for mem in self.memories:
            mem.allocator = allocator

    def __repr__(self) -> str:
        return (
            f"Machine({self.processors!r}, cost_model={self.cost_model.name!r}, "
            f"nprocs={self.nprocs})"
        )
