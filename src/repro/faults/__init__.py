"""repro.faults — deterministic fault injection and recovery primitives.

The injection half is :mod:`repro.faults.plan`: a seedable
:class:`FaultPlan` of worker crashes, kernel stalls, transport
delays/drops, shm allocation failures, and HTTP request faults,
activated process-wide (off by default) and consulted by the backend,
transport, allocator, and serving tiers.  The recovery half lives
where the failures land — :class:`~repro.backend.multiprocess.FleetSupervisor`
restarts worker fleets, :mod:`repro.api.handles` degrades to the
serial backend, :mod:`repro.serve.service` sheds load through the
:class:`CircuitBreaker` defined here.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "breaker": ("CircuitBreaker",),
    "plan": (
        "FAULT_PLAN_SCHEMA", "FaultPlan", "KernelStall", "RequestFault",
        "ShmAllocFailure", "TransportDelay", "TransportDrop", "WorkerCrash",
        "activate", "active_plan", "deactivate", "injected",
    ),
})
