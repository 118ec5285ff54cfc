"""Pluggable SPMD execution backends (the real-execution tier).

The paper's Vienna Fortran Engine is "an abstract machine that
executes Vienna Fortran object programs" SPMD on distributed
hardware.  This subpackage gives the reproduction that execution
path:

- :mod:`~repro.backend.base` — the seam itself: which bulk ops a
  backend executes, what the master accounts for each, and the
  in-process :class:`~repro.backend.base.SerialBackend` every machine
  starts on (bitwise ground truth);
- :class:`~repro.backend.multiprocess.MultiprocessBackend` — one
  worker process per simulated processor, local segments in
  ``multiprocessing.shared_memory``, an explicit message-passing
  :class:`~repro.backend.transport.Transport`;
- :mod:`~repro.backend.calibrate` — microbenchmarks the transport and
  fits real alpha/beta/flop-rate constants into a
  :class:`~repro.machine.measured.MeasuredMachine`, so the planner
  schedules against *measured* rather than assumed costs.

Attach a backend through the session facade::

    import repro

    with repro.session(nprocs=4, backend="multiprocess") as sess:
        vfe = sess.engine()
        ...  # DISTRIBUTE / kernels now execute in worker processes
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".": ("calibrate",),
    "base": (
        "Backend", "BackendError", "SerialBackend", "attached_backend",
        "resolve_backend",
    ),
    "calibrate": ("fit_alpha_beta", "measured_machine"),
    "multiprocess": ("FleetSupervisor", "MultiprocessBackend"),
    "plan": ("shift_plan", "transfer_plan"),
    "shm": ("BlockMeta", "SharedSegmentAllocator"),
    "transport": ("Transport", "TransportBroken", "TransportTimeout"),
})
