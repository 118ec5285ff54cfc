"""The Vienna Fortran Engine facade (paper §3.2).

"The run time support required may be described as the Vienna Fortran
Engine (VFE), an abstract machine that executes Vienna Fortran object
programs."  :class:`Engine` is that abstract machine's front door:

- :meth:`declare` — create statically or dynamically distributed
  arrays, with ``RANGE``, initial distributions, and ``CONNECT``
  (extraction or alignment) secondary annotations;
- :meth:`distribute` — the executable DISTRIBUTE statement, §3.2.2:
  evaluate the new distribution, derive every connected array's
  distribution via CONSTRUCT, and COMMUNICATE each member not named in
  NOTRANSFER;
- :meth:`idt` / :meth:`dcase` — run-time distribution queries bound to
  the engine's arrays;
- inspector access and simple SPMD loop helpers for the app kernels.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.alignment import Alignment
from ..core.descriptor import ArrayDescriptor
from ..core.distribution import Distribution, DistributionType
from ..core.dynamic import Aligned, ConnectClass, Connection, DynamicAttr, Extraction
from ..core.index_domain import IndexDomain
from ..core.query import DCase, idt as _idt
from ..machine.machine import Machine
from ..machine.topology import ProcessorArray, ProcessorSection
from .darray import DistributedArray
from .inspector import Inspector
from .redistribute import RedistributionReport, communicate

__all__ = ["Engine"]


class Engine:
    """One Vienna Fortran Engine instance over a simulated machine.

    Parameters
    ----------
    machine:
        The simulated multicomputer to run on.

    DISTRIBUTE data motion and owner-computes kernels execute on the
    machine's backend (:attr:`backend`; see :mod:`repro.backend.base`)
    — attach one to the machine before declaring arrays, or let
    :meth:`repro.api.Session.engine` do it — and every plan is
    memoized on the machine's store (:attr:`plan_cache`, §3.2 run-time
    optimization).
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        self.arrays: dict[str, DistributedArray] = {}
        self._classes: dict[str, ConnectClass] = {}  # primary name -> class
        self.reports: list[RedistributionReport] = []

    @property
    def backend(self):
        """The machine's execution backend."""
        return self.machine.backend

    @property
    def plan_cache(self):
        """The machine's plan store."""
        return self.machine.plans

    # -- declaration (§2.3) ----------------------------------------------
    def declare(
        self,
        name: str,
        shape: Sequence[int] | int,
        dist: DistributionType | Distribution | None = None,
        to: ProcessorSection | ProcessorArray | None = None,
        dynamic: DynamicAttr | bool | None = None,
        connect: tuple[str, Connection | Alignment | str] | None = None,
        dtype: np.dtype | type = np.float64,
    ) -> DistributedArray:
        """Declare an array.

        Parameters mirror the Vienna Fortran annotations:

        - ``dist`` + ``to``: ``DIST (expr) TO section`` — the (initial)
          distribution.  For a static array this is mandatory; for a
          dynamic one it is the optional initial distribution.
        - ``dynamic``: the ``DYNAMIC`` attribute (``True`` for a bare
          one, or a :class:`DynamicAttr` carrying ``RANGE``).
        - ``connect``: secondary annotation ``(primary_name, conn)``
          where ``conn`` is an :class:`Extraction` (or the string
          ``"="``), an :class:`Aligned`, or a bare
          :class:`~repro.core.alignment.Alignment`.  Secondary arrays
          must be dynamic and may not carry their own distribution.
        """
        if name in self.arrays:
            raise ValueError(f"array {name!r} already declared")
        domain = IndexDomain(shape)

        dyn: DynamicAttr | None
        if dynamic is True:
            dyn = DynamicAttr()
        elif dynamic is False:
            dyn = None
        else:
            dyn = dynamic

        connect_class: ConnectClass | None = None
        if connect is not None:
            if dyn is None:
                raise ValueError(
                    f"secondary array {name!r} must be DYNAMIC (§2.3)"
                )
            if dist is not None:
                raise ValueError(
                    f"secondary array {name!r} may not declare its own "
                    f"distribution; it is derived from the primary"
                )
            primary_name, conn = connect
            if primary_name not in self.arrays:
                raise ValueError(f"unknown primary array {primary_name!r}")
            primary = self.arrays[primary_name]
            if not primary.descriptor.is_dynamic:
                raise ValueError(
                    f"primary array {primary_name!r} must be DYNAMIC"
                )
            if isinstance(conn, str):
                if conn.strip() in ("=", f"={primary_name}"):
                    conn = Extraction()
                else:
                    raise ValueError(f"cannot interpret connection {conn!r}")
            elif isinstance(conn, Alignment):
                conn = Aligned(conn)
            if not isinstance(conn, Connection):
                raise TypeError(f"bad connection {conn!r}")
            connect_class = self._class_of_primary(primary_name)
            connect_class.add_secondary(name, domain, conn)

        desc = ArrayDescriptor(name, domain, dynamic=dyn, connect_class=connect_class)
        arr = DistributedArray(desc, self.machine, dtype=dtype)
        self.arrays[name] = arr

        if connect_class is not None:
            # derive the secondary's distribution if the primary has one
            primary_arr = self.arrays[connect_class.primary]
            if primary_arr.descriptor.is_distributed:
                arr.bind(connect_class.derive(name, primary_arr.dist))
            return arr

        if dist is not None:
            # static: invariant association; dynamic: RANGE-checked
            arr.bind(self._bind(domain, dist, to))
        elif dyn is None:
            raise ValueError(
                f"statically distributed array {name!r} needs a distribution"
            )
        elif dyn.initial is not None:
            arr.bind(self._bind(domain, dyn.initial, to))
        return arr

    def _class_of_primary(self, primary_name: str) -> ConnectClass:
        if primary_name not in self._classes:
            self._classes[primary_name] = ConnectClass(
                primary_name, self.arrays[primary_name].descriptor.index_dom
            )
            self.arrays[primary_name].descriptor.connect_class = self._classes[
                primary_name
            ]
        return self._classes[primary_name]

    def _bind(
        self,
        domain: IndexDomain,
        dist: DistributionType | Distribution,
        to: ProcessorSection | ProcessorArray | None,
    ) -> Distribution:
        if isinstance(dist, Distribution):
            if to is not None:
                raise ValueError("give either a bound Distribution or a type + to")
            return dist
        target = to if to is not None else self.machine.full_section()
        return dist.apply(domain, target)

    # -- the DISTRIBUTE statement (§2.4, §3.2.2) ---------------------------
    def distribute(
        self,
        name: str,
        dist: DistributionType | Distribution | Alignment | str,
        to: ProcessorSection | ProcessorArray | None = None,
        notransfer: Sequence[str] = (),
        with_array: str | None = None,
    ) -> list[RedistributionReport]:
        """Execute ``DISTRIBUTE name :: dist [NOTRANSFER (...)]``.

        ``dist`` may be a distribution type (optionally with ``to``),
        a fully bound :class:`Distribution`, the string ``"=OTHER"``
        (distribution extraction from another array), or an
        :class:`~repro.core.alignment.Alignment` together with
        ``with_array`` (alignment form of the distribute statement).

        Applies to *primary* arrays only; secondaries are redistributed
        through their connection, and members named in ``notransfer``
        get descriptor-only updates.  Returns one report per member.
        """
        arr = self._get(name)
        desc = arr.descriptor
        if not desc.is_dynamic:
            raise ValueError(
                f"DISTRIBUTE applies to dynamically distributed arrays; "
                f"{name!r} is static (§2.3)"
            )
        cls = desc.connect_class
        if cls is not None and name != cls.primary:
            raise ValueError(
                f"DISTRIBUTE applies to primary arrays only; {name!r} is a "
                f"secondary of C({cls.primary}) (§2.3 item 3)"
            )
        # Step 0: validate NOTRANSFER ⊆ secondaries of C(B).
        notransfer = tuple(str(n) for n in notransfer)
        secondaries = set(cls.secondaries) if cls is not None else set()
        bad = [n for n in notransfer if n not in secondaries]
        if bad:
            raise ValueError(
                f"NOTRANSFER names must be secondary arrays in C({name}): {bad}"
            )

        # Step 1: evaluate da -> new distribution of B.
        if isinstance(dist, str):
            src = dist.strip()
            if not src.startswith("="):
                raise ValueError(f"cannot interpret distribute target {dist!r}")
            other = self._get(src[1:].strip())
            new_b = Extraction().derive(other.dist, desc.index_dom)
        elif isinstance(dist, Alignment):
            if with_array is None:
                raise ValueError("alignment form needs with_array=<name>")
            other = self._get(with_array)
            new_b = Aligned(dist).derive(other.dist, desc.index_dom)
        else:
            new_b = self._bind(desc.index_dom, dist, to)
        if desc.dynamic is not None:
            desc.dynamic.range.check(new_b.dtype, name)

        # Step 2: determine the distributions of connected arrays.
        plan: list[tuple[DistributedArray, Distribution, bool]] = [
            (arr, new_b, True)
        ]
        if cls is not None:
            for sec in cls.secondaries:
                sec_arr = self._get(sec)
                sec_dist = cls.derive(sec, new_b)
                plan.append((sec_arr, sec_dist, sec not in notransfer))

        # Step 3: COMMUNICATE each member (unless NOTRANSFER / first dist).
        reports = []
        for member, new_dist, transfer in plan:
            if not member.descriptor.is_distributed:
                member.bind(new_dist)
                reports.append(RedistributionReport(
                    member.name, 0, 0, 0, member.size, 0.0,
                    backend=self.machine.backend.name,
                ))
                continue
            reports.append(communicate(member, new_dist, transfer=transfer))
        self.reports.extend(reports)
        return reports

    def ensure_dist(
        self,
        name: str,
        dist: DistributionType | Distribution,
        to: ProcessorSection | ProcessorArray | None = None,
    ) -> list[RedistributionReport]:
        """Redistribute ``name`` to ``dist`` only if it differs.

        The execution primitive of planner-lowered schedules: a
        schedule assigns a layout to every phase, and most consecutive
        phases share one; this makes re-asserting the current layout
        free (no DISTRIBUTE, no reports) instead of a full
        re-COMMUNICATE.
        """
        arr = self._get(name)
        bound = self._bind(arr.descriptor.index_dom, dist, to)
        if arr.descriptor.is_distributed and arr.dist == bound:
            return []
        return self.distribute(name, bound)

    # -- queries (§2.5) -------------------------------------------------------
    def idt(
        self,
        name: str,
        pattern: object,
        section: ProcessorSection | ProcessorArray | None = None,
    ) -> bool:
        """The IDT intrinsic over a declared array."""
        return _idt(self._get(name).dist, pattern, section)

    def dcase(self, *selector_names: str) -> DCase:
        """Open a DCASE over the named selector arrays.

        "At the time of execution of the dcase construct, each selector
        must be allocated and associated with a well-defined
        distribution" — enforced by the descriptor access.
        """
        return DCase([(n, self._get(n).dist) for n in selector_names])

    # -- helpers ----------------------------------------------------------------
    def record_events(self, log=None):
        """Record typed execution events for the discrete-event
        simulator (context manager yielding the log).

        Everything this engine — and any attached SPMD backend —
        charges to the machine network while the context is open
        (kernels, sends/recvs, exchange phases, barriers,
        redistribution transfers) lands in the log in program order;
        replay it with :func:`repro.sim.simulate`::

            with vfe.record_events() as log:
                ...   # declare / distribute / kernels
            timeline = simulate(log, machine.cost_model, machine.nprocs)
        """
        from ..sim.events import record

        return record(self.machine, log)

    def inspector(self, name: str) -> Inspector:
        return Inspector(self._get(name))

    def foreach_owned(
        self,
        name: str,
        func: Callable[[int, np.ndarray, tuple[np.ndarray, ...]], None],
        flops_per_element: float = 0.0,
    ) -> None:
        """Owner-computes loop: run ``func(rank, local, global_indices)``
        on every owning processor, charging local compute time.

        The machine's backend executes the loop: on the multiprocess
        backend a picklable ``func`` runs in the worker processes (one
        per owning rank, against the shared-memory segment) and
        anything unpicklable in the master — contents are identical
        either way, only the executing process differs.
        """
        arr = self._get(name)
        self.machine.backend.run_kernel(arr, func)
        if flops_per_element:
            for rank in arr.owning_ranks():
                self.machine.network.compute(
                    rank, flops_per_element * arr.dist.local_size(rank),
                    tag=f"kernel:{name}",
                )

    def connect_class_of(self, name: str) -> ConnectClass | None:
        return self._get(name).descriptor.connect_class

    def redistribution_summary(self) -> str:
        """Multi-line summary of every redistribution this engine ran,
        plus the plan cache's cumulative hit/miss statistics."""
        lines = [r.summary() for r in self.reports]
        s = self.plan_cache.stats()
        lines.append(
            f"plan cache: {s['hits']} hits / {s['misses']} misses "
            f"({s['plans']} plans resident)"
        )
        return "\n".join(lines)

    def _get(self, name: str) -> DistributedArray:
        try:
            return self.arrays[name]
        except KeyError:
            raise KeyError(f"no array named {name!r} declared") from None

    def __repr__(self) -> str:
        return f"Engine({self.machine!r}, arrays={list(self.arrays)})"
