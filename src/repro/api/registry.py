"""The workload registry — the one name -> workload table.

A :class:`WorkloadSpec` is everything the system knows about a
workload; the session, the CLI, the service, the planner front end and
the adaptive controller all read it from here and name no workload
themselves.  A spec packages —

- a **runner** (``fn(ctx) -> ExecutionOutcome``): execute the workload
  on ``ctx.machine`` with ``ctx.seed`` and ``ctx.params``;
- an optional **machine factory** (the default is a 1-D processor
  array of ``ctx.nprocs``);
- an optional **planning problem** factory for ``handle.plan()``;
- an optional **adaptive model** factory for ``handle.adapt()``: the
  workload's step-and-rebalance physics, driven by the
  workload-agnostic :class:`~repro.adapt.AdaptiveController` (see
  :mod:`repro.adapt.controller` for the model contract);

and :func:`register_workload` wires it into the global registry.
Adding a scenario is one decorator::

    from repro.api import ExecutionOutcome, register_workload

    @register_workload("mywork", defaults={"size": 32, "steps": 10})
    def mywork(ctx):
        ...  # build arrays on ctx.machine, run, measure
        return ExecutionOutcome(solution=values, headline={"steps": ...})
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:
    from ..machine.cost_model import CostModel
    from ..machine.machine import Machine

__all__ = [
    "ExecutionOutcome",
    "WorkloadContext",
    "WorkloadSpec",
    "WorkloadRegistry",
    "REGISTRY",
    "register_workload",
    "available_workloads",
]


@dataclass
class ExecutionOutcome:
    """What a workload runner returns.

    ``solution`` is the bitwise-comparison payload (backend
    conformance, determinism); ``headline`` the metrics worth a line in
    the CLI table; ``result`` the app-specific result object, kept for
    callers that want the full record.
    """

    solution: np.ndarray
    headline: dict = field(default_factory=dict)
    result: Any = None


@dataclass
class WorkloadContext:
    """Everything a workload hook may consult, resolved by the session."""

    name: str
    nprocs: int
    cost_model: "CostModel"
    seed: int
    params: dict
    #: the machine to run on — built by the spec's machine factory for
    #: execution hooks; ``None`` inside planning and adaptive hooks
    #: (the planner factories and the controller build their own)
    machine: "Machine | None" = None


class WorkloadSpec:
    """One registered workload: runner + optional machine / planning /
    adaptive hooks."""

    def __init__(
        self,
        name: str,
        runner: Callable[[WorkloadContext], ExecutionOutcome],
        defaults: Mapping[str, Any] | None = None,
        description: str = "",
    ):
        self.name = str(name)
        self.defaults: dict[str, Any] = dict(defaults or {})
        self.description = description or (runner.__doc__ or "").strip()
        self._runner = runner
        self._machine: Callable[[WorkloadContext], "Machine"] | None = None
        self._planning: Callable[[WorkloadContext], Any] | None = None
        self._adaptive: Callable[[WorkloadContext], Any] | None = None

    # -- hook decorators ---------------------------------------------------
    def machine_factory(self, fn: Callable) -> Callable:
        """Decorator: override how this workload builds its machine."""
        self._machine = fn
        return fn

    def planning(self, fn: Callable) -> Callable:
        """Decorator: provide the planner problem for ``handle.plan()``."""
        self._planning = fn
        return fn

    def adaptive(self, fn: Callable) -> Callable:
        """Decorator: provide the adaptive model for ``handle.adapt()``
        (and with it the controller, ``/adapt`` and the coverage
        sweep)."""
        self._adaptive = fn
        return fn

    # -- session-facing API --------------------------------------------------
    @property
    def plannable(self) -> bool:
        return self._planning is not None

    @property
    def adaptable(self) -> bool:
        return self._adaptive is not None

    def resolve_params(self, overrides: Mapping[str, Any]) -> dict:
        """Defaults overlaid with ``overrides``; unknown keys rejected."""
        unknown = sorted(set(overrides) - set(self.defaults))
        if unknown:
            raise TypeError(
                f"workload {self.name!r} got unknown parameter(s) "
                f"{unknown} (accepted: {sorted(self.defaults)})"
            )
        params = dict(self.defaults)
        params.update(overrides)
        return params

    def make_machine(self, ctx: WorkloadContext) -> "Machine":
        if self._machine is not None:
            return self._machine(ctx)
        from ..machine.machine import Machine
        from ..machine.topology import ProcessorArray

        return Machine(
            ProcessorArray("P", (ctx.nprocs,)), cost_model=ctx.cost_model
        )

    def execute(self, ctx: WorkloadContext) -> ExecutionOutcome:
        outcome = self._runner(ctx)
        if not isinstance(outcome, ExecutionOutcome):
            raise TypeError(
                f"workload {self.name!r} runner must return an "
                f"ExecutionOutcome, got {type(outcome).__name__}"
            )
        return outcome

    def planning_problem(self, ctx: WorkloadContext):
        if self._planning is None:
            raise ValueError(
                f"workload {self.name!r} has no planning problem "
                f"(register one with @spec.planning)"
            )
        return self._planning(ctx)

    def adaptive_model(self, ctx: WorkloadContext):
        if self._adaptive is None:
            raise ValueError(
                f"workload {self.name!r} has no adaptive driver "
                f"(register one with @spec.adaptive)"
            )
        return self._adaptive(ctx)

    def __repr__(self) -> str:
        bits = [f"defaults={self.defaults}"]
        if self.plannable:
            bits.append("plannable")
        return f"WorkloadSpec({self.name!r}, {', '.join(bits)})"


class WorkloadRegistry:
    """Name -> :class:`WorkloadSpec` mapping with deliberate mutation."""

    def __init__(self) -> None:
        self._specs: dict[str, WorkloadSpec] = {}

    def register(self, spec: WorkloadSpec, replace: bool = False) -> WorkloadSpec:
        if not replace and spec.name in self._specs:
            raise ValueError(
                f"workload {spec.name!r} is already registered "
                f"(pass replace=True to override)"
            )
        self._specs[spec.name] = spec
        return spec

    def unregister(self, name: str) -> None:
        self._specs.pop(name, None)

    def get(self, name: str) -> WorkloadSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"no workload named {name!r} "
                f"(registered: {sorted(self._specs)})"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._specs))

    def plannable_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.names() if self._specs[n].plannable)

    def adaptable_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.names() if self._specs[n].adaptable)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[WorkloadSpec]:
        return iter(self._specs[n] for n in self.names())

    def __len__(self) -> int:
        return len(self._specs)


#: the process-global registry sessions consult by default
REGISTRY = WorkloadRegistry()


def register_workload(
    name: str,
    *,
    defaults: Mapping[str, Any] | None = None,
    description: str = "",
    registry: WorkloadRegistry | None = None,
    replace: bool = False,
) -> Callable[[Callable], WorkloadSpec]:
    """Register a workload runner; returns the :class:`WorkloadSpec`
    (which carries the ``.machine_factory`` / ``.planning`` /
    ``.adaptive`` hook decorators)."""

    def deco(fn: Callable[[WorkloadContext], ExecutionOutcome]) -> WorkloadSpec:
        spec = WorkloadSpec(name, fn, defaults=defaults, description=description)
        target = REGISTRY if registry is None else registry
        return target.register(spec, replace=replace)

    return deco


def available_workloads(registry: WorkloadRegistry | None = None) -> tuple[str, ...]:
    """Sorted names of every registered workload."""
    return (REGISTRY if registry is None else registry).names()
