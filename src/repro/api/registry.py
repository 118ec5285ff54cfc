"""The workload registry — the one name -> workload table.

A :class:`WorkloadSpec` is everything the system knows about a
workload; the session, the CLI, the service, the planner front end and
the adaptive controller all read it from here and name no workload
themselves.  A spec packages —

- a **runner** (``fn(ctx) -> ExecutionOutcome``): execute the workload
  on ``ctx.machine`` with ``ctx.seed`` and ``ctx.params``;
- its **parameter table** (``spec.params``): one typed :class:`Param`
  row per registered default — the only declaration of the name, type,
  default, choices and help that the CLI flags, the service's query
  validation and ``sess.workload(...)`` all read (see
  :mod:`repro.api.params`);
- an optional **machine factory** (the default is a 1-D processor
  array of ``ctx.nprocs``);
- an optional **planning problem** factory for ``handle.plan()``;
- an optional **adaptive model** factory for ``handle.adapt()``: the
  workload's step-and-rebalance physics, driven by the
  workload-agnostic :class:`~repro.adapt.AdaptiveController` (see
  :mod:`repro.adapt.controller` for the model contract);

and :func:`register_workload` wires it into the global registry.
Adding a scenario is one decorator::

    from repro.api import ExecutionOutcome, Param, register_workload

    @register_workload("mywork", defaults={
        "size": 32,                     # shorthand for Param(int, 32)
        "tol": Param(float, None, help="stop early below this residual"),
    })
    def mywork(ctx):
        ...  # build arrays on ctx.machine, run, measure
        return ExecutionOutcome(solution=values, headline={"steps": ...})
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Real
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:
    from ..machine.cost_model import CostModel
    from ..machine.machine import Machine

__all__ = [
    "Param",
    "ExecutionOutcome",
    "WorkloadContext",
    "WorkloadSpec",
    "WorkloadRegistry",
    "REGISTRY",
    "register_workload",
    "available_workloads",
]


@dataclass(frozen=True)
class Param:
    """One row of a parameter table (the row's key there is its name).

    ``type`` is ``int``, ``float``, ``str`` or ``bool``; a ``None``
    default makes the row nullable, which is why it must declare its
    type.  :meth:`coerce` is the one place an incoming value is typed.
    """

    type: type
    default: Any = None
    help: str = ""
    choices: tuple = ()

    def __post_init__(self) -> None:
        if self.type not in (int, float, str, bool):
            raise TypeError(
                f"a parameter is int, float, str or bool, not {self.type!r} "
                f"(a None default declares its type: Param(int, None))"
            )

    def coerce(self, value: Any, name: str, workload: str = "") -> Any:
        """``value`` as this row's type.  It may be a Python or JSON
        value or a CLI/query string spelling one, so ``16``, ``"16"``
        and ``16.0`` are all the int 16; anything else is a
        ``ValueError`` naming the workload, the parameter (this row's
        ``name``), what the row expects and the offending value."""
        v = value
        if isinstance(v, str) and (
            self.type is not str or v[:1] == '"' or v == "null"
        ):  # a string spelling a JSON scalar (a str row's bare word is itself)
            try:
                v = json.loads(v)
            except ValueError:
                pass
        if isinstance(v, Real) and not isinstance(v, bool):
            if self.type is float or (
                self.type is int and float(v).is_integer()
            ):
                v = self.type(v)  # 16.0 -> 16, 1 -> 1.0, numpy -> Python
        if v is None and self.default is None:
            return None
        if type(v) is not self.type or (
            self.choices and v not in self.choices
        ):
            expects = (
                f"one of {self.choices}" if self.choices
                else self.type.__name__
            )
            where = f"workload {workload!r} " if workload else ""
            raise ValueError(
                f"{where}parameter {name!r} expects {expects}, got {value!r}"
            )
        return v


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
        #: the workload's parameter table, in registration order
        self.params: dict[str, Param] = {
            str(k): v if isinstance(v, Param) else Param(type(v), v)
            for k, v in (defaults or {}).items()
        }
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
    def defaults(self) -> dict[str, Any]:
        """``name -> default``, derived from the parameter table."""
        return {name: row.default for name, row in self.params.items()}

    @property
    def plannable(self) -> bool:
        return self._planning is not None

    @property
    def adaptable(self) -> bool:
        return self._adaptive is not None

    def accepted(self, values: Mapping[str, Any]) -> dict:
        """The entries of ``values`` this workload declares — how a
        generic knob set (the CLI's flags, the load test's sizes) is
        narrowed to one workload; callers report what was dropped."""
        return {k: v for k, v in values.items() if k in self.params}

    def resolve_params(
        self, overrides: Mapping[str, Any], also: Iterable[str] = ()
    ) -> dict:
        """Defaults overlaid with ``overrides``, each typed by its row;
        unknown keys and ill-typed values rejected (``also``: names the
        caller accepts beside these, for the message)."""
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            raise TypeError(
                f"workload {self.name!r} got unknown parameter(s) "
                f"{unknown} (accepted: {sorted({*self.params, *also})})"
            )
        params = self.defaults
        for name, value in overrides.items():
            params[name] = self.params[name].coerce(value, name, self.name)
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
