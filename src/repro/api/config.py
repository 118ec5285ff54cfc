"""Session configuration — the one place run parameters live.

Every knob the public surface used to take piecemeal (``Machine`` +
``Engine`` + ``backend=`` + ``seed=`` + an event recorder wired by
hand) is a field of :class:`SessionConfig`; a :class:`~repro.api.Session`
is constructed from one config and threads it everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..backend.base import Backend
from ..defaults import DEFAULT_SEED
from ..machine.cost_model import CostModel, PRESETS

__all__ = [
    "DEFAULT_SEED",
    "SessionConfig",
    "resolve_cost_model",
    "BACKEND_NAMES",
]

#: backend specs a session accepts by name
BACKEND_NAMES = ("serial", "multiprocess")


def resolve_cost_model(spec: CostModel | str) -> CostModel:
    """Turn a cost-model spec (instance or preset name) into a model."""
    if isinstance(spec, CostModel):
        return spec
    try:
        return PRESETS[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown cost model {spec!r} "
            f"(expected a CostModel or one of {sorted(PRESETS)})"
        ) from None


@dataclass(frozen=True)
class SessionConfig:
    """Everything a :class:`~repro.api.Session` needs, in one value.

    Two sessions constructed from equal configs produce bitwise-equal
    results on every registered workload (the determinism guarantee
    the test suite pins).
    """

    #: processor count of machines the session builds
    nprocs: int = 4
    #: machine cost model — a :class:`CostModel` or a preset name
    #: (``"iPSC/860"``, ``"Paragon"``, ``"modern"``, ``"zero"``)
    cost_model: CostModel | str = "Paragon"
    #: execution backend — ``None`` or ``"serial"`` (the serial backend
    #: every machine starts on), ``"multiprocess"``, or a
    #: :class:`Backend` *subclass* constructed fresh per run (instances
    #: are rejected: a backend binds to one machine, and the session
    #: builds a machine per run)
    backend: str | type | None = None
    #: record typed events on every ``.run()`` (``.trace()`` always does)
    record_events: bool = False
    #: the RNG seed threaded to every workload (overridable per handle)
    seed: int = DEFAULT_SEED

    def validate(self) -> "SessionConfig":
        """Check the config; returns self so it chains."""
        if int(self.nprocs) < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        resolve_cost_model(self.cost_model)
        b = self.backend
        if b is None or (isinstance(b, str) and b in BACKEND_NAMES):
            pass
        elif isinstance(b, type) and issubclass(b, Backend):
            pass
        elif isinstance(b, Backend):
            raise ValueError(
                "SessionConfig.backend must be a name or a Backend "
                "subclass, not an instance: a backend binds to one "
                "machine and the session builds a fresh machine per "
                "run (pass type(backend) or its name instead)"
            )
        else:
            raise ValueError(
                f"unknown backend {b!r} (expected None, one of "
                f"{BACKEND_NAMES}, or a Backend subclass)"
            )
        return self

    @property
    def backend_name(self) -> str:
        """The backend's display name (``"serial"`` for ``None``)."""
        b = self.backend
        if b is None:
            return "serial"
        if isinstance(b, str):
            return b
        return getattr(b, "name", b.__name__)

    def resolved_cost_model(self) -> CostModel:
        return resolve_cost_model(self.cost_model)

    def with_(self, **changes) -> "SessionConfig":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return replace(self, **changes)

    def to_json(self) -> dict:
        return {
            "nprocs": int(self.nprocs),
            "cost_model": self.resolved_cost_model().name,
            "backend": self.backend_name if self.backend is not None else None,
            "record_events": bool(self.record_events),
            "seed": int(self.seed),
        }

