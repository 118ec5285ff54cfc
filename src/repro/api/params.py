"""The parameter table — which knobs a request may carry.

A request names a workload and a stage and carries three kinds of
parameter, each declared exactly once: the workload's **registered
parameters** (the :class:`~repro.api.registry.Param` rows of
``spec.params``), the stage's **options** (:data:`STAGE_OPTIONS`, the
keyword arguments of the ``WorkloadHandle`` stage of that name) and
the **session fields** (:data:`SESSION_FIELDS`).

Every surface derives from those rows: :func:`add_arguments` turns
them into a CLI command's flags, :func:`resolve` types a raw request
(CLI strings, query strings and JSON body values alike) before the
service fingerprints it, and :func:`invoke` runs the stage.  So
registering a workload is all it takes for its parameters to appear as
flags, query keys and ``sess.workload`` keywords, and an unknown or
ill-typed value reads the same on each.
"""

from __future__ import annotations

import argparse
from typing import Any, Mapping, NamedTuple

from ..defaults import ADAPT_MODES
from ..machine.cost_model import PRESETS
from .config import BACKEND_NAMES, SessionConfig
from .registry import REGISTRY, Param, WorkloadSpec

__all__ = [
    "WORKLOAD", "SESSION_FIELDS", "STAGE_OPTIONS", "Request", "accepted_names",
    "add_arguments", "supplied", "resolve", "invoke",
]

#: the one key every request carries beside its table rows
WORKLOAD = Param(str, help="a registered workload (see /workloads)")

#: the :class:`SessionConfig` fields a request may set, defaulting to
#: the config's own (``backend`` only where a stage's row lists it)
SESSION_FIELDS: dict[str, Param] = {
    "nprocs": Param(int, SessionConfig.nprocs, "processor count"),
    "cost_model": Param(
        str, SessionConfig.cost_model, "machine cost model", tuple(PRESETS)),
    "seed": Param(int, SessionConfig.seed, "RNG seed of the workload"),
    "backend": Param(
        str, SessionConfig.backend,
        "SPMD execution backend (default: in-process serial)", BACKEND_NAMES),
}

#: per stage, the options ``handle.<stage>()`` takes
STAGE_OPTIONS: dict[str, dict[str, Param]] = {
    "plan": {
        "cost_mode": Param(
            str, "model",
            "pricing semantics: closed-form aggregates or the discrete-"
            "event simulator's split-phase overlap", ("model", "simulated")),
        "method": Param(
            str, "auto", "schedule search (auto: DP unless the lattice "
            "is large)", ("auto", "dp", "greedy")),
    },
    "run": {"backend": SESSION_FIELDS["backend"]},
    "trace": {
        "overlap": Param(
            bool, None, "simulate only split-phase (true) or only "
            "blocking (false) semantics; default both"),
        "compact": Param(
            bool, False, "JSON: metrics only, no interval lists"),
    },
    "bench": {
        "backend": SESSION_FIELDS["backend"],
        "repeats": Param(int, 3, "independent wall-clock repetitions"),
    },
    "adapt": {
        "mode": Param(str, "adaptive", "layout policy", ADAPT_MODES),
        "window": Param(
            int, None, "steps per monitoring window (default: the "
            "workload's natural phase length)"),
    },
}


#: per stage (``None``: a command that runs any stage), the session
#: fields and stage options a request may carry
_FIELDS: dict[str | None, dict[str, Param]] = {
    stage: {
        **{k: v for k, v in SESSION_FIELDS.items() if k != "backend"},
        **options,
    }
    for stage, options in {None: {}, **STAGE_OPTIONS}.items()
}


def accepted_names(spec: WorkloadSpec, stage: str | None) -> set[str]:
    """Every parameter name a ``stage`` request on ``spec`` may carry."""
    return set(_FIELDS[stage]) | set(spec.params)


class Request(NamedTuple):
    """One typed request.  ``params`` is the workload's full parameter
    set; ``options`` holds only the stage options that were supplied
    (the handle owns their defaults), as the fingerprint always has."""

    nprocs: int
    cost_model: str
    backend: str | None
    seed: int
    params: dict
    options: dict


def resolve(
    spec: WorkloadSpec, stage: str | None, raw: Mapping[str, Any]
) -> Request:
    """Type a raw request (name -> CLI/query string or JSON value)
    against the table: an ill-typed value is a ``ValueError``, a name
    that is neither a session field, an option of ``stage`` nor a
    parameter of ``spec`` a ``TypeError``; an absent session field
    takes its row's default."""
    raw = dict(raw)
    fields = _FIELDS[stage]
    typed = {
        name: row.coerce(raw.pop(name), name, spec.name)
        for name, row in fields.items() if name in raw
    }
    session = {
        name: typed.pop(name, SESSION_FIELDS[name].default)
        for name in ("nprocs", "cost_model", "seed")
    }
    return Request(
        **session, backend=typed.get("backend"),
        params=spec.resolve_params(raw, also=fields), options=typed,
    )


def invoke(handle, stage: str, options: Mapping[str, Any]):
    """Run ``stage`` on ``handle`` with typed ``options``; the result's
    ``json_str()`` is the body every surface emits.  (``backend`` is a
    session field: the handle's session already carries it.)"""
    kwargs = {k: v for k, v in options.items() if k not in SESSION_FIELDS}
    return getattr(handle, stage)(**kwargs)


#: argparse ``dest`` prefix of the table's flags: they cannot collide
#: with a command's own attributes, and :func:`supplied` finds them
_DEST = "table:"


def add_arguments(parser: argparse.ArgumentParser, stage: str | None) -> None:
    """Add every table row a ``stage`` command accepts as a ``--flag``:
    the session fields and stage options with their choices, then the
    union of the registry's workload parameters (the command reports,
    and does not forward, one the named workload does not declare).
    Values stay raw strings for :func:`resolve`, so the CLI's errors
    are the service's.  Call this after the command's own flags: on a
    name clash (``obs --kind``) those win."""
    fields = _FIELDS[stage]
    rows = [(name, row.help, row) for name, row in fields.items()]
    notes: dict[str, list[str]] = {}
    for spec in REGISTRY:
        for name, row in spec.params.items():
            notes.setdefault(name, []).append(
                f"{spec.name}: {row.help or row.type.__name__}")
    rows += [
        (name, "; ".join(lines), Param(str))
        for name, lines in notes.items() if name not in fields
    ]
    for name, text, row in rows:
        if row.type is bool and row.default is False:
            kind = {"action": "store_const", "const": "true"}  # a switch
        elif row.type is bool or row.choices:
            kind = {"choices": row.choices or ("true", "false")}
        else:
            kind = {"metavar": name.upper()}
        try:
            parser.add_argument(
                "--" + name.replace("_", "-"), dest=_DEST + name,
                default=argparse.SUPPRESS, help=text, **kind,
            )
        except argparse.ArgumentError:
            pass  # the command already owns a flag of this name


def supplied(args: argparse.Namespace) -> dict[str, str]:
    """The table flags a parsed command line actually carried."""
    return {
        dest[len(_DEST):]: value for dest, value in vars(args).items()
        if dest.startswith(_DEST)
    }
