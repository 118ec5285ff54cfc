"""Vienna Fortran program scopes over the engine.

:class:`VFProgram` is the surface-syntax front end: declaration
statements, executable DISTRIBUTE statements, IDT queries, and DCASE
constructs are given as (nearly) Vienna Fortran text and resolved
against an :class:`~repro.runtime.engine.Engine`.

Scoping rules implemented here (paper §2.3 item 5 and §5):

- each *procedure scope* has its own name space of declared arrays and
  its own connect classes — "the connect relation does not extend
  across procedure boundaries";
- a dynamic array redistributed inside a procedure keeps its new
  distribution when the procedure returns (Vienna Fortran semantics;
  "in contrast to Vienna Fortran, if an array is redistributed in a
  procedure, HPF does not permit the new distribution to be returned" —
  §5).  :class:`~repro.lang.procedures.Procedure` exposes both modes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.alignment import construct
from ..core.dynamic import DynamicAttr, Extraction
from ..core.query import DCase, Range
from ..machine.machine import Machine
from ..machine.topology import ProcessorArray, ProcessorSection
from ..runtime.engine import Engine
from .declarations import Declaration, parse_declaration
from .parser import (
    VFSyntaxError,
    parse_dist_expr,
    parse_pattern,
    parse_section,
)

__all__ = ["VFProgram", "Scope"]


class Scope:
    """One procedure scope: local array names mapped to engine names.

    Engine array names are mangled per scope (``main::V``,
    ``tridiag#1::X``) so that connect classes and declarations never
    leak between procedure activations.
    """

    def __init__(self, program: "VFProgram", name: str):
        self.program = program
        self.name = name
        self.local_names: dict[str, str] = {}  # local -> engine name

    def engine_name(self, local: str) -> str:
        try:
            return self.local_names[local]
        except KeyError:
            raise KeyError(
                f"array {local!r} is not declared in scope {self.name!r}"
            ) from None

    def bind(self, local: str, engine_name: str) -> None:
        if local in self.local_names:
            raise ValueError(f"{local!r} already declared in scope {self.name!r}")
        self.local_names[local] = engine_name


class VFProgram:
    """A Vienna Fortran program instance.

    Parameters
    ----------
    machine:
        The simulated machine to run on.
    env:
        Name bindings for PARAMETER-like constants used in declaration
        and distribution texts (e.g. ``{"N": 100, "NX": 64}``).
    """

    def __init__(self, machine: Machine, env: dict | None = None):
        self.machine = machine
        self.engine = Engine(machine)
        self.env = dict(env or {})
        self.env.setdefault("NP", machine.nprocs)  # the $NP intrinsic (§4)
        self._scopes: list[Scope] = [Scope(self, "main")]
        self._activation = 0

    # -- scope handling ---------------------------------------------------
    @property
    def scope(self) -> Scope:
        return self._scopes[-1]

    def push_scope(self, name: str) -> Scope:
        self._activation += 1
        s = Scope(self, f"{name}#{self._activation}")
        self._scopes.append(s)
        return s

    def pop_scope(self) -> None:
        if len(self._scopes) == 1:
            raise RuntimeError("cannot pop the main scope")
        self._scopes.pop()

    def _mangle(self, local: str) -> str:
        return f"{self.scope.name}::{local}"

    # -- the $NP intrinsic --------------------------------------------------
    @property
    def np_(self) -> int:
        """$NP: the number of executing processors (paper §4 footnote)."""
        return self.machine.nprocs

    # -- declarations ----------------------------------------------------------
    def declare(
        self, line: str, to: ProcessorSection | ProcessorArray | str | None = None
    ):
        """Execute a declaration statement; returns the declared arrays."""
        decl = parse_declaration(line, self.env)
        return self._apply_declaration(decl, to)

    def _resolve_to(
        self,
        to: ProcessorSection | ProcessorArray | str | None,
        decl_to: str | None = None,
    ) -> ProcessorSection | ProcessorArray | None:
        """Resolve a target section: explicit argument wins, then the
        declaration's ``TO`` clause text, parsed against this
        program's processor array."""
        if to is None and decl_to is not None:
            to = decl_to
        if isinstance(to, str):
            return parse_section(to, self.machine.processors, self.env)
        return to

    def _apply_declaration(
        self, decl: Declaration, to: ProcessorSection | ProcessorArray | str | None
    ):
        to = self._resolve_to(to, decl.to)
        arrays = []
        np_dtype = np.float64 if decl.type_name != "INTEGER" else np.int64
        for name, shape in zip(decl.names, decl.shapes):
            ename = self._mangle(name)
            if decl.connect_extraction is not None:
                primary = self.scope.engine_name(decl.connect_extraction)
                arr = self.engine.declare(
                    ename,
                    shape,
                    dynamic=DynamicAttr(
                        range_=Range(decl.range_) if decl.range_ else None
                    ),
                    connect=(primary, Extraction()),
                    dtype=np_dtype,
                )
            elif decl.connect_alignment is not None:
                target_local, alignment = decl.connect_alignment
                primary = self.scope.engine_name(target_local)
                if decl.dynamic:
                    arr = self.engine.declare(
                        ename,
                        shape,
                        dynamic=DynamicAttr(
                            range_=Range(decl.range_) if decl.range_ else None
                        ),
                        connect=(primary, alignment),
                        dtype=np_dtype,
                    )
                else:
                    # static ALIGN (paper Example 1): derive once, no class
                    target_arr = self.engine.arrays[primary]
                    derived = construct(alignment, target_arr.dist, shape)
                    arr = self.engine.declare(
                        ename, shape, dist=derived, dtype=np_dtype
                    )
            elif decl.dynamic:
                arr = self.engine.declare(
                    ename,
                    shape,
                    dynamic=DynamicAttr(
                        range_=Range(decl.range_) if decl.range_ else None,
                        initial=decl.dist,
                    ),
                    to=to,
                    dtype=np_dtype,
                )
            else:
                if decl.dist is None:
                    raise VFSyntaxError(
                        f"static array {name!r} needs a DIST clause", name, 0
                    )
                arr = self.engine.declare(
                    ename, shape, dist=decl.dist, to=to, dtype=np_dtype
                )
            self.scope.bind(name, ename)
            arrays.append(arr)
        return arrays if len(arrays) > 1 else arrays[0]

    # -- executable statements -----------------------------------------------------
    def distribute(
        self,
        names: str | Sequence[str],
        expr: str,
        to: ProcessorSection | ProcessorArray | str | None = None,
        notransfer: Sequence[str] = (),
    ):
        """``DISTRIBUTE B1, B2 :: (expr) [NOTRANSFER (...)]``.

        The paper's Example 3 distributes several primaries in one
        statement; each is redistributed independently (their classes
        stay independent).  Distribution extraction (``"=B1"``) and
        mixed forms like ``"(=B1, CYCLIC(3))"`` are resolved against
        the current scope: extraction *components* copy the referenced
        array's current per-dimension distributions.
        """
        if isinstance(names, str):
            names = [n.strip() for n in names.split(",")]
        expr = expr.strip()
        to = self._resolve_to(to)
        reports = []
        for name in names:
            ename = self.scope.engine_name(name)
            dist_arg = self._resolve_dist_arg(expr)
            reports.extend(
                self.engine.distribute(
                    ename,
                    dist_arg,
                    to=to,
                    notransfer=[self.scope.engine_name(n) for n in notransfer],
                )
            )
        return reports

    def _resolve_dist_arg(self, expr: str):
        """Resolve a distribute-statement RHS, expanding ``=NAME`` parts."""
        if expr.startswith("=") and "(" not in expr:
            return "=" + self.scope.engine_name(expr[1:].strip())
        if "=" in expr:
            # mixed form "(=B1, CYCLIC(3))": splice the referenced
            # array's dimension distributions into the expression.
            import re as _re

            def _sub(m: "_re.Match[str]") -> str:
                ref = self.scope.engine_name(m.group(1))
                dims = self.engine.arrays[ref].dist.dtype.dims
                return ", ".join(repr(d) for d in dims)

            expr = _re.sub(r"=\s*([A-Za-z_][A-Za-z_0-9]*)", _sub, expr)
        return parse_dist_expr(expr, self.env)

    # -- queries ------------------------------------------------------------------
    def idt(self, name: str, pattern: str, section=None) -> bool:
        return self.engine.idt(
            self.scope.engine_name(name), parse_pattern(pattern, self.env), section
        )

    def dcase(self, *names: str) -> DCase:
        """Open a DCASE; query lists given to ``.case`` may be pattern
        *strings* (they are parsed with this program's env)."""
        engine_names = [self.scope.engine_name(n) for n in names]
        selectors = [
            (local, self.engine.arrays[ename].dist)
            for local, ename in zip(names, engine_names)
        ]
        dc = DCase(selectors)
        original_case = dc.case

        def case_with_parsing(queries, action):
            if isinstance(queries, str):
                queries = [queries]
            if isinstance(queries, dict):
                queries = {
                    k: parse_pattern(v, self.env) if isinstance(v, str) else v
                    for k, v in queries.items()
                }
            elif isinstance(queries, (list, tuple)):
                queries = [
                    parse_pattern(q, self.env) if isinstance(q, str) else q
                    for q in queries
                ]
            return original_case(queries, action)

        dc.case = case_with_parsing  # type: ignore[method-assign]
        return dc

    # -- procedures -----------------------------------------------------------
    def procedure(
        self,
        name: str,
        formals: Sequence[tuple[str, str | None]] | Sequence[str],
        body,
        restore: str = "vf",
    ):
        """Define a procedure callable through :meth:`call`.

        ``formals`` is a list of ``(name, dist_expr_or_None)`` pairs
        (or bare names).  ``body(prog, **arrays)`` executes inside a
        fresh scope: the formal names are bound to the actual arrays
        there, any arrays the body declares are local to the call, and
        connect classes never leak (§2.3 item 5).  Entry/return
        distribution semantics follow :class:`~repro.lang.procedures.Procedure`.
        """
        from .procedures import FormalArg, Procedure

        args = []
        for f in formals:
            if isinstance(f, str):
                args.append(FormalArg(f))
            else:
                fname, fdist = f
                args.append(FormalArg(fname, fdist))

        program = self

        def wrapped_body(engine, **arrays):
            scope = program.push_scope(name)
            try:
                for local_name, arr in arrays.items():
                    scope.bind(local_name, arr.name)
                return body(program, **arrays)
            finally:
                program.pop_scope()

        proc = Procedure(name, args, wrapped_body, restore=restore)
        self._procedures = getattr(self, "_procedures", {})
        self._procedures[name] = proc
        return proc

    def call(self, name: str, **actuals_by_formal: str):
        """Call a defined procedure, naming actual arrays of the
        current scope: ``prog.call("TRIDIAG", X="V")``."""
        procedures = getattr(self, "_procedures", {})
        if name not in procedures:
            raise KeyError(f"no procedure named {name!r} defined")
        arrays = {
            formal: self.engine.arrays[self.scope.engine_name(actual)]
            for formal, actual in actuals_by_formal.items()
        }
        return procedures[name](self.engine, env=self.env, **arrays)

    # -- data access -------------------------------------------------------------
    def array(self, name: str):
        """The :class:`~repro.runtime.darray.DistributedArray` for a
        locally declared name."""
        return self.engine.arrays[self.scope.engine_name(name)]

    def __repr__(self) -> str:
        return (
            f"VFProgram(scope={self.scope.name!r}, "
            f"arrays={list(self.scope.local_names)})"
        )
