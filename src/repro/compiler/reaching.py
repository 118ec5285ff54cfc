"""The reaching-distributions dataflow analysis (§3.1).

"The most important task in the analysis phase is solving the reaching
distribution problem: that is, the compiler must determine the range
of distribution types which may reach a specific array access in the
code, by intra- and inter-procedural analysis. ... We call the set of
all such pairs which is valid for a specific array at a specific
position in the program the set of plausible distributions."

Forward may-analysis over the CFG of each procedure:

- lattice element: ``dict[array -> PlausibleSet]`` (missing = TOP,
  bounded below by declarations/RANGE);
- ``DISTRIBUTE B :: t`` kills B's set and gens ``{t}`` (and likewise
  for the connected secondaries, which share the primary's type under
  distribution extraction);
- joins take per-array unions ("the compiler has to generate code
  which allows for the possibility that several data distributions may
  reach some statements");
- DCASE-arm and IDT-refined edges *narrow* the incoming sets;
- procedure calls are analysed context-sensitively by formal/actual
  renaming (Vienna Fortran returns new distributions to the caller, so
  the callee's exit state flows back); recursion falls back to
  worst-case (RANGE or TOP) for every array the cycle touches.

Results: for every statement id, the state *before* it, from which the
plausible set at each :class:`~repro.compiler.ir.ArrayRef` is read off.
"""

from __future__ import annotations

from .cfg import CFG, build_cfg
from .ir import Assign, Call, DistributeStmt, IRProgram, ProcDef
from .partial_eval import TOP, PlausibleSet

__all__ = ["ReachingDistributions", "AnalysisResult"]

State = dict[str, PlausibleSet]


def _join(a: State, b: State) -> State:
    """Per-array union; an array tracked on only one path keeps that
    path's value (missing simply means not yet mentioned)."""
    out = dict(a)
    for k, v in b.items():
        out[k] = v if k not in out else out[k].union(v)
    return out


def _state_eq(a: State, b: State) -> bool:
    return a.keys() == b.keys() and all(a[k] == b[k] for k in a)


class AnalysisResult:
    """Per-statement plausible-distribution information."""

    def __init__(self) -> None:
        #: state before each statement id
        self.before: dict[int, State] = {}
        #: final state at program exit
        self.exit_state: State = {}

    def plausible(self, sid: int, array: str) -> PlausibleSet:
        """Plausible set of ``array`` just before statement ``sid``."""
        return self.before.get(sid, {}).get(array, TOP)



class ReachingDistributions:
    """Run the analysis over an :class:`~repro.compiler.ir.IRProgram`."""

    def __init__(self, program: IRProgram):
        self.program = program
        self.result = AnalysisResult()
        self._cfg_cache: dict[str, CFG] = {}
        self._call_stack: list[str] = []

    # -- public API --------------------------------------------------------
    def run(self) -> AnalysisResult:
        init: State = {}
        for name, (initial, range_) in self.program.declared.items():
            if initial is not None:
                init[name] = PlausibleSet([initial])
            elif range_ is not None:
                init[name] = PlausibleSet(range_)
            else:
                init[name] = TOP
        entry = self.program.proc(self.program.entry)
        self.result.exit_state = self._analyze_proc(entry, init)
        return self.result

    # -- per-procedure dataflow ------------------------------------------------
    def _cfg_of(self, proc: ProcDef) -> CFG:
        if proc.name not in self._cfg_cache:
            self._cfg_cache[proc.name] = build_cfg(proc.body)
        return self._cfg_cache[proc.name]

    def _worst_case(self, state: State) -> State:
        """Recursion fallback: every array to RANGE or TOP."""
        out: State = {}
        for name in state:
            declared = self.program.declared.get(name)
            if declared is not None and declared[1] is not None:
                out[name] = PlausibleSet(declared[1])
            else:
                out[name] = TOP
        return out

    def _analyze_proc(self, proc: ProcDef, entry_state: State) -> State:
        if proc.name in self._call_stack:
            return self._worst_case(entry_state)
        self._call_stack.append(proc.name)
        try:
            cfg = self._cfg_of(proc)
            node_in: dict[int, State] = {cfg.entry: dict(entry_state)}
            worklist = [cfg.entry]
            node_out: dict[int, State] = {}
            while worklist:
                nid = worklist.pop(0)
                state = dict(node_in.get(nid, {}))
                node = cfg.nodes[nid]
                for stmt in node.stmts:
                    self.result.before[stmt.sid] = dict(state)
                    state = self._transfer(stmt, state)
                if node.branch_stmt is not None:
                    # the state reaching a control statement (for query
                    # partial evaluation over If/DCase conditions)
                    self.result.before[node.branch_stmt.sid] = dict(state)
                node_out[nid] = state
                for edge in node.succs:
                    succ_state = dict(state)
                    for array, pattern in edge.refinements:
                        succ_state[array] = succ_state.get(array, TOP).refine(
                            pattern
                        )
                    old = node_in.get(edge.dst)
                    new = succ_state if old is None else _join(old, succ_state)
                    if old is None or not _state_eq(old, new):
                        node_in[edge.dst] = new
                        if edge.dst not in worklist:
                            worklist.append(edge.dst)
            return node_in.get(cfg.exit, {})
        finally:
            self._call_stack.pop()

    # -- transfer functions ---------------------------------------------------------
    def _transfer(self, stmt, state: State) -> State:
        if isinstance(stmt, DistributeStmt):
            state = dict(state)
            state[stmt.array] = PlausibleSet([stmt.pattern])
            for sec in stmt.connected:
                # connected arrays share the primary's type (extraction);
                # an aligned secondary's type equals it too for the
                # type-preserving alignments of §2 (see core.alignment).
                state[sec] = PlausibleSet([stmt.pattern])
            return state
        if isinstance(stmt, Call):
            callee = self.program.proc(stmt.callee)
            # bind formals to actuals
            inner = dict(state)
            for formal, actual in stmt.bindings.items():
                inner[formal] = state.get(actual, TOP)
                declared = callee.formal_dists.get(formal)
                if declared is not None:
                    # implicit redistribution at the boundary
                    inner[formal] = PlausibleSet([declared])
            exit_state = self._analyze_proc(callee, inner)
            # Vienna Fortran: the callee's (possibly new) distribution
            # returns to the caller (§5)
            out = dict(state)
            for formal, actual in stmt.bindings.items():
                if formal in exit_state:
                    out[actual] = exit_state[formal]
            # globals touched by the callee flow back as well (but not
            # the formals themselves, nor arrays bound as actuals —
            # those were updated through the binding above)
            actuals = set(stmt.bindings.values())
            for name, ps in exit_state.items():
                if (
                    name not in callee.formals
                    and name not in actuals
                    and name in out
                ):
                    out[name] = ps
            return out
        if isinstance(stmt, Assign):
            return state  # assignments do not change distributions
        raise TypeError(f"unexpected statement in basic block: {stmt!r}")



def analyze(program: IRProgram) -> AnalysisResult:
    """One-call helper: run reaching distributions on ``program``."""
    return ReachingDistributions(program).run()
