"""Perf-regression harness for the vectorized hot paths.

Times each vectorized production path against its per-element /
per-event reference oracle on seeded, fixed-size problems and writes
``BENCH_PERF.json`` — the machine-readable perf trajectory of the
reproduction.  Four benches, one per hot path:

- ``forall`` — per-element :func:`~repro.runtime.forall.forall` vs the
  gather-batched :func:`~repro.runtime.batched.forall_batched`;
- ``halo_exchange`` — stencil steps re-deriving the slab plan every
  step vs the :class:`~repro.runtime.redistribute.PlanCache`-cached
  slice plan;
- ``redistribute_planning`` — the flattened rank-map oracle
  (:func:`~repro.backend.plan.transfer_plan`) vs the per-dimension,
  interning-backed ``PlanCache`` path;
- ``simulated_cost_planning`` — schedule planning with the event-loop
  transition replayer vs the array-backed fast replay + trace memo.

Every bench records **op counts** (messages, bytes, remote reads,
events, plan costs) for both paths and a ``match`` flag asserting they
are identical — that flag is the CI regression gate (``--check``).
Wall-clock seconds and the speedup ratio are reported but
informational: machine-dependent numbers are never asserted in CI, so
the harness stays non-flaky.

Run ``python -m repro bench`` (add ``--smoke`` for the CI-sized run),
or import :func:`run_harness` directly.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

__all__ = ["run_harness", "BENCHES"]


def _timed(fn: Callable[[], object]) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def bench_forall(smoke: bool = False) -> dict:
    """Per-element vs batched forall: a two-read shifted body."""
    from .core.distribution import dist_type
    from .machine import IPSC860, Machine, ProcessorArray
    from .runtime.batched import forall_batched
    from .runtime.engine import Engine
    from .runtime.forall import forall
    from .sim import EventLog, record

    n = 40 if smoke else 128
    grid = (2, 2)

    def setup():
        machine = Machine(ProcessorArray("R", grid), cost_model=IPSC860)
        engine = Engine(machine)
        a = engine.declare("A", (n, n), dist=dist_type("BLOCK", "BLOCK"))
        b = engine.declare("B", (n, n), dist=dist_type("BLOCK", "BLOCK"))
        rng = np.random.default_rng(11)
        b.from_global(rng.normal(size=(n, n)))
        return machine, a, b

    hi = n - 1

    def scalar_body(i, read):
        return read("B", (min(i[0] + 1, hi), i[1])) + 0.5 * read(
            "B", (i[0], min(i[1] + 1, hi))
        )

    def batched_body(cols, read):
        return read("B", (np.minimum(cols[0] + 1, hi), cols[1])) + 0.5 * read(
            "B", (cols[0], np.minimum(cols[1] + 1, hi))
        )

    m1, a1, b1 = setup()
    log1 = EventLog()
    with record(m1, log1):
        ref_s, counts1 = _timed(
            lambda: forall(a1, scalar_body, reads={"B": b1})
        )
    m2, a2, b2 = setup()
    log2 = EventLog()
    with record(m2, log2):
        vec_s, counts2 = _timed(
            lambda: forall_batched(a2, batched_body, reads={"B": b2})
        )

    def ops(machine, log, counts):
        s = machine.stats()
        return {
            "messages": s.messages,
            "bytes": s.bytes,
            "remote_reads": int(sum(counts.values())),
            "events": len(log),
        }

    ref_ops, vec_ops = ops(m1, log1, counts1), ops(m2, log2, counts2)
    match = (
        ref_ops == vec_ops
        and np.array_equal(a1.to_global(), a2.to_global())
        and m1.network.clocks == m2.network.clocks
    )
    return _result(
        "forall", {"n": n, "grid": list(grid)}, ref_s, vec_s,
        ref_ops, vec_ops, match,
    )


def bench_halo_exchange(smoke: bool = False) -> dict:
    """Stencil halo exchange: per-step plan re-derivation vs the
    PlanCache-memoized slice plan."""
    from .compiler.codegen import StencilKernel
    from .core.distribution import dist_type
    from .machine import IPSC860, Machine, ProcessorArray

    n = 64 if smoke else 192
    steps = 8 if smoke else 30
    grid = (4, 4)

    def five_point(pad, out, widths):
        w0, w1 = widths
        c = pad[w0:-w0 or None, w1:-w1 or None]
        out[...] = 0.25 * (
            pad[: -2 * w0 or None, w1:-w1 or None][: c.shape[0]]
            + pad[2 * w0:, w1:-w1 or None][: c.shape[0]]
            + pad[w0:-w0 or None, : -2 * w1 or None][:, : c.shape[1]]
            + pad[w0:-w0 or None, 2 * w1:][:, : c.shape[1]]
        )

    def run(cold: bool):
        machine = Machine(ProcessorArray("R", grid), cost_model=IPSC860)
        from .runtime.engine import Engine

        engine = Engine(machine)
        u = engine.declare("U", (n, n), dist=dist_type("BLOCK", "BLOCK"))
        rng = np.random.default_rng(13)
        u.from_global(rng.normal(size=(n, n)))
        kernel = StencilKernel(u, (1, 1), five_point)

        def body():
            for _ in range(steps):
                if cold:
                    machine.plans.clear()  # reference: re-derive plans each step
                kernel.step()

        seconds, _ = _timed(body)
        s = machine.stats()
        return seconds, u.to_global(), {
            "messages": s.messages,
            "bytes": s.bytes,
            "steps": steps,
        }

    ref_s, ref_vals, ref_ops = run(cold=True)
    vec_s, vec_vals, vec_ops = run(cold=False)
    match = ref_ops == vec_ops and np.array_equal(ref_vals, vec_vals)
    return _result(
        "halo_exchange", {"n": n, "steps": steps, "grid": list(grid)},
        ref_s, vec_s, ref_ops, vec_ops, match,
    )


def bench_redistribute_planning(smoke: bool = False) -> dict:
    """Transfer-set planning: the flattened rank-map oracle (per-pair
    index sets, one entry per element) vs the per-dimension plan behind the
    PlanCache/interning path, over recurring layout pairs."""
    from .backend.plan import oracle_matrix
    from .core.interning import clear_interning_caches
    from .machine import ProcessorArray
    from .core.distribution import dist_type
    from .runtime.redistribute import PlanCache

    n = 32 if smoke else 96
    nprocs = 8
    R = ProcessorArray("R", (nprocs,))
    specs = [
        (("BLOCK", ":"), (":", "BLOCK")),
        ((":", "BLOCK"), ("CYCLIC", ":")),
        (("CYCLIC", ":"), ("BLOCK", ":")),
        ((":", "CYCLIC"), (":", "BLOCK")),
    ]

    def pairs():
        # fresh (structurally equal) objects each round — what the
        # planner's candidate enumeration produces every run
        return [
            (dist_type(*o).apply((n, n), R), dist_type(*w).apply((n, n), R))
            for o, w in specs
        ]

    clear_interning_caches()
    ref_s, ref_mats = _timed(
        lambda: [oracle_matrix(o, w, nprocs) for o, w in pairs()]
    )

    # headline: one COLD pass (empty plan cache, empty interning/owner
    # caches) — the same methodology as the reference, so the speedup
    # is the per-dimension planning alone, not memo amortization; the
    # move lists are built too, as the oracle's index sets are
    clear_interning_caches()
    cache = PlanCache()

    def plan(old, new):
        made = cache.redistribution(old, new, nprocs)
        made.moves  # built on first use
        return made.matrix

    vec_s, vec_mats = _timed(lambda: [plan(o, w) for o, w in pairs()])
    # steady state: warm plan cache over recurring rounds, reported as
    # an extra (informational) figure
    rounds = 25
    warm_total, _ = _timed(
        lambda: [
            cache.transfer_matrix(o, w, nprocs)
            for _ in range(rounds)
            for o, w in pairs()
        ]
    )

    match = all(
        np.array_equal(a, b) for a, b in zip(ref_mats, vec_mats)
    )
    ref_ops = {
        "plans": len(specs),
        "elements_moved": int(sum(int(T.sum()) for T in ref_mats)),
    }
    vec_ops = {
        "plans": len(specs),
        "elements_moved": int(sum(int(T.sum()) for T in vec_mats)),
    }
    match = match and ref_ops == vec_ops
    res = _result(
        "redistribute_planning",
        {"n": n, "nprocs": nprocs, "pairs": len(specs), "rounds": rounds},
        ref_s, vec_s, ref_ops, vec_ops, match,
    )
    res["vectorized_warm_seconds"] = warm_total / rounds
    return res


def bench_simulated_cost_planning(smoke: bool = False) -> dict:
    """Schedule planning under ``cost_mode="simulated"``: event-loop
    transition replay vs array-backed fast replay + trace memo."""
    from .planner import SimulatedCostEngine, adi_workload, plan_workload

    size = 32 if smoke else 96
    nprocs = 16 if smoke else 32
    iterations = 4

    def run(fast: bool):
        workload = adi_workload(size, size, iterations=iterations, nprocs=nprocs)
        engine = SimulatedCostEngine(workload.machine, fast_replay=fast)

        def body():
            plan = plan_workload(workload, cost_engine=engine)
            # the schedule search's inner loop: every candidate pair
            trans = [
                engine.transition_cost(a, b)
                for a in workload.candidates
                for b in workload.candidates
            ]
            return plan, trans

        seconds, (plan, trans) = _timed(body)
        return seconds, plan, trans, len(workload.candidates)

    ref_s, ref_plan, ref_trans, m = run(fast=False)
    vec_s, vec_plan, vec_trans, _ = run(fast=True)
    match = (
        ref_trans == vec_trans  # bitwise: fast replay == event loop
        and ref_plan.total_cost == vec_plan.total_cost
        and [repr(d) for d in ref_plan.layouts()]
        == [repr(d) for d in vec_plan.layouts()]
    )
    ref_ops = {
        "candidates": m,
        "transitions_priced": len(ref_trans),
        "redistributions": len(ref_plan.redistributions),
    }
    vec_ops = {
        "candidates": m,
        "transitions_priced": len(vec_trans),
        "redistributions": len(vec_plan.redistributions),
    }
    match = match and ref_ops == vec_ops
    return _result(
        "simulated_cost_planning",
        {"size": size, "nprocs": nprocs, "iterations": iterations},
        ref_s, vec_s, ref_ops, vec_ops, match,
    )


def _result(name, size, ref_s, vec_s, ref_ops, vec_ops, match) -> dict:
    return {
        "name": name,
        "size": size,
        "reference_seconds": ref_s,
        "vectorized_seconds": vec_s,
        "speedup": (ref_s / vec_s) if vec_s > 0 else float("inf"),
        "reference_ops": ref_ops,
        "vectorized_ops": vec_ops,
        "match": bool(match),
    }


BENCHES: dict[str, Callable[[bool], dict]] = {
    "forall": bench_forall,
    "halo_exchange": bench_halo_exchange,
    "redistribute_planning": bench_redistribute_planning,
    "simulated_cost_planning": bench_simulated_cost_planning,
}


def run_harness(
    smoke: bool = False,
    out: str | None = None,
    check: bool = False,
    benches: list[str] | None = None,
    quiet: bool = False,
    trajectory: str | None = None,
) -> dict:
    """Run the perf benches; ``out`` / ``trajectory`` / ``check`` are
    :func:`~repro.obs.compare.finish_bench`'s, family ``"perf"``.

    ``check=True`` raises if any bench's vectorized op counts / results
    diverge from its reference — the CI regression gate.  Wall-clock
    numbers are reported but never asserted here (that gate needs a
    baseline: ``python -m repro bench --compare``).
    """
    from .obs.compare import FAMILIES, finish_bench
    from .obs.trajectory import environment_fingerprint

    names = benches if benches is not None else list(BENCHES)
    unknown = [b for b in names if b not in BENCHES]
    if unknown:
        raise ValueError(f"unknown bench(es): {unknown}")
    results = []
    for name in names:
        res = BENCHES[name](smoke)
        results.append(res)
        if not quiet:
            print(
                f"  {res['name']:24s} ref {res['reference_seconds']*1e3:9.2f} ms"
                f"  vec {res['vectorized_seconds']*1e3:9.2f} ms"
                f"  speedup {res['speedup']:7.1f}x"
                f"  ops-match {res['match']}"
            )
    report = {
        "schema": FAMILIES["perf"].schema,
        "smoke": bool(smoke),
        "env": environment_fingerprint(),
        "benches": results,
    }
    return finish_bench(
        "perf", report, out=out, trajectory=trajectory, check=check,
        quiet=quiet,
    )
