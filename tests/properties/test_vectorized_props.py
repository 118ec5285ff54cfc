"""Property tests pinning every vectorized hot path to its reference.

The PR-4 contract: each array-oriented production path is **bitwise
identical** to the per-element / per-event implementation it replaces —
values, remote-read counts, recorded events, per-processor clocks —
across Hypothesis-generated distributions, bodies and traces:

- batched forall  ==  per-element forall;
- plan-based distributed line sweep  ==  per-line sweep;
- array-backed blocking replay  ==  event-loop blocking simulate
  (and hence the machine's aggregate accounting);
- single-phase split-phase fast replay  ==  event-loop split-phase
  simulate.
"""

from functools import partial

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.tridiag import thomas_const
from repro.compiler.codegen import LineSweepKernel
from repro.core.dimdist import Block, Cyclic, GenBlock
from repro.core.distribution import dist_type
from repro.machine import (
    CostModel,
    IPSC860,
    Machine,
    MODERN_CLUSTER,
    PARAGON,
    ProcessorArray,
    ZERO_COST,
)
from repro.runtime.batched import forall_batched
from repro.runtime.engine import Engine
from repro.runtime.forall import forall
from repro.sim import (
    EventLog,
    record,
    replay_blocking,
    replay_split_exchange,
    simulate,
)

NPROCS = 4
MODELS = (PARAGON, IPSC860, MODERN_CLUSTER, ZERO_COST,
          CostModel(alpha=1e-3, beta=1e-6, flop_rate=1e3, name="toy"))
_model = st.sampled_from(MODELS)


# -- distribution strategies -------------------------------------------------

def _genblock_sizes(n, p, draw):
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=p - 1,
                                max_size=p - 1)))
    bounds = [0, *cuts, n]
    return [b - a for a, b in zip(bounds, bounds[1:])]


@st.composite
def _dist_1d(draw, n):
    kind = draw(st.sampled_from(["block", "cyclic", "genblock"]))
    if kind == "block":
        return dist_type(Block())
    if kind == "cyclic":
        return dist_type(Cyclic(draw(st.integers(1, 3))))
    return dist_type(GenBlock(_genblock_sizes(n, NPROCS, draw)))


@st.composite
def _dimdist_2d(draw, n, slots):
    kind = draw(st.sampled_from(["block", "cyclic", "genblock"]))
    if kind == "block":
        return Block()
    if kind == "cyclic":
        return Cyclic(draw(st.integers(1, 3)))
    return GenBlock(_genblock_sizes(n, slots, draw))


# -- batched forall == per-element forall ------------------------------------

def _forall_pair(n, dist, shift, scale, wrap):
    """A scalar body and its batched counterpart (same reads, same
    order, same arithmetic)."""
    hi = n - 1

    def scalar(i, read):
        j = (i[0] + shift) % n if wrap else min(max(i[0] + shift, 0), hi)
        return read("B", (j,)) * scale + read("A", i)

    def batched(cols, read):
        j = (cols[0] + shift) % n if wrap else np.clip(cols[0] + shift, 0, hi)
        return read("B", (j,)) * scale + read("A", cols)

    return scalar, batched


@given(
    st.integers(5, 24),
    st.data(),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_batched_forall_matches_reference_1d(n, data, shift, scale, wrap):
    dist_a = data.draw(_dist_1d(n))
    dist_b = data.draw(_dist_1d(n))
    seed_vals = np.arange(n, dtype=float) * 0.75 - 3.0

    def run(which):
        machine = Machine(ProcessorArray("R", (NPROCS,)), cost_model=IPSC860)
        engine = Engine(machine)
        a = engine.declare("A", (n,), dist=dist_a)
        b = engine.declare("B", (n,), dist=dist_b)
        a.from_global(seed_vals[::-1].copy())
        b.from_global(seed_vals)
        scalar, batched = _forall_pair(n, dist_b, shift, scale, wrap)
        log = EventLog()
        with record(machine, log):
            if which == "reference":
                counts = forall(a, scalar, reads={"B": b})
            else:
                counts = forall_batched(a, batched, reads={"B": b})
        return a.to_global(), counts, log.events, machine.network.clocks

    v1, c1, e1, clk1 = run("reference")
    v2, c2, e2, clk2 = run("batched")
    assert np.array_equal(v1, v2)
    assert c1 == c2
    assert e1 == e2
    assert clk1 == clk2


@given(st.integers(4, 12), st.integers(4, 12), st.data(), st.integers(-2, 2))
@settings(max_examples=40, deadline=None)
def test_batched_forall_matches_reference_2d(nr, nc, data, shift):
    dd0 = data.draw(_dimdist_2d(nr, 2))
    dd1 = data.draw(_dimdist_2d(nc, 2))
    dist = dist_type(dd0, dd1)
    vals = np.linspace(-1.0, 1.0, nr * nc).reshape(nr, nc)

    def run(which):
        machine = Machine(ProcessorArray("R", (2, 2)), cost_model=PARAGON)
        engine = Engine(machine)
        a = engine.declare("A", (nr, nc), dist=dist)
        b = engine.declare("B", (nr, nc), dist=dist)
        b.from_global(vals)
        log = EventLog()
        with record(machine, log):
            if which == "reference":
                counts = forall(
                    a,
                    lambda i, read: read(
                        "B", ((i[0] + shift) % nr, i[1])
                    ) - read("B", (i[0], (i[1] + shift) % nc)),
                    reads={"B": b},
                )
            else:
                counts = forall_batched(
                    a,
                    lambda cols, read: read(
                        "B", ((cols[0] + shift) % nr, cols[1])
                    ) - read("B", (cols[0], (cols[1] + shift) % nc)),
                    reads={"B": b},
                )
        return a.to_global(), counts, log.events, machine.network.clocks

    v1, c1, e1, clk1 = run("reference")
    v2, c2, e2, clk2 = run("batched")
    assert np.array_equal(v1, v2)
    assert c1 == c2 and e1 == e2 and clk1 == clk2


# -- plan-based line sweep == per-line sweep ---------------------------------

@given(st.integers(6, 16), st.integers(3, 10), st.data(), st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_sweep_plan_matches_per_line_reference(n0, n1, data, dim):
    dd0 = data.draw(_dimdist_2d(n0, NPROCS))
    dist = dist_type(dd0, ":")
    rng_vals = np.sin(np.arange(n0 * n1, dtype=float)).reshape(n0, n1)

    def run(reference):
        machine = Machine(ProcessorArray("R", (NPROCS,)), cost_model=IPSC860)
        engine = Engine(machine)
        a = engine.declare("A", (n0, n1), dist=dist)
        a.from_global(rng_vals)
        kernel = LineSweepKernel(a, dim, partial(thomas_const, a=-1.0, b=4.0))
        log = EventLog()
        with record(machine, log):
            stats = kernel.sweep(reference=reference)
        return a.to_global(), stats, log.events, machine.network.clocks

    v1, s1, e1, clk1 = run(True)
    v2, s2, e2, clk2 = run(False)
    assert np.array_equal(v1, v2)
    assert s1 == s2 and e1 == e2 and clk1 == clk2


# -- array-backed blocking replay == event-loop simulate ---------------------

_rank = st.integers(0, NPROCS - 1)
_msg = st.tuples(_rank, _rank, st.integers(0, 10_000))
_op = st.one_of(
    st.tuples(st.just("send"), _rank, _rank, st.integers(0, 10_000)),
    st.tuples(st.just("exchange"), st.lists(_msg, max_size=6)),
    st.tuples(
        st.just("compute"), _rank,
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    ),
    st.tuples(st.just("sync")),
)
_program = st.lists(_op, max_size=30)


def _run_program(program, model):
    machine = Machine(ProcessorArray("P", (NPROCS,)), cost_model=model)
    log = EventLog()
    with record(machine, log):
        for op in program:
            if op[0] == "send":
                machine.network.send(op[1], op[2], op[3])
            elif op[0] == "exchange":
                machine.network.exchange(list(op[1]))
            elif op[0] == "compute":
                machine.network.compute(op[1], op[2])
            else:
                machine.network.synchronize()
    return machine, log


@given(_program, _model)
@settings(max_examples=150, deadline=None)
def test_array_replay_is_bitwise_identical_to_event_loop(program, model):
    machine, log = _run_program(program, model)
    loop = simulate(log, model, NPROCS, overlap=False)
    fast = replay_blocking(log.to_arrays(), model, NPROCS)
    assert fast.clocks == loop.clocks
    assert fast.clocks == machine.network.clocks
    assert fast.makespan == loop.makespan
    assert fast.barriers == loop.barriers


# -- split-phase single-phase fast path == event-loop simulate ---------------

@st.composite
def _transfer_matrix(draw):
    p = draw(st.integers(2, 8))
    flat = draw(
        st.lists(st.integers(0, 40_000), min_size=p * p, max_size=p * p)
    )
    T = np.asarray(flat, dtype=np.int64).reshape(p, p)
    np.fill_diagonal(T, 0)
    return p, T


@given(_transfer_matrix(), _model)
@settings(max_examples=120, deadline=None)
def test_split_exchange_fast_path_matches_event_loop(pt, model):
    p, T = pt
    s, d = np.nonzero(T)
    nb = T[s, d]
    log = EventLog()
    phase = log.begin_phase("redistribute:plan")
    for q, r, b in zip(s, d, nb):
        log.message(int(q), int(r), int(b), "redistribute:plan", phase=phase)
    log.barrier()
    loop = simulate(log, model, p, overlap=True)
    fast = replay_split_exchange(
        s.astype(np.int64), d.astype(np.int64), nb.astype(np.int64), model, p
    )
    assert fast == loop.makespan
