"""Property-based tests pinning the simulator invariants.

The two guarantees the issue names, over *arbitrary* operation
streams, not just the traces our apps happen to produce:

- blocking replay == the machine's aggregate cost accounting,
  **bitwise** (per-processor clocks and makespan);
- makespan >= the maximum per-processor busy time, in both modes;

plus the overlap bound: a split-phase replay never finishes later
than the blocking replay of the same trace.
"""

from hypothesis import example, given, settings, strategies as st

from repro.machine import (
    CostModel,
    IPSC860,
    Machine,
    MODERN_CLUSTER,
    PARAGON,
    ProcessorArray,
    ZERO_COST,
)
from repro.sim import EventLog, record, simulate

NPROCS = 4
MODELS = (PARAGON, IPSC860, MODERN_CLUSTER, ZERO_COST,
          CostModel(alpha=1e-3, beta=1e-6, flop_rate=1e3, name="toy"))

_rank = st.integers(0, NPROCS - 1)
_msg = st.tuples(_rank, _rank, st.integers(0, 10_000))

#: one network operation: ("send", s, d, n) | ("exchange", [msgs]) |
#: ("compute", r, flops) | ("sync",)
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
_model = st.sampled_from(MODELS)


def _run(program, model):
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
def test_blocking_replay_is_bitwise_identical(program, model):
    machine, log = _run(program, model)
    timeline = simulate(log, model, NPROCS, overlap=False)
    assert timeline.clocks == machine.network.clocks
    assert timeline.makespan == machine.time


@given(_program, _model, st.booleans())
@settings(max_examples=150, deadline=None)
def test_makespan_at_least_max_busy(program, model, overlap):
    _machine, log = _run(program, model)
    timeline = simulate(log, model, NPROCS, overlap=overlap)
    max_busy = max(timeline.busy(r) for r in range(NPROCS))
    assert timeline.makespan >= max_busy - 1e-12 * max(1.0, max_busy)


@given(_program, _model)
@settings(max_examples=150, deadline=None)
def test_split_phase_never_slower_than_blocking(program, model):
    _machine, log = _run(program, model)
    blocking = simulate(log, model, NPROCS, overlap=False)
    split = simulate(log, model, NPROCS, overlap=True)
    assert split.makespan <= blocking.makespan * (1 + 1e-9) + 1e-15


@given(_program, _model, st.booleans())
@example(  # (clock + cost) - cost rounds 3.5e-18 s below rank 1's clock
    program=[("send", 0, 1, 8511), ("exchange", [(0, 1, 0), (0, 1, 9121)]),
             ("send", 0, 1, 9999)],
    model=MODELS[-1], overlap=False,
)
@settings(max_examples=100, deadline=None)
def test_intervals_are_monotone_and_bounded(program, model, overlap):
    _machine, log = _run(program, model)
    timeline = simulate(log, model, NPROCS, overlap=overlap)
    for p in timeline.procs:
        t = 0.0
        for iv in p.intervals:
            assert iv.start >= t - 1e-18
            assert iv.end >= iv.start
            t = iv.end
        assert t <= timeline.makespan + 1e-18
