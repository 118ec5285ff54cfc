"""Session facade unit tests: config, handles, results, registry."""

import json

import numpy as np
import pytest

import repro
from repro.api import (
    BACKEND_NAMES,
    DEFAULT_SEED,
    ExecutionOutcome,
    REGISTRY,
    Session,
    SessionConfig,
    WorkloadHandle,
    WorkloadRegistry,
    available_workloads,
    register_workload,
    resolve_cost_model,
    session,
)
from repro.backend import SerialBackend
from repro.core.distribution import dist_type
from repro.machine import PARAGON, Machine, ProcessorArray


# -- config ----------------------------------------------------------------


def test_config_defaults():
    cfg = SessionConfig()
    assert cfg.nprocs == 4
    assert cfg.seed == DEFAULT_SEED
    assert cfg.backend is None
    assert cfg.backend_name == "serial"
    assert cfg.resolved_cost_model() is PARAGON
    assert cfg.validate() is cfg


def test_config_accepts_cost_model_instance_and_name():
    assert resolve_cost_model("Paragon") is PARAGON
    assert resolve_cost_model(PARAGON) is PARAGON
    with pytest.raises(ValueError, match="unknown cost model"):
        resolve_cost_model("nope")


def test_config_rejects_bad_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        SessionConfig(backend="bogus").validate()
    with pytest.raises(ValueError, match="not an instance"):
        SessionConfig(backend=SerialBackend()).validate()
    # names and Backend subclasses are fine
    for name in BACKEND_NAMES:
        SessionConfig(backend=name).validate()
    SessionConfig(backend=SerialBackend).validate()


def test_config_rejects_bad_nprocs():
    with pytest.raises(ValueError, match="nprocs"):
        SessionConfig(nprocs=0).validate()


def test_config_json_roundtrip():
    cfg = SessionConfig(nprocs=8, cost_model="modern", seed=3)
    assert json.loads(json.dumps(cfg.to_json()))["nprocs"] == 8


# -- session ---------------------------------------------------------------


def test_session_context_manager_and_repr():
    with session(nprocs=4) as sess:
        assert "open" in repr(sess)
        assert sess.cost_model is PARAGON
        assert set(sess.workloads()) >= {"adi", "pic", "smoothing"}
    assert "closed" in repr(sess)


def test_session_machine_and_engine_share_plan_cache():
    with session(nprocs=4) as sess:
        m = sess.machine(name="R")
        assert m.nprocs == 4 and m.cost_model is PARAGON
        vfe = sess.engine(m)
        assert vfe.machine is m
        assert vfe.plan_cache is sess.plan_cache
        vfe2 = sess.engine()
        assert vfe2.plan_cache is sess.plan_cache


@pytest.mark.parametrize("cost_mode", ["model", "simulated"])
def test_second_plan_is_answered_from_the_session_store(cost_mode):
    """Either cost engine prices transitions through the session's
    store: the second plan of one problem looks up only what is there."""
    with session(nprocs=4) as sess:
        handle = sess.workload("adi", size=16)
        first = handle.plan(cost_mode=cost_mode)
        cold = sess.plan_cache.stats()
        assert cold["misses"] > 0
        second = handle.plan(cost_mode=cost_mode)
        warm = sess.plan_cache.stats()
        assert warm["misses"] == cold["misses"]
        assert warm["hits"] - cold["hits"] == cold["hits"] + cold["misses"]
        assert second.json_str() == first.json_str()


def test_session_engine_does_not_warn():
    import warnings

    with session(nprocs=2) as sess:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sess.engine()


def test_bare_engine_matches_session_engine():
    """``Engine(machine)`` is the one constructor; ``Session.engine()``
    only adds the session's plan cache and backend on top of it."""
    from repro.runtime.engine import Engine

    def flip(vfe):
        v = vfe.declare("V", (12, 12), dist=dist_type(":", "BLOCK"),
                        dynamic=True)
        v.from_global(np.arange(144.0).reshape(12, 12))
        reports = vfe.distribute("V", dist_type("BLOCK", ":"))
        return (
            v.to_global(),
            [(r.messages, r.bytes) for r in reports],
            tuple(vfe.machine.network.clocks),
        )

    bare = flip(Engine(Machine(ProcessorArray("R", (4,)), cost_model=PARAGON)))
    with session(nprocs=4) as sess:
        via_session = flip(sess.engine(name="R"))
    assert np.array_equal(bare[0], via_session[0])
    assert bare[1:] == via_session[1:]


def test_session_engine_attaches_and_closes_backend():
    with session(nprocs=2, backend="serial") as sess:
        vfe = sess.engine()
        attached = vfe.machine.backend
        assert isinstance(attached, SerialBackend)
        machine = vfe.machine
    assert attached.machine is None  # closed with the session
    assert machine.backend is not attached


def test_session_describe():
    d = session(nprocs=4).describe()
    assert d["cost_model"] == "Paragon"
    assert "adi" in d["workloads"]
    json.dumps(d)


# -- handles ---------------------------------------------------------------


def test_workload_handle_params_and_seed():
    sess = session(nprocs=4, seed=5)
    h = sess.workload("adi", size=16)
    assert h.name == "adi" and h.plannable
    assert h.seed == 5
    assert h.params["size"] == 16
    assert h.params["iterations"] == 2  # registered default
    # per-handle override
    assert sess.workload("adi", seed=9).seed == 9
    assert "adi" in repr(h)


def test_workload_unknown_name_and_param():
    sess = session()
    with pytest.raises(KeyError, match="registered"):
        sess.workload("nope")
    with pytest.raises(TypeError, match="unknown parameter"):
        sess.workload("adi", bogus=1)


def test_run_result_protocol():
    r = session(nprocs=4).workload("adi", size=16, iterations=1).run()
    assert r.solution is not None and r.solution.shape == (16, 16)
    assert len(r.clocks) == 4
    assert r.backend == "serial"
    assert "run adi" in r.summary()
    parsed = json.loads(r.json_str())
    assert parsed["workload"] == "adi"
    assert parsed["solution_sha256"] == r.solution_digest()
    assert r.events is None  # record_events defaults off
    assert len(r.fingerprint()) == 64


def test_run_records_events_when_configured():
    r = session(nprocs=4, record_events=True).workload(
        "adi", size=16, iterations=1
    ).run()
    assert r.events is not None and len(r.events.events) > 0
    assert json.loads(r.json_str())["events"]


def test_plan_result_protocol():
    p = session(nprocs=4).workload("adi", size=16, iterations=2).plan()
    assert p.plan.steps
    assert "plan for 'V'" in p.summary()
    parsed = json.loads(p.json_str())
    assert parsed["cost_mode"] == "model"
    assert parsed["plan"]["steps"]
    with pytest.raises(ValueError, match="cost_mode"):
        session(nprocs=4).workload("adi").plan(cost_mode="bogus")


def test_plan_unplannable_workload():
    if "irregular" not in REGISTRY:
        pytest.skip("networkx missing")
    with pytest.raises(ValueError, match="no planning problem"):
        session(nprocs=2).workload("irregular").plan()


def test_trace_result_protocol():
    t = session(nprocs=4).workload("adi", size=16, iterations=1).trace()
    assert t.matches_aggregate is True
    assert t.blocking is not None and t.split is not None
    assert t.timeline(False) is t.blocking
    assert t.timeline(True) is t.split
    assert 0.0 <= t.overlap_reduction <= 1.0
    json.loads(json.dumps(t.to_json(intervals=False)))


def test_trace_single_semantics():
    h = session(nprocs=4).workload("adi", size=16, iterations=1)
    t = h.trace(overlap=False)
    assert t.blocking is not None and t.split is None
    with pytest.raises(ValueError, match="split-phase"):
        t.timeline(True)
    t2 = h.trace(overlap=True)
    assert t2.blocking is None and t2.split is not None
    assert t2.matches_aggregate is None


def test_bench_result_protocol():
    b = session(nprocs=4).workload("adi", size=8, iterations=1).bench(repeats=2)
    assert len(b.wall_times) == 2
    assert b.best <= b.mean
    assert b.modeled_time > 0
    json.loads(b.json_str())
    with pytest.raises(ValueError, match="repeats"):
        session().workload("adi").bench(repeats=0)


# -- registry --------------------------------------------------------------


def test_register_workload_into_custom_registry():
    reg = WorkloadRegistry()

    @register_workload("toy", defaults={"n": 4}, registry=reg)
    def toy(ctx):
        return ExecutionOutcome(
            solution=np.full(ctx.params["n"], float(ctx.seed)),
            headline={"n": ctx.params["n"]},
        )

    assert toy.name == "toy"  # the decorated name is the spec
    assert "toy" in reg and "toy" not in REGISTRY
    assert available_workloads(reg) == ("toy",)

    sess = Session(SessionConfig(nprocs=2, seed=7), registry=reg)
    r = sess.workload("toy").run()
    assert r.solution.tolist() == [7.0, 7.0, 7.0, 7.0]
    assert r.headline == {"n": 4}


def test_register_duplicate_rejected_unless_replace():
    reg = WorkloadRegistry()

    @register_workload("dup", registry=reg)
    def one(ctx):
        return ExecutionOutcome(solution=np.zeros(1))

    with pytest.raises(ValueError, match="already registered"):

        @register_workload("dup", registry=reg)
        def two(ctx):
            return ExecutionOutcome(solution=np.zeros(1))

    @register_workload("dup", registry=reg, replace=True)
    def three(ctx):
        return ExecutionOutcome(solution=np.ones(1))

    assert reg.get("dup") is three


def test_runner_must_return_outcome():
    reg = WorkloadRegistry()

    @register_workload("bad", registry=reg)
    def bad(ctx):
        return 42

    with pytest.raises(TypeError, match="ExecutionOutcome"):
        Session(SessionConfig(nprocs=1), registry=reg).workload("bad").run()


def test_builtin_workloads_registered():
    names = set(available_workloads())
    assert {"adi", "pic", "smoothing"} <= names
    spec = REGISTRY.get("adi")
    assert spec.plannable
    assert spec.defaults["strategy"] == "dynamic"


def test_root_facade_exports():
    assert repro.session is session
    assert repro.Session is Session
    assert repro.SessionConfig is SessionConfig
    assert repro.register_workload is register_workload
    assert repro.DEFAULT_SEED == DEFAULT_SEED
