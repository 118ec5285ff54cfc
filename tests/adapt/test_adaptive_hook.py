"""The registry's ``.adaptive`` hook is the controller's only seam: a
workload that registers one is drivable by ``handle.adapt()`` and the
coverage sweep with no edits anywhere else."""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

import repro
from repro.adapt import MODES, PolicyLibrary
from repro.api import ExecutionOutcome, WorkloadRegistry, register_workload
from repro.core.dimdist import GenBlock
from repro.core.distribution import DistributionType


@dataclass
class RampModel:
    """A 1-D array whose per-unit load is a ramp sliding ``drift``
    units per step; the state is a running sum no layout touches."""

    n: int
    steps: int
    window: int
    drift: float = 2.0

    probe: ClassVar[dict] = {"n": 24, "steps": 8, "window": 2}
    flops_per_unit: ClassVar[float] = 5000.0

    @property
    def array(self):
        return "A", (self.n,)

    def dist_of(self, sizes):
        return DistributionType((GenBlock(sizes),))

    def begin(self, seed):
        self.state = np.random.default_rng(seed).standard_normal(self.n)
        self._k = 0

    def weights(self):
        return 1.0 + np.roll(np.arange(self.n, dtype=float), int(self.drift * self._k))

    def step(self, k, machine, owners):
        self._k = k
        loads = np.bincount(owners, weights=self.weights(), minlength=machine.nprocs)
        busy = np.array([
            machine.network.compute(r, self.flops_per_unit * loads[r])
            for r in range(machine.nprocs)
        ])
        machine.network.synchronize()
        self.state = np.cumsum(self.state) / self.n
        return busy


@pytest.fixture
def registry():
    reg = WorkloadRegistry()

    @register_workload("ramp", defaults={"size": 32, "steps": 12}, registry=reg)
    def ramp(ctx):
        return ExecutionOutcome(solution=np.zeros(1))

    @ramp.adaptive
    def _ramp_adaptive(ctx):
        return RampModel(
            n=int(ctx.params["size"]), steps=int(ctx.params["steps"]), window=3
        )

    @register_workload("inert", defaults={"size": 8}, registry=reg)
    def inert(ctx):
        return ExecutionOutcome(solution=np.zeros(1))

    return reg


def test_a_registered_hook_is_all_adapt_needs(registry):
    assert registry.adaptable_names() == ("ramp",)
    with repro.session(nprocs=4, registry=registry) as sess:
        results = {m: sess.workload("ramp").adapt(mode=m) for m in MODES}
        with pytest.raises(ValueError, match="has no adaptive driver"):
            sess.workload("inert").adapt()
    runs = {m: r.run for m, r in results.items()}
    assert len({r.solution_digest() for r in runs.values()}) == 1
    assert runs["adaptive"].workload == "ramp"
    assert runs["adaptive"].params == {
        "n": 32, "steps": 12, "window": 3, "drift": 2.0
    }
    assert results["adaptive"].window == 3
    assert runs["adaptive"].replans, "the sliding ramp never triggered a replan"
    assert runs["adaptive"].makespan < runs["static"].makespan


def test_coverage_reports_hooked_and_unhooked_specs(registry, monkeypatch):
    monkeypatch.setattr("repro.api.registry.REGISTRY", registry)
    report = PolicyLibrary().coverage_report(
        machines=("Paragon",), drifts={"fast": 3.0}
    )
    by_name = {e["workload"]: e for e in report["entries"]}
    assert by_name["ramp"]["supported"] is True
    assert by_name["ramp"]["tier_name"] != "unsupported"
    assert by_name["inert"]["supported"] is False
    assert by_name["inert"]["tier_name"] == "unsupported"
    assert report["complete"] is True
