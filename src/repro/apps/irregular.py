"""Irregular (unstructured-mesh) relaxation — the PARTI scenario.

The paper's run-time layer exists in large part for irregular codes:
"data access functions for Vienna Fortran distributions (including the
implementation of irregular accesses via translation tables and
sophisticated buffering schemes for accesses to non-local objects, as
implemented in the PARTI routines [15])" (§3.2).  The intrinsic
regular distributions cannot keep an unstructured mesh's neighbours
local; the INDIRECT distribution (owner table per node, §3.2.1) driven
by a mesh partitioner can.

This module provides:

- :func:`make_mesh` — synthetic unstructured meshes (random geometric
  graphs via networkx, the classic stand-in for FEM meshes);
- :func:`partition_bfs` — a seed-grown BFS partitioner producing
  balanced parts with small edge cuts (a poor man's recursive graph
  partitioner, adequate to show the effect);
- :func:`run_relaxation` — edge-based Jacobi relaxation of node values
  executed SPMD-style through the inspector/executor, under either a
  naive BLOCK distribution of node ids or a partition-driven INDIRECT
  distribution;
- :func:`edge_cut` — the analytic communication proxy (off-processor
  edges);
- :class:`DriftingRelaxation` — the relaxation under a wandering
  compute hot spot as an *adaptive model* for
  :class:`~repro.adapt.AdaptiveController`.

Experiment E10 compares the two distributions: the measured per-sweep
communication tracks the edge cut, and the partitioned INDIRECT
distribution — only expressible because distributions are run-time
data — wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from ..core.dimdist import Block, GenBlock, Indirect
from ..core.distribution import DistributionType
from ..defaults import DEFAULT_SEED
from ..machine.machine import Machine
from ..runtime.engine import Engine

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "make_mesh",
    "partition_bfs",
    "edge_cut",
    "RelaxationResult",
    "run_relaxation",
    "relaxation_reference",
    "drifting_weights",
    "DriftingRelaxation",
]

def _networkx():
    """networkx, imported when a mesh is built: no other workload and
    no other layer needs it."""
    try:
        import networkx
    except ImportError as exc:
        raise ImportError(
            "the 'irregular' workload builds and partitions its meshes "
            "with networkx, which is not installed"
        ) from exc
    return networkx


def make_mesh(
    n: int,
    seed: int = DEFAULT_SEED,
    kind: str = "geometric",
    rng: np.random.Generator | None = None,
) -> nx.Graph:
    """A connected synthetic unstructured mesh with ``n`` nodes.

    ``geometric``: random geometric graph (radius chosen to connect);
    ``ring``: a ring with random chords (worst case for BLOCK order is
    mild, included for contrast).

    All randomness flows through ``rng`` (derived from ``seed`` when
    not given, reproducing the historical stream exactly); note the
    geometric kind also seeds networkx's own generator from ``seed``.
    """
    nx = _networkx()
    if rng is None:
        rng = np.random.default_rng(seed)
    if kind == "geometric":
        radius = 1.8 / np.sqrt(n)
        pos = {i: (rng.uniform(), rng.uniform()) for i in range(n)}
        g = nx.random_geometric_graph(n, radius, pos=pos, seed=int(seed))
        # connect any stray components to their nearest predecessor
        comps = list(nx.connected_components(g))
        for a, b in zip(comps, comps[1:]):
            g.add_edge(next(iter(a)), next(iter(b)))
    elif kind == "ring":
        g = nx.cycle_graph(n)
        for _ in range(n // 4):
            u, v = rng.integers(0, n, 2)
            if u != v:
                g.add_edge(int(u), int(v))
    else:
        raise ValueError(f"unknown mesh kind {kind!r}")
    return g


def partition_bfs(
    graph: nx.Graph,
    nparts: int,
    seed: int = DEFAULT_SEED,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Grow ``nparts`` balanced parts by BFS from spread-out seeds.

    Returns an owner array (node id -> part).  Parts are grown
    breadth-first from the currently smallest part's frontier, which
    keeps them connected and the cut small — the quality a real mesh
    partitioner (recursive bisection, METIS) would improve on, but
    enough to demonstrate the paper's point.
    """
    nx = _networkx()
    n = graph.number_of_nodes()
    if nparts < 1:
        raise ValueError("need at least one part")
    if nparts > n:
        raise ValueError(f"cannot cut {n} nodes into {nparts} parts")
    owner = np.full(n, -1, dtype=np.int64)
    if rng is None:
        rng = np.random.default_rng(seed)
    # spread seeds: repeated farthest-first from a random start
    seeds = [int(rng.integers(0, n))]
    dist = dict(nx.single_source_shortest_path_length(graph, seeds[0]))
    while len(seeds) < nparts:
        far = max(
            (node for node in graph.nodes if owner[node] == -1),
            key=lambda v: dist.get(v, 0),
        )
        seeds.append(int(far))
        for v, d in nx.single_source_shortest_path_length(graph, far).items():
            if d < dist.get(v, n + 1):
                dist[v] = d
    frontiers: list[list[int]] = [[s] for s in seeds]
    sizes = [0] * nparts
    for p, s in enumerate(seeds):
        owner[s] = p
        sizes[p] += 1
    target = -(-n // nparts)
    assigned = nparts
    while assigned < n:
        # grow the smallest non-exhausted part
        order = sorted(range(nparts), key=lambda p: sizes[p])
        grew = False
        for p in order:
            if sizes[p] >= target or not frontiers[p]:
                continue
            nxt: list[int] = []
            took = False
            for u in frontiers[p]:
                for v in graph.neighbors(u):
                    if owner[v] == -1:
                        owner[v] = p
                        sizes[p] += 1
                        assigned += 1
                        nxt.append(v)
                        took = True
                        break
                if took:
                    break
            frontiers[p] = nxt + [u for u in frontiers[p] if any(
                owner[w] == -1 for w in graph.neighbors(u)
            )]
            if took:
                grew = True
                break
        if not grew:
            # disconnected leftovers: round-robin them
            for v in graph.nodes:
                if owner[v] == -1:
                    p = int(np.argmin(sizes))
                    owner[v] = p
                    sizes[p] += 1
                    assigned += 1
                    frontiers[p].append(v)
                    break
    return owner


def drifting_weights(
    n: int,
    sweep: int,
    drift: float,
    amp: float = 3.0,
    width: float = 0.08,
    center0: float = 0.2,
) -> np.ndarray:
    """Per-node compute weights under a drifting Gaussian hot spot.

    Node ``i`` sits at normalized coordinate ``(i + 0.5) / n`` on a
    periodic unit interval; a hot spot of relative amplitude ``amp``
    and stddev ``width`` starts at ``center0`` and moves ``drift`` per
    sweep (wrapping around).  With ``drift == 0`` every weight is
    exactly 1.0 — the time-invariant load the historical relaxation
    modeled — so callers can guard on it for bitwise parity.
    """
    if drift == 0.0:
        return np.ones(n)
    x = (np.arange(n, dtype=np.float64) + 0.5) / n
    c = (center0 + drift * sweep) % 1.0
    d = np.abs(x - c)
    d = np.minimum(d, 1.0 - d)  # periodic distance
    return 1.0 + amp * np.exp(-0.5 * (d / width) ** 2)


def edge_cut(graph: nx.Graph, owner: np.ndarray) -> int:
    """Edges whose endpoints live on different processors — the
    per-sweep communication proxy."""
    return sum(1 for u, v in graph.edges if owner[u] != owner[v])


def relaxation_reference(
    graph: nx.Graph, values: np.ndarray, sweeps: int
) -> np.ndarray:
    """Sequential oracle: Jacobi averaging over neighbours."""
    v = np.array(values, dtype=np.float64, copy=True)
    for _ in range(sweeps):
        new = v.copy()
        for node in graph.nodes:
            nbrs = list(graph.neighbors(node))
            if nbrs:
                new[node] = 0.5 * v[node] + 0.5 * np.mean(v[list(nbrs)])
        v = new
    return v


@dataclass
class RelaxationResult:
    distribution: str
    n: int
    nprocs: int
    sweeps: int
    cut_edges: int
    messages: int
    bytes: int
    time: float
    solution: np.ndarray


def _relax_update(
    gathered: dict, node_slices: dict, rank: int, local: np.ndarray, idx
) -> None:
    """Owner-computes Jacobi update of one rank's owned nodes.

    Module-level (and closed over via :func:`functools.partial`) so
    the multiprocess backend can pickle it into its worker processes;
    the serial backend calls it in the same rank order, so the
    arithmetic — and therefore the solution — is bitwise-identical
    either way.
    """
    vals = gathered[rank]
    staged = np.empty_like(local)
    for li, (node, lo, hi) in enumerate(node_slices[rank]):
        nbr_vals = vals[lo:hi]
        staged[li] = (
            0.5 * local[li] + 0.5 * nbr_vals.mean() if hi > lo else local[li]
        )
    local[...] = staged


def run_relaxation(
    machine: Machine,
    graph: nx.Graph,
    distribution: str = "partitioned",
    sweeps: int = 3,
    seed: int = DEFAULT_SEED,
    rng: np.random.Generator | None = None,
    drift: float = 0.0,
) -> RelaxationResult:
    """Edge-based Jacobi relaxation through the inspector/executor.

    ``distribution`` is ``"block"`` (node ids block-distributed — the
    naive choice) or ``"partitioned"`` (INDIRECT from
    :func:`partition_bfs` — only expressible with run-time
    distributions).  The access pattern is irregular, so each sweep is
    a PARTI gather; the schedule is built once and reused across
    sweeps, invalidated only by redistribution.

    Each sweep's node updates execute on ``machine``'s backend: with
    the multiprocess backend attached, in per-processor worker
    processes against shared-memory segments, bitwise-identical to the
    serial reference.

    With ``rng=None`` the partitioner and the initial node values each
    draw from a fresh ``default_rng(seed)`` (the historical streams,
    bit for bit); an explicit ``rng`` is used for both, making a run
    reproducible from generator state alone.

    ``drift`` moves a Gaussian compute hot spot across the node ids at
    ``drift`` per sweep (:func:`drifting_weights`) — per-sweep compute
    cost becomes proportional to the summed weight of the owned nodes
    while the solution arithmetic is untouched.  ``drift=0.0`` (the
    default) takes exactly the historical code path, bit for bit.
    """
    n = graph.number_of_nodes()
    p = machine.nprocs
    engine = Engine(machine)
    if distribution == "block":
        dd = Block()
        owner_vec = dd.owners_vec(n, p)
    elif distribution == "partitioned":
        owner_vec = partition_bfs(graph, p, seed=seed, rng=rng)
        dd = Indirect(owner_vec)
    else:
        raise ValueError("distribution must be 'block' or 'partitioned'")

    values = (
        rng if rng is not None else np.random.default_rng(seed)
    ).standard_normal(n)
    arr = engine.declare(
        "V", (n,), dist=DistributionType((dd,)), dynamic=True
    )
    arr.from_global(values)

    # inspector: per processor, the neighbour lists of its owned nodes
    inspector = engine.inspector("V")
    requests: dict[int, np.ndarray] = {}
    node_slices: dict[int, list[tuple[int, int, int]]] = {}
    for rank in arr.owning_ranks():
        owned = arr.local_indices(rank)[0]
        flat: list[int] = []
        slices: list[tuple[int, int, int]] = []
        for node in owned:
            nbrs = list(graph.neighbors(int(node)))
            slices.append((int(node), len(flat), len(flat) + len(nbrs)))
            flat.extend(nbrs)
        requests[rank] = np.asarray(flat, dtype=np.int64).reshape(-1, 1)
        node_slices[rank] = slices
    schedule = inspector.inspect(requests)

    m0 = machine.stats()
    t0 = machine.time
    for sweep in range(sweeps):
        gathered = inspector.gather(schedule)  # schedule reused
        machine.backend.run_kernel(
            arr, partial(_relax_update, gathered, node_slices)
        )
        # accounting is identical regardless of which process executed
        # the update — the backend executes, the network accounts
        if drift == 0.0:
            for rank in arr.owning_ranks():
                machine.network.compute(
                    rank, 4.0 * arr.local(rank).size, tag="relax:V"
                )
        else:
            weights = drifting_weights(n, sweep, drift)
            for rank in arr.owning_ranks():
                owned = arr.local_indices(rank)[0]
                machine.network.compute(
                    rank, 4.0 * float(weights[owned].sum()), tag="relax:V"
                )
        machine.network.synchronize()
    m1 = machine.stats()

    return RelaxationResult(
        distribution=distribution,
        n=n,
        nprocs=p,
        sweeps=sweeps,
        cut_edges=edge_cut(graph, np.asarray(owner_vec)),
        messages=m1.messages - m0.messages,
        bytes=m1.bytes - m0.bytes,
        time=machine.time - t0,
        solution=arr.to_global(),
    )


@dataclass
class DriftingRelaxation:
    """Jacobi relaxation on an unstructured mesh with a wandering
    compute hot spot (:func:`drifting_weights`), as an adaptive model
    (the contract is in :mod:`repro.adapt.controller`).

    Node ids are GenBlock-distributed; per-sweep compute is the summed
    weight of the owned nodes, communication the cut edges between
    owner blocks.  There is no offline schedule: the hot spot's
    trajectory is run-time data, precisely the thing the paper's
    offline tooling cannot see.  The Jacobi arithmetic is one global
    vectorized update, independent of ownership, so the solution is
    bitwise-identical whatever the controller decides.
    """

    n: int
    sweeps: int
    window: int
    drift: float
    kind: str = "geometric"
    amp: float = 6.0
    width: float = 0.06
    value_bytes: int = 8
    #: modeled flops per unit of node weight — a heavier-than-Jacobi
    #: per-node kernel (the regime where load balance, not the cut,
    #: dominates; at the relaxation's historical 4 flops/node the cut
    #: traffic drowns any compute rebalancing)
    flops_per_node: float = 2000.0

    #: the registered default drift (0: no hot-spot motion) would give
    #: a probe nothing to adapt to
    probe: ClassVar[dict] = {"n": 48, "sweeps": 12, "window": 4, "drift": 0.02}

    @property
    def steps(self) -> int:
        return self.sweeps

    @property
    def array(self) -> tuple[str, tuple[int, ...]]:
        return "V", (self.n,)

    @property
    def flops_per_unit(self) -> float:
        return self.flops_per_node

    def dist_of(self, sizes) -> DistributionType:
        return DistributionType((GenBlock(sizes),))

    def begin(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        graph = make_mesh(self.n, seed=seed, kind=self.kind, rng=rng)
        self.state = rng.standard_normal(self.n)
        self._edges = np.array(graph.edges, dtype=np.int64).reshape(-1, 2)
        self._deg = np.bincount(
            self._edges.ravel(), minlength=self.n
        ).astype(np.float64)
        self._sweep = 0

    def weights(self) -> np.ndarray:
        """Per-node compute weight under the hot spot's current position."""
        return drifting_weights(
            self.n, self._sweep, self.drift, amp=self.amp, width=self.width
        )

    def step(self, k: int, machine: Machine, owners: np.ndarray) -> np.ndarray:
        self._sweep = k - 1
        nprocs, network = machine.nprocs, machine.network
        edges, values = self._edges, self.state

        # owner-computes Jacobi work, weighted by the hot spot
        per_rank = np.bincount(owners, weights=self.weights(), minlength=nprocs)
        busy = np.zeros(nprocs)
        for rank in range(nprocs):
            c0 = network.clocks[rank]
            network.compute(
                rank, self.flops_per_node * float(per_rank[rank]), tag="relax:V"
            )
            busy[rank] = network.clocks[rank] - c0

        # cut edges: each crossing edge ships one value each way
        if len(edges):
            eu, ev = owners[edges[:, 0]], owners[edges[:, 1]]
            cross = eu != ev
            if cross.any():
                pair = np.concatenate(
                    [eu[cross] * nprocs + ev[cross],
                     ev[cross] * nprocs + eu[cross]]
                )
                cnt = np.bincount(pair, minlength=nprocs * nprocs).reshape(
                    nprocs, nprocs
                )
                network.exchange(
                    [
                        (int(s), int(d), int(cnt[s, d]) * self.value_bytes,
                         "relax:gather")
                        for s, d in zip(*np.nonzero(cnt))
                    ]
                )
        network.synchronize()

        # the global Jacobi update — ownership never enters
        nbrsum = np.bincount(
            edges[:, 0], weights=values[edges[:, 1]], minlength=self.n
        ) + np.bincount(
            edges[:, 1], weights=values[edges[:, 0]], minlength=self.n
        )
        self.state = np.where(
            self._deg > 0,
            0.5 * values + 0.5 * nbrsum / np.maximum(self._deg, 1.0),
            values,
        )
        return busy
