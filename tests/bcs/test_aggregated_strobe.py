"""Differential tests for the aggregated strobe + arena node state.

The fast path's aggregated strobe replaces the Strobe Sender's
per-destination control-multicast bookkeeping with one cached
tree-latency timeout per microphase, and the arena hoists per-node
scalars (the ``mphase_done`` GAS slots, activity flags) into flat
arrays updated by batched writes.  Neither may move a single event:
virtual time, slice counts, and every per-node GAS value must be
byte-identical to the reference path (``BcsConfig(reference=True)``),
and the lazy flyweight node directory must stay unmaterialized for
nodes a job never touches.
"""

import numpy as np
import pytest

from repro.apps.synthetic import barrier_benchmark, nearest_neighbor_benchmark
from repro.bcs import ANY_SOURCE, ANY_TAG, BcsConfig, BcsRuntime
from repro.bcs.node_manager import NodeArena
from repro.core.global_memory import GlobalAddressSpace
from repro.harness.runner import run_workload
from repro.network import Cluster, ClusterSpec
from repro.obs import Observability
from repro.sim import Engine
from repro.storm import JobSpec
from repro.units import ms, seconds, us


def _wildcard_app(ctx, iterations=4):
    """Wildcard-heavy ping chain: stresses DEM/MSM under both matchers."""
    for it in range(iterations):
        if ctx.rank == 0:
            for peer in range(1, ctx.size):
                yield from ctx.comm.send(None, dest=peer, tag=it, size=256)
            for _ in range(1, ctx.size):
                yield from ctx.comm.recv(
                    source=ANY_SOURCE, tag=ANY_TAG, size=256
                )
        else:
            yield from ctx.comm.recv(source=0, tag=it, size=256)
            yield from ctx.comm.send(None, dest=0, tag=it, size=256)


# -- end-to-end virtual-time identity ------------------------------------------


@pytest.mark.parametrize(
    "app", [barrier_benchmark, nearest_neighbor_benchmark, _wildcard_app]
)
def test_virtual_time_identity_aggregated_vs_oracle(app):
    results = {}
    for reference in (False, True):
        cfg = BcsConfig(init_cost=0, reference=reference)
        r = run_workload(app, 8, "bcs", bcs_config=cfg)
        results[reference] = (r.runtime_ns, r.stats.get("slices"))
    assert results[False] == results[True]


@pytest.mark.parametrize("observed", [True, False])
@pytest.mark.parametrize("reference", [True, False])
def test_identity_holds_across_matching_engine_matrix(reference, observed):
    """Engine x telemetry: either engine, with or without an attached
    Observability hub, agrees on time with the bare fast path."""
    cfg = BcsConfig(init_cost=0, reference=reference)
    obs = Observability() if observed else None
    r = run_workload(nearest_neighbor_benchmark, 8, "bcs", bcs_config=cfg, obs=obs)
    ref = run_workload(
        nearest_neighbor_benchmark, 8, "bcs", bcs_config=BcsConfig(init_cost=0)
    )
    assert (r.runtime_ns, r.stats.get("slices")) == (
        ref.runtime_ns,
        ref.stats.get("slices"),
    )


def _run_runtime(reference, n_nodes=8, n_ranks=16):
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, reference=reference))
    spec = JobSpec(
        app=barrier_benchmark,
        n_ranks=n_ranks,
        name="diff",
        params=dict(granularity=us(300), iterations=6),
    )
    job = runtime.run_job(spec, max_time=seconds(60))
    return runtime, job


def test_batched_gas_increments_match_per_node_writes():
    """``mphase_done`` must be indistinguishable from the reference loop.

    On the reference path every Strobe Receiver ``gas.write``s its own
    counter; the fast path batch-increments the arena column from the
    Strobe Sender.  Any strobe the aggregation skipped or double-counted
    shows up as a differing per-node value.
    """
    agg_rt, agg_job = _run_runtime(False)
    orc_rt, orc_job = _run_runtime(True)
    assert agg_job.runtime == orc_job.runtime
    for node_id in agg_job.nodes:
        assert agg_rt.core.gas.read(node_id, "mphase_done", default=0) == (
            orc_rt.core.gas.read(node_id, "mphase_done", default=0)
        ), f"node {node_id} slice counter diverged"


def test_lazy_nodes_stay_unmaterialized_on_a_big_cluster():
    """A 2-rank job on 2048 nodes must touch O(active), not O(cluster)."""
    cluster = Cluster(ClusterSpec(n_nodes=2048))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0))
    spec = JobSpec(
        app=barrier_benchmark,
        n_ranks=2,
        name="tiny",
        params=dict(granularity=us(300), iterations=4),
    )
    job = runtime.run_job(spec, max_time=seconds(60))
    active = len(job.nodes)
    # Management node + the job's nodes, nothing else.
    assert active < 8
    assert runtime.node_runtimes.materialized_count <= active
    assert cluster.nodes.materialized_count <= active + 1
    # The arena still covers the whole machine — compute nodes plus the
    # management node — because flat arrays are cheap at any scale.
    assert len(runtime.arena.mphase_done) == 2049


# -- arena and GAS array slots -------------------------------------------------


def test_arena_activation_tracking():
    arena = NodeArena(16)
    assert arena.n_active == 0
    arena.activate([3, 1, 7])
    arena.activate([1])  # idempotent
    assert arena.n_active == 3
    assert list(arena.active_ids()) == [1, 3, 7]
    assert arena.mphase_done.dtype == np.int64


def test_gas_array_slot_reads_and_batch_increments():
    gas = GlobalAddressSpace(32)
    arr = np.zeros(32, dtype=np.int64)
    gas.register_array("ctr", arr)
    # Batched increment, per-node write, and read all hit one storage.
    gas.increment_batch([2, 5, 30], "ctr")
    gas.increment_batch(list(range(0, 32, 2)), "ctr", delta=2)
    gas.write(5, "ctr", 10)
    assert gas.read(5, "ctr") == 10
    assert gas.read(2, "ctr") == 3
    assert gas.read(30, "ctr") == 3
    assert gas.read(3, "ctr") == 0
    assert arr[2] == 3  # the array IS the storage


def test_gas_increment_batch_without_registered_array():
    """Plain dict-backed addresses accept batched increments too."""
    gas = GlobalAddressSpace(8)
    gas.write(1, "x", 5)
    gas.increment_batch([0, 1], "x")
    assert gas.read(0, "x", default=0) == 1
    assert gas.read(1, "x") == 6


# -- the cached strobe timeout -------------------------------------------------


def test_strobe_latency_matches_oracle_multicast_duration():
    """``Fabric.strobe_latency`` must equal the reference generator's cost."""
    cluster = Cluster(ClusterSpec(n_nodes=16))
    fabric = cluster.fabric
    for n_dests in (1, 2, 7, 15):
        env = Engine()
        fabric.env = env

        def run(n=n_dests):
            yield from fabric.control_multicast(
                16, range(n), 64, n_dests=n
            )

        env.process(run())
        env.run()
        assert env.now == fabric.strobe_latency(64, n_dests)
    # Restore the cluster's own engine for hygiene.
    fabric.env = cluster.env
