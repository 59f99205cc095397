"""Differential suite for the batched transmission phase.

On the fast path a P2P microphase whose window is
closed is not run as one DMA Helper process per chunk: the kernel
(:func:`repro.bcs.threads.solve_transmission` over
:meth:`repro.network.fabric.Fabric.solve_unicasts`) computes every
chunk's completion instant in one pass, and the Strobe Sender replays
the deliveries.  These tests run random grant sets through both paths
on fresh engines and demand the same instants, the same delivery order,
the same request completion times and the same counters; then they
check that each guard condition forces the per-chunk fallback without
moving virtual time, and that whole runs stay identical to the
reference path (``BcsConfig(reference=True)``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    barrier_benchmark,
    nearest_neighbor_benchmark,
    sage,
    sweep3d_blocking,
)
from repro.bcs import BcsConfig, BcsRequest, BcsRuntime, Match, RecvDescriptor, SendDescriptor
from repro.bcs.scheduler import Grants
from repro.bcs.threads import solve_transmission
from repro.network import Cluster, ClusterSpec
from repro.network.model import by_name
from repro.obs import Observability
from repro.pfs import PfsService
from repro.sim import Trace
from repro.storm import JobSpec
from repro.units import kib, mib, ms, seconds, us

MODELS = ("qsnet", "bluegene_l_torus")

#: Counters a run reports beyond the existing ones: the guard-hit pair.
KERNEL_STATS = ("p2p_phases_solved", "p2p_phases_fallback")


def _kernel_stat(key):
    """Counters only the fast path keeps: idle slices it skipped, every
    kernel's guard-hit pair (``<phase>_phases_solved/fallback``) and
    fallback reasons."""
    return (
        key == "idle_slices_skipped"
        or key.endswith(("_phases_solved", "_phases_fallback"))
        or "_fallback." in key
    )


# -- kernel vs per-chunk processes on one microphase ------------------------------


def _machine(model, n_nodes, trace=None):
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes, model=by_name(model)), trace=trace)
    return cluster, BcsRuntime(cluster, BcsConfig(init_cost=0))


def _grants(runtime, spec):
    """One slice's grants from ``(src, dst, total, before, chunk)`` rows."""
    env = runtime.env
    granted = Grants()
    for i, (src, dst, total, before, chunk) in enumerate(spec):
        send = SendDescriptor(0, 0, src, dst, i, total, BcsRequest(env, "send"), payload=i)
        recv = RecvDescriptor(0, 0, dst, src, i, total, BcsRequest(env, "recv"))
        granted.add(Match(send, recv, src, dst, total, bytes_done=before, scheduled_now=chunk))
    return granted


def _record(runtime, granted):
    """Shadow every involved DMA Helper's ``land``/``_deliver`` to log them."""
    landed, delivered = [], []
    index = {id(m): i for i, m in enumerate(granted)}
    env = runtime.env
    for dst in granted.by_dst:
        dh = runtime.agents[dst].dh

        def land(match, t0=0, _land=dh.land):
            landed.append((index[id(match)], env.now))
            _land(match, t0)

        def deliver(match, _deliver=dh._deliver):
            delivered.append((index[id(match)], env.now))
            _deliver(match)

        dh.land = land
        dh._deliver = deliver
    return landed, delivered


def _outcome(cluster, runtime, granted, end, delivered):
    fabric = cluster.fabric
    return dict(
        end=end,
        delivered=delivered,
        completed_at=[
            (m.recv.request.completed_at, m.send.request.completed_at) for m in granted
        ],
        progress=[(m.bytes_done, m.scheduled_now) for m in granted],
        fabric=(fabric.transfers, fabric.bytes_moved),
        stats=dict(runtime.stats),
    )


def _run_processes(model, n_nodes, spec):
    """The reference: one DMA Helper process per chunk, as the SRs spawn them."""
    cluster, runtime = _machine(model, n_nodes)
    env = runtime.env
    granted = _grants(runtime, spec)
    landed, delivered = _record(runtime, granted)
    phases = [
        env.process(runtime.agents[dst].dh.p2p_phase(granted))
        for dst in sorted(granted.by_dst)
    ]
    env.run(until=env.all_of(phases))
    return landed, _outcome(cluster, runtime, granted, env.now, delivered)


def _run_kernel(model, n_nodes, spec):
    """The kernel: solve the phase, then replay it as the Strobe Sender does."""
    cluster, runtime = _machine(model, n_nodes)
    env = runtime.env
    granted = _grants(runtime, spec)
    queues = [
        (
            cluster.fabric.nics[dst].thread_processor,
            [(m.src_node, dst, m.scheduled_now) for m in granted.by_dst[dst]],
        )
        for dst in sorted(granted.by_dst)
    ]
    solved = cluster.fabric.solve_unicasts(queues, runtime.config.nic_descriptor_cost)
    plan = solve_transmission(runtime, granted)
    assert solved is not None and plan is not None
    _, delivered = _record(runtime, granted)
    env.run(until=env.process(runtime.ss._replay(plan, sorted(granted.by_dst))))
    flat = [m for dst in sorted(granted.by_dst) for m in granted.by_dst[dst]]
    index = {id(m): i for i, m in enumerate(granted)}
    done, order, end = solved
    assert end == plan.end
    landed = [(index[id(flat[k])], done[k]) for k in order]
    return landed, _outcome(cluster, runtime, granted, env.now, delivered)


def _assert_identical(model, n_nodes, spec):
    ref_landed, ref = _run_processes(model, n_nodes, spec)
    landed, out = _run_kernel(model, n_nodes, spec)
    assert landed == ref_landed, "per-chunk completion instants/order"
    assert out == ref


@st.composite
def grant_sets(draw):
    """Random slices: fan-in, fan-out, loopback, zero-byte and partial chunks."""
    n_nodes = draw(st.sampled_from([2, 4, 8, 16]))
    node = st.integers(0, n_nodes - 1)
    rows = []
    for _ in range(draw(st.integers(1, 24))):
        src = draw(node)
        dst = src if draw(st.integers(0, 5)) == 0 else draw(node)
        total = draw(st.sampled_from([0, 1, 64, 241, 851, kib(4), kib(60), kib(256)]))
        before = draw(st.integers(0, total)) if total and draw(st.booleans()) else 0
        chunk = draw(st.integers(1, total - before)) if total > before else 0
        rows.append((src, dst, total, before, chunk))
    return n_nodes, rows


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS), case=grant_sets())
def test_kernel_matches_per_chunk_processes(model, case):
    n_nodes, rows = case
    _assert_identical(model, n_nodes, rows)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize(
    "rows",
    [
        # many-to-one fan-in on one rx half
        [(s, 0, kib(4), 0, kib(4)) for s in (1, 2, 3, 4, 5, 6, 7)],
        # one tx half feeding several destinations
        [(0, d, kib(4), 0, kib(4)) for d in (1, 2, 3, 4, 5, 6, 7)],
        # loopback next to remote traffic into the same node
        [(3, 3, kib(4), 0, kib(4)), (2, 3, kib(4), 0, kib(4)), (3, 3, 0, 0, 0)],
        # zero-byte matches still pay the NIC hold and a header on the wire
        [(1, 2, 0, 0, 0), (2, 1, 0, 0, 0), (1, 2, 0, 0, 0)],
        # multi-slice remainders: partial chunks deliver nothing
        [(0, 1, kib(256), 0, kib(60)), (2, 1, kib(256), kib(200), kib(56)), (1, 0, 64, 0, 64)],
        # crossing pairs: tx of one transfer is the rx side of another
        [(0, 1, kib(60), 0, kib(60)), (1, 0, kib(60), 0, kib(60)), (1, 2, 64, 0, 64),
         (2, 0, kib(4), 0, kib(4)), (0, 2, 1, 0, 1)],
        # rx queue order (qsnet: 241 B holds a link 2 us, 851 B 4 us): at
        # 3 us the tx of 4 frees and is granted to 4->0 in the same
        # instant 2->0 finds rx 0 busy; 4->0 queues on rx 0 first because
        # 2->0 gives its tx back and re-requests it (one more event hop).
        [(6, 0, 851, 0, 851), (4, 0, 241, 0, 241), (2, 0, 241, 0, 241), (4, 5, 241, 0, 241)],
    ],
    ids=["fan-in", "fan-out", "loopback", "zero-byte", "multi-slice", "crossing", "rx-order"],
)
def test_kernel_matches_per_chunk_processes_on_shaped_slices(model, rows):
    _assert_identical(model, 8, rows)


# -- each guard forces the per-chunk path ------------------------------------------


ROWS = [(0, 1, kib(4), 0, kib(4)), (2, 1, kib(4), 0, kib(4)), (1, 3, kib(4), 0, kib(4))]


def _fresh_grants(trace=None):
    cluster, runtime = _machine("qsnet", 4, trace=trace)
    return cluster, runtime, _grants(runtime, ROWS)


def test_closed_window_is_solved():
    _, runtime, granted = _fresh_grants()
    assert solve_transmission(runtime, granted) is not None


def test_outside_event_inside_the_window_forces_fallback():
    cluster, runtime, granted = _fresh_grants()
    plan_end = solve_transmission(runtime, _grants(runtime, ROWS)).end
    cluster.env.timeout(plan_end)  # lands exactly at the last chunk
    assert solve_transmission(runtime, granted) is None


def test_outside_event_after_the_window_keeps_the_kernel():
    cluster, runtime, granted = _fresh_grants()
    plan_end = solve_transmission(runtime, _grants(runtime, ROWS)).end
    cluster.env.timeout(plan_end + 1)
    assert solve_transmission(runtime, granted) is not None


@pytest.mark.parametrize("link", ["rx", "tx", "thread_processor"])
def test_busy_resource_at_phase_start_forces_fallback(link):
    cluster, runtime, granted = _fresh_grants()
    node = 0 if link == "tx" else 1
    assert getattr(cluster.fabric.nics[node], link).try_acquire()
    assert solve_transmission(runtime, granted) is None


def test_system_class_grant_forces_fallback():
    _, runtime, granted = _fresh_grants()
    granted[1].system = True
    assert solve_transmission(runtime, granted) is None


def test_telemetry_forces_fallback():
    _, runtime, granted = _fresh_grants()
    runtime.attach_observability(Observability(spans=True))
    assert solve_transmission(runtime, granted) is None


def test_unicast_tracing_forces_fallback():
    _, runtime, granted = _fresh_grants(trace=Trace(categories=["fabric.unicast"]))
    assert solve_transmission(runtime, granted) is None


# -- end to end: fast path vs the reference -----------------------------------------


def _signature(runtime, jobs):
    stats = {k: v for k, v in runtime.stats.items() if not _kernel_stat(k)}
    fabric = runtime.cluster.fabric
    return (
        [(j.started_at, j.finished_at, j.results) for j in jobs],
        stats,
        (fabric.transfers, fabric.bytes_moved),
    )


def _run(fast, plans, n_nodes, setup=None, obs=None, model="qsnet"):
    """Run ``plans`` (app, n_ranks, params, placement) together on one machine."""
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes, model=by_name(model)))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, reference=not fast))
    if obs is not None:
        runtime.attach_observability(obs)
    if setup is not None:
        setup(cluster, runtime)
    jobs = [
        runtime.launch(JobSpec(app=app, n_ranks=n, name=f"j{i}", params=params), placement)
        for i, (app, n, params, placement) in enumerate(plans)
    ]
    env = cluster.env
    env.run(until=env.any_of([env.all_of([j.done for j in jobs]), env.timeout(seconds(60))]))
    assert all(j.complete for j in jobs)
    return runtime, _signature(runtime, jobs)


def _assert_fast_matches_reference(plans, n_nodes, setup=None, model="qsnet"):
    fast, fast_sig = _run(True, plans, n_nodes, setup, model=model)
    _, ref_sig = _run(False, plans, n_nodes, setup, model=model)
    assert fast_sig == ref_sig
    return fast.stats


def _paired(nodes, n_ranks):
    return [nodes[r // 2] for r in range(n_ranks)]


@pytest.mark.parametrize("model", MODELS)
def test_dense_nearest_neighbour_256_ranks(model):
    params = dict(granularity=ms(1), iterations=4, n_neighbors=4, message_bytes=kib(4))
    plans = [(nearest_neighbor_benchmark, 256, params, _paired(list(range(128)), 256))]
    stats = _assert_fast_matches_reference(plans, 128, model=model)
    assert stats["p2p_phases_solved"] > 0


def test_mixed_sage_sweep3d_barrier():
    plans = [
        (sage, 16, dict(steps=4, step_compute=ms(2), boundary_bytes=kib(128)),
         _paired(list(range(0, 8)), 16)),
        (sweep3d_blocking, 16, dict(octants=4, kblocks=2, step_compute=ms(1)),
         _paired(list(range(8, 16)), 16)),
        (barrier_benchmark, 8, dict(granularity=ms(1), iterations=10),
         _paired(list(range(16, 20)), 8)),
        (nearest_neighbor_benchmark, 8, dict(granularity=ms(1), iterations=10),
         _paired(list(range(20, 24)), 8)),
    ]
    stats = _assert_fast_matches_reference(plans, 24)
    # Multi-slice sage boundaries and blocking sweeps: both paths ran.
    assert stats["p2p_phases_solved"] > 0
    assert stats["chunks_moved"] > stats["messages_delivered"]


NN = [(nearest_neighbor_benchmark, 16, dict(granularity=ms(1), iterations=8),
       _paired(list(range(8)), 16))]


def test_outside_timeouts_inside_windows_take_the_fallback():
    def ticker(cluster, runtime):
        def tick():
            for _ in range(4000):
                yield cluster.env.timeout(us(7))

        cluster.env.process(tick(), name="ticker")

    stats = _assert_fast_matches_reference(NN, 8, ticker)
    assert stats["p2p_phases_fallback"] > 0


def test_busy_rx_half_at_phase_start_takes_the_fallback():
    def hog(cluster, runtime):
        # Long transfers from an idle node into a rank's node keep that
        # rx half busy across several P2P microphases.
        def stream():
            for _ in range(3):
                yield from cluster.fabric.unicast(9, 0, mib(2), label="hog")

        cluster.env.process(stream(), name="hog")

    stats = _assert_fast_matches_reference(NN, 10, hog)
    assert stats["p2p_phases_fallback"] > 0


def test_system_class_pfs_traffic_takes_the_fallback():
    def writer(cluster, runtime):
        pfs = PfsService(runtime, io_nodes=[8, 9])

        def write():
            for i in range(6):
                pfs.write(i % 8, f"bg{i}", mib(1))
                yield cluster.env.timeout(ms(2))

        cluster.env.process(write(), name="pfs.bg")

    stats = _assert_fast_matches_reference(NN, 10, writer)
    assert stats["pfs_stripes_written"] > 0
    assert stats["p2p_phases_fallback"] > 0


def test_spans_take_the_object_path_with_identical_times():
    fast, fast_sig = _run(True, NN, 8)
    traced, traced_sig = _run(True, NN, 8, obs=Observability(spans=True))
    _, ref_sig = _run(False, NN, 8, obs=Observability(spans=True))
    assert traced.stats["p2p_phases_solved"] == 0
    assert traced.stats["p2p_phases_fallback"] == fast.stats["p2p_phases_solved"] + (
        fast.stats["p2p_phases_fallback"]
    )
    assert traced_sig == ref_sig
    assert traced_sig[0] == fast_sig[0]


def test_reference_path_never_counts_kernel_phases():
    runtime, _ = _run(False, NN, 8)
    assert not any(runtime.stats[k] for k in KERNEL_STATS)
