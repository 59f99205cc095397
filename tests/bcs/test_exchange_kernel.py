"""Differential suite for the batched scheduling phase.

With ``BcsConfig.batched_matching`` a Descriptor Exchange or Message
Scheduling microphase whose guards hold is not run as one Strobe
Receiver process per node: the kernels
(:func:`repro.bcs.threads.solve_exchange` over the chained mode of
:meth:`repro.network.fabric.Fabric.solve_unicasts`, and
:func:`repro.bcs.threads.solve_scheduling`) solve the whole microphase
at the strobe instant and the Strobe Sender replays it.  Unlike the
transmission kernel, ranks keep running inside the window.

These tests run random DEM/MSM batches through both paths on fresh
engines — with rank tickers acting inside the window — and demand the
same arrival instants, arrival order per node, matcher batch instants,
matcher state, collective flags, counters and phase ends; then they
check that each guard forces the per-node fallback without moving
virtual time, and that whole runs stay identical to the reference
engine (``batched_matching=False``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.bcs_api import BcsApi
from repro.apps import (
    barrier_benchmark,
    nearest_neighbor_benchmark,
    sage,
    sweep3d_blocking,
)
from repro.bcs import BcsConfig, BcsRequest, BcsRuntime, RankHandle
from repro.bcs.descriptors import (
    ANY_SOURCE,
    ANY_TAG,
    CollectiveDescriptor,
    RecvDescriptor,
    SendDescriptor,
)
from repro.bcs.strobe import DEM, MSM
from repro.bcs.threads import ScheduleWindowError, solve_exchange, solve_scheduling
from repro.network import Cluster, ClusterSpec
from repro.network.model import by_name
from repro.obs import Observability
from repro.pfs import PfsService
from repro.storm import JobSpec
from repro.storm.job import Job
from repro.units import kib, mib, ms, seconds, us

MODELS = ("qsnet", "bluegene_l_torus")

#: The strobe instant of the single slice these tests drive (the slice
#: boundary is at 0, so everything posted at 0 is drainable).
T0 = 2_000
#: Time between the DEM's end and the MSM's start.
GAP = 500


def _kernel_stat(key):
    return key.endswith(("_phases_solved", "_phases_fallback")) or "_fallback." in key


def _park():
    return
    yield  # pragma: no cover


# -- one DEM + MSM on a fresh machine, by either path -------------------------------


class Bench:
    """A fresh machine with one registered job of two ranks per node.

    Nothing runs the strobe loop: the test posts descriptors at the slice
    boundary (t=0) and drives one DEM and one MSM microphase itself.
    """

    def __init__(self, model, n_nodes, cost=us(1)):
        self.cluster = Cluster(ClusterSpec(n_nodes=n_nodes, model=by_name(model)))
        self.runtime = runtime = BcsRuntime(
            self.cluster, BcsConfig(init_cost=0, nic_descriptor_cost=cost)
        )
        self.env = env = self.cluster.env
        n_ranks = 2 * n_nodes
        self.job = job = Job(
            env, JobSpec(app=_park, n_ranks=n_ranks, name="k"), [r // 2 for r in range(n_ranks)]
        )
        runtime.jobs[job.id] = job
        runtime.register_comm(job, range(n_ranks))
        runtime.arena.activate(job.nodes)
        runtime.active_node_ids = sorted(job.nodes)
        for node in job.nodes:
            runtime.receivers[node]
        self.labels = {}
        self.seq = {}
        # Arrivals in engine order; matcher batches per node (steps of
        # different nodes at one instant touch disjoint state, so their
        # relative order is not observable).
        self.log = {"arrived": [], "batches": {n: [] for n in job.nodes}}
        for node in job.nodes:
            self._shadow(runtime.node_rt(node))

    def _label(self, desc):
        self.labels[id(desc)] = len(self.labels)
        return desc

    def _shadow(self, nrt):
        env, log, labels = self.env, self.log, self.labels
        deliver = nrt.deliver_send

        def deliver_send(desc):
            log["arrived"].append((labels[id(desc)], nrt.node_id, env.now))
            deliver(desc)

        nrt.deliver_send = deliver_send
        matcher = nrt.matcher
        for name in ("add_recv_batch", "add_send_batch"):
            batch = getattr(matcher, name)

            def logged(descs, _batch=batch, _name=name):
                log["batches"][nrt.node_id].append((_name, env.now, [labels[id(d)] for d in descs]))
                return _batch(descs)

            setattr(matcher, name, logged)

    # descriptors ------------------------------------------------------------------

    def send(self, src, dst, tag, job_id=None):
        key = (src, dst)
        seq = self.seq.get(key, 0)
        self.seq[key] = seq + 1
        desc = SendDescriptor(
            self.job.id if job_id is None else job_id, 0, src, dst, tag, 64,
            BcsRequest(self.env, "send"), payload=len(self.labels), seq=seq,
        )
        self.runtime.node_rt(src // 2).post_send(self._label(desc))

    def recv(self, rank, source, tag):
        desc = RecvDescriptor(self.job.id, 0, rank, source, tag, kib(1), BcsRequest(self.env, "recv"))
        self.runtime.node_rt(rank // 2).post_recv(self._label(desc))
        return desc

    def barrier(self, rank):
        desc = CollectiveDescriptor(self.job.id, 0, "barrier", rank, 0, 1, BcsRequest(self.env, "barrier"))
        self.runtime.node_rt(rank // 2).post_collective(self._label(desc))

    # ranks ---------------------------------------------------------------------------

    def rank(self, world_rank, body):
        """Start ``body(handle)`` as a live rank process of the job."""
        handle = RankHandle(self.runtime, self.job, world_rank)
        proc = self.env.process(body(handle), name=f"k.r{world_rank}")
        self.runtime.rank_procs[(self.job.id, world_rank)] = proc
        return proc

    def parked(self, world_rank):
        """A rank blocked until the next slice boundary: the job's witness."""

        def body(handle):
            yield handle.nrt.slice_start.wait()

        return self.rank(world_rank, body)

    def ticker(self, world_rank, period, ticks, post=False):
        """A rank acting every ``period`` ns, optionally posting each time."""

        def body(handle):
            for _ in range(ticks):
                yield self.env.timeout(period)
                if post:
                    self.send(world_rank, (world_rank + 1) % (2 * len(self.job.nodes)), 7)

        return self.rank(world_rank, body)

    # the two microphases ---------------------------------------------------------------

    def drive(self, kernel):
        """Run DEM then MSM at ``T0``; returns the outcome (both paths alike)."""
        runtime, env = self.runtime, self.env
        ss = runtime.ss
        out = {}

        def phase(name, nodes, solve):
            if not nodes:
                return
            plan = None
            if kernel:
                plan = solve(runtime, nodes)
                out[name + "_solved"] = plan is not None
            if plan is not None:
                yield from ss._replay(plan, nodes)
            else:
                yield from ss._dispatch(name, nodes, None)

        def driver():
            yield env.timeout(T0)
            yield from phase(DEM, runtime.dem_nodes(), solve_exchange)
            out["dem_end"] = env.now
            out["arrived_sends"] = {
                n: [self.labels[id(d)] for d in runtime.node_rt(n).arrived_sends]
                for n in self.job.nodes
            }
            yield env.timeout(GAP)
            yield from phase(MSM, runtime.msm_nodes(), solve_scheduling)
            out["msm_end"] = env.now

        env.run(until=env.process(driver()))
        return self.outcome(out)

    def outcome(self, out):
        runtime, labels = self.runtime, self.labels
        fabric = self.cluster.fabric
        nodes = {}
        for n in self.job.nodes:
            nrt = runtime.node_rt(n)
            nodes[n] = dict(
                unexpected=[labels[id(d)] for d in nrt.matcher.unexpected],
                posted=[labels[id(d)] for d in nrt.matcher.posted],
                matches=[(labels[id(m.send)], labels[id(m.recv)], m.src_node) for m in nrt.new_matches],
                fifo=[len(nrt.posted_sends), len(nrt.posted_recvs), len(nrt.posted_colls)],
                cflag=runtime.core.gas.read(n, ("cflag", self.job.id, 0), 0),
                epochs={c: sorted((e, len(ep.descs)) for e, ep in v.items()) for (_, c), v in nrt.coll_state.items()},
                phases=runtime.receivers[n].completed_phases,
            )
        return dict(
            out,
            log=self.log,
            nodes=nodes,
            stats={k: v for k, v in runtime.stats.items() if not _kernel_stat(k)},
            fabric=(fabric.transfers, fabric.bytes_moved),
        )


def _build(model, n_nodes, cost, sends, recvs, colls, tick):
    bench = Bench(model, n_nodes, cost)
    for src, dst, tag in sends:
        bench.send(src, dst, tag)
    for rank, source, tag in recvs:
        bench.recv(rank, source, tag)
    for rank in colls:
        bench.barrier(rank)
    bench.parked(0)
    if tick is not None:
        period, post = tick
        bench.ticker(1, period, (T0 + 200_000) // period, post=post)
        bench.ticker(2 * n_nodes - 1, period + 3, (T0 + 100_000) // period)
    return bench


def _assert_identical(model, n_nodes, cost, sends, recvs, colls, tick):
    ref = _build(model, n_nodes, cost, sends, recvs, colls, tick).drive(kernel=False)
    fast = _build(model, n_nodes, cost, sends, recvs, colls, tick).drive(kernel=True)
    assert fast.pop(DEM + "_solved", True), "DEM kernel declined"
    msm_solved = fast.pop(MSM + "_solved", True)
    assert fast == ref
    return msm_solved


@st.composite
def batches(draw):
    """Random slices: fan-in, loopback, wildcards, receive/collective-only nodes."""
    n_nodes = draw(st.sampled_from([2, 4, 8]))
    rank = st.integers(0, 2 * n_nodes - 1)
    fan_in = draw(st.booleans())
    sends = []
    for _ in range(draw(st.integers(0, 24))):
        src = draw(rank)
        dst = draw(st.integers(0, 2)) if fan_in else draw(rank)
        sends.append((src, dst, draw(st.integers(0, 3))))
    recvs = []
    for _ in range(draw(st.integers(0, 16))):
        source = draw(st.one_of(st.just(ANY_SOURCE), rank))
        tag = draw(st.one_of(st.just(ANY_TAG), st.integers(0, 3)))
        recvs.append((draw(rank), source, tag))
    colls = draw(st.lists(rank, unique=True, max_size=2 * n_nodes))
    cost = draw(st.sampled_from([0, us(1), 333]))
    tick = draw(st.sampled_from([None, (700, False), (1_000, True), (3_301, True)]))
    return n_nodes, cost, sends, recvs, colls, tick


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS), case=batches())
def test_kernel_matches_strobe_receivers(model, case):
    _assert_identical(model, *case)


FAN_IN = [(s, 0, 1) for s in range(2, 16)] + [(s, 1, 1) for s in range(3, 16, 2)]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("cost", [0, us(1)])
@pytest.mark.parametrize(
    "sends, recvs, colls",
    [
        # many-to-one fan-in on the receive halves of node 0
        (FAN_IN, [(0, ANY_SOURCE, 1), (1, ANY_SOURCE, ANY_TAG)], []),
        # loopback: both ranks of a node, next to remote traffic into it
        ([(0, 1, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, ANY_SOURCE, 0)], []),
        # receive-only and collective-only nodes beside a sender
        ([(0, 1, 2)], [(4, 0, 2), (5, ANY_SOURCE, ANY_TAG)], [6, 7]),
        # a complete local epoch on every node: flags advance, the MSM
        # root must issue a Compare-And-Write (the MSM kernel declines)
        ([(3, 4, 1)], [(4, 3, 1)], list(range(8))),
        # wildcard receives posted before the sends they match
        ([(s, 2, s % 3) for s in range(8)], [(2, ANY_SOURCE, ANY_TAG)] * 3 + [(2, 5, ANY_TAG)], []),
    ],
    ids=["fan-in", "loopback", "recv-coll-only", "caw-root", "wildcards"],
)
def test_kernel_matches_strobe_receivers_on_shaped_slices(model, cost, sends, recvs, colls):
    n_nodes = 8
    msm_solved = _assert_identical(model, n_nodes, cost, sends, recvs, colls, (1_000, True))
    assert msm_solved == (colls != list(range(8)))


def test_posts_inside_the_window_wait_for_the_next_slice():
    bench = _build("qsnet", 4, us(1), [(0, 3, 0), (2, 3, 0)], [], [], (500, True))
    out = bench.drive(kernel=True)
    assert out[DEM + "_solved"] and out[MSM + "_solved"]
    assert bench.log["arrived"] and all(t > T0 for _, _, t in bench.log["arrived"])
    # The ticker posted on every tick; none of it was drained.
    assert out["nodes"][0]["fifo"][0] > 0


# -- each guard forces the per-node path --------------------------------------------


def _guarded():
    bench = Bench("qsnet", 4)
    bench.send(0, 3, 0)
    bench.send(2, 7, 1)
    bench.recv(3, ANY_SOURCE, 0)
    bench.parked(0)
    bench.ticker(1, 700, 50)
    return bench


def _solve_at_t0(bench):
    """Advance to the strobe instant and ask the DEM kernel (nothing is replayed)."""
    runtime = bench.runtime
    env = bench.env
    got = {}

    def driver():
        yield env.timeout(T0)
        got["plan"] = solve_exchange(runtime, runtime.dem_nodes())

    env.run(until=env.process(driver()))
    reasons = {k: v for k, v in runtime.stats.items() if k.startswith("sched_fallback.")}
    return got["plan"], reasons


def test_open_window_is_solved():
    plan, reasons = _solve_at_t0(_guarded())
    assert plan is not None and not reasons


def test_telemetry_forces_fallback():
    bench = _guarded()
    bench.runtime.attach_observability(Observability())
    assert _solve_at_t0(bench) == (None, {"sched_fallback.obs": 1})


def test_observed_br_state_forces_fallback():
    bench = _guarded()
    bench.runtime.br_observed = True
    assert _solve_at_t0(bench) == (None, {"sched_fallback.br_observed": 1})


def test_system_class_descriptor_forces_fallback():
    bench = _guarded()
    bench.send(4, 5, 0, job_id=-1)
    assert _solve_at_t0(bench) == (None, {"sched_fallback.system": 1})


@pytest.mark.parametrize("link", ["rx", "tx", "thread_processor"])
def test_busy_resource_forces_fallback(link):
    bench = _guarded()
    node = {"rx": 1, "tx": 0, "thread_processor": 1}[link]
    assert getattr(bench.cluster.fabric.nics[node], link).try_acquire()
    assert _solve_at_t0(bench) == (None, {"sched_fallback.busy": 1})


def test_foreign_process_inside_the_window_forces_fallback():
    bench = _guarded()

    def outsider():
        yield bench.env.timeout(T0 + 1)

    bench.env.process(outsider())
    assert _solve_at_t0(bench) == (None, {"sched_fallback.foreign_event": 1})


def test_inert_event_inside_the_window_keeps_the_kernel():
    bench = _guarded()
    bench.env.timeout(T0 + 1)  # nobody waits on it
    plan, reasons = _solve_at_t0(bench)
    assert plan is not None and not reasons


def test_job_without_a_witness_forces_fallback():
    bench = Bench("qsnet", 4)
    bench.send(0, 3, 0)
    bench.ticker(1, 700, 50)  # the only live rank acts inside the window
    assert _solve_at_t0(bench) == (None, {"sched_fallback.job_may_finish": 1})


def test_rank_waiting_on_a_request_is_a_witness():
    bench = Bench("qsnet", 4)
    bench.send(0, 3, 0)
    bench.ticker(1, 700, 50)
    pending = BcsRequest(bench.env, "recv")

    def blocked(handle):
        yield from handle.nm.block_on([pending])

    bench.rank(2, blocked)
    plan, reasons = _solve_at_t0(bench)
    assert plan is not None and not reasons


def test_rank_queued_on_the_host_cpu_is_no_witness():
    bench = Bench("qsnet", 4)
    bench.send(0, 3, 0)
    bench.ticker(1, 700, 50)
    cpu = bench.cluster.node(1).cpu
    for _ in range(cpu.capacity):
        assert cpu.try_acquire()

    def queued(handle):
        yield cpu.request()

    bench.rank(3, queued)
    assert _solve_at_t0(bench) == (None, {"sched_fallback.job_may_finish": 1})


def test_schedulable_collective_forces_msm_fallback():
    bench = _guarded()
    for rank in range(8):
        bench.barrier(rank)
    out = bench.drive(kernel=True)
    assert out[DEM + "_solved"] and not out[MSM + "_solved"]
    assert bench.runtime.stats["sched_fallback.collective"] == 1


# -- rank reads of BR state inside an open window ------------------------------------


def test_first_cancel_before_the_drain_is_exact():
    """A cancel between the strobe and its node's drain shrinks the drain."""
    outcomes = []
    for kernel in (False, True):
        bench = Bench("qsnet", 4)
        for src in (2, 4, 5, 6):
            bench.send(src, 0, 0)
        bench.send(0, 6, 0)
        bench.send(1, 7, 0)  # node 0's chain ends well after T0
        victim = bench.recv(0, ANY_SOURCE, 5)
        bench.recv(0, ANY_SOURCE, 0)
        bench.parked(3)
        api = BcsApi(bench.runtime)

        def canceller(handle, victim=victim, bench=bench, api=api):
            yield bench.env.timeout(T0 + 10)
            assert len(bench.runtime.node_rt(0).posted_recvs) == 2  # not drained yet
            assert api.cancel_recv(handle, victim.request)

        bench.rank(1, canceller)
        outcomes.append(bench.drive(kernel=kernel))
    ref, fast = outcomes
    # The DEM was already open; the MSM sees the sticky flag.
    assert fast.pop(DEM + "_solved") is True
    assert fast.pop(MSM + "_solved") is False
    assert fast == ref
    assert fast["stats"]["recvs_cancelled"] == 1
    victim_label = 6  # posted after the six sends
    drained = [labels for _, _, labels in fast["log"]["batches"][0]]
    assert drained and all(victim_label not in labels for labels in drained)


def test_cancel_on_the_instant_of_its_nodes_drain_is_refused_by_name():
    bench = Bench("qsnet", 4)
    bench.send(2, 5, 0)  # node 0 has no sends: it drains at the strobe instant
    victim = bench.recv(0, ANY_SOURCE, 5)
    bench.parked(3)
    api = BcsApi(bench.runtime)
    env = bench.env

    def canceller(handle):
        # Wake at the strobe instant, after the kernel has opened.
        yield env.timeout(T0)
        yield env.timeout(0)
        api.cancel_recv(handle, victim.request)

    bench.rank(1, canceller)
    with pytest.raises(ScheduleWindowError) as err:
        bench.drive(kernel=True)
    assert (err.value.node_id, err.value.instant, err.value.call) == (0, T0, "cancel_recv")
    assert "node 0" in str(err.value) and f"t={T0}" in str(err.value)


# -- end to end: batched engine vs the reference -----------------------------------


def _signature(runtime, jobs):
    stats = {k: v for k, v in runtime.stats.items() if not _kernel_stat(k)}
    fabric = runtime.cluster.fabric
    return (
        [(j.started_at, j.finished_at, j.results) for j in jobs],
        stats,
        (fabric.transfers, fabric.bytes_moved),
    )


def _run(batched, plans, n_nodes, setup=None, obs=None, model="qsnet"):
    """Run ``plans`` (app, n_ranks, params, placement) together on one machine."""
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes, model=by_name(model)))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, batched_matching=batched))
    if obs is not None:
        runtime.attach_observability(obs)
    jobs = [
        runtime.launch(JobSpec(app=app, n_ranks=n, name=f"j{i}", params=params), placement)
        for i, (app, n, params, placement) in enumerate(plans)
    ]
    if setup is not None:
        setup(cluster, runtime, jobs)
    env = cluster.env
    env.run(until=env.any_of([env.all_of([j.done for j in jobs]), env.timeout(seconds(60))]))
    assert all(j.complete for j in jobs)
    return runtime, _signature(runtime, jobs)


def _assert_batched_matches_reference(plans, n_nodes, setup=None, model="qsnet"):
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
    stats = _assert_batched_matches_reference(plans, 128, model=model)
    assert stats["dem_phases_solved"] == stats["active_slices"]
    assert stats["msm_phases_solved"] == stats["active_slices"]
    assert not stats["dem_phases_fallback"] and not stats["msm_phases_fallback"]


def test_mixed_sage_sweep3d_barrier_nn():
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
    stats = _assert_batched_matches_reference(plans, 24)
    assert stats["dem_phases_solved"] > 0 and stats["msm_phases_solved"] > 0
    # Barrier epochs make their root issue Compare-And-Write queries.
    assert stats["sched_fallback.collective"] > 0


NN = [(nearest_neighbor_benchmark, 16, dict(granularity=ms(1), iterations=8),
       _paired(list(range(8)), 16))]


def test_non_rank_ticker_takes_the_fallback():
    def ticker(cluster, runtime, jobs):
        def tick():
            for _ in range(4000):
                yield cluster.env.timeout(us(7))

        cluster.env.process(tick(), name="ticker")

    stats = _assert_batched_matches_reference(NN, 8, ticker)
    assert stats["sched_fallback.foreign_event"] > 0


def test_link_hog_takes_the_fallback():
    def hog(cluster, runtime, jobs):
        # Long transfers from an idle node into a rank's node keep that
        # rx half busy across several strobes.
        def stream():
            for _ in range(3):
                yield from cluster.fabric.unicast(9, 0, mib(2), label="hog")

        cluster.env.process(stream(), name="hog")

    stats = _assert_batched_matches_reference(NN, 10, hog)
    assert stats["sched_fallback.busy"] > 0


def test_pfs_traffic_takes_the_fallback():
    def writer(cluster, runtime, jobs):
        pfs = PfsService(runtime, io_nodes=[8, 9])

        def write():
            for i in range(6):
                pfs.write(i % 8, f"bg{i}", mib(1))
                yield cluster.env.timeout(ms(2))

        cluster.env.process(write(), name="pfs.bg")

    stats = _assert_batched_matches_reference(NN, 10, writer)
    assert stats["pfs_stripes_written"] > 0
    assert stats["dem_phases_fallback"] + stats["msm_phases_fallback"] > 0


def test_spans_take_the_object_path_with_identical_times():
    fast, fast_sig = _run(True, NN, 8)
    traced, traced_sig = _run(True, NN, 8, obs=Observability(spans=True))
    _, ref_sig = _run(False, NN, 8, obs=Observability(spans=True))
    assert traced.stats["dem_phases_solved"] == traced.stats["msm_phases_solved"] == 0
    assert traced.stats["sched_fallback.obs"] == (
        fast.stats["dem_phases_solved"] + fast.stats["msm_phases_solved"]
    )
    assert traced_sig == ref_sig
    assert traced_sig[0] == fast_sig[0]


def _dem_windows(plans, n_nodes, setup=None):
    """``(start, predicted end)`` of every solved DEM window of a batched run."""
    from repro.bcs import threads

    windows = []
    host_only = threads._host_only

    def spy(runtime, end):
        reason = host_only(runtime, end)
        if reason is None and runtime.env.now not in {w[0] for w in windows}:
            windows.append((runtime.env.now, end))
        return reason

    threads._host_only = spy
    try:
        _run(True, plans, n_nodes, setup)
    finally:
        threads._host_only = host_only
    return windows


def _finisher(ctx, at):
    yield from ctx.compute(at)


def test_job_whose_last_rank_finishes_inside_the_window():
    nn = [(nearest_neighbor_benchmark, 8, dict(granularity=ms(1), iterations=4),
           _paired(list(range(4)), 8))]
    tax = BcsConfig().nm_compute_tax
    far = [(_finisher, 2, dict(at=ms(50)), [4, 5])]
    # Both ranks of the short job start at the first slice boundary and
    # finish inside a DEM window; the host computation is stretched by
    # the Node Manager tax, so pick an instant a whole duration lands on.
    first = BcsConfig().timeslice
    stretched = {}
    for start, end in _dem_windows(nn + far, 6):
        for d in range(int((start - first) / (1 + tax)) - 2, end - first):
            if start < first + d + int(d * tax) < end:
                stretched.setdefault(first + d + int(d * tax), d)
    at, duration = min(stretched.items())
    plans = nn + [(_finisher, 2, dict(at=duration), [4, 5])]
    fast, fast_sig = _run(True, plans, 6)
    _, ref_sig = _run(False, plans, 6)
    assert fast_sig == ref_sig
    assert fast_sig[0][1][1] == at
    assert fast.stats["sched_fallback.job_may_finish"] > 0

    def until_short_job(batched):
        """Stop the engine on the short job's ``done``: inside the window."""
        cluster = Cluster(ClusterSpec(n_nodes=6))
        runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, batched_matching=batched))
        jobs = [
            runtime.launch(JobSpec(app=app, n_ranks=n, name=f"j{i}", params=params), placement)
            for i, (app, n, params, placement) in enumerate(plans)
        ]
        cluster.env.run(until=jobs[1].done)
        assert cluster.env.now == at
        return _signature(runtime, jobs)

    assert until_short_job(True) == until_short_job(False)


def test_job_arrival_inside_the_window():
    start, _ = _dem_windows(NN, 10)[2]
    arrived = []

    def arrival(cluster, runtime, jobs):
        def later():
            yield cluster.env.timeout(start + 1)
            arrived.append(runtime.launch(
                JobSpec(app=nearest_neighbor_benchmark, n_ranks=4, name="late",
                        params=dict(granularity=ms(1), iterations=2)),
                [8, 8, 9, 9],
            ))
            yield arrived[-1].done

        cluster.env.process(later(), name="arrivals")

    def run(batched):
        arrived.clear()
        runtime, sig = _run(batched, NN, 10, arrival)
        cluster_env = runtime.env
        cluster_env.run(until=arrived[0].done)
        late = arrived[0]
        return runtime, sig, (late.started_at, late.finished_at, late.results)

    fast, fast_sig, fast_late = run(True)
    _, ref_sig, ref_late = run(False)
    assert (fast_sig, fast_late) == (ref_sig, ref_late)
    assert fast_late[0] == start + 1
    assert fast.stats["sched_fallback.foreign_event"] > 0


def _prober(ctx, iterations, use_cancel):
    """Nearest-neighbour exchange whose rank 0 also probes or cancels."""
    comm = ctx.comm
    peer = comm.rank ^ 1
    for it in range(iterations):
        yield from ctx.compute(ms(1))
        reqs = [comm.isend(it, dest=peer, tag=it), comm.irecv(source=peer, tag=it)]
        if comm.rank == 0 and it == 1:
            if use_cancel:
                stray = comm.irecv(source=peer, tag=999)
                yield from ctx.compute(us(5))
                assert comm.cancel(stray)
            else:
                comm.iprobe(source=peer, tag=it)
        yield from comm.waitall(reqs)


@pytest.mark.parametrize("use_cancel", [False, True], ids=["iprobe", "cancel"])
def test_rank_reads_of_br_state_close_later_windows(use_cancel):
    plans = [(_prober, 8, dict(iterations=6, use_cancel=use_cancel), _paired(list(range(4)), 8))]
    stats = _assert_batched_matches_reference(plans, 4)
    assert stats["dem_phases_solved"] > 0  # before the first read
    assert stats["sched_fallback.br_observed"] > 0  # every window after it


def test_reference_path_never_counts_kernel_phases():
    runtime, _ = _run(False, NN, 8)
    assert not any(_kernel_stat(k) for k in runtime.stats)
