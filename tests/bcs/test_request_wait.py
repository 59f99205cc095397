"""Blocking on BCS requests through one wait record per blocked call.

A request has no engine event of its own: a blocked call hangs one
:class:`~repro.bcs.descriptors.RequestWait` on its pending requests and
the last completion fires it — directly for one request, through one
relay event for several.  Those are the hops the per-request ``done``
events took (``yield req.done`` / an ``AllOf`` over them), so every
other event keeps its place in the engine order.

Each program here runs two ways on the fast path and must give the same
virtual times, results and counters:

- ``wait``: the ranks block through ``comm.wait``/``waitall`` and the
  blocking collectives, i.e. :meth:`NodeManager.block_on`;
- ``event``: ``block_on`` is replaced by the per-request event path —
  an ``AllOf`` over the lazily built ``req.done`` events, then the
  slice-boundary pulse.
"""

import pytest

from repro.bcs import BcsConfig, BcsRuntime
from repro.bcs.descriptors import BcsRequest, RequestWait
from repro.bcs.node_manager import NodeManager
from repro.bcs.threads import _awaits_request
from repro.debug.diagnostics import diagnose
from repro.mpi import ANY_SOURCE, ANY_TAG
from repro.mpi.ops import SUM
from repro.network import Cluster, ClusterSpec
from repro.pfs import PfsService
from repro.sim import AllOf, Engine, Event
from repro.sim.errors import EventAlreadyTriggered
from repro.storm import JobSpec
from repro.units import kib, mib, ms, seconds, us


def _event_block_on(self, requests):
    """The per-request event path that ``block_on`` replaces."""
    pending = [r.done for r in requests if not r.complete]
    if not pending:
        return
    if len(pending) == 1:
        yield pending[0]
    else:
        yield AllOf(self.env, pending)
    yield self.nrt.slice_start.wait()


def _run(plans, n_nodes, *, way="wait", reference=False, setup=None):
    """Run ``plans`` (app, n_ranks, params, placement) on one machine."""
    mp = pytest.MonkeyPatch()
    if way == "event":
        mp.setattr(NodeManager, "block_on", _event_block_on)
    try:
        cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
        runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, reference=reference))
        jobs = [
            runtime.launch(
                JobSpec(app=app, n_ranks=n, name=f"j{i}", params=params), placement
            )
            for i, (app, n, params, placement) in enumerate(plans)
        ]
        if setup is not None:
            setup(runtime, jobs)
        env = cluster.env
        env.run(
            until=env.any_of(
                [env.all_of([j.done for j in jobs]), env.timeout(seconds(10))]
            )
        )
    finally:
        mp.undo()
    assert all(j.terminal for j in jobs)
    return runtime, (
        env.now,
        [(j.started_at, j.finished_at, j.is_failed, j.results) for j in jobs],
        dict(runtime.stats),
    )


def _assert_same_both_ways(plans, n_nodes, setup=None):
    _, by_wait = _run(plans, n_nodes, way="wait", setup=setup)
    _, by_event = _run(plans, n_nodes, way="event", setup=setup)
    assert by_wait == by_event
    _, by_reference = _run(plans, n_nodes, reference=True, setup=setup)
    assert by_wait[:2] == by_reference[:2]
    return by_wait


def _paired(n_ranks):
    return [r // 2 for r in range(n_ranks)]


# -- programs ------------------------------------------------------------------------


def _ring(ctx, iterations=4):
    """Multi waits (waitall) and single waits (wait) on every rank.

    Two ranks share each node, so their requests complete on the same
    instant of one transmission microphase.
    """
    comm = ctx.comm
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    got = []
    for i in range(iterations):
        reqs = [
            comm.irecv(source=left, tag=i),
            comm.irecv(source=right, tag=i),
            comm.isend(comm.rank, dest=right, tag=i),
            comm.isend(comm.rank, dest=left, tag=i),
        ]
        got.append((yield from comm.waitall(reqs))[:2])
        r = comm.irecv(source=left, tag=100 + i)
        s = comm.isend(kib(1), dest=right, tag=100 + i, size=kib(1))
        got.append((yield from comm.wait(r)))
        yield from comm.wait(s)
        yield from ctx.compute(us(300 * (comm.rank % 3)))
    return got, ctx.now


def _already_complete(ctx):
    """Waits on requests that completed before the wait (no block)."""
    comm = ctx.comm
    peer = comm.rank ^ 1
    r = comm.irecv(source=peer, tag=1)
    s = comm.isend(b"x" * comm.rank, dest=peer, tag=1)
    yield from ctx.compute(ms(4))
    assert r.complete and s.complete
    t0 = ctx.now
    payload = yield from comm.waitall([r, s])
    assert ctx.now == t0
    # One pending, one complete: a single-request wait.
    r2 = comm.irecv(source=peer, tag=2)
    yield from comm.wait(r)
    s2 = comm.isend(comm.rank, dest=peer, tag=2)
    got = yield from comm.waitall([r, r2, s2])
    return payload, got, ctx.now


def _polling(ctx):
    """``testall`` polling; the final waitall finds everything complete."""
    comm = ctx.comm
    peer = comm.rank ^ 1
    reqs = [comm.irecv(source=peer, tag=3), comm.isend(comm.rank, dest=peer, tag=3)]
    polls = 0
    while not comm.testall(reqs):
        polls += 1
        yield from ctx.compute(us(170))
    got = yield from comm.waitall(reqs)
    return polls, got, ctx.now


def _cancelling(ctx):
    """``cancel`` in the posting FIFO, in the matcher, and too late."""
    comm = ctx.comm
    if comm.rank == 0:
        never = comm.irecv(source=1, tag=99)
        assert comm.cancel(never)
        yield from comm.wait(never)
        parked = comm.irecv(source=1, tag=8)
        yield from ctx.compute(ms(2))  # the receive reaches the matcher
        assert comm.cancel(parked)
        late = comm.irecv(source=1, tag=7)
        yield from ctx.compute(ms(6))
        assert not comm.cancel(late)
        got = yield from comm.waitall([parked, late])
        again = yield from comm.recv(source=1, tag=8)
        return got, again, ctx.now
    yield from comm.send(b"seven", dest=0, tag=7)
    yield from ctx.compute(ms(3))
    yield from comm.send(b"eight", dest=0, tag=8)
    return ctx.now


def _collectives(ctx):
    """Blocking collectives and composed operations."""
    comm = ctx.comm
    yield from comm.barrier()
    root_says = yield from comm.bcast(b"hello" if comm.rank == 0 else None, root=0)
    total = yield from comm.allreduce(comm.rank + 1, SUM)
    partial = yield from comm.reduce(comm.rank, SUM, root=1)
    swapped = yield from comm.sendrecv(
        comm.rank, dest=comm.rank ^ 1, source=comm.rank ^ 1
    )
    yield from ctx.compute(us(50 * comm.rank))
    yield from comm.barrier()
    return root_says, total, partial, swapped, ctx.now


def _wildcards(ctx):
    """Wildcard receives completing in arrival order."""
    comm = ctx.comm
    if comm.rank == 0:
        reqs = [comm.irecv(ANY_SOURCE, ANY_TAG) for _ in range(comm.size - 1)]
        yield from comm.waitall(reqs)
        return sorted(r.payload for r in reqs), ctx.now
    yield from ctx.compute(us(200 * comm.rank))
    yield from comm.send(comm.rank, dest=0, tag=comm.rank)
    return ctx.now


def _wake_order(ctx):
    """Two ranks of node 0 whose waits complete on one instant.

    The barrier completes both local requests in one call, rank 0's
    first.  Rank 0 waits on two requests, rank 1 on one, so rank 1's
    wait fires a hop earlier, rank 1 registers for the slice-boundary
    pulse first and its send is posted first — which rank 2's wildcard
    receives see.  (The barrier is posted non-blocking through the BCS
    API so that one wait can cover it and a receive.)
    """
    comm = ctx.comm
    if comm.rank == 0:
        r = comm.irecv(source=2, tag=1)
        bar = comm._api.post_collective(comm._handle, comm._info, 0, "barrier")
        yield from comm._api.wait(comm._handle, [bar, r.backend_req])
        yield from comm.send(b"from-0", dest=2, tag=9)
    elif comm.rank == 1:
        yield from ctx.compute(us(10))
        yield from comm.barrier()
        yield from comm.send(b"from-1", dest=2, tag=9)
    elif comm.rank == 2:
        yield from comm.send(b"2to0", dest=0, tag=1)
        yield from comm.barrier()
        got = []
        for _ in range(2):
            got.append((yield from comm.recv(ANY_SOURCE, ANY_TAG)))
        return got
    else:
        yield from comm.barrier()


def test_wake_order_on_one_instant_follows_the_hops():
    sig = _assert_same_both_ways([(_wake_order, 4, {}, _paired(4))], 2)
    assert sig[1][0][3][2] == [b"from-1", b"from-0"]


@pytest.mark.parametrize(
    "app, n_ranks",
    [
        (_ring, 8),
        (_already_complete, 4),
        (_polling, 4),
        (_cancelling, 2),
        (_collectives, 6),
        (_wildcards, 5),
    ],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_same_virtual_time_and_results_both_ways(app, n_ranks):
    n_nodes = (n_ranks + 1) // 2
    _assert_same_both_ways([(app, n_ranks, {}, _paired(n_ranks))], n_nodes)


def test_two_jobs_sharing_nodes():
    plans = [
        (_ring, 4, dict(iterations=3), [0, 1, 2, 3]),
        (_collectives, 4, {}, [0, 1, 2, 3]),
    ]
    _assert_same_both_ways(plans, 4)


# -- PFS drain (the lazily built ``done`` events) -------------------------------------


def _pfs_run(reference, first_drain_at):
    cluster = Cluster(ClusterSpec(n_nodes=4))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, reference=reference))
    pfs = PfsService(runtime, io_nodes=[2, 3])
    reqs = pfs.write(0, "x", mib(2))
    env = cluster.env
    ends = []

    def drain(start):
        yield env.timeout(start)
        yield from pfs.drain(reqs)
        ends.append(env.now)

    early = env.process(drain(first_drain_at))
    late = env.process(drain(ms(40)))
    runtime.ss.start()
    env.run(until=env.all_of([early, late]))
    return ends, [r.completed_at for r in reqs]


@pytest.mark.parametrize("first_drain_at", [0, ms(3)])
def test_pfs_drain_waits_on_lazily_built_events(first_drain_at):
    fast = _pfs_run(False, first_drain_at)
    assert fast == _pfs_run(True, first_drain_at)
    ends, completed = fast
    assert ends == [max(completed), ms(40)]


def test_done_built_after_completion_is_already_processed():
    env = Engine()
    req = BcsRequest(env, "recv")
    req._finish()
    ev = req.done
    assert ev.triggered and ev.processed and ev.value is req
    assert req.done is ev
    resumed = []

    def proc():
        value = yield req.done
        resumed.append((env.now, value))

    env.process(proc())
    env.run()
    assert resumed == [(0, req)]


def test_done_built_before_completion_is_triggered_by_it():
    env = Engine()
    req = BcsRequest(env, "send")
    ev = req.done
    assert not ev.triggered and not req.complete
    req._finish()
    assert ev.triggered and req.complete
    with pytest.raises(EventAlreadyTriggered):
        req._finish()


# -- kill_job of a blocked rank ---------------------------------------------------------


def _stuck(ctx):
    """Rank 0 blocks on one receive, rank 1 on two: nobody sends."""
    comm = ctx.comm
    if comm.rank == 0:
        yield from comm.recv(source=1, tag=1)
    else:
        yield from comm.waitall([comm.irecv(source=0, tag=2), comm.irecv(source=0, tag=3)])


def _kill_setup(runtime, jobs):
    victim = jobs[0]
    env = runtime.env

    def killer():
        yield env.timeout(ms(5))
        waits = [p.target for (j, _), p in runtime.rank_procs.items() if j == victim.id]
        runtime.kill_job(victim, cause="test kill")
        if type(waits[0]) is RequestWait:  # not on the per-request event path
            assert sorted(len(w.requests) for w in waits) == [1, 2]
            for w in waits:
                assert all(r.waiter is None for r in w.requests)

    env.process(killer())


def test_kill_job_of_blocked_ranks():
    plans = [
        (_stuck, 2, {}, [0, 1]),
        (_ring, 4, dict(iterations=6), [0, 1, 0, 1]),
    ]
    sig = _assert_same_both_ways(plans, 2, setup=_kill_setup)
    (_, _, failed, _), (_, _, survivor_failed, _) = sig[1]
    assert failed and not survivor_failed
    assert sig[2]["ranks_killed"] == 2


def test_cancel_detaches_the_wait():
    env = Engine()
    reqs = [BcsRequest(env, "recv"), BcsRequest(env, "send")]
    wait = RequestWait(env, reqs)
    assert all(r.waiter is wait for r in reqs)
    wait.cancel()
    assert all(r.waiter is None for r in reqs)
    for r in reqs:
        r._finish()
    assert not wait.triggered and wait.remaining == 2


# -- exact hops ----------------------------------------------------------------------


def _blocked_on(env, wait):
    """Block a process on ``wait``; it records the engine's event count
    when it resumes."""
    resumed = []

    def proc():
        yield wait
        resumed.append(env._seq)

    env.process(proc())
    env.run()
    return resumed


def test_single_request_wait_is_one_event():
    env = Engine()
    req = BcsRequest(env, "recv")
    wait = RequestWait(env, [req])
    resumed = _blocked_on(env, wait)
    seq = env._seq
    req._finish()
    assert env._seq == seq + 1 and wait.triggered
    env.run()
    assert resumed == [seq + 1]


def test_multi_request_wait_is_two_events():
    env = Engine()
    reqs = [BcsRequest(env, "recv"), BcsRequest(env, "send"), BcsRequest(env, "recv")]
    wait = RequestWait(env, reqs + reqs[:1])  # a request listed twice counts once
    resumed = _blocked_on(env, wait)
    seq = env._seq
    reqs[2]._finish()
    reqs[0]._finish()
    assert env._seq == seq and _awaits_request(wait)
    reqs[1]._finish()
    assert env._seq == seq + 1 and not wait.triggered
    assert not _awaits_request(wait)  # the relay is queued
    env.run()
    assert resumed == [seq + 2]


def test_a_request_takes_one_blocked_waiter():
    env = Engine()
    req = BcsRequest(env, "recv")
    RequestWait(env, [req])
    with pytest.raises(RuntimeError, match="already has a blocked waiter"):
        RequestWait(env, [req])


def test_run_schedules_one_event_per_single_wait_and_two_per_multi_wait():
    scheduled = []
    mp = pytest.MonkeyPatch()
    real = Engine.schedule

    def counting(self, event, delay=0, priority=0):
        scheduled.append(event)
        real(self, event, delay, priority)

    mp.setattr(Engine, "schedule", counting)
    try:
        _run([(_ring, 8, {}, _paired(8))], 4)
    finally:
        mp.undo()
    waits = [e for e in scheduled if type(e) is RequestWait]
    relays = [e for e in scheduled if e.name == "relay"]
    assert len({id(w) for w in waits}) == len(waits)
    singles = sum(len(w.requests) == 1 for w in waits)
    multis = len(waits) - singles
    assert singles and multis and len(relays) == multis
    # No per-request completion event anywhere in the run.
    assert not [e for e in scheduled if type(e) is Event and e.name.startswith("req:")]


def test_diagnose_names_what_a_rank_is_blocked_on():
    cluster = Cluster(ClusterSpec(n_nodes=1))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0))
    runtime.launch(JobSpec(app=_stuck, n_ranks=2), [0, 0])
    runtime.ss.start()
    cluster.env.run(until=ms(5))
    report = diagnose(runtime)
    assert "rank 0: blocked on req:recv" in report
    assert "rank 1: blocked on req:recv,recv" in report
