"""Differential tests for the batched slice engine.

The vectorized batch feeds (``add_send_batch`` / ``add_recv_batch``)
must be observationally identical to sequential ``add_send`` /
``add_recv`` calls in batch order — same match sequence, same
truncation raise points, same queue state afterwards — across
exact-pattern streams (the vectorized join), wildcard-heavy streams
(the object-path fallback and run splitting), and truncation streams.
On top of the matcher, the end-to-end fast path must produce
byte-identical virtual time versus the reference path
(``BcsConfig(reference=True)``, per-descriptor object path), and
the descriptor pools must never let a recycled object alias stale
state.
"""

import random
import types

import pytest

from repro.bcs import (
    ANY_SOURCE,
    ANY_TAG,
    BcsConfig,
    HashMatcher,
    LinearMatcher,
    TruncationError,
)
from repro.bcs.descriptors import (
    DescriptorPools,
    RecvDescriptor,
    SendDescriptor,
)
from repro.bcs.matching import BATCH_MIN
from repro.bcs.threads import NodeRuntime
from repro.bcs.runtime import BcsRuntime
from repro.harness.runner import run_workload
from repro.network import Cluster, ClusterSpec
from repro.sim import Engine
from repro.storm import JobSpec
from repro.units import ms, seconds


class _Req:
    complete = False


def _send(rng, *, jobs=1, ranks=4, tags=3):
    return SendDescriptor(
        job_id=rng.randrange(jobs),
        comm_id=0,
        src_rank=rng.randrange(ranks),
        dst_rank=0,
        tag=rng.randrange(tags),
        size=rng.choice([8, 64, 4096]),
        request=_Req(),
        seq=0,
    )


def _recv(rng, *, jobs=1, ranks=4, tags=3, p_wild=0.0, p_small=0.0):
    return RecvDescriptor(
        job_id=rng.randrange(jobs),
        comm_id=0,
        rank=0,
        src_rank=ANY_SOURCE if rng.random() < p_wild else rng.randrange(ranks),
        tag=ANY_TAG if rng.random() < p_wild else rng.randrange(tags),
        capacity=100 if rng.random() < p_small else 1 << 30,
        request=_Req(),
    )


def _clone(d):
    if isinstance(d, SendDescriptor):
        return SendDescriptor(
            job_id=d.job_id, comm_id=d.comm_id, src_rank=d.src_rank,
            dst_rank=d.dst_rank, tag=d.tag, size=d.size, request=d.request,
            seq=d.seq, desc_id=d.desc_id,
        )
    return RecvDescriptor(
        job_id=d.job_id, comm_id=d.comm_id, rank=d.rank, src_rank=d.src_rank,
        tag=d.tag, capacity=d.capacity, request=d.request, desc_id=d.desc_id,
    )


def _snapshot(matcher):
    return (
        [d.desc_id for d in matcher.unexpected],
        [d.desc_id for d in matcher.posted],
        matcher.pending_counts,
    )


def _match_key(m):
    return (m.send.desc_id, m.recv.desc_id, m.total_bytes, m.matched_via)


def _feed_sequential(matcher, op, batch):
    """Reference: one-at-a-time feed; stops at a truncation raise.

    Returns (matches, raised_at) where ``matches`` is [(index, key)].
    """
    add = matcher.add_send if op == "send" else matcher.add_recv
    out = []
    for i, d in enumerate(batch):
        try:
            m = add(d)
        except TruncationError:
            return out, i
        if m is not None:
            out.append((i, _match_key(m)))
    return out, None


def _feed_batched(matcher, op, batch):
    add = matcher.add_send_batch if op == "send" else matcher.add_recv_batch
    try:
        got = add(batch)
    except TruncationError:
        return None, True
    return [(i, _match_key(m)) for i, m in got], False


def _run_stream(seed, *, p_wild, p_small, n_batches=12):
    """One randomized stream fed as batches to three matchers.

    The batched HashMatcher must produce the same (index, match-key)
    sequence, the same truncation raise point, and the same queue
    snapshot after every batch as the sequential HashMatcher and
    LinearMatcher oracles.
    """
    rng = random.Random(seed)
    batched = HashMatcher(0)
    seq_hash = HashMatcher(1)
    linear = LinearMatcher(2)
    total = 0
    for _ in range(n_batches):
        op = rng.choice(["send", "recv"])
        # Mostly >= BATCH_MIN so the vectorized path runs; a few tiny
        # batches keep the fallback threshold covered too.
        n = rng.choice([2, BATCH_MIN, BATCH_MIN + 4, 24, 40])
        total += n
        if op == "send":
            batch = [_send(rng) for _ in range(n)]
        else:
            batch = [
                _recv(rng, p_wild=p_wild, p_small=p_small) for _ in range(n)
            ]
        got_b, raised_b = _feed_batched(batched, op, batch)
        got_s, raised_at_s = _feed_sequential(
            seq_hash, op, [_clone(d) for d in batch]
        )
        got_l, raised_at_l = _feed_sequential(
            linear, op, [_clone(d) for d in batch]
        )
        assert raised_at_s == raised_at_l, seed
        if raised_b:
            assert raised_at_s is not None, seed
        else:
            assert raised_at_s is None, seed
            assert got_b == got_s == got_l, (seed, op, got_b, got_s)
        assert _snapshot(batched) == _snapshot(seq_hash) == _snapshot(linear), (
            seed,
            op,
        )
        if raised_b:
            return total, True
    return total, False


def test_batched_differential_exact_streams():
    """>= 10^4 exact-pattern messages: vectorized join == object path."""
    total = 0
    seed = 0
    while total < 10_000:
        total += _run_stream(seed, p_wild=0.0, p_small=0.0)[0]
        seed += 1


def test_batched_differential_wildcard_heavy_streams():
    """>= 10^4 messages with 35% wildcard receives: fallback + splits."""
    total = 0
    seed = 10_000
    while total < 10_000:
        total += _run_stream(seed, p_wild=0.35, p_small=0.0)[0]
        seed += 1


def test_batched_differential_truncation_streams():
    """>= 10^4 messages with undersized receive buffers: identical raise
    points and identical post-raise queue state."""
    total = 0
    raises = 0
    seed = 20_000
    while total < 10_000 or raises < 20:
        n, raised = _run_stream(seed, p_wild=0.1, p_small=0.15)
        total += n
        raises += raised
        seed += 1
    assert raises >= 20


def test_batched_multi_job_purge_keeps_wild_count():
    """purge_job must rebuild the wildcard counter: a stale count would
    make add_send_batch take the (wrong) vectorized fast path."""
    m = HashMatcher(0)
    rng = random.Random(3)
    for _ in range(6):
        m.add_recv(_recv(rng, jobs=2, p_wild=1.0))
    assert m._wild_posted == 6
    m.purge_job(0)
    assert m._wild_posted == len(m.posted)
    m.purge_job(1)
    assert m._wild_posted == 0
    # With no wildcards left the vectorized send path is valid again.
    sends = [_send(rng) for _ in range(BATCH_MIN)]
    assert m.add_send_batch(sends) == []
    assert m.pending_counts == (BATCH_MIN, 0)


# -- end-to-end virtual-time identity -----------------------------------------


def _wildcard_app(ctx, iterations=4, payload=64):
    """Rank 0 sinks ANY_SOURCE/ANY_TAG receives; others send to it."""
    for it in range(iterations):
        if ctx.rank == 0:
            for _ in range(ctx.size - 1):
                yield from ctx.comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
        else:
            yield from ctx.comm.send(
                b"x" * payload, dest=0, tag=(ctx.rank + it) % 3
            )
        yield from ctx.comm.barrier()


def _nn_app(ctx, iterations=5):
    from repro.apps.synthetic import nearest_neighbor_benchmark

    yield from nearest_neighbor_benchmark(
        ctx, granularity=ms(1), iterations=iterations
    )


@pytest.mark.parametrize("app", [_wildcard_app, _nn_app])
def test_virtual_time_identity_batched_vs_object_path(app):
    results = {}
    for reference in (False, True):
        cfg = BcsConfig(init_cost=0, reference=reference)
        r = run_workload(app, 8, "bcs", bcs_config=cfg)
        results[reference] = (r.runtime_ns, r.stats.get("slices"))
    assert results[False] == results[True]


def _recycled_send_app(ctx, seen):
    """Rank 2 on node 1 sends to rank 0, then to rank 1; rank 0 posts a
    wildcard receive between the two.  The first send's descriptor
    object is recycled for the second."""
    comm = ctx.comm
    if comm.rank == 2:
        yield from comm.send(b"for-0", dest=0, tag=5)
        yield from ctx.compute(ms(3))
        yield from comm.waitall([comm.isend(b"for-1", dest=1, tag=7)])
    elif comm.rank == 0:
        yield from ctx.compute(ms(2))
        seen[0] = yield from comm.recv(source=2, tag=5)
        yield from ctx.compute(ms(3))
        wild = comm.irecv(ANY_SOURCE, ANY_TAG)
        yield from ctx.compute(ms(2))
        seen["wild"] = (wild.complete, wild.payload)
    else:
        yield from ctx.compute(ms(9))
        seen[1] = yield from comm.recv(source=2, tag=7)
    return ctx.now


def test_wildcard_receive_cannot_take_a_recycled_send():
    outcomes = {}
    for reference in (False, True):
        seen = {}
        runtime = BcsRuntime(
            Cluster(ClusterSpec(n_nodes=2)),
            BcsConfig(init_cost=0, reference=reference),
        )
        job = runtime.run_job(
            JobSpec(app=_recycled_send_app, n_ranks=3, params=dict(seen=seen)),
            placement=[0, 0, 1],
            max_time=seconds(1),
        )
        outcomes[reference] = (seen, job.results, runtime.env.now)
    assert outcomes[False] == outcomes[True]
    assert outcomes[False][0] == {0: b"for-0", "wild": (False, None), 1: b"for-1"}


# -- descriptor pools ----------------------------------------------------------


def test_pool_recycled_descriptor_gets_fresh_desc_id():
    pools = DescriptorPools()
    d1 = pools.send(0, 0, 1, 2, 3, 64, _Req())
    id1 = d1.desc_id
    pools.release_send(d1)
    d2 = pools.send(1, 1, 0, 0, 0, 8, _Req())
    assert d2 is d1  # the free list actually recycles
    assert d2.desc_id != id1
    assert (d2.job_id, d2.size, d2.payload) == (1, 8, None)


def test_pool_recycled_request_gets_fresh_event():
    env = Engine()
    pools = DescriptorPools()
    r1 = pools.request(env, "send")
    ev1 = r1.done
    r1._finish()
    assert r1.complete
    pools.release_request(r1)
    r2 = pools.request(env, "recv")
    assert r2 is r1
    assert r2.done is not ev1  # a triggered Event is one-shot
    assert not r2.complete
    assert r2.kind == "recv" and r2.payload is None and r2.error is None


def test_pool_recv_and_coll_reinitialize_every_field():
    pools = DescriptorPools()
    r = pools.recv(0, 0, 1, 2, 3, 100, _Req())
    pools.release_recv(r)
    r2 = pools.recv(1, 2, 3, ANY_SOURCE, ANY_TAG, 1 << 30, _Req())
    assert r2 is r
    assert (r2.job_id, r2.comm_id, r2.rank) == (1, 2, 3)
    assert r2.src_rank == ANY_SOURCE and r2.tag == ANY_TAG
    c = pools.coll(0, 0, "barrier", 1, 0, 7, _Req(), payload=b"p")
    pools.release_coll(c)
    c2 = pools.coll(1, 1, "bcast", 0, 2, 9, _Req())
    assert c2 is c
    assert c2.payload is None and c2.kind == "bcast" and c2.epoch == 9


# -- the posted-FIFO drain fast path -------------------------------------------


class _Stamped:
    def __init__(self, t):
        self.posted_at = t


def _drain(queue, cutoff):
    stub = types.SimpleNamespace(slice_start_time=cutoff)
    return NodeRuntime._drain_posted(stub, queue)


@pytest.mark.parametrize(
    "stamps,cutoff",
    [
        ([], 10),
        ([11, 12, 13], 10),        # nothing ready
        ([1, 2, 3], 10),           # whole queue ready
        ([1, 5, 10, 10, 11, 20], 10),  # split (inclusive boundary)
        ([10], 10),
        ([0] * 40 + [99] * 40, 10),
    ],
)
def test_drain_posted_matches_filter_reference(stamps, cutoff):
    queue = [_Stamped(t) for t in stamps]
    ref_take = [d for d in queue if d.posted_at <= cutoff]
    ref_keep = [d for d in queue if d.posted_at > cutoff]
    take = _drain(queue, cutoff)
    assert take == ref_take
    assert queue == ref_keep
