"""Differential tests: HashMatcher vs LinearMatcher on randomized streams.

The hashed matcher must be observationally identical to the linear
reference oracle: same match results in the same order, same truncation
errors, same queue contents after every operation — across wildcard
receives, multiple jobs/communicators, truncation, job purges, recycled
descriptor objects and index rebuilds.
"""

import random

import pytest

from repro.bcs import ANY_SOURCE, ANY_TAG, HashMatcher, LinearMatcher, TruncationError
from repro.bcs.descriptors import RecvDescriptor, SendDescriptor, _desc_ids
from repro.bcs.matching import BATCH_MIN, REINDEX_MIN_DEAD


class _Req:
    complete = False


def _send(rng, dst):
    return SendDescriptor(
        job_id=rng.randrange(2),
        comm_id=rng.randrange(2),
        src_rank=rng.randrange(4),
        dst_rank=dst,
        tag=rng.randrange(4),
        size=rng.choice([8, 64, 4096]),
        request=_Req(),
        seq=0,
    )


def _recv(rng, rank):
    return RecvDescriptor(
        job_id=rng.randrange(2),
        comm_id=rng.randrange(2),
        rank=rank,
        src_rank=ANY_SOURCE if rng.random() < 0.3 else rng.randrange(4),
        tag=ANY_TAG if rng.random() < 0.3 else rng.randrange(4),
        # Small capacities occasionally force truncation on 4096 B sends.
        capacity=rng.choice([1 << 30, 1 << 30, 1 << 30, 100]),
        request=_Req(),
    )


def _clone_send(d):
    return SendDescriptor(
        job_id=d.job_id,
        comm_id=d.comm_id,
        src_rank=d.src_rank,
        dst_rank=d.dst_rank,
        tag=d.tag,
        size=d.size,
        request=d.request,
        seq=d.seq,
        desc_id=d.desc_id,
    )


def _clone_recv(d):
    return RecvDescriptor(
        job_id=d.job_id,
        comm_id=d.comm_id,
        rank=d.rank,
        src_rank=d.src_rank,
        tag=d.tag,
        capacity=d.capacity,
        request=d.request,
        desc_id=d.desc_id,
    )


def _apply(matcher, op, desc):
    """Run one op; returns ('match', sid, rid), ('none',) or ('trunc',)."""
    try:
        result = (matcher.add_send if op == "send" else matcher.add_recv)(desc)
    except TruncationError:
        return ("trunc",)
    return _outcome(result)


def _outcome(m):
    if m is None:
        return ("none",)
    return ("match", m.send.desc_id, m.recv.desc_id, m.total_bytes)


def _snapshot(matcher):
    return (
        [d.desc_id for d in matcher.unexpected],
        [d.desc_id for d in matcher.posted],
        matcher.pending_counts,
    )


def _run_stream(seed):
    rng = random.Random(seed)
    linear = LinearMatcher(0)
    hashed = HashMatcher(0)
    n_ops = rng.randrange(4, 26)
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.03:
            job = rng.randrange(2)
            linear.purge_job(job)
            hashed.purge_job(job)
        else:
            op = "send" if roll < 0.53 else "recv"
            # dst/rank drawn from {0, 1}: descriptors addressed to rank 1
            # can never match the rank-0 ones, exercising non-matching
            # buckets alongside matching ones.
            target = rng.randrange(2)
            desc = _send(rng, target) if op == "send" else _recv(rng, target)
            clone = _clone_send(desc) if op == "send" else _clone_recv(desc)
            got_l = _apply(linear, op, desc)
            got_h = _apply(hashed, op, clone)
            assert got_l == got_h, (seed, got_l, got_h)
        assert _snapshot(linear) == _snapshot(hashed), seed


@pytest.mark.parametrize("block", range(10))
def test_differential_randomized_streams(block):
    """10^4 randomized streams produce identical observable behavior."""
    for i in range(1000):
        _run_stream(block * 1000 + i)


def test_differential_wildcard_ordering():
    """A send must take the *earliest* posted receive across all four
    pattern buckets, not the first bucket probed."""
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]):
        rng = random.Random(7)
        linear = LinearMatcher(0)
        hashed = HashMatcher(0)
        patterns = [
            (1, 2),
            (1, ANY_TAG),
            (ANY_SOURCE, 2),
            (ANY_SOURCE, ANY_TAG),
        ]
        descs = []
        for idx in order:
            src, tag = patterns[idx]
            descs.append(
                RecvDescriptor(
                    job_id=0,
                    comm_id=0,
                    rank=0,
                    src_rank=src,
                    tag=tag,
                    capacity=1 << 30,
                    request=_Req(),
                )
            )
        for d in descs:
            assert linear.add_recv(_clone_recv(d)) is None
            assert hashed.add_recv(_clone_recv(d)) is None
        for _ in range(4):
            s = SendDescriptor(
                job_id=0,
                comm_id=0,
                src_rank=1,
                dst_rank=0,
                tag=2,
                size=8,
                request=_Req(),
                seq=0,
            )
            got_l = _apply(linear, "send", s)
            got_h = _apply(hashed, "send", _clone_send(s))
            assert got_l == got_h
            assert got_l[0] == "match"
        assert linear.pending_counts == hashed.pending_counts == (0, 0)


def test_differential_truncation_consumes_both_sides():
    """Truncation removes both descriptors in both implementations."""
    for first in ("send", "recv"):
        linear = LinearMatcher(0)
        hashed = HashMatcher(0)
        s = SendDescriptor(
            job_id=0, comm_id=0, src_rank=1, dst_rank=0, tag=3,
            size=4096, request=_Req(), seq=0,
        )
        r = RecvDescriptor(
            job_id=0, comm_id=0, rank=0, src_rank=1, tag=3,
            capacity=16, request=_Req(),
        )
        for m in (linear, hashed):
            if first == "send":
                assert m.add_send(_clone_send(s)) is None
                with pytest.raises(TruncationError):
                    m.add_recv(_clone_recv(r))
            else:
                assert m.add_recv(_clone_recv(r)) is None
                with pytest.raises(TruncationError):
                    m.add_send(_clone_send(s))
            assert m.pending_counts == (0, 0)
        assert _snapshot(linear) == _snapshot(hashed)


# -- recycled descriptor objects ------------------------------------------------


def _recycle_send(d, **fields):
    """What ``DescriptorPools.send`` does to a released object."""
    for name, value in fields.items():
        setattr(d, name, value)
    d.desc_id = next(_desc_ids)
    return d


def test_stale_index_entry_of_a_recycled_send_stays_dead():
    """A send matched through the exact family leaves dead entries in
    the other three.  Its object, recycled as an unexpected send to
    another rank, must not revive them: rank 0's wildcard receive may
    not take rank 1's message."""
    linear, hashed = LinearMatcher(0), HashMatcher(0)
    first = SendDescriptor(
        job_id=0, comm_id=0, src_rank=2, dst_rank=0, tag=5, size=8,
        request=_Req(), seq=0,
    )
    exact = RecvDescriptor(
        job_id=0, comm_id=0, rank=0, src_rank=2, tag=5, capacity=64,
        request=_Req(),
    )
    wild = RecvDescriptor(
        job_id=0, comm_id=0, rank=0, src_rank=ANY_SOURCE, tag=ANY_TAG,
        capacity=64, request=_Req(),
    )
    for_rank_1 = RecvDescriptor(
        job_id=0, comm_id=0, rank=1, src_rank=2, tag=7, capacity=64,
        request=_Req(),
    )
    obj = _clone_send(first)
    steps = [("send", first, obj), ("recv", exact, _clone_recv(exact))]
    for op, desc, clone in steps:
        assert _apply(linear, op, desc) == _apply(hashed, op, clone)
    _recycle_send(obj, dst_rank=1, tag=7)
    second = _clone_send(obj)
    for op, desc, clone in [
        ("send", second, obj),
        ("recv", wild, _clone_recv(wild)),
        ("recv", for_rank_1, _clone_recv(for_rank_1)),
    ]:
        got_l = _apply(linear, op, desc)
        assert got_l == _apply(hashed, op, clone)
        assert _snapshot(linear) == _snapshot(hashed)
    assert got_l[0] == "match" and got_l[1] == obj.desc_id
    assert [d.desc_id for d in hashed.posted] == [wild.desc_id]


def test_differential_streams_with_recycled_objects():
    """Randomized streams where the hashed side reuses every matched
    descriptor object under a fresh id, as the descriptor pools do."""
    for seed in range(2000):
        rng = random.Random(seed)
        linear, hashed = LinearMatcher(0), HashMatcher(0)
        free = {"send": [], "recv": []}
        for _ in range(rng.randrange(4, 40)):
            op = "send" if rng.random() < 0.5 else "recv"
            target = rng.randrange(2)
            desc = _send(rng, target) if op == "send" else _recv(rng, target)
            if free[op]:
                clone = free[op].pop()
                for name in desc.__dataclass_fields__:
                    setattr(clone, name, getattr(desc, name))
            else:
                clone = _clone_send(desc) if op == "send" else _clone_recv(desc)
            got_l = _apply(linear, op, desc)
            try:
                m = (hashed.add_send if op == "send" else hashed.add_recv)(clone)
            except TruncationError:
                got_h = ("trunc",)
            else:
                got_h = _outcome(m)
                if m is not None:
                    free["send"].append(m.send)
                    free["recv"].append(m.recv)
            assert got_l == got_h, seed
            assert _snapshot(linear) == _snapshot(hashed), seed


# -- dead index entries -----------------------------------------------------------


def _index_entries(m):
    families = (m._u_exact, m._u_src, m._u_tag, m._u_any, m._p_buckets)
    return [e for fam in families for bucket in fam.values() for e in bucket]


def _dead_entries(m):
    return sum(
        1
        for e in _index_entries(m)
        if m._usends.get(e[1].desc_id) is not e and m._precvs.get(e[1].desc_id) is not e
    )


@pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
def test_exact_only_stream_keeps_the_index_bounded(batched):
    """Sends matched through the exact family leave dead entries in the
    three wildcard families no receive ever probes; the index is rebuilt
    before they outnumber the live ones."""
    m = HashMatcher(0)
    peak = 0
    for i in range(3000):
        sends = [
            SendDescriptor(
                job_id=0, comm_id=0, src_rank=k, dst_rank=0, tag=i, size=8,
                request=_Req(), seq=0,
            )
            for k in range(BATCH_MIN)
        ]
        recvs = [
            RecvDescriptor(
                job_id=0, comm_id=0, rank=0, src_rank=k, tag=i, capacity=64,
                request=_Req(),
            )
            for k in range(BATCH_MIN)
        ]
        if batched:
            assert m.add_send_batch(sends) == []
            assert len(m.add_recv_batch(recvs)) == BATCH_MIN
        else:
            for s in sends:
                assert m.add_send(s) is None
            assert all(m.add_recv(r) is not None for r in recvs)
        assert m._dead == _dead_entries(m)
        peak = max(peak, len(_index_entries(m)))
    assert m.pending_counts == (0, 0)
    assert peak <= 4 * BATCH_MIN + REINDEX_MIN_DEAD + 3


def test_reindex_keeps_seqs_and_order():
    """A rebuild in the middle of a wildcard-heavy stream changes nothing
    the linear oracle can see."""
    for seed in range(300):
        rng = random.Random(seed)
        linear, hashed = LinearMatcher(0), HashMatcher(0)
        for step in range(60):
            op = "send" if rng.random() < 0.5 else "recv"
            desc = _send(rng, 0) if op == "send" else _recv(rng, 0)
            clone = _clone_send(desc) if op == "send" else _clone_recv(desc)
            assert _apply(linear, op, desc) == _apply(hashed, op, clone), seed
            if step % 7 == 0:
                hashed._reindex()
            assert hashed._dead == _dead_entries(hashed)
            assert _snapshot(linear) == _snapshot(hashed), seed


def test_differential_withdraw():
    """Cancelling a posted receive removes it from both matchers alike."""
    for seed in range(1000):
        rng = random.Random(seed)
        linear, hashed = LinearMatcher(0), HashMatcher(0)
        for _ in range(rng.randrange(4, 30)):
            posted = linear.posted
            if posted and rng.random() < 0.2:
                victim = rng.choice(posted)
                twin = next(d for d in hashed.posted if d.desc_id == victim.desc_id)
                assert linear.withdraw(victim) and hashed.withdraw(twin)
                assert not hashed.withdraw(twin)
            else:
                op = "send" if rng.random() < 0.5 else "recv"
                desc = _send(rng, 0) if op == "send" else _recv(rng, 0)
                clone = _clone_send(desc) if op == "send" else _clone_recv(desc)
                assert _apply(linear, op, desc) == _apply(hashed, op, clone), seed
            assert hashed._dead == _dead_entries(hashed)
            assert _snapshot(linear) == _snapshot(hashed), seed
            assert linear.totals.posted == hashed.totals.posted
