"""MPI message matching, as performed by the Buffer Receiver.

During the Message Scheduling Microphase the BR "matches the remote send
descriptor list against the local receive descriptor list" (paper §4.3).
This module implements that matcher with full MPI semantics:

- (source, tag) matching with ``ANY_SOURCE`` / ``ANY_TAG`` wildcards,
- the non-overtaking rule: two sends on the same (comm, src, dst) pair
  match receives in the order they were posted,
- truncation detection when a matched message exceeds the receive buffer.

Two interchangeable implementations live here:

- :class:`LinearMatcher` — the original O(U×P) list scan.  Kept verbatim
  as the reference oracle for the differential tests; the reference
  simulator (``BcsConfig(reference=True)``) matches with it.
- :class:`HashMatcher` — hash-bucketed queues with ordered wildcard
  fallback lists.  Matching cost is O(1) per descriptor (amortized)
  instead of a scan over every pending descriptor, while producing the
  *identical* match sequence (`tests/bcs/test_matching_differential.py`
  pins this against the oracle for randomized streams).

``Matcher`` is an alias for the default implementation.

How the hashed structures preserve linear-scan semantics
--------------------------------------------------------

Both queues carry a shared arrival clock (``_seq``), so "first posted" /
"first arrived" is a min-seq question.

*Posted receives* live in exactly one bucket keyed by their own pattern
``(job, comm, rank, src, tag)`` — wildcards included, as literal key
components.  A send with concrete ``(src, tag)`` can only be matched by
receives whose pattern is one of four keys: ``(src, tag)``,
``(src, ANY)``, ``(ANY, tag)``, ``(ANY, ANY)``.  Probing those four
buckets and taking the live head with the smallest seq is therefore
exactly "the first posted receive that matches".

*Unexpected sends* are indexed in four families — one per receive
wildcard shape: exact ``(job, comm, dst, src, tag)``, by-source
``(job, comm, dst, src)``, by-tag ``(job, comm, dst, tag)``, and
catch-all ``(job, comm, dst)``.  A new receive consults the single
family matching its own wildcard shape, whose bucket holds — in arrival
order — precisely the sends its pattern matches.  Sends removed through
one family leave stale entries in the other three; entries are validated
lazily against the authoritative insertion-ordered dict (``_usends``)
and dropped when dead.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.errors import SimError
from .descriptors import ANY_SOURCE, ANY_TAG, Match, RecvDescriptor, SendDescriptor

#: Below this many descriptors a batch takes the sequential object path —
#: the SoA column setup costs more than the vectorized join saves.
BATCH_MIN = 8


class TruncationError(SimError):
    """A matched message is larger than the posted receive buffer."""


class MatcherTotals:
    """Machine-wide (unexpected, posted) counts shared by all matchers.

    Every matcher keeps these aggregates current as descriptors are
    parked and matched, so telemetry that wants machine totals (the
    per-slice matcher gauges) reads two integers instead of polling all
    N per-node matchers.  The runtime hands one shared instance to every
    node's matcher; a matcher constructed without one gets its own.
    """

    __slots__ = ("unexpected", "posted")

    def __init__(self):
        self.unexpected = 0
        self.posted = 0

    def __repr__(self) -> str:
        return f"<MatcherTotals unexpected={self.unexpected} posted={self.posted}>"


class _MatcherBase:
    """Shared pairing / reporting logic of both matcher implementations."""

    node_id: int

    def _pair(self, send: SendDescriptor, recv: RecvDescriptor, via: str) -> Match:
        if send.size > recv.capacity:
            raise TruncationError(
                f"message of {send.size} B from rank {send.src_rank} "
                f"(tag {send.tag}) exceeds the {recv.capacity} B receive "
                f"buffer of rank {recv.rank}"
            )
        return Match(
            send=send,
            recv=recv,
            src_node=-1,  # filled in by the runtime, which knows placement
            dst_node=self.node_id,
            total_bytes=send.size,
            matched_via=via,
        )

    # -- batch feeds -----------------------------------------------------------

    def add_send_batch(
        self, sends: Sequence[SendDescriptor]
    ) -> List[Tuple[int, Match]]:
        """Feed a batch of arrived sends; returns ``[(index, match), ...]``.

        Reference semantics: exactly equivalent to calling
        :meth:`add_send` for each descriptor in order.  Subclasses may
        override with a vectorized implementation producing the
        identical match sequence.
        """
        out: List[Tuple[int, Match]] = []
        add = self.add_send
        for i, send in enumerate(sends):
            m = add(send)
            if m is not None:
                out.append((i, m))
        return out

    def add_recv_batch(
        self, recvs: Sequence[RecvDescriptor]
    ) -> List[Tuple[int, Match]]:
        """Feed a batch of posted receives; returns ``[(index, match), ...]``.

        Reference semantics: equivalent to sequential :meth:`add_recv`
        calls in order.
        """
        out: List[Tuple[int, Match]] = []
        add = self.add_recv
        for i, recv in enumerate(recvs):
            m = add(recv)
            if m is not None:
                out.append((i, m))
        return out

    @property
    def pending_counts(self) -> tuple[int, int]:
        """(unexpected sends, posted receives) still queued."""
        raise NotImplementedError

    def __repr__(self) -> str:
        u, p = self.pending_counts
        return f"<{type(self).__name__} node={self.node_id} unexpected={u} posted={p}>"


class LinearMatcher(_MatcherBase):
    """Per-node matcher holding the unexpected and posted queues.

    The straightforward list-scan implementation; also the reference
    oracle the hashed matcher is differentially tested against.
    """

    __slots__ = ("node_id", "totals", "unexpected", "posted")

    def __init__(self, node_id: int, totals: Optional[MatcherTotals] = None):
        self.node_id = node_id
        self.totals = totals if totals is not None else MatcherTotals()
        #: Arrived send descriptors not yet matched (arrival order).
        self.unexpected: List[SendDescriptor] = []
        #: Posted receive descriptors not yet matched (post order).
        self.posted: List[RecvDescriptor] = []

    # -- queue feeds -----------------------------------------------------------

    def add_send(self, send: SendDescriptor) -> Optional[Match]:
        """An arrived send descriptor: match or park as unexpected."""
        for i, recv in enumerate(self.posted):
            if recv.matches(send):
                del self.posted[i]
                self.totals.posted -= 1
                return self._pair(send, recv, "send")
        self.unexpected.append(send)
        self.totals.unexpected += 1
        return None

    def add_recv(self, recv: RecvDescriptor) -> Optional[Match]:
        """A posted receive: match the earliest arrived send, or park."""
        for i, send in enumerate(self.unexpected):
            if recv.matches(send):
                del self.unexpected[i]
                self.totals.unexpected -= 1
                return self._pair(send, recv, "recv")
        self.posted.append(recv)
        self.totals.posted += 1
        return None

    def purge_job(self, job_id: int) -> None:
        """Drop every descriptor belonging to ``job_id``."""
        kept_u = [d for d in self.unexpected if d.job_id != job_id]
        kept_p = [d for d in self.posted if d.job_id != job_id]
        self.totals.unexpected -= len(self.unexpected) - len(kept_u)
        self.totals.posted -= len(self.posted) - len(kept_p)
        self.unexpected = kept_u
        self.posted = kept_p

    @property
    def pending_counts(self) -> tuple[int, int]:
        """(unexpected sends, posted receives) still queued."""
        return len(self.unexpected), len(self.posted)


class HashMatcher(_MatcherBase):
    """Hash-bucketed matcher: O(1) amortized per descriptor.

    Semantically identical to :class:`LinearMatcher` — same match
    sequence, same truncation behavior, same queue ordering — but probes
    at most four buckets per operation instead of scanning every pending
    descriptor (see the module docstring for the invariants).
    """

    __slots__ = (
        "node_id",
        "totals",
        "_seq",
        "_usends",
        "_precvs",
        "_u_exact",
        "_u_src",
        "_u_tag",
        "_u_any",
        "_p_buckets",
        "_wild_posted",
    )

    def __init__(self, node_id: int, totals: Optional[MatcherTotals] = None):
        self.node_id = node_id
        self.totals = totals if totals is not None else MatcherTotals()
        #: Shared arrival clock across both queues.
        self._seq = 0
        #: Posted receives whose pattern contains a wildcard.  While this
        #: is zero, an arrived send can only match its exact bucket — the
        #: precondition for the vectorized batch join.
        self._wild_posted = 0
        #: Authoritative unexpected-send queue: desc_id -> (seq, send),
        #: insertion-ordered (= arrival order).
        self._usends: Dict[int, Tuple[int, SendDescriptor]] = {}
        #: Authoritative posted-receive queue: desc_id -> (seq, recv).
        self._precvs: Dict[int, Tuple[int, RecvDescriptor]] = {}
        # Unexpected-send index, one family per receive wildcard shape.
        self._u_exact: Dict[tuple, Deque[Tuple[int, SendDescriptor]]] = {}
        self._u_src: Dict[tuple, Deque[Tuple[int, SendDescriptor]]] = {}
        self._u_tag: Dict[tuple, Deque[Tuple[int, SendDescriptor]]] = {}
        self._u_any: Dict[tuple, Deque[Tuple[int, SendDescriptor]]] = {}
        #: Posted receives bucketed by their own (wildcard-literal) pattern.
        self._p_buckets: Dict[tuple, Deque[Tuple[int, RecvDescriptor]]] = {}

    # -- queue feeds -----------------------------------------------------------

    def add_send(self, send: SendDescriptor) -> Optional[Match]:
        """An arrived send descriptor: match or park as unexpected."""
        j, c, d = send.job_id, send.comm_id, send.dst_rank
        s, t = send.src_rank, send.tag
        precvs = self._precvs
        buckets = self._p_buckets

        best_seq = -1
        best_bucket: Optional[Deque[Tuple[int, RecvDescriptor]]] = None
        for key in (
            (j, c, d, s, t),
            (j, c, d, s, ANY_TAG),
            (j, c, d, ANY_SOURCE, t),
            (j, c, d, ANY_SOURCE, ANY_TAG),
        ):
            bucket = buckets.get(key)
            if not bucket:
                continue
            # Lazily drop heads whose receive was consumed via another path.
            while bucket and bucket[0][1].desc_id not in precvs:
                bucket.popleft()
            if not bucket:
                del buckets[key]
                continue
            seq = bucket[0][0]
            if best_bucket is None or seq < best_seq:
                best_seq = seq
                best_bucket = bucket

        if best_bucket is not None:
            _, recv = best_bucket.popleft()
            del precvs[recv.desc_id]
            self.totals.posted -= 1
            if recv.src_rank == ANY_SOURCE or recv.tag == ANY_TAG:
                self._wild_posted -= 1
            return self._pair(send, recv, "send")

        self._seq += 1
        self.totals.unexpected += 1
        entry = (self._seq, send)
        self._usends[send.desc_id] = entry
        _append(self._u_exact, (j, c, d, s, t), entry)
        _append(self._u_src, (j, c, d, s), entry)
        _append(self._u_tag, (j, c, d, t), entry)
        _append(self._u_any, (j, c, d), entry)
        return None

    def add_recv(self, recv: RecvDescriptor) -> Optional[Match]:
        """A posted receive: match the earliest arrived send, or park."""
        j, c, r = recv.job_id, recv.comm_id, recv.rank
        s, t = recv.src_rank, recv.tag
        if s != ANY_SOURCE:
            if t != ANY_TAG:
                family, key = self._u_exact, (j, c, r, s, t)
            else:
                family, key = self._u_src, (j, c, r, s)
        elif t != ANY_TAG:
            family, key = self._u_tag, (j, c, r, t)
        else:
            family, key = self._u_any, (j, c, r)

        bucket = family.get(key)
        if bucket:
            usends = self._usends
            while bucket:
                _, send = bucket.popleft()
                if send.desc_id in usends:
                    if not bucket:
                        del family[key]
                    del usends[send.desc_id]
                    self.totals.unexpected -= 1
                    return self._pair(send, recv, "recv")
            del family[key]

        self._seq += 1
        self.totals.posted += 1
        if s == ANY_SOURCE or t == ANY_TAG:
            self._wild_posted += 1
        self._precvs[recv.desc_id] = (self._seq, recv)
        _append(self._p_buckets, (j, c, r, s, t), (self._seq, recv))
        return None

    # -- batch feeds -----------------------------------------------------------

    def add_send_batch(
        self, sends: Sequence[SendDescriptor]
    ) -> List[Tuple[int, Match]]:
        """Vectorized arrived-send batch (identical sequence to add_send).

        Fast path precondition: no wildcard receive is posted, so every
        send can only match the posted bucket keyed by its own exact
        pattern.  The join is decided in one pass over SoA columns
        (stable lexsort grouping by ``(job, comm, dst, src, tag)``),
        then applied in original batch order so seqs, pops and
        truncation raises land exactly where the object path puts them.
        Wildcards present, or a tiny batch, fall back to the object path.
        """
        n = len(sends)
        if n < BATCH_MIN or self._wild_posted:
            return _MatcherBase.add_send_batch(self, sends)

        job = np.fromiter((s.job_id for s in sends), np.int64, n)
        comm = np.fromiter((s.comm_id for s in sends), np.int64, n)
        dst = np.fromiter((s.dst_rank for s in sends), np.int64, n)
        src = np.fromiter((s.src_rank for s in sends), np.int64, n)
        tag = np.fromiter((s.tag for s in sends), np.int64, n)
        # Stable sort: equal keys keep batch order, so the k-th group
        # member (in batch order) is the k-th claimant of its bucket.
        order = np.lexsort((tag, src, dst, comm, job))
        oj, oc, od, os_, ot = (
            job[order], comm[order], dst[order], src[order], tag[order],
        )
        newgrp = np.empty(n, dtype=bool)
        newgrp[0] = True
        newgrp[1:] = (
            (oj[1:] != oj[:-1])
            | (oc[1:] != oc[:-1])
            | (od[1:] != od[:-1])
            | (os_[1:] != os_[:-1])
            | (ot[1:] != ot[:-1])
        )
        grp = np.cumsum(newgrp) - 1
        starts = np.flatnonzero(newgrp)
        pos = np.arange(n)
        occ = pos - starts[grp]  # claim rank within the group

        precvs = self._precvs
        buckets = self._p_buckets
        # Per-group availability from the (compacted) exact bucket.
        # Removing stale entries eagerly is invisible to the object
        # path, which would drop them lazily at the head anyway.
        avail = np.zeros(len(starts), dtype=np.int64)
        group_buckets: List[Optional[Deque[Tuple[int, RecvDescriptor]]]] = []
        for g, st in enumerate(starts):
            s0 = sends[order[st]]
            key = (s0.job_id, s0.comm_id, s0.dst_rank, s0.src_rank, s0.tag)
            bucket = buckets.get(key)
            if bucket is not None:
                if any(e[1].desc_id not in precvs for e in bucket):
                    bucket = deque(
                        e for e in bucket if e[1].desc_id in precvs
                    )
                    if bucket:
                        buckets[key] = bucket
                    else:
                        del buckets[key]
                        bucket = None
            group_buckets.append(bucket)
            avail[g] = len(bucket) if bucket is not None else 0
        matched = occ < avail[grp]

        takes: Dict[int, Deque[Tuple[int, RecvDescriptor]]] = {}
        for p in np.flatnonzero(matched):
            takes[int(order[p])] = group_buckets[grp[p]]

        out: List[Tuple[int, Match]] = []
        totals = self.totals
        usends = self._usends
        for i, send in enumerate(sends):
            bucket = takes.get(i)
            if bucket is not None:
                _, recv = bucket.popleft()
                del precvs[recv.desc_id]
                totals.posted -= 1
                out.append((i, self._pair(send, recv, "send")))
            else:
                self._seq += 1
                totals.unexpected += 1
                entry = (self._seq, send)
                j, c, d = send.job_id, send.comm_id, send.dst_rank
                usends[send.desc_id] = entry
                _append(self._u_exact, (j, c, d, send.src_rank, send.tag), entry)
                _append(self._u_src, (j, c, d, send.src_rank), entry)
                _append(self._u_tag, (j, c, d, send.tag), entry)
                _append(self._u_any, (j, c, d), entry)
        return out

    def add_recv_batch(
        self, recvs: Sequence[RecvDescriptor]
    ) -> List[Tuple[int, Match]]:
        """Vectorized posted-receive batch (identical sequence to add_recv).

        The batch is split into maximal runs of exact-pattern receives
        (vectorizable: two exact receives with different keys can never
        compete for the same send, and same-key receives claim bucket
        entries in batch order) interleaved — in batch order — with
        wildcard receives handled one at a time on the object path.
        """
        n = len(recvs)
        if n < BATCH_MIN:
            return _MatcherBase.add_recv_batch(self, recvs)
        src = np.fromiter((r.src_rank for r in recvs), np.int64, n)
        tag = np.fromiter((r.tag for r in recvs), np.int64, n)
        wild = (src == ANY_SOURCE) | (tag == ANY_TAG)
        out: List[Tuple[int, Match]] = []
        bounds = np.flatnonzero(wild[1:] != wild[:-1]) + 1
        lo = 0
        for hi in [*bounds.tolist(), n]:
            if wild[lo]:
                add = self.add_recv
                for i in range(lo, hi):
                    m = add(recvs[i])
                    if m is not None:
                        out.append((i, m))
            else:
                self._recv_exact_run(recvs, lo, hi, out)
            lo = hi
        return out

    def _recv_exact_run(
        self,
        recvs: Sequence[RecvDescriptor],
        lo: int,
        hi: int,
        out: List[Tuple[int, Match]],
    ) -> None:
        """Vectorized join for a run of wildcard-free receives."""
        n = hi - lo
        run = range(lo, hi)
        job = np.fromiter((recvs[i].job_id for i in run), np.int64, n)
        comm = np.fromiter((recvs[i].comm_id for i in run), np.int64, n)
        rnk = np.fromiter((recvs[i].rank for i in run), np.int64, n)
        src = np.fromiter((recvs[i].src_rank for i in run), np.int64, n)
        tag = np.fromiter((recvs[i].tag for i in run), np.int64, n)
        order = np.lexsort((tag, src, rnk, comm, job))
        oj, oc, orr, os_, ot = (
            job[order], comm[order], rnk[order], src[order], tag[order],
        )
        newgrp = np.empty(n, dtype=bool)
        newgrp[0] = True
        newgrp[1:] = (
            (oj[1:] != oj[:-1])
            | (oc[1:] != oc[:-1])
            | (orr[1:] != orr[:-1])
            | (os_[1:] != os_[:-1])
            | (ot[1:] != ot[:-1])
        )
        grp = np.cumsum(newgrp) - 1
        starts = np.flatnonzero(newgrp)
        occ = np.arange(n) - starts[grp]

        usends = self._usends
        family = self._u_exact
        avail = np.zeros(len(starts), dtype=np.int64)
        group_info: List[Optional[tuple]] = []
        for g, st in enumerate(starts):
            r0 = recvs[lo + int(order[st])]
            key = (r0.job_id, r0.comm_id, r0.rank, r0.src_rank, r0.tag)
            bucket = family.get(key)
            if bucket is not None:
                if any(e[1].desc_id not in usends for e in bucket):
                    bucket = deque(
                        e for e in bucket if e[1].desc_id in usends
                    )
                    if bucket:
                        family[key] = bucket
                    else:
                        del family[key]
                        bucket = None
            group_info.append((key, bucket) if bucket is not None else None)
            avail[g] = len(bucket) if bucket is not None else 0
        matched = occ < avail[grp]

        takes: Dict[int, tuple] = {}
        for p in np.flatnonzero(matched):
            takes[lo + int(order[p])] = group_info[grp[p]]

        totals = self.totals
        for i in run:
            info = takes.get(i)
            recv = recvs[i]
            if info is not None:
                key, bucket = info
                _, send = bucket.popleft()
                if not bucket:
                    del family[key]
                del usends[send.desc_id]
                totals.unexpected -= 1
                out.append((i, self._pair(send, recv, "recv")))
            else:
                self._seq += 1
                totals.posted += 1
                entry = (self._seq, recv)
                self._precvs[recv.desc_id] = entry
                _append(
                    self._p_buckets,
                    (recv.job_id, recv.comm_id, recv.rank, recv.src_rank, recv.tag),
                    entry,
                )

    # -- maintenance -----------------------------------------------------------

    def purge_job(self, job_id: int) -> None:
        """Drop every descriptor belonging to ``job_id``.

        Rare (failure teardown), so it simply filters the authoritative
        queues and rebuilds the index buckets, preserving arrival seqs.
        """
        before_u, before_p = len(self._usends), len(self._precvs)
        self._usends = {
            k: v for k, v in self._usends.items() if v[1].job_id != job_id
        }
        self._precvs = {
            k: v for k, v in self._precvs.items() if v[1].job_id != job_id
        }
        self.totals.unexpected -= before_u - len(self._usends)
        self.totals.posted -= before_p - len(self._precvs)
        self._u_exact = {}
        self._u_src = {}
        self._u_tag = {}
        self._u_any = {}
        self._p_buckets = {}
        for entry in self._usends.values():
            send = entry[1]
            j, c, d = send.job_id, send.comm_id, send.dst_rank
            _append(self._u_exact, (j, c, d, send.src_rank, send.tag), entry)
            _append(self._u_src, (j, c, d, send.src_rank), entry)
            _append(self._u_tag, (j, c, d, send.tag), entry)
            _append(self._u_any, (j, c, d), entry)
        self._wild_posted = 0
        for entry in self._precvs.values():
            recv = entry[1]
            key = (recv.job_id, recv.comm_id, recv.rank, recv.src_rank, recv.tag)
            _append(self._p_buckets, key, entry)
            if recv.src_rank == ANY_SOURCE or recv.tag == ANY_TAG:
                self._wild_posted += 1

    # -- views -----------------------------------------------------------------

    @property
    def unexpected(self) -> List[SendDescriptor]:
        """Arrived-but-unmatched sends, in arrival order (snapshot)."""
        return [send for _, send in self._usends.values()]

    @property
    def posted(self) -> List[RecvDescriptor]:
        """Posted-but-unmatched receives, in post order (snapshot)."""
        return [recv for _, recv in self._precvs.values()]

    @property
    def pending_counts(self) -> tuple[int, int]:
        """(unexpected sends, posted receives) still queued — O(1)."""
        return len(self._usends), len(self._precvs)


def _append(family: dict, key: tuple, entry: tuple) -> None:
    bucket = family.get(key)
    if bucket is None:
        family[key] = deque((entry,))
    else:
        bucket.append(entry)


#: The default matcher implementation.
Matcher = HashMatcher
