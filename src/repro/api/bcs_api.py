"""The BCS API (paper Appendix A, Figure 12).

The layer between MPI and the runtime: ``bcs_send``, ``bcs_recv``,
``bcs_probe``, ``bcs_test``, ``bcs_testall``, ``bcs_barrier``,
``bcs_bcast``, ``bcs_reduce``, plus the composed vector operations.

Posting is a plain call (it only writes a descriptor into NIC memory —
no system call); its small host cost is accumulated on the rank handle
and charged at the next yield point.  Blocking variants are
sub-generators that post and then hand the process to the Node Manager,
which restarts it at a slice boundary once the NIC signals completion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

from ..bcs.descriptors import (
    ANY_SOURCE,
    ANY_TAG,
    BcsRequest,
    RecvDescriptor,
    payload_nbytes,
)
from ..bcs.threads import ScheduleWindowError

if TYPE_CHECKING:  # pragma: no cover
    from ..bcs.runtime import BcsRuntime, CommInfo, RankHandle

#: Receive capacity used when the caller does not bound the buffer.
UNLIMITED = 1 << 62


class BcsApi:
    """The BCS communication API bound to one runtime."""

    def __init__(self, runtime: "BcsRuntime"):
        self.runtime = runtime
        self.env = runtime.env

    # -- posting (non-blocking halves) ---------------------------------------------

    def post_send(
        self,
        handle: "RankHandle",
        info: "CommInfo",
        src_rank: int,
        dest: int,
        payload: Any = None,
        tag: int = 0,
        size: Optional[int] = None,
    ) -> BcsRequest:
        """bcs_send(non-blocking): post a send descriptor."""
        if not 0 <= dest < info.size:
            raise ValueError(f"destination rank {dest} outside communicator")
        nbytes = payload_nbytes(payload, size)
        pools = self.runtime.pools
        req = pools.request(self.env, "send")
        desc = pools.send(
            info.job.id,
            info.comm_id,
            src_rank,
            dest,
            tag,
            nbytes,
            req,
            payload=payload,
            seq=handle.next_send_seq(info.comm_id, dest),
        )
        handle.nrt.post_send(desc)
        handle.pending_overhead += self.runtime.config.descriptor_post_cost
        stats = self.runtime.job_stats.get(info.job.id)
        if stats is not None:
            stats["messages"] += 1
            stats["bytes"] += nbytes
        obs = self.runtime.obs
        if obs is not None:
            if obs.profiler is not None:
                obs.profiler.record_post(
                    info.job.id, handle.world_rank, "send", nbytes
                )
            if obs.spans is not None:
                obs.spans.send_posted(desc, info.job.id, handle.world_rank)
        if self.runtime.config.buffered_sends:
            # Buffered coscheduling: the payload is snapshotted at post
            # time and the send buffer is immediately reusable, so the
            # request is complete as far as the sender is concerned.
            from ..bcs.threads import _copy_payload

            desc.payload = _copy_payload(payload)
            req._finish()
        return req

    def post_recv(
        self,
        handle: "RankHandle",
        info: "CommInfo",
        rank: int,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        size: Optional[int] = None,
    ) -> BcsRequest:
        """bcs_recv(non-blocking): post a receive descriptor."""
        if source != ANY_SOURCE and not 0 <= source < info.size:
            raise ValueError(f"source rank {source} outside communicator")
        pools = self.runtime.pools
        req = pools.request(self.env, "recv")
        desc = pools.recv(
            info.job.id,
            info.comm_id,
            rank,
            source,
            tag,
            UNLIMITED if size is None else size,
            req,
        )
        handle.nrt.post_recv(desc)
        handle.pending_overhead += self.runtime.config.descriptor_post_cost
        obs = self.runtime.obs
        if obs is not None:
            if obs.profiler is not None:
                obs.profiler.record_post(info.job.id, handle.world_rank, "recv", 0)
            if obs.spans is not None:
                obs.spans.recv_posted(desc, info.job.id, handle.world_rank)
        return req

    def post_collective(
        self,
        handle: "RankHandle",
        info: "CommInfo",
        rank: int,
        kind: str,
        root: int = 0,
        op: Optional[str] = None,
        payload: Any = None,
        size: Optional[int] = None,
    ) -> BcsRequest:
        """Post a collective descriptor (barrier/bcast/reduce/allreduce)."""
        if kind not in ("barrier", "bcast", "reduce", "allreduce"):
            raise ValueError(f"unknown collective kind {kind!r}")
        if not 0 <= root < info.size:
            raise ValueError(f"root rank {root} outside communicator")
        pools = self.runtime.pools
        req = pools.request(self.env, kind)
        desc = pools.coll(
            info.job.id,
            info.comm_id,
            kind,
            rank,
            root,
            handle.next_epoch(info.comm_id),
            req,
            op=op,
            size=payload_nbytes(payload, size),
            payload=payload,
        )
        handle.nrt.post_collective(desc)
        handle.pending_overhead += self.runtime.config.descriptor_post_cost
        stats = self.runtime.job_stats.get(info.job.id)
        if stats is not None:
            stats["collectives"] += 1
        obs = self.runtime.obs
        if obs is not None:
            if obs.profiler is not None:
                obs.profiler.record_post(
                    info.job.id, handle.world_rank, kind, desc.size
                )
            if obs.spans is not None:
                obs.spans.coll_posted(desc, info.job.id, handle.world_rank)
        return req

    # -- tests / waits ------------------------------------------------------------------

    def bcs_test(self, req: BcsRequest) -> bool:
        """Non-blocking completion check (reads NIC-visible state)."""
        return req.complete

    def cancel_recv(self, handle: "RankHandle", req: BcsRequest) -> bool:
        """MPI_Cancel for receives: withdraw an unmatched descriptor.

        Succeeds only while the descriptor is still cancellable — in the
        posting FIFO or in the BR's pending-receive list, not yet
        matched to a sender.  Returns True if cancelled (the request
        then completes with ``cancelled`` status), False if the match
        already happened (the message will be delivered normally).
        """
        if req.complete:
            return False
        nrt = handle.nrt
        self._observe_br(nrt.node_id, "cancel_recv")
        desc = next((d for d in nrt.posted_recvs if d.request is req), None)
        if desc is not None:
            nrt.posted_recvs.remove(desc)
        else:
            desc = next((d for d in nrt.matcher.posted if d.request is req), None)
            if desc is None:
                return False
            nrt.matcher.withdraw(desc)
        req.error = None
        req.payload = None
        req._finish()
        self.runtime.stats["recvs_cancelled"] += 1
        return True

    def bcs_testall(self, reqs: Sequence[BcsRequest]) -> bool:
        """Non-blocking completion check for a set of requests."""
        return all(r.complete for r in reqs)

    def wait(self, handle: "RankHandle", reqs: Sequence[BcsRequest]) -> Generator:
        """Blocking test: suspend until done, restart at slice boundary."""
        yield from self._flush_overhead(handle)
        t0 = self.env.now
        yield from handle.nm.block_on(reqs)
        blocked = self.env.now - t0
        if blocked:
            stats = self.runtime.job_stats.get(handle.job.id)
            if stats is not None:
                stats["blocked_ns"] += blocked
        obs = self.runtime.obs
        if obs is not None:
            if obs.profiler is not None:
                op = f"wait({reqs[0].kind})" if reqs else "wait"
                obs.profiler.record_wait(
                    handle.job.id, handle.world_rank, op, t0, self.env.now
                )
            if obs.spans is not None and blocked:
                obs.spans.rank_wait(
                    handle.job.id, handle.world_rank, reqs, t0, self.env.now
                )

    def probe(self, handle: "RankHandle", info, rank, source, tag) -> bool:
        """bcs_probe(non-blocking): is a matching message pending?

        Looks at the unexpected queue the BR maintains — a message whose
        descriptor has arrived but has no posted receive yet.
        """
        self._observe_br(handle.node_id, "probe")
        probe_recv = RecvDescriptor(
            job_id=info.job.id,
            comm_id=info.comm_id,
            rank=rank,
            src_rank=source,
            tag=tag,
            capacity=UNLIMITED,
            request=None,
        )
        return any(
            probe_recv.matches(s) for s in handle.nrt.matcher.unexpected
        )

    # -- blocking convenience wrappers -----------------------------------------------------

    def send(self, handle, info, src_rank, dest, payload=None, tag=0, size=None):
        """bcs_send(blocking)."""
        req = self.post_send(handle, info, src_rank, dest, payload, tag, size)
        yield from self.wait(handle, [req])
        return req

    def recv(self, handle, info, rank, source=ANY_SOURCE, tag=ANY_TAG, size=None):
        """bcs_recv(blocking); returns the completed request."""
        req = self.post_recv(handle, info, rank, source, tag, size)
        yield from self.wait(handle, [req])
        return req

    def barrier(self, handle, info, rank):
        """bcs_barrier."""
        req = self.post_collective(handle, info, rank, "barrier")
        yield from self.wait(handle, [req])
        self._maybe_release(req)

    def bcast(self, handle, info, rank, payload=None, root=0, size=None):
        """bcs_bcast; every rank returns the broadcast payload."""
        req = self.post_collective(
            handle, info, rank, "bcast", root=root, payload=payload, size=size
        )
        yield from self.wait(handle, [req])
        result = req.payload
        self._maybe_release(req)
        return result

    def reduce(self, handle, info, rank, payload, op, root=0, all_ranks=False):
        """bcs_reduce (``all_ranks`` selects the allreduce variant)."""
        kind = "allreduce" if all_ranks else "reduce"
        req = self.post_collective(
            handle, info, rank, kind, root=root, op=op, payload=payload
        )
        yield from self.wait(handle, [req])
        result = req.payload
        self._maybe_release(req)
        return result

    # -- internals ------------------------------------------------------------------------------

    def _observe_br(self, node_id: int, call: str) -> None:
        """Note a rank read of Buffer Receiver state (probe/cancel).

        The batched scheduling phase stops solving DEM/MSM windows from
        here on.  A solved window already replaying stays exact — each
        Buffer Receiver step runs at its own instant — unless this read
        lands on the same nanosecond as a step of its own node, where
        the order of the two is not pinned down: that is an error.
        """
        runtime = self.runtime
        runtime.br_observed = True
        window = runtime.br_window
        if window is not None:
            now = self.env.now
            if now in window.get(node_id, ()):
                raise ScheduleWindowError(node_id, now, call)

    def _maybe_release(self, req: BcsRequest) -> None:
        """Recycle a request that never escaped to the caller.

        Only the blocking collective wrappers qualify — they return the
        payload (or nothing), never the handle, and their descriptor was
        already recycled when the epoch completed.  Skipped when span
        tracing is active: the tracker keys live wait references by
        request object identity.
        """
        runtime = self.runtime
        if runtime.config.reference:
            return
        obs = runtime.obs
        if obs is not None and obs.spans is not None:
            return
        runtime.pools.release_request(req)

    def _flush_overhead(self, handle: "RankHandle") -> Generator:
        t = handle.take_overhead()
        if t:
            yield self.env.timeout(t)
