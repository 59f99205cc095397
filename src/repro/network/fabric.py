"""The interconnect fabric: timed delivery of unicasts and multicasts.

The fabric knows nothing about MPI or BCS; it moves opaque payloads of a
given size between NICs with first-order contention: a transfer occupies
the sender's ``tx`` half and each receiver's ``rx`` half for the
serialization time, then pays wire latency.  Link halves are acquired in a
fixed global order (tx before rx, rx in ascending node id), which makes
the acquisition graph acyclic and the fabric deadlock-free by
construction.

Why endpoint-only contention is the right fidelity for QsNet: the
quaternary fat tree is a *full-bisection* network — every subtree has as
many up-links as leaves, so permutation traffic never contends inside
the switch stages; congestion materializes at the endpoints (many-to-one
fan-in saturating an rx link), which this model captures exactly.
Internal hot-spotting would only appear under adversarial adaptive-
routing collisions that QsNet's dispersive routing is built to avoid.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Generator, Iterable, Sequence

from ..sim import Engine, Trace
from ..units import bw_time
from .model import NetworkModel
from .nic import Nic
from .topology import build_topology


class Fabric:
    """Timed transport between a fixed set of NICs."""

    def __init__(
        self,
        env: Engine,
        model: NetworkModel,
        nics: Sequence[Nic],
        trace: Trace | None = None,
    ):
        self.env = env
        self.model = model
        # Kept as whatever sequence the cluster hands over: a plain list
        # (eager assembly) or a lazy NIC view over the node directory —
        # only len() and indexing are used, so flyweight NICs stay
        # unmaterialized until a transfer actually touches them.
        self.nics = nics
        self.tree = build_topology(
            model.topology, len(self.nics), radix=model.radix
        )
        self.trace = trace
        #: Total payload bytes moved (excluding headers), for reporting.
        self.bytes_moved = 0
        self.transfers = 0

    @property
    def n_nodes(self) -> int:
        """Number of NICs attached to the fabric."""
        return len(self.nics)

    # -- point-to-point ---------------------------------------------------------

    def unicast(self, src: int, dst: int, size: int, label: str = "") -> Generator:
        """Move ``size`` payload bytes from node ``src`` to node ``dst``.

        Completes when the last byte has arrived at ``dst``.  Loopback
        (src == dst) costs only the DMA startup: Elan local DMA does not
        enter the network.
        """
        if size < 0:
            raise ValueError("negative transfer size")
        model = self.model
        self.transfers += 1
        self.bytes_moved += size

        if src == dst:
            yield self.env.timeout(model.dma_startup + bw_time(size, model.link_bandwidth))
            return

        src_nic = self.nics[src]
        dst_nic = self.nics[dst]
        wire = bw_time(size + model.header_bytes, model.link_bandwidth)

        # Fast path: when both link halves are free with no queued
        # claimants, a request() pair would be granted right here at the
        # current instant — claim synchronously and skip two event hops.
        # Contended transfers fall back to the ordered acquisition that
        # keeps the fabric deadlock-free.
        if src_nic.tx.try_acquire():
            if not dst_nic.rx.try_acquire():
                src_nic.tx.release()
                yield src_nic.tx.request()
                yield dst_nic.rx.request()
        else:
            yield src_nic.tx.request()
            yield dst_nic.rx.request()
        start = self.env.now
        try:
            yield self.env.timeout(model.dma_startup + wire)
        finally:
            src_nic.tx.release()
            dst_nic.rx.release()
        yield self.env.timeout(model.latency(self.tree.hops(src, dst)))
        if self.trace is not None:
            self.trace.emit(
                self.env.now,
                "fabric.unicast",
                src=src,
                dst=dst,
                size=size,
                start=start,
                label=label,
            )

    def solve_unicasts(self, queues: Sequence[tuple], hold: int, chained: bool = False):
        """Exact timing of a batch of :meth:`unicast` calls, without running them.

        ``queues`` pairs an issuer (a NIC thread processor
        :class:`~repro.sim.Resource`) with the ``(src, dst, size)``
        transfers it issues, in order.  Two batch shapes are solved:

        - *FIFO-parallel* (the P2P microphase's DMA Helpers): at
          ``env.now`` one process per transfer starts, queue by queue in
          list order; each holds its queue's issuer for ``hold`` ns
          (when ``hold > 0``) and then runs :meth:`unicast`.
        - *chained* (``chained=True``, the DEM's Buffer Senders): one
          process per queue starts at ``env.now``, in list order, and
          runs its transfers back to back — hold the issuer, unicast,
          and only after the arrival the next hold.

        A private loop over ``(time, seq)`` replays those processes'
        scheduling steps in the engine's order — issuer grants, the
        loopback and ``try_acquire`` fast paths, the ordered tx-then-rx
        fallback, releases granting the next waiter — so every transfer
        finishes at the instant the engine would finish it.

        Pure: reads link state, changes nothing (the caller commits the
        ``transfers``/``bytes_moved`` counts if it uses the result).
        Returns ``(done, order, end)``: each transfer's completion
        instant (flat, queue by queue), the transfer indices in the
        order the engine would complete them, and the last instant.
        Returns None when the batch cannot be solved in isolation: an
        issuer or link half it uses is busy or has waiters now, unicast
        tracing is on, or — FIFO-parallel only — a transfer's last step
        has zero delay (it would interleave with events created at that
        same instant; a chain's arrivals are replayed in solved order,
        so zero-delay steps are exact there).
        """
        if self.trace is not None and self.trace.enabled_for("fabric.unicast"):
            return None
        model = self.model
        nics = self.nics
        hops = self.tree.hops
        startup = model.dma_startup
        header = model.header_bytes
        bandwidth = model.link_bandwidth
        now = self.env.now

        issuer = []  # per transfer: its queue's index
        nxt = []  # chained: the next transfer of the same queue, or -1
        src_of = []
        dst_of = []
        span = []  # loopback: DMA time; remote: link hold (startup + wire)
        tail = []  # remote: wire latency after the link hold
        tx_nodes = set()
        rx_nodes = set()
        heads = []  # chained: each non-empty queue's first transfer
        latency_of: dict = {}  # hops -> wire latency
        wire_of: dict = {}  # size -> link hold
        for q, (res, transfers) in enumerate(queues):
            if res.in_use or res.queue_length:
                return None
            if transfers:
                heads.append(len(issuer))
            for src, dst, size in transfers:
                issuer.append(q)
                nxt.append(len(issuer))
                src_of.append(src)
                dst_of.append(dst)
                if src == dst:
                    span.append(startup + bw_time(size, bandwidth))
                    tail.append(0)
                    if span[-1] == 0 and not chained:
                        return None
                    continue
                h = hops(src, dst)
                latency = latency_of.get(h)
                if latency is None:
                    latency = latency_of[h] = model.latency(h)
                if latency == 0 and not chained:
                    return None
                wire = wire_of.get(size)
                if wire is None:
                    wire = wire_of[size] = startup + bw_time(size + header, bandwidth)
                span.append(wire)
                tail.append(latency)
                tx_nodes.add(src)
                rx_nodes.add(dst)
            if transfers:
                nxt[-1] = -1
        links = [nics[n].tx for n in tx_nodes] + [nics[n].rx for n in rx_nodes]
        if any(link.in_use or link.queue_length for link in links):
            return None

        n = len(issuer)
        done = [0] * n
        order = []
        # Resource -> FIFO of waiters; a key is present while it is held.
        issuer_wait: dict = {}
        tx_wait: dict = {}
        rx_wait: dict = {}
        # A pending step of transfer ``i`` is coded ``i * 8 + step``;
        # below, ``k`` is the base ``i * 8`` (waiter FIFOs hold bases).
        # Steps of a later instant sit in ``heap`` under ``time * big +
        # seq`` (``who[seq]`` is the code); a transfer schedules at most
        # six, so seq stays below big.  Steps due at the current instant
        # — grants, zero-delay holds — come after every heap entry of
        # that instant (those were scheduled earlier), so a FIFO keeps
        # them in order without a heap push.
        big = 8 * n + 8
        heap: list = []
        who: list = []
        ready: deque = deque()
        pop, push, later = heapq.heappop, heapq.heappush, who.append
        GRANT, HELD, TX, RX, LINK, ARRIVE = 1, 2, 3, 4, 5, 6

        def start_link(t, k):  # unicast() entered at ``t``
            i = k >> 3
            src, dst = src_of[i], dst_of[i]
            if src == dst:
                code, delay = k + ARRIVE, span[i]
            elif src not in tx_wait:
                tx_wait[src] = deque()
                if dst in rx_wait:  # rx busy: give tx back, re-request it (granted now)
                    ready.append(k + TX)
                    return
                rx_wait[dst] = deque()  # both halves free: claim both now
                code, delay = k + LINK, span[i]
            else:
                tx_wait[src].append(k)
                return
            if delay:
                push(heap, (t + delay) * big + len(who))
                later(code)
            else:
                ready.append(code)

        def start(t, k):  # the process asks the issuer for transfer ``k``
            if hold <= 0:
                start_link(t, k)
                return
            if chained:  # a chain's issuer is free between its transfers
                ready.append(k + GRANT)
                return
            q = issuer[k >> 3]
            waiters = issuer_wait.get(q)
            if waiters is None:
                issuer_wait[q] = deque()
                ready.append(k + GRANT)
            else:
                waiters.append(k)

        # Every process starts at ``now``, ahead of anything it schedules.
        t = now
        limit = (now + 1) * big
        for k in heads if chained else range(n):
            start(now, k * 8)
        while ready or heap:
            if ready and (not heap or heap[0] >= limit):
                code = ready.popleft()
            else:
                key = pop(heap)
                t = key // big
                limit = (t + 1) * big
                code = who[key - t * big]
            step = code & 7
            k = code - step
            if step == HELD:  # issuer hold over: pass it on, enter unicast()
                if not chained:
                    q = issuer[k >> 3]
                    waiters = issuer_wait[q]
                    if waiters:
                        ready.append(waiters.popleft() + GRANT)
                    else:
                        del issuer_wait[q]
                start_link(t, k)
            elif step == LINK:  # link hold over: release tx, then rx; fly
                i = k >> 3
                waiters = tx_wait[src_of[i]]
                if waiters:
                    ready.append(waiters.popleft() + TX)
                else:
                    del tx_wait[src_of[i]]
                waiters = rx_wait[dst_of[i]]
                if waiters:
                    ready.append(waiters.popleft() + RX)
                else:
                    del rx_wait[dst_of[i]]
                if tail[i]:
                    push(heap, (t + tail[i]) * big + len(who))
                    later(k + ARRIVE)
                else:
                    ready.append(k + ARRIVE)
            elif step == ARRIVE:  # arrived; a chain issues its next transfer
                i = k >> 3
                done[i] = t
                order.append(i)
                if chained and nxt[i] >= 0:
                    start(t, nxt[i] * 8)
            elif step == GRANT:  # issuer granted: hold it
                push(heap, (t + hold) * big + len(who))
                later(k + HELD)
            elif step == TX:  # tx granted: request rx
                dst = dst_of[k >> 3]
                waiters = rx_wait.get(dst)
                if waiters is None:
                    rx_wait[dst] = deque()
                    ready.append(k + RX)
                else:
                    waiters.append(k)
            else:  # RX granted: hold both halves
                delay = span[k >> 3]
                if delay:
                    push(heap, (t + delay) * big + len(who))
                    later(k + LINK)
                else:
                    ready.append(k + LINK)
        return done, order, max(done, default=now)

    # -- multicast -----------------------------------------------------------------

    def control_multicast(
        self,
        src: int,
        dests: Iterable[int],
        size: int,
        n_dests: int | None = None,
    ) -> Generator:
        """Tiny control multicast (strobes): pays latency, skips link queues.

        Microstrobes are minimal packets on QsNet's prioritized virtual
        channel; modelling per-receiver link occupancy for them would add
        thousands of simulator events per slice for sub-microsecond
        serializations, so they are charged latency + startup only.

        Only the *number* of distinct destinations matters for timing.
        Callers that already know it (the Strobe Sender keeps a sorted,
        deduplicated active-node list) pass ``n_dests`` so the five
        microstrobes per slice don't rebuild a set each time.

        This generator is the reference path's strobe
        (``BcsConfig(reference=True)``); the fast path
        charges the identical duration via :meth:`strobe_latency` with a
        reusable timeout, skipping the generator machinery per strobe.
        """
        n = len(set(dests)) if n_dests is None else n_dests
        if n == 0:
            return
        yield self.env.timeout(self.strobe_latency(size, n))

    def strobe_latency(self, size: int, n_dests: int) -> int:
        """Duration (ns) of one control multicast to ``n_dests`` nodes.

        Pure arithmetic — DMA startup + serialization at the multicast
        bandwidth + the tree-shaped :meth:`NetworkModel.multicast_latency`
        — so the Strobe Sender can cache it per active-set size and
        charge a single aggregated timeout per microphase.
        """
        return (
            self.model.dma_startup
            + bw_time(size + self.model.header_bytes, self.model.mcast_bandwidth)
            + self.model.multicast_latency(n_dests)
        )

    def multicast(
        self, src: int, dests: Iterable[int], size: int, label: str = ""
    ) -> Generator:
        """Deliver ``size`` bytes from ``src`` to every node in ``dests``.

        With hardware multicast the switch tree replicates the packet, so
        the source pays one serialization and every destination receives
        at :attr:`NetworkModel.mcast_bandwidth`.  Without it, a software
        binomial tree is emulated via the same per-destination bandwidth
        plus log2(n) store-and-forward latencies (captured in
        :meth:`NetworkModel.multicast_latency`).

        Completes when the last destination has received the payload.
        """
        dest_list = sorted(set(dests))
        if not dest_list:
            return
        model = self.model
        self.transfers += 1
        self.bytes_moved += size * len(dest_list)

        src_nic = self.nics[src]
        remote = [d for d in dest_list if d != src]
        wire = bw_time(size + model.header_bytes, model.mcast_bandwidth)

        # Batched acquisition fast path: when the tx half and *every*
        # receiver's rx half are free with no queued claimants, the
        # sequential request chain below would grant them all at this
        # same instant — claim the whole set synchronously and skip
        # len(remote) + 1 event hops.  Any busy link falls back to the
        # ordered sequential acquisition (tx first, rx in ascending node
        # id), preserving the deadlock-freedom discipline.
        nics = self.nics
        held_rx = []
        if src_nic.tx.try_acquire():
            for d in remote:
                if nics[d].rx.try_acquire():
                    held_rx.append(d)
                else:
                    src_nic.tx.release()
                    for h in held_rx:
                        nics[h].rx.release()
                    held_rx = []
                    break
            else:
                try:
                    yield self.env.timeout(model.dma_startup + wire)
                finally:
                    src_nic.tx.release()
                    for d in held_rx:
                        nics[d].rx.release()
                yield self.env.timeout(model.multicast_latency(len(dest_list)))
                if self.trace is not None:
                    self.trace.emit(
                        self.env.now,
                        "fabric.multicast",
                        src=src,
                        dests=tuple(dest_list),
                        size=size,
                        label=label,
                    )
                return

        yield src_nic.tx.request()
        held_rx = []
        try:
            for d in remote:
                yield nics[d].rx.request()
                held_rx.append(d)
            yield self.env.timeout(model.dma_startup + wire)
        finally:
            src_nic.tx.release()
            for d in held_rx:
                nics[d].rx.release()
        yield self.env.timeout(model.multicast_latency(len(dest_list)))
        if self.trace is not None:
            self.trace.emit(
                self.env.now,
                "fabric.multicast",
                src=src,
                dests=tuple(dest_list),
                size=size,
                label=label,
            )

    # -- network conditional ----------------------------------------------------------

    def conditional(self, src: int, n_nodes: int | None = None) -> Generator:
        """Timing of one network-conditional round issued from ``src``.

        The caller evaluates the predicate against global state once this
        completes; the fabric only charges the Table 1 latency.  The
        conditional uses dedicated switch logic (QsNet) or a tiny
        software reduction (emulated networks); either way it does not
        contend with bulk data on the links, so no link resources are
        held.
        """
        n = self.n_nodes if n_nodes is None else n_nodes
        yield self.env.timeout(self.model.cw_latency(n))

    def __repr__(self) -> str:
        return f"<Fabric {self.model.name} n={self.n_nodes} transfers={self.transfers}>"
