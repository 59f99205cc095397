"""The Message Scheduling Microphase budget allocator.

Once the Buffer Receivers have built match descriptors, the scheduled
transfers for the slice must collectively fit into the transmission
phase.  The allocator grants each match a chunk bounded by the per-link
byte budget of both endpoints; what doesn't fit is carried to following
slices ("the first chunk of the message is scheduled during the current
time slice and the remaining chunks in the following time slices",
paper §4.3).

Grant order is deterministic: in-flight matches (partially transferred)
first, then new matches, each in creation order — so a large message
cannot starve behind a stream of later arrivals, and two runs of the
same program schedule identically.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

from .config import BcsConfig
from .descriptors import Match


class Grants(list):
    """One slice's granted matches, in grant order.

    ``by_dst`` buckets the same matches by destination node (grant order
    within each bucket), built once while granting so neither the Strobe
    Sender nor each node's DMA Helper has to filter the whole list.
    """

    __slots__ = ("by_dst",)

    def __init__(self):
        super().__init__()
        self.by_dst: Dict[int, List[Match]] = {}

    def add(self, match: Match) -> None:
        """Append ``match`` and file it under its destination node."""
        self.append(match)
        bucket = self.by_dst.get(match.dst_node)
        if bucket is None:
            self.by_dst[match.dst_node] = [match]
        else:
            bucket.append(match)


class SliceScheduler:
    """Allocates per-slice transfer budgets to matches."""

    def __init__(self, config: BcsConfig, link_bandwidth: float):
        self.config = config
        self.link_bandwidth = link_bandwidth
        self.budget_bytes = config.p2p_slice_budget_bytes(link_bandwidth)
        #: Matches with bytes still to move, oldest first.
        self.in_flight: List[Match] = []
        #: Telemetry hub (set by ``BcsRuntime.attach_observability``).
        self.obs = None

    def add_matches(self, matches: Iterable[Match]) -> None:
        """Queue freshly built matches behind the in-flight ones."""
        self.in_flight.extend(matches)

    def schedule_slice(self) -> Grants:
        """Grant this slice's chunks; returns matches with work to do.

        Resets every match's ``scheduled_now`` and assigns grants subject
        to each endpoint's remaining tx/rx budget for the slice.
        """
        tx_left: Dict[int, int] = defaultdict(lambda: self.budget_bytes)
        rx_left: Dict[int, int] = defaultdict(lambda: self.budget_bytes)
        granted = Grants()

        # User traffic first, then system-class traffic (PFS etc.) into
        # the leftover budget: the QoS split of paper §1.
        ordered = [m for m in self.in_flight if not m.system] + [
            m for m in self.in_flight if m.system
        ]
        for match in ordered:
            match.scheduled_now = 0
            if match.total_bytes == 0:
                # Zero-byte messages (e.g. pure synchronization sends)
                # still need a delivery pass but consume no budget.
                granted.add(match)
                continue
            grant = min(
                match.remaining,
                tx_left[match.src_node],
                rx_left[match.dst_node],
            )
            if grant <= 0:
                continue
            match.scheduled_now = grant
            tx_left[match.src_node] -= grant
            rx_left[match.dst_node] -= grant
            granted.add(match)
        if self.obs is not None:
            self.obs.sched_slice(self, granted)
        return granted

    def retire_finished(self) -> List[Match]:
        """Drop completed matches from the in-flight list."""
        finished = [m for m in self.in_flight if m.finished]
        if finished:
            self.in_flight = [m for m in self.in_flight if not m.finished]
            if self.obs is not None:
                self.obs.sched_retired(finished)
        return finished

    @property
    def backlog_bytes(self) -> int:
        """Total bytes still waiting across all in-flight matches."""
        return sum(m.remaining for m in self.in_flight)

    def __repr__(self) -> str:
        return (
            f"<SliceScheduler in_flight={len(self.in_flight)} "
            f"budget={self.budget_bytes}B backlog={self.backlog_bytes}B>"
        )
