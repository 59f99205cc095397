"""BCS-MPI runtime configuration.

Centralizes every timing constant of the global synchronization protocol
(paper §4.2) so experiments and ablations can sweep them.  Defaults are
calibrated to the paper's testbed: 500 µs time slices; descriptor exchange
plus message scheduling ≈ 125 µs (paper §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..units import seconds, us


#: Durations, costs and byte sizes: a negative value has no
#: meaning and would silently distort the slice machine (a negative
#: ``max_chunk_bytes`` used to schedule 1-byte chunks).
_NON_NEGATIVE = (
    "dem_min_duration",
    "msm_min_duration",
    "descriptor_bytes",
    "strobe_bytes",
    "descriptor_post_cost",
    "nic_descriptor_cost",
    "nic_reduce_cost_per_element",
    "max_chunk_bytes",
    "init_cost",
    "nm_compute_tax",
)


@dataclass(frozen=True)
class BcsConfig:
    """Tunable parameters of the BCS-MPI runtime."""

    #: Global time slice (paper §5.1 uses 500 µs everywhere).
    timeslice: int = us(500)
    #: Minimum duration of the Descriptor Exchange Microphase.
    dem_min_duration: int = us(65)
    #: Minimum duration of the Message Scheduling Microphase.
    #: dem + msm ≈ the paper's 125 µs global-message-scheduling phase.
    msm_min_duration: int = us(60)
    #: Bytes of one communication descriptor on the wire (DEM traffic).
    descriptor_bytes: int = 128
    #: Bytes of a microstrobe packet.
    strobe_bytes: int = 64
    #: Host-CPU cost for a process to post one descriptor to NIC memory
    #: (shared-memory FIFO, no system call — paper §4.5).
    descriptor_post_cost: int = us(0.6)
    #: NIC thread cost to process one descriptor (match, schedule, ...).
    nic_descriptor_cost: int = us(1.0)
    #: NIC reduce cost per element (softfloat on the FPU-less NIC).
    nic_reduce_cost_per_element: int = us(0.45)
    #: Fraction of the post-scheduling slice remainder budgeted for
    #: point-to-point data (the rest is reserved for BBM + RM).
    p2p_budget_fraction: float = 0.80
    #: Hard cap on a single scheduled chunk, bytes (0 = no cap).
    max_chunk_bytes: int = 0
    #: Multiplicative compute tax from the user-level NM daemon stealing
    #: host cycles every slice (paper §4.5's scheduling anomaly).
    #: Calibrated so the 10 ms-granularity synthetic benchmarks land at
    #: the paper's ~7.5 % (Fig. 8) and EP at ~5-6 % (Table 2).
    nm_compute_tax: float = 0.005
    #: One-time BCS runtime/job initialization cost (daemon + NIC thread
    #: setup; what makes short runs like IS pay a visible price, §5.3).
    init_cost: int = seconds(1.2)
    #: Whether the Reduce Helper computes with the softfloat library
    #: (bit-exact NIC arithmetic) or defers to numpy for speed.
    reduce_use_softfloat: bool = False
    #: Buffered sends (the B in BCS): the runtime snapshots the payload
    #: when the descriptor is posted and a *blocking* send completes
    #: immediately — only receives pay the 1.5-slice average delay.
    #: False gives strict synchronous sends (complete at delivery), the
    #: ablation baseline.
    buffered_sends: bool = True
    #: Stop the strobe loop automatically when no jobs remain.
    auto_stop: bool = True
    #: Run the reference simulator instead of the fast one.  The fast
    #: path (default) skips provably idle slices, matches with
    #: :class:`~repro.bcs.matching.HashMatcher`, answers the Strobe
    #: Sender's per-slice questions from incrementally maintained
    #: active-node sets, solves DEM/MSM/P2P microphases in one pass
    #: (falling back to batched NIC threads when a guard refuses),
    #: charges each microstrobe as one aggregated tree multicast and
    #: materializes per-node objects lazily.  The reference path walks
    #: every slice, matches with the
    #: :class:`~repro.bcs.matching.LinearMatcher` list scan, scans every
    #: node runtime, runs one NIC-thread step per descriptor and chunk,
    #: walks the per-destination strobe multicast and builds every node
    #: runtime and Strobe Receiver eagerly.  Virtual time is identical
    #: on both; only host wall-clock and footprint differ.
    reference: bool = False

    def __post_init__(self):
        if self.timeslice <= 0:
            raise ValueError("timeslice must be positive")
        for name in _NON_NEGATIVE:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        sched = self.dem_min_duration + self.msm_min_duration
        if sched >= self.timeslice:
            raise ValueError(
                f"scheduling phase ({sched} ns) must fit in the "
                f"timeslice ({self.timeslice} ns)"
            )
        if not 0.0 < self.p2p_budget_fraction <= 1.0:
            raise ValueError("p2p_budget_fraction must be in (0, 1]")

    @property
    def scheduling_duration(self) -> int:
        """Minimum length of the global message scheduling phase."""
        return self.dem_min_duration + self.msm_min_duration

    def transmission_budget(self) -> int:
        """Time (ns) nominally available for the transmission phase."""
        return self.timeslice - self.scheduling_duration

    def p2p_slice_budget_bytes(self, link_bandwidth: float) -> int:
        """Max point-to-point payload bytes per link per slice.

        This is what the Message Scheduling Microphase uses to decide
        how much of a large message fits into the current slice (the
        chunking rule of paper §4.3).
        """
        budget_ns = int(self.transmission_budget() * self.p2p_budget_fraction)
        max_bytes = int(budget_ns * link_bandwidth / 1_000_000_000)
        if self.max_chunk_bytes:
            max_bytes = min(max_bytes, self.max_chunk_bytes)
        return max(max_bytes, 1)

    def with_(self, **kw) -> "BcsConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kw)

    @classmethod
    def kernel_level(cls, **kw) -> "BcsConfig":
        """The kernel-based implementation the paper §4.5 announces.

        Process scheduling moves from the user-level NM dæmon into the
        kernel, removing the per-slice scheduling noise (tax -> 0) and
        the shared-memory descriptor FIFO indirection (cheaper posts).
        Everything else — the slice machine, microphases, NIC threads —
        is unchanged.
        """
        defaults = dict(nm_compute_tax=0.0, descriptor_post_cost=300)
        defaults.update(kw)
        return cls(**defaults)
