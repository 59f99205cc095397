"""The scaling study: simulator throughput vs machine size.

The BCS design brief is a machine orders of magnitude past the paper's
62-node testbed, so the simulator itself must stay usable at 64k
nodes.  This study runs one nearest-neighbour job on clusters of
growing size — a point-to-point heavy job on a mostly idle machine, so
idle skipping, active sets, lazy nodes, the solved microphases and the
aggregated strobe are all measured — and times the fast path against
the reference path (``BcsConfig(reference=True)``), asserting that
virtual time and slice counts stay identical.

Rows are JSON-safe so :mod:`repro.farm.points` can register the study
as the ``scaling`` family.  Wall-clock fields are measurements of
*this host*, not of the simulated machine — the family therefore stays
out of the deterministic figure set.
"""

from __future__ import annotations

import gc
import resource
import time

from ..apps import nearest_neighbor_benchmark
from ..bcs import BcsConfig, BcsRuntime
from ..network import Cluster, ClusterSpec, by_name
from ..storm import JobSpec
from ..units import kib, seconds, us

__all__ = [
    "SCALING_NETWORKS",
    "gc_counters",
    "peak_rss_mib",
    "scaling_point",
    "tune_gc",
]

#: Network models exercised by the study, in row order: the paper's
#: testbed fabric and the BlueGene/L torus it anticipates.
SCALING_NETWORKS = ("qsnet", "bluegene_l_torus")


def tune_gc(threshold0: int = 50_000) -> None:
    """Freeze the warm interpreter graph and relax the gen-0 trigger.

    At 64k nodes the long-lived object population (arena arrays, the
    engine, module graph) is large enough that cyclic-GC passes walking
    it dominate wall-clock noise.  After warm-up the survivors are
    effectively permanent: ``gc.freeze`` moves them to the permanent
    generation so collections never traverse them again, and a raised
    gen-0 threshold keeps the collector from firing on every burst of
    short-lived slice garbage.  Benchmark harnesses and farm workers
    call this once, after their warm-up runs, inside a process that
    exists only to take the measurement — the tuning is deliberately
    not undone.
    """
    gc.collect()
    gc.freeze()
    gc.set_threshold(threshold0, 50, 50)


def gc_counters() -> tuple:
    """Current ``(collections, tracked_objects)`` for trend recording.

    ``collections`` sums every generation's lifetime collection count;
    deltas across a timed region show how often the collector fired
    inside it.  ``tracked_objects`` is the live cyclic-GC population —
    the flat-footprint signal the arena representation is meant to
    hold down.
    """
    collections = sum(s["collections"] for s in gc.get_stats())
    return collections, len(gc.get_objects())


def peak_rss_mib() -> float:
    """Process peak RSS in MiB (``ru_maxrss`` is KiB on Linux).

    The kernel counter is a cumulative high-water mark: it only ever
    grows over the process lifetime.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_run(
    network: str,
    n_nodes: int,
    active_ranks: int,
    iterations: int,
    granularity_us: float,
    message_kib: int,
    reference: bool,
):
    """One nearest-neighbour job on a fresh cluster.

    Returns ``(virtual_ns, slices, wall_s, gc_collections)``; only the
    slice machine is timed, not cluster construction.
    """
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes, model=by_name(network)))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, reference=reference))
    spec = JobSpec(
        app=nearest_neighbor_benchmark,
        n_ranks=active_ranks,
        name="scaling",
        params=dict(
            granularity=us(granularity_us),
            iterations=iterations,
            message_bytes=kib(message_kib),
        ),
    )
    # Building a large cluster leaves the young generations full of
    # construction garbage; collect it so the timed region measures the
    # slice machine, not a GC pass over the graph.
    gc.collect()
    gc0, _ = gc_counters()
    t0 = time.perf_counter()
    job = runtime.run_job(spec, max_time=seconds(3600))
    wall_s = time.perf_counter() - t0
    return job.runtime, runtime.stats["slices"], wall_s, gc_counters()[0] - gc0


def scaling_point(
    network: str = "qsnet",
    n_nodes: int = 4096,
    active_ranks: int = 32,
    iterations: int = 30,
    granularity_us: float = 400.0,
    message_kib: int = 4,
    reps: int = 2,
) -> dict:
    """One scaling row: the fast path vs ``BcsConfig(reference=True)``.

    Legs are interleaved best-of-``reps`` so bursts of background load
    hit both sides.  The fast leg runs first and the process peak RSS
    is taken right after it: ``ru_maxrss`` is a high-water mark, so
    sampling before the reference leg builds every node makes
    ``peak_rss_mib`` the fast stack's own footprint (farm workers run
    each point in a fresh child).  Both legs must agree on virtual time
    and slice count to the byte; divergence is a correctness bug, so it
    raises instead of recording a broken row.
    """
    args = (network, n_nodes, active_ranks, iterations, granularity_us, message_kib)
    # Warm both paths on a toy cluster so the first timed leg does not
    # absorb the interpreter's cold-start cost.
    for reference in (False, True):
        _timed_run(network, 8, 2, 2, granularity_us, message_kib, reference)
    tune_gc()
    fast_wall = ref_wall = float("inf")
    gc_collections = 0
    peak_rss = 0.0
    for rep in range(max(1, reps)):
        fast_ns, fast_slices, wall, collections = _timed_run(*args, False)
        fast_wall = min(fast_wall, wall)
        gc_collections = max(gc_collections, collections)
        if rep == 0:
            peak_rss = peak_rss_mib()
        ref_ns, ref_slices, wall, _ = _timed_run(*args, True)
        ref_wall = min(ref_wall, wall)
        if (fast_ns, fast_slices) != (ref_ns, ref_slices):
            raise AssertionError(
                f"scaling[{network},{n_nodes},{active_ranks}]: the fast path "
                f"diverged from the reference — {fast_ns} ns/{fast_slices} "
                f"slices vs {ref_ns} ns/{ref_slices} slices"
            )
    return {
        "network": network,
        "n_nodes": n_nodes,
        "active_ranks": active_ranks,
        "iterations": iterations,
        "message_kib": message_kib,
        "virtual_ms": fast_ns / 1e6,
        "slices": fast_slices,
        "slices_per_sec": fast_slices / fast_wall if fast_wall > 0 else 0.0,
        "reference_slices_per_sec": ref_slices / ref_wall if ref_wall > 0 else 0.0,
        "speedup": ref_wall / fast_wall if fast_wall > 0 else 0.0,
        "wall_s": fast_wall,
        "reference_wall_s": ref_wall,
        "peak_rss_mib": peak_rss,
        "gc_collections": gc_collections,
    }
