"""One workload measured in a fresh interpreter; prints one JSON line.

Run by ``perfbench/run.py`` (one child per workload, one at a time) so
``peak_rss_mib`` and the GC counts belong to that workload alone.
Modes:

- ``--probe-setup``: time what a fresh process pays before the first
  slice (import ``repro``, build the machine, launch) and exit.
- default: a checked warm-up run, then timed runs for ``--seconds``;
  reports the median rank-slices per host second, on the reference host
  (see :data:`REFERENCE_SPIN_S`).
- ``--trace 1``: untraced, traced and ``Observability(spans=True)``
  runs of the same seed, each for a third of ``--seconds``; reports
  the per-layer ledger and both overhead ratios.
- ``--pin``: print the seed-0 makespans and counters of every workload
  in the format of ``pins.json``.
"""

from __future__ import annotations

import time

#: Taken before ``repro`` is imported: set-up time starts here.
T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

PINS = Path(__file__).with_name("pins.json")
#: Host seconds one pass of the calibration loop takes on the reference
#: host.  Host times are reported on that host: a run on a machine (or
#: in a moment) where the loop takes twice as long has its times halved.
REFERENCE_SPIN_S = 0.15


def spin_s() -> float:
    """One pass of the fixed spin loop of ``repro.obs.trends.calibrate``.

    Taken next to every timed run: on a shared host the speed of the
    machine drifts by tens of percent over tens of seconds, and the
    median of these probes tracks that drift.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i & 1023
    return time.perf_counter() - t0


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def _first_difference(expected: dict, observed: dict):
    """(field, expected, observed) of the first differing signature field."""
    for key in ("makespan_ns", "counters"):
        exp, obs = expected.get(key), observed.get(key)
        if isinstance(exp, dict) and isinstance(obs, dict):
            for name in exp:
                if exp[name] != obs.get(name):
                    return f"{key}.{name}", exp[name], obs.get(name)
        elif exp != obs:
            return key, exp, obs
    return None


class Session:
    """The runs of one workload and seed, and every check they passed or failed."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        from perfbench import workloads

        self.workloads = workloads
        self.plan = workloads.make_plan(workload, seed, tiny)
        pins = json.loads(PINS.read_text()) if seed == 0 and not tiny else {}
        self.pinned = pins.get(workload)
        self.reference = None
        #: Garbage collections during the last run's timed region.
        self.gc_collections = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def run(self, obs=None, tracer=None, check="repeat"):
        """One checked run; returns ``(Run, Outcome, wall seconds)``."""
        gc.collect()
        run = self.workloads.Run(self.plan, obs)
        if tracer is not None:
            tracer.begin()
        gc0 = _gc_collections()
        t0 = time.perf_counter()
        run.launch()
        run.run()
        wall = time.perf_counter() - t0
        self.gc_collections = _gc_collections() - gc0
        if tracer is not None:
            tracer.end()
        out = run.outcome()
        sig = out.signature
        name = self.plan.workload
        if self.reference is None:
            self.reference = sig
        diff = _first_difference(self.reference, sig)
        if diff is not None:
            out.fail(name, "*", f"{check}:{diff[0]}", diff[1], diff[2])
        if self.pinned is not None:
            diff = _first_difference(self.pinned, sig)
            if diff is not None:
                out.fail(name, "*", f"pinned:{diff[0]}", diff[1], diff[2])
        self.attempted += len(out.job_names)
        self.failed += len(out.failed_jobs)
        self.failures.extend(out.failures)
        return run, out, wall

    def result(self, **extra) -> dict:
        return {
            "workload": self.plan.workload,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures[:20],
            "signature": self.reference,
            **extra,
        }


def _repeat(budget_s: float, at_least: int, fn) -> list:
    """Call ``fn`` until ``budget_s`` has passed and it ran ``at_least`` times.

    Keep ``fn``'s results small: a retained ``Run`` keeps its whole machine
    alive, and a heap that grows run after run slows every later run.
    """
    results = []
    t_end = time.perf_counter() + budget_s
    while len(results) < at_least or time.perf_counter() < t_end:
        results.append(fn())
    return results


def measure(session: Session, seconds: float) -> dict:
    """Warm-up, then timed runs: median rank-slices per host second.

    The median rate is scaled by the median spin probe taken before each
    run, relative to :data:`REFERENCE_SPIN_S`.

    Peak RSS is read after the warm-up run: one run of the workload, not
    a high-water mark that depends on how many runs fit in the budget.
    """
    session.run()
    peak_rss = _peak_rss_mib()

    def timed():
        probe = spin_s()
        _, out, wall = session.run()
        return out.rank_slices / wall, probe

    runs = _repeat(seconds, 3, timed)
    rates = [rate for rate, _ in runs]
    probes = [probe for _, probe in runs]
    speed = statistics.median(probes) / REFERENCE_SPIN_S
    return session.result(
        rank_slices_per_s=statistics.median(rates) * speed,
        raw_rates=rates,
        spin_probes_s=probes,
        peak_rss_mib=peak_rss,
    )


def _percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def trace(session: Session, seconds: float) -> dict:
    """Untraced, traced and spans-on runs of one seed; the per-layer ledger."""
    from repro.obs import Observability

    from perfbench.tracer import LAYERS, Tracer

    share = seconds / 3.0
    session.run()

    def untraced():
        _, _, wall = session.run()
        return wall, session.gc_collections

    plain = _repeat(share, 2, untraced)
    plain_wall = statistics.median(w for w, _ in plain)
    gc_per_run = statistics.mean(g for _, g in plain)

    samples = []
    tracer = Tracer()
    with tracer:
        def traced():
            run, out, _ = session.run(tracer=tracer, check="traced")
            marks = tracer.slice_marks
            chunk_site = tracer.sites.get("DmaHelper._move_chunk")
            samples.append({
                "wall_ns": tracer.wall_ns,
                "self_ns": dict(tracer.self_ns),
                "calls": {n: tracer.layers[n].calls for n in LAYERS},
                "resumes": {n: tracer.layers[n].resumes for n in LAYERS},
                "counts": dict(tracer.counts),
                "chunks": chunk_site.created if chunk_site else 0,
                "intervals_us": [(b - a) / 1e3 for a, b in zip(marks, marks[1:])],
                "rank_slices": out.rank_slices,
                "executed": run.runtime.stats["active_slices"],
                "skipped": run.runtime.stats["idle_slices_skipped"],
            })
        _repeat(share, 1, traced)
        profile = tracer.profile()

    spans_walls = _repeat(
        share, 1, lambda: session.run(obs=Observability(spans=True), check="spans")[2]
    )

    n = len(samples)

    def total(key, sub=None):
        return sum(s[key][sub] if sub else s[key] for s in samples)

    rank_slices = total("rank_slices")
    counts = {}
    for s in samples:
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
    intervals = [x for s in samples for x in s["intervals_us"]]
    executed = total("executed")
    offered = counts.get("match_offered", 0)
    metrics = {f"{layer}.self_s": total("self_ns", layer) / n / 1e9 for layer in LAYERS}
    metrics.update({
        "sim.events_per_rank_slice": counts.get("events", 0) / rank_slices,
        "sim.processes_per_rank_slice": counts.get("processes", 0) / rank_slices,
        "bcs.strobe.slices_executed": executed / n,
        "bcs.strobe.slices_skipped": total("skipped") / n,
        "bcs.strobe.slice_host_us.p50": _percentile(intervals, 50),
        "bcs.strobe.slice_host_us.p99": _percentile(intervals, 99),
        "bcs.threads.resumes_per_rank_slice": total("resumes", "bcs.threads") / rank_slices,
        "bcs.threads.chunks_per_rank_slice": total("chunks") / rank_slices,
        "bcs.matching.calls": total("calls", "bcs.matching") / n,
        "bcs.matching.match_ratio": counts.get("match_returned", 0) / offered if offered else 0.0,
        "bcs.scheduler.grants_per_slice": counts.get("grants", 0) / executed if executed else 0.0,
        "network.fabric.unicasts_per_rank_slice": counts.get("unicasts", 0) / rank_slices,
        "network.fabric.bytes": counts.get("unicast_bytes", 0) / n,
        "network.nic.holds_per_rank_slice": total("calls", "network.nic") / rank_slices,
        "api.calls_per_rank_slice": total("calls", "api") / rank_slices,
        "core.gas.calls": total("calls", "core.gas") / n,
        "py.gc_collections": gc_per_run,
        "trace.wall_s": total("wall_ns") / n / 1e9,
        "trace.overhead": total("wall_ns") / n / 1e9 / plain_wall,
        "obs.spans_overhead": statistics.median(spans_walls) / plain_wall,
    })
    return session.result(
        per_layer=metrics,
        untraced_walls=[w for w, _ in plain],
        spans_walls=spans_walls,
        profile=profile,
    )


def probe_setup(workload: str, seed: int) -> dict:
    """Seconds from interpreter start (before ``import repro``) to launched jobs."""
    from perfbench import workloads

    run = workloads.Run(workloads.make_plan(workload, seed))
    run.launch()
    return {"setup_s": time.perf_counter() - T_START, "spin_s": spin_s()}


def pin() -> dict:
    """The seed-0 signature of every workload (the content of ``pins.json``)."""
    from perfbench import workloads

    pins = {}
    for name in workloads.WORKLOADS:
        run = workloads.Run(workloads.make_plan(name, 0))
        run.launch()
        run.run()
        out = run.outcome()
        if out.failures:
            raise SystemExit("\n".join(out.failures))
        pins[name] = out.signature
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="nn_dense")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probe-setup", action="store_true")
    mode.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    if args.pin:
        print(json.dumps(pin(), indent=2, sort_keys=True))
        return 0
    if args.probe_setup:
        result = probe_setup(args.workload, args.seed)
    else:
        session = Session(args.workload, args.seed)
        if args.trace:
            result = trace(session, args.seconds)
        else:
            result = measure(session, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
