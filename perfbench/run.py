"""The simulator's benchmark: one command, every metric with its unit.

    python3 perfbench/run.py --workload nn_dense --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ledger.  Without ``--workload`` every
workload runs in turn.  Each workload runs in its own spawned
interpreter (``perfbench/child.py``), one at a time; set-up time is the
median of several fresh interpreters.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A full record (calibration, Python version, every run) is written to
``perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.child import REFERENCE_SPIN_S  # noqa: E402

WORKLOADS = ("nn_dense", "sparse_64k", "job_mix")
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Every run must end within this many seconds.
DEADLINE_S = 170.0


def _child(args: list, env: dict, timeout: float) -> dict:
    """Run ``perfbench.child`` with ``args``; its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.child", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"perfbench.child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _calibration() -> float:
    """Best spin-loop duration (s) of ``repro.obs.trends.calibrate``."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.trends.calibrate import Calibration

    return Calibration().best


def run_workload(workload: str, seed: int, seconds: float, traced: bool, env: dict,
                 t_start: float) -> dict:
    """Measure one workload; the record written to ``perfbench_out``."""
    common = ["--workload", workload, "--seed", str(seed)]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced)}
    metrics = {}
    if not traced:
        probes = [
            _child([*common, "--probe-setup"], env, 60.0) for _ in range(SETUP_PROBES)
        ]
        record["setup_probes"] = probes
        speed = statistics.median(p["spin_s"] for p in probes) / REFERENCE_SPIN_S
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes) / speed
    left = DEADLINE_S - (time.perf_counter() - t_start)
    child = _child(
        [*common, "--seconds", str(seconds), "--trace", str(int(traced))], env, left
    )
    record["child"] = child
    if traced:
        metrics.update(child["per_layer"])
    else:
        metrics["rank_slices_per_s"] = child["rank_slices_per_s"]
        metrics["peak_rss_mib"] = child["peak_rss_mib"]
        metrics["jobs_passed_frac"] = 1.0 - child["failed"] / child["attempted"]
    record["metrics"] = metrics
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    calibration = _calibration()
    python = platform.python_version()
    out_dir = ROOT / "perfbench_out"
    out_dir.mkdir(exist_ok=True)

    attempted = failed = 0
    metrics = {}
    workloads = args.workload or list(WORKLOADS)
    for workload in workloads:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace), env,
                              t_start)
        record.update(calibration_s=calibration, python=python)
        child = record["child"]
        attempted += child["attempted"]
        failed += child["failed"]
        missing = sorted(set(units) - set(record["metrics"]))
        if missing:
            raise RuntimeError(f"{workload}: metrics not measured: {missing}")
        path = out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True))

        print(f"{workload}  seed={args.seed}  python={python}  "
              f"calibration_s={calibration:.4f}  record={path.relative_to(ROOT)}")
        for line in child["failures"]:
            print(f"  FAILED {line}")
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for name, unit in units.items():
            value = record["metrics"][name]
            print(f"  {name:<40} {value:>16.6g} {unit}")
            metrics[prefix + name] = {"value": value, "unit": unit}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
