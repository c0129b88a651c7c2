"""Repository benchmark: batch_csv, gateway_poisson and stream_refit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch_csv --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json`` for the named
workload; with ``--trace 1`` the run traces all three workloads and the
metrics are the per-layer ones.  The line before it is a JSON provenance
record.  See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import os
import sys

# Every BLAS/OpenMP pool is pinned to one thread before numpy can load, here
# and (through the environment) in every process this run starts.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("batch_csv", "gateway_poisson", "stream_refit")
#: Set-ups per untraced run: the workload process plus this many set-up-only
#: processes; ``setup_s`` is their median.
SETUP_ONLY_PROCESSES = 3
WORKER_TIMEOUT_S = 120.0
END_TO_END = (
    ("setup_s", "s"),
    ("records_per_s", "rec/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("slo_attainment", "ratio"),
    ("detection_rate", "ratio"),
    ("false_alarm_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)
LAYER_UNITS = {
    "setup.interpreter_ms": "ms",
    "core.fit_ms": "ms",
    "core.bundle_save_ms": "ms",
    "core.bundle_load_ms": "ms",
    "core.kernels_build_ms": "ms",
    "core.detect_calls": "count",
    "core.detect_rows_mean": "rows",
    "core.detect_ms_p50": "ms",
    "core.descend_share": "ratio",
    "core.merge_ms": "ms",
    "data.load_csv_ms": "ms",
    "data.transform_ms": "ms",
    "cli.write_alarms_ms": "ms",
    "serving.server_start_ms": "ms",
    "serving.ping_rtt_ms_p50": "ms",
    "serving.encode_us_1row": "us",
    "serving.encode_us_max_rows": "us",
    "serving.submit_us_p50": "us",
    "serving.batch_rows_mean": "rows",
    "serving.detect_share": "ratio",
    "streaming.process_ms_p50": "ms",
    "streaming.self_ms_p50": "ms",
    "streaming.refit_ms_p50": "ms",
    "streaming.refits": "count",
    "streaming.drift_events": "count",
    "streaming.busy_share": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "trace.covered_share": "ratio",
    "trace.records_per_s": "rec/s",
    "trace.latency_p50_ms": "ms",
    "trace.overhead_pct": "%",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    # The fused-kernel build and any other temp file stay inside the run's
    # work directory, which is removed when the run ends.
    env["TMPDIR"] = str(work / "tmp")
    return env


def spawn_worker(spec: Dict[str, object], work: Path, tag: str) -> Dict[str, object]:
    """Run ``worker.py`` in a fresh interpreter and return its result."""
    spec = dict(spec, result=str(work / f"{tag}.result.json"))
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    command = [sys.executable, str(HERE / "worker.py"), str(spec_path)]
    spawned_at = time.monotonic()
    completed = subprocess.run(
        command + [repr(spawned_at)],
        env=child_env(work),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{tag} worker failed:\n{completed.stdout[-4000:]}")
    return json.loads(Path(spec["result"]).read_text())


def run_workload(workload: str, args: argparse.Namespace, work: Path, trace: bool):
    import inputs

    wl_work = work / workload
    (wl_work / "tmp").mkdir(parents=True, exist_ok=True)
    summary = inputs.build(workload, args.seed, args.seconds, wl_work / "inputs")
    spec = {
        "workload": workload,
        "inputs": str(wl_work / "inputs"),
        "work": str(wl_work),
        "seconds": args.seconds,
        "trace": trace,
        "trace_file": str(ROOT / ".perfbench" / "traces" / f"{workload}-seed{args.seed}.json"),
    }
    setups = []
    before = cpu_times()
    if not trace:
        for index in range(SETUP_ONLY_PROCESSES):
            setups.append(spawn_worker(dict(spec, role="setup"), wl_work, f"setup{index}")["setup"])
    result = spawn_worker(dict(spec, role="run"), wl_work, "run")
    setups.append(result["setup"])
    summary["cpu_steal_share"] = steal_share(before, cpu_times())
    return summary, setups, result


def cpu_times() -> List[int]:
    """Machine-wide CPU time counters (user ... steal) from ``/proc/stat``."""
    with open("/proc/stat") as stream:
        return [int(field) for field in stream.readline().split()[1:9]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor took from this VM between two samples."""
    spent = [b - a for a, b in zip(before, after, strict=True)]
    return spent[7] / max(1, sum(spent))


def provenance(args, workload_info) -> Dict[str, object]:
    import numpy

    return {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n_cpus": len(os.sched_getaffinity(0)),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workloads": workload_info,
    }


def _info(summary, setups, phase) -> Dict[str, object]:
    keep = (
        "engine", "banner", "tail_percentile", "samples", "samples_beyond_tail",
        "latency_limit_ms", "latency_percentiles_ms", "lag_p99_ms", "refits",
        "drift_events", "counts_ok",
    )
    return {
        "inputs": summary,
        "setups": setups,
        **{key: phase[key] for key in keep if key in phase},
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # Every process of the run then imports from the same warm bytecode.
    compileall.compile_dir(str(SRC), quiet=1)
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            line, info = traced(args, work)
        else:
            line, info = untraced(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(provenance(args, info)))
    print(json.dumps(line))
    return 0


def untraced(args, work: Path):
    summary, setups, result = run_workload(args.workload, args, work, trace=False)
    phase = result["phase"]
    values = dict(phase)
    values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}
    failed = int(phase["failed"])
    line = {
        "correct": failed == 0 and phase.get("counts_ok", True),
        "attempted": int(phase["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }
    return line, {args.workload: _info(summary, setups, phase)}


def traced(args, work: Path):
    """Trace all three workloads, so every per-layer metric is measured."""
    metrics: Dict[str, Dict[str, object]] = {}
    info = {}
    attempted = failed = 0
    correct = True
    for workload in WORKLOADS:
        summary, setups, result = run_workload(workload, args, work, trace=True)
        phase = result["phase"]
        for name, value in sorted(phase["layers"].items()):
            metrics[f"{workload}.{name}"] = {"value": float(value), "unit": LAYER_UNITS[name]}
        attempted += int(phase["attempted"])
        failed += int(phase["failed"])
        correct = correct and int(phase["failed"]) == 0 and phase.get("counts_ok", True)
        info[workload] = _info(summary, setups, phase)
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, info


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
