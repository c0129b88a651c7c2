"""One fresh process of a benchmark run: set-up, then optionally a timed phase.

Usage (spawned by ``run.py``, never by hand)::

    python3 perfbench/worker.py SPEC_JSON SPAWN_MONOTONIC

The parent pins every BLAS/OpenMP pool in the environment before this
interpreter starts, and passes the monotonic time it spawned us at, so the
interpreter start and imports count towards ``setup_s``.  The result is
written as JSON to the path named in the spec.
"""

from __future__ import annotations

import sys
import time

SPAWNED_AT = float(sys.argv[2])

import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import numpy as np  # noqa: E402

from repro.cli import load_bundle, save_bundle  # noqa: E402
from repro.core import GhsomDetector, kernels  # noqa: E402
from repro.data.loader import load_csv  # noqa: E402
from repro.data.preprocess import PreprocessingPipeline  # noqa: E402
from repro.serving import GatewayClient  # noqa: E402
from repro.serving.transport import encode_frame  # noqa: E402
from repro.streaming import OnlineDetector  # noqa: E402
from repro.streaming.drift import PageHinkleyDetector  # noqa: E402

import inputs  # noqa: E402
from tracing import NO_TRACE, Tracer, percentile, span_cost_s  # noqa: E402

IMPORTED_AT = time.monotonic()

#: Latency limits behind ``slo_attainment``, one per workload.
LATENCY_LIMIT_MS = {"batch_csv": 1000.0, "gateway_poisson": 25.0, "stream_refit": 1000.0}
#: Fixed tail percentile per workload, each with at least ten samples beyond
#: it at the workload's sample count (README.md says why these ones).
TAIL_PERCENTILE = {"batch_csv": 75.0, "gateway_poisson": 75.0, "stream_refit": 97.0}
#: ``OnlineDetector`` settings of stream_refit (buffer and drift test).
STREAM_BUFFER = 2000
GENERATOR_SWITCH_INTERVAL_S = 0.0005
GATEWAY_SCORE_RTOL = 1e-9  # ~1 ULP batch-composition tolerance of detect
_LISTEN_RE = re.compile(r"listening on ([0-9.]+):(\d+)")


def wait_until(target: float) -> None:
    """Return at ``target`` (a ``perf_counter`` time), yielding the GIL meanwhile.

    The generators spin instead of sleeping: on a 2-vCPU VM, waking from
    ``time.sleep`` overshoots by 1-9 ms at the 99th percentile, which would
    start operations late and leave the vCPU cold for the work that follows.
    """
    while time.perf_counter() < target:
        time.sleep(0)


def _digest(array: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16).hexdigest()


def _load(path: Path) -> object:
    with path.open("rb") as stream:
        return pickle.load(stream)


def _rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quality(predictions: np.ndarray, is_attack: np.ndarray) -> Dict[str, float]:
    attack = is_attack.astype(bool)
    return {
        "detection_rate": float(predictions[attack].mean()),
        "false_alarm_rate": float(predictions[~attack].mean()),
    }


def _latency_metrics(workload: str, latencies_s: np.ndarray, ok: np.ndarray) -> Dict[str, object]:
    latencies_ms = latencies_s * 1e3
    limit = LATENCY_LIMIT_MS[workload]
    tail = percentile(latencies_ms[ok], TAIL_PERCENTILE[workload])
    return {
        "latency_p50_ms": percentile(latencies_ms[ok], 50.0),
        "latency_tail_ms": tail,
        "tail_percentile": TAIL_PERCENTILE[workload],
        "samples": int(ok.sum()),
        "samples_beyond_tail": int(np.sum(latencies_ms[ok] > tail)),
        "slo_attainment": float(np.sum(ok & (latencies_ms <= limit)) / latencies_ms.shape[0]),
        "latency_limit_ms": limit,
        # For the record only: percentiles too host-dependent to bound.
        "latency_percentiles_ms": {
            f"p{q:g}": percentile(latencies_ms[ok], q) for q in (90.0, 95.0, 99.0)
        },
    }


def _die_with_parent() -> None:
    """Have the kernel stop the gateway if this process dies (PR_SET_PDEATHSIG)."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(1, signal.SIGTERM) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")


class LoopbackGateway:
    """A ``repro-ids serve --engine fused`` subprocess on an ephemeral port."""

    def __init__(self, bundle: Path) -> None:
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--listen", "127.0.0.1:0", "--model", str(bundle), "--engine", "fused",
        ]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            preexec_fn=_die_with_parent,
        )
        self.client: Optional[GatewayClient] = None
        self.banner = ""
        seen: List[str] = []
        for line in self.process.stdout:
            seen.append(line)
            match = _LISTEN_RE.search(line)
            if match:
                self.banner = line.strip()
                break
        else:
            self.stop()
            raise RuntimeError(f"gateway failed to start: {''.join(seen)!r}")
        # Keep draining the pipe so the server can never block on a full one.
        self._drain = threading.Thread(target=self._drain_output, daemon=True)
        self._drain.start()
        try:
            self.client = GatewayClient((match.group(1), int(match.group(2))))
            if not self.client.ping(timeout=30):
                raise RuntimeError("gateway did not answer its first ping")
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def _drain_output(self) -> None:
        for _ in self.process.stdout:
            pass

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        if match is None:
            raise RuntimeError("no VmHWM for the gateway process")
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Context:
    """What set-up leaves behind for the timed phase."""

    def __init__(self, spec: Dict[str, object], tracer) -> None:
        self.workload = str(spec["workload"])
        self.inputs = Path(str(spec["inputs"]))
        self.work = Path(str(spec["work"]))
        self.tracer = tracer
        self.bundle = self.work / "model.json"
        self.pipeline: Optional[PreprocessingPipeline] = None
        self.detector: Optional[GhsomDetector] = None
        self.gateway: Optional[LoopbackGateway] = None


def setup(ctx: Context) -> Dict[str, float]:
    """Fit the pipeline and the detector, save the bundle, start the gateway."""
    tracer = ctx.tracer
    train = _load(ctx.inputs / "train.pkl")  # benchmark input: not timed
    labels = [str(category) for category in train.categories]
    started = time.perf_counter()
    with tracer.span("data.pipeline_fit"):
        ctx.pipeline = PreprocessingPipeline().fit(train)
        X_train = ctx.pipeline.transform(train)
    with tracer.span("core.fit"):
        ctx.detector = GhsomDetector(inputs.ghsom_config(), random_state=inputs.TRAIN_SEED)
        ctx.detector.fit(X_train, labels)
    with tracer.span("core.bundle_save"):
        save_bundle(ctx.pipeline, ctx.detector, ctx.bundle)
    timings = {
        "interpreter_s": IMPORTED_AT - SPAWNED_AT,
        "fit_save_s": time.perf_counter() - started,
        "server_start_s": 0.0,
    }
    if ctx.workload == "gateway_poisson":
        with tracer.span("serving.server_start"):
            ctx.gateway = LoopbackGateway(ctx.bundle)
        timings["server_start_s"] = ctx.gateway.start_s
    timings["setup_s"] = sum(timings.values())
    return timings


# --------------------------------------------------------------------------- #
# batch_csv: closed loop of `repro-ids detect`-shaped jobs
# --------------------------------------------------------------------------- #
def _write_alarms(path: Path, result) -> None:
    with path.open("w") as handle:
        handle.write("record_index,alarm,score,predicted_category\n")
        for index, (alarm, score, category) in enumerate(
            zip(result.predictions, result.scores, result.categories, strict=True)
        ):
            handle.write(f"{index},{int(alarm)},{float(score):.6f},{category}\n")


def run_batch(ctx: Context, seconds: float) -> Dict[str, object]:
    tracer = ctx.tracer
    data = _load(ctx.inputs / "batch.pkl")
    files, datasets = data["files"], data["datasets"]
    alarms_path = ctx.work / "alarms.csv"
    jobs: List[Dict[str, object]] = []
    first_predictions: Dict[int, np.ndarray] = {}
    detect_stats = []
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        index = len(jobs) % len(files)
        job_start = time.perf_counter()
        with tracer.span("core.bundle_load"):
            pipeline, detector = load_bundle(ctx.bundle)
        with tracer.span("data.load_csv"):
            records = load_csv(files[index])
        with tracer.span("data.transform"):
            X = pipeline.transform(records)
        with tracer.span("core.detect"):
            result = detector.detect(X)
        with tracer.span("cli.write_alarms"):
            _write_alarms(alarms_path, result)
        job_end = time.perf_counter()
        jobs.append(
            {
                "file": index,
                "start": job_start,
                "seconds": job_end - job_start,
                "records": len(records),
                "scores": _digest(result.scores),
                "predictions": _digest(result.predictions),
            }
        )
        first_predictions.setdefault(index, np.asarray(result.predictions))
        detect_stats.append(result.stats)
        if job_end >= deadline:
            break
    wall = time.perf_counter() - started
    peak_rss = _rss_mb_self()

    # Check: every job's scores are byte-identical to detect on the
    # in-memory transform of the same records, by the set-up objects.
    reference = {}
    for index in sorted(first_predictions):
        expected = ctx.detector.detect(ctx.pipeline.transform(datasets[index]))
        reference[index] = (_digest(expected.scores), _digest(expected.predictions))
    failed = sum(
        1 for job in jobs if (job["scores"], job["predictions"]) != reference[job["file"]]
    )
    scored = sorted(first_predictions)
    quality = _quality(
        np.concatenate([first_predictions[i] for i in scored]),
        np.concatenate([datasets[i].is_attack for i in scored]),
    )
    latencies = np.array([job["seconds"] for job in jobs])
    result = {
        "attempted": len(jobs),
        "failed": failed,
        "records_per_s": sum(int(job["records"]) for job in jobs) / wall,
        "peak_rss_mb": peak_rss,
        "engine": detector.resolved_plan().engine,
        **quality,
        **_latency_metrics("batch_csv", latencies, np.ones(len(jobs), dtype=bool)),
    }
    if tracer.enabled:
        result["layers"] = _batch_layers(tracer, jobs, detect_stats, wall)
    return result


def _p50_ms(tracer: Tracer, name: str) -> float:
    return percentile(tracer.durations(name), 50.0) * 1e3


def _detect_layers(tracer: Tracer, detect_stats) -> Dict[str, float]:
    """The ``core.detect`` figures: span times plus ``DetectionResult.stats``."""
    return {
        "core.detect_calls": float(len(detect_stats)),
        "core.detect_rows_mean": float(np.mean([s.n_records for s in detect_stats])),
        "core.detect_ms_p50": _p50_ms(tracer, "core.detect"),
        "core.descend_share": sum(s.descend_s for s in detect_stats)
        / sum(s.total_s for s in detect_stats),
        "core.merge_ms": percentile([s.merge_s for s in detect_stats], 50.0) * 1e3,
    }


def _batch_layers(tracer: Tracer, jobs, detect_stats, wall: float) -> Dict[str, float]:
    job_time = sum(float(job["seconds"]) for job in jobs)
    return {
        "data.load_csv_ms": _p50_ms(tracer, "data.load_csv"),
        "data.transform_ms": _p50_ms(tracer, "data.transform"),
        "core.bundle_load_ms": _p50_ms(tracer, "core.bundle_load"),
        "cli.write_alarms_ms": _p50_ms(tracer, "cli.write_alarms"),
        **_detect_layers(tracer, detect_stats),
        "trace.covered_share": tracer.top_level_time(jobs[0]["start"]) / job_time,
        "trace.records_per_s": sum(int(job["records"]) for job in jobs) / wall,
    }


# --------------------------------------------------------------------------- #
# gateway_poisson: open-loop Poisson requests to `repro-ids serve`
# --------------------------------------------------------------------------- #
def run_gateway(ctx: Context, seconds: float) -> Dict[str, object]:
    tracer = ctx.tracer
    schedule = _load(ctx.inputs / "gateway.pkl")
    records = schedule["records"]
    X = ctx.pipeline.transform(records)  # request rows: prepared before timing
    is_attack = records.is_attack
    due = schedule["due"]
    sizes, offsets = schedule["sizes"], schedule["offsets"]
    requests = [
        X[o] if s == 1 else np.ascontiguousarray(X[o : o + s])
        for o, s in zip(offsets.tolist(), sizes.tolist(), strict=True)
    ]
    client = ctx.gateway.client
    ping_s = []
    for _ in range(200):
        begin = time.perf_counter()
        client.ping()
        ping_s.append(time.perf_counter() - begin)

    n = len(requests)
    done_at = np.zeros(n)
    results: List[object] = [None] * n  # None: failed or unanswered
    lag = np.zeros(n)
    submit_s = np.zeros(n)
    lock = threading.Lock()
    all_done = threading.Event()
    completed = [0]

    def on_done(index: int, future) -> None:
        done_at[index] = time.perf_counter()
        if future.exception() is None:
            results[index] = future.result()
        with lock:
            completed[0] += 1
            if completed[0] == n:
                all_done.set()

    # Replies complete on the connection's reader thread; a short switch
    # interval lets the sending thread take the GIL back on time.  The
    # collector stays off while sending: the replies this process keeps grow
    # its heap, and a full collection of it stalls sender and reader alike
    # for ~100 ms (the gateway process keeps its collector).
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(GENERATOR_SWITCH_INTERVAL_S)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter() + 0.05
        for index, rows in enumerate(requests):
            target = start + float(due[index])
            wait_until(target)
            sent = time.perf_counter()
            with tracer.span("serving.submit"):
                future = client.submit(rows)
            submit_s[index] = time.perf_counter() - sent
            lag[index] = sent - target
            future.add_done_callback(lambda f, i=index: on_done(i, f))
        all_done.wait(timeout=60)
    finally:
        gc.enable()
        sys.setswitchinterval(switch_interval)
    peak_rss = ctx.gateway.peak_rss_mb()
    answered = np.array([r is not None for r in results])
    latencies = done_at - (start + due)

    # Check against a local detect with the same serving config.
    build_started = time.perf_counter()
    provider = kernels.fused_provider()
    kernels_build_s = time.perf_counter() - build_started
    _, reference = load_bundle(ctx.bundle, overrides={"engine": "fused"})
    failed = 0
    detect_s = []
    predictions = np.zeros(X.shape[0], dtype=np.int64)
    for index, rows in enumerate(requests):
        begin = time.perf_counter()
        expected = reference.detect(rows.reshape(1, -1) if rows.ndim == 1 else rows)
        detect_s.append(time.perf_counter() - begin)
        got = results[index]
        if got is None or not (
            np.array_equal(got.predictions, expected.predictions)
            and list(got.categories) == list(expected.categories)
            and np.allclose(got.scores, expected.scores, rtol=GATEWAY_SCORE_RTOL, atol=0.0)
        ):
            failed += 1
            continue
        predictions[offsets[index] : offsets[index] + sizes[index]] = got.predictions
    result = {
        "attempted": n,
        "failed": failed,
        "records_per_s": float(sizes[answered].sum()) / float(done_at[answered].max() - start),
        "peak_rss_mb": peak_rss,
        "engine": f"fused/{provider}",
        "banner": ctx.gateway.banner,
        "lag_p99_ms": percentile(lag, 99.0) * 1e3,
        **_quality(predictions, is_attack),
        **_latency_metrics("gateway_poisson", latencies, answered),
    }
    if tracer.enabled:
        batch_rows = [r.batch_rows for r in results if r is not None]
        mean_rows = max(1, int(round(float(np.mean(batch_rows)))))
        sample = np.ascontiguousarray(X[:mean_rows])
        served_detect_s = _median_call(lambda: reference.detect(sample), 200)
        largest = requests[int(np.argmax(sizes))]
        result["layers"] = {
            "core.kernels_build_ms": kernels_build_s * 1e3,
            "serving.server_start_ms": ctx.gateway.start_s * 1e3,
            "serving.ping_rtt_ms_p50": percentile(ping_s, 50.0) * 1e3,
            "serving.encode_us_1row": _median_call(
                lambda: encode_frame({"id": 1, "op": "detect", "rows": requests[0]}), 500
            ) * 1e6,
            "serving.encode_us_max_rows": _median_call(
                lambda: encode_frame({"id": 1, "op": "detect", "rows": largest}), 500
            ) * 1e6,
            "serving.submit_us_p50": percentile(submit_s, 50.0) * 1e6,
            "serving.batch_rows_mean": float(np.mean(batch_rows)),
            "serving.detect_share": served_detect_s * 1e3 / result["latency_p50_ms"],
            "core.detect_calls": float(len(detect_s)),
            "core.detect_rows_mean": float(np.mean(sizes)),
            "core.detect_ms_p50": percentile(detect_s, 50.0) * 1e3,
            "loadgen.lag_p99_ms": result["lag_p99_ms"],
            "trace.covered_share": tracer.top_level_time(start)
            / float(np.sum(latencies[answered])),
            "trace.latency_p50_ms": result["latency_p50_ms"],
        }
    return result


def _median_call(function, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        begin = time.perf_counter()
        function()
        times.append(time.perf_counter() - begin)
    return float(np.median(times))


# --------------------------------------------------------------------------- #
# stream_refit: open-loop replay into OnlineDetector(adaptation="refit")
# --------------------------------------------------------------------------- #
def _online(detector) -> OnlineDetector:
    return OnlineDetector(
        detector,
        adaptation="refit",
        buffer_size=STREAM_BUFFER,
        drift_detector=PageHinkleyDetector(delta=0.05, threshold=20.0, min_observations=100),
    )


def run_stream(ctx: Context, seconds: float) -> Dict[str, object]:
    tracer = ctx.tracer
    X = np.load(ctx.inputs / "stream_X.npy")
    y = np.load(ctx.inputs / "stream_y.npy")
    window = inputs.STREAM_WINDOW
    windows = [X[i : i + window] for i in range(0, X.shape[0], window)]
    pristine = pickle.dumps(ctx.detector)  # the replay reference starts from here
    detector = ctx.detector
    detect_stats = []
    if tracer.enabled:
        # Instance-level wrappers: OnlineDetector calls these attributes.
        plain_detect = detector.detect

        def traced_detect(matrix):
            with tracer.span("core.detect"):
                result = plain_detect(matrix)
            detect_stats.append(result.stats)
            return result

        detector.detect = traced_detect
        detector.fit = tracer.wrap("core.fit", detector.fit)
    online = _online(detector)

    n = len(windows)
    latency = np.zeros(n)
    busy = np.zeros(n)
    refitted = np.zeros(n, dtype=bool)
    lags: List[float] = []
    outputs = []
    start = time.perf_counter() + 0.05
    end = start
    for index, block in enumerate(windows):
        due = start + (index * window + block.shape[0]) / inputs.STREAM_RATE
        if time.perf_counter() < due:
            wait_until(due)
            began = time.perf_counter()
            lags.append(began - due)
        else:
            began = time.perf_counter()
        with tracer.span("streaming.process"):
            step = online.process(block)
        end = time.perf_counter()
        latency[index] = end - due
        busy[index] = end - began
        refitted[index] = step.refitted
        outputs.append(step)
    wall = end - start
    peak_rss = _rss_mb_self()

    # Check: a replay from the same starting model gives the same outputs
    # and the same, non-zero, refit and drift counts.
    replay = _online(pickle.loads(pristine))
    failed = 0
    for block, step in zip(windows, outputs, strict=True):
        expected = replay.process(block)
        if not (
            np.array_equal(step.predictions, expected.predictions)
            and step.scores.tobytes() == expected.scores.tobytes()
        ):
            failed += 1
    counts = {"refits": online.n_refits, "drift_events": online.n_drift_events}
    expected_counts = {"refits": replay.n_refits, "drift_events": replay.n_drift_events}
    predictions = np.concatenate([step.predictions for step in outputs])
    result = {
        "attempted": n,
        "failed": failed,
        "counts_ok": counts == expected_counts and min(counts.values()) > 0,
        **counts,
        "records_per_s": X.shape[0] / wall,
        "peak_rss_mb": peak_rss,
        "engine": detector.resolved_plan().engine,
        "lag_p99_ms": percentile(lags, 99.0) * 1e3,
        **_quality(predictions, y),
        **_latency_metrics("stream_refit", latency, np.ones(n, dtype=bool)),
    }
    if tracer.enabled:
        process = np.array(tracer.durations("streaming.process"))
        # Self time of `process`: without the wrapped detect (and fit, on
        # refit windows, which the median below excludes).
        self_time = np.array(tracer.self_times("streaming.process"))
        result["layers"] = {
            "core.fit_ms": _p50_ms(tracer, "core.fit"),
            **_detect_layers(tracer, detect_stats),
            "streaming.process_ms_p50": percentile(process[~refitted], 50.0) * 1e3,
            "streaming.self_ms_p50": percentile(self_time[~refitted], 50.0) * 1e3,
            "streaming.refit_ms_p50": percentile(process[refitted], 50.0) * 1e3,
            "streaming.refits": float(online.n_refits),
            "streaming.drift_events": float(online.n_drift_events),
            "streaming.busy_share": float(process.sum()) / wall,
            "loadgen.lag_p99_ms": result["lag_p99_ms"],
            "trace.covered_share": tracer.top_level_time(start)
            / float(busy.sum()),
            "trace.latency_p50_ms": result["latency_p50_ms"],
        }
    return result


PHASES = {"batch_csv": run_batch, "gateway_poisson": run_gateway, "stream_refit": run_stream}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = Tracer() if spec["trace"] else NO_TRACE
    ctx = Context(spec, tracer)
    output: Dict[str, object] = {}
    try:
        output["setup"] = setup(ctx)
        if spec["role"] == "run":
            seconds = float(spec["seconds"])
            output["phase"] = PHASES[ctx.workload](ctx, seconds)
            if tracer.enabled:
                layers = output["phase"]["layers"]
                layers.setdefault("core.fit_ms", tracer.durations("core.fit")[0] * 1e3)
                layers["core.bundle_save_ms"] = tracer.durations("core.bundle_save")[0] * 1e3
                layers["setup.interpreter_ms"] = output["setup"]["interpreter_s"] * 1e3
                layers["trace.overhead_pct"] = (
                    100.0 * len(tracer.spans) * span_cost_s() / seconds
                )
                tracer.write(Path(str(spec["trace_file"])))
    finally:
        if ctx.gateway is not None:
            ctx.gateway.stop()
    Path(str(spec["result"])).write_text(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
