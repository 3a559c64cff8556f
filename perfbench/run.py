"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload automata --seed 1 --seconds 20 --trace 0

With `--trace 0` it starts `SETUP_PROBES` set-up-only worker processes and
one timed worker, one after another (one workload, one thread, one client),
and prints the end-to-end metrics.  With `--trace 1` it runs the workload's
fixed number of passes twice, untraced and traced, and prints the per-layer
metrics and the tracing overhead.  End-to-end times are scaled to a
reference machine speed with the workers' calibration samples (`scale`).
The last stdout line is the JSON result; the line before it is a report
with the environment, the unscaled times and the other details.  See
perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 4  # set-up-only processes; the timed worker's set-up is one more sample
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
CHILD_TIMEOUT_S = 170
# Times are reported at the speed at which the worker's calibration loop
# takes REFERENCE_CALIBRATION_S; see "Machine speed" in README.md.
REFERENCE_CALIBRATION_S = 0.0025
CALIBRATION_WINDOW = 5  # samples (about 0.5 s of request time) averaged around each request


def run_worker(args: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    env["PYTHONHASHSEED"] = "0"  # set and dict orders, hence work counts, repeat across runs
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies: list[float], highest: float) -> tuple[float, float]:
    """(percentile, value) by nearest rank: the workload's tail percentile, or
    the highest lower one in TAIL_PERCENTILES when fewer than ten samples lie
    beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (highest,) + tuple(q for q in TAIL_PERCENTILES if q < highest):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 0.0, ordered[0]


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "src_lines": lines,
    }


def scale(latencies: list[float], calibrations: list) -> list[float]:
    """Each latency at the reference speed: multiplied by
    REFERENCE_CALIBRATION_S over the mean of the CALIBRATION_WINDOW
    calibration samples taken around it."""
    starts = [i for i, _ in calibrations]
    samples = [c for _, c in calibrations]
    out = []
    j = 0
    for i, t in enumerate(latencies):
        while j + 1 < len(starts) and starts[j + 1] <= i:
            j += 1
        lo = max(0, min(j - CALIBRATION_WINDOW // 2, len(samples) - CALIBRATION_WINDOW))
        window = samples[lo : lo + CALIBRATION_WINDOW]
        out.append(t * REFERENCE_CALIBRATION_S * len(window) / sum(window))
    return out


def _pass_rate(latencies: list[float], bounds: list[list[int]]) -> float:
    """Median over passes of correct responses per second of request time."""
    return statistics.median(ok / sum(latencies[first:end]) for first, end, ok in bounds)


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, dict, int, int, bool]:
    base = ["--workload", workload.name, "--seed", str(seed)]
    probes = [run_worker(base + ["--passes", "0"]) for _ in range(SETUP_PROBES)]
    timed = run_worker(base + ["--seconds", str(seconds)])
    workers = probes + [timed]
    setups = [w["setup_s"] for w in workers]
    setups_scaled = [w["setup_s"] * REFERENCE_CALIBRATION_S / w["setup_calibration_s"] for w in workers]
    raw = timed["latencies"]
    lat = scale(raw, timed["calibrations"])
    attempted, failed = timed["attempted"], timed["failed"]
    percentile, tail = tail_latency(lat, workload.tail_percentile)
    metrics = {
        "setup_s": (statistics.median(setups_scaled), "s"),
        "req_per_s": (_pass_rate(lat, timed["pass_bounds"]), "1/s"),
        "lat_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "lat_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    calibration = [c for _, c in timed["calibrations"]]
    report = {
        "unscaled": {
            "setup_s": statistics.median(setups),
            "req_per_s": _pass_rate(raw, timed["pass_bounds"]),
            "lat_p50_ms": statistics.median(raw) * 1e3,
            "lat_tail_ms": tail_latency(raw, workload.tail_percentile)[1] * 1e3,
        },
        "calibration_ms": {
            "median": statistics.median(calibration) * 1e3,
            "min": min(calibration) * 1e3,
            "max": max(calibration) * 1e3,
            "samples": len(calibration),
        },
        "setup_samples_s": setups,
        "import_s": [w["import_s"] for w in workers],
        "passes": timed["passes"],
        "timed_s": timed["timed_s"],
        "check_s": timed["check_s"],
        "samples": len(lat),
        "tail_percentile": percentile,
        "fail_frac": failed / attempted,
        "errors": sum((w["errors"] for w in workers), []),
    }
    warm_ok = all(w["warmup_failed"] == 0 for w in workers)
    return metrics, report, attempted, failed, warm_ok


def traced(workload, seed: int) -> tuple[dict, dict, int, int, bool]:
    base = ["--workload", workload.name, "--seed", str(seed), "--passes", str(workload.trace_passes)]
    plain = run_worker(base)
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload.name}-{seed}.jsonl")
    run = run_worker(base + ["--trace", "1", "--spans-out", spans])
    layers = dict(run["layers"])
    layers["trace.overhead"] = run["timed_s"] / plain["timed_s"]
    from perfbench.tracing import dominant_layer, unit

    metrics = {k: (v, unit(k)) for k, v in layers.items()}
    report = {
        "passes": run["passes"],
        "untraced_s": plain["timed_s"],
        "traced_s": run["timed_s"],
        "dominant_layer": dominant_layer(layers),
        "spans_file": os.path.relpath(spans, ROOT),
        "errors": run["errors"],
    }
    return metrics, report, run["attempted"], run["failed"], run["warmup_failed"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quasilang", "__init__.py")):
        print(f"no quasilang package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, report, attempted, failed, warm_ok = traced(workload, args.seed)
    else:
        metrics, report, attempted, failed, warm_ok = end_to_end(workload, args.seed, args.seconds)
    report.update(workload=args.workload, seed=args.seed, trace=args.trace, environment=environment())
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0 and warm_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
