"""One benchmark process: set up, then run passes of one workload.

Run by `run.py` in a fresh interpreter, so the `lru_cache`s of quasilang
start empty and set-up is paid again:

    python3 -m perfbench.worker --workload automata --seed 1 --seconds 30
    python3 -m perfbench.worker --workload automata --seed 1 --passes 0
    python3 -m perfbench.worker --workload automata --seed 1 --passes 3 --trace 1

Set-up is `import quasilang` plus one untimed warm-up pass.  The timed part
is a closed loop with one client: each request is sent only after the
previous response was serialized and checked.  Whole passes run until their
request time reaches `--seconds`, or exactly `--passes` passes run.  The
process prints one JSON summary line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_ERRORS = 5
CALIBRATE_EVERY_S = 0.1  # request time between two calibration samples
SETUP_CALIBRATIONS = 5


def _calibration_loop() -> int:
    total = Fraction(0)
    table = {}
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i)
        table[(i, i % 5)] = total.numerator % 97
    return sum(table.values())


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (about 2.5 ms): a sample of
    how fast this machine runs Python right now."""
    start = perf_counter()
    _calibration_loop()
    return perf_counter() - start


class Session:
    """Sends the requests of pass generators and keeps latencies and failures."""

    def __init__(self, cli):
        self.cli = cli  # cli.execute_request is looked up per call, so tracing can patch it
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.resp_bytes = 0
        self.check_s = 0.0
        self.errors: list[str] = []
        self.tracer = None
        self.calibrations: list = []  # (index of the next request, seconds), when calibrating
        self.since_calibration = 0.0

    def send(self, req) -> tuple:
        tracer = self.tracer
        if tracer is not None:
            tracer.request = self.attempted
            tracer.active = True
        start = perf_counter()
        response = self.cli.execute_request(req.request)
        text = self.cli.dumps(response)
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.active = False
        self.attempted += 1
        self.since_calibration += elapsed
        if self.calibrations and self.since_calibration >= CALIBRATE_EVERY_S:
            self.calibrations.append((self.attempted, calibrate()))
            self.since_calibration = 0.0
        self.latencies.append(elapsed)
        self.resp_bytes += len(text)
        start = perf_counter()
        error = self.check(req, response, text)
        self.check_s += perf_counter() - start
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{req.kind}: {error}")
        return response, text

    @staticmethod
    def check(req, response, text) -> str | None:
        if not isinstance(response, dict) or response.get("status") != "ok":
            diag = response.get("diagnostics") if isinstance(response, dict) else response
            return f"status is not ok: {diag}"
        try:
            return req.check(response["result"], text)
        except Exception as exc:  # a malformed result must count as a failure, not end the run
            return f"check raised {type(exc).__name__}: {exc}"

    def run(self, generator) -> None:
        try:
            req = next(generator)
            while True:
                req = generator.send(self.send(req))
        except StopIteration:
            pass


def run_passes(session: Session, workload, store, seed: int, seconds: float | None, passes: int | None) -> list:
    """Timed passes; returns [first request, end, correct responses] of each."""
    from perfbench.workloads import pass_rng

    bounds = []
    while len(bounds) < passes if passes is not None else sum(session.latencies) < seconds:
        first, ok_before = session.attempted, session.attempted - session.failed
        session.run(workload.make_pass(store, pass_rng(seed, len(bounds))))
        bounds.append([first, session.attempted, session.attempted - session.failed - ok_before])
    return bounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="write the traced spans here")
    args = parser.parse_args(argv)
    if (args.seconds is None) == (args.passes is None):
        parser.error("give exactly one of --seconds and --passes")

    before = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    start = perf_counter()
    import quasilang  # noqa: F401  (the set-up being measured)
    from quasilang import cli, cyclotomic, genfun, grouptheory, langkit, segre, wordposet, wreath  # noqa: F401

    import_s = perf_counter() - start

    from perfbench import checks
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    store = checks.CanonicalStore.load()

    warm = Session(cli)
    warm.run(workload.warmup(store))
    setup_s = import_s + sum(warm.latencies)
    after = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    summary = {
        "setup_s": setup_s,
        "setup_calibration_s": sum(before + after) / len(before + after),
        "import_s": import_s,
        "warmup_requests": warm.attempted,
        "warmup_failed": warm.failed,
        "errors": list(warm.errors),
    }

    session = Session(cli)
    session.calibrations.append((0, calibrate()))
    uninstall = None
    if args.trace:
        from perfbench import tracing

        session.tracer, uninstall = tracing.install()
    try:
        bounds = run_passes(session, workload, store, args.seed, args.seconds, args.passes)
    finally:
        if uninstall is not None:
            uninstall()
    summary.update(
        passes=len(bounds),
        pass_bounds=bounds,
        calibrations=session.calibrations,
        attempted=session.attempted,
        failed=session.failed,
        timed_s=sum(session.latencies),
        check_s=session.check_s,
        latencies=session.latencies,
        resp_bytes=session.resp_bytes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    summary["errors"] += session.errors
    if args.trace:
        from perfbench import tracing

        summary["layers"] = tracing.metrics(session.tracer, session.resp_bytes)
        if args.spans_out:
            session.tracer.write(args.spans_out)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
