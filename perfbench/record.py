"""Record the canonical responses that `checks.canonical` compares against.

    PYTHONPATH=src python3 -m perfbench.record

Sends every warm-up request and every request of each workload's finite
canonical pool, and stores the digest of each response in
perfbench/canonical.json.  Run it only at a commit whose responses are
known to be right: recorded digests are what later commits must reproduce.
"""

from __future__ import annotations

import sys

from quasilang import cli

from perfbench import checks
from perfbench.worker import Session
from perfbench.workloads import WORKLOADS


def main() -> int:
    store = checks.CanonicalStore({}, recording=True)
    for workload in WORKLOADS.values():
        session = Session(cli)
        session.run(workload.warmup(store))
        session.run(workload.pool(store))
        print(f"{workload.name}: {session.attempted} requests, {session.failed} failed", file=sys.stderr)
        for error in session.errors:
            print(f"  {error}", file=sys.stderr)
        if session.failed:
            return 1
    store.save()
    print(f"{len(store.entries)} canonical responses in {checks.CANONICAL_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
