"""Self-tests for the benchmark harness (run with the repository's tests:
PYTHONPATH=src python -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from perfbench import checks, run
from perfbench.worker import Session
from perfbench.workloads import WORKLOADS, Req

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


class FakeCli:
    """Answers every request with an error, so chains stop after one step."""

    @staticmethod
    def execute_request(request):
        return {"status": "error", "diagnostics": ["not sent"]}

    @staticmethod
    def dumps(response):
        return json.dumps(response, sort_keys=True)


def _requests(generator, cli=FakeCli) -> list[str]:
    sent = []
    session = Session(cli)
    original = session.send

    def send(req):
        sent.append(checks.canonical_json(req.request))
        return original(req)

    session.send = send
    session.run(generator)
    return sent


@pytest.fixture(scope="module")
def store():
    return checks.CanonicalStore.load()


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic(store, name):
    workload = WORKLOADS[name]
    from perfbench.workloads import pass_rng

    first = _requests(workload.make_pass(store, pass_rng(5, 0)))
    again = _requests(workload.make_pass(store, pass_rng(5, 0)))
    other = _requests(workload.make_pass(store, pass_rng(6, 0)))
    assert first and first == again
    assert first != other


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_warmup_is_disjoint_from_timed_requests(store, name):
    from quasilang import cli
    from perfbench.workloads import pass_rng

    workload = WORKLOADS[name]
    warm = set(_requests(workload.warmup(store), cli))
    for seed in range(20):
        for index in range(2):
            timed = _requests(workload.make_pass(store, pass_rng(seed, index)))
            assert warm.isdisjoint(timed)


def test_corrupted_responses_count_as_failures(store):
    from quasilang import cli

    class Corrupting:
        @staticmethod
        def execute_request(request):
            response = cli.execute_request(request)
            if request["cmd"] == "group.table":
                response["result"]["rows"][0][0] = [1, ["2"]]
            if request["cmd"] == "wreath.stability":
                response["result"][-1] += 1
            return response

        dumps = staticmethod(cli.dumps)

    table = {"cmd": "group.table", "group": {"construct": "cyclic", "n": 3}}
    stability = {
        "cmd": "wreath.stability",
        "group": {"construct": "cyclic", "n": 2},
        "lambda": [[], [1]], "mu": [[], [1]], "nu": [[], []], "n_range": [2, 5],
    }
    reqs = [
        Req("group.table", table, checks.table_orthogonal),
        Req("wreath.stability", stability, checks.canonical(store, stability)),
    ]
    clean, dirty = Session(cli), Session(Corrupting)
    clean.run(r for r in reqs)
    dirty.run(r for r in reqs)
    assert (clean.attempted, clean.failed) == (2, 0)
    assert (dirty.attempted, dirty.failed) == (2, 2)


def test_tail_latency_keeps_ten_samples_beyond():
    lat = [i / 1000 for i in range(1, 2001)]
    assert run.tail_latency(lat, 99.0) == (99.0, 1.98)
    assert run.tail_latency(lat[:500], 99.0) == (90.0, 0.45)


def _run(*args) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.strip().splitlines()]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name):
    report, result = _run("--workload", name, "--seed", "3", "--seconds", "0.001", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = report["report"]["environment"]
    assert env["src_lines"] > 0 and env["nproc"] >= 1


def _traced_layers(name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
         "--workload", name, "--seed", "2", "--passes", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["failed"] == 0
    return summary["layers"]


def test_traced_counts_repeat_and_cover_every_per_layer_metric():
    a, b = _traced_layers("characters"), _traced_layers("characters")
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(a) | {"trace.overhead"} == set(per_layer)
    counts = [k for k, unit in per_layer.items() if unit != "s" and k in a]
    assert counts and all(a[k] == b[k] for k in counts), [(k, a[k], b[k]) for k in counts if a[k] != b[k]]
    assert a["cyclotomic.mul.calls"] > 0 and a["grouptheory.character_table.calls"] > 0
