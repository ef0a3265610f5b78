"""Smoke test of the perf ledger (outside tier-1 ``testpaths``).

Run with ``python -m pytest benchmarks/ledger/test_ledger_smoke.py``.
One ``--quick`` pass (tiny frame counts, well under a minute) checks
the *schema*, not the numbers: names, units, coverage, and that nothing
failed or leaked.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_ledger(*argv, timeout=170):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *argv],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )


def test_quick_ledger_schema(tmp_path):
    out = tmp_path / "ledger.json"
    proc = run_ledger("--quick", "--seed", "3", "--json", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)

    for key in ("nproc", "python", "start_method", "git_sha"):
        assert key in doc["host"]
    assert doc["seed"] == 3

    # The contract's workloads first, then the ones only the ledger runs.
    workloads = list(doc["workloads"])
    gated = [w["name"] for w in contract["workloads"]]
    assert workloads[:len(gated)] == gated
    assert workloads[len(gated):] == ["track_ring", "farm_serve"]
    end_to_end = [m["name"] for m in contract["end_to_end"]] + ["failed_share"]
    per_layer = {m["name"] for m in contract["per_layer"]}
    for name in workloads:
        entry = doc["workloads"][name]
        assert NAME.match(name)
        assert not entry["problems"], entry["problems"]
        assert sorted(entry["end_to_end"]) == sorted(end_to_end)
        assert entry["end_to_end"]["failed_share"]["value"] == 0
        for metric, item in {**entry["end_to_end"],
                             **entry["per_layer"]}.items():
            assert NAME.match(metric), metric
            assert item["unit"], metric
        assert "trace.overhead_ratio" in entry["per_layer"]
        # Together the two layer tables cover the contract exactly.
        measured = set(entry["per_layer"]) | set(doc["layers"])
        assert measured == per_layer, measured ^ per_layer
    for metric, item in doc["layers"].items():
        assert NAME.match(metric), metric
        assert item["unit"], metric

    # A document compared with itself is unchanged on every pair.
    same = run_ledger("--compare", str(out), str(out))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "regressed" not in same.stdout


def test_contract_mode_last_line(tmp_path):
    proc = run_ledger("--workload", "farm", "--seed", "1", "--quick",
                      "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert "setup_s" in result["metrics"]
