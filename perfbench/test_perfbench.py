"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import PROCS, tail
from worker import run_op
from workloads import SAMPLED_TRIALS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Hand-derived per-op counts. exhaustive3 walks a measurement tree: 1 + 8 + 64
# measurements, 8 + 64 + 512 collapsed states, one search per leaf. table3
# re-collapses each of the 512 outcomes twice from a fresh channel, through 3
# measurements each. sampled5 measures the channel once, then 4 phase senders
# per trial.
HAND_COUNTS = {
    "exhaustive3": {
        "qstate.measure_in_basis.calls": 73,
        "qstate.measure_in_basis.collapsed_built": 584,
        "protocol.correction_search.calls": 512,
    },
    "table3": {
        "protocol.collapse_branch.calls": 1024,
        "qstate.measure_in_basis.calls": 3072,
        "protocol.prepare_channel.calls": 1024,
    },
    "sampled5": {"qstate.measure_in_basis.calls": 1 + 4 * SAMPLED_TRIALS},
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_reports_every_end_to_end_metric(name):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert out["correct"] is True
    assert out["failed"] == 0
    assert out["attempted"] == PROCS * 3  # warm-up, one timed op, determinism repeat
    assert {k: m["unit"] for k, m in out["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert out["metrics"]["rss_growth_mb"]["value"] < out["metrics"]["peak_rss_mb"]["value"]
    assert f"{name}\tfailed_ops_frac 0.0" in proc.stdout


@pytest.fixture(scope="module")
def traced_runs() -> dict[str, tuple[dict, dict]]:
    runs = {}
    for name in sorted(WORKLOADS):
        pair = []
        for _ in range(2):
            proc = bench("--workload", name, "--seed", "5", "--seconds", "0", "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            pair.append(last_json(proc))
        runs[name] = tuple(pair)
    return runs


def _counts(out: dict) -> dict:
    """Every traced metric that is not a time."""
    return {
        k: m["value"]
        for k, m in out["metrics"].items()
        if m["unit"] not in ("s/op", "s") and k != "trace.overhead_frac"
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(traced_runs, name):
    out = traced_runs[name][0]
    assert out["correct"] is True and out["failed"] == 0
    assert {k: m["unit"] for k, m in out["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(traced_runs, name):
    first, second = traced_runs[name]
    assert _counts(first) == _counts(second)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_match_hand_derivation(traced_runs, name):
    metrics = traced_runs[name][0]["metrics"]
    assert {k: metrics[k]["value"] for k in HAND_COUNTS[name]} == HAND_COUNTS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_account_for_op_time(traced_runs, name):
    metrics = traced_runs[name][0]["metrics"]
    op_s = metrics["trace.op_s"]["value"]
    self_sum = sum(m["value"] for k, m in metrics.items() if k.endswith(".self_s"))
    unattributed = metrics["trace.unattributed_s"]["value"]
    assert self_sum + unattributed == pytest.approx(op_s, rel=1e-9)
    assert unattributed <= 0.05 * op_s


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = bench("--workload", "exhaustive3", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_scaling_check_runs_every_slowdown_correctly():
    proc = subprocess.run(
        [sys.executable, str(HERE / "scaling_check.py"), "--workload", "exhaustive3", "--seconds", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    # One block of each kind is too few ops for the PASS verdict to be
    # steady; this checks that every op of every kind ran and was correct.
    assert proc.returncode in (0, 1), proc.stderr
    assert "exhaustive3: 1 rounds, 4 ops of each kind, 0 failed" in proc.stdout
    assert "compute: " in proc.stdout and "memory: " in proc.stdout


def test_exception_out_of_the_cli_is_a_failed_op(tmp_path):
    def crash(argv):
        raise FileNotFoundError(argv[-1])

    result = run_op(crash, ["verify"], tmp_path / "r.json", WORKLOADS["exhaustive3"].check)
    assert result.failure == "raised FileNotFoundError"
    assert run_op(lambda argv: 1, ["verify"], tmp_path / "r.json", None).failure == "exit code 1"


def test_report_checks_reject_wrong_reports():
    verify = WORKLOADS["exhaustive3"].check
    good = {"passed": True, "aggregates": {"branch_count": 512, "min_fidelity": 1.0}}
    assert verify(json.dumps(good)) is None
    assert verify(json.dumps({**good, "passed": False})) is not None
    assert verify(json.dumps({**good, "aggregates": {"branch_count": 511, "min_fidelity": 1.0}})) is not None
    table = WORKLOADS["table3"].check
    entries = [{"outcome": f"{k:03o}", "fidelity": 1.0} for k in range(512)]
    assert table(json.dumps({"entries": entries})) is None
    assert table(json.dumps({"entries": entries[:-1]})) is not None
    entries[7]["fidelity"] = 1.0 - 1e-9
    assert table(json.dumps({"entries": entries})) is not None


def test_tail_is_the_op_with_ten_beyond_it():
    walls = [float(v) for v in range(1, 41)]
    assert tail(walls) == (30.0, 75.0)
    assert tail(walls[:5]) == (5.0, 100.0)
