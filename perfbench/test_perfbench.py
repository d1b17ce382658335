"""Self-tests of the benchmark, at tiny workload sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spec import WORKLOADS  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def test_metric_names_units_and_workloads_match_benchmark_json():
    bench = _benchmark_json()
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.PER_LAYER_UNITS
    for name in list(end_to_end) + list(per_layer) + list(WORKLOADS):
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_coverage_guard_and_self_time_accounting(name):
    """Every hook resolves and fires where the layer map says it must, the
    self times add up to the traced wall, and the classes are restored."""
    from repro.simulator.engine import Simulator

    original_run = Simulator.run
    report = child.run(name, seed=1, mode="traced", tiny=True)
    assert Simulator.run is original_run
    for hook in layers.HOOKS:
        if name in hook.workloads:
            assert report["hook_calls"][hook.name] > 0, hook.name
    metrics = report["layers"]
    wall = metrics["host.traced_wall_s"]
    unattributed = metrics["host.unattributed_s"]
    # nothing counted twice (a negative remainder) and nothing large missed
    assert 0.0 <= unattributed < 0.02 * wall
    plain = child.run(name, seed=1, mode="plain", tiny=True)
    assert plain["checksum"] == report["checksum"]


def test_call_count_proxy_repeats_exactly_across_interpreters():
    def counts() -> dict:
        out = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", "cg256_el4_storm",
             "--seed", "3", "--mode", "calls", "--tiny"],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
            check=True,
        )
        return json.loads(out.stdout.splitlines()[-1])["calls"]

    first = counts()
    assert first == counts()
    assert first["total"] > 0 and first["protocol"] > 0 and first["el"] > 0


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def test_run_smoke_every_workload_and_refuses_concurrent_runs():
    """One test, so its invocations never overlap each other's lock."""
    for name in WORKLOADS:
        proc = _bench("--workload", name, "--seed", "2", "--seconds", "1",
                      "--trace", "1", "--tiny")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
        assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
        assert proc.stdout.startswith("manifest: ")

    proc = _bench("--workload", "lu32_logon_noel", "--seed", "5", "--seconds", "0",
                  "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] == run.MIN_RUNS and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())

    with open(HERE / "run.py") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        proc = _bench("--workload", "lu32_logon_noel", "--seed", "5",
                      "--seconds", "0", "--tiny")
    assert proc.returncode == 3 and proc.stdout == ""


def test_storm_pin_of_seed_1_is_the_bench_9_recording():
    bench9 = json.loads((ROOT / "BENCH_9.json").read_text())
    recorded = bench9["scenarios"]["nas_cg256_el4_storm"]["checksum"]
    pinned = WORKLOADS["cg256_el4_storm"].full.checksum_by_seed[1]
    assert {k: pinned[k] for k in recorded} == recorded


def test_output_check_counts_a_wrong_checksum_as_failed():
    from spec import check_output

    size = WORKLOADS["cg256_el4_storm"].full
    good = dict(size.checksum_by_seed[1])
    assert check_output(size, 1, good) == []
    assert check_output(size, 1, {**good, "events": good["events"] + 1})
    # an unrecorded seed still has to fold to the fault-free reference
    assert check_output(size, 99, {**good, "result_fold": 1})


def test_refuses_to_run_without_the_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lu32_logon_noel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""


def test_layer_map_names_only_benchmark_workloads():
    for hook in layers.HOOKS:
        assert set(hook.workloads) <= set(WORKLOADS), hook.name
