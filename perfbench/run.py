"""The repository benchmark: Event-Logger workloads, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run of the simulator happens in a fresh interpreter (``child.py``),
one at a time, so peak RSS and GC state belong to that run alone; a
second benchmark started while one is running is refused, because
concurrent runs on a small host inflate every wall-clock figure.

``--trace 0`` makes untraced runs of the workload with ``--seed`` for
``--seconds`` (at least ``MIN_RUNS``; a run is started only while the
slowest one so far still fits) and reports the fastest run's end-to-end
figures.  Co-tenant load on a shared host only ever slows a run, in
episodes of several seconds, so the fastest of a handful of runs repeats
far better between invocations than their median does (README.md has
the evidence).  Every run of an invocation has the same inputs.
``--trace 1`` makes one untraced run, one traced run and two ``cProfile``
call-count passes, and reports the per-layer metrics (README.md maps
each to the end-to-end metric it moves).  Every run's checksum is checked
against the workload's pinned outputs and against the invocation's
other runs of the same seed; a mismatch, an exception or a timeout is a failed run.

Standard output carries a manifest line, one line per run and, last, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every run passed its checks.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import WORKLOADS, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: sources the benchmark builds and runs; without them it cannot run
REQUIRED = (ROOT / "src" / "repro" / "__init__.py", ROOT / "benchmarks" / "perf" / "run_bench.py")
MIN_RUNS = 3
#: every invocation ends within this many seconds of starting
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: per-layer metric -> unit; the traced child's ``layers`` plus the
#: figures combined here from the other runs of a traced invocation
PER_LAYER_UNITS = {
    "engine.events": "count",
    "engine.residual_self_s": "s",
    "network.transfers": "count",
    "network.bytes": "B",
    "network.transfer_s": "s",
    "dispatch.deliveries": "count",
    "dispatch.self_s": "s",
    "protocol.build_s": "s",
    "protocol.build_calls": "count",
    "protocol.accept_s": "s",
    "protocol.accept_calls": "count",
    "protocol.ack_s": "s",
    "protocol.ack_calls": "count",
    "protocol.local_event_s": "s",
    "protocol.local_event_calls": "count",
    "protocol.build_seqs_scanned_per_msg": "count/msg",
    "protocol.accept_new_ratio": "ratio",
    "protocol.ack_prune_ratio": "ratio",
    "el.logs": "count",
    "el.log_s": "s",
    "el.acks": "count",
    "el.fetches": "count",
    "el.fetch_s": "s",
    "el.sync_messages": "count",
    "el.sync_s": "s",
    "el.peak_queue": "count",
    "recovery.count": "count",
    "recovery.begins": "count",
    "recovery.replayed": "count",
    "recovery.events_collected": "count",
    "retry.calls": "count",
    "retry.retries": "count",
    "retry.timeouts": "count",
    "retry.retry_ratio": "ratio",
    "host.gc_s": "s",
    "host.gc_collections": "count",
    "host.traced_wall_s": "s",
    "host.traced_setup_s": "s",
    "host.unattributed_s": "s",
    "host.trace_overhead": "ratio",
    "host.calls_per_event": "calls/event",
    "model.sim_time_s": "s",
    "model.messages": "count",
    "model.pb_bytes_per_msg": "B/msg",
    "model.pb_fraction_pct": "%",
    "model.pb_time_pct": "%",
    "calls.engine": "count",
    "calls.network": "count",
    "calls.dispatch": "count",
    "calls.protocol": "count",
    "calls.el": "count",
    "calls.recovery": "count",
    "calls.retry": "count",
    "calls.mpi": "count",
    "calls.workload": "count",
    "calls.builtins": "count",
    "calls.other": "count",
}


class Runs:
    """The child runs of one invocation and the failures among them."""

    def __init__(self, workload: str, tiny: bool, started: float) -> None:
        self.workload = workload
        self.tiny = tiny
        self.size = WORKLOADS[workload].size(tiny)
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.reports: list[dict] = []
        self._reference: dict[int, dict] = {}  # seed -> first passing checksum

    def run(self, mode: str, seed: int) -> dict | None:
        """One child run; its report, or None when it failed."""
        self.attempted += 1
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", self.workload,
            "--seed", str(seed), "--mode", mode,
        ]
        if self.tiny:
            cmd.append("--tiny")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        # string hashing is seeded per interpreter; pin it so that set
        # iteration, and with it the call-count proxy, repeats exactly
        env["PYTHONHASHSEED"] = "0"
        budget = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget
            )
        except subprocess.TimeoutExpired:
            return self._fail(mode, f"no result within {budget:.0f} s")
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            return self._fail(mode, f"exit code {proc.returncode}: {tail}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        problems = check_output(self.size, seed, report["checksum"])
        reference = self._reference.setdefault(seed, report["checksum"])
        if report["checksum"] != reference:
            problems.append(f"checksum differs from an earlier run of seed {seed}")
        if problems:
            return self._fail(mode, "; ".join(problems))
        self.reports.append(report)
        print(
            f"run {self.attempted} {mode} seed {seed}: wall {report['wall_s']:.3f} s, "
            f"cpu {report['cpu_s']:.3f} s, setup {report['setup_s']:.4f} s, "
            f"peak rss {report['peak_rss_mb']:.1f} MB, events {report['events']}",
            flush=True,
        )
        return report

    def _fail(self, mode: str, why: str) -> None:
        self.failed += 1
        print(f"run {self.attempted} {mode}: FAILED: {why}", file=sys.stderr, flush=True)
        return None


def timed(runs: Runs, seed: int, seconds: float) -> dict:
    """Untraced runs for ``seconds``; the fastest run's end-to-end metrics."""
    longest = 0.0
    while runs.attempted < MIN_RUNS or (
        time.monotonic() - runs.started + longest <= seconds
    ):
        t0 = time.monotonic()
        runs.run("plain", seed)
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - runs.started + longest > DEADLINE_S:
            break
    if not runs.reports:
        return {}
    rows = runs.reports
    best = {
        "wall_s": min(r["wall_s"] for r in rows),
        "cpu_s": min(r["cpu_s"] for r in rows),
        "events_per_s": max(r["events"] / r["run_s"] for r in rows),
        "setup_s": min(r["setup_s"] for r in rows),
        # deterministic to within a page or two: the median of the runs
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in rows]),
    }
    return {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in best.items()
    }


def traced(runs: Runs, seed: int) -> dict:
    """One untraced, one traced and two call-count runs; per-layer metrics."""
    plain = runs.run("plain", seed)
    layers = runs.run("traced", seed)
    passes = [runs.run("calls", seed), runs.run("calls", seed)]
    if plain is None or layers is None or None in passes:
        return {}
    first, second = (p["calls"] for p in passes)
    if first != second:
        runs.failed += 1
        print(
            f"call-count passes disagree: {first} vs {second}",
            file=sys.stderr, flush=True,
        )
        return {}
    values = dict(layers["layers"])
    values["host.trace_overhead"] = layers["wall_s"] / plain["wall_s"]
    values["host.calls_per_event"] = first["total"] / plain["events"]
    for layer, count in first.items():
        if layer != "total":
            values[f"calls.{layer}"] = count
    mismatch = set(PER_LAYER_UNITS) ^ set(values)
    if mismatch:
        raise KeyError(f"per-layer metrics out of step with PER_LAYER_UNITS: {sorted(mismatch)}")
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }


def manifest(args: argparse.Namespace) -> dict:
    """Where and how this result was measured."""
    try:
        from benchmarks.perf.run_bench import git_commit

        commit = git_commit()
    except ImportError:
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"cannot run: sources missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    # serial by design: hold an exclusive lock on this file for the whole
    # invocation and refuse to start beside another one
    with open(__file__) as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("refused: another benchmark invocation is running", file=sys.stderr)
            return 3
        sys.path.insert(0, str(ROOT))
        print("manifest: " + json.dumps(manifest(args)), flush=True)
        runs = Runs(args.workload, args.tiny, time.monotonic())
        if args.trace:
            metrics = traced(runs, args.seed)
        else:
            metrics = timed(runs, args.seed, args.seconds)
    if not metrics:
        print("no metrics to report: see the failed runs above", file=sys.stderr)
        return 1
    correct = runs.failed == 0
    result = {
        "correct": correct,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
