"""One run of one workload in the interpreter that runs this file.

    python3 perfbench/child.py --workload NAME --seed N --mode plain|traced|calls [--tiny]

``run.py`` starts one fresh interpreter per run, so each run's peak RSS
and GC state are its own.  The last line of standard output is one JSON
object: host timings, the simulation checksum and, for the traced and
call-count modes, the per-layer figures.  The run raises when the
simulation does not finish; the checksum is checked by the caller.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import resource
import sys
import time

from layers import Tracer, profile_calls
from spec import WORKLOADS, Size, Workload


def build_cluster(workload: Workload, size: Size, seed: int):
    """The workload's app and cluster, ready to ``run``."""
    from repro.runtime.cluster import Cluster
    from repro.runtime.config import ClusterConfig
    from repro.runtime.failure import StormFaults
    from repro.workloads.nas import make_app

    if workload.config == "el4":
        from benchmarks.perf.run_bench import _el4_failover_config

        config = _el4_failover_config()
    else:
        config = ClusterConfig().with_overrides(pb_cost_model="sparse")
    if size.overrides:
        config = config.with_overrides(**size.overrides)
    plan = StormFaults(seed=seed, **size.storm) if size.storm is not None else None
    app_kwargs = {"inner": size.inner} if size.inner is not None else {}
    app, _info = make_app(
        size.bench, "A", size.nprocs, iterations=size.iterations, **app_kwargs
    )
    return Cluster(
        nprocs=size.nprocs, app_factory=app, stack=size.stack, config=config,
        seed=seed, fault_plan=plan,
    )


def checksum(result) -> dict:
    """Deterministic fingerprint of a run: the keys of the recorded BENCH
    checksums for the NAS and infrastructure-fault scenarios."""
    from benchmarks.perf.run_bench import _infra_checksum

    probes = result.probes
    return {
        **_infra_checksum(result),
        "pb_events": probes.total("piggyback_events_sent"),
        "pb_bytes": probes.total("piggyback_bytes_sent"),
        "el_failovers": probes.el_failovers,
        "el_disk_recovered": probes.el_disk_records_recovered,
        "el_relogged": probes.el_relogged_determinants,
    }


def layer_metrics(tracer, result, wall_s: float, setup_s: float) -> dict:
    """The traced run's per-layer figures (see README.md for the map)."""
    from repro.experiments.common import pb_percent_of_exec

    cluster = result.cluster
    probes = result.probes
    group = cluster.event_logger
    t = tracer
    build_calls = t.calls("protocol.build")
    messages = probes.total("app_messages_sent")
    attempts = probes.rpc_total("attempts")
    acks = t.calls("protocol.ack")
    attributed = setup_s + sum(t.layer_self_s().values())
    return {
        "engine.events": result.events_executed,
        "engine.residual_self_s": t.self_s("engine.run", "engine.start"),
        "network.transfers": t.calls("network.transfer"),
        "network.bytes": cluster.network.total_bytes,
        "network.transfer_s": t.self_s("network.transfer"),
        "dispatch.deliveries": t.calls("dispatch.wire_sink"),
        "dispatch.self_s": t.self_s("dispatch.wire_sink"),
        "protocol.build_s": t.self_s("protocol.build"),
        "protocol.build_calls": build_calls,
        "protocol.accept_s": t.self_s("protocol.accept"),
        "protocol.accept_calls": t.calls("protocol.accept"),
        "protocol.ack_s": t.self_s("protocol.ack"),
        "protocol.ack_calls": acks,
        "protocol.local_event_s": t.self_s("protocol.local_event"),
        "protocol.local_event_calls": t.calls("protocol.local_event"),
        "protocol.build_seqs_scanned_per_msg": (
            probes.total("pb_build_seqs_scanned") / build_calls if build_calls else 0.0
        ),
        "protocol.accept_new_ratio": (
            t.held_new / t.held_received if t.held_received else 0.0
        ),
        "protocol.ack_prune_ratio": t.acks_pruning / acks if acks else 0.0,
        "el.logs": t.calls("el.receive_log"),
        "el.log_s": t.self_s("el.receive_log", "el.serve_log"),
        "el.acks": t.calls("el.serve_log"),
        "el.fetches": t.calls("el.fetch_events"),
        "el.fetch_s": t.self_s("el.fetch_events", "el.serve_fetch"),
        "el.sync_messages": group.sync_messages if group is not None else 0,
        "el.sync_s": t.self_s("el.sync_tick", "el.absorb_vector"),
        "el.peak_queue": probes.el_peak_queue,
        "recovery.count": len(probes.recoveries),
        "recovery.begins": t.calls("recovery.begin"),
        "recovery.replayed": probes.total("replayed_receptions"),
        "recovery.events_collected": sum(r.events_collected for r in probes.recoveries),
        "retry.calls": t.calls("retry.call"),
        "retry.retries": probes.rpc_total("retries"),
        "retry.timeouts": probes.rpc_total("timeouts"),
        "retry.retry_ratio": probes.rpc_total("retries") / attempts if attempts else 0.0,
        "host.gc_s": t.gc_s,
        "host.gc_collections": t.gc_collections,
        "host.traced_wall_s": wall_s,
        "host.traced_setup_s": setup_s,
        "host.unattributed_s": wall_s - attributed,
        "model.sim_time_s": result.sim_time,
        "model.messages": messages,
        "model.pb_bytes_per_msg": probes.total_piggyback_bytes / messages if messages else 0.0,
        "model.pb_fraction_pct": probes.piggyback_fraction,
        "model.pb_time_pct": pb_percent_of_exec(result),
    }


def run(name: str, seed: int, mode: str, tiny: bool = False) -> dict:
    """Build and run ``name`` once in ``mode``; returns the child's report.

    ``plain`` is the untraced, timed run; ``traced`` adds the layer
    wrappers; ``calls`` runs under ``cProfile`` for the call-count proxy.
    """
    # import everything the run needs before any clock or profiler starts
    import benchmarks.perf.run_bench  # noqa: F401
    import repro.experiments.common  # noqa: F401
    import repro.runtime.cluster  # noqa: F401
    import repro.runtime.failure  # noqa: F401
    from repro.workloads.nas import bt, cg, ft, lu, mg, sp  # noqa: F401

    workload = WORKLOADS[name]
    size = workload.size(tiny)
    tracer = Tracer(size.stack) if mode == "traced" else None
    profiler = cProfile.Profile() if mode == "calls" else None
    with tracer if tracer is not None else contextlib.nullcontext():
        if profiler is not None:
            profiler.enable()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        cluster = build_cluster(workload, size, seed)
        if tracer is not None:
            tracer.attach(cluster)
        t1 = time.perf_counter()
        result = cluster.run()
        t2 = time.perf_counter()
        cpu1 = time.process_time()
        if profiler is not None:
            profiler.disable()
    if not result.finished:
        raise RuntimeError(f"{name} seed {seed}: simulation did not finish")
    report = {
        "workload": name,
        "seed": seed,
        "mode": mode,
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "wall_s": t2 - t0,
        "cpu_s": cpu1 - cpu0,
        "events": result.events_executed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checksum": checksum(result),
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, result, t2 - t0, t1 - t0)
        report["hook_calls"] = {n: acc[1] for n, acc in tracer.acc.items()}
    if profiler is not None:
        report["calls"] = profile_calls(profiler)
    return report


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("plain", "traced", "calls"))
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.mode, tiny=args.tiny)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
