"""The benchmark's workloads: what each one runs, why, and its pinned outputs.

Importing this module reads ``storm_checksums.json`` and nothing else;
the builders import the simulator lazily, inside the fresh interpreter
that makes one run (see ``child.py``).

Every workload runs a NAS class A skeleton in one process.  A run's seed
is the cluster seed and, for the storm, the fault-plan seed.  The cluster
seed only drives the checkpoint scheduler's stream, which neither
workload arms, so the fault-free workload gives one pinned checksum on
every seed.  The storm's kills are drawn from the seed: its full checksum is
pinned for the recorded seeds, and on every seed it must recover at
least one rank and fold to the fault-free application results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: ``result_fold`` of the fault-free CG-256 (``inner=3``) reference run
#: (``nas_cg256_el4_reference`` in BENCH_9): every storm must fold to it.
CG256_REFERENCE_FOLD = 509649


@dataclass(frozen=True)
class Size:
    """One size of a workload: the NAS run and the faults injected into it."""

    bench: str
    nprocs: int
    stack: str
    iterations: int
    inner: Optional[int] = None
    #: StormFaults arguments without the seed; None runs fault-free
    storm: Optional[dict] = None
    #: ClusterConfig overrides on top of the workload's base config
    overrides: dict = field(default_factory=dict)
    #: the checksum every seed must give (None: seed-dependent, see storm)
    checksum: Optional[dict] = None
    #: seed -> checksum, for the seeds whose faults were recorded
    checksum_by_seed: dict = field(default_factory=dict)
    #: application results every seed must fold to
    result_fold: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "sparse" (pb_cost_model only) or "el4" (the recorded
    #: nas_cg256_el4_* config: four tree-synced shards, failover, retries)
    config: str
    full: Size
    tiny: Size

    def size(self, tiny: bool) -> Size:
        return self.tiny if tiny else self.full


def _fault_free(**fields) -> dict:
    """A fault-free run's checksum: no recovery, retry or failover."""
    zero = (
        "recoveries", "replayed", "rpc_retries", "rpc_timeouts",
        "el_failovers", "el_disk_recovered", "el_relogged",
    )
    return {**fields, **dict.fromkeys(zero, 0)}


def _storm_checksums() -> dict[int, dict]:
    """Recorded storm checksums by fault-plan seed (``storm_checksums.json``).

    Seed 1 is the BENCH_9 recording of ``nas_cg256_el4_storm``; the
    self-tests check that the file still agrees with it.
    """
    path = Path(__file__).with_name("storm_checksums.json")
    return {int(seed): value for seed, value in json.loads(path.read_text()).items()}


_STORM = dict(start_s=0.3, window_s=0.1, kills=2, cascade_p=0.5, cascade_delay_s=0.05)
_TINY_STORM = dict(
    start_s=0.01, window_s=0.003, kills=2, cascade_p=0.5, cascade_delay_s=0.002
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lu32_logon_noel",
            why=(
                "the no-EL causal case: LogOn's antecedence graph does the "
                "work and no Vcausal or EL code runs, so their changes must "
                "leave it unchanged"
            ),
            config="sparse",
            full=Size(
                "lu", 32, "logon-noel", 1,
                checksum=_fault_free(
                    events=31744, sim_time=2.242502329, messages=6780,
                    pb_events=347827, pb_bytes=5592352, result_fold=970217,
                ),
                result_fold=970217,
            ),
            tiny=Size("lu", 16, "logon-noel", 1, result_fold=394163),
        ),
        Workload(
            name="cg256_el4_storm",
            why=(
                "with-EL Vcausal under failure: piggyback and EL acks, plus "
                "storm kills with cascades driving restart, EL fetch, replay, "
                "shard sync and RPC retries"
            ),
            config="el4",
            full=Size(
                "cg", 256, "vcausal", 1, inner=3, storm=_STORM,
                checksum_by_seed=_storm_checksums(),
                result_fold=CG256_REFERENCE_FOLD,
            ),
            tiny=Size(
                "cg", 64, "vcausal", 1, inner=3, storm=_TINY_STORM,
                overrides={"fault_domains": 8}, result_fold=343700,
            ),
        ),
    )
}


def expected_checksum(size: Size, seed: int) -> Optional[dict]:
    """The pinned checksum for ``seed``, or None when it is not recorded."""
    if size.checksum is not None:
        return size.checksum
    return size.checksum_by_seed.get(seed)


def check_output(size: Size, seed: int, checksum: dict) -> list[str]:
    """Every way ``checksum`` differs from what ``size`` must produce.

    A recorded checksum must match on every key it names; the application
    results must fold to the pinned value on every seed; a storm must
    actually have recovered someone.
    """
    problems = []
    want = expected_checksum(size, seed)
    if want is not None:
        for key, value in want.items():
            if checksum.get(key) != value:
                problems.append(f"{key}={checksum.get(key)!r}, pinned {value!r}")
    if size.result_fold is not None and checksum.get("result_fold") != size.result_fold:
        problems.append(
            f"result_fold={checksum.get('result_fold')!r}, "
            f"reference {size.result_fold!r}"
        )
    if size.storm is not None and not checksum.get("recoveries"):
        problems.append("storm recovered no rank")
    return problems
