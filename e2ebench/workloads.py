"""The benchmark's workloads: which simulated runs one pass makes.

A *pass* is a fixed list of *cells*; a cell is one operation of the
closed loop: one failure-free run, or one crash-and-recover experiment.
Every cell is checked (app numerics or bit-exact recovery) and reduced
to a :class:`CellOutcome`: simulated totals, latency histograms and
host phase times, with no live simulation objects kept.

The workload seed reaches the program only as generated inputs: the
data seeds of ``fft3d``, ``mg`` and ``water`` and, in ``recover-8n``,
the victim set and the single victim.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.core import run_multi_recovery_experiment, run_recovery_experiment
from repro.core.failover_recovery import run_failover_experiment
from repro.harness.scales import app_kwargs
from repro.obs.latency import LatencyRecorder

from layers import PhaseTimer

__all__ = [
    "WORKLOADS",
    "LATENCY_OPS",
    "Cell",
    "CellOutcome",
    "build_cells",
    "describe_inputs",
    "reduce_run",
]

#: Apps whose constructor takes a data seed.
SEEDED_APPS = ("fft3d", "mg", "water")

NODES_8 = 8
NODES_64 = 64
VICTIMS = 4


#: Latency operations whose merged histograms the traced run reports.
LATENCY_OPS = ("page_fetch", "barrier")


#: NodeStats time bucket -> the simulated wait it reports
WAITS = {"fault": "fault_wait_s", "sync": "sync_wait_s",
         "diff_wait": "diff_wait_s", "log_flush": "log_flush_wait_s"}


def reduce_run(r: Any) -> Tuple[Dict[str, float],
                                Dict[str, LatencyRecorder]]:
    """Simulated totals and latency histograms of one failure-free run."""
    agg = r.aggregate
    out: Dict[str, float] = {
        "sim_time_s": r.total_time,
        "msgs": r.network_msgs,
        "net_bytes": r.network_bytes,
        "disk_writes": sum(d["num_writes"] for d in r.disk_stats),
        "disk_busy_s": sum(d["busy_time"] for d in r.disk_stats),
        "mirror_bytes": sum(s["mirror_bytes"] for s in r.replication_stats),
    }
    for key in ("page_faults", "invalidations", "barriers", "diffs_created",
                "diff_bytes_sent", "records_pruned"):
        out[key] = agg.counters.get(key, 0)
    for key, name in WAITS.items():
        out[name] = agg.time.get(key)
    for key in ("flushes", "records", "bytes_flushed"):
        out["log_" + key] = sum(s.get(key, 0) for s in r.log_summaries)
    latency = {op: agg.latency.get(op, LatencyRecorder()) for op in LATENCY_OPS}
    return out, latency


@dataclass
class CellOutcome:
    """One cell reduced to what the benchmark reports; no live objects."""

    sim: Dict[str, float]
    latency: Dict[str, LatencyRecorder]
    #: Host seconds per phase: setup, verify, phase_a, replay, state_check.
    host: Dict[str, float]
    recovery_sim_s: float = 0.0
    replayed_events: int = 0
    refetched_diffs: int = 0
    #: Host seconds between the cell's start, its barrier episode ends
    #: and its end; they add up to ``host["wall"]``.
    spans: List[float] = field(default_factory=list)

    def fingerprint(self) -> Tuple:
        """Deterministic summary; identical on every pass of a cell."""
        return (
            repr(self.sim["sim_time_s"]),
            int(self.sim["msgs"]),
            int(self.sim["net_bytes"]),
            int(self.sim["log_bytes_flushed"]),
            int(self.sim["diffs_created"]),
            repr(self.recovery_sim_s),
        )


@dataclass
class Cell:
    name: str
    run: Callable[[PhaseTimer], CellOutcome]


class CheckFailed(Exception):
    """A cell ran but its output was wrong."""


def app_seed(seed: int, app: str) -> int:
    """The data seed an app receives for one workload seed."""
    return random.Random(f"e2ebench:{seed}:{app}").randrange(1, 2**31)


def _make(app: str, seed: int) -> Tuple[Any, float]:
    kwargs = app_kwargs(app, "bench")
    if app in SEEDED_APPS:
        kwargs["seed"] = app_seed(seed, app)
    t0 = time.perf_counter()
    built = make_app(app, **kwargs)
    return built, time.perf_counter() - t0


def _failure_free(app: str, protocol: str, nodes: int, seed: int) -> Cell:
    def run(timer: PhaseTimer) -> CellOutcome:
        built, build_s = _make(app, seed)
        before = timer.snapshot()
        system = DsmSystem(
            built, ClusterConfig.ultra5(num_nodes=nodes),
            make_hooks_factory(protocol), protocol_name=protocol,
        )
        result = system.run()
        t0 = time.perf_counter()
        ok = built.verify(system)
        verify_s = time.perf_counter() - t0
        if not ok:
            raise CheckFailed("numerical verification failed")
        sim, latency = reduce_run(result)
        host = {"setup": build_s + timer.since(before, "setup"),
                "verify": verify_s}
        return CellOutcome(sim, latency, host)

    return Cell(f"{app}/{protocol}", run)


def _crash(name: str, app: str, seed: int,
           experiment: Callable[[Any, ClusterConfig], Any]) -> Cell:
    """A crash-and-recover cell; ``experiment`` returns a checked result."""
    def run(timer: PhaseTimer) -> CellOutcome:
        built, build_s = _make(app, seed)
        before = timer.snapshot()
        t0 = time.perf_counter()
        res = experiment(built, ClusterConfig.ultra5(num_nodes=NODES_8))
        total = time.perf_counter() - t0
        if not res.ok:
            raise CheckFailed(f"recovery not bit-exact: {_mismatch(res)}")
        phases = {p: timer.since(before, p)
                  for p in ("setup", "run", "state_check")}
        host = {
            "setup": build_s + phases["setup"],
            "phase_a": phases["run"],
            "state_check": phases["state_check"],
            "replay": total - sum(phases.values()),
        }
        sim, latency = reduce_run(res.phase_a)
        return CellOutcome(
            sim, latency, host, recovery_sim_s=res.recovery_time,
            replayed_events=getattr(res, "replayed_events", 0),
            refetched_diffs=getattr(res, "refetched_diffs", 0),
        )

    return Cell(f"{app}/{name}", run)


def _mismatch(res: Any) -> str:
    mism = res.mismatches
    if isinstance(mism, dict):
        return str({f: m[:2] for f, m in mism.items() if m})
    return str(mism[:2])


def _multi(app: str, protocol: str, victims: Tuple[int, ...], seed: int) -> Cell:
    return _crash(
        f"{protocol}-x{len(victims)}", app, seed,
        lambda built, config: run_multi_recovery_experiment(
            built, config, protocol, failed_nodes=victims),
    )


def _single(app: str, victim: int, seed: int) -> Cell:
    return _crash(
        "adaptive-x1", app, seed,
        lambda built, config: run_recovery_experiment(
            built, config, "adaptive", failed_node=victim),
    )


def _failover(app: str, victim: int, seed: int) -> Cell:
    return _crash(
        "failover-r2", app, seed,
        lambda built, config: run_failover_experiment(
            built, config, replication=2, failed_node=victim),
    )


def victims_for(seed: int) -> Tuple[Tuple[int, ...], int]:
    """The concurrent victim set and the single victim of one seed."""
    rng = random.Random(f"e2ebench:{seed}:victims")
    return tuple(sorted(rng.sample(range(NODES_8), VICTIMS))), rng.randrange(NODES_8)


def _paper_cells(seed: int) -> List[Cell]:
    return [
        _failure_free(app, protocol, NODES_8, seed)
        for app in ("fft3d", "mg", "shallow", "water")
        for protocol in ("ml", "ccl")
    ]


def _sor_cells(seed: int) -> List[Cell]:
    return [_failure_free("sor", "ccl", NODES_64, seed)]


def _recover_cells(seed: int) -> List[Cell]:
    victims, single = victims_for(seed)
    cells: List[Cell] = []
    for app in ("mg", "shallow"):
        cells += [_multi(app, protocol, victims, seed)
                  for protocol in ("ccl", "ml")]
        if app == "mg":
            cells += [_single(app, single, seed),
                      _failover(app, single, seed)]
    return cells


#: workload name -> the cells of one pass, for a seed.  BENCHMARK.json
#: says why each workload is there.
WORKLOADS: Dict[str, Callable[[int], List[Cell]]] = {
    "paper-8n": _paper_cells,
    "sor-64n": _sor_cells,
    "recover-8n": _recover_cells,
}


def build_cells(workload: str, seed: int) -> List[Cell]:
    """The cells one pass of ``workload`` runs, for one seed."""
    return WORKLOADS[workload](seed)


def describe_inputs(workload: str, seed: int) -> Optional[str]:
    """One line naming the generated inputs, for the run log."""
    seeds = ", ".join(f"{a}={app_seed(seed, a)}" for a in SEEDED_APPS)
    if workload == "recover-8n":
        victims, single = victims_for(seed)
        return f"app seeds {seeds}; victims {victims}; single victim {single}"
    if workload == "paper-8n":
        return f"app seeds {seeds}"
    return None
