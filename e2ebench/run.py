"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 e2ebench/run.py --workload paper-8n --seed 1999 --seconds 35 --trace 0

A run repeats *passes* of the workload (a closed loop in one thread:
each cell starts when the previous one has finished) until
``--seconds`` have elapsed, then prints one table per metric family and,
as its last line, one JSON object::

    {"correct": true, "attempted": 16, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: ``wall_s`` takes each
barrier-episode span at its fastest pass and ``setup_s`` each cell's
set-up at its median pass; both are summed.  A pass starts only if,
at the pace of the one before, it can end within ``--seconds``.
``--trace 1`` makes an untraced warm-up pass and an untraced reference
pass, then as many profiled passes as end within ``--seconds`` (at
least one), and reports the per-layer metrics (see README.md).  Metric
names and units are read from ``BENCHMARK.json``.

Every cell's simulated fingerprint must be identical on every pass of
the run; a mismatch, a failed check or an exception fails the cell.
The exit status is 0 only when no cell failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"e2ebench: the program is missing: no {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (imports repro from src/)
import workloads  # noqa: E402
from repro.obs.latency import LatencyRecorder  # noqa: E402

DEFAULT_SEED = 1999
MIB = float(1 << 20)

#: The benchmark's declaration: workloads, metrics, units and bounds.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: metric name -> unit, as BENCHMARK.json declares them.  End-to-end
#: metrics come from untraced passes; per-layer ones from ``--trace 1``.
#: Unit ``s`` is host time; ``sim_s`` and ``sim_ms`` are simulated time,
#: deterministic for a seed.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _declared(values: Dict[str, float], units: Dict[str, str]
              ) -> Dict[str, Tuple[float, str]]:
    """``values`` with their declared units; they must match exactly."""
    if set(values) != set(units):
        raise RuntimeError(
            f"computed metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(values))}, undeclared "
            f"{sorted(set(values) - set(units))}")
    return {name: (values[name], unit) for name, unit in units.items()}


class Run:
    """The passes of one benchmark run and the checks made on them."""

    def __init__(self, workload: str, cells, timer):
        self.workload = workload
        self.cells = cells
        self.timer = timer
        self.fingerprints: Dict[str, Tuple] = {}
        self.failed_cells: List[str] = []
        self.attempted = 0
        #: cell name -> its outcome on every pass that passed the checks
        self.by_cell: Dict[str, List] = {}

    def one_pass(self) -> Tuple[float, List]:
        """Run every cell once; returns (wall seconds, outcomes).

        Each outcome's ``host["wall"]`` is the cell's own wall time.
        """
        gc.collect()
        outcomes = []
        t0 = time.perf_counter()
        for cell in self.cells:
            self.attempted += 1
            label = f"{self.workload}/{cell.name}"
            marks = self.timer.marks
            marks.clear()
            c0 = time.perf_counter()
            try:
                out = cell.run(self.timer)
            except Exception:  # a failed operation, not a crash of the run
                sys.stderr.write(f"FAILED {label}:\n{traceback.format_exc()}")
                self.failed_cells.append(label)
                continue
            c1 = time.perf_counter()
            out.host["wall"] = c1 - c0
            out.spans = [b - a for a, b in zip([c0, *marks], [*marks, c1])]
            fp = out.fingerprint()
            first = self.fingerprints.setdefault(cell.name, fp)
            if fp != first:
                sys.stderr.write(
                    f"FAILED {label}: fingerprint {fp} != first pass {first}\n"
                )
                self.failed_cells.append(label)
                continue
            self.by_cell.setdefault(cell.name, []).append(out)
            outcomes.append(out)
        return time.perf_counter() - t0, outcomes

    def cell_sum(self, phase: str, stat=min) -> float:
        """Sum over cells of ``stat`` of each cell's host time in ``phase``.

        The default, each cell's fastest pass, is the cell's cost with
        the least outside load: on a shared host, load slows a cell and
        never speeds it up, and the first pass also pays one-time costs
        (lazy imports, first-use caches).
        """
        return sum(stat(o.host[phase] for o in outs)
                   for outs in self.by_cell.values())

    def wall(self) -> float:
        """Host seconds of one pass with the least outside load.

        Each cell is cut at its barrier episode ends into spans that do
        the same work on every pass; the sum of each span's fastest pass
        is the pass's cost with outside load kept out at a finer grain
        than whole cells.  A cell whose span count varies is taken
        whole.
        """
        total = 0.0
        for outs in self.by_cell.values():
            spans = [o.spans for o in outs]
            if len({len(s) for s in spans}) == 1:
                total += sum(map(min, zip(*spans)))
            else:
                total += min(o.host["wall"] for o in outs)
        return total

    def first(self, fn) -> float:
        """Sum over cells of ``fn`` of each cell's first outcome.

        For simulated quantities, which the fingerprint check holds equal
        on every pass.
        """
        return sum(fn(outs[0]) for outs in self.by_cell.values())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pass_layers(outcomes) -> Dict[str, float]:
    """Simulated and host-phase per-layer metrics of one pass."""
    sim: Dict[str, float] = {}
    for o in outcomes:
        for k, v in o.sim.items():
            sim[k] = sim.get(k, 0.0) + v
    host: Dict[str, float] = {}
    for o in outcomes:
        for k, v in o.host.items():
            host[k] = host.get(k, 0.0) + v
    lat = {op: LatencyRecorder() for op in workloads.LATENCY_OPS}
    for o in outcomes:
        for op, rec in o.latency.items():
            lat[op].merge(rec)
    diffs = sim.get("diffs_created", 0.0)
    flushes = sim.get("log_flushes", 0.0)
    return {
        "sim.sim_time_s": sim.get("sim_time_s", 0.0),
        "sim.msgs": sim.get("msgs", 0.0),
        "sim.net_mb": sim.get("net_bytes", 0.0) / MIB,
        "sim.disk_writes": sim.get("disk_writes", 0.0),
        "sim.disk_busy_s": sim.get("disk_busy_s", 0.0),
        "dsm.records_pruned": sim.get("records_pruned", 0.0),
        "dsm.page_faults": sim.get("page_faults", 0.0),
        "dsm.invalidations": sim.get("invalidations", 0.0),
        "dsm.barriers": sim.get("barriers", 0.0),
        "dsm.fault_wait_s": sim.get("fault_wait_s", 0.0),
        "dsm.sync_wait_s": sim.get("sync_wait_s", 0.0),
        "dsm.diff_wait_s": sim.get("diff_wait_s", 0.0),
        "dsm.page_fetch_p99_ms": lat["page_fetch"].quantile(0.99) * 1e3,
        "dsm.barrier_p99_ms": lat["barrier"].quantile(0.99) * 1e3,
        "memory.diffs_created": diffs,
        "memory.diff_mb": sim.get("diff_bytes_sent", 0.0) / MIB,
        "memory.bytes_per_diff": (
            sim.get("diff_bytes_sent", 0.0) / diffs if diffs else 0.0
        ),
        "core.log_mb": sim.get("log_bytes_flushed", 0.0) / MIB,
        "core.log_flushes": flushes,
        "core.log_records": sim.get("log_records", 0.0),
        "core.bytes_per_flush": (
            sim.get("log_bytes_flushed", 0.0) / flushes if flushes else 0.0
        ),
        "core.log_flush_wait_s": sim.get("log_flush_wait_s", 0.0),
        "core.replayed_events": sum(o.replayed_events for o in outcomes),
        "core.refetched_diffs": sum(o.refetched_diffs for o in outcomes),
        "core.mirror_mb": sim.get("mirror_bytes", 0.0) / MIB,
        "core.recovery_sim_s": sum(o.recovery_sim_s for o in outcomes),
        "dsm.setup_s": host.get("setup", 0.0),
        "core.phase_a_s": host.get("phase_a", 0.0),
        "core.replay_s": host.get("replay", 0.0),
        "core.state_check_s": host.get("state_check", 0.0),
        "apps.verify_s": host.get("verify", 0.0),
    }


def _table(title: str, rows: List[Tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:26s} {value:16.6f} {unit:6s} {note}")


def _report_e2e(run: Run, walls: List[float]) -> Dict[str, Tuple]:
    n = len(walls)
    values = {
        "wall_s": run.wall(),
        "setup_s": run.cell_sum("setup", statistics.median),
        "peak_rss_mb": _peak_rss_mb(),
    }
    notes = {
        "wall_s": (f"sum over barrier-episode spans of each span's fastest"
                   f" of {n} passes; per-cell fastest "
                   f"{run.cell_sum('wall'):.6g}, medians "
                   f"{run.cell_sum('wall', statistics.median):.6g}; whole"
                   f" passes min {min(walls):.6g}, max {max(walls):.6g}"),
        "setup_s": (f"sum over cells of each cell's median of {n} passes;"
                    f" per-cell fastest {run.cell_sum('setup'):.6g}"),
        "peak_rss_mb": "peak of the process",
    }
    metrics = _declared(values, END_TO_END)
    rows = [(name, value, unit, notes[name])
            for name, (value, unit) in metrics.items()]
    # simulated results: the same on every pass of a seed, and on every
    # seed for sor-64n, so they are reported per layer, not bounded here
    simulated = (
        ("sim_time_s", "sim.sim_time_s", lambda o: o.sim["sim_time_s"]),
        ("log_mb", "core.log_mb", lambda o: o.sim["log_bytes_flushed"] / MIB),
        ("recovery_sim_s", "core.recovery_sim_s", lambda o: o.recovery_sim_s),
    )
    for name, per_layer, fn in simulated:
        rows.append((name, run.first(fn), PER_LAYER[per_layer],
                     f"simulated; reported per layer as {per_layer}"))
    _table(f"end-to-end ({n} passes, tracing off)", rows)
    return metrics


def _report_layers(run: Run, start: float, seconds: float) -> Dict[str, Tuple]:
    run.one_pass()  # warm-up: one-time costs stay out of the reference
    ref_wall, ref_outcomes = run.one_pass()
    values = _pass_layers(ref_outcomes)
    profiles = []
    # a profiled pass costs several untraced ones: start one only if it
    # can end within the run
    while not profiles or (time.perf_counter() - start + profiles[-1][0]
                           <= seconds):
        with layers.profiled() as prof:
            t0 = time.perf_counter()
            run.one_pass()
            wall = time.perf_counter() - t0
        profiles.append((wall, *layers.layer_profile(prof)))
        del prof
    # every profiled figure comes from the pass of median wall time
    profiles.sort(key=lambda p: p[0])
    wall, self_s, calls = profiles[(len(profiles) - 1) // 2]
    totals = layers.layer_totals(self_s)
    for layer in list(layers.LAYERS) + [layers.OTHER]:
        values[f"{layer}.self_s"] = totals[layer]
    for name, mod in layers.MODULES_REPORTED.items():
        values[name] = self_s.get(mod, 0.0)
    # profiled wall that no function's self time covers: the profiler's
    # own bookkeeping between calls
    values["trace.unattributed_s"] = wall - sum(totals.values())
    values.update(calls)
    values["trace.wall_s"] = wall
    values["trace.overhead"] = wall / ref_wall

    metrics = _declared(values, PER_LAYER)
    rows = [(name, value, unit, "") for name, (value, unit) in metrics.items()]
    _table(f"per-layer (profiled pass of median wall out of {len(profiles)};"
           f" untraced reference pass {ref_wall:.3f} s)", rows)
    print("layer shares of the profiled wall:")
    for layer in list(layers.LAYERS) + [layers.OTHER]:
        secs = values[f"{layer}.self_s"]
        print(f"  {layer:10s} {secs:10.4f} s {100 * secs / wall:6.2f} %")
    print(f"  {'(none)':10s} {values['trace.unattributed_s']:10.4f} s "
          f"{100 * values['trace.unattributed_s'] / wall:6.2f} %")
    print("top modules by self time:")
    for mod, secs in sorted(self_s.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {mod:28s} {secs:10.4f} s {100 * secs / wall:6.2f} %")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    cells = workloads.build_cells(args.workload, args.seed)
    timer = layers.PhaseTimer()
    run = Run(args.workload, cells, timer)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(cells)} cells per pass")
    inputs = workloads.describe_inputs(args.workload, args.seed)
    if inputs:
        print(f"inputs: {inputs}")

    with timer.installed():
        start = time.perf_counter()
        if args.trace == 0:
            walls: List[float] = []
            while not walls or (time.perf_counter() - start + walls[-1]
                                <= args.seconds):
                walls.append(run.one_pass()[0])
            metrics = _report_e2e(run, walls)
        else:
            metrics = _report_layers(run, start, args.seconds)

    for name, fp in run.fingerprints.items():
        print(f"fingerprint {args.workload}/{name}: {fp}")
    failed = len(run.failed_cells)
    for label in run.failed_cells:
        print(f"failed: {label}")
    print(f"cells: {run.attempted} attempted, {failed} failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
