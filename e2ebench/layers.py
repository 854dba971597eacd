"""Layer attribution for the traced pass, and inclusive phase timers.

Layers are the packages of ``src/repro``.  The traced pass runs under
``cProfile``; :func:`layer_profile` folds its per-function self times
into per-module and per-layer totals.  Time spent in code outside
``src/repro`` (numpy, builtins, the standard library) is charged to the
repro module that called it, through the callers recorded in the
profile, so that ``max``/``any`` called from ``dsm/interval.py`` count
as interval bookkeeping.  Protocol code runs as generators resumed by
the engine; cProfile bills each resumption to the generator's own
function, so generator time lands in the protocol module, not in
``sim``.

:class:`PhaseTimer` wraps a handful of non-generator entry points
(``DsmSystem.__init__``, ``DsmSystem.run`` and the recovery state
checks) with wall-clock accumulators, and stamps the end of every
barrier episode.  It is installed on every pass, traced or not: it adds
a timer read per barrier episode and a few per cell.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro
from repro import DsmSystem
from repro.core import recovery as _recovery
from repro.core import failover_recovery as _failover
from repro.core.stablelog import StableLog
from repro.dsm.barrier import BarrierState
from repro.dsm.interval import IntervalTable, VectorClock
from repro.memory import diff as _diff
from repro.obs.latency import LatencyRecorder
from repro.sim.engine import Simulator

__all__ = [
    "LAYERS",
    "OTHER",
    "COUNTED",
    "MODULES_REPORTED",
    "PhaseTimer",
    "layer_of",
    "layer_profile",
    "layer_totals",
    "profiled",
]

#: Every package of ``src/repro`` is a layer; the package's top-level
#: modules (config, errors, the package init) form the ``root`` layer.
LAYERS = (
    "sim", "dsm", "memory", "core", "apps", "obs", "analysis", "harness",
    "root",
)

#: Time not charged to any repro module: the benchmark's own loop
#: code and the profiler's own cost.
OTHER = "other"

REPRO_DIR = Path(repro.__file__).resolve().parent
BENCH_DIR = Path(__file__).resolve().parent

#: metric name -> function whose exact call count it reports
COUNTED: Dict[str, Callable] = {
    "sim.schedule_calls": Simulator.schedule,
    "dsm.vc_new": VectorClock.__init__,
    "dsm.vc_merge": VectorClock.merge,
    "dsm.records_added": IntervalTable.add,
    "dsm.uncovered_scans": IntervalTable.records_not_covered_by,
    "memory.create_diff_calls": _diff.create_diff,
    "memory.apply_diff_calls": _diff.apply_diff,
    "memory.merge_diffs_calls": _diff.merge_diffs,
    "core.log_appends": StableLog.append,
    "obs.observe_calls": LatencyRecorder.observe,
}

#: Modules whose own self time is reported on its own line.
MODULES_REPORTED = {
    "dsm.interval.self_s": "dsm/interval",
    "dsm.hlrc.self_s": "dsm/hlrc",
}


def layer_of(relpath: str) -> str:
    """The layer of one module, given its path relative to ``src/repro``.

    Raises ``ValueError`` for a package no layer claims, so that a new
    package cannot silently fall into another layer.
    """
    parts = Path(relpath).parts
    if len(parts) == 1:
        return "root"
    if parts[0] in LAYERS and parts[0] != "root":
        return parts[0]
    raise ValueError(f"no layer for module {relpath!r}")


def _module_of(filename: str) -> Optional[str]:
    """``layer/module`` for a file under ``src/repro``, else None."""
    if not filename.endswith(".py"):
        return None
    try:
        rel = Path(filename).resolve().relative_to(REPRO_DIR)
    except ValueError:
        return None
    return rel.with_suffix("").as_posix()


def _is_bench(filename: str) -> bool:
    try:
        Path(filename).resolve().relative_to(BENCH_DIR)
    except ValueError:
        return False
    return True


def _code_key(fn: Callable) -> Tuple[str, int, str]:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


@contextmanager
def profiled() -> Iterator[cProfile.Profile]:
    """Run the body under a fresh profiler."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        yield prof
    finally:
        prof.disable()


def layer_profile(prof: cProfile.Profile) -> Tuple[Dict[str, float],
                                                     Dict[str, int]]:
    """Fold one profile into module self times and exact call counts.

    Returns ``(self_s, calls)``: ``self_s`` maps ``layer/module`` (or
    ``other``) to seconds; ``calls`` maps each :data:`COUNTED` metric
    to its call count.
    """
    stats = pstats.Stats(prof).stats
    module: Dict[Tuple, Optional[str]] = {}
    for key in stats:
        filename = key[0]
        if _is_bench(filename):
            module[key] = OTHER
        else:
            module[key] = _module_of(filename)

    owners: Dict[Tuple, Dict[str, float]] = {}

    def owner(key: Tuple) -> Dict[str, float]:
        """Share of ``key``'s time each repro module is responsible for."""
        if module.get(key) is not None:
            return {module[key]: 1.0}
        if key in owners:
            return owners[key]
        owners[key] = {OTHER: 1.0}  # breaks cycles among non-repro callers
        callers = stats[key][4] if key in stats else {}
        weights = {c: entry[3] for c, entry in callers.items() if c != key}
        total = sum(weights.values())
        if total > 0:
            share: Dict[str, float] = defaultdict(float)
            for c, w in weights.items():
                for mod, frac in owner(c).items():
                    share[mod] += frac * w / total
            owners[key] = dict(share)
        return owners[key]

    self_s: Dict[str, float] = defaultdict(float)
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        if module[key] is not None:
            self_s[module[key]] += tt
            continue
        # outside repro: split by the caller each slice of time came from
        by_caller = {c: entry[2] for c, entry in callers.items() if c != key}
        total = sum(by_caller.values())
        if total <= 0:
            for mod, frac in owner(key).items():
                self_s[mod] += tt * frac
            continue
        for c, ctt in by_caller.items():
            for mod, frac in owner(c).items():
                self_s[mod] += tt * ctt / total * frac

    calls = {name: stats.get(_code_key(fn), (0, 0))[1]
             for name, fn in COUNTED.items()}
    return dict(self_s), calls


def layer_totals(self_s: Dict[str, float]) -> Dict[str, float]:
    """Sum module self times into layers (``other`` kept apart)."""
    out = {layer: 0.0 for layer in LAYERS}
    out[OTHER] = 0.0
    for mod, secs in self_s.items():
        out[OTHER if mod == OTHER else layer_of(mod + ".py")] += secs
    return out


class PhaseTimer:
    """Inclusive wall-clock accumulators around non-generator entry points.

    It also stamps the wall clock at the end of every barrier episode
    into :attr:`marks`.  The simulation is deterministic, so the k-th
    stamp of a cell falls at the same point of its work on every pass.
    """

    #: (owner, attribute, phase) -- the owner is a class or a module
    #: whose global the experiment functions look up at call time.
    TARGETS: List[Tuple[object, str, str]] = [
        (DsmSystem, "__init__", "setup"),
        (DsmSystem, "run", "run"),
        (_recovery, "compare_state", "state_check"),
        (_failover, "compare_mirror", "state_check"),
    ]

    #: (owner, attribute) whose every call ends a barrier episode.
    MARK: Tuple[object, str] = (BarrierState, "next_episode")

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self.marks: List[float] = []

    def snapshot(self) -> Dict[str, float]:
        return dict(self.totals)

    def since(self, before: Dict[str, float], phase: str) -> float:
        return self.totals.get(phase, 0.0) - before.get(phase, 0.0)

    def _wrap(self, fn: Callable, phase: str) -> Callable:
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.totals[phase] += time.perf_counter() - t0

        return timed

    def _mark(self, fn: Callable) -> Callable:
        def marked(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.marks.append(time.perf_counter())

        return marked

    @contextmanager
    def installed(self) -> Iterator["PhaseTimer"]:
        """Patch the targets for the duration of the body."""
        saved = []
        try:
            patches = [(owner, attr, partial(self._wrap, phase=phase))
                       for owner, attr, phase in self.TARGETS]
            patches.append((*self.MARK, self._mark))
            for owner, attr, wrap in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
