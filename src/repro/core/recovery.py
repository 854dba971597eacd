"""Crash recovery: replay engine, orchestration, and verification.

Recovery re-executes the failed node's program deterministically from
its most recent checkpoint (the initial state in the paper's
experiments), consuming logged data instead of performing live
synchronisation (paper Figures 2-3, ``in_recovery`` branches):

* locks and barriers are local -- no manager traffic, no waiting on
  peers (a large part of recovery's speedup over re-execution);
* write-invalidation notices come from the local log, replayed at the
  same in-interval positions they originally arrived at;
* home copies are brought forward with logged update data;
* remote copies are revalidated from logged information -- ML installs
  the logged page contents at each memory miss, CCL prefetches and
  reconstructs every page at each interval start.

The experiment driver :func:`run_recovery_experiment` runs two
simulations.  **Phase A** executes the application failure-free under
the chosen logging protocol, with a :class:`~repro.core.failure.CrashProbe`
capturing the victim's state at the crash point.  **Phase B** replays
the victim in a fresh simulation against
:class:`~repro.core.responder.SurvivorResponder` services built from the
survivors' phase-A state, measures the replay's virtual duration, and
verifies that the recovered memory image, page states, versions, and
vector clock match the crash-point snapshot exactly.

A note on in-flight messages: a diff acknowledged by the victim in the
instant between its last flush and the crash would be absent from the
log.  We adopt the paper's crash point ("a certain time after the
volatile logs of this interval are flushed") by force-sealing the
volatile tail at the probe, i.e. the crash is assumed to follow a
quiescent flush.  A production system would add a writer-driven
re-delivery pass (writers hold their own diffs in the CCL log), which
is exactly why CCL logs outgoing diffs durably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..config import ClusterConfig
from ..dsm.api import Dsm
from ..dsm.interval import IntervalRecord, VectorClock, fresh_records
from ..dsm.system import DsmSystem, RunResult
from ..errors import RecoveryError
from ..memory import LocalMemory, PageState, PageTable
from ..memory.diff import Diff
from ..sim.disk import Disk
from ..sim.engine import Simulator
from ..sim.events import Signal
from ..sim.network import NetMessage, Network
from ..sim.stats import NodeStats
from .checkpoint import Checkpointer, CheckpointSnapshot
from .failure import CrashProbe, FailureSnapshot
from .logging_base import RECOVERY_PROTOCOL_NAMES, make_hooks_factory
from .logrecords import NoticeLogRecord
from .responder import FailedNodeResponder, SurvivorResponder
from .stablelog import StableLog

__all__ = [
    "ReplayNode",
    "replay_node_class",
    "RecoveryResult",
    "MultiRecoveryResult",
    "replay_failed_node",
    "run_recovery_experiment",
    "run_multi_recovery_experiment",
    "compare_state",
]


def replay_node_class(protocol: str):
    """Explicit protocol-name → replay-class dispatch.

    Raises :class:`~repro.errors.RecoveryError` on unknown names -- the
    old ``ml-else-ccl`` fallback silently replayed any typo with the
    CCL engine.
    """
    from .adaptive_recovery import AdaptiveReplayNode
    from .ccl_recovery import CclReplayNode
    from .ml_recovery import MlReplayNode

    class FailoverReplayNode(CclReplayNode):
        """Classic replay over a ``failover``-protocol log.

        The failover scheme's log format is CCL's (plus content-free
        home-write records, which apply as no-ops), so when failover
        itself is impossible -- quorum lost, or no replication -- the
        victim can still be replayed the classic way from its durable
        log.  A distinct class keeps protocol names honest in results.
        """

        protocol = "failover"

    classes = {
        "ml": MlReplayNode,
        "ccl": CclReplayNode,
        "adaptive": AdaptiveReplayNode,
        "failover": FailoverReplayNode,
    }
    if protocol not in classes:
        raise RecoveryError(
            f"no replay engine for protocol {protocol!r}; "
            f"know {RECOVERY_PROTOCOL_NAMES}"
        )
    return classes[protocol]


class ReplayNode:
    """Base recovery-mode node; protocol specifics live in subclasses.

    Presents the same surface as :class:`~repro.dsm.hlrc.HlrcNode` to
    the :class:`~repro.dsm.api.Dsm` facade, so unmodified application
    code drives the replay.
    """

    protocol = "base"

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        disk: Disk,
        config: ClusterConfig,
        space,
        homes: List[int],
        node_id: int,
        plog: StableLog,
        stop_at_seal: int,
        responders: Dict[int, SurvivorResponder],
        free_until_seal: int = 0,
        checkpoint: Optional[CheckpointSnapshot] = None,
    ):
        self.sim = sim
        self.net = net
        self.disk = disk
        self.cfg = config
        self.id = node_id
        self.memory = LocalMemory(space)
        self.pagetable = PageTable(
            node_id, space.npages, homes, pool=space.buffer_pool
        )
        for p in self.pagetable.home_pages():
            self.pagetable.entry(p).version = VectorClock.zero(config.num_nodes)
        self.vt = VectorClock.zero(config.num_nodes)
        self.interval_index = 0
        self.acq_seq = 0
        self.seal_count = 0
        self.plog = plog
        self.stop_at = stop_at_seal
        self.responders = responders
        self.free_until = free_until_seal
        self.checkpoint = checkpoint
        #: Truncation makes pre-checkpoint intervals unqueryable, so the
        #: usual zero-cost fast-forward (which still *reads* the log)
        #: would trip the watermark guards.  Restore mode instead skips
        #: the truncated intervals outright and installs the checkpoint
        #: image verbatim when the replay reaches its seal.
        self.restore_mode = (
            checkpoint is not None and plog.truncated_below > 0
        )
        self.stats = NodeStats(node_id)
        #: Triggered with the virtual completion time when replay
        #: reaches the crash point.
        self.done = Signal(f"replay{node_id}.done")
        self._halt = Signal(f"replay{node_id}.halt")  # never triggers

    # ------------------------------------------------------------------
    @property
    def timed(self) -> bool:
        """False while fast-forwarding to the checkpoint (zero cost)."""
        return self.seal_count >= self.free_until

    @property
    def restoring(self) -> bool:
        """True while skipping truncated intervals before the restore."""
        return self.restore_mode and self.seal_count < self.free_until

    def _spend(self, category: str, seconds: float) -> Generator[Any, Any, None]:
        if self.timed and seconds > 0:
            self.stats.charge(category, seconds)
            yield seconds

    def _disk_read(self, category: str, nbytes: int) -> Generator[Any, Any, None]:
        """A sequential log-scan read (replay consumes the log in order)."""
        if self.timed and nbytes > 0:
            t0 = self.sim.now
            yield self.disk.read_seq(nbytes)
            self.stats.charge(category, self.sim.now - t0)
            self.stats.count("log_reads")
            self.stats.count("log_read_bytes", nbytes)

    # ------------------------------------------------------------------
    # Dsm-facing surface
    # ------------------------------------------------------------------
    def compute(self, flops: float) -> Generator[Any, Any, None]:
        """Re-execute application work (full cost in timed mode)."""
        yield from self._spend("compute", self.cfg.cpu.compute_time(flops))

    def idle(self, seconds: float) -> Generator[Any, Any, None]:
        """Re-execute an idle phase."""
        yield from self._spend("compute", seconds)

    def acquire(self, lock_id: int) -> Generator[Any, Any, None]:
        """Recovery acquire: local, fed from the logged notices."""
        yield from self._spend("sync", self.cfg.cpu.sync_overhead_s)
        self.acq_seq += 1
        yield from self._process_window(self.acq_seq)
        self.stats.count("lock_acquires")

    def release(self, lock_id: int) -> Generator[Any, Any, None]:
        """Recovery release: just closes the interval (Figure 2)."""
        yield from self._seal_interval()
        self.stats.count("lock_releases")

    def barrier(self, barrier_id: int = 0) -> Generator[Any, Any, None]:
        """Recovery barrier: closes the interval, no waiting (Figure 3)."""
        yield from self._seal_interval()
        self.stats.count("barriers")

    def ensure_read(self, pages) -> Generator[Any, Any, None]:
        if self.restoring:
            return
        for p in pages:
            entry = self.pagetable.entry(p)
            if entry.state is PageState.INVALID and entry.home != self.id:
                yield from self._replay_fault(p)

    def ensure_write(self, pages) -> Generator[Any, Any, None]:
        if self.restoring:
            return
        cpu = self.cfg.cpu
        for p in pages:
            entry = self.pagetable.entry(p)
            if entry.home == self.id:
                self.pagetable.mark_dirty(p)
                continue
            if entry.state is PageState.INVALID:
                yield from self._replay_fault(p)
            if entry.state is PageState.CLEAN:
                # twins are still created for pages written in the next
                # interval (Figure 2's in_recovery acquire branch)
                yield from self._spend(
                    "diff", cpu.twin_copy_per_byte_s * self.cfg.page_size
                )
                self.pagetable.make_twin(p, self.memory.page_bytes(p))
                entry.state = PageState.DIRTY
            self.pagetable.mark_dirty(p)

    # ------------------------------------------------------------------
    # replay skeleton
    # ------------------------------------------------------------------
    def start(self) -> Generator[Any, Any, None]:
        """Process the first interval's logged data before the app runs."""
        yield from self._begin_interval()

    def _seal_interval(self) -> Generator[Any, Any, None]:
        yield from self._spend("sync", self.cfg.cpu.sync_overhead_s)
        dirty = self.pagetable.take_dirty()
        if dirty and not self.restoring:
            new_vt = self.vt.tick(self.id)
            for p in dirty:
                entry = self.pagetable.entry(p)
                if entry.home == self.id:
                    entry.version = entry.version.merge(new_vt)
                elif entry.state is PageState.INVALID:
                    # early-flushed mid-interval (notice hit a dirty
                    # page) and not refetched: mirrors phase A exactly
                    continue
                else:
                    self.pagetable.drop_twin(p)
                    entry.state = PageState.CLEAN
                    entry.version = (
                        entry.version.merge(new_vt) if entry.version else new_vt
                    )
            self.vt = new_vt
        self.interval_index += 1
        self.acq_seq = 0
        self.seal_count += 1
        if (
            self.checkpoint is not None
            and self.seal_count == self.free_until
        ):
            if self.restore_mode:
                # fast-forward could not touch the truncated log, so the
                # checkpoint image is installed verbatim here
                self._restore_checkpoint(self.checkpoint)
            # timed replay begins here: charge the checkpoint restore read
            t0 = self.sim.now
            yield self.disk.read(self.checkpoint.nbytes)
            self.stats.charge("ckpt_restore", self.sim.now - t0)
        if self.seal_count >= self.stop_at:
            self.done.trigger(self.sim.now)
            yield self._halt  # block forever; the controller reaps us
        yield from self._begin_interval()

    def _restore_checkpoint(self, snap: CheckpointSnapshot) -> None:
        """Install a checkpoint image verbatim (truncated-log replay)."""
        self.memory.buffer[:] = snap.memory
        self.vt = snap.vt
        self.interval_index = snap.interval_index
        for p, (state, version) in snap.page_states.items():
            entry = self.pagetable.entry(p)
            entry.version = version
            if state is PageState.DIRTY and entry.home != self.id:
                # checkpoints land on seal boundaries, so dirty pages
                # are rare -- but a restored one needs its twin back
                self.pagetable.make_twin(p, self.memory.page_bytes(p))
            entry.state = state
            if state is PageState.DIRTY:
                self.pagetable.mark_dirty(p)

    def _begin_interval(self) -> Generator[Any, Any, None]:
        if self.restoring:
            return
        yield from self._boundary_read()
        yield from self._apply_boundary_updates()
        yield from self._process_window(0)

    def _process_window(self, window: int) -> Generator[Any, Any, None]:
        if self.restoring:
            return
        notices = self.plog.select(
            NoticeLogRecord, interval=self.interval_index, window=window
        )
        yield from self._window_read(window, notices)
        for rec in notices:
            self._apply_notices(rec.records)
        yield from self._prefetch_window(window)

    def _apply_notices(self, records: List[IntervalRecord]) -> None:
        # logged batches keep the causal order they were received in
        fresh = fresh_records(self.vt, records)
        for r in fresh:
            if r.node != self.id:
                for p in r.pages:
                    entry = self.pagetable.entry(p)
                    if entry.home == self.id:
                        continue
                    if entry.state is PageState.INVALID:
                        continue
                    if entry.version is not None and entry.version.dominates(r.vt):
                        continue
                    self.pagetable.invalidate(p)
        self.vt = self.vt.join_all(r.vt for r in fresh)

    # ------------------------------------------------------------------
    # diff gathering shared by home updates and page reconstruction
    # ------------------------------------------------------------------
    def _gather_diffs(
        self,
        wants_by_writer: Dict[int, List[Tuple[int, int, int]]],
        ranges_by_writer: Optional[Dict[int, List[Tuple[int, int, int]]]] = None,
    ) -> Generator[Any, Any, List[Tuple[Diff, int, int, int, VectorClock]]]:
        """Fetch logged diffs from writers (or our own log), batched.

        ``wants_by_writer`` maps a writer to exact ``(page, interval,
        part)`` triples; ``ranges_by_writer`` to ``(page, lo, hi)``
        interval-range queries (delta reconstruction).  One request per
        writer carries both.
        """
        from ..dsm.messages import LogDiffRequest

        ranges_by_writer = ranges_by_writer or {}
        entries: List[Tuple[Diff, int, int, int, VectorClock]] = []
        reply_sigs = []
        for writer in sorted(set(wants_by_writer) | set(ranges_by_writer)):
            wants = wants_by_writer.get(writer, [])
            ranges = ranges_by_writer.get(writer, [])
            if not wants and not ranges:
                continue
            if writer == self.id:
                # our own earlier diffs live in the log's diff-data
                # stream, which boundary scans skip: pull them now
                nbytes = 0
                for page, idx, part in wants:
                    d, vt = self.plog.find_own_diff(page, idx, part)
                    entries.append((d, writer, idx, part, vt))
                    nbytes += d.nbytes
                for page, lo, hi in ranges:
                    for d, idx, part, vt in self.plog.find_own_diffs_in_range(
                        page, lo, hi
                    ):
                        entries.append((d, writer, idx, part, vt))
                        nbytes += d.nbytes
                yield from self._disk_read("log_read", nbytes)
            elif not self.timed:
                reply, _rb = self.responders[writer].serve_logdiff(
                    LogDiffRequest(self.id, wants, ranges)
                )
                entries.extend(reply.entries)
            else:
                req = LogDiffRequest(self.id, wants, ranges)
                yield from self.net.send(
                    NetMessage(self.id, writer, "logdiff_req", req, req.nbytes)
                )
                reply_sigs.append(
                    self.net.mailbox(self.id).get(
                        lambda m, w=writer: m.kind == "logdiff_reply" and m.src == w
                    )
                )
        for sig in reply_sigs:
            t0 = self.sim.now
            msg = yield sig
            self.stats.charge("prefetch", self.sim.now - t0)
            entries.extend(msg.payload.entries)
        return entries

    @staticmethod
    def causal_sort(entries: List[Tuple[Diff, int, int, int, VectorClock]]):
        """Order diff entries along a linear extension of happens-before.

        Sorting by (vt.total, writer, interval, part) is a valid linear
        extension: vt totals strictly grow along happens-before, and
        within one writer interval the early flushes (part >= 1)
        happened before the end-of-interval flush only when their vt
        total is lower -- ties are broken so that a later part applies
        last, matching the original write order.
        """
        return sorted(entries, key=lambda e: (e[4].total, e[1], e[2], -e[3]))

    # ------------------------------------------------------------------
    # protocol-specific pieces
    # ------------------------------------------------------------------
    def _boundary_read(self) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def _apply_boundary_updates(self) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def _window_read(self, window: int, notices) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def _prefetch_window(self, window: int) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def _replay_fault(self, page: int) -> Generator[Any, Any, None]:
        raise NotImplementedError


# ======================================================================
# experiment driver
# ======================================================================


@dataclass
class RecoveryResult:
    """Outcome of one recovery experiment."""

    app_name: str
    protocol: str
    failed_node: int
    at_seal: int
    recovery_time: float
    verified: bool
    mismatches: List[str]
    replay_stats: NodeStats
    phase_a: RunResult = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        """Recovery completed and reproduced the crash-point state."""
        return self.verified and not self.mismatches


def compare_state(
    replay: ReplayNode, snapshot: FailureSnapshot, page_size: int
) -> List[str]:
    """Bit-exact comparison of recovered state vs the crash snapshot."""
    mismatches: List[str] = []
    if replay.vt != snapshot.vt:
        mismatches.append(f"vt: {replay.vt} != {snapshot.vt}")
    if replay.interval_index != snapshot.interval_index:
        mismatches.append(
            f"interval_index: {replay.interval_index} != {snapshot.interval_index}"
        )
    for p, (s_state, s_ver) in snapshot.page_states.items():
        entry = replay.pagetable.entry(p)
        if entry.state is not s_state:
            mismatches.append(f"page {p}: state {entry.state} != {s_state}")
            continue
        if s_state is PageState.INVALID and entry.home != replay.id:
            continue  # dead frames carry no meaning
        lo = p * page_size
        if not np.array_equal(
            replay.memory.buffer[lo : lo + page_size],
            snapshot.memory[lo : lo + page_size],
        ):
            mismatches.append(f"page {p}: contents differ")
        if s_ver != entry.version:
            mismatches.append(f"page {p}: version {entry.version} != {s_ver}")
    return mismatches


def replay_failed_node(
    app,
    config: ClusterConfig,
    protocol: str,
    system_a: DsmSystem,
    failed_node: int,
    plog: StableLog,
    stop_at: int,
    free_until: int = 0,
    checkpoint: Optional[CheckpointSnapshot] = None,
    salvage=None,
    dead: Tuple[int, ...] = (),
) -> Tuple[ReplayNode, float]:
    """Phase B: replay one victim in a fresh simulation, to ``stop_at`` seals.

    ``plog`` is the log the replay consumes -- the victim's full
    persistent log in the classic seal-aligned experiments, or a
    :meth:`~repro.core.stablelog.StableLog.durable_view` (possibly
    salvaged) at an arbitrary crash instant in the chaos suite.  When a
    :class:`~repro.core.salvage.SalvageReport` is supplied, the bytes
    its CRC walk read are charged to the replay as a sequential scan
    before any interval is processed -- salvage is part of recovery
    time.  ``dead`` lists nodes down alongside the victim (a zone
    kill): they answer from their logs via
    :class:`~repro.core.responder.FailedNodeResponder` instead of live
    state, with the multi-recovery simplification that co-victims serve
    peers from their full phase-A logs.  Returns the replay node (for
    state verification) and the replay's virtual duration.
    """
    if stop_at < 1:
        raise RecoveryError(f"replay needs at least one seal, got {stop_at}")
    # recovery assumes static homes: the responders and the replay node
    # are both built from the construction-time home map.  If homes
    # migrated during phase A (hlrc-migrate), page ownership in the live
    # pagetables has drifted and replay would misdirect reconstruction
    # requests -- diagnose that here instead of surfacing a KeyError
    # deep inside a responder.
    live_homes = [
        system_a.nodes[0].pagetable.entry(p).home
        for p in range(system_a.space.npages)
    ]
    if live_homes != list(system_a.homes):
        moved = [
            p
            for p, (a, b) in enumerate(zip(system_a.homes, live_homes))
            if a != b
        ]
        involving = [
            p
            for p in moved
            if live_homes[p] == failed_node or system_a.homes[p] == failed_node
        ]
        raise RecoveryError(
            f"home map drifted during the run: {len(moved)} page(s) "
            f"migrated (e.g. {moved[:6]}), {len(involving)} involving the "
            f"failed node {failed_node}; the paper's recovery protocol "
            "assumes static homes, so replay after home migration is "
            "refused rather than silently misdirected"
        )
    sim_b = Simulator()
    net_b = Network(sim_b, config.network, config.num_nodes)
    disks_b = [
        Disk(sim_b, config.disk, f"rdisk{i}") for i in range(config.num_nodes)
    ]
    ckpt_image = LocalMemory(system_a.space)
    dead_peers = set(dead) - {failed_node}
    responders: Dict[int, SurvivorResponder] = {}
    for node in system_a.nodes:
        if node.id == failed_node:
            continue
        if node.id in dead_peers:
            peer_log = getattr(node.hooks, "log", None)
            if peer_log is None:
                raise RecoveryError(
                    f"co-victim {node.id} crashed alongside node "
                    f"{failed_node} but keeps no log to answer replay "
                    "requests from"
                )
            responders[node.id] = FailedNodeResponder(
                node, ckpt_image, peer_log
            )
        else:
            responders[node.id] = SurvivorResponder(node, ckpt_image)

    node_cls = replay_node_class(protocol)
    replay = node_cls(
        sim_b,
        net_b,
        disks_b[failed_node],
        config,
        system_a.space,
        system_a.homes,
        failed_node,
        plog,
        stop_at,
        responders,
        free_until_seal=free_until,
        checkpoint=checkpoint,
    )

    responder_procs = [
        sim_b.spawn(r.loop(net_b, disks_b[r.id]), name=f"responder{r.id}")
        for r in responders.values()
    ]

    def replay_main() -> Generator[Any, Any, None]:
        if salvage is not None and salvage.scan_bytes:
            t0 = sim_b.now
            yield disks_b[failed_node].read_seq(salvage.scan_bytes)
            replay.stats.charge("salvage_scan", sim_b.now - t0)
        yield from replay.start()
        dsm = Dsm(replay, failed_node, config.num_nodes)
        yield from app.program(dsm)

    main = sim_b.spawn(replay_main(), name=f"replay{failed_node}")

    def controller() -> Generator[Any, Any, None]:
        yield replay.done
        main.kill()
        for proc in responder_procs:
            proc.kill()

    sim_b.spawn(controller(), name="recovery-controller")
    sim_b.run()
    if not replay.done.triggered:
        raise RecoveryError("replay never reached the crash point")
    return replay, float(replay.done.value)


def run_recovery_experiment(
    app,
    config: Optional[ClusterConfig] = None,
    protocol: str = "ccl",
    failed_node: int = 0,
    at_seal: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_mode: str = "seals",
    retention: Optional[int] = None,
    verify: bool = True,
    recovery_budget: Optional[float] = None,
) -> RecoveryResult:
    """Run phase A (failure-free + probe) and phase B (timed replay).

    ``at_seal=None`` crashes the victim at its final interval (the
    paper's setting: maximum work to recover).  ``checkpoint_every``
    enables periodic checkpoints -- independent per-node
    (``checkpoint_mode="seals"``, the paper's default) or coordinated at
    barrier episodes (``"barriers"``, the paper's noted extension);
    replay then starts timed execution at the latest checkpoint before
    the crash.  ``retention`` bounds how many checkpoints each node
    keeps; retiring old ones truncates the log below the oldest retained
    seal, so replay runs in *restore mode* (the checkpoint image is
    installed verbatim instead of fast-forwarded to).
    """
    if protocol not in RECOVERY_PROTOCOL_NAMES:
        raise RecoveryError(f"recovery requires a logging protocol, got {protocol!r}")
    config = config or ClusterConfig.ultra5()
    if not (0 <= failed_node < config.num_nodes):
        # fail fast: without this check a bad victim rank only surfaces
        # after a full phase-A run, as "never reached seal"
        raise RecoveryError(
            f"failed_node {failed_node} is not a valid rank; the cluster "
            f"has nodes 0..{config.num_nodes - 1}"
        )

    # ---------------- phase A: failure-free run with probe -------------
    system_a = DsmSystem(
        app, config, make_hooks_factory(protocol, recovery_budget=recovery_budget)
    )
    probe = CrashProbe(failed_node, at_seal)
    system_a.add_probe(probe)
    checkpointers: Dict[int, Checkpointer] = {}
    if checkpoint_every:
        for node in system_a.nodes:
            checkpointers[node.id] = Checkpointer(
                checkpoint_every, on=checkpoint_mode, retention=retention
            )
            node.checkpointer = checkpointers[node.id]
    result_a = system_a.run()
    probe.finalize()
    snapshot = probe.snapshot
    if snapshot is None:
        raise RecoveryError(
            f"node {failed_node} never reached seal {at_seal}; cannot crash there"
        )
    at_seal = snapshot.seal_count

    # ---------------- phase B: timed replay ----------------------------
    plog = getattr(system_a.nodes[failed_node].hooks, "log")
    free_until = 0
    ckpt_snapshot: Optional[CheckpointSnapshot] = None
    if checkpoint_every and failed_node in checkpointers:
        ckpt_snapshot = checkpointers[failed_node].latest_before(at_seal - 1)
        if ckpt_snapshot is not None:
            free_until = ckpt_snapshot.seal

    replay, recovery_time = replay_failed_node(
        app,
        config,
        protocol,
        system_a,
        failed_node,
        plog,
        at_seal,
        free_until=free_until,
        checkpoint=ckpt_snapshot,
    )

    mismatches: List[str] = []
    if verify:
        mismatches = compare_state(replay, snapshot, config.page_size)
    return RecoveryResult(
        app_name=getattr(app, "name", type(app).__name__),
        protocol=protocol,
        failed_node=failed_node,
        at_seal=at_seal,
        recovery_time=recovery_time,
        verified=verify,
        mismatches=mismatches,
        replay_stats=replay.stats,
        phase_a=result_a,
    )


# ======================================================================
# multi-failure recovery (beyond the paper)
# ======================================================================


@dataclass
class MultiRecoveryResult:
    """Outcome of a simultaneous multi-node failure recovery.

    The paper's protocol is evaluated for single failures, but CCL's
    decision to make every node log its *own outgoing diffs* durably is
    exactly what multi-failure recovery needs: a crashed peer's memory
    is gone, yet its disk can still serve the diffs and histories other
    victims' replays require (:class:`~repro.core.responder.FailedNodeResponder`).
    """

    app_name: str
    protocol: str
    failed_nodes: Tuple[int, ...]
    at_seals: Dict[int, int]
    #: Per-victim replay completion times (virtual seconds).
    recovery_times: Dict[int, float]
    mismatches: Dict[int, List[str]]
    phase_a: RunResult = field(repr=False, default=None)
    #: Per-victim checkpoint seal replay started timed from (0 = none).
    free_untils: Dict[int, int] = field(default_factory=dict)
    #: Per-victim salvage reports (arbitrary-instant crashes only).
    salvage: Dict[int, Any] = field(default_factory=dict)

    @property
    def recovery_time(self) -> float:
        """Wall recovery time: the victims replay concurrently."""
        return max(self.recovery_times.values())

    @property
    def ok(self) -> bool:
        """Every victim reached its crash point with bit-exact state."""
        return all(not m for m in self.mismatches.values())


def run_multi_recovery_experiment(
    app,
    config: Optional[ClusterConfig] = None,
    protocol: str = "ccl",
    failed_nodes: Tuple[int, ...] = (0, 1),
    at_time: Optional[float] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_mode: str = "seals",
    retention: Optional[int] = None,
    disk_fault_plan=None,
    verify: bool = True,
    recovery_budget: Optional[float] = None,
) -> MultiRecoveryResult:
    """Crash several nodes at their final intervals and recover them all.

    Victims replay **concurrently** in one simulation: each consumes its
    own log; survivors serve reconstruction data from live state; the
    victims serve *each other* from their surviving logs.  ML victims
    replay purely locally, so ML supports multiple failures trivially;
    CCL needs the failed-node responders -- which only exist because CCL
    writers log their outgoing diffs durably.

    ``at_time`` crashes *all* victims at one arbitrary virtual instant:
    each victim's log is truncated to its crash-time durable view, run
    through the salvage scan when ``disk_fault_plan`` is active, and
    replayed to its own recoverable seal (victims may stop at different
    seals).  ``checkpoint_every``/``retention`` add periodic checkpoints
    with bounded retention; a victim whose salvaged log no longer covers
    its replay window falls back to an earlier retained checkpoint via
    :func:`~repro.core.salvage.plan_recovery`.  Simplification: victim
    responders serve peers from their *full* phase-A logs -- peer-served
    data is not subject to this victim's salvage cut.
    """
    from .salvage import SalvageReport, plan_recovery, salvage_log

    if protocol not in RECOVERY_PROTOCOL_NAMES:
        raise RecoveryError(f"recovery requires a logging protocol, got {protocol!r}")
    if len(set(failed_nodes)) != len(failed_nodes) or not failed_nodes:
        raise RecoveryError(f"bad failed-node set: {failed_nodes}")
    config = config or ClusterConfig.ultra5()
    for f in failed_nodes:
        if not (0 <= f < config.num_nodes):
            raise RecoveryError(
                f"failed node {f} is not a valid rank; the cluster has "
                f"nodes 0..{config.num_nodes - 1}"
            )
    if len(failed_nodes) >= config.num_nodes:
        raise RecoveryError("at least one node must survive")

    # ---------------- phase A: failure-free run with one probe each ----
    use_instant = at_time is not None
    system_a = DsmSystem(
        app, config, make_hooks_factory(protocol, recovery_budget=recovery_budget),
        disk_fault_plan=disk_fault_plan,
    )
    probes = {f: CrashProbe(f, capture_all=use_instant) for f in failed_nodes}
    for probe in probes.values():
        system_a.add_probe(probe)
    checkpointers: Dict[int, Checkpointer] = {}
    if checkpoint_every:
        for node in system_a.nodes:
            checkpointers[node.id] = Checkpointer(
                checkpoint_every, on=checkpoint_mode, retention=retention
            )
            node.checkpointer = checkpointers[node.id]
    result_a = system_a.run()

    # ---------------- per-victim recovery plan -------------------------
    snapshots: Dict[int, FailureSnapshot] = {}
    stop_ats: Dict[int, int] = {}
    free_untils: Dict[int, int] = {}
    ckpt_snaps: Dict[int, Optional[CheckpointSnapshot]] = {}
    plogs: Dict[int, StableLog] = {}
    salvage_reports: Dict[int, Any] = {}
    for f, probe in probes.items():
        probe.finalize()
        full = getattr(system_a.nodes[f].hooks, "log")
        ckpt = checkpointers.get(f)
        if not use_instant:
            if probe.snapshot is None:
                raise RecoveryError(f"node {f} never sealed an interval")
            stop_ats[f] = probe.snapshot.seal_count
            snapshots[f] = probe.snapshot
            plogs[f] = full
            free_untils[f], ckpt_snaps[f] = 0, None
            if ckpt is not None:
                snap = ckpt.latest_before(stop_ats[f] - 1)
                if snap is not None:
                    free_untils[f], ckpt_snaps[f] = snap.seal, snap
            continue
        seals_done = sum(
            1 for s in probe.snapshots.values() if s.time <= at_time
        )
        view = full.durable_view(at_time)
        if disk_fault_plan is not None and disk_fault_plan.active:
            view, report = salvage_log(view)
        else:
            report = SalvageReport(
                f, salvaged_count=len(view.persistent_records)
            )
        salvage_reports[f] = report
        stop_at, free_until, snap = plan_recovery(
            full, report, seals_done, ckpt
        )
        if stop_at < 1:
            raise RecoveryError(
                f"victim {f}: nothing recoverable at t={at_time!r} "
                f"({report.describe()})"
            )
        stop_ats[f], free_untils[f], ckpt_snaps[f] = stop_at, free_until, snap
        snapshots[f] = probe.snapshots[stop_at]
        plogs[f] = view

    # ---------------- phase B: concurrent replays ----------------------
    sim_b = Simulator()
    net_b = Network(sim_b, config.network, config.num_nodes)
    disks_b = [
        Disk(sim_b, config.disk, f"rdisk{i}") for i in range(config.num_nodes)
    ]
    ckpt_image = LocalMemory(system_a.space)
    responders: Dict[int, SurvivorResponder] = {}
    for node in system_a.nodes:
        if node.id in snapshots:
            responders[node.id] = FailedNodeResponder(
                node, ckpt_image, getattr(node.hooks, "log")
            )
        else:
            responders[node.id] = SurvivorResponder(node, ckpt_image)

    node_cls = replay_node_class(protocol)
    replays: Dict[int, ReplayNode] = {}
    for f in failed_nodes:
        peer_responders = {i: r for i, r in responders.items() if i != f}
        replays[f] = node_cls(
            sim_b,
            net_b,
            disks_b[f],
            config,
            system_a.space,
            system_a.homes,
            f,
            plogs[f],
            stop_ats[f],
            peer_responders,
            free_until_seal=free_untils[f],
            checkpoint=ckpt_snaps[f],
        )

    responder_procs = [
        sim_b.spawn(r.loop(net_b, disks_b[r.id]), name=f"responder{r.id}")
        for r in responders.values()
    ]

    def replay_main(f: int) -> Generator[Any, Any, None]:
        report = salvage_reports.get(f)
        if report is not None and report.scan_bytes:
            t0 = sim_b.now
            yield disks_b[f].read_seq(report.scan_bytes)
            replays[f].stats.charge("salvage_scan", sim_b.now - t0)
        yield from replays[f].start()
        dsm = Dsm(replays[f], f, config.num_nodes)
        yield from app.program(dsm)

    mains = {f: sim_b.spawn(replay_main(f), name=f"replay{f}") for f in failed_nodes}

    def controller() -> Generator[Any, Any, None]:
        from ..sim.events import AllOf as _AllOf

        yield _AllOf([replays[f].done for f in failed_nodes])
        for proc in mains.values():
            proc.kill()
        for proc in responder_procs:
            proc.kill()

    sim_b.spawn(controller(), name="multi-recovery-controller")
    sim_b.run()

    recovery_times: Dict[int, float] = {}
    mismatches: Dict[int, List[str]] = {}
    for f in failed_nodes:
        if not replays[f].done.triggered:
            raise RecoveryError(f"victim {f} never reached its crash point")
        recovery_times[f] = float(replays[f].done.value)
        mismatches[f] = (
            compare_state(replays[f], snapshots[f], config.page_size)
            if verify
            else []
        )
    return MultiRecoveryResult(
        app_name=getattr(app, "name", type(app).__name__),
        protocol=protocol,
        failed_nodes=tuple(failed_nodes),
        at_seals={f: stop_ats[f] for f in failed_nodes},
        recovery_times=recovery_times,
        mismatches=mismatches,
        phase_a=result_a,
        free_untils=dict(free_untils),
        salvage=dict(salvage_reports),
    )
