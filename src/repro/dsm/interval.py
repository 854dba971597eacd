"""Intervals, vector timestamps, and write-invalidation notices.

Lazy release consistency partitions each process's execution into
*intervals* delimited by synchronisation operations.  Ending an interval
produces an :class:`IntervalRecord`: the writer's id, the interval
index, a :class:`VectorClock` timestamp capturing the interval's causal
history, and the list of pages written during the interval (the
*write-invalidation notices*).

Records propagate along the synchronisation chain: a lock grant or
barrier release carries every record the recipient has not yet covered,
and the recipient invalidates its remote copies of the noticed pages.
The same records are what coherence-centric logging writes to stable
storage, and what recovery uses to rebuild the failed node's timeline.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ProtocolError

__all__ = ["VectorClock", "IntervalRecord", "IntervalTable", "fresh_records"]


class VectorClock:
    """An immutable vector timestamp over ``n`` nodes.

    Component ``vt[p]`` counts the completed intervals of node ``p``
    whose effects are covered.  Standard partial order:
    ``a.dominates(b)`` iff ``a[i] >= b[i]`` for every ``i``.

    The public constructor is the validating ingress path (log decode,
    tests, callers outside the protocol): every component must be a
    non-negative integer.  Clocks derived from validated clocks --
    ``zero``, ``tick``, ``merge``, ``join_all`` -- are built by
    :meth:`_trusted`, which skips the per-component checks: maxima and
    increments of non-negative integers are non-negative integers.
    """

    __slots__ = ("_v",)

    def __init__(self, values: Iterable[int]):
        # operator.index rejects floats (no silent truncation) and
        # accepts numpy integers, returning plain ints
        v = tuple(map(operator.index, values))
        if v and min(v) < 0:
            raise ProtocolError(f"negative vector clock component: {v}")
        self._v: Tuple[int, ...] = v

    @classmethod
    def _trusted(cls, values: Tuple[int, ...]) -> "VectorClock":
        """Wrap a component tuple already known to be valid (no checks)."""
        vc = object.__new__(cls)
        vc._v = values
        return vc

    @classmethod
    def zero(cls, n: int) -> "VectorClock":
        """The origin timestamp for an ``n``-node system."""
        return cls._trusted((0,) * n)

    # ------------------------------------------------------------------
    def tick(self, node: int) -> "VectorClock":
        """A copy with component ``node`` incremented (interval completion)."""
        self._check_node(node)
        v = self._v
        return VectorClock._trusted(v[:node] + (v[node] + 1,) + v[node + 1:])

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Component-wise maximum (causal join)."""
        self._check_width(other)
        return VectorClock._trusted(tuple(map(max, self._v, other._v)))

    def join_all(self, others: Iterable["VectorClock"]) -> "VectorClock":
        """The join of ``self`` and every clock in ``others``, in one pass.

        Equal to folding :meth:`merge` over ``others`` (the join is
        associative and commutative), but one elementwise ``max`` over
        the whole batch replaces one intermediate clock per member.
        """
        others = list(others)
        if not others:
            return self
        for o in others:
            self._check_width(o)
        # max over each component's column (zip transposes the batch)
        columns = zip(self._v, *(o._v for o in others))
        return VectorClock._trusted(tuple(map(max, columns)))

    def dominates(self, other: "VectorClock") -> bool:
        """True iff ``self >= other`` component-wise."""
        self._check_width(other)
        return all(map(operator.ge, self._v, other._v))

    def covers_interval(self, node: int, index: int) -> bool:
        """Whether interval ``index`` of ``node`` is within this history."""
        self._check_node(node)
        return self._v[node] >= index + 1

    # ------------------------------------------------------------------
    def __getitem__(self, node: int) -> int:
        return self._v[node]

    def __len__(self) -> int:
        return len(self._v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self._v == other._v

    def __hash__(self) -> int:
        return hash(self._v)

    def __repr__(self) -> str:
        return f"VC{self._v}"

    @property
    def total(self) -> int:
        """Sum of components; strictly increases along happens-before."""
        return sum(self._v)

    @property
    def nbytes(self) -> int:
        """Encoded size (4 bytes per component)."""
        return 4 * len(self._v)

    def as_tuple(self) -> Tuple[int, ...]:
        """The raw component tuple."""
        return self._v

    def _check_node(self, node: int) -> None:
        # a negative id would otherwise alias node n-1 through indexing
        if not 0 <= node < len(self._v):
            raise ProtocolError(
                f"node {node} out of range for a {len(self._v)}-node vector clock"
            )

    def _check_width(self, other: "VectorClock") -> None:
        if len(self._v) != len(other._v):
            raise ProtocolError(
                f"vector clock width mismatch: {len(self._v)} vs {len(other._v)}"
            )


@dataclass(frozen=True)
class IntervalRecord:
    """One completed interval and its write-invalidation notices."""

    node: int
    index: int
    vt: VectorClock
    #: Pages written during the interval (sorted page ids).
    pages: Tuple[int, ...]
    #: ``(vt.total, node, index)``: sorting by it yields a linear
    #: extension of happens-before.  Derived once, at construction.
    causal_key: Tuple[int, int, int] = field(init=False, repr=False, compare=False)
    #: Encoded wire/log size: metadata + vector + 4 bytes per notice.
    nbytes: int = field(init=False, repr=False, compare=False)

    #: Encoded bytes for (node, index, page count) metadata.
    META_BYTES = 12

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "causal_key", (self.vt.total, self.node, self.index)
        )
        object.__setattr__(
            self, "nbytes",
            self.META_BYTES + self.vt.nbytes + 4 * len(self.pages),
        )

    @property
    def key(self) -> Tuple[int, int]:
        """Identity of the interval: ``(node, index)``."""
        return (self.node, self.index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IR n{self.node}i{self.index} {self.vt} pages={list(self.pages)}>"


_causal_key = operator.attrgetter("causal_key")


def fresh_records(
    vt: VectorClock, records: Iterable[IntervalRecord]
) -> List[IntervalRecord]:
    """The records of one notice batch that a node at ``vt`` lacks.

    Keeps batch order and drops records ``vt`` covers and repeats of a
    record already kept.  Precondition: ``records`` is in causal order,
    sorted by :attr:`IntervalRecord.causal_key` (how every grant, barrier
    release and logged notice batch is built).  Then no record of the
    batch covers a later one -- covering implies happens-before, which
    implies a strictly smaller ``vt.total`` -- so testing each record
    against the pre-batch ``vt`` alone, then joining the kept records'
    clocks once (:meth:`VectorClock.join_all`), is exactly the
    record-at-a-time test-and-merge loop.
    """
    out: List[IntervalRecord] = []
    seen: set[Tuple[int, int]] = set()
    for r in records:
        if vt.covers_interval(r.node, r.index):
            continue
        key = (r.node, r.index)
        if key in seen:
            continue
        seen.add(key)
        out.append(r)
    return out


class IntervalTable:
    """A node's store of every interval record it knows about.

    Supports the two queries the protocol needs: "which records does a
    peer with timestamp ``vt`` lack?" (lock grants, barrier releases)
    and ordered enumeration for recovery reconstruction.

    Storage is per creating node, indexed by interval number -- each
    node's interval indices are dense (0, 1, 2, ...), so the uncovered
    records of node ``q`` for a peer at timestamp ``vt`` are exactly the
    slice ``[vt[q]:]``.  This keeps the hot grant/check-in query
    proportional to its *result* size rather than to the table
    (TreadMarks keeps the same per-node interval lists); long runs would
    otherwise go quadratic in the number of synchronisations.
    """

    def __init__(self) -> None:
        #: node -> records ordered by interval index (possibly with
        #: trailing gaps filled later; lock-chain delivery is causal, so
        #: gaps are transient and only ever at the tail).
        self._by_node: Dict[int, List[Optional[IntervalRecord]]] = {}
        #: node -> low-water mark: every entry below it is ``None``, so
        #: a prune only walks the entries above it
        self._low: Dict[int, int] = {}
        self._count = 0

    def add(self, record: IntervalRecord) -> bool:
        """Insert a record; returns False if it was already known."""
        lst = self._by_node.setdefault(record.node, [])
        if record.index < len(lst):
            if lst[record.index] is not None:
                return False
            lst[record.index] = record
            # a manager can be handed a record it already pruned (the
            # sender's view of it is stale); the next prune drops it again
            if record.index < self._low.get(record.node, 0):
                self._low[record.node] = record.index
        else:
            while len(lst) < record.index:
                lst.append(None)
            lst.append(record)
        self._count += 1
        return True

    def add_all(self, records: Iterable[IntervalRecord]) -> int:
        """Insert many records; returns the number newly added."""
        return sum(1 for r in records if self.add(r))

    def get(self, node: int, index: int) -> IntervalRecord:
        """Look up one record (raises if unknown)."""
        lst = self._by_node.get(node, [])
        if index < len(lst) and lst[index] is not None:
            return lst[index]
        raise ProtocolError(f"unknown interval ({node}, {index})")

    def __contains__(self, key: Tuple[int, int]) -> bool:
        node, index = key
        lst = self._by_node.get(node, [])
        return index < len(lst) and lst[index] is not None

    def __len__(self) -> int:
        return self._count

    def records_not_covered_by(self, vt: VectorClock) -> List[IntervalRecord]:
        """Records outside ``vt``'s history, in causal (vt.total) order.

        Sorting by ``(vt.total, node, index)`` yields a linear extension
        of happens-before, so recipients can apply notices in a causally
        safe order.
        """
        out: List[IntervalRecord] = []
        v = vt._v
        width = len(v)
        for node, lst in self._by_node.items():
            # records are always truthy, so filter(None, ...) drops gaps
            out.extend(filter(None, lst[v[node] if node < width else 0:]))
        out.sort(key=_causal_key)
        return out

    def all_records(self) -> List[IntervalRecord]:
        """Every known record in causal order."""
        out = [r for lst in self._by_node.values() for r in lst if r is not None]
        out.sort(key=_causal_key)
        return out

    def prune_covered_by(self, vt: VectorClock) -> int:
        """Drop records covered by ``vt``; returns the number dropped.

        Safe after a barrier: every node's applied timestamp then
        dominates the barrier cut, so no future grant or check-in can
        need those records (the slice positions are preserved -- pruned
        entries become ``None``, keeping interval indices stable).
        Recovery never consults interval tables (it replays notices from
        the log), so pruning does not affect recoverability.
        """
        dropped = 0
        v = vt._v
        width = len(v)
        low = self._low
        for node, lst in self._by_node.items():
            start = low.get(node, 0)
            limit = min(v[node] if node < width else 0, len(lst))
            if limit <= start:
                continue
            dropped += limit - start - lst[start:limit].count(None)
            lst[start:limit] = [None] * (limit - start)
            low[node] = limit
        self._count -= dropped
        return dropped

    @property
    def nbytes(self) -> int:
        """Encoded size of all retained records (memory-growth stat)."""
        return sum(
            r.nbytes
            for lst in self._by_node.values()
            for r in lst
            if r is not None
        )
