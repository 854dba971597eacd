"""Unit + property tests for vector clocks and interval records."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recovery import ReplayNode
from repro.dsm import IntervalRecord, IntervalTable, VectorClock
from repro.dsm.hlrc import HlrcNode
from repro.dsm.interval import fresh_records
from repro.dsm.lrc import LrcNode
from repro.errors import ProtocolError
from repro.memory import PageState
from repro.memory.pagetable import PageTable

vcs = st.lists(st.integers(0, 20), min_size=4, max_size=4).map(VectorClock)


class TestVectorClock:
    def test_zero(self):
        vt = VectorClock.zero(3)
        assert vt.as_tuple() == (0, 0, 0)
        assert vt.total == 0

    def test_tick_increments_one_component(self):
        vt = VectorClock.zero(3).tick(1)
        assert vt.as_tuple() == (0, 1, 0)

    def test_tick_is_pure(self):
        a = VectorClock.zero(2)
        b = a.tick(0)
        assert a.as_tuple() == (0, 0) and b.as_tuple() == (1, 0)

    def test_merge_componentwise_max(self):
        a = VectorClock((1, 5, 0))
        b = VectorClock((2, 3, 4))
        assert a.merge(b).as_tuple() == (2, 5, 4)

    def test_dominates_partial_order(self):
        a = VectorClock((2, 2))
        b = VectorClock((1, 2))
        c = VectorClock((2, 1))
        assert a.dominates(b) and a.dominates(c)
        assert not b.dominates(c) and not c.dominates(b)
        assert a.dominates(a)

    def test_covers_interval(self):
        vt = VectorClock((2, 0))
        assert vt.covers_interval(0, 0)
        assert vt.covers_interval(0, 1)
        assert not vt.covers_interval(0, 2)
        assert not vt.covers_interval(1, 0)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            VectorClock((1,)).merge(VectorClock((1, 2)))

    def test_negative_component_rejected(self):
        with pytest.raises(ProtocolError):
            VectorClock((-1, 0))

    def test_tick_rejects_out_of_range_node(self):
        # a negative id used to alias node n-1 through Python indexing
        with pytest.raises(ProtocolError):
            VectorClock((0, 0, 0)).tick(-1)
        with pytest.raises(ProtocolError):
            VectorClock((0, 0, 0)).tick(3)

    def test_covers_interval_rejects_out_of_range_node(self):
        with pytest.raises(ProtocolError):
            VectorClock((0, 0, 5)).covers_interval(-1, 0)
        with pytest.raises(ProtocolError):
            VectorClock((0, 0, 5)).covers_interval(3, 0)

    def test_non_integer_component_rejected(self):
        # used to truncate silently to VC(1, 2)
        with pytest.raises(TypeError):
            VectorClock((1.7, 2))
        with pytest.raises(TypeError):
            VectorClock((np.float64(1.0), 2))

    def test_numpy_integers_accepted_as_plain_ints(self):
        vt = VectorClock(np.array([3, 0, 2], dtype=np.int64))
        assert vt.as_tuple() == (3, 0, 2)
        assert all(type(x) is int for x in vt.as_tuple())
        assert VectorClock((np.uint32(4), np.int32(1))) == VectorClock((4, 1))

    def test_derived_clocks_equal_validated_ones(self):
        a = VectorClock((1, 5, 0))
        assert a.tick(2) == VectorClock((1, 5, 1))
        assert a.merge(VectorClock((2, 0, 0))) == VectorClock((2, 5, 0))
        assert VectorClock.zero(3) == VectorClock((0, 0, 0))
        assert hash(a.tick(0)) == hash(VectorClock((2, 5, 0)))

    def test_join_all(self):
        a = VectorClock((1, 5, 0))
        others = [VectorClock((2, 3, 4)), VectorClock((0, 6, 1))]
        assert a.join_all(others).as_tuple() == (2, 6, 4)
        assert a.join_all([]) is a
        assert a.join_all(iter(others)) == a.merge(others[0]).merge(others[1])

    def test_join_all_width_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            VectorClock((1, 2)).join_all([VectorClock((1, 2)), VectorClock((1,))])

    @settings(max_examples=100, deadline=None)
    @given(a=vcs, others=st.lists(vcs, max_size=6))
    def test_property_join_all_is_merge_fold(self, a, others):
        folded = a
        for o in others:
            folded = folded.merge(o)
        assert a.join_all(others) == folded

    def test_equality_and_hash(self):
        assert VectorClock((1, 2)) == VectorClock((1, 2))
        assert hash(VectorClock((1, 2))) == hash(VectorClock((1, 2)))
        assert VectorClock((1, 2)) != VectorClock((2, 1))

    def test_nbytes(self):
        assert VectorClock.zero(8).nbytes == 32

    @settings(max_examples=100, deadline=None)
    @given(a=vcs, b=vcs)
    def test_property_merge_commutative_and_dominating(self, a, b):
        m = a.merge(b)
        assert m == b.merge(a)
        assert m.dominates(a) and m.dominates(b)

    @settings(max_examples=100, deadline=None)
    @given(a=vcs, b=vcs, c=vcs)
    def test_property_merge_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @settings(max_examples=100, deadline=None)
    @given(a=vcs, b=vcs)
    def test_property_total_monotone_under_dominance(self, a, b):
        if a.dominates(b):
            assert a.total >= b.total


class TestIntervalRecord:
    def test_nbytes_accounting(self):
        r = IntervalRecord(1, 0, VectorClock((1, 0)), (3, 4, 5))
        assert r.nbytes == IntervalRecord.META_BYTES + 8 + 12

    def test_key(self):
        r = IntervalRecord(2, 7, VectorClock.zero(3), ())
        assert r.key == (2, 7)

    def test_causal_key_cached_at_construction(self):
        r = IntervalRecord(1, 2, VectorClock((2, 3, 0)), (9,))
        assert r.causal_key == (5, 1, 2)

    def test_derived_fields_do_not_affect_equality(self):
        a = IntervalRecord(1, 0, VectorClock((0, 1)), (3,))
        b = IntervalRecord(1, 0, VectorClock((0, 1)), (3,))
        assert a == b and hash(a) == hash(b)


class TestIntervalTable:
    def make_record(self, node, index, vt_vals, pages=()):
        return IntervalRecord(node, index, VectorClock(vt_vals), tuple(pages))

    def test_add_and_duplicate(self):
        t = IntervalTable()
        r = self.make_record(0, 0, (1, 0))
        assert t.add(r) is True
        assert t.add(r) is False
        assert len(t) == 1
        assert (0, 0) in t

    def test_get_unknown_raises(self):
        t = IntervalTable()
        with pytest.raises(ProtocolError):
            t.get(0, 3)

    def test_records_not_covered_filters_and_orders(self):
        t = IntervalTable()
        r00 = self.make_record(0, 0, (1, 0))
        r01 = self.make_record(0, 1, (2, 1))
        r10 = self.make_record(1, 0, (0, 1))
        t.add_all([r01, r10, r00])
        out = t.records_not_covered_by(VectorClock((1, 0)))
        # r00 covered (vt[0]=1 >= 0+1); r10 and r01 not; ordered by vt.total
        assert out == [r10, r01]

    def test_records_not_covered_causal_order_is_linear_extension(self):
        t = IntervalTable()
        recs = [
            self.make_record(0, 0, (1, 0, 0)),
            self.make_record(1, 0, (1, 1, 0)),  # saw node0's interval
            self.make_record(0, 1, (2, 1, 0)),  # saw node1's interval
            self.make_record(2, 0, (0, 0, 1)),  # concurrent with all
        ]
        t.add_all(recs)
        out = t.records_not_covered_by(VectorClock.zero(3))
        pos = {r.key: i for i, r in enumerate(out)}
        assert pos[(0, 0)] < pos[(1, 0)] < pos[(0, 1)]

    def test_all_records(self):
        t = IntervalTable()
        r1 = self.make_record(0, 0, (1, 0))
        r2 = self.make_record(1, 0, (1, 1))
        t.add_all([r2, r1])
        assert t.all_records() == [r1, r2]

    def test_prune_drops_covered_and_keeps_indices(self):
        t = IntervalTable()
        recs = [self.make_record(0, i, (i + 1, 0)) for i in range(4)]
        t.add_all(recs)
        assert t.prune_covered_by(VectorClock((2, 0))) == 2
        assert len(t) == 2 and (0, 1) not in t and (0, 2) in t
        assert t.prune_covered_by(VectorClock((2, 0))) == 0
        assert t.prune_covered_by(VectorClock((3, 0))) == 1
        assert t.all_records() == [recs[3]]

    def test_prune_rewalks_a_record_readded_below_the_mark(self):
        t = IntervalTable()
        recs = [self.make_record(0, i, (i + 1, 0)) for i in range(3)]
        t.add_all(recs)
        assert t.prune_covered_by(VectorClock((3, 0))) == 3
        # a stale sender can hand a manager a record it already pruned
        assert t.add(recs[0]) is True
        assert t.records_not_covered_by(VectorClock.zero(2)) == [recs[0]]
        assert t.prune_covered_by(VectorClock((3, 0))) == 1
        assert len(t) == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_incremental_prune_matches_full_rescan(self, seed):
        """Random add/prune/query sequences against a set-of-keys model."""
        rng = random.Random(seed)
        n = 4
        t = IntervalTable()
        model = {}
        for _ in range(300):
            op = rng.random()
            if op < 0.6:
                node, index = rng.randrange(n), rng.randrange(12)
                vals = [rng.randrange(12) for _ in range(n)]
                vals[node] = index + 1
                r = self.make_record(node, index, vals, (rng.randrange(8),))
                assert t.add(r) is ((node, index) not in model)
                model.setdefault((node, index), r)
            else:
                vt = VectorClock(rng.randrange(13) for _ in range(n))
                if op < 0.8:
                    dropped = [k for k in model if k[1] < vt[k[0]]]
                    assert t.prune_covered_by(vt) == len(dropped)
                    for k in dropped:
                        del model[k]
                else:
                    expect = sorted(
                        (r for k, r in model.items() if k[1] >= vt[k[0]]),
                        key=lambda r: (r.vt.total, r.node, r.index),
                    )
                    assert t.records_not_covered_by(vt) == expect
            assert len(t) == len(model)
        assert t.nbytes == sum(r.nbytes for r in model.values())


# ----------------------------------------------------------------------
# batched notice application == the record-at-a-time reference
# ----------------------------------------------------------------------
NPAGES = 12


def causal_history(rng, n, steps):
    """Interval records of a random run: local intervals and clock joins."""
    clocks = [VectorClock.zero(n) for _ in range(n)]
    records = []
    for _ in range(steps):
        i = rng.randrange(n)
        if rng.random() < 0.5:
            index = clocks[i][i]
            clocks[i] = clocks[i].tick(i)
            pages = tuple(sorted(rng.sample(range(NPAGES), rng.randint(1, 3))))
            records.append(IntervalRecord(i, index, clocks[i], pages))
        else:
            j = rng.randrange(n)
            clocks[j] = clocks[j].merge(clocks[i])
    return clocks, records


class _Stats:
    def __init__(self):
        self.counters = {}

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n


class _FakeNode:
    """The state the three notice appliers read and write, nothing more."""

    def __init__(self, rng, me, vt, history, homeless):
        self.id = me
        self.vt = vt
        homes = [
            (me + 1) % len(vt) if homeless else rng.randrange(len(vt))
            for _ in range(NPAGES)
        ]
        self.pagetable = PageTable(me, NPAGES, homes)
        states = [PageState.INVALID, PageState.CLEAN]
        if not homeless:
            states.append(PageState.DIRTY)
        for p in range(NPAGES):
            entry = self.pagetable.entry(p)
            entry.state = rng.choice(states)
            choice = rng.random()
            if choice < 0.3:
                entry.version = None
            elif choice < 0.5:
                entry.version = vt
            else:
                entry.version = rng.choice(history).vt
        self.transitions = []
        self.pagetable.on_transition = (
            lambda page, old, new, reason: self.transitions.append((page, new))
        )
        self.table = IntervalTable()
        self.table.add_all(r for r in history if rng.random() < 0.2)
        self.stats = _Stats()
        self.pending = {}
        self.flushed = []

    def _early_diff_flush(self, pages):
        self.flushed.append(list(pages))
        yield from ()

    def observed(self):
        return (
            self.vt,
            len(self.table),
            self.table.all_records(),
            self.transitions,
            self.flushed,
            self.stats.counters,
            {p: [r.key for r in rs] for p, rs in self.pending.items()},
        )


def reference_hlrc(node, records):
    """``HlrcNode._apply_notices`` with one test-and-merge per record."""
    to_invalidate, seen = [], set()
    for r in records:
        if node.vt.covers_interval(r.node, r.index):
            continue
        node.table.add(r)
        if r.node != node.id:
            for p in r.pages:
                if p in seen:
                    continue
                entry = node.pagetable.entry(p)
                if entry.home == node.id or entry.state is PageState.INVALID:
                    continue
                if entry.version is not None and entry.version.dominates(r.vt):
                    continue
                seen.add(p)
                to_invalidate.append(p)
        node.vt = node.vt.merge(r.vt)
    dirty_hit = [
        p for p in to_invalidate
        if node.pagetable.entry(p).state is PageState.DIRTY
    ]
    if dirty_hit:
        yield from node._early_diff_flush(dirty_hit)
    for p in to_invalidate:
        node.pagetable.invalidate(p)
        node.stats.count("invalidations")


def reference_lrc(node, records):
    """``LrcNode._apply_notices`` (no dirty hits) record at a time."""
    to_invalidate = []
    for r in records:
        if node.vt.covers_interval(r.node, r.index):
            continue
        node.table.add(r)
        if r.node != node.id:
            for p in r.pages:
                entry = node.pagetable.entry(p)
                if entry.version is not None and entry.version.dominates(r.vt):
                    continue
                node.pending.setdefault(p, []).append(r)
                if entry.state is not PageState.INVALID:
                    to_invalidate.append(p)
        node.vt = node.vt.merge(r.vt)
    for p in dict.fromkeys(to_invalidate):
        if node.pagetable.entry(p).state is not PageState.INVALID:
            node.pagetable.invalidate(p)
            node.stats.count("invalidations")
    yield from ()


def reference_replay(node, records):
    """``ReplayNode._apply_notices`` record at a time."""
    for r in records:
        if node.vt.covers_interval(r.node, r.index):
            continue
        if r.node != node.id:
            for p in r.pages:
                entry = node.pagetable.entry(p)
                if entry.home == node.id or entry.state is PageState.INVALID:
                    continue
                if entry.version is not None and entry.version.dominates(r.vt):
                    continue
                node.pagetable.invalidate(p)
        node.vt = node.vt.merge(r.vt)


def _drive(gen):
    for _ in gen or ():
        pass


def notice_scenario(seed, homeless):
    """A node clock, and a causally sorted batch a peer could send it."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    clocks, history = causal_history(rng, n, rng.randint(10, 60))
    if not history:
        history = [IntervalRecord(0, 0, VectorClock.zero(n).tick(0), (0,))]
    me = rng.randrange(n)
    sender = clocks[rng.randrange(n)]
    # what the peer knows: includes records the node already covers and
    # the node's own records
    known = [r for r in history if sender.covers_interval(r.node, r.index)]
    batch = [r for r in known if rng.random() < 0.7]
    batch += [rng.choice(known) for _ in range(rng.randint(0, 3)) if known]
    batch.sort(key=lambda r: r.causal_key)
    return rng, me, clocks[me], history, batch


APPLIERS = [
    ("hlrc", HlrcNode._apply_notices, reference_hlrc, False),
    ("lrc", LrcNode._apply_notices, reference_lrc, True),
    ("replay", ReplayNode._apply_notices, reference_replay, False),
]


@pytest.mark.parametrize(
    "name,batched,reference,homeless", APPLIERS, ids=[a[0] for a in APPLIERS]
)
def test_batched_apply_notices_matches_per_record_reference(
    name, batched, reference, homeless
):
    exercised = {"dups": 0, "covered": 0, "fresh": 0, "inval": 0, "flush": 0}
    for seed in range(150):
        rng, me, vt0, history, batch = notice_scenario(seed, homeless)
        state = rng.getstate()
        got = _FakeNode(rng, me, vt0, history, homeless)
        rng.setstate(state)
        want = _FakeNode(rng, me, vt0, history, homeless)
        _drive(batched(got, list(batch)))
        _drive(reference(want, list(batch)))
        assert got.observed() == want.observed(), (name, seed)
        fresh = fresh_records(vt0, batch)
        exercised["dups"] += len(batch) - len({r.key for r in batch})
        exercised["covered"] += sum(
            vt0.covers_interval(r.node, r.index) for r in batch
        )
        exercised["fresh"] += len(fresh)
        exercised["inval"] += len(got.transitions)
        exercised["flush"] += len(got.flushed)
    # the seeds reach every branch the batching could get wrong
    for key, count in exercised.items():
        if key == "flush" and name != "hlrc":
            continue
        assert count > 0, (name, key)


def test_fresh_records_keeps_order_and_drops_covered_and_repeats():
    a = IntervalRecord(0, 0, VectorClock((1, 0)), (1,))
    b = IntervalRecord(1, 0, VectorClock((0, 1)), (2,))
    c = IntervalRecord(0, 1, VectorClock((2, 1)), (3,))
    batch = [a, b, b, c]
    assert fresh_records(VectorClock((1, 0)), batch) == [b, c]
    assert fresh_records(VectorClock.zero(2), batch) == [a, b, c]
