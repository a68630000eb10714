"""Tests for repro.machines.sweep: the shared sweep scanner."""

import threading
import time
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm import RangeSet
from repro.machines.sweep import SweepScanner, SweepStats, SweepSubscription
from repro.storage import ContainerStore


@pytest.fixture()
def store(photo):
    """A fresh store (own pool, own sweeper) over the shared catalog."""
    return ContainerStore.from_table(photo, depth=2)


def _drain(subscription, out):
    for htm_id, table, from_pool in subscription:
        out.append((htm_id, len(table), from_pool))


class TestSingleSubscriber:
    def test_sees_every_container_exactly_once_in_sorted_order(self, store):
        subscription = store.sweeper().subscribe()
        delivered = [htm_id for htm_id, _t, _p in subscription]
        assert delivered == store.occupied_ids()
        assert subscription.completed()
        assert subscription.delivered == len(store.containers)
        assert subscription.skipped == 0

    def test_sequential_subscribers_get_identical_order(self, store):
        first = [h for h, _t, _p in store.sweeper().subscribe()]
        second = [h for h, _t, _p in store.sweeper().subscribe()]
        assert first == second == store.occupied_ids()

    def test_second_pass_served_from_pool(self, store):
        list(store.sweeper().subscribe())
        subscription = store.sweeper().subscribe()
        flags = [from_pool for _h, _t, from_pool in subscription]
        assert all(flags)
        assert subscription.physical_reads() == 0
        assert store.buffer_pool.stats.misses == len(store.containers)

    def test_empty_store_completes_immediately(self, photo):
        empty = ContainerStore(photo.schema, 2)
        subscription = empty.sweeper().subscribe()
        assert subscription.done
        assert list(subscription) == []


class TestPrunedSubscriber:
    def test_candidates_restrict_deliveries_without_breaking_completion(
        self, store
    ):
        ids = store.occupied_ids()
        keep = RangeSet.from_ids(ids[: len(ids) // 3])
        subscription = store.sweeper().subscribe(candidates=keep)
        delivered = [h for h, _t, _p in subscription]
        assert delivered == ids[: len(ids) // 3]
        assert subscription.completed()
        assert subscription.skipped == len(ids) - len(delivered)
        assert subscription.seen == len(ids)

    def test_unwanted_containers_are_never_read(self, store):
        ids = store.occupied_ids()
        keep = RangeSet.from_ids(ids[:2])
        scanner = store.sweeper()
        list(scanner.subscribe(candidates=keep))
        # A lone pruned subscriber must not cause physical reads outside
        # its candidate set (the old per-query pruning perf).
        assert store.buffer_pool.stats.misses == 2
        assert scanner.stats.containers_skipped == len(ids) - 2


class TestSharedSweep:
    def test_concurrent_subscribers_share_physical_reads(self, store):
        scanner = store.sweeper()
        scanner.throttle = 0.002  # slow the sweep so both genuinely overlap
        n = len(store.containers)
        first = scanner.subscribe()
        second = scanner.subscribe()
        out_first, out_second = [], []
        threads = [
            threading.Thread(target=_drain, args=(first, out_first)),
            threading.Thread(target=_drain, args=(second, out_second)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        scanner.throttle = 0.0
        # Each query saw every container exactly once...
        assert sorted(h for h, _r, _p in out_first) == store.occupied_ids()
        assert sorted(h for h, _r, _p in out_second) == store.occupied_ids()
        # ...but the store was physically read once, not twice.
        assert store.buffer_pool.stats.misses == n
        assert scanner.stats.deliveries == 2 * n
        assert scanner.stats.sharing_factor() > 1.0

    def test_midsweep_join_starts_at_current_position_and_wraps(self, store):
        scanner = store.sweeper()
        scanner.throttle = 0.002
        n = len(store.containers)
        first = scanner.subscribe()
        collected = []
        drainer = threading.Thread(target=_drain, args=(first, collected))
        drainer.start()
        deadline = time.time() + 10
        while first.seen < 3 and time.time() < deadline:
            time.sleep(0.002)
        late = scanner.subscribe()
        assert late.start_position > 0, "joined mid-sweep"
        seen_by_late = [h for h, _t, _p in late]
        drainer.join(timeout=30)
        scanner.throttle = 0.0
        # Wrap-around completion: every container exactly once, starting
        # at the join position.
        assert sorted(seen_by_late) == store.occupied_ids()
        assert len(seen_by_late) == n
        order = store.occupied_ids()
        expected = order[late.start_position:] + order[: late.start_position]
        assert seen_by_late == expected

    def test_cancelled_subscriber_is_dropped(self, store):
        scanner = store.sweeper()
        scanner.throttle = 0.002
        subscription = scanner.subscribe()
        iterator = iter(subscription)
        next(iterator)
        subscription.cancel()
        deadline = time.time() + 10
        while scanner.active_subscriptions() and time.time() < deadline:
            time.sleep(0.005)
        scanner.throttle = 0.0
        assert scanner.active_subscriptions() == 0


class TestRobustness:
    def test_sweep_failure_surfaces_to_consumers_instead_of_hanging(self, store):
        from repro.query.errors import ExecutionError

        scanner = store.sweeper()

        class Poisoned:
            def contains(self, _htm_id):
                raise RuntimeError("boom")

        subscription = scanner.subscribe(candidates=Poisoned())
        with pytest.raises(ExecutionError, match="boom"):
            list(subscription)
        # The sweep recovered: later subscribers are served normally.
        healthy = [h for h, _t, _p in scanner.subscribe()]
        assert healthy == store.occupied_ids()

    def test_containers_added_under_active_sweep_reach_new_subscribers(
        self, photo
    ):
        # Depth 4 leaves unoccupied trixels to grow into.
        store = ContainerStore.from_table(photo, depth=4)
        scanner = store.sweeper()
        scanner.throttle = 0.002  # keep the first subscription mid-lap
        first = scanner.subscribe()
        out = []
        drainer = threading.Thread(target=_drain, args=(first, out))
        drainer.start()
        deadline = time.time() + 10
        while first.seen < 2 and time.time() < deadline:
            time.sleep(0.002)
        # Grow the store while the sweep is active (never idle).
        new_id = next(
            htm_id
            for htm_id in range(store._lo, store._hi)
            if htm_id not in store.containers
        )
        store.get_or_create(new_id).append(photo.take(np.arange(5)))
        store.note_mutation([new_id])
        late = scanner.subscribe()
        seen_by_late = {h for h, _t, _p in late}
        drainer.join(timeout=30)
        scanner.throttle = 0.0
        assert new_id in seen_by_late
        assert len(seen_by_late) == len(store.containers)


class TestManualMode:
    def test_attach_and_step_drive_a_synchronous_sink(self, store):
        scanner = SweepScanner(store)
        got = []
        subscription = scanner.attach(
            sink=lambda htm_id, table, from_pool: got.append(htm_id)
        )
        steps = 0
        while not subscription.done:
            report = scanner.step()
            assert report is not None
            steps += 1
        assert got == store.occupied_ids()
        assert steps == len(store.containers)
        assert scanner.step() is None  # idle sweep has nothing to do

    def test_sink_false_means_cancel(self, store):
        scanner = SweepScanner(store)
        subscription = scanner.attach(sink=lambda *_args: False)
        scanner.step()
        assert subscription.done
        assert scanner.active_subscriptions() == 0

    def test_a_join_sees_one_container_added_and_another_removed(self, photo):
        """Regression: the sweep noticed a changed store by its container
        count, so an add and a remove between two joins went unseen and
        the later subscriber never got the new container."""
        store = _depth3_store(photo)
        ids = store.occupied_ids()
        added = next(i for i in range(ids[0], ids[-1]) if i not in store.containers)
        scanner = SweepScanner(store)
        scanner.attach(sink=lambda *_run: True)
        scanner.step()  # the sweep is active, mid-lap
        store.get_or_create(added).append(photo.take(np.arange(3)))
        store.note_mutation([added])
        del store.containers[ids[-1]]
        store.note_mutation([ids[-1]])
        got = []
        scanner.attach(sink=lambda htm_id, _t, _p: got.append(htm_id))
        while scanner.step() is not None:
            pass
        assert got.count(added) == 1
        assert sorted(got) == store.occupied_ids()


class TestThrottleRace:
    """The throttle knob is read and written under the sweep's condition
    variable: a mid-sweep change must take effect on the very next step
    (no stale sleep), and a zero-throttle sweep with nothing deliverable
    must block on the condition instead of busy-spinning."""

    def test_throttle_roundtrips_through_the_lock(self, store):
        scanner = store.sweeper()
        assert scanner.throttle == 0.0
        scanner.throttle = 0.25
        assert scanner.throttle == 0.25
        scanner.throttle = 0
        assert scanner.throttle == 0.0

    def test_midsweep_throttle_drop_takes_effect_immediately(self, store):
        """Start heavily throttled (the whole store would take >20s),
        drop the throttle mid-sweep, and require completion in a small
        fraction of that — only possible if the live thread wakes out of
        its pacing wait instead of serving the sweep at the stale rate."""
        scanner = store.sweeper()
        scanner.throttle = 0.25  # len(store.containers) * 0.25s >> 20s
        subscription = scanner.subscribe()
        collected = []
        drainer = threading.Thread(target=_drain, args=(subscription, collected))
        started = time.monotonic()
        drainer.start()
        try:
            deadline = started + 10
            while subscription.seen < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert subscription.seen >= 2, "sweep never started"
            scanner.throttle = 0.0
            drainer.join(timeout=20)
            assert not drainer.is_alive(), (
                "sweep still pacing at the stale throttle after the change"
            )
            elapsed = time.monotonic() - started
            assert elapsed < 20
            assert sorted(h for h, _r, _p in collected) == store.occupied_ids()
        finally:
            subscription.cancel()
            scanner.throttle = 0.0
            drainer.join(timeout=5)

    def test_midsweep_throttle_raise_slows_the_sweep(self, store):
        """The converse race: raising the throttle mid-sweep must pace
        *remaining* deliveries (the change is picked up under the lock
        each iteration, not latched at subscribe time)."""
        scanner = store.sweeper()
        scanner.throttle = 0.001
        subscription = scanner.subscribe()
        iterator = iter(subscription)
        next(iterator)
        scanner.throttle = 0.05
        paced_started = time.monotonic()
        for _ in range(4):
            next(iterator)
        paced = time.monotonic() - paced_started
        subscription.cancel()
        scanner.throttle = 0.0
        # 4 deliveries at 0.05s/container cannot beat ~3 waits; generous
        # lower bound to stay robust on loaded CI boxes.
        assert paced > 0.05, f"throttle raise ignored mid-sweep ({paced:.3f}s)"

    def test_idle_wait_is_condition_based_not_spinning(self, store):
        """A live sweep whose subscribers all cancelled parks in a
        bounded condition wait; a new subscriber must still be served
        promptly (the subscribe notifies the waiting thread awake)."""
        scanner = store.sweeper()
        scanner.throttle = 0.001
        first = scanner.subscribe()
        iterator = iter(first)
        next(iterator)
        first.cancel()
        deadline = time.time() + 10
        while scanner.active_subscriptions() and time.time() < deadline:
            time.sleep(0.005)
        assert scanner.active_subscriptions() == 0
        scanner.throttle = 0.0
        healthy = [h for h, _t, _p in scanner.subscribe()]
        assert healthy == store.occupied_ids()


def _revolve(scanner, subscription, stride):
    """``bench/probes.py::_revolution``'s loop shape, counting the
    steps; a ``None`` step under a live subscription would spin that
    loop forever, so it fails here instead."""
    steps = 0
    while not subscription.done:
        assert scanner.step(stride) is not None
        steps += 1
    return steps


class TestJumpCost:
    """A pruned lap costs O(candidate intervals) steps and ``wants``
    calls, not O(containers): counts, so they do not depend on the box."""

    @pytest.fixture(scope="class")
    def deep_store(self, photo):
        return ContainerStore.from_table(photo, depth=6)

    @pytest.fixture()
    def wants_calls(self, monkeypatch):
        calls = []
        wants = SweepSubscription.wants
        monkeypatch.setattr(
            SweepSubscription,
            "wants",
            lambda self, htm_id: calls.append(htm_id) or wants(self, htm_id),
        )
        return calls

    @pytest.mark.parametrize("k", [1, 8])
    def test_a_lap_costs_its_intervals_not_its_containers(
        self, deep_store, wants_calls, k
    ):
        ids = deep_store.occupied_ids()
        # k well-separated intervals of three occupied ids each, the
        # first and the last touching the ends of the lap.
        firsts = np.linspace(0, len(ids) - 3, k).astype(int)
        keep = RangeSet([(ids[i], ids[i + 2]) for i in firsts])
        assert len(keep) == k
        scanner = SweepScanner(deep_store)
        got = []
        subscription = scanner.attach(
            candidates=keep, sink=lambda htm_id, _t, _p: got.append(htm_id)
        )
        steps = _revolve(scanner, subscription, scanner.stride)
        assert got == [i for i in ids if keep.contains(i)]
        assert subscription.delivered + subscription.skipped == subscription.total
        assert subscription.total == len(ids) > 100 * scanner.stride
        assert steps <= 2 * k + 2
        assert len(wants_calls) <= scanner.stride * (k + 1)

    def test_an_empty_candidate_set_is_one_step(self, deep_store, wants_calls):
        scanner = SweepScanner(deep_store)
        subscription = scanner.attach(candidates=RangeSet(), sink=lambda *_run: True)
        assert _revolve(scanner, subscription, scanner.stride) == 1
        assert subscription.skipped == subscription.total == len(deep_store.containers)
        assert subscription.delivered == 0
        assert scanner.stats.containers_skipped == len(deep_store.containers)
        assert len(wants_calls) == 1

    def test_a_whole_catalog_subscriber_still_walks(self, deep_store):
        scanner = SweepScanner(deep_store)
        subscription = scanner.attach(sink=lambda *_run: True)
        n = len(deep_store.containers)
        assert _revolve(scanner, subscription, scanner.stride) == -(-n // scanner.stride)
        assert subscription.delivered == n and subscription.skipped == 0


class _ModelSub:
    def __init__(self, candidates):
        #: every id it wants, spelled out (``None``: all of them)
        self.wanted = None if candidates is None else set(candidates.iter_ids())
        self.delivered = []
        self.seen = self.skipped = self.total = self.start_position = 0
        self.done = False


class _ModelSweep:
    """The reference the jump is checked against: a sweep that visits
    every lap position, one id at a time, and asks every subscriber."""

    def __init__(self, store):
        self.store = store
        self.order, self.position, self.active = [], 0, []
        self.resident = set()
        self.stats = SweepStats()

    def attach(self, sub):
        if not self.active:
            self.order, self.position = self.store.occupied_ids(), 0
        else:
            self.order += [
                i for i in self.store.occupied_ids() if i not in self.order
            ]
        sub.total, sub.start_position = len(self.order), self.position
        sub.done = sub.total == 0
        if not sub.done:
            self.active.append(sub)

    def walk_to(self, laps, position):
        """One container at a time until the sweep stands where the real
        one was observed (or, with ``None``, until nobody is left)."""
        while self.active and (self.stats.laps, self.position) != (laps, position):
            htm_id = self.order[self.position]
            container = self.store.containers.get(htm_id)
            wanting = [
                s
                for s in self.active
                if container is not None
                and (s.wanted is None or htm_id in s.wanted)
            ]
            if wanting:
                self.stats.containers_swept += 1
                if htm_id in self.resident:
                    self.stats.containers_from_pool += 1
                else:
                    self.stats.containers_read += 1
                self.resident.add(htm_id)
                self.stats.bytes_swept += container.nbytes()
                self.stats.deliveries += len(wanting)
            else:
                self.stats.containers_skipped += 1
            for sub in self.active:
                sub.seen += 1
                if sub in wanting:
                    sub.delivered.append(htm_id)
                else:
                    sub.skipped += 1
                sub.done = sub.seen >= sub.total
            self.position += 1
            if self.position == len(self.order):
                self.position = 0
                self.stats.laps += 1
            self.active = [s for s in self.active if not s.done]
            if not self.active:
                self.order, self.position = [], 0


#: the depth-3 id space, a little past both ends
_DEPTH3 = st.integers(min_value=8 * 4**3 - 2, max_value=16 * 4**3 + 1)


@st.composite
def _candidate_sets(draw, occupied, hot):
    """``None``, the empty set, one occupied id, or many short ranges
    (naming unoccupied ids too) plus some of the ``hot`` ids: both ends
    of the lap, the container added mid-lap and the one removed."""
    kind = draw(st.sampled_from(["none", "empty", "single", "ranges"]))
    if kind == "none":
        return None
    if kind == "empty":
        return RangeSet()
    if kind == "single":
        return RangeSet.from_ids([draw(st.sampled_from(occupied))])
    ranges = draw(st.lists(st.tuples(_DEPTH3, st.integers(0, 5)), max_size=12))
    named = draw(st.lists(st.sampled_from(hot), unique=True))
    return RangeSet(
        [(lo, lo + length) for lo, length in ranges] + [(i, i) for i in named]
    )


def _depth3_store(photo):
    return ContainerStore.from_table(photo.take(np.arange(80)), depth=3)


def _check_against_model(
    photo, candidates, stride, targets, added, removed, gaps=(0, 1)
):
    """Run one script on a real scanner (manual mode) and on the model.

    The script is one skeleton with drawn parts: the first subscriber
    joins an idle sweep; the sweep is driven to ``targets[0]``; the
    second subscriber joins; on to ``targets[1]``; the third joins; then
    everyone finishes.  A target past the last position drives through
    the wrap.  Container ``added`` appears (so later subscribers walk an
    unsorted tail) before the join ``gaps[0]`` names (0: the second,
    1: the third), and container ``removed`` goes before the one
    ``gaps[1]`` names — both before the same join leaves the store's
    container count as it was.  The model joins its subscribers where
    the real ones were seen to join, since where a step ends depends on
    the jump.
    """
    store = _depth3_store(photo)
    scanner, model = SweepScanner(store), _ModelSweep(store)
    real, expected = [], []

    def join(wanted):
        got = []
        subscription = scanner.attach(
            candidates=wanted, sink=lambda htm_id, _t, _p: got.append(htm_id)
        )
        real.append((subscription, got))
        expected.append(_ModelSub(wanted))
        model.attach(expected[-1])

    def advance(target):
        while scanner.position() < target:
            step = scanner.step(stride)
            if step is None or step.wrapped:
                break
        model.walk_to(scanner.stats.laps, scanner.position())
        assert (model.stats.laps, model.position) == (
            scanner.stats.laps,
            scanner.position(),
        )

    def mutate(gap):
        # Announced as every mutating path does: the generation moves.
        if gaps[0] == gap:
            store.get_or_create(added).append(photo.take(np.arange(3)))
            store.note_mutation([added])
        if gaps[1] == gap:
            del store.containers[removed]
            store.note_mutation([removed])

    join(candidates[0])
    advance(targets[0])
    mutate(0)
    if len(candidates) > 1:
        join(candidates[1])
    advance(targets[1])
    mutate(1)
    if len(candidates) > 2:
        join(candidates[2])
    while scanner.step(stride) is not None:
        pass
    model.walk_to(None, None)

    for (subscription, got), want in zip(real, expected):
        assert got == want.delivered
        assert subscription.delivered == len(want.delivered)
        for field in ("seen", "skipped", "total", "start_position", "done"):
            assert getattr(subscription, field) == getattr(want, field), field
    assert asdict(scanner.stats) == asdict(model.stats)


class TestJumpAgainstModel:
    @pytest.fixture(scope="class")
    def ids(self, photo):
        return _depth3_store(photo).occupied_ids()

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_every_count_equals_the_id_by_id_walk(self, photo, ids, data):
        unoccupied = sorted(set(range(8 * 4**3, 16 * 4**3)) - set(ids))
        added = data.draw(st.sampled_from(unoccupied), label="added")
        removed = data.draw(st.sampled_from(ids), label="removed")
        hot = [ids[0], ids[-1], added, removed]
        _check_against_model(
            photo,
            candidates=data.draw(
                st.lists(_candidate_sets(ids, hot), min_size=1, max_size=3),
                label="candidates",
            ),
            stride=data.draw(st.sampled_from([1, 3, 32]), label="stride"),
            targets=data.draw(
                st.tuples(*[st.integers(0, len(ids) + 1)] * 2), label="targets"
            ),
            added=added,
            removed=removed,
            gaps=data.draw(st.tuples(*[st.integers(0, 1)] * 2), label="gaps"),
        )

    @pytest.mark.parametrize("stride", [1, 32])
    def test_a_jump_stops_where_the_unsorted_tail_begins(self, photo, ids, stride):
        # The third subscriber joins the second lap at the top, wanting
        # only the container the store grew by; once the second is done
        # it sweeps alone and must not bisect its way past the tail.
        added = next(i for i in range(ids[0], ids[-1]) if i not in ids)
        _check_against_model(
            photo,
            candidates=[None, RangeSet.from_ids(ids[:2]), RangeSet.from_ids([added])],
            stride=stride,
            targets=(len(ids) // 2, len(ids) + 1),
            added=added,
            removed=ids[-1],
        )


class TestJumpLive:
    def test_a_cone_joining_a_throttled_full_scan(self, store):
        scanner = store.sweeper()
        scanner.throttle = 0.002
        ids = store.occupied_ids()
        full = scanner.subscribe()
        seen_by_full = []
        drainer = threading.Thread(target=_drain, args=(full, seen_by_full))
        drainer.start()
        deadline = time.time() + 10
        while full.seen < 3 and time.time() < deadline:
            time.sleep(0.002)
        # Behind the join point (reached after the wrap) and ahead of it.
        keep = RangeSet.from_ids([ids[0], ids[1], ids[-1]])
        cone = scanner.subscribe(candidates=keep)
        assert 0 < cone.start_position < len(ids) - 1, "joined mid-lap"
        seen_by_cone = [h for h, _t, _p in cone]
        drainer.join(timeout=30)
        scanner.throttle = 0.0
        assert seen_by_cone == [ids[-1], ids[0], ids[1]]
        assert cone.completed() and cone.seen == cone.total == len(ids)
        assert cone.skipped == len(ids) - 3
        assert [h for h, _r, _p in seen_by_full] == ids
