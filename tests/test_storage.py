"""Tests for the storage substrate: logical clock, MVCC store, lock manager."""

import random

import pytest

from repro import Database, MTWorkloadGenerator, run_workload
from repro.storage import (
    LockConflict,
    LockManager,
    LogicalClock,
    SkewedClock,
    Version,
    VersionedStore,
)


class TestLogicalClock:
    def test_monotonic_ticks(self):
        clock = LogicalClock()
        values = [clock.tick() for _ in range(5)]
        assert values == sorted(values)
        assert clock.now() == values[-1]

    def test_custom_step_and_amount(self):
        clock = LogicalClock(start=10.0, step=2.0)
        assert clock.tick() == 12.0
        assert clock.tick(0.5) == 12.5

    def test_now_does_not_advance(self):
        clock = LogicalClock()
        assert clock.now() == clock.now()

    def test_skewed_clock_offsets_per_session(self):
        base = LogicalClock()
        skewed = SkewedClock(base, {1: 5.0})
        skewed.set_skew(2, -1.0)
        base.tick()
        assert skewed.now(1) == pytest.approx(6.0)
        assert skewed.now(2) == pytest.approx(0.0)
        assert skewed.now(0) == pytest.approx(1.0)

    def test_skewed_clock_tick_advances_base(self):
        base = LogicalClock()
        skewed = SkewedClock(base)
        assert skewed.tick(0) == pytest.approx(1.0)
        assert base.now() == pytest.approx(1.0)


class TestVersionedStore:
    def test_load_initial_and_latest(self):
        store = VersionedStore()
        store.load_initial(["x", "y"], value=0)
        assert store.latest("x") == Version(0, 0.0, -1) == (0, 0.0, -1)
        assert store.exists("y")
        assert not store.exists("z")
        assert store.keys() == ["x", "y"]

    def test_install_and_read_at_snapshot(self):
        store = VersionedStore()
        store.load_initial(["x"])
        store.install("x", 10, commit_ts=5.0, txn_id=1)
        store.install("x", 20, commit_ts=9.0, txn_id=2)
        assert store.read_at("x", 4.0).value == 0
        assert store.read_at("x", 5.0).value == 10
        assert store.read_at("x", 100.0).value == 20
        assert store.latest("x").value == 20

    def test_read_at_before_any_version(self):
        store = VersionedStore()
        store.install("x", 10, commit_ts=5.0, txn_id=1)
        assert store.read_at("x", 1.0) is None
        assert store.read_at("missing", 1.0) is None

    def test_versions_sorted_even_with_out_of_order_install(self):
        store = VersionedStore()
        store.install("x", 2, commit_ts=2.0, txn_id=2)
        store.install("x", 1, commit_ts=1.0, txn_id=1)
        assert [v.value for v in store.versions("x")] == [1, 2]

    def test_last_writer_after(self):
        store = VersionedStore()
        store.load_initial(["x"])
        store.install("x", 10, commit_ts=5.0, txn_id=1)
        assert store.last_writer_after("x", 0.0).value == 10
        assert store.last_writer_after("x", 5.0) is None
        assert store.last_writer_after("missing", 0.0) is None

    def test_reads_match_a_scan_of_the_versions(self):
        rng = random.Random(7)
        store = VersionedStore()
        installed = {key: [] for key in "xyz"}
        for txn_id in range(300):
            key = rng.choice("xyz")
            last = max((v.commit_ts for v in installed[key]), default=0.0)
            if rng.random() < 0.5:
                # In order: the append path, ties with the last stamp included.
                stamp = min(last + rng.choice((0.0, 0.5, 1.0)), 60.0)
            else:
                stamp = float(rng.randint(1, 60))  # out of order, with ties
            store.install(key, txn_id, commit_ts=stamp, txn_id=txn_id)
            installed[key].append(Version(txn_id, stamp, txn_id))
            if txn_id == 150:
                store.load_initial("xy", value=-1)
                for key in "xy":
                    installed[key].insert(0, Version(-1, 0.0, -1))
        for key, versions in installed.items():
            # Stable sort: equal stamps keep install order (bisect_right).
            expected = sorted(versions, key=lambda v: v.commit_ts)
            assert store.versions(key) == expected
            for probe in [t / 2 for t in range(-1, 124)]:
                before = [v for v in expected if v.commit_ts <= probe]
                after = [v for v in expected if v.commit_ts > probe]
                assert store.read_at(key, probe) == (before[-1] if before else None)
                assert store.last_writer_after(key, probe) == (after[0] if after else None)

    def test_len_counts_objects(self):
        store = VersionedStore()
        store.load_initial(["a", "b", "c"])
        assert len(store) == 3


class TestLockManager:
    def test_shared_locks_are_compatible(self):
        locks = LockManager()
        locks.acquire_shared("x", 1)
        locks.acquire_shared("x", 2)
        assert locks.locks_held(1) == 1
        assert locks.locks_held(2) == 1

    def test_exclusive_conflicts_with_shared(self):
        locks = LockManager()
        locks.acquire_shared("x", 1)
        with pytest.raises(LockConflict):
            locks.acquire_exclusive("x", 2)

    def test_exclusive_conflicts_with_exclusive(self):
        locks = LockManager()
        locks.acquire_exclusive("x", 1)
        with pytest.raises(LockConflict):
            locks.acquire_exclusive("x", 2)
        with pytest.raises(LockConflict):
            locks.acquire_shared("x", 2)

    def test_upgrade_own_shared_to_exclusive(self):
        locks = LockManager()
        locks.acquire_shared("x", 1)
        locks.acquire_exclusive("x", 1)
        assert locks.holds_exclusive("x", 1)

    def test_upgrade_blocked_by_other_reader(self):
        locks = LockManager()
        locks.acquire_shared("x", 1)
        locks.acquire_shared("x", 2)
        with pytest.raises(LockConflict):
            locks.acquire_exclusive("x", 1)

    def test_release_all_frees_everything(self):
        locks = LockManager()
        locks.acquire_exclusive("x", 1)
        locks.acquire_shared("y", 1)
        locks.release_all(1, ["x", "y"])
        assert locks.locks_held(1) == 0
        locks.acquire_exclusive("x", 2)  # no conflict anymore

    def test_release_touches_only_the_transactions_keys(self):
        class OnlyLookups(dict):
            """A lock table that records lookups and refuses to be walked."""

            def __init__(self, table):
                super().__init__(table)
                self.looked_up = set()

            def get(self, key, default=None):
                self.looked_up.add(key)
                return super().get(key, default)

            def __iter__(self):
                raise AssertionError("release walked the whole lock table")

            values = items = keys = __iter__

        locks = LockManager()
        for n in range(500):
            locks.acquire_shared(f"k{n}", 2)
        locks.acquire_shared("k7", 1)
        locks.acquire_shared("a", 1)
        locks.acquire_exclusive("b", 1)
        locks._shared = OnlyLookups(locks._shared)
        locks._exclusive = OnlyLookups(locks._exclusive)
        locks.release_all(1, {"k7", "a", "b"})
        assert locks._shared.looked_up == {"k7", "a", "b"}
        assert locks._exclusive.looked_up == {"k7", "a", "b"}
        # "a" had no other reader: its emptied set is dropped, not kept.
        assert "a" not in locks._shared and "b" not in locks._exclusive
        assert dict.__getitem__(locks._shared, "k7") == {2}
        assert all(dict.values(locks._shared))

    def test_a_finished_s2pl_run_leaves_an_empty_lock_table(self):
        workload = MTWorkloadGenerator(
            num_sessions=6, txns_per_session=30, num_objects=40, seed=2
        ).generate()
        database = Database("s2pl", keys=workload.keys)
        stats = run_workload(database, workload, seed=4).stats
        assert stats.committed and stats.aborted  # locks were taken and lost
        assert dict(database.locks._shared) == {}
        assert database.locks._exclusive == {}

    def test_reacquiring_own_exclusive_is_idempotent(self):
        locks = LockManager()
        locks.acquire_exclusive("x", 1)
        locks.acquire_exclusive("x", 1)
        assert locks.holds_exclusive("x", 1)

    def test_conflict_reports_holder(self):
        locks = LockManager()
        locks.acquire_exclusive("x", 7)
        with pytest.raises(LockConflict) as excinfo:
            locks.acquire_shared("x", 8)
        assert excinfo.value.holder == 7
        assert excinfo.value.key == "x"
