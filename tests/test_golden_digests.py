"""Golden digests of recorded histories: the simulator and the recorder.

Each digest is a sha256 over every column of one recorded
:class:`~repro.history.columnar.ColumnarHistory`, for a fixed workload and
seed, through both simulator drivers (``AsyncCollector`` over the coroutine
simulator, and ``run_workload``), on the four engines, healthy and under two
fault plans.  The pinned values were computed before the engine and recorder
fast paths were written, so a speed-up that changes one recorded byte —
a value, a timestamp, a row's order, a key id — fails here.

Chaos over the simulator runs on the same coroutine route and is pinned the
same way, for the two defects that never abort an attempt.  A retried
attempt waits out its backoff on an event-loop timer, and which of two
sleeping sessions wakes first depends on how long the engine calls took, so
``duplicate-commit`` (every injection is a retry) is deterministic in what
the checker concludes, not byte for byte.
"""

import hashlib

import pytest

from repro import Database, FaultPlan, MTWorkloadGenerator, run_workload
from repro.adapters import AsyncCollector, AsyncSimulatedAdapter, make_adapter
from repro.history.columnar import ColumnarHistory

ENGINES = ("si", "ser", "s2pl", "rc")
PLANS = {
    "healthy": None,
    "lost_update": FaultPlan(lost_update_rate=0.5, seed=11),
    "stale_dirty": FaultPlan(stale_read_rate=0.3, dirty_install_rate=0.5, seed=11),
}


def workload():
    return MTWorkloadGenerator(
        num_sessions=8, txns_per_session=40, num_objects=12, seed=5
    ).generate()


def columns_digest(columns: ColumnarHistory) -> str:
    digest = hashlib.sha256()
    digest.update("\x00".join(columns.key_names).encode("utf-8"))
    for column in (
        columns.txn_ids,
        columns.session_ids,
        columns.statuses,
        columns.start_ts,
        columns.finish_ts,
        columns.op_offsets,
        columns.op_kinds,
        columns.op_keys,
        columns.op_values,
        columns.op_has_value,
    ):
        digest.update(column.typecode.encode("ascii"))
        digest.update(column.tobytes())
    return digest.hexdigest()


def record(route: str, engine: str, plan: str) -> ColumnarHistory:
    spec = workload()
    if route == "async":
        adapter = AsyncSimulatedAdapter(engine, faults=PLANS[plan])
        return AsyncCollector(adapter, max_inflight=8).collect(spec).columns
    database = Database(engine, keys=spec.keys, faults=PLANS[plan])
    return ColumnarHistory.from_history(run_workload(database, spec, seed=9).history)


#: Without ``op_delay`` a coroutine session runs each attempt straight
#: through, so the async route never overlaps two transactions and the
#: engines agree; only the stale-read defect changes what it records.  The
#: runner route interleaves steps and so exercises each engine's conflicts.
GOLDEN = {
    ("async", "si", "healthy"): "7b34df25c18f6b85bf929e8a2cd9890ba0e5f165d15be510d2103a0c5c86d1d5",
    ("async", "si", "lost_update"): "7b34df25c18f6b85bf929e8a2cd9890ba0e5f165d15be510d2103a0c5c86d1d5",
    ("async", "si", "stale_dirty"): "676dc2dc7789807cc011cad90728ccd80cf4c306fcb361ffc9bf12a1687a1863",
    ("async", "ser", "healthy"): "7b34df25c18f6b85bf929e8a2cd9890ba0e5f165d15be510d2103a0c5c86d1d5",
    ("async", "ser", "lost_update"): "7b34df25c18f6b85bf929e8a2cd9890ba0e5f165d15be510d2103a0c5c86d1d5",
    ("async", "ser", "stale_dirty"): "676dc2dc7789807cc011cad90728ccd80cf4c306fcb361ffc9bf12a1687a1863",
    ("async", "s2pl", "healthy"): "7b34df25c18f6b85bf929e8a2cd9890ba0e5f165d15be510d2103a0c5c86d1d5",
    ("async", "s2pl", "lost_update"): "7b34df25c18f6b85bf929e8a2cd9890ba0e5f165d15be510d2103a0c5c86d1d5",
    ("async", "s2pl", "stale_dirty"): "676dc2dc7789807cc011cad90728ccd80cf4c306fcb361ffc9bf12a1687a1863",
    ("async", "rc", "healthy"): "7b34df25c18f6b85bf929e8a2cd9890ba0e5f165d15be510d2103a0c5c86d1d5",
    ("async", "rc", "lost_update"): "7b34df25c18f6b85bf929e8a2cd9890ba0e5f165d15be510d2103a0c5c86d1d5",
    ("async", "rc", "stale_dirty"): "676dc2dc7789807cc011cad90728ccd80cf4c306fcb361ffc9bf12a1687a1863",
    ("runner", "si", "healthy"): "5b4db76171c1920370fb4f08104fbc0ee6e9c1bf6875d99c3fb819f22f510aab",
    ("runner", "si", "lost_update"): "65502ec5b52d1b01e6da520dd1bd6d11a99c449691782ed79edb21600c77e263",
    ("runner", "si", "stale_dirty"): "f09e715ad6c2d92927c509c2e6ac1cbfb7434d3026268e2058e3727f4dd03085",
    ("runner", "ser", "healthy"): "689106cbb5aaa68326e7ecb601b1631e8d73cb2a0efffcf98d23fda082c4bd19",
    ("runner", "ser", "lost_update"): "a84bb313c4cc71f827a24d56f4bffadd71ec10dd0b7208297e3fe89faa93bde1",
    ("runner", "ser", "stale_dirty"): "d2294aaee75e8a47e55a955f4ff114abd26ed1321c6d363130faebe2f6fd3255",
    ("runner", "s2pl", "healthy"): "64b8c7d1fad0c7922e1052c9847afd6bed62276336ce48bd5c60e257dfcbe948",
    ("runner", "s2pl", "lost_update"): "64b8c7d1fad0c7922e1052c9847afd6bed62276336ce48bd5c60e257dfcbe948",
    ("runner", "s2pl", "stale_dirty"): "ec515b9fb721b993523bc588ccd4641625b794c4715f5391bc9b04ca329a95f0",
    ("runner", "rc", "healthy"): "d29c828226f485c568d845202fe3542f8f51e1c147e85add1bad052466c05715",
    ("runner", "rc", "lost_update"): "d29c828226f485c568d845202fe3542f8f51e1c147e85add1bad052466c05715",
    ("runner", "rc", "stale_dirty"): "db09c17ef1b15facabefd1662f205152a4735a4cbf905d3eaccabaac49569383",
}


CHAOS_GOLDEN = {
    "lost-write": "d3805c5706e23ffa816426191ec2fcbd1b650ab86ea53eba7bc5f40b21d64257",
    "stale-read": "979eb853ee425526cff3bb2ae1962b03265d7f81391f634a91e08bf88c86854a",
}


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("route", ("async", "runner"))
def test_recorded_columns_match_the_golden_digest(route, engine, plan):
    assert columns_digest(record(route, engine, plan)) == GOLDEN[route, engine, plan]


@pytest.mark.parametrize("fault", sorted(CHAOS_GOLDEN))
def test_chaos_on_the_simulator_matches_the_golden_digest(fault):
    adapter = make_adapter("simulated", chaos=fault, chaos_rate=0.3, seed=11)
    columns = AsyncCollector(adapter, max_inflight=8).collect(workload()).columns
    assert sum(adapter.injections.values()) > 0
    assert columns_digest(columns) == CHAOS_GOLDEN[fault]
