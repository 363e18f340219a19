"""Figure 7 — SER verification performance: MTC-SER vs Cobra on MT histories.

Four panels sweep (a) the object-access distribution, (b) the number of
objects, (c) the number of sessions, and (d) the number of transactions,
measuring pure verification time on MT histories generated by the
serializable engine.  The paper's takeaways to reproduce: MTC-SER is
consistently faster than Cobra (≈2-5x), remains stable under skew, and its
advantage grows with the number of transactions.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.baselines import CobraChecker
from repro.bench import generate_mt_history, scaled
from repro.core.checkers import check_ser

from _common import run_once


def _best_of(check: Callable[[Any], Any], history, runs: int = 3) -> Tuple[Any, float]:
    """``check(history)``'s result and its best wall time over ``runs`` timed
    calls, after a ``gc.collect()`` and one untimed warm-up call.  A single
    cold call moved with whatever ran before it: the 1.5x bound below failed
    when the figure 14 file was collected first."""
    gc.collect()
    result = check(history)
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        check(history)
        best = min(best, time.perf_counter() - started)
    return result, best


def _verify_pair(history) -> Dict[str, float]:
    """Measure MTC-SER and Cobra verification time on the same history."""
    mtc, mtc_seconds = _best_of(check_ser, history)
    cobra_result, cobra_seconds = _best_of(lambda h: CobraChecker().check(h), history)
    assert mtc.satisfied and cobra_result.satisfied, "benchmark histories must be valid"
    return {"mtc_s": mtc_seconds, "cobra_s": cobra_seconds}


def _sweep_distributions() -> List[Dict[str, object]]:
    rows = []
    for distribution in ("uniform", "zipf", "hotspot", "exp"):
        generated = generate_mt_history(
            isolation="serializable",
            num_sessions=scaled(5),
            txns_per_session=scaled(60),
            num_objects=scaled(50),
            distribution=distribution,
            seed=7,
        )
        timing = _verify_pair(generated.history)
        rows.append(
            {
                "panel": "a:distribution",
                "x": distribution,
                "mtc_ser_s": round(timing["mtc_s"], 4),
                "cobra_s": round(timing["cobra_s"], 4),
                "speedup": round(timing["cobra_s"] / max(timing["mtc_s"], 1e-9), 1),
            }
        )
    return rows


def _sweep_objects() -> List[Dict[str, object]]:
    rows = []
    for num_objects in (scaled(10), scaled(100), scaled(1000)):
        generated = generate_mt_history(
            isolation="serializable",
            num_sessions=scaled(5),
            txns_per_session=scaled(60),
            num_objects=num_objects,
            distribution="uniform",
            seed=11,
        )
        timing = _verify_pair(generated.history)
        rows.append(
            {
                "panel": "b:#objects",
                "x": num_objects,
                "mtc_ser_s": round(timing["mtc_s"], 4),
                "cobra_s": round(timing["cobra_s"], 4),
                "speedup": round(timing["cobra_s"] / max(timing["mtc_s"], 1e-9), 1),
            }
        )
    return rows


def _sweep_sessions() -> List[Dict[str, object]]:
    rows = []
    for num_sessions in (scaled(5), scaled(10), scaled(20)):
        generated = generate_mt_history(
            isolation="serializable",
            num_sessions=num_sessions,
            txns_per_session=scaled(30),
            num_objects=scaled(100),
            distribution="uniform",
            seed=13,
        )
        timing = _verify_pair(generated.history)
        rows.append(
            {
                "panel": "c:#sessions",
                "x": num_sessions,
                "mtc_ser_s": round(timing["mtc_s"], 4),
                "cobra_s": round(timing["cobra_s"], 4),
                "speedup": round(timing["cobra_s"] / max(timing["mtc_s"], 1e-9), 1),
            }
        )
    return rows


def _sweep_txns() -> List[Dict[str, object]]:
    rows = []
    for total_txns in (scaled(100), scaled(300), scaled(600)):
        generated = generate_mt_history(
            isolation="serializable",
            num_sessions=scaled(5),
            txns_per_session=max(1, total_txns // scaled(5)),
            num_objects=scaled(100),
            distribution="uniform",
            seed=17,
        )
        timing = _verify_pair(generated.history)
        rows.append(
            {
                "panel": "d:#txns",
                "x": total_txns,
                "mtc_ser_s": round(timing["mtc_s"], 4),
                "cobra_s": round(timing["cobra_s"], 4),
                "speedup": round(timing["cobra_s"] / max(timing["mtc_s"], 1e-9), 1),
            }
        )
    return rows


@pytest.mark.benchmark(group="fig07-ser-verification")
def test_fig07a_distributions(benchmark):
    rows = run_once(benchmark, _sweep_distributions, "Figure 7a — SER verification vs distribution")
    assert all(row["mtc_ser_s"] <= row["cobra_s"] * 1.5 for row in rows)


@pytest.mark.benchmark(group="fig07-ser-verification")
def test_fig07b_objects(benchmark):
    run_once(benchmark, _sweep_objects, "Figure 7b — SER verification vs #objects")


@pytest.mark.benchmark(group="fig07-ser-verification")
def test_fig07c_sessions(benchmark):
    run_once(benchmark, _sweep_sessions, "Figure 7c — SER verification vs #sessions")


@pytest.mark.benchmark(group="fig07-ser-verification")
def test_fig07d_txns(benchmark):
    rows = run_once(benchmark, _sweep_txns, "Figure 7d — SER verification vs #txns")
    # MTC's advantage should not shrink as the history grows.
    assert rows[-1]["cobra_s"] >= rows[-1]["mtc_ser_s"]


@pytest.mark.benchmark(group="fig07-ser-verification")
def test_fig07_mtc_ser_single_history(benchmark):
    """Raw MTC-SER verification latency on a representative MT history."""
    generated = generate_mt_history(
        isolation="serializable",
        num_sessions=scaled(5),
        txns_per_session=scaled(60),
        num_objects=scaled(50),
        distribution="zipf",
        seed=23,
    )
    result = benchmark(check_ser, generated.history)
    assert result.satisfied


if __name__ == "__main__":
    from repro.bench import print_table

    for sweep in (_sweep_distributions, _sweep_objects, _sweep_sessions, _sweep_txns):
        print_table(sweep(), sweep.__name__)
