"""Ablation — the early DIVERGENCE exit in CHECKSI.

CHECKSI rejects a history as soon as the DIVERGENCE pattern is found (line 2
of the algorithm), before building the dependency graph.  This ablation
times that scan (:func:`repro.core.divergence.find_divergence`) against the
graph pass it saves (``CSRGraph.from_index`` + ``si_induced`` +
``has_cycle``) on one shared index, on valid histories (where the scan finds
nothing and the graph is built anyway) and buggy ones (where it
short-circuits).  The scan is no shortcut alone: by Lemma 1 every instance
it finds violates SI, even where the induced graph is acyclic, so the
checker runs it unconditionally.
"""

from __future__ import annotations

import time
from typing import Dict, List

import pytest

from repro.bench import generate_mt_history, scaled
from repro.core.checkers import check_si
from repro.core.csr import CSRGraph
from repro.core.divergence import find_divergence
from repro.core.index import HistoryIndex
from repro.db import FaultPlan

from _common import run_once


def _compare(history) -> Dict[str, object]:
    index = HistoryIndex.build(history)
    index.int_violations()  # the pre-pass both sides follow, out of the timings

    started = time.perf_counter()
    divergence = find_divergence(None, index=index)
    scan_seconds = time.perf_counter() - started

    started = time.perf_counter()
    cycle = CSRGraph.from_index(index).si_induced().has_cycle()
    graph_seconds = time.perf_counter() - started

    if divergence is not None:  # Lemma 1
        assert not check_si(history, index=index).satisfied
    return {
        "divergence": divergence is not None,
        "induced_cycle": cycle is not None,
        "early_exit_s": round(scan_seconds, 4),
        "no_early_exit_s": round(graph_seconds, 4),
        "saving": round(graph_seconds / max(scan_seconds, 1e-9), 2),
    }


def _sweep() -> List[Dict[str, object]]:
    rows = []
    for label, faults in (
        ("valid", None),
        ("buggy-lostupdate", FaultPlan(lost_update_rate=0.5, seed=7)),
    ):
        generated = generate_mt_history(
            isolation="si",
            num_sessions=scaled(6),
            txns_per_session=scaled(80),
            num_objects=scaled(20),
            distribution="zipf",
            faults=faults,
            seed=9,
        )
        rows.append({"history": label, **_compare(generated.history)})
    return rows


@pytest.mark.benchmark(group="ablation-divergence")
def test_ablation_divergence_early_exit(benchmark):
    rows = run_once(benchmark, _sweep, "Ablation — early DIVERGENCE exit in CHECKSI")
    buggy = [row for row in rows if row["history"] == "buggy-lostupdate"]
    assert all(row["divergence"] for row in buggy)
    # On buggy histories the early exit must not be slower than the full pass.
    assert all(row["early_exit_s"] <= row["no_early_exit_s"] * 1.5 for row in buggy)


if __name__ == "__main__":
    from repro.bench import print_table

    print_table(_sweep(), "Ablation: DIVERGENCE early exit")
