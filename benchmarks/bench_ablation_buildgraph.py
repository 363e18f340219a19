"""Ablation — BUILDDEPENDENCY with vs. without the WW transitive closure.

Section IV-C proves that the per-object transitive closure of the WW edges
(lines 12-13 of Algorithm 1) can be omitted without changing any verdict
(Theorems 1 and 2).  The checkers build the optimized graph only; this
ablation times the reference builder (:func:`repro.core.graph.build_dependency`)
with and without the closure and asserts that the SER graph and the SI
induced graph are acyclic in both or in neither, on valid and buggy MT
histories.
"""

from __future__ import annotations

import time
from typing import Dict, List

import pytest

from repro.bench import generate_mt_history, scaled
from repro.core.graph import build_dependency
from repro.db import FaultPlan

from _common import run_once


def _compare(history) -> Dict[str, object]:
    timings = {}
    verdicts = {}
    for label, closure in (("optimized", False), ("closure", True)):
        started = time.perf_counter()
        graph = build_dependency(history, transitive_ww=closure)
        timings[label] = time.perf_counter() - started
        verdicts[label] = (graph.is_acyclic(), graph.si_induced_graph().is_acyclic())
    assert verdicts["optimized"] == verdicts["closure"], "Theorem 1/2: verdicts must agree"
    return {
        "ser_si_acyclic": verdicts["optimized"],
        "optimized_s": round(timings["optimized"], 4),
        "with_closure_s": round(timings["closure"], 4),
        "overhead": round(timings["closure"] / max(timings["optimized"], 1e-9), 2),
    }


def _sweep() -> List[Dict[str, object]]:
    rows = []
    for label, faults in (("valid", None), ("buggy-lostupdate", FaultPlan(lost_update_rate=0.4, seed=3))):
        for num_objects in (scaled(10), scaled(100)):
            generated = generate_mt_history(
                isolation="si",
                num_sessions=scaled(5),
                txns_per_session=scaled(60),
                num_objects=num_objects,
                distribution="zipf",
                faults=faults,
                seed=5,
            )
            row = _compare(generated.history)
            rows.append({"history": label, "objects": num_objects, **row})
    return rows


@pytest.mark.benchmark(group="ablation-buildgraph")
def test_ablation_ww_transitive_closure(benchmark):
    rows = run_once(benchmark, _sweep, "Ablation — WW transitive closure in BUILDDEPENDENCY")
    assert all(row["with_closure_s"] >= row["optimized_s"] * 0.5 for row in rows)


if __name__ == "__main__":
    from repro.bench import print_table

    print_table(_sweep(), "Ablation: BUILDDEPENDENCY")
