#!/usr/bin/env python3
"""Compare two sets of pipeline result files, metric by metric.

    python3 benchmarks/pipeline/compare.py PARENT_DIR CHANGE_DIR [--aa]

Each set is a directory of ``pipeline-*.json`` files written by ``run.py
--trace 0 --out DIR``: one run per workload and seed, the same seeds on
both sides, the sides taken interleaved, at least ten seeds for a claim.
Runs are *paired* by workload and seed, so the two runs of a pair timed
byte-identical inputs (``inputs_sha256`` and ``passes`` must match or the
sets are refused) and what is left in a pair's difference is the code and
the host.  For every workload x end-to-end metric it prints each side's
quartiles, the median of the paired differences, their inter-quartile
spread, how many pairs the change won, and a verdict against the bound in
``BENCHMARK.json``:

* ``regression``  the median pair is worse by more than the bound;
* ``worse``       worse by less than the bound, but resolved: the change lost
                  at least nine tenths of the pairs (ties count for neither)
                  and the median difference exceeds the pairs' own spread;
* ``better``      the same rule, won;
* ``unresolved``  the pairs' spread exceeds the bound, so these runs cannot
                  tell (unless the change won or lost every single pair);
* ``same``        none of the above.

``--aa`` is for two sets of the *same* commit.  It applies the benchmark's
acceptance rule to the sets as the driver pools them (each side's
inter-quartile spread over its seeds within the bound, ``setup_s``
excepted; the second median not worse than the first by more than the
bound) and also fails on any verdict other than ``same``.  Each run's
``host.noise_ratio`` / ``host.calibration_ms`` is listed so a set taken in
a slow host state is visible.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: What must be equal inside a pair for its difference to mean anything.
PAIRED_ON = ("inputs_sha256", "passes")


class SetError(Exception):
    """The two sets cannot be compared."""


def load_set(directory: Path) -> Dict[str, Dict[int, dict]]:
    """workload -> seed -> result document of the full-size untraced run."""
    runs: Dict[str, Dict[int, dict]] = defaultdict(dict)
    for path in sorted(directory.glob("pipeline-*.json")):
        document = json.loads(path.read_text())
        if document.get("trace") != 0 or document.get("smoke"):
            continue
        workload, seed = document["workload"], document["seed"]
        if seed in runs[workload]:
            raise SetError(f"{directory}: two runs of {workload} seed {seed}; keep one per seed")
        runs[workload][seed] = document
    return runs


def pair(parent: Dict[int, dict], change: Dict[int, dict], workload: str) -> List[Tuple[dict, dict]]:
    """Runs of one workload paired by seed; refuses pairs that timed unlike inputs."""
    pairs = [(parent[seed], change[seed]) for seed in sorted(set(parent) & set(change))]
    for before, after in pairs:
        for key in PAIRED_ON:
            if before.get(key) != after.get(key):
                raise SetError(
                    f"{workload} seed {before['seed']}: {key} differs between the sets "
                    f"({before.get(key)!r} vs {after.get(key)!r}); they did not time the same work"
                )
    return pairs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def gains(parent: Sequence[float], change: Sequence[float], better: str) -> List[float]:
    """Per pair, the change's gain as a share of the parent's value (> 0 is better)."""
    sign = 1.0 if better == "higher" else -1.0
    return [sign * (after - before) / before for before, after in zip(parent, change)]


def judge(paired_gains: Sequence[float], bound: float) -> str:
    q1, median, q3 = quartiles(paired_gains)
    resolution = q3 - q1
    won = sum(g > 0 for g in paired_gains)
    lost = sum(g < 0 for g in paired_gains)
    if resolution > bound:
        if won == len(paired_gains):
            return "better"
        if lost == len(paired_gains):
            return "regression" if median < -bound else "worse"
        return "unresolved"
    if median < -bound:
        return "regression"
    decided = 0.9 * (won + lost)
    if median > resolution and won >= decided:
        return "better"
    if -median > resolution and lost >= decided:
        return "worse"
    return "same"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--aa", action="store_true", help="both sets are the same commit")
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        parent_set, change_set = load_set(args.parent), load_set(args.change)
        pairs = {
            workload: pair(parent_set[workload], change_set[workload], workload)
            for workload in sorted(set(parent_set) & set(change_set))
        }
    except SetError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    pairs = {workload: found for workload, found in pairs.items() if found}
    if not pairs:
        print("error: the two sets share no workload and seed", file=sys.stderr)
        return 2

    disagreements = []
    print(
        f"{'workload/metric':<36} {'parent q1/med/q3':<28} {'change q1/med/q3':<28} "
        f"{'pairs':>7} {'spread':>7} {'won':>5} {'bound':>6}  verdict"
    )
    for workload, found in pairs.items():
        for metric in declared:
            name, bound = metric["name"], metric["bound"]
            sides = [[run["metrics"][name]["value"] for run in side] for side in zip(*found)]
            paired = gains(sides[0], sides[1], metric["better"])
            q1, median, q3 = quartiles(paired)
            verdict = judge(paired, bound)
            cells = ["/".join(f"{q:.5g}" for q in quartiles(side)) for side in sides]
            won = sum(g > 0 for g in paired)
            print(
                f"{workload + '/' + name:<36} {cells[0]:<28} {cells[1]:<28} "
                f"{median:>+7.1%} {q3 - q1:>7.1%} {won:>2}/{len(paired):<2} {bound:>6.0%}  {verdict}"
            )
            label = f"{workload}/{name}"
            if verdict != "same":
                disagreements.append(f"{label}: {verdict} (median pair {median:+.1%}, bound {bound:.0%})")
            pooled = gains([statistics.median(sides[0])], [statistics.median(sides[1])], metric["better"])[0]
            if pooled < -bound:
                disagreements.append(f"{label}: second median worse by {-pooled:.1%} (bound {bound:.0%})")
            for side, values in zip(("first", "second"), sides):
                if name != "setup_s" and spread(values) > bound:
                    disagreements.append(
                        f"{label}: {side} set spreads {spread(values):.1%} over its seeds (bound {bound:.0%})"
                    )

    print()
    print("'pairs' is the median over seeds of the change's gain on the parent (+ is better), 'spread'")
    print("the inter-quartile distance of those gains, 'won' the pairs in which the change read better.")
    print()
    print("host state per run (noise_ratio = median pass / quiet pass; calibration_ms = fixed loop):")
    for index, side in enumerate(("parent", "change")):
        for workload, found in pairs.items():
            cells = " ".join(
                f"{p[index]['host']['noise_ratio']:.2f}/{p[index]['host']['calibration_ms']:.1f}" for p in found
            )
            print(f"  {side:<7} {workload:<14} n={len(found):<3} {cells}")

    if args.aa:
        print()
        for line in disagreements:
            print(f"A/A: {line}")
        print("A/A: the two sets " + ("DISAGREE" if disagreements else "agree within every bound"))
        return 1 if disagreements else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
