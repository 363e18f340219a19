"""Self-test of the pipeline benchmark (not part of tier-1).

    python -m pytest benchmarks/pipeline -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import estimator
import metrics
import run
import spans
from spans import Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
def test_benchmark_json_is_rendered_from_metrics():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == metrics.benchmark_json()


def test_readme_tables_are_rendered_from_metrics():
    assert metrics.readme_tables() in (HERE / "README.md").read_text()


def test_a_metric_the_harness_cannot_state_raises_instead_of_reading_zero():
    declared = [m for m in metrics.PER_LAYER if m.name in ("csr.edges", "epochlog.seals")]
    stated = run.declared_values("batch_accept", declared, {"csr.edges": 7.0})
    assert stated == {
        "csr.edges": {"value": 7.0, "unit": "count"},
        "epochlog.seals": {"value": 0.0, "unit": "count"},  # batch_accept bypasses the epoch log
    }
    with pytest.raises(KeyError, match="csr.edges is not measured"):
        run.declared_values("batch_accept", declared, {})
    with pytest.raises(KeyError, match="epochlog.seals is measured but declared bypassed"):
        run.declared_values("batch_accept", declared, {"csr.edges": 7.0, "epochlog.seals": 3})
    # every pattern names at least one declared metric, and nothing is bypassed everywhere
    names = {m.name for m in metrics.PER_LAYER}
    for workload, patterns in metrics.BYPASSED.items():
        for pattern in patterns:
            assert any(metrics.fnmatchcase(name, pattern) for name in names), (workload, pattern)
    assert not frozenset.intersection(*(metrics.bypassed(w.name) for w in metrics.WORKLOADS))


# ----------------------------------------------------------------------
# Estimator
# ----------------------------------------------------------------------
SAMPLES = [
    [0.050, 0.020, 0.090],
    [0.040, 0.025, 0.070],
    [0.045, 0.021, 0.080],
]


def test_quiet_time_is_the_per_item_minimum_over_passes():
    assert estimator.quiet_times(SAMPLES) == [0.040, 0.020, 0.070]
    with pytest.raises(ValueError):
        estimator.quiet_times([[1.0, 2.0], [1.0]])


def test_nearest_rank_percentiles():
    values = [float(v) for v in range(1, 11)]
    assert estimator.nearest_rank(values, 0.5) == 5.0
    assert estimator.nearest_rank(values, 0.9) == 9.0
    assert estimator.nearest_rank([3.0, 1.0, 2.0, 4.0], 0.9) == 4.0
    assert estimator.nearest_rank([7.0], 0.5) == 7.0
    # 7 epochs, the 5th a checkpoint: p50 is a plain epoch, p90 the checkpoint epoch.
    epochs = [1.0, 1.1, 1.2, 1.3, 10.0, 1.4, 1.5]
    assert estimator.nearest_rank(epochs, 0.5) == 1.3
    assert estimator.nearest_rank(epochs, 0.9) == 10.0


def test_throughput_is_work_over_the_sum_of_minima():
    assert estimator.throughput(1300, estimator.quiet_times(SAMPLES)) == pytest.approx(10_000)


def test_host_speed_is_the_reference_quiet_time_over_this_hosts():
    slow = [2 * estimator.REFERENCE_SECONDS, 3 * estimator.REFERENCE_SECONDS]
    assert estimator.host_speed(slow) == pytest.approx(0.5)
    # a run on a host half as fast reads the same in reference time
    assert run.compute_metrics(*synthetic_run(1.0))["txns_per_s"] == pytest.approx(
        run.compute_metrics(*synthetic_run(2.0))["txns_per_s"]
    )
    assert run.compute_metrics(*synthetic_run(2.0))["verdict_ms_p50"] == pytest.approx(40.0)
    assert estimator.reference_loop() == estimator.reference_loop()


def synthetic_run(slowdown: float):
    """``compute_metrics`` arguments of a run on a host ``slowdown`` times slower."""
    measured = {
        "times": [[t * slowdown for t in row] for row in SAMPLES],
        "latencies": [[t * slowdown for t in row] for row in SAMPLES],
        "reference": [estimator.REFERENCE_SECONDS * slowdown * wobble for wobble in (1.2, 1.0, 1.1)],
        "item_rows": [400, 400, 500],
        "scale": {"seconds": 1.0 * slowdown, "rows": 13_000, "stored_bytes": 1_300_000, "base_items": [0]},
        "peak_rss_kb": 2048,
        "counts": {},
        "host": {"loadavg_before": 0.5},
    }
    built = {"build_seconds": [0.2, 0.1], "stages": {}, "counts": {}}
    return [0.3, 0.25], built, measured


def test_noise_ratio_is_median_pass_over_quiet_pass():
    assert estimator.noise_ratio(SAMPLES) == pytest.approx(0.146 / 0.130)
    assert estimator.noise_ratio([[0.1, 0.2]] * 4) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Span arithmetic on a hand-built tree
# ----------------------------------------------------------------------
def hand_built_spans():
    """Two passes of one item: item -> {load, verify -> {index, csr}}."""
    out = []
    for pass_no, stretch in enumerate((1.0, 2.0)):
        base = 100.0 * pass_no
        ids = [5 * pass_no + i for i in range(5)]
        item, load, verify, index, csr = ids
        out += [
            Span(index, verify, "index", "A", pass_no, base + 2.0, base + 2.0 + 3.0 * stretch),
            Span(csr, verify, "csr", "A", pass_no, base + 10.0, base + 10.0 + 2.0 * stretch),
            Span(load, item, "load", "A", pass_no, base + 0.0, base + 1.0),
            Span(verify, item, "verify", "A", pass_no, base + 1.5, base + 1.5 + 12.0 * stretch),
            Span(item, None, spans.ITEM, "A", pass_no, base, base + 1.5 + 12.0 * stretch + 0.5),
        ]
    return out


def test_self_time_subtracts_direct_children_only():
    tree = hand_built_spans()
    own = spans.self_times(tree)
    # pass 0: item 14.0 long = load 1.0 + verify 12.0 + 1.0 of its own
    assert own[0] == pytest.approx(1.0)
    assert own[1] == pytest.approx(1.0)
    assert own[2] == pytest.approx(12.0 - 3.0 - 2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(2.0)
    assert sum(own[i] for i in range(5)) == pytest.approx(14.0)


def test_layer_numbers_are_minima_over_passes_and_add_up():
    tree = hand_built_spans()
    layers = spans.layer_quiet(tree)
    assert layers == pytest.approx(
        {"index": 3.0, "csr": 2.0, "load": 1.0, "verify": 7.0, spans.ITEM: 1.0}
    )
    assert spans.layer_quiet(tree, own=False)["verify"] == pytest.approx(12.0)
    assert spans.quiet_item_total(tree) == pytest.approx(14.0)
    assert spans.unattributed_share(tree) == pytest.approx(1.0 / 14.0)


def test_tracer_records_parents_and_null_tracer_records_nothing():
    tracer = spans.Tracer()
    tracer.item = "x"
    with tracer.span(spans.ITEM):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    by_name = {span.name: span for span in tracer.spans}
    assert by_name[spans.ITEM].parent is None
    assert by_name["a"].parent == by_name["b"].parent == by_name[spans.ITEM].id
    assert by_name["c"].parent == by_name["b"].id
    assert len({span.id for span in tracer.spans}) == 4
    with spans.NullTracer().span("a") as nothing:
        assert nothing is None


# ----------------------------------------------------------------------
# Smoke runs of the real command
# ----------------------------------------------------------------------
def run_command(out: Path, *options: str):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *options],
        capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    return done, (json.loads(lines[-1]) if lines else None)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All four workloads, untraced and traced, on seed 1; untraced on seed 2."""
    out = tmp_path_factory.mktemp("results")
    runs = {
        # as the benchmark driver calls it: --seconds is accepted and changes nothing
        "e2e": run_command(out, "--seed", "1", "--seconds", "20", "--trace", "0"),
        "layers": run_command(out, "--seed", "1", "--trace", "1"),
        "other_seed": run_command(out, "--seed", "2", "--trace", "0"),
    }
    documents = [json.loads(path.read_text()) for path in sorted(out.glob("pipeline-*.json"))]
    return runs, documents


@pytest.mark.parametrize("mode, declared", [("e2e", metrics.END_TO_END), ("layers", metrics.PER_LAYER)])
def test_smoke_emits_exactly_the_declared_metrics(smoke, mode, declared):
    done, last = smoke[0][mode]
    assert done.returncode == 0, done.stdout + done.stderr
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = {f"{w.name}/{m.name}": m.unit for w in metrics.WORKLOADS for m in declared}
    assert set(last["metrics"]) == set(expected)
    for name, entry in last["metrics"].items():
        assert entry["unit"] == expected[name]
        assert math.isfinite(entry["value"]), name
        if mode == "e2e":
            assert entry["value"] > 0, name
        # every metric is also printed by name with its unit
        assert f"{name} = " in done.stdout


def test_traced_run_attributes_the_item_to_layers(smoke):
    _, last = smoke[0]["layers"]
    for workload in metrics.WORKLOADS:
        assert last["metrics"][f"{workload.name}/trace.unattributed_share"]["value"] <= 0.10
        assert last["metrics"][f"{workload.name}/trace.overhead_ratio"]["value"] > 0
    # each workload enters its own layers and bypasses the others'
    value = lambda name: last["metrics"][name]["value"]  # noqa: E731
    assert value("batch_reject/graph.to_multigraph_ms") > 0
    assert value("batch_accept/graph.to_multigraph_ms") == 0
    assert value("stream_watch/index.from_columns_ms") == 0
    assert value("stream_watch/incremental.ingest_segment_ms") > 0
    assert value("collect_check/adapters.collect_ms") > 0
    assert value("batch_accept/adapters.collect_ms") == 0


def test_every_run_is_stamped_and_another_seed_changes_the_inputs(smoke):
    runs, documents = smoke
    assert runs["other_seed"][0].returncode == 0
    assert runs["other_seed"][1]["failed"] == 0
    digests = {}
    for document in documents:
        for key in ("seed", "inputs_sha256", "git_commit", "python", "nproc", "loadavg_before", "loadavg_after"):
            assert key in document
        digests.setdefault((document["workload"], document["seed"]), set()).add(document["inputs_sha256"])
    for workload in metrics.WORKLOADS:
        # same seed, two runs (untraced + traced): one digest; another seed: another
        assert len(digests[(workload.name, 1)]) == 1
        assert digests[(workload.name, 1)] != digests[(workload.name, 2)]


def test_a_wrong_expected_verdict_fails_the_run(tmp_path, monkeypatch, capsys):
    real = run.run_worker

    def tampering(mode, env, workdir, *options):
        if mode == "measure":
            manifest = json.loads((workdir / "build.json").read_text())
            manifest["items"][0]["satisfied"] = not manifest["items"][0]["satisfied"]
            (workdir / "build.json").write_text(json.dumps(manifest))
        return real(mode, env, workdir, *options)

    monkeypatch.setattr(run, "run_worker", tampering)
    monkeypatch.setattr(
        sys, "argv", ["run.py", "--workload", "batch_accept", "--smoke", "--out", str(tmp_path)]
    )
    assert run.main() == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to measure."""
    clone = tmp_path / "benchmarks" / "pipeline"
    clone.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (clone / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(clone / "run.py"), "--workload", "batch_accept", "--smoke"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def test_judge_verdicts_on_paired_gains():
    noise = [0.004, -0.006, 0.002, -0.003, 0.005, -0.001, 0.003, -0.004, 0.001, -0.002]
    shifted = lambda by: [g + by for g in noise]  # noqa: E731
    assert compare.judge(noise, 0.10) == "same"
    assert compare.judge(shifted(-0.15), 0.10) == "regression"
    assert compare.judge(shifted(-0.05), 0.10) == "worse"  # inside the bound, but resolved
    assert compare.judge(shifted(0.05), 0.10) == "better"
    assert compare.judge(shifted(0.006), 0.10) == "same"  # smaller than the pairs' own spread
    wide = [0.3, -0.2, 0.1, -0.15, 0.25, -0.1, 0.2, -0.25, 0.15, 0.05]
    assert compare.judge(wide, 0.10) == "unresolved"
    assert compare.judge([abs(g) for g in wide], 0.10) == "better"  # won every single pair
    assert compare.judge([-abs(g) for g in wide], 0.10) == "regression"
    assert compare.judge([0.0] * 10, 0.01) == "same"  # a count that repeats exactly


def test_gains_are_signed_by_the_metric_direction():
    assert compare.gains([100.0], [110.0], "higher") == pytest.approx([0.10])
    assert compare.gains([100.0], [110.0], "lower") == pytest.approx([-0.10])


def write_set(directory: Path, factor: float, digest: str = "d") -> None:
    """Five seeds of batch_accept; seed i reads 100 + i / 10 (input variance) times a wobble."""
    directory.mkdir()
    for seed, wobble in enumerate((1.0, 1.002, 0.998, 1.001, 0.999)):
        document = {
            "workload": "batch_accept",
            "seed": seed,
            "trace": 0,
            "smoke": False,
            "passes": 120,
            "inputs_sha256": f"{digest}{seed}",
            "host": {"noise_ratio": 1.05, "calibration_ms": 10.0},
            "metrics": {
                m.name: {
                    "value": (100.0 + seed / 10) * wobble * (factor if m.name == "txns_per_s" else 1.0),
                    "unit": m.unit,
                }
                for m in metrics.END_TO_END
            },
        }
        (directory / f"pipeline-batch_accept-{seed}.json").write_text(json.dumps(document))


def test_aa_mode_exits_non_zero_only_when_the_sets_disagree(tmp_path, monkeypatch, capsys):
    write_set(tmp_path / "a", 1.0)
    write_set(tmp_path / "b", 1.0)
    write_set(tmp_path / "c", 0.6)
    monkeypatch.setattr(sys, "argv", ["compare.py", str(tmp_path / "a"), str(tmp_path / "b"), "--aa"])
    assert compare.main() == 0
    monkeypatch.setattr(sys, "argv", ["compare.py", str(tmp_path / "a"), str(tmp_path / "c"), "--aa"])
    assert compare.main() == 1
    assert "batch_accept/txns_per_s: regression" in capsys.readouterr().out


def test_sets_that_timed_unlike_inputs_are_refused(tmp_path, monkeypatch, capsys):
    write_set(tmp_path / "a", 1.0)
    write_set(tmp_path / "other_inputs", 1.0, digest="e")
    monkeypatch.setattr(sys, "argv", ["compare.py", str(tmp_path / "a"), str(tmp_path / "other_inputs")])
    assert compare.main() == 2
    assert "inputs_sha256 differs" in capsys.readouterr().err
    # two runs of one seed in a set cannot be paired
    duplicate = tmp_path / "a" / "pipeline-batch_accept-again.json"
    duplicate.write_text((tmp_path / "a" / "pipeline-batch_accept-0.json").read_text())
    monkeypatch.setattr(sys, "argv", ["compare.py", str(tmp_path / "a"), str(tmp_path / "a")])
    assert compare.main() == 2
    assert "two runs of batch_accept seed 0" in capsys.readouterr().err
