"""The four workloads: how their inputs are built and what one pass does.

Each workload has a *build* half (set-up process: generator -> simulator ->
segment / spec list, hashed so repeated builds can be compared) and a
*runner* half (measuring process: starts from the artefacts on disk and
runs passes over a fixed list of work items).  Only public functions of
``repro`` are called; the traced variants wrap the same calls in spans.

Known answers never come from the path being timed: polarity is fixed by
construction (healthy engine vs. injected fault) and each batch input is
cross-checked once at set-up against the streaming checker, an independent
algorithm.
"""

from __future__ import annotations

import gc
import hashlib
import math
import shutil
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro import (
    AsyncCollector,
    CheckerSession,
    CheckResult,
    ColumnarHistory,
    Database,
    FaultPlan,
    HistoryIndex,
    IsolationLevel,
    MTChecker,
    MTWorkloadGenerator,
    build_dependency,
    load_history_segment,
    run_workload,
    stream_order,
)
from repro.adapters.aio import AsyncSimulatedAdapter
from repro.core.checkers import classify_cycle
from repro.core.divergence import find_divergence
from repro.history import EpochLog, EpochLogWriter

from spans import ITEM, NullTracer

LEVELS = {
    "SER": IsolationLevel.SERIALIZABILITY,
    "SI": IsolationLevel.SNAPSHOT_ISOLATION,
    "SSER": IsolationLevel.STRICT_SERIALIZABILITY,
}


class Size(NamedTuple):
    sessions: int
    txns_per_session: int
    keys: int
    #: The scale pass runs on an input this many times longer.
    scale: int
    #: Share of write-write conflicts the faulty engine lets through.  High
    #: enough that a seed without a single lost update is not a practical
    #: possibility (an 800-txn uniform run has ~30 such conflicts).
    fault_rate: float
    stream_epochs: int
    #: The stream's scale pass runs this many times more epochs.
    stream_scale: int
    epoch_rows: int
    window: int
    checkpoint_every: int
    builds: int
    stream_builds: int


FULL = Size(16, 50, 400, 40, 0.5, 7, 20, 128, 512, 5, 6, 4)
SMOKE = Size(16, 32, 100, 2, 0.5, 12, 2, 32, 64, 5, 2, 2)


class PassSamples(NamedTuple):
    """What one pass hands back: per-item seconds and what was produced."""

    item_seconds: List[float]
    #: Request -> verdict latency per item (equals ``item_seconds`` unless
    #: the item does work before the request is complete, as stream_watch's
    #: buffered appends are).
    latency_seconds: List[float]
    #: What the pass rendered (verdicts, sizes); must equal pass 0's.
    outputs: List[str]
    #: Failed checks of this pass, as messages.
    failures: List[str]
    counts: Dict[str, float]


def sha256_files(paths: Sequence[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def staged(stages: Dict[str, float], name: str, call, *args, **kwargs):
    """Run ``call`` and add its wall time to ``stages[name]``."""
    started = perf_counter()
    out = call(*args, **kwargs)
    stages[name] = stages.get(name, 0.0) + perf_counter() - started
    return out


def record_history(
    engine: str,
    distribution: str,
    fault_rate: float,
    seed: int,
    size: Size,
    txns_per_session: int,
    stages: Dict[str, float],
):
    """Generator -> simulator: the workload and its recorded run."""
    workload = staged(
        stages,
        "workloads.generate",
        MTWorkloadGenerator(
            num_sessions=size.sessions,
            txns_per_session=txns_per_session,
            num_objects=size.keys,
            distribution=distribution,
            seed=seed,
        ).generate,
    )
    faults = FaultPlan(lost_update_rate=fault_rate, seed=seed) if fault_rate else None
    database = Database(engine, keys=workload.keys, faults=faults)
    run = staged(stages, "db.run_workload", run_workload, database, workload, seed=seed)
    return workload, run


def rows_of(columns: ColumnarHistory) -> int:
    """Recorded transactions of a segment, the synthetic initial one excluded."""
    return columns.num_transactions - (1 if columns.has_initial else 0)


def verify_decomposed(tracer, columns: ColumnarHistory, level: IsolationLevel) -> CheckResult:
    """``MTChecker().verify(columns, level)`` taken apart at its layer boundaries.

    The same public calls the checker makes, in the same order, each inside
    a span.  The traced run fails unless this renders the same verdict as
    the single call, so the decomposition cannot drift from the product.
    """
    with tracer.span("index.from_columns"):
        index = HistoryIndex.from_columns(columns)
    committed = index.num_committed
    with tracer.span("index.int_violations"):
        internal = index.int_violations()
    if internal:
        return CheckResult.violated(level, internal, num_transactions=committed)
    induced = level is IsolationLevel.SNAPSHOT_ISOLATION
    if induced:
        with tracer.span("index.find_divergence"):
            divergence = find_divergence(None, index=index)
        if divergence is not None:
            return CheckResult.violated(
                level, [divergence.to_violation()], num_transactions=committed
            )
    with tracer.span("csr.build_dependency"):
        csr = build_dependency(
            None,
            with_rt=level is IsolationLevel.STRICT_SERIALIZABILITY,
            index=index,
            dense=True,
        )
    tracer.counts["csr.nodes"] += csr.num_nodes
    tracer.counts["csr.edges"] += csr.num_edges
    graph = csr
    if induced:
        with tracer.span("csr.si_induced"):
            graph = csr.si_induced()
    with tracer.span("csr.has_cycle"):
        component = graph.has_cycle()
    if component is None:
        return CheckResult.ok(level, committed)
    with tracer.span("graph.to_multigraph"):
        multigraph = csr.to_multigraph()
    with tracer.span("graph.find_cycle"):
        cycle = (multigraph.si_induced_graph() if induced else multigraph).find_cycle()
    with tracer.span("graph.classify_cycle"):
        violation = classify_cycle(cycle, multigraph, level=level)
    return CheckResult.violated(level, [violation], num_transactions=committed)


def check_answer(item: Dict[str, Any], result: CheckResult) -> Optional[str]:
    """``None`` when ``result`` is the item's known answer, else why not."""
    if result.satisfied != item["satisfied"]:
        return f"{item['id']}: satisfied={result.satisfied}, known answer {item['satisfied']}"
    if not result.satisfied and result.violation.kind.value not in item["kinds"]:
        return f"{item['id']}: {result.violation.kind.value} not among {item['kinds']}"
    return None


# ----------------------------------------------------------------------
# batch_accept / batch_reject
# ----------------------------------------------------------------------
BATCH = {
    "batch_accept": {"engine": "ser", "faulty": False, "levels": ("SER", "SI", "SSER")},
    "batch_reject": {"engine": "si", "faulty": True, "levels": ("SER", "SI")},
}
SEGMENTS = (("A", "uniform"), ("B", "zipf"))
#: What a lost update can be reported as.  At SI it is always the DIVERGENCE
#: early exit; at SER it is whichever cycle the labeler finds first.
REJECT_KINDS = {"SER": ["DependencyCycle", "LostUpdate"], "SI": ["LostUpdate"]}


def build_batch(name: str, workdir: Path, seed: int, size: Size) -> Dict[str, Any]:
    """One set-up build: record and save the two timed segments."""
    config = BATCH[name]
    rate = size.fault_rate if config["faulty"] else 0.0
    stages: Dict[str, float] = {}
    segments: Dict[str, Any] = {}
    attempts = aborted = 0
    started = perf_counter()
    for offset, (label, distribution) in enumerate(SEGMENTS):
        _, run = record_history(
            config["engine"], distribution, rate, seed * 100 + offset,
            size, size.txns_per_session, stages,
        )
        columns = staged(stages, "history.from_history", ColumnarHistory.from_history, run.history)
        path = workdir / f"seg-{label}.seg"
        staged(stages, "history.save", columns.save, path)
        attempts += run.stats.committed + run.stats.aborted
        aborted += run.stats.aborted
        segments[label] = {
            "path": path.name,
            "rows": rows_of(columns),
            "bytes": path.stat().st_size,
            "nbytes": columns.nbytes,
        }
    seconds = perf_counter() - started
    return {
        "seconds": seconds,
        "stages": stages,
        "segments": segments,
        "digest": sha256_files([workdir / s["path"] for s in segments.values()]),
        "counts": {
            "db.abort_ratio": aborted / attempts,
            "history.segment_bytes": sum(s["bytes"] for s in segments.values()),
            "history.columns_nbytes": sum(s["nbytes"] for s in segments.values()),
        },
    }


def finish_batch(name: str, workdir: Path, seed: int, size: Size, manifest: Dict[str, Any]) -> None:
    """Once per set-up: known answers, their cross-check, and the scale input."""
    config = BATCH[name]
    items = []
    for label, _ in SEGMENTS:
        history = load_history_segment(workdir / manifest["segments"][label]["path"]).to_history()
        for level in config["levels"]:
            item = {
                "id": f"{label}/{level}",
                "segment": label,
                "level": level,
                "satisfied": not config["faulty"],
                "kinds": REJECT_KINDS[level] if config["faulty"] else [],
            }
            streamed = MTChecker().session(LEVELS[level]).ingest_history(history)
            if streamed.satisfied != item["satisfied"]:
                raise AssertionError(
                    f"{name} {item['id']}: built to be "
                    f"{'healthy' if item['satisfied'] else 'faulty'} but the streaming "
                    f"checker says satisfied={streamed.satisfied}"
                )
            items.append(item)
    manifest["items"] = items

    rate = size.fault_rate if config["faulty"] else 0.0
    _, run = record_history(
        config["engine"], SEGMENTS[0][1], rate, seed * 100 + 50,
        size, size.txns_per_session * size.scale, {},
    )
    columns = ColumnarHistory.from_history(run.history)
    columns.save(workdir / "scale.seg")
    manifest["scale"] = {
        "path": "scale.seg",
        "rows": rows_of(columns),
        "level": "SER",
        "satisfied": not config["faulty"],
        "kinds": REJECT_KINDS["SER"] if config["faulty"] else [],
        "id": "scale/SER",
    }


class BatchRunner:
    """Items: ``load_history_segment`` -> ``MTChecker().verify`` -> ``format``."""

    def __init__(self, workdir: Path, manifest: Dict[str, Any]) -> None:
        self.workdir = workdir
        self.manifest = manifest
        self.items = manifest["items"]
        self.item_rows = [manifest["segments"][i["segment"]]["rows"] for i in self.items]

    def path_of(self, item: Dict[str, Any]) -> Path:
        return self.workdir / self.manifest["segments"][item["segment"]]["path"]

    def run_item(self, tracer, item: Dict[str, Any], path: Path) -> CheckResult:
        level = LEVELS[item["level"]]
        if tracer.enabled:
            with tracer.span("history.load"):
                columns = load_history_segment(path)
            with tracer.span(f"core.verify_{item['level'].lower()}"):
                return verify_decomposed(tracer, columns, level)
        return MTChecker().verify(load_history_segment(path), level)

    def run_pass(self, pass_no: int, tracer) -> PassSamples:
        seconds, outputs, failures = [], [], []
        for item in self.items:
            path = self.path_of(item)
            tracer.item = item["id"]
            gc.collect()
            with tracer.span(ITEM):
                started = perf_counter()
                result = self.run_item(tracer, item, path)
                rendered = result.format()
                elapsed = perf_counter() - started
            seconds.append(elapsed)
            outputs.append(rendered)
            wrong = check_answer(item, result)
            if wrong:
                failures.append(wrong)
        return PassSamples(seconds, seconds, outputs, failures, {})

    def scale_pass(self) -> Dict[str, Any]:
        scale = self.manifest["scale"]
        path = self.workdir / scale["path"]
        gc.collect()
        started = perf_counter()
        result = self.run_item(NullTracer(), scale, path)
        result.format()
        seconds = perf_counter() - started
        return {
            "seconds": seconds,
            "rows": scale["rows"],
            "stored_bytes": path.stat().st_size,
            "failure": check_answer(scale, result),
            # The 1x items the scale item is compared with: same level, seg A.
            "base_items": [
                i for i, item in enumerate(self.items)
                if item["segment"] == "A" and item["level"] == scale["level"]
            ],
        }


# ----------------------------------------------------------------------
# collect_check
# ----------------------------------------------------------------------
COLLECT_DISTRIBUTIONS = ("uniform", "zipf", "uniform", "hotspot")


def generate_collect(seed: int, size: Size, stages: Dict[str, float]):
    return [
        staged(
            stages,
            "workloads.generate",
            MTWorkloadGenerator(
                num_sessions=size.sessions,
                txns_per_session=size.txns_per_session,
                num_objects=size.keys,
                distribution=distribution,
                seed=seed * 100 + offset,
            ).generate,
        )
        for offset, distribution in enumerate(COLLECT_DISTRIBUTIONS)
    ]


def digest_specs(workloads) -> str:
    digest = hashlib.sha256()
    for workload in workloads:
        digest.update(("|".join(workload.keys) + "\n").encode("utf-8"))
        for session in workload.sessions:
            for spec in session:
                digest.update(
                    (" ".join(f"{op.kind.value}:{op.key}" for op in spec.operations) + ";").encode("utf-8")
                )
            digest.update(b"\n")
    return digest.hexdigest()


def build_collect(name: str, workdir: Path, seed: int, size: Size) -> Dict[str, Any]:
    stages: Dict[str, float] = {}
    started = perf_counter()
    workloads = generate_collect(seed, size, stages)
    seconds = perf_counter() - started
    return {
        "seconds": seconds,
        "stages": stages,
        "digest": digest_specs(workloads),
        "counts": {},
        "items": [
            {
                "id": f"{index}/{distribution}",
                "level": "SI",
                "satisfied": True,
                "kinds": [],
                "planned": workload.num_transactions,
            }
            for index, (distribution, workload) in enumerate(zip(COLLECT_DISTRIBUTIONS, workloads))
        ],
    }


def finish_collect(name: str, workdir: Path, seed: int, size: Size, manifest: Dict[str, Any]) -> None:
    manifest["seed"] = seed
    manifest["scale"] = {
        "id": "scale/SI",
        "level": "SI",
        "satisfied": True,
        "kinds": [],
        "planned": size.sessions * size.txns_per_session * size.scale,
    }


class CollectRunner:
    """Items: ``AsyncCollector.collect`` -> ``MTChecker().verify(columns, SI)``."""

    def __init__(self, workdir: Path, manifest: Dict[str, Any], size: Size) -> None:
        self.manifest = manifest
        self.size = size
        self.items = manifest["items"]
        # The artefact is the seed: specs are regenerated here and must hash
        # to what set-up built.
        self.workloads = generate_collect(manifest["seed"], size, {})
        if digest_specs(self.workloads) != manifest["digest"]:
            raise AssertionError("collect_check: regenerated specs differ from set-up's")
        self.item_rows = [item["planned"] for item in self.items]

    @staticmethod
    def collect(workload):
        return AsyncCollector(AsyncSimulatedAdapter("si"), max_inflight=8).collect(workload)

    def run_item(self, tracer, item: Dict[str, Any], workload) -> Tuple[Any, CheckResult]:
        if tracer.enabled:
            with tracer.span("adapters.collect"):
                collected = self.collect(workload)
            with tracer.span("core.verify_si"):
                return collected, verify_decomposed(tracer, collected.columns, LEVELS["SI"])
        collected = self.collect(workload)
        return collected, MTChecker().verify(collected.columns, LEVELS["SI"])

    @staticmethod
    def check(item: Dict[str, Any], collected, result: CheckResult) -> Optional[str]:
        stats = collected.stats
        if stats.committed != item["planned"] or collected.unknown:
            return (
                f"{item['id']}: {stats.committed} committed of {item['planned']} planned "
                f"({stats.aborted} aborted attempts, {collected.unknown} unknown)"
            )
        return check_answer(item, result)

    def run_pass(self, pass_no: int, tracer) -> PassSamples:
        seconds, outputs, failures = [], [], []
        stored = 0
        counts = {"adapters.committed": 0, "adapters.aborted": 0, "adapters.backpressure_stalls": 0}
        for item, workload in zip(self.items, self.workloads):
            tracer.item = item["id"]
            gc.collect()
            with tracer.span(ITEM):
                started = perf_counter()
                collected, result = self.run_item(tracer, item, workload)
                rendered = result.format()
                elapsed = perf_counter() - started
            seconds.append(elapsed)
            outputs.append(f"{rendered}\nnbytes={collected.columns.nbytes}")
            stored += collected.columns.nbytes
            counts["adapters.committed"] += collected.stats.committed
            counts["adapters.aborted"] += collected.stats.aborted
            counts["adapters.backpressure_stalls"] += collected.backpressure_stalls
            wrong = self.check(item, collected, result)
            if wrong:
                failures.append(wrong)
        counts["history.columns_nbytes"] = stored
        return PassSamples(seconds, seconds, outputs, failures, counts)

    def scale_pass(self) -> Dict[str, Any]:
        scale = self.manifest["scale"]
        workload = MTWorkloadGenerator(
            num_sessions=self.size.sessions,
            txns_per_session=self.size.txns_per_session * self.size.scale,
            num_objects=self.size.keys,
            distribution=COLLECT_DISTRIBUTIONS[0],
            seed=self.manifest["seed"] * 100 + 50,
        ).generate()
        gc.collect()
        started = perf_counter()
        collected, result = self.run_item(NullTracer(), scale, workload)
        result.format()
        seconds = perf_counter() - started
        return {
            "seconds": seconds,
            "rows": scale["planned"],
            "stored_bytes": collected.columns.nbytes,
            "failure": self.check(scale, collected, result),
            "base_items": [0],
        }


# ----------------------------------------------------------------------
# stream_watch
# ----------------------------------------------------------------------
def record_stream(workdir: Path, file_name: str, seed: int, size: Size, epochs: int, stages: Dict[str, float]):
    """Record a healthy run and save the rows that fill ``epochs`` epochs, in commit order."""
    # The first epoch also holds the synthetic initial transaction.
    needed = epochs * size.epoch_rows - 1
    workload, run = record_history(
        "ser", "uniform", 0.0, seed, size, math.ceil(needed / size.sessions), stages
    )
    rows = [txn for txn in stream_order(run.history) if not txn.is_initial][:needed]
    if len(rows) != needed:
        raise AssertionError(f"stream_watch: recorded {len(rows)} rows, need {needed}")
    columns = staged(stages, "history.from_history", ColumnarHistory.from_transactions, rows)
    path = workdir / file_name
    staged(stages, "history.save", columns.save, path)
    return path, columns, workload, run


def build_stream(name: str, workdir: Path, seed: int, size: Size) -> Dict[str, Any]:
    stages: Dict[str, float] = {}
    started = perf_counter()
    path, columns, workload, run = record_stream(
        workdir, "stream-rows.seg", seed * 100, size, size.stream_epochs, stages
    )
    seconds = perf_counter() - started
    return {
        "seconds": seconds,
        "stages": stages,
        "digest": sha256_files([path]),
        "rows_path": path.name,
        "keys": workload.keys,
        "counts": {
            "db.abort_ratio": run.stats.abort_rate,
            "history.segment_bytes": path.stat().st_size,
            "history.columns_nbytes": columns.nbytes,
        },
    }


def finish_stream(name: str, workdir: Path, seed: int, size: Size, manifest: Dict[str, Any]) -> None:
    manifest["items"] = [{"id": epoch} for epoch in range(size.stream_epochs)]
    epochs = size.stream_epochs * size.stream_scale
    path, columns, _, _ = record_stream(workdir, "scale-rows.seg", seed * 100 + 50, size, epochs, {})
    manifest["scale"] = {"rows_path": path.name, "epochs": epochs, "rows": rows_of(columns)}


def directory_bytes(directory: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in directory.glob(pattern) if p.is_file())


class StreamRunner:
    """Items: one epoch through writer -> log -> incremental session, closed loop.

    The order inside an item is the order of ``repro watch``'s loop: load,
    ingest, checkpoint when due, and only then is the verdict published, so
    a checkpoint delays the verdict of the epoch it follows.
    """

    def __init__(self, workdir: Path, manifest: Dict[str, Any], size: Size) -> None:
        self.workdir = workdir
        self.size = size
        self.manifest = manifest
        self.items = manifest["items"]
        self.chunks = list(self.epochs_of(manifest["rows_path"]))
        self.item_rows = [len(chunk) for chunk in self.chunks]

    def epochs_of(self, rows_path: str) -> Iterator[list]:
        """The saved rows, cut into the chunks the writer will seal as epochs.

        Lazy, so the scale stream's rows are never all alive at once and
        ``peak_rss_mb`` stays the pipeline's, not the producer's.
        """
        rows = load_history_segment(self.workdir / rows_path).iter_transactions()
        # The first epoch also holds the synthetic initial transaction.
        chunk = list(islice(rows, self.size.epoch_rows - 1))
        while chunk:
            yield chunk
            chunk = list(islice(rows, self.size.epoch_rows))

    def run_pass(self, pass_no: int, tracer) -> PassSamples:
        return self.run_stream(f"pass {pass_no}", self.items, self.chunks, tracer)

    def run_stream(self, label: str, items, chunks, tracer) -> PassSamples:
        size = self.size
        directory = self.workdir / f"{label.replace(' ', '-')}.epochs"
        seconds, latencies, failures = [], [], []
        gc.collect()
        # The key set depends on the key count alone, so it is the scale stream's too.
        writer = EpochLogWriter(
            directory, epoch_transactions=size.epoch_rows, initial_keys=self.manifest["keys"]
        )
        log = EpochLog.open(directory)
        session = MTChecker().session(LEVELS["SER"], window=size.window)
        ingested_epochs = ingested_rows = 0
        verdicts = []
        for item, chunk in zip(items, chunks):
            tracer.item = item["id"]
            with tracer.span(ITEM):
                started = perf_counter()
                with tracer.span("epochlog.append"):
                    for txn in chunk[:-1]:
                        writer.append(txn)
                committed = perf_counter()
                with tracer.span("epochlog.seal"):
                    writer.append(chunk[-1])
                with tracer.span("epochlog.refresh"):
                    fresh = log.refresh()
                for info in fresh:
                    with tracer.span("epochlog.load_epoch"):
                        segment = log.load_epoch(info)
                    with tracer.span("incremental.ingest_segment"):
                        session.ingest_segment(segment)
                    ingested_epochs += 1
                    ingested_rows += rows_of(segment)
                if ingested_epochs % size.checkpoint_every == 0:
                    with tracer.span("incremental.checkpoint"):
                        state = session.checkpoint()
                    with tracer.span("epochlog.save_checkpoint"):
                        log.save_checkpoint(
                            state, epochs=ingested_epochs, transactions=ingested_rows
                        )
                verdicts.append(session.satisfied)
                finished = perf_counter()
            seconds.append(finished - started)
            latencies.append(finished - committed)
        writer.close()

        tracer.item = "end-of-pass"
        with tracer.span("incremental.result"):
            live = session.result()
        if not all(verdicts) or not live.satisfied:
            failures.append(f"{label}: healthy stream reported violated")
        if ingested_epochs != len(items) or writer.epochs_sealed != len(items):
            failures.append(
                f"{label}: {ingested_epochs} epochs ingested, "
                f"{writer.epochs_sealed} sealed, expected {len(items)}"
            )
        resume = log.latest_checkpoint()
        with tracer.span("incremental.restore"):
            restored = CheckerSession.restore(resume.state)
        for info in log.epochs[resume.epochs:]:
            restored.ingest_segment(log.load_epoch(info))
        if restored.result().format() != live.format():
            failures.append(f"{label}: restore + tail replay differs from the live session")

        counts = {
            "epochlog.log_bytes": directory_bytes(directory),
            "epochlog.checkpoint_bytes": directory_bytes(directory, "checkpoint-*.ckpt"),
            "epochlog.seals": writer.epochs_sealed,
        }
        shutil.rmtree(directory)
        # Checkpoints record the session's elapsed wall time, so their size
        # moves by a byte or two; the sealed epochs must not.
        epoch_bytes = counts["epochlog.log_bytes"] - counts["epochlog.checkpoint_bytes"]
        outputs = [f"{live.format()}\nepoch_bytes={epoch_bytes}"]
        return PassSamples(seconds, latencies, outputs, failures, counts)

    def scale_pass(self) -> Dict[str, Any]:
        scale = self.manifest["scale"]
        items = [{"id": f"scale/{epoch}"} for epoch in range(scale["epochs"])]
        samples = self.run_stream(
            "scale pass", items, self.epochs_of(scale["rows_path"]), NullTracer()
        )
        return {
            "seconds": sum(samples.item_seconds),
            "rows": scale["rows"],
            # Live bytes of the epoch directory: epochs, manifest, kept checkpoints.
            "stored_bytes": samples.counts["epochlog.log_bytes"],
            "failure": "; ".join(samples.failures) or None,
            "base_items": list(range(len(self.items))),
        }


BUILDERS = {
    "batch_accept": (build_batch, finish_batch),
    "batch_reject": (build_batch, finish_batch),
    "collect_check": (build_collect, finish_collect),
    "stream_watch": (build_stream, finish_stream),
}


def open_runner(name: str, workdir: Path, manifest: Dict[str, Any], size: Size):
    if name in BATCH:
        return BatchRunner(workdir, manifest)
    if name == "collect_check":
        return CollectRunner(workdir, manifest, size)
    return StreamRunner(workdir, manifest, size)
