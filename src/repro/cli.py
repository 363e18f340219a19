"""Command-line interface for the MTC reproduction.

Mirrors how the paper's MTC tool is used in practice: generate a workload
and a history from a (simulated) database, verify saved histories against an
isolation level (``check`` in one pass, ``watch`` as a growing stream), and
inspect the anomaly catalog.

Usage examples::

    # Generate an MT workload, run it against the SI engine, save the history.
    python -m repro generate --isolation si --sessions 8 --txns 100 \
        --objects 50 --distribution zipf --output history.jsonl

    # Collect a history from a real database (SQLite, 4 concurrent client
    # threads) and verify it in the same invocation.
    python -m repro collect --adapter sqlite --sessions 4 --txns 500 --check SER

    # The same with protocol-level fault injection: a healthy engine whose
    # clients are lied to, detected end-to-end from the history alone.
    python -m repro collect --adapter sqlite --chaos lost-write --check SER

    # Generate a history from a buggy database (lost-update defect).
    python -m repro generate --isolation si --fault lostupdate --fault-rate 0.5 \
        --output buggy.jsonl

    # Verify a saved history.
    python -m repro check --level si history.jsonl
    python -m repro check --level ser buggy.jsonl

    # Verify a stream incrementally, reporting each violation at the
    # transaction that introduced it (--once: stop at end of file).
    python -m repro watch --level si --once history.jsonl

    # Columnar segments: the binary fast path (gzip optional via .gz).
    python -m repro generate --isolation si --output history.seg
    python -m repro check --level si history.seg
    python -m repro convert history.seg history.jsonl.gz

    # Show the canonical MT history for an anomaly.
    python -m repro anomaly LostUpdate
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import threading
import time
from typing import TYPE_CHECKING, Optional, Sequence

# A command imports the modules it runs inside its handler: `repro check
# x.seg` loads neither the simulator nor the collectors, `--version` no checker.
from . import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.result import IsolationLevel
    from .history.epochlog import EpochLog

__all__ = ["main", "build_parser"]

#: ``--level`` choice -> :class:`~repro.core.result.IsolationLevel` member.
_LEVELS = {
    "si": "SNAPSHOT_ISOLATION",
    "ser": "SERIALIZABILITY",
    "sser": "STRICT_SERIALIZABILITY",
}


def _level(name: str) -> IsolationLevel:
    from .core.result import IsolationLevel

    return IsolationLevel[_LEVELS[name]]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Black-box isolation checking with mini-transactions (MTC reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser("check", help="verify a saved history against an isolation level")
    check.add_argument(
        "history",
        help="path to a history: .jsonl[.gz] stream, "
        ".seg[.gz] columnar segment, or .epochs/ epoch-log directory",
    )
    check.add_argument("--level", choices=sorted(_LEVELS), default="ser", help="isolation level to check")
    check.add_argument("--strict-mt", action="store_true", help="reject non-MT histories")
    check.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "shard the history by key connectivity and check the "
            "shards in N parallel processes (N=1 runs the sharded pipeline "
            "inline; verdicts are identical for every N)"
        ),
    )
    check.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print phase timings, graph sizes, and executor counters "
        "alongside the verdict",
    )
    check.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append structured JSONL span traces to PATH",
    )

    watch = subparsers.add_parser(
        "watch",
        help="follow a growing JSONL stream or epoch-log directory and "
        "verify it incrementally (epoch logs resume from checkpoints)",
    )
    watch.add_argument(
        "history",
        help="path to a JSONL history stream or an .epochs/ epoch-log "
        "directory (either may still be growing)",
    )
    watch.add_argument("--level", choices=sorted(_LEVELS), default="ser", help="isolation level to check")
    watch.add_argument("--window", type=int, default=None, help="bound the graph to the last N transactions")
    watch.add_argument("--once", action="store_true", help="stop at end of file instead of following")
    watch.add_argument("--interval", type=float, default=0.5, help="poll interval in seconds while following")
    watch.add_argument(
        "--max-seconds", type=float, default=None, help="stop following after this many seconds"
    )
    watch.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="epoch logs only: snapshot the verifier into the log every N "
        "epochs (and once at exit), enabling crash-safe resume",
    )
    watch.add_argument(
        "--no-resume",
        action="store_true",
        help="epoch logs only: ignore existing checkpoints and replay from epoch 0",
    )
    watch.add_argument(
        "--retire",
        action="store_true",
        help="epoch logs only: delete epoch files once they age out of "
        "--window (requires --window and --checkpoint-every)",
    )
    watch.add_argument(
        "--metrics-file",
        default=None,
        metavar="PATH",
        help="write an atomic Prometheus-textfile metrics snapshot to PATH "
        "every --metrics-every seconds, plus a one-line heartbeat "
        "(epoch lag, txns/s, verdict) on stderr",
    )
    watch.add_argument(
        "--metrics-every",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="metrics snapshot / heartbeat cadence (default: 5)",
    )
    watch.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append structured JSONL span traces to PATH",
    )

    generate = subparsers.add_parser(
        "generate", help="generate an MT workload, execute it on the simulator, and save the history"
    )
    generate.add_argument("--isolation", default="si", help="database engine (si, serializable, s2pl, read-committed)")
    generate.add_argument("--sessions", type=int, default=8)
    generate.add_argument("--txns", type=int, default=100, help="transactions per session")
    generate.add_argument("--objects", type=int, default=50)
    generate.add_argument("--distribution", default="uniform", help="uniform, zipf, hotspot, or exp")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--fault", default=None, help="inject a defect (lostupdate, writeskew, staleread, abortedread)")
    generate.add_argument("--fault-rate", type=float, default=0.3)
    generate.add_argument(
        "--output",
        required=True,
        help="where to write the history (.jsonl[.gz], .seg[.gz], "
        "or an .epochs/ epoch-log directory)",
    )
    generate.add_argument(
        "--epoch-txns",
        type=int,
        default=1024,
        help="epoch-log outputs only: transactions per sealed epoch segment",
    )

    collect = subparsers.add_parser(
        "collect",
        help="execute a workload against a real database through an adapter "
        "(sessions run on worker threads; coroutines for the simulator) "
        "and record/verify the observed history",
    )
    collect.add_argument(
        "--adapter",
        choices=["sqlite", "simulated"],
        default="sqlite",
        help="database adapter (sqlite = real engine via stdlib sqlite3)",
    )
    collect.add_argument("--sessions", type=int, default=4, help="client sessions in the workload")
    collect.add_argument("--txns", type=int, default=100, help="transactions per session")
    collect.add_argument("--objects", type=int, default=50)
    collect.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        metavar="M",
        help="sessions running at once (worker threads or coroutines)",
    )
    collect.add_argument(
        "--traffic",
        choices=["steady", "bursty", "churn"],
        default=None,
        help="arrival-time shape for session transactions (default: "
        "as-fast-as-possible)",
    )
    collect.add_argument(
        "--think-time",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="with --traffic: mean exponential think time between a "
        "session's transactions",
    )
    collect.add_argument("--distribution", default="uniform", help="uniform, zipf, hotzipf, hotspot, or exp")
    collect.add_argument("--workload", choices=["mt", "gt"], default="mt", help="mini- or general-transaction workload")
    collect.add_argument("--seed", type=int, default=0)
    collect.add_argument("--max-retries", type=int, default=3, help="retries per aborted transaction")
    collect.add_argument(
        "--txn-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abandon a session whose transaction attempt hangs longer "
        "than SECONDS (recorded as UNKNOWN) instead of blocking the run",
    )
    collect.add_argument(
        "--isolation", default="si", help="simulated adapter only: engine (si, serializable, s2pl, read-committed)"
    )
    collect.add_argument("--db-path", default=None, help="sqlite only: database file (default: a private temp file)")
    collect.add_argument(
        "--mode", choices=["immediate", "deferred"], default="immediate", help="sqlite only: BEGIN mode"
    )
    collect.add_argument("--wal", action="store_true", help="sqlite only: write-ahead-log journal mode")
    collect.add_argument(
        "--busy-timeout-ms", type=int, default=2000, help="sqlite only: lock wait before a retryable abort"
    )
    collect.add_argument(
        "--chaos",
        choices=["lost-write", "stale-read", "duplicate-commit"],
        default=None,
        help="inject a protocol-boundary fault between the clients and the (healthy) database",
    )
    collect.add_argument("--chaos-rate", type=float, default=0.2)
    collect.add_argument(
        "--check",
        metavar="LEVEL",
        default=None,
        help="verify the collected history in the same invocation (si, ser, or sser; case-insensitive)",
    )
    collect.add_argument(
        "--workers",
        type=int,
        default=None,
        help="with --check: verify through the sharded parallel pipeline",
    )
    collect.add_argument(
        "--output",
        default=None,
        help="where to save the history (.jsonl[.gz], .seg[.gz], "
        "or an .epochs/ epoch-log directory)",
    )
    collect.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append structured JSONL span traces to PATH",
    )

    convert = subparsers.add_parser(
        "convert",
        help="convert a history between formats "
        "(.jsonl[.gz] / .seg[.gz] / .epochs), losslessly",
    )
    convert.add_argument("input", help="source history file (format inferred from suffix)")
    convert.add_argument("output", help="destination history file (format inferred from suffix)")
    convert.add_argument(
        "--epoch-txns",
        type=int,
        default=1024,
        help="epoch-log outputs only: transactions per sealed epoch segment",
    )

    anomaly = subparsers.add_parser("anomaly", help="print a canonical anomaly history from the catalog")
    anomaly.add_argument("name", nargs="?", default=None, help="anomaly name (omit to list all)")

    return parser


def _cmd_check(args: argparse.Namespace) -> int:
    from .core.checker import MTChecker
    from .history.files import load_columns

    checker = MTChecker(strict_mt=args.strict_mt, workers=args.workers)
    result = checker.verify(
        load_columns(args.history), _level(args.level), report=args.verbose
    )
    print(result.format())
    return 0 if result.satisfied else 1


def _ingest_epoch(session, segment, base: int) -> int:
    """Feed one segment into a checker session, printing labelled violations.

    Labels are ``initial`` for ``⊥T``, else ``txn #N`` — the zero-based
    index among non-initial transactions in arrival order.  ``base`` is how
    many of those were ingested before this segment, so the numbering
    continues across segments; returns how many this segment added.
    """
    from .core.model import INITIAL_TXN_ID

    offset = 1 if segment.has_initial else 0

    def report(row: int, violations) -> None:
        if segment.txn_ids[row] == INITIAL_TXN_ID:
            label = "initial"
        else:
            label = f"txn #{base + row - offset}"
        for violation in violations:
            print(f"[{label}] {violation.format()}", flush=True)

    session.ingest_segment(segment, on_row_violations=report)
    return segment.num_transactions - offset


def _finish_stream(session) -> int:
    """Print the final verdict (and window-completeness warning); exit code."""
    result = session.result()
    print(result.format())
    if session.stale_reads:
        print(
            f"warning: {session.stale_reads} reads fell outside the "
            f"window; enlarge --window for a complete verdict"
        )
    return 0 if result.satisfied else 1


class _WatchTelemetry:
    """The watch service's metrics surface (``--metrics-file``).

    Activates the process-wide registry so every instrumented layer under
    the watch loop — epoch log, incremental checker, index — records into
    it, then periodically (``--metrics-every``) publishes the checker
    gauges, atomically rewrites the Prometheus textfile, and emits a
    one-line heartbeat on stderr.  The follow loop publishes its last state
    on its way out and :meth:`close` writes it once, so the final state is
    scrape-able after every exit.
    """

    def __init__(self, metrics_file: str, every: float) -> None:
        self.metrics_file = metrics_file
        self.every = every
        self.registry = obs.enable(fresh=True)
        self._last_update = float("-inf")
        self._beat_txns = 0
        self._beat_time = time.monotonic()

    def update(self, session, ingested: int, lag: int) -> None:
        """Publish and write a snapshot once ``--metrics-every`` has passed."""
        if time.monotonic() - self._last_update < self.every:
            return
        self.publish(session, ingested, lag)
        obs.write_textfile(self.metrics_file, self.registry)

    def publish(self, session, ingested: int, lag: int) -> None:
        """Set the checker and follower gauges; print the heartbeat."""
        now = time.monotonic()
        self._last_update = now
        session.publish_metrics()
        reg = self.registry
        reg.set_gauge("repro_watch_epoch_lag", lag)
        reg.set_gauge("repro_watch_txns_ingested", ingested)
        reg.inc("repro_watch_heartbeats_total")
        rate = (ingested - self._beat_txns) / max(now - self._beat_time, 1e-9)
        verdict = "ok" if session.satisfied else "violated"
        print(
            f"[watch] txns={ingested} lag={lag} rate={rate:.0f}/s "
            f"verdict={verdict}",
            file=sys.stderr,
            flush=True,
        )
        self._beat_txns = ingested
        self._beat_time = now

    def close(self) -> None:
        """The one final write, then switch the registry off again."""
        obs.write_textfile(self.metrics_file, self.registry)
        obs.disable()


class _StopFlag:
    """Set by SIGINT / SIGTERM; the follow loop reads it between segments."""

    requested = False

    def __call__(self, *_signal: object) -> None:
        self.requested = True


@contextlib.contextmanager
def _stop_on_signals(stop: _StopFlag):
    """Route SIGINT and SIGTERM to ``stop`` inside the block, then restore
    the previous handlers.  Only the main thread may install handlers; off
    it (``main()`` called from a worker thread) nothing is routed.  A signal
    the parent ignores stays ignored: a shell runs a ``&`` job with SIGINT
    ignored, so the terminal's Ctrl-C reaches only the foreground."""
    import signal

    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = {
        signum: signal.signal(signum, stop)
        for signum in (signal.SIGINT, signal.SIGTERM)
        if signal.getsignal(signum) is not signal.SIG_IGN
    }
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _final_checkpoint(log, session, args, ingested: int) -> bool:
    """Snapshot the verified tail so the next invocation resumes there.

    Only when ``--checkpoint-every`` is active, something was ingested, and
    the tail is not already covered by a cadence checkpoint (the epoch count
    need not be a multiple of the cadence).  Returns whether one was written.
    """
    epochs = log.position
    if not args.checkpoint_every or epochs <= 0 or epochs % args.checkpoint_every == 0:
        return False
    log.save_checkpoint(session.checkpoint(), epochs=epochs, transactions=ingested)
    return True


def _cmd_watch(args: argparse.Namespace) -> int:
    """Follow a growing JSONL stream or epoch log, verifying incrementally.

    An epoch log is the durable service: it resumes from its newest valid
    checkpoint, snapshots the verifier back into the log every
    ``--checkpoint-every`` epochs (and once at exit), and — with
    ``--retire`` — deletes epoch files once every row in them has aged out
    of the ``--window`` bound.  A verifier killed at any point restarts
    from the newest checkpoint and reaches the same verdict as an
    uninterrupted run, so restarting is running ``watch`` again.  SIGINT
    and SIGTERM stop it at the next segment boundary with a final
    checkpoint and the verdict over what was verified.
    """
    from .core.checker import MTChecker
    from .history.epochlog import EpochLog
    from .history.files import StreamFollower, history_format

    kind = history_format(args.history)
    if kind == "segment":
        print(
            "error: columnar segments are written atomically and cannot be "
            "followed; use `repro check` (or write the history as an "
            ".epochs/ epoch log to follow it durably)"
        )
        return 2
    if kind == "stream" and (args.checkpoint_every is not None or args.no_resume or args.retire):
        print(
            "error: --checkpoint-every/--no-resume/--retire apply to epoch "
            "log directories; JSONL streams are followed without checkpoints"
        )
        return 2
    if args.retire and (args.window is None or not args.checkpoint_every):
        print(
            "error: --retire deletes replay state, so it requires both "
            "--window (bounded verifier) and --checkpoint-every (resume point)"
        )
        return 2
    telemetry = (
        _WatchTelemetry(args.metrics_file, args.metrics_every)
        if args.metrics_file
        else None
    )
    stop = _StopFlag()
    level = _level(args.level)
    try:
        with _stop_on_signals(stop):
            if kind == "stream":
                session = MTChecker().session(level, window=args.window)
                with StreamFollower(args.history) as stream:
                    if not _follow(args, stop, telemetry, stream, session, 0):
                        return 2
                    if stream.done:
                        # Torn gzip tail: the compressed stream ends mid-member
                        # (a live writer has not emitted the trailer yet).  gzip
                        # cannot resume a broken member, so stop at the
                        # verified prefix.
                        print(
                            "warning: compressed stream is truncated mid-member "
                            "(producer still writing?); stopping at the last "
                            "complete transaction"
                        )
                    if stream.pending_bytes:
                        print(f"warning: ignoring incomplete trailing line ({stream.pending_bytes} bytes)")
                return _finish_stream(session)
            log = EpochLog.open(args.history)
            resumed = _resume(log, args, level)
            if resumed is None or not _follow(args, stop, telemetry, log, *resumed):
                return 2
            return _finish_stream(resumed[0])
    finally:
        if telemetry is not None:
            telemetry.close()


def _resume(log: EpochLog, args: argparse.Namespace, level: IsolationLevel):
    """Open the verifier for ``log`` from its newest usable checkpoint.

    Returns ``(session, transactions already ingested)`` with
    ``log.position`` set past the epochs the checkpoint covers (a fresh
    session at epoch 0 when there is nothing to resume from), or ``None``
    when retired epochs make the verdict unrecoverable — the refusal has
    been printed.
    """
    from .core.checker import MTChecker
    from .core.incremental import CheckerSession

    session, ingested = None, 0
    skipped = ""  # why the newest checkpoint on disk could not be used
    for resume in () if args.no_resume else log.checkpoints():
        try:
            restored = CheckerSession.restore(resume.state)
            if restored.level is not level or restored.window != args.window:
                raise ValueError("taken with different --level/--window settings")
        except ValueError as exc:
            # Another build's state format, a damaged state, other settings:
            # a miss, like a torn file — try the older kept one, then replay.
            skipped = skipped or f" (checkpoint at epoch {resume.epochs}: {exc})"
            print(f"note: skipping checkpoint at epoch {resume.epochs}: {exc}")
            continue
        session, log.position, ingested = restored, resume.epochs, resume.transactions
        print(  # committed transactions, as the verdict counts them
            f"resumed from checkpoint: {resume.epochs} epochs "
            f"({restored.num_ingested} transactions) already verified"
        )
        break
    if log.retired_through >= log.position:
        print(
            f"error: {args.history}: epochs 0..{log.retired_through} were "
            f"retired by window GC and no usable checkpoint covers them{skipped}; "
            "the verdict cannot be recovered from this log"
        )
        return None
    if session is None:
        if skipped:
            print("note: no usable checkpoint; replaying from epoch 0")
        session = MTChecker().session(level, window=args.window)
    return session, ingested


def _follow(args, stop: _StopFlag, telemetry, source, session, ingested: int) -> bool:
    """The follow loop: ingest what ``source`` has, wait, look again.

    ``source`` is anything with ``poll()`` (the next segment, or ``None``),
    ``refresh()`` (look for more; raises ``ValueError`` when the source is
    gone), ``position`` (segments handed out), ``lag`` and ``done`` — a
    :class:`StreamFollower` or an :class:`EpochLog`.  ``ingested`` counts
    the non-initial transactions verified before this call (labeling).
    Checkpoints and retirement are selected by their flags, which
    ``_cmd_watch`` accepts for epoch logs only.  When ``stop.requested``
    flips, the loop exits at the next segment boundary — never mid-epoch,
    so any checkpoint it flushes describes a prefix of fully-ingested
    epochs.  Returns ``False`` when the source was lost (the diagnostic has
    been printed; exit 2).
    """
    from .history.epochlog import EpochLog

    started = time.monotonic()
    try:
        while True:
            while not stop.requested:
                segment = source.poll()
                if segment is None:
                    break
                ingested += _ingest_epoch(session, segment, ingested)
                epochs = source.position  # segments fully ingested so far
                if args.checkpoint_every and epochs % args.checkpoint_every == 0:
                    source.save_checkpoint(
                        session.checkpoint(), epochs=epochs, transactions=ingested
                    )
                    if args.retire:
                        _retire_behind_window(source, args.window, epochs)
                if isinstance(source, EpochLog):
                    # Seal to verdict, on the collector's and this host's wall
                    # clocks; a stream has no record of when a row was written.
                    sealed_at = source.epochs[epochs - 1].sealed_at
                    obs.observe("repro_verdict_latency_seconds", time.time() - sealed_at / 1000)
                if telemetry is not None:
                    telemetry.update(session, ingested, source.lag)
            if args.once or stop.requested or source.done:
                break
            if args.max_seconds is not None and time.monotonic() - started >= args.max_seconds:
                break
            time.sleep(args.interval)
            if stop.requested:
                break
            try:
                source.refresh()
            except ValueError as exc:
                print(f"error: {exc}")
                # The diagnostic is fatal, but the verified prefix is not:
                # persist it (best-effort — the log directory itself may be
                # gone) so the next invocation resumes instead of replaying.
                try:
                    if _final_checkpoint(source, session, args, ingested):
                        print(f"flushed final checkpoint at epoch {source.position}", flush=True)
                except OSError as flush_exc:
                    print(f"warning: could not flush final checkpoint: {flush_exc}")
                return False
        if stop.requested:
            print(f"stop requested; exiting at epoch boundary {source.position}", flush=True)
        _final_checkpoint(source, session, args, ingested)
        return True
    finally:
        if telemetry is not None:
            telemetry.publish(session, ingested, source.lag)


def _retire_behind_window(log: EpochLog, window: int, ingested_epochs: int) -> None:
    """Drop epoch files whose every row has aged out of the GC window.

    Walks back from the newest ingested epoch accumulating row counts; the
    first epoch with at least ``window`` rows *after* it (and everything
    older) can never be consulted again by a windowed verifier resuming
    from the checkpoint just written, so its file is safe to delete.
    """
    rows_after = 0
    retire_to = -1
    for position in range(ingested_epochs - 1, -1, -1):
        if rows_after >= window:
            retire_to = position
            break
        rows_after += log.epochs[position].transactions
    if retire_to > log.retired_through:
        removed = log.retire_through(retire_to)
        if removed:
            print(
                f"retired {removed} epoch file(s) through epoch "
                f"{retire_to} (aged out of --window {window})",
                flush=True,
            )


def _cmd_generate(args: argparse.Namespace) -> int:
    from .db.database import Database
    from .db.faults import FaultPlan
    from .history.files import write_history
    from .workloads.mt_generator import MTWorkloadGenerator
    from .workloads.runner import run_workload

    generator = MTWorkloadGenerator(
        num_sessions=args.sessions,
        txns_per_session=args.txns,
        num_objects=args.objects,
        distribution=args.distribution,
        seed=args.seed,
    )
    workload = generator.generate()
    faults = (
        FaultPlan.for_anomaly(args.fault, rate=args.fault_rate, seed=args.seed)
        if args.fault
        else None
    )
    database = Database(args.isolation, keys=workload.keys, faults=faults)
    run = run_workload(database, workload, seed=args.seed + 1)
    write_history(run.history, args.output, epoch_transactions=args.epoch_txns)
    print(
        f"generated {run.stats.committed} committed / {run.stats.aborted} aborted "
        f"transactions (abort rate {run.stats.abort_rate:.1%}) -> {args.output}"
    )
    if database.injected_anomalies:
        fired = {name: count for name, count in database.injected_anomalies.items() if count}
        print(f"injected defects: {fired}")
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    import asyncio

    from .adapters import AsyncDatabaseAdapter, collect_history, make_adapter
    from .core.checker import MTChecker
    from .history.files import write_history
    from .workloads.gt_generator import GTWorkloadGenerator
    from .workloads.mt_generator import MTWorkloadGenerator
    from .workloads.spec import make_traffic_shape

    if args.check is None and args.output is None:
        print("error: nothing to do; pass --check LEVEL and/or --output PATH")
        return 2
    if args.check is not None and args.check.lower() not in _LEVELS:
        print(f"error: unknown isolation level {args.check!r}; known: {', '.join(sorted(_LEVELS))}")
        return 2
    if args.workers is not None and args.check is None:
        print("error: --workers applies to verification; pass --check LEVEL")
        return 2

    generator = MTWorkloadGenerator if args.workload == "mt" else GTWorkloadGenerator
    workload = generator(
        num_sessions=args.sessions,
        txns_per_session=args.txns,
        num_objects=args.objects,
        distribution=args.distribution,
        seed=args.seed,
    ).generate()
    if args.traffic is not None:
        workload.traffic = make_traffic_shape(
            args.traffic, think_time=args.think_time, seed=args.seed
        )

    with contextlib.ExitStack() as teardown:
        adapter = make_adapter(
            args.adapter,
            isolation=args.isolation,
            path=args.db_path,
            mode=args.mode,
            wal=args.wal,
            busy_timeout_ms=args.busy_timeout_ms,
            chaos=args.chaos,
            chaos_rate=args.chaos_rate,
            seed=args.seed,
        )
        # collect_history picks the collector by the same test.
        if isinstance(adapter, AsyncDatabaseAdapter):
            teardown.callback(asyncio.run, adapter.teardown())
            mode = "coroutine"
        else:
            teardown.enter_context(adapter)
            mode = "threaded"
        result = collect_history(
            adapter,
            workload,
            max_retries=args.max_retries,
            txn_deadline=args.txn_deadline,
            max_inflight=args.max_inflight,
        )
    stats = result.stats
    print(
        f"collected {stats.committed} committed / {stats.aborted} aborted "
        f"transactions from {result.adapter_name} with {args.sessions} "
        f"{mode} sessions in {stats.wall_seconds:.2f}s "
        f"(abort rate {stats.abort_rate:.1%})"
    )
    planned = workload.num_transactions
    if stats.committed < planned:
        print(
            f"warning: {planned - stats.committed} of {planned} planned "
            "transactions did not commit (retries exhausted)"
        )
    if result.unknown:
        print(
            f"warning: {result.unknown} session(s) abandoned after "
            f"--txn-deadline {args.txn_deadline}s; their last transactions "
            "are recorded with status UNKNOWN"
        )
    if args.chaos is not None:
        fired = {
            name: count
            for name, count in adapter.injections.items()
            if count
        }
        print(f"injected chaos: {fired or 'none fired'}")

    # Both collectors record columns: what the writers and the checker
    # consume, with no Transaction object built on the way.
    history = result.columns
    if args.output is not None:
        write_history(history, args.output)
        print(f"wrote {args.output}")

    if args.check is None:
        return 0
    checker = MTChecker(workers=args.workers)
    verdict = checker.verify(history, _level(args.check.lower()))
    print(verdict.format())
    return 0 if verdict.satisfied else 1


def _cmd_convert(args: argparse.Namespace) -> int:
    """Lossless conversion between the three history containers: the
    source's segments go to the destination's writer as columns, in arrival
    order, so conversions round-trip byte for byte."""
    from .history.files import read_segments, write_history

    source, destination = args.input, args.output
    if os.path.exists(destination) and os.path.samefile(source, destination):
        # Sources are read lazily while the destination is being written.
        print(f"error: {source}: cannot convert a history onto itself")
        return 2

    count = write_history(read_segments(source), destination, epoch_transactions=args.epoch_txns)
    print(f"converted {source} -> {destination} ({count} transactions)")
    return 0


def _cmd_anomaly(args: argparse.Namespace) -> int:
    from .core.anomalies import ANOMALY_NAMES, anomaly_catalog

    catalog = anomaly_catalog()
    if args.name is None:
        for name, spec in catalog.items():
            levels = "SER" + (", SI" if spec.violates_si else "")
            print(f"{name:28s} violates {levels:9s} — {spec.description}")
        return 0
    if args.name not in catalog:
        print(f"unknown anomaly {args.name!r}; known anomalies: {', '.join(ANOMALY_NAMES)}")
        return 2
    spec = catalog[args.name]
    history = spec.build()
    print(f"{args.name}: {spec.description}")
    for txn in history.transactions(include_initial=False):
        status = "" if txn.committed else "  [aborted]"
        print(f"  session {txn.session_id}: {txn}{status}")
    return 0


def _at_least(least: int):
    return lambda value: value >= least, f"at least {least}"


_POSITIVE = (lambda value: value > 0, "positive")
_PROBABILITY = (lambda value: 0 <= value <= 1, "in [0, 1]")

#: Every bounded numeric flag of every command: flag -> (test, requirement).
#: A flag the parsed command lacks, or left unset, is skipped; NaN fails
#: every test.  A mini-transaction reads and writes two distinct objects.
_BOUNDS = {
    "--workers": _at_least(1),
    "--window": _at_least(1),
    "--checkpoint-every": _at_least(1),
    "--interval": _at_least(0),
    "--max-seconds": _at_least(0),
    "--metrics-every": _at_least(0),
    "--sessions": _POSITIVE,
    "--txns": _POSITIVE,
    "--objects": _at_least(2),
    "--fault-rate": _PROBABILITY,
    "--epoch-txns": _POSITIVE,
    "--max-inflight": _POSITIVE,
    "--think-time": _at_least(0),
    "--max-retries": _at_least(0),
    "--txn-deadline": _POSITIVE,
    "--busy-timeout-ms": _at_least(0),
    "--chaos-rate": _PROBABILITY,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    # Refused before the command runs, so nothing is printed or written first.
    for flag, (accepts, requirement) in _BOUNDS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and not accepts(value):
            print(f"error: {flag} must be {requirement}, got {value}")
            return 2
    paths = [path for path in (getattr(args, name, None) for name in ("history", "input", "output")) if path]
    if paths:
        from .history.files import history_format

        try:
            for path in paths:
                history_format(path)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
    trace_path = getattr(args, "trace", None)
    if trace_path:
        obs.start_trace(trace_path)
    try:
        with obs.trace_span(args.command):
            if args.command == "check":
                return _cmd_check(args)
            if args.command == "watch":
                return _cmd_watch(args)
            if args.command == "generate":
                return _cmd_generate(args)
            if args.command == "collect":
                return _cmd_collect(args)
            if args.command == "convert":
                return _cmd_convert(args)
            if args.command == "anomaly":
                return _cmd_anomaly(args)
    except BrokenPipeError:
        return 1  # stdout consumer (e.g. `| head`) went away mid-report
    except KeyboardInterrupt:
        # Ctrl-C (`watch` turns it into a clean stop instead): a half-written
        # output was already removed on the way out, by `write_history`.
        print("error: interrupted")
        return 130
    except (OSError, EOFError) as exc:
        # EOFError: a gzip stream cut off mid-member (EOFError is not an
        # OSError even though gzip raises it for I/O-shaped corruption).
        print(f"error: {exc}")
        return 2
    except ValueError as exc:
        # Bad file format, malformed JSON, or invalid option combination;
        # the message names the input when the raiser named no path.
        path = args.input if args.command == "convert" else getattr(args, "history", None)
        named = path is None or any(str(p) in str(exc) for p in (path, getattr(args, "output", None)) if p)
        print(f"error: {exc}" if named else f"error: {path}: {exc}")
        return 2
    finally:
        if trace_path:
            obs.stop_trace()
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
