"""The MTChecker facade: the public entry point of the library.

``MTChecker`` bundles the three verification components of the paper's MTC
tool (MTC-SSER, MTC-SER, MTC-SI) plus the linear-time linearizability
checker for lightweight-transaction histories behind a single ``verify``
call, mirroring Step 4 of the black-box checking workflow (Figure 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Union

from .. import obs
from .checkers import check_level
from .index import HistoryIndex
from .lwt import LWTHistory, check_linearizability
from .model import History
from .result import CheckResult, IsolationLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..history.columnar import ColumnarHistory
    from ..obs.report import VerifyReport
    from .incremental import CheckerSession

__all__ = ["MTChecker"]


class MTChecker:
    """End-to-end verifier for mini-transaction histories.

    Example:
        >>> from repro import MTChecker, IsolationLevel
        >>> from repro.core.anomalies import anomaly_history
        >>> checker = MTChecker()
        >>> result = checker.verify(anomaly_history("LostUpdate"),
        ...                         IsolationLevel.SNAPSHOT_ISOLATION)
        >>> result.satisfied
        False

    Args:
        strict_mt: reject inputs that are not valid mini-transaction
            histories (non-MT transactions or duplicate written values)
            instead of checking them on a best-effort basis (batch only:
            :meth:`session` refuses it).
        workers: ``None`` (the default) runs the classic single-pass serial
            pipeline.  Any integer ``>= 1`` routes batch verification through
            the sharded pipeline of :mod:`repro.parallel`: at SER and SI the
            history is split into key-connected shards, each shard is checked
            independently (``workers`` OS processes when ``> 1``, inline when
            ``1``), and the verdicts are merged; SSER and LIN check serially
            (the real-time order crosses shards).  Sharded verdicts equal
            serial verdicts on every history, and ``workers=1`` vs
            ``workers=k`` produce *identical* results — only where the shard
            checks execute changes.  No command sets it: the pipeline
            benchmark's ``probe_parallel`` is the one caller that keeps it.
    """

    def __init__(
        self,
        *,
        strict_mt: bool = False,
        workers: Optional[int] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive process count (or None)")
        self.strict_mt = strict_mt
        self.workers = workers

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(
        self,
        history: Union[History, LWTHistory, "ColumnarHistory"],
        level: IsolationLevel,
        *,
        report: bool = False,
    ) -> Union[CheckResult, VerifyReport]:
        """Verify ``history`` against ``level`` and return a :class:`CheckResult`.

        For plain histories the shared :class:`HistoryIndex` is built exactly
        once here (:meth:`HistoryIndex.build`) and threaded through every
        stage of the chosen checker — MT validation, the INT pre-pass, the
        DIVERGENCE scan, and BUILDDEPENDENCY all consume the same index.

        A :class:`~repro.history.columnar.ColumnarHistory` segment is
        accepted in place of an object history and takes the same path
        minus the column encoding: the accept path — pre-passes,
        BUILDDEPENDENCY, acyclicity, and parallel shard dispatch — runs
        without materialising ``Transaction`` objects.

        With ``report=True`` the check runs under a scoped telemetry
        registry and returns a :class:`~repro.obs.report.VerifyReport` —
        the same :class:`CheckResult` plus phase timings, graph sizes, and
        executor counters recorded while producing it (rendered by
        ``repro check -v``).
        """
        if report:
            from ..obs.report import VerifyReport

            with obs.scoped() as reg:
                result = self._verify(history, level)
            return VerifyReport(result=result, metrics=reg.snapshot())
        return self._verify(history, level)

    def _verify(
        self,
        history: Union[History, LWTHistory, "ColumnarHistory"],
        level: IsolationLevel,
    ) -> CheckResult:
        if isinstance(history, LWTHistory):
            if level not in (
                IsolationLevel.LINEARIZABILITY,
                IsolationLevel.STRICT_SERIALIZABILITY,
            ):
                raise ValueError(
                    "lightweight-transaction histories are checked against "
                    "linearizability / strict serializability only"
                )
            return check_linearizability(history)

        with obs.phase("index_build"):
            index = HistoryIndex.build(history)
        if self.workers is not None:
            from ..parallel import check_parallel  # deferred: parallel builds on core

            return check_parallel(
                history,
                level,
                workers=self.workers,
                strict_mt=self.strict_mt,
                index=index,
            )

        return check_level(history, level, strict_mt=self.strict_mt, index=index)

    # Convenience aliases matching the paper's component names.
    def check_ser(self, history: History) -> CheckResult:
        """MTC-SER."""
        return self.verify(history, IsolationLevel.SERIALIZABILITY)

    def check_si(self, history: History) -> CheckResult:
        """MTC-SI."""
        return self.verify(history, IsolationLevel.SNAPSHOT_ISOLATION)

    def check_sser(self, history: History) -> CheckResult:
        """MTC-SSER (general MT histories with timestamps)."""
        return self.verify(history, IsolationLevel.STRICT_SERIALIZABILITY)

    def check_linearizability(self, history: LWTHistory) -> CheckResult:
        """MTC-SSER on lightweight-transaction histories (Algorithm 2)."""
        return self.verify(history, IsolationLevel.LINEARIZABILITY)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def session(
        self,
        level: IsolationLevel,
        *,
        initial_keys: Optional[Iterable[str]] = None,
        window: Optional[int] = None,
    ) -> CheckerSession:
        """Open a streaming verification session (incremental checking).

        Instead of re-verifying a growing history from scratch, a session
        ingests transactions one at a time (or as columnar segments), extends
        the dependency graph in place, and reports each violation at the exact
        transaction that introduced it — see
        :class:`repro.core.incremental.CheckerSession` for the
        algorithmic details and the batch-equivalence invariant.

        Example:
            >>> from repro import MTChecker, IsolationLevel, Transaction
            >>> from repro import read, write
            >>> session = MTChecker().session(IsolationLevel.SERIALIZABILITY,
            ...                               initial_keys=["x"])
            >>> session.ingest(Transaction(1, [read("x", 0), write("x", 1)]))
            []
            >>> session.result().satisfied
            True

        Args:
            level: SER, SI, or SSER (LWT histories are batch-only).
            initial_keys: keys of the synthesised initial transaction ``⊥T``;
                alternatively ingest an explicit initial transaction first.
            window: bounded-window mode — garbage-collect transactions once
                ``window`` newer ones have been ingested (see the module
                docstring of :mod:`repro.core.incremental` for the staleness
                contract).

        Raises ``ValueError`` under ``strict_mt``: strict MT validation is
        the batch pre-check of :meth:`verify` only.
        """
        if self.strict_mt:
            raise ValueError("strict MT validation is batch-only; open the session "
                             "from an MTChecker without strict_mt")
        from .incremental import CheckerSession

        return CheckerSession(level, initial_keys=initial_keys, window=window)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    @staticmethod
    def is_mt_history(history: History) -> bool:
        """Whether ``history`` meets Definition 9 (MT history, unique values)."""
        from .mini import validate_mt_history

        return not validate_mt_history(history)
