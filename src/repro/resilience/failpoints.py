"""Deterministic failpoint injection (in the spirit of etcd/TiKV gofail).

A *failpoint* is a named hook compiled into a hot IO/IPC boundary —
``fail_point("epochlog.seal.fsync")`` — that does nothing in production
and, when a matching rule is armed, injects a fault: raise an error,
delay, truncate a file that was just written, or kill the process
outright.  The crash-recovery suites stop hand-crafting torn files and
instead arm a rule and run the real code path.

Design constraints, in order:

* **Zero overhead disarmed.**  :func:`fail_point` is one module-global
  load and a ``None`` check when no plan is armed — the same discipline
  as the :mod:`repro.obs` fast path, enforced by the allocation test in
  ``tests/test_resilience.py``.
* **Deterministic.**  Probabilistic rules draw from a per-site
  ``random.Random`` seeded by ``seed ^ crc32(site)``, so a failure
  schedule replays exactly from ``(spec, seed)``.
* **Process-inheritable.**  Arming with ``export=True`` (or launching
  with ``REPRO_FAILPOINTS`` set) publishes the spec through the
  environment; pool workers re-arm from the environment in their
  initializer, so rules reach spawned *and* forked workers alike.

Rule grammar (``REPRO_FAILPOINTS`` and :func:`configure`)::

    SITE=[COUNT*]ACTION[(ARG)][@PROB] [; SITE=RULE ...]

    epochlog.seal.fsync=1*raise            # raise once, then disarm
    columnar.segment.load=delay(0.05)      # 50ms on every load
    epochlog.seal.tmp_write=truncate(7)    # tear 7 bytes off the file
    executor.shard.task=kill@0.5           # SIGKILL-style exit, p=0.5

Actions: ``raise[(message)]`` (raises :class:`FailpointError`, an
``OSError`` so injected faults travel the same recovery paths as real
ones), ``delay(seconds)``, ``truncate(nbytes)`` (shortens the file whose
path the site passes, then raises — a torn write never returns success;
plain ``raise`` at sites without a file), ``kill`` (``os._exit(137)`` —
the process vanishes mid-operation), and ``noop`` (fires and counts,
injects nothing; for coverage assertions).
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from contextlib import contextmanager
from random import Random
from typing import Dict, Iterator, Optional, Tuple

from .. import obs

__all__ = [
    "ENV_VAR",
    "FAILPOINT_SITES",
    "FailpointError",
    "activate_from_env",
    "active_spec",
    "configure",
    "deactivate",
    "fail_point",
    "fired",
    "scoped",
]

ENV_VAR = "REPRO_FAILPOINTS"
ENV_SEED_VAR = "REPRO_FAILPOINTS_SEED"

#: Registered sites: name -> where it fires.  :func:`configure` rejects
#: unknown sites so a typo in a chaos spec fails fast instead of silently
#: testing nothing; the ARCHITECTURE.md catalog renders this table.
FAILPOINT_SITES: Dict[str, str] = {
    "epochlog.seal.tmp_write": (
        "after the epoch temp file is written, before fsync "
        "(truncate => torn unsealed epoch)"),
    "epochlog.seal.fsync": (
        "around the epoch temp-file fsync (raise => seal fails cleanly)"),
    "epochlog.seal.rename": (
        "before the segment rename that publishes the epoch file"),
    "epochlog.manifest.commit": (
        "before the record append that commits a sealed epoch "
        "(kill => sealed-but-unrecorded orphan, adopted on recovery)"),
    "epochlog.manifest.fsync": (
        "between the record append and its fsync "
        "(truncate => torn record, the epoch is adopted from its file)"),
    "epochlog.checkpoint.save": (
        "before a verifier checkpoint is atomically persisted"),
    "columnar.segment.write": (
        "after a columnar segment file is fully written "
        "(truncate => torn segment)"),
    "columnar.segment.load": (
        "on every columnar segment load, epochs included"),
    "executor.pool.spawn": (
        "before the persistent worker pool is created"),
    "executor.shard.task": (
        "at the top of every shard check task (parent inline and workers)"),
    "executor.wire.return": (
        "before a shard outcome is returned across the process boundary"),
    "sqlite.commit": (
        "before COMMIT is issued on a SQLite session "
        "(raise => retryable adapter abort)"),
    "collector.txn.attempt": (
        "at the start of every collector transaction attempt"),
}

_ACTIONS = ("raise", "delay", "truncate", "kill", "noop")


class FailpointError(OSError):
    """The error injected by a ``raise`` rule.

    An ``OSError`` subclass on purpose: injected faults must travel the
    exact recovery paths real IO failures do (epoch-log prefix recovery,
    the CLI's ``error:`` exit-2 handler, checkpoint resume).
    """


class _Rule:
    __slots__ = ("site", "action", "arg", "limit", "prob", "rng", "fired")

    def __init__(self, site: str, action: str, arg, limit: Optional[int], prob: float, seed: int):
        self.site = site
        self.action = action
        self.arg = arg
        self.limit = limit
        self.prob = prob
        self.rng = Random(seed ^ zlib.crc32(site.encode("utf-8")))
        self.fired = 0


class _Plan:
    """An armed set of rules; at most one is active per process."""

    def __init__(self, spec: str, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self._lock = threading.Lock()
        self._rules: Dict[str, _Rule] = {}
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            rule = _parse_rule(clause, seed)
            self._rules[rule.site] = rule

    def fired(self, site: str) -> int:
        rule = self._rules.get(site)
        return rule.fired if rule is not None else 0

    def hit(self, site: str, path) -> None:
        rule = self._rules.get(site)
        if rule is None:
            return
        with self._lock:
            if rule.limit is not None and rule.fired >= rule.limit:
                return
            if rule.prob < 1.0 and rule.rng.random() >= rule.prob:
                return
            rule.fired += 1
        obs.inc("repro_resilience_failpoints_fired_total", site=site)
        if rule.action == "raise":
            raise FailpointError(
                rule.arg or f"injected failure at failpoint {site!r}"
            )
        if rule.action == "delay":
            time.sleep(float(rule.arg))
        elif rule.action == "truncate":
            if path is not None and os.path.exists(path):
                size = os.path.getsize(path)
                os.truncate(path, max(size - int(rule.arg), 0))
            raise FailpointError(
                f"injected torn write at failpoint {site!r}"
            )
        elif rule.action == "kill":
            os._exit(137)


def _parse_rule(clause: str, seed: int) -> _Rule:
    site, sep, rule_text = clause.partition("=")
    site = site.strip()
    if not sep or not rule_text.strip():
        raise ValueError(f"failpoint clause {clause!r} is not SITE=RULE")
    if site not in FAILPOINT_SITES:
        raise ValueError(
            f"unknown failpoint site {site!r}; registered sites: "
            f"{', '.join(sorted(FAILPOINT_SITES))}"
        )
    rule_text = rule_text.strip()
    prob = 1.0
    if "@" in rule_text:
        rule_text, _, prob_text = rule_text.rpartition("@")
        prob = float(prob_text)
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"failpoint probability {prob} not in [0, 1]")
    limit: Optional[int] = None
    if "*" in rule_text:
        count_text, _, rule_text = rule_text.partition("*")
        limit = int(count_text)
        if limit < 1:
            raise ValueError(f"failpoint count {limit} must be >= 1")
    action, arg = rule_text.strip(), None
    if "(" in action:
        action, _, arg_text = action.partition("(")
        if not arg_text.endswith(")"):
            raise ValueError(f"unterminated argument in failpoint rule {clause!r}")
        arg = arg_text[:-1]
    if action not in _ACTIONS:
        raise ValueError(
            f"unknown failpoint action {action!r}; known: {', '.join(_ACTIONS)}"
        )
    if action == "delay":
        arg = float(arg if arg is not None else 0.01)
    elif action == "truncate":
        arg = int(arg if arg is not None else 1)
    return _Rule(site, action, arg, limit, prob, seed)


#: The armed plan, or ``None``.  Disarmed is the production state: the
#: :func:`fail_point` fast path must stay one load + one branch.
_PLAN: Optional[_Plan] = None
_EXPORTED = False


def fail_point(site: str, path=None) -> None:
    """Fire the failpoint at ``site`` (no-op unless a rule is armed).

    ``path`` is the file the surrounding code just wrote, when there is
    one — the ``truncate`` action tears bytes off it.
    """
    plan = _PLAN
    if plan is not None:
        plan.hit(site, path)


def configure(spec: str, *, seed: int = 0, export: bool = False) -> None:
    """Arm (or, with an empty spec, disarm) the process-global plan.

    ``export=True`` additionally publishes the spec through
    :data:`ENV_VAR`, so worker processes — spawned or forked — re-arm the
    same plan in their pool initializer.
    """
    global _PLAN, _EXPORTED
    if not spec.strip():
        deactivate()
        return
    _PLAN = _Plan(spec, seed)
    if export:
        os.environ[ENV_VAR] = spec
        os.environ[ENV_SEED_VAR] = str(seed)
        _EXPORTED = True


def deactivate() -> None:
    """Disarm all failpoints (and retract an exported spec)."""
    global _PLAN, _EXPORTED
    _PLAN = None
    if _EXPORTED:
        os.environ.pop(ENV_VAR, None)
        os.environ.pop(ENV_SEED_VAR, None)
        _EXPORTED = False


def activate_from_env() -> bool:
    """Arm from :data:`ENV_VAR` if set; return whether a plan was armed.

    Called at import (so ``REPRO_FAILPOINTS=... python -m repro ...``
    works with no code changes) and again in pool-worker initializers
    (so workers re-arm with fresh per-process fire counters).
    """
    global _PLAN
    spec = os.environ.get(ENV_VAR, "")
    if not spec.strip():
        return False
    _PLAN = _Plan(spec, int(os.environ.get(ENV_SEED_VAR, "0")))
    return True


def fired(site: str) -> int:
    """How many times ``site`` has fired under the current plan."""
    plan = _PLAN
    return plan.fired(site) if plan is not None else 0


def active_spec() -> Optional[str]:
    """The armed spec string, or ``None`` when disarmed."""
    plan = _PLAN
    return plan.spec if plan is not None else None


@contextmanager
def scoped(spec: str, *, seed: int = 0) -> Iterator[None]:
    """Arm ``spec`` for the duration of a ``with`` block (tests)."""
    previous, previously_exported = _PLAN, _EXPORTED
    configure(spec, seed=seed)
    try:
        yield
    finally:
        deactivate()
        globals()["_PLAN"] = previous
        if previously_exported and previous is not None:
            os.environ[ENV_VAR] = previous.spec
            os.environ[ENV_SEED_VAR] = str(previous.seed)
            globals()["_EXPORTED"] = True


activate_from_env()
