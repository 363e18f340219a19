"""One driver: every route to a verdict, over the frozen corpus of
``tests/corpus/`` (see ``build.py`` there), plus both collectors on three
fixed workloads and one seeded ``@given`` over random and hostile histories.
Batch routes print the same bytes, streaming routes the same bytes with
their ``[txn #N]`` labels, each the ``EXPECTED`` verdict; a refused entry
exits 2 naming its path (or flag), never with a traceback.  Run as a script,
it prints every entry's batch and streamed output (CI diffs two hash seeds).
"""

import itertools
import json
import random
import shutil
import zlib
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corpus.build import LEVELS, agreeing_baselines, describe, reference_satisfied, windowed
from repro import Database, MTChecker, cli, run_workload
from repro.adapters import AsyncSimulatedAdapter, SQLiteAdapter, collect_history
from repro.cli import main
from repro.core.incremental import CheckerSession
from repro.core.index import HistoryIndex
from repro.core.intcheck import check_internal_consistency
from repro.core.model import INITIAL_TXN_ID, History, Transaction, TransactionStatus, read, write
from repro.history import ColumnarHistory, EpochLog, load_columns, read_segments, write_history
from repro.history.epochlog import MANIFEST_NAME, _encode_record
from repro.ondisk import pack_columns, unpack_columns
from repro.workloads.mt_generator import MTWorkloadGenerator

from test_acollector import assert_schedule_valid
from test_csr import assert_closure_keeps_the_verdict, assert_kernel_matches_reference

CORPUS = Path(__file__).resolve().parent / "corpus"
LINES = (CORPUS / "EXPECTED").read_text(encoding="utf-8").splitlines()
EXPECTED = {line["entry"]: line for line in map(json.loads, LINES)}
VERDICTS = sorted(name for name, line in EXPECTED.items() if "batch" in line)
REFUSED = sorted(name for name, line in EXPECTED.items() if "exit" in line and ":" not in name)
PSEUDO = sorted(name for name in EXPECTED if ":" in name)
CONTAINERS = ["h.jsonl", "h.jsonl.gz", "h.seg", "h.seg.gz", "h.epochs"]
STREAMS = ["h.jsonl", "h.jsonl.gz"]
FOLLOWABLE = [*STREAMS, "h.epochs"]
EPOCH_ROWS = 8  # most entries span several epochs


def columns_of(name):
    return load_columns(CORPUS / name)


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """``containers(name)``: a directory holding entry ``name`` in all five containers."""
    root, made = tmp_path_factory.mktemp("routes"), {}

    def make(name):
        if name not in made:
            made[name] = root / name
            made[name].mkdir()
            columns = columns_of(name)
            for container in CONTAINERS:
                write_history(columns, made[name] / container, epoch_transactions=EPOCH_ROWS)
        return made[name]

    return make


@pytest.fixture(autouse=True, scope="module")
def one_parser():
    """``main`` builds its parser on every call: most of a call on these files."""
    with pytest.MonkeyPatch.context() as patch:
        parser = cli.build_parser()
        patch.setattr(cli, "build_parser", lambda: parser)
        yield


def run(capsys, *argv):
    """``main(argv)`` -> ``(exit code, stdout)``."""
    capsys.readouterr()
    code = main([str(arg) for arg in argv])
    return code, capsys.readouterr().out


def feed(session, segments, lines, base=0):
    """Ingest ``segments`` after ``base`` rows, appending the CLI's
    ``[txn #N]`` lines; returns the rows ingested so far."""
    for segment in segments:
        offset = int(segment.has_initial)

        def report(row, violations):
            label = "initial" if segment.txn_ids[row] == INITIAL_TXN_ID else f"txn #{base + row - offset}"
            lines.extend(f"[{label}] {violation.format()}" for violation in violations)

        session.ingest_segment(segment, on_row_violations=report)
        base += segment.num_transactions - offset
    return base


def ingest_rows(session, transactions, lines):
    """The per-row route, labelled as :func:`feed` labels."""
    number = itertools.count()
    for txn in transactions:
        label = "initial" if txn.is_initial else f"txn #{next(number)}"
        lines.extend(f"[{label}] {violation.format()}" for violation in session.ingest(txn))


def printed(session, lines):
    """``(exit code, stdout)`` of a finished stream, as the CLI prints it."""
    result = session.result()
    lines = [*lines, result.format()]
    if session.stale_reads:
        lines.append(f"warning: {session.stale_reads} reads fell outside the window; "
                     "enlarge --window for a complete verdict")
    return 0 if result.satisfied else 1, "\n".join(lines) + "\n"


def state_of(session):
    """The session's checkpoint tables, its ``elapsed`` seconds excepted."""
    state = session.checkpoint()
    del state["elapsed"]
    return state


def streamed(columns, level, window=None):
    session, lines = MTChecker().session(level, window=window), []
    feed(session, [columns], lines)
    return session, printed(session, lines)


def session_shuffle(columns, seed):
    """The rows in a seeded order that keeps each session's order, ``⊥T`` first."""
    rng, queues = random.Random(seed), {}
    for txn in columns.iter_transactions():
        queues.setdefault(None if txn.is_initial else txn.session_id, []).append(txn)
    order = queues.pop(None, [])
    while queues:
        session = rng.choice(sorted(queues))
        order.append(queues[session].pop(0))
        if not queues[session]:
            del queues[session]
    return order


def assert_scan_is_the_int_pass(history, columns):
    """Both index builds flag exactly what the object-level INT pass reports."""
    def multiset(violations):
        return Counter((v.kind, tuple(v.txn_ids), v.key, v.description) for v in violations)

    expected = multiset(check_internal_consistency(history))
    assert multiset(HistoryIndex.from_columns(columns).int_violations()) == expected
    assert multiset(HistoryIndex.build(history).int_violations()) == expected


# ----------------------------------------------------------------------
# Entries with a verdict
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", VERDICTS)
def test_batch_and_reference_routes(name):
    expected, columns = EXPECTED[name], columns_of(name)
    history = columns.to_history()
    for short, level in LEVELS.items():
        batch = MTChecker().verify(columns, level)
        assert describe(batch) == expected["batch"][short], short
        for other in (MTChecker().verify(history, level), MTChecker(workers=2).verify(columns, level)):
            assert other.format() == batch.format(), short
        assert reference_satisfied(history, level) == batch.satisfied, short
    assert_scan_is_the_int_pass(history, columns)
    for with_rt in (False, True):
        assert_kernel_matches_reference(history, with_rt=with_rt)
        assert_closure_keeps_the_verdict(history, with_rt=with_rt)
    if expected["agree"] is not None:
        assert agreeing_baselines(history, expected["batch"]) == expected["agree"]


@pytest.mark.parametrize("name", VERDICTS)
def test_stream_routes(name, containers):
    expected, columns = EXPECTED[name], columns_of(name)
    epochs = list(read_segments(containers(name) / "h.epochs"))
    cuts = [columns.slice_rows(range(row, min(row + 3, len(columns)))) for row in range(0, len(columns), 3)]
    shuffle = session_shuffle(columns, seed=32)
    for short, level in LEVELS.items():
        batch = MTChecker().verify(columns, level)
        for window in (None, expected["window"]["rows"]):
            # Shuffled arrival puts reorders, refused pairs and evictions inside one segment:
            # per row or as one segment, the route keeps one state and prints the same lines.
            shuffled, whole = MTChecker().session(level, window=window), MTChecker().session(level, window=window)
            lines, whole_lines = [], []
            ingest_rows(shuffled, shuffle, lines)
            feed(whole, [ColumnarHistory.from_transactions(shuffle)], whole_lines)
            assert printed(shuffled, lines) == printed(whole, whole_lines), (short, window)
            assert state_of(shuffled) == state_of(whole), (short, window)
            if window is None:
                assert shuffled.result().satisfied == batch.satisfied, short
            session, out = streamed(columns, level, window)
            if window is None:
                assert describe(session.result()) == expected["stream"][short], short
                assert (session.result().satisfied, session.result().num_transactions) == (
                    batch.satisfied, batch.num_transactions)
            else:
                assert windowed(columns, level) == expected["window"][short], short
            per_row, lines = MTChecker().session(level, window=window), []
            ingest_rows(per_row, columns.iter_transactions(), lines)
            assert printed(per_row, lines) == out and per_row.evicted_count == session.evicted_count
            # One routine behind both doors and every cut: per row, in 3-row segments and as one
            # segment, the route keeps the same state and prints the same lines.
            assert state_of(per_row) == state_of(session), (short, window)
            in_cuts, lines = MTChecker().session(level, window=window), []
            feed(in_cuts, cuts, lines)
            assert printed(in_cuts, lines) == out and state_of(in_cuts) == state_of(session), (short, window)
            # Kill the verifier at every epoch boundary: the restored one
            # prints the rest, labels included, as if it had never stopped.
            for boundary in range(1, len(epochs)):
                head, lines = MTChecker().session(level, window=window), []
                base = feed(head, epochs[:boundary], lines)
                resumed = CheckerSession.restore(unpack_columns(*pack_columns(head.checkpoint())))
                feed(resumed, epochs[boundary:], lines, base)
                assert printed(resumed, lines) == out, (short, window, boundary)


@pytest.mark.parametrize("name", VERDICTS)
def test_containers(name, containers, capsys):
    directory, columns = containers(name), columns_of(name)
    for short, level in LEVELS.items():
        batch = MTChecker().verify(columns, level)
        batch, stream = (0 if batch.satisfied else 1, batch.format() + "\n"), streamed(columns, level)[1]
        for container in CONTAINERS:
            path = directory / container
            assert run(capsys, "check", "--level", short, path) == batch, (short, container)
            if container in FOLLOWABLE:
                assert run(capsys, "watch", "--once", "--level", short, path) == stream, (short, container)


# ----------------------------------------------------------------------
# Entries every unwindowed route refuses
# ----------------------------------------------------------------------
def assert_refused(outcome, expected, path):
    code, out = outcome
    assert code == 2 and out.startswith("error: ") and expected["error"] in out and str(path) in out, out
    assert "Traceback" not in out and "SATISFIED" not in out and "VIOLATED" not in out, out


def mutated_log(name, directory):
    """An epoch log whose one epoch is the damaged segment ``name``
    (``epoch-00000.seg.gz`` for a ``.seg.gz``), its manifest record
    rewritten so every checksum holds."""
    log = directory / "h.epochs"
    write_history(columns_of("catalog-LostUpdate.jsonl"), log, epoch_transactions=EPOCH_ROWS)
    (entry,) = EpochLog.open(log).epochs
    (log / entry.name).unlink()
    data = (CORPUS / name).read_bytes()
    entry = replace(entry, name=entry.name + (".gz" if name.endswith(".gz") else ""),
                    size_bytes=len(data), crc32=zlib.crc32(data))
    (log / entry.name).write_bytes(data)
    manifest = (log / MANIFEST_NAME).read_bytes()
    (log / MANIFEST_NAME).write_bytes(manifest[: manifest.index(b"\n") + 1] + _encode_record(entry))
    return log


@pytest.mark.parametrize("name", REFUSED)
def test_refused_on_every_route(name, containers, tmp_path, capsys):
    expected = EXPECTED[name]
    if name.endswith((".seg", ".seg.gz")):
        log = mutated_log(name, tmp_path)
        routes = [("check", CORPUS / name), ("check", log), ("watch --once", log)]
    else:
        directory, columns = containers(name), columns_of(name)
        routes = [("check", directory / c) for c in CONTAINERS]
        routes += [("watch --once", directory / c) for c in FOLLOWABLE]
        for short, level in LEVELS.items():
            for route in (lambda: MTChecker().verify(columns, level), lambda: streamed(columns, level),
                          lambda: MTChecker(workers=2).verify(columns, level),
                          lambda: MTChecker().verify(columns.to_history(), level)):
                with pytest.raises(ValueError, match=expected["error"]):
                    route()
            if short in expected["window"]:  # the window no longer holds the first row
                assert windowed(columns, level) == expected["window"][short]
            else:
                with pytest.raises(ValueError, match=expected["error"]):
                    windowed(columns, level)
    for (command, path), short in itertools.product(routes, LEVELS):
        assert_refused(run(capsys, *command.split(), "--level", short, path), expected, path)


@pytest.mark.parametrize("name", PSEUDO)
def test_entries_without_a_file(name, containers, tmp_path, capsys):
    expected = EXPECTED[name]
    base = containers(expected["base"]) / "h.epochs" if "base" in expected else None
    if "argv" in expected:
        before = base and sorted(base.iterdir())
        code, out = run(capsys, *(base if arg == "{log}" else arg for arg in expected["argv"]))
        # Refused first: nothing printed before the error, nothing written.
        assert code == 2 and out.startswith(f"error: {expected['error']}") and out.count("\n") == 1, out
        assert not base or sorted(base.iterdir()) == before
        return
    log = base.parent / f"{expected['damage']}.epochs"
    shutil.copytree(base, log)
    manifest = (log / MANIFEST_NAME).read_bytes()
    last = manifest.rindex(b"\n", 0, -1) + 1  # where the last record starts
    if expected["damage"] == "torn-record":
        (log / MANIFEST_NAME).write_bytes(manifest[: last + 5])
    elif expected["damage"] == "v1-manifest":
        (log / MANIFEST_NAME).rename(log / "MANIFEST.json")
    else:
        entry = EpochLog.open(log).epochs[-1]
        (log / MANIFEST_NAME).write_bytes(manifest[:last] + _encode_record(replace(entry, crc32=entry.crc32 ^ 1)))
    listing = sorted(log.iterdir())
    for command in ("check", "watch --once"):
        outcome = run(capsys, *command.split(), log)
        if "exit" in expected:
            assert_refused(outcome, expected, log)
        else:  # recovered: the log reads as the intact one
            assert outcome == run(capsys, *command.split(), base)
    if "exit" in expected:  # a refused log is no convert source either,
        for destination in (tmp_path / "out.jsonl", tmp_path / "out.epochs"):
            assert_refused(run(capsys, "convert", log, destination), expected, log)
            assert not destination.exists()  # whatever epochs read before the refusal
        assert sorted(log.iterdir()) == listing  # and nothing was written into it


# ----------------------------------------------------------------------
# Collected, then checked: both collectors on three fixed workloads
# ----------------------------------------------------------------------
#: engine -> the levels its histories satisfy ("sqlite": the threaded collector).
GUARANTEES = {"si": ["si"], "serializable": ["ser", "si"], "s2pl": ["sser", "ser", "si"], "sqlite": ["sser", "ser", "si"]}
WORKLOADS = [dict(num_sessions=8, txns_per_session=12, num_objects=10, seed=17),
             dict(num_sessions=4, txns_per_session=20, num_objects=16, distribution="zipf", seed=5),
             dict(num_sessions=32, txns_per_session=2, num_objects=64, seed=3)]


@pytest.mark.parametrize("shape", WORKLOADS, ids=lambda shape: f"{shape['num_sessions']}-sessions")
@pytest.mark.parametrize("engine", sorted(GUARANTEES))
def test_collected_histories(engine, shape):
    workload, histories = MTWorkloadGenerator(**shape).generate(), []
    for max_inflight in (1, 8, 256):
        if engine == "sqlite":
            with SQLiteAdapter(wal=True) as adapter:
                result = collect_history(adapter, workload, max_inflight=max_inflight)
        else:
            result = collect_history(AsyncSimulatedAdapter(engine), workload, max_inflight=max_inflight)
        assert result.stats.committed == workload.num_transactions
        assert_schedule_valid(result.columns)
        histories.append(result.columns)
    if engine != "sqlite":  # the runner on the same engine
        runner = run_workload(Database(engine, keys=workload.keys), workload, seed=12).history
        histories.append(ColumnarHistory.from_history(runner))
    for columns, short in itertools.product(histories, GUARANTEES[engine]):
        batch = MTChecker().verify(columns, LEVELS[short])
        assert batch.satisfied, (engine, short, batch.violation)
        assert streamed(columns, LEVELS[short])[1] == (0, batch.format() + "\n")


# ----------------------------------------------------------------------
# Random histories: the routes that need no file
# ----------------------------------------------------------------------
@st.composite
def mt_histories(draw, max_txns=7, keys=("x", "y")):
    """Random MT histories with unique written values but arbitrary reads:
    valid ones, lost updates, write skews, causality violations, stale reads."""
    plans = ["r0", "r0 r1", "r0 w0", "r0 r1 w0 w1", "r0 r1 w1"]  # reads, RMWs, read-then-RMW
    values, written = itertools.count(1), {key: [0] for key in keys}
    shapes = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_txns))):
        order = list(keys) if draw(st.booleans()) else list(reversed(keys))
        plan = [(step[0], order[int(step[1])]) for step in draw(st.sampled_from(plans)).split()]
        shapes.append([(kind, key, next(values) if kind == "w" else None) for kind, key in plan])
        for kind, key, value in shapes[-1]:
            if kind == "w":
                written[key].append(value)
    transactions = [
        Transaction(index + 1, [write(key, value) if kind == "w" else
                                read(key, draw(st.sampled_from(written[key]))) for kind, key, value in shape])
        for index, shape in enumerate(shapes)
    ]
    num_sessions = draw(st.integers(min_value=1, max_value=3))
    sessions = [transactions[s::num_sessions] for s in range(num_sessions)]
    return History.from_transactions(sessions, initial_keys=list(keys))


def hostile_history(seed):
    """A small history drawn to break INT: valueless / negative / repeated
    values, aborted and intermediate writers, with and without ``⊥T``."""
    rng = random.Random(seed)
    keys, values = ["x", "y", "z"][: rng.randint(1, 3)], [None, *range(-3, 9)]
    sessions, txn_id = [], itertools.count(1)
    for session_id in range(rng.randint(1, 3)):
        sessions.append([
            Transaction(next(txn_id), [(write if rng.random() < 0.5 else read)(rng.choice(keys), rng.choice(values))
                                       for _ in range(rng.randint(1, 5))], session_id=session_id,
                        status=TransactionStatus.ABORTED if rng.random() < 0.2 else TransactionStatus.COMMITTED)
            for _ in range(rng.randint(1, 4))
        ])
    return History.from_transactions(sessions, initial_keys=keys if rng.random() < 0.7 else None)


#: Row plans of :func:`valued_hostile_history` over two keys ``a != b``: the
#: four mini-transaction shapes the index scan takes in straight-line arms,
#: then rows one step away from one of them.
VALUED_PLANS = [
    "ra wa", "ra rb wa wb", "ra rb wb", "ra rb",
    "ra ra", "ra rb wb wa", "rb wa", "ra rb wa", "ra wa wa", "ra rb wa wb wa", "wa",
]


def valued_hostile_history(seed):
    """:func:`hostile_history` with a value on every op, in mini-transaction
    shapes and their near misses: a row that writes back the value it read
    (FutureRead, values are drawn from six), a key read twice, writes in
    the other order, a write to the key not read, aborted rows of every
    shape, and one value that two committed rows write last (the later
    one in scan order is its final writer)."""
    rng = random.Random(seed)
    keys = ["x", "y", "z"][: rng.randint(2, 3)]
    sessions, txn_id = [], itertools.count(1)

    def row(plan, session_id, status):
        a, b = rng.sample(keys, 2)
        ops = [(write if step[0] == "w" else read)(a if step[1] == "a" else b, rng.randrange(-1, 5))
               for step in plan.split()]
        return Transaction(next(txn_id), ops, session_id=session_id, status=status)

    for session_id in range(rng.randint(1, 3)):
        sessions.append([
            row(rng.choice(VALUED_PLANS), session_id,
                TransactionStatus.ABORTED if rng.random() < 0.2 else TransactionStatus.COMMITTED)
            for _ in range(rng.randint(1, 5))
        ])
    twice, session = rng.choice(keys), rng.choice(sessions)
    for _ in range(2):
        session.append(Transaction(next(txn_id), [read(twice, rng.randrange(-1, 5)), write(twice, 7)],
                                   session_id=session[0].session_id))
    return History.from_transactions(sessions, initial_keys=keys if rng.random() < 0.7 else None)


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=st.one_of(mt_histories().map(lambda history: (history, True)),
                       st.integers(0, 2**32).map(lambda seed: (hostile_history(seed), False)),
                       st.integers(0, 2**32).map(lambda seed: (valued_hostile_history(seed), False))))
def test_random_histories_agree_on_every_route(drawn):
    history, is_mt = drawn
    columns = ColumnarHistory.from_history(history)
    assert_scan_is_the_int_pass(history, columns)
    verdicts = {}
    for short, level in LEVELS.items():
        batch = MTChecker().verify(columns, level)
        assert MTChecker().verify(history, level).format() == batch.format()
        assert reference_satisfied(history, level) == batch.satisfied, short
        session, out = streamed(columns, level)
        per_row, lines = MTChecker().session(level), []
        ingest_rows(per_row, columns.iter_transactions(), lines)
        assert session.result().satisfied == batch.satisfied and printed(per_row, lines) == out, short
        verdicts[short] = describe(batch)
    assert verdicts["si"] == "SATISFIED" or verdicts["ser"] != "SATISFIED"  # SI is weaker
    if is_mt:
        for with_rt in (False, True):
            assert_closure_keeps_the_verdict(history, with_rt=with_rt)
        assert agreeing_baselines(history, verdicts) == ["cobra", "dbcop", "polysi"]


if __name__ == "__main__":
    for name, (short, level) in itertools.product(VERDICTS, LEVELS.items()):
        columns = columns_of(name)
        print(f"== {name} {short} batch\n{MTChecker().verify(columns, level).format()}")
        print(f"== {name} {short} stream\n{streamed(columns, level)[1][1]}", end="")
