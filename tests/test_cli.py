"""Tests for the command-line interface."""

import gzip
import json
import shutil
from array import array

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_check_defaults(self):
        args = build_parser().parse_args(["check", "history.jsonl"])
        assert args.level == "ser"
        assert not args.strict_mt

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    def test_bench_is_not_a_command(self):
        # Performance is measured by benchmarks/pipeline, outside the package.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flags", [["--supervise"], ["--max-restarts", "3"]])
    def test_watch_has_no_restart_loop(self, flags, capsys):
        # Restarting `watch` is running it again: it resumes from its newest
        # checkpoint (tests/test_resilience.py::TestWatchStopAndRestart).
        with pytest.raises(SystemExit) as excinfo:
            main(["watch", *flags, "log.epochs"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestInterrupt:
    """Ctrl-C outside `watch`: exit 130, one `error: interrupted` line, no
    traceback and no half-written output."""

    @staticmethod
    def _run(capsys, *argv):
        try:  # one that escaped would end the test session, not fail a test
            return run(capsys, *argv)
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped main()")

    @pytest.mark.parametrize("argv", [
        ["check", "{in}"],
        ["collect", "--adapter", "simulated", "--check", "si"],
        ["convert", "{in}", "{out}"],
        ["generate", "--output", "{out}"],
    ], ids=lambda argv: argv[0])
    def test_keyboard_interrupt_exits_130(self, argv, histories, tmp_path, monkeypatch, capsys):
        def interrupted(_args):
            raise KeyboardInterrupt

        monkeypatch.setattr(f"repro.cli._cmd_{argv[0]}", interrupted)
        paths = {"{in}": str(histories / "healthy" / "h.seg"), "{out}": str(tmp_path / "out.seg")}
        assert self._run(capsys, *(paths.get(arg, arg) for arg in argv)) == (130, "error: interrupted\n")

    @pytest.mark.parametrize("destination", ["out.jsonl", "out.seg", "out.epochs"])
    def test_interrupted_convert_leaves_no_destination(
        self, destination, histories, tmp_path, monkeypatch, capsys
    ):
        from repro.history import files

        read_segments = files.read_segments

        def first_segment_then_ctrl_c(path):
            segments = read_segments(path)
            yield next(segments)
            raise KeyboardInterrupt

        monkeypatch.setattr(files, "read_segments", first_segment_then_ctrl_c)
        source = histories / "healthy" / "h.epochs"
        assert len(list(source.glob("epoch-*.seg"))) > 1  # interrupted part-way
        code, out = self._run(capsys, "convert", source, tmp_path / destination)
        assert (code, out) == (130, "error: interrupted\n")
        assert list(tmp_path.iterdir()) == []


_GENERATE = ["generate", "--isolation", "si", "--sessions", "4", "--txns", "20", "--objects", "8"]
_LOST_UPDATE = ["--fault", "lostupdate", "--fault-rate", "0.6"]
#: One file name per container, each read and written as rows.
CONTAINERS = ["h.jsonl", "h.jsonl.gz", "h.seg", "h.seg.gz", "h.epochs"]


def run(capsys, *argv):
    """``main(argv)`` -> ``(exit code, stdout)``, dropping earlier output."""
    capsys.readouterr()
    code = main([str(arg) for arg in argv])
    return code, capsys.readouterr().out


def rows(path):
    from repro.history import read_segments

    return [
        (t.txn_id, t.session_id, t.status, t.start_ts, t.finish_ts, str(t))
        for segment in read_segments(path)
        for t in segment.iter_transactions()
    ]


@pytest.fixture(scope="module")
def histories(tmp_path_factory):
    """A healthy and a lost-update history, each in all five containers."""
    root = tmp_path_factory.mktemp("containers")
    for kind, fault in (("healthy", []), ("lostupdate", _LOST_UPDATE)):
        directory = root / kind
        directory.mkdir()
        source = directory / "h.jsonl"
        assert main([*_GENERATE, *fault, "--output", str(source)]) == 0
        for name in CONTAINERS:
            if name != "h.jsonl":
                assert main(["convert", str(source), str(directory / name), "--epoch-txns", "16"]) == 0
    return root


@pytest.mark.parametrize("level", ["ser", "si"])
@pytest.mark.parametrize("kind", ["healthy", "lostupdate"])
class TestContainerMatrix:
    """``--workers`` across the five containers.  That stdout and exit code
    of ``check`` and ``watch --once`` do not depend on the container is a
    route of ``tests/test_routes.py``, on every corpus entry."""

    def test_workers_equal_serial_on_every_container(self, histories, kind, level, capsys):
        d = histories / kind
        for name in CONTAINERS:
            sharded = run(capsys, "check", "--workers", "2", "--level", level, d / name)
            assert sharded == run(capsys, "check", "--level", level, d / name), name


class TestContainerCorners:
    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]], ids=["serial", "workers"])
    @pytest.mark.parametrize("name", ["h.epochs", "h.seg"])
    def test_batch_check_only_reads(self, name, workers, histories, tmp_path, capsys):
        """A log's directory, and a segment's, list the same after `check` as
        before — read-only or not — and the index cache an earlier build left
        there (here: garbage under its name) is not opened."""
        source, held = histories / "lostupdate" / name, tmp_path / "held"
        if source.is_dir():
            shutil.copytree(source, held / name)
            stale = held / name / "INDEX.cache"
        else:
            held.mkdir()
            shutil.copy(source, held / name)
            stale = held / (name + ".idx")
        expected = run(capsys, "check", "--level", "sser", *workers, source)
        stale.write_bytes(b"REPROIDX1\nnot an index")
        listing = sorted(path.relative_to(held) for path in held.rglob("*"))
        stale.parent.chmod(0o555)
        try:
            assert run(capsys, "check", "--level", "sser", *workers, held / name) == expected
        finally:
            stale.parent.chmod(0o755)
        assert sorted(path.relative_to(held) for path in held.rglob("*")) == listing
        assert stale.read_bytes() == b"REPROIDX1\nnot an index"

    def test_generate_reports_what_it_ran(self, tmp_path, capsys):
        code, out = run(capsys, *_GENERATE, "--output", tmp_path / "h.jsonl")
        assert code == 0 and "committed" in out and "injected defects" not in out
        code, out = run(
            capsys, *_GENERATE, *_LOST_UPDATE, "--distribution", "zipf", "--output", tmp_path / "b.jsonl"
        )
        assert code == 0 and "committed" in out and "injected defects" in out

    @pytest.mark.parametrize("rate", ["5", "-0.5"])
    def test_generate_refuses_a_fault_rate_outside_zero_one(self, rate, tmp_path, capsys):
        code, out = run(
            capsys, *_GENERATE, "--fault", "lostupdate", "--fault-rate", rate,
            "--output", tmp_path / "h.jsonl",
        )
        assert code == 2
        assert out.startswith("error: --fault-rate must be in [0, 1]")
        assert not (tmp_path / "h.jsonl").exists()

    @pytest.mark.parametrize("objects", ["1", "0"])
    def test_generate_refuses_fewer_than_two_objects(self, objects, tmp_path, capsys):
        code, out = run(capsys, *_GENERATE, "--objects", objects, "--output", tmp_path / "h.jsonl")
        assert code == 2 and out.startswith("error: --objects must be at least 2")
        assert not (tmp_path / "h.jsonl").exists()

    def test_generate_writes_each_container(self, tmp_path):
        for name in CONTAINERS:
            assert main([*_GENERATE, "--epoch-txns", "16", "--output", str(tmp_path / name)]) == 0
        first_line = (tmp_path / "h.jsonl").read_text().splitlines()[0]
        assert json.loads(first_line)["format"] == "repro-history-stream-v1"
        assert (tmp_path / "h.seg").read_bytes().startswith(b"REPROSEG1")
        assert (tmp_path / "h.epochs" / "MANIFEST.log").exists()
        assert len(sorted((tmp_path / "h.epochs").glob("epoch-*.seg"))) > 1
        assert len({tuple(rows(tmp_path / name)) for name in CONTAINERS}) == 1

    @pytest.mark.parametrize("source", CONTAINERS)
    def test_convert_there_and_back_is_row_identical(self, source, histories, tmp_path, capsys):
        original = rows(histories / "healthy" / source)
        for name in CONTAINERS:
            there = tmp_path / name.replace("h.", "there.")
            back = tmp_path / name.replace("h.", "via-").replace(".", "-") / source
            back.parent.mkdir()
            for a, b in ((histories / "healthy" / source, there), (there, back)):
                code, out = run(capsys, "convert", a, b, "--epoch-txns", "16")
                assert code == 0
                assert out == f"converted {a} -> {b} ({len(original)} transactions)\n"
            assert rows(there) == rows(back) == original

    def test_a_directory_named_like_a_segment_is_an_epoch_log_everywhere(
        self, histories, tmp_path, capsys
    ):
        # One classification rule: an existing directory is an epoch log, on
        # check, as a convert source and as a convert destination alike.
        odd = tmp_path / "x.seg"
        odd.mkdir()
        healthy = histories / "healthy"
        assert run(capsys, "convert", healthy / "h.jsonl", odd, "--epoch-txns", "16")[0] == 0
        assert (odd / "MANIFEST.log").exists()
        for extra in ([], ["--workers", "2"]):
            assert run(capsys, "check", "--level", "si", *extra, odd) == run(
                capsys, "check", "--level", "si", *extra, healthy / "h.epochs"
            )
        assert run(capsys, "watch", "--once", odd) == run(capsys, "watch", "--once", healthy / "h.epochs")
        assert run(capsys, "convert", odd, tmp_path / "back.jsonl")[0] == 0
        assert rows(tmp_path / "back.jsonl") == rows(healthy / "h.jsonl")

    def test_a_chain_of_conversions_gives_back_the_source_bytes(self, histories, tmp_path, capsys):
        # Bytes, not only rows: jsonl -> seg -> epochs -> jsonl.gz -> jsonl.
        source = histories / "healthy" / "h.jsonl"
        hops = [source, *(tmp_path / name for name in ("a.seg", "b.epochs", "c.jsonl.gz", "d.jsonl"))]
        for a, b in zip(hops, hops[1:]):
            assert run(capsys, "convert", a, b, "--epoch-txns", "16")[0] == 0
        assert gzip.decompress(hops[3].read_bytes()) == hops[4].read_bytes() == source.read_bytes()

    @pytest.mark.parametrize("name", ["h.seg", "h.seg.gz"])
    def test_watch_refuses_what_is_written_whole(self, name, histories, capsys):
        code, out = run(capsys, "watch", "--once", histories / "healthy" / name)
        assert code == 2
        assert out.startswith("error: columnar segments are written atomically and cannot be followed")

    def test_verbose_telemetry_is_printed_for_every_container(self, histories, capsys):
        for name in CONTAINERS:
            code, out = run(capsys, "check", "-v", histories / "healthy" / name)
            assert code == 0 and "phases:" in out, name

    @pytest.mark.parametrize("flags", [["--stream"], ["--window", "3"]])
    def test_streaming_flags_are_not_options_of_check(self, flags, histories, capsys):
        # Streaming verification is `watch`; `check` has one route.
        with pytest.raises(SystemExit) as excinfo:
            main(["check", *flags, str(histories / "healthy" / "h.jsonl")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_non_positive_workers_rejected_in_cli_wording(self, histories, capsys):
        code, out = run(capsys, "check", "--workers", "0", histories / "healthy" / "h.jsonl")
        assert (code, out.strip()) == (2, "error: --workers must be at least 1, got 0")

    @pytest.mark.parametrize("name", ["h.jsonl", "h.seg", "h.epochs"])
    def test_convert_onto_itself_is_refused(self, name, tmp_path, capsys):
        path = tmp_path / name
        assert main([*_GENERATE, "--output", str(path)]) == 0

        def snapshot():
            files = [path] if path.is_file() else sorted(path.iterdir())
            return [(f.name, f.read_bytes()) for f in files]

        before = snapshot()
        (tmp_path / "sub").mkdir()
        alias = tmp_path / "sub" / ".." / name  # same file, another spelling
        for destination in (path, alias):
            assert main(["convert", str(path), str(destination)]) == 2
            assert "onto itself" in capsys.readouterr().out
        assert snapshot() == before

    def test_convert_onto_an_existing_log_is_refused(self, histories, tmp_path, capsys):
        # Appending would give the log a second ⊥T, and it would no longer check.
        from repro.history import EpochLogError, write_history

        log = tmp_path / "ok.epochs"
        shutil.copytree(histories / "healthy" / "h.epochs", log)
        before = sorted((f.name, f.read_bytes()) for f in log.iterdir())
        verdict = run(capsys, "check", log)
        for source in ("h.jsonl", "h.seg", "h.epochs"):
            code, out = run(capsys, "convert", histories / "healthy" / source, log)
            assert code == 2
            assert out == f"error: {log}: already exists; a history is written into a new epoch log only\n"

        def unread():
            raise AssertionError("the source was read")
            yield

        with pytest.raises(EpochLogError, match="already exists"):
            write_history(unread(), log)
        assert sorted((f.name, f.read_bytes()) for f in log.iterdir()) == before
        assert run(capsys, "check", log) == verdict

    def test_an_empty_log_directory_is_left_empty_by_a_refused_source(self, tmp_path, capsys):
        torn = tmp_path / "torn.epochs"
        assert main([*_GENERATE, "--epoch-txns", "8", "--output", str(torn)]) == 0
        damaged = torn / "epoch-00002.seg"
        damaged.write_bytes(damaged.read_bytes()[:-1] + bytes([damaged.read_bytes()[-1] ^ 1]))
        empty = tmp_path / "empty.epochs"
        empty.mkdir()
        code, out = run(capsys, "convert", torn, empty, "--epoch-txns", "8")
        assert code == 2 and "epoch 2 fails its checksum" in out
        assert empty.is_dir() and list(empty.iterdir()) == []

    @pytest.mark.parametrize("source", ["typo.seg", "torn.seg", "bad.jsonl", "bad.jsonl.gz"])
    @pytest.mark.parametrize("destination", ["out.epochs", "out.jsonl", "out.seg"])
    def test_convert_from_a_bad_source_leaves_no_destination(
        self, source, destination, tmp_path, capsys
    ):
        contents = {"torn.seg": b"REPROSEG1\n{", "bad.jsonl": b"{", "bad.jsonl.gz": gzip.compress(b"{")}
        if source in contents:  # typo.seg does not exist at all
            (tmp_path / source).write_bytes(contents[source])
        code, out = run(capsys, "convert", tmp_path / source, tmp_path / destination)
        assert code == 2 and out.startswith("error: ")
        assert not (tmp_path / destination).exists()

    def test_watch_once_flags_faulty_stream_within_a_window(self, histories, capsys):
        code, out = run(
            capsys, "watch", "--level", "si", "--once", "--window", "60",
            histories / "lostupdate" / "h.jsonl",
        )
        assert code == 1
        assert "[txn #" in out

    def test_watch_tolerates_partially_written_last_line(self, histories, tmp_path, capsys):
        # A producer caught mid-append leaves a line without its newline; the
        # watch must skip it with a warning instead of dying on a parse error.
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_bytes((histories / "healthy" / "h.jsonl").read_bytes()[:-20])
        code, output = run(capsys, "watch", "--level", "si", "--once", truncated)
        assert code == 0
        assert "incomplete trailing line" in output and "SATISFIED" in output


def _one_op(**fields):
    return {"txn_id": 1, "operations": [{"op": "r", "key": "x", "value": 0, **fields}]}


#: shape -> the .jsonl line after a valid header
_MALFORMED = {
    "top-level-array": [1, 2],
    "list-field-is-an-int": {"txn_id": 1, "operations": 5},
    "transaction-is-an-int": 7,
    "transaction-without-txn-id": {"operations": []},
    "operation-without-key": {"txn_id": 1, "operations": [{"op": "r", "value": 1}]},
    "txn-id-is-a-list": {"txn_id": [1]},
    "key-is-an-int": _one_op(key=5),
    "value-is-a-bool": _one_op(op="w", value=True),
    "stamps-are-a-bool-and-a-string": {"txn_id": 1, "start_ts": True, "finish_ts": "9"},
    "finish-ts-is-a-string": {"txn_id": 2, "session_id": 1, "start_ts": 1, "finish_ts": "9"},
    "unknown-status": {"txn_id": 1, "status": "bogus"},
    "unknown-op": _one_op(op="bogus"),
}


class TestMalformedHistories:
    """Bad structure is a usage error (exit 2), never a traceback or exit 1."""

    @pytest.mark.parametrize("shape", sorted(_MALFORMED))
    @pytest.mark.parametrize("route, name", [
        ("check", "bad.jsonl"), ("watch --once", "bad.jsonl"), ("convert", "bad.jsonl"),
        ("check", "bad.jsonl.gz"), ("watch --once", "bad.jsonl.gz"), ("convert", "bad.jsonl.gz"),
    ])
    def test_structural_damage_exits_2_on_every_route(
        self, shape, route, name, tmp_path, capsys
    ):
        path = tmp_path / name
        header = json.dumps({"format": "repro-history-stream-v1"})
        text = f"{header}\n{json.dumps(_MALFORMED[shape])}\n".encode()
        path.write_bytes(gzip.compress(text) if name.endswith(".gz") else text)
        if route == "convert":  # refused before the destination is written
            destination = tmp_path / "out.seg"
            assert main(["convert", str(path), str(destination)]) == 2
            assert capsys.readouterr().out.startswith(f"error: {path}: malformed history: ")
            assert not destination.exists()
            return
        assert main([*route.split(), "--level", "ser", str(path)]) == 2
        assert f"error: {path}: malformed history: " in capsys.readouterr().out


class TestUnknownContainers:
    """A path no container claims -- an old ``.json`` document, a ``.csv``
    -- is refused by name before any command runs: nothing is written and
    no workload is generated or collected."""

    @pytest.mark.parametrize("argv, refused", [
        (["generate", "--output", "{tmp}/out.csv"], "out.csv"),
        (["collect", "--adapter", "simulated", "--check", "ser", "--output", "{tmp}/out.json"], "out.json"),
        (["convert", "{tmp}/old.json", "{tmp}/new.jsonl"], "old.json"),
        (["convert", "{source}", "{tmp}/new.txt"], "new.txt"),
        (["check", "{tmp}/old.json"], "old.json"),
        (["watch", "--once", "{tmp}/old.json"], "old.json"),
    ], ids=["generate", "collect", "convert-source", "convert-destination", "check", "watch"])
    def test_refused_before_the_command_runs(self, argv, refused, histories, tmp_path, capsys, monkeypatch):
        from repro import cli

        for command in ("check", "watch", "generate", "collect", "convert"):
            monkeypatch.setattr(cli, f"_cmd_{command}", lambda args: pytest.fail("the command ran"))
        (tmp_path / "old.json").write_text(json.dumps({"format": "repro-history-v1", "sessions": []}))
        source = histories / "healthy" / "h.jsonl"
        argv = [arg.replace("{tmp}", str(tmp_path)).replace("{source}", str(source)) for arg in argv]
        code, out = run(capsys, *argv)
        assert code == 2 and out.startswith(f"error: {tmp_path / refused}: not a history container"), out
        assert [path.name for path in tmp_path.iterdir()] == ["old.json"]


class TestRowsInRowsOut:
    """With ``Transaction`` and ``Operation`` unable to be built, every
    container is still checked, followed, converted and collected into."""

    @pytest.fixture(autouse=True)
    def no_objects(self, monkeypatch):
        from repro.core.model import Operation, Transaction

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"a {type(self).__name__} was built")

        for cls in (Transaction, Operation):
            monkeypatch.setattr(cls, "__init__", refuse)

    @pytest.mark.parametrize("level", ["ser", "si", "sser"])
    def test_check_and_watch(self, level, histories, capsys):
        for name in CONTAINERS:
            assert run(capsys, "check", "--level", level, histories / "healthy" / name)[0] == 0, name
        for name in ("h.jsonl", "h.epochs"):
            assert run(capsys, "watch", "--once", "--level", level, histories / "healthy" / name)[0] == 0

    @pytest.mark.parametrize("source", CONTAINERS)
    def test_convert_to_every_other_container(self, source, histories, tmp_path, capsys):
        from repro.history import load_columns

        source = histories / "healthy" / source
        for name in CONTAINERS:
            destination = tmp_path / name
            if destination.name != source.name:
                assert run(capsys, "convert", source, destination, "--epoch-txns", "16")[0] == 0
                assert load_columns(destination).to_wire() == load_columns(source).to_wire()

    @pytest.mark.parametrize("name", ["x.jsonl", "x.epochs"])
    def test_collect_writes_and_checks(self, name, tmp_path, capsys):
        code, out = run(
            capsys, "collect", "--adapter", "simulated", "--sessions", "4", "--txns", "10",
            "--objects", "6", "--output", tmp_path / name, "--check", "ser",
        )
        assert code == 0 and "SATISFIED" in out
        assert run(capsys, "check", tmp_path / name)[0] == 0


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestCollectCommand:
    def test_collect_sqlite_check_ser(self, capsys):
        code = main(
            ["collect", "--adapter", "sqlite", "--sessions", "4", "--txns", "25",
             "--objects", "10", "--check", "SER"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "collected" in output and "SATISFIED" in output

    def test_collect_chaos_lost_write_reports_cycle(self, capsys):
        code = main(
            ["collect", "--adapter", "sqlite", "--sessions", "4", "--txns", "60",
             "--objects", "10", "--chaos", "lost-write", "--chaos-rate", "0.3",
             "--check", "ser"]
        )
        output = capsys.readouterr().out
        assert code == 1
        assert "injected chaos" in output
        assert "VIOLATED" in output and "cycle:" in output

    def test_collect_writes_jsonl_from_either_adapter(self, tmp_path, capsys):
        jsonl = tmp_path / "e2e.jsonl"
        code = main(
            ["collect", "--adapter", "simulated", "--isolation", "si", "--sessions", "2",
             "--txns", "10", "--objects", "6", "--output", str(jsonl)]
        )
        assert code == 0
        header = json.loads(jsonl.read_text().splitlines()[0])
        assert header["format"] == "repro-history-stream-v1"
        # The saved stream is checkable by the existing pipeline, workers included.
        assert main(["check", "--level", "ser", str(jsonl)]) == 0
        capsys.readouterr()

        wal = tmp_path / "e2e-wal.jsonl"
        assert main(
            ["collect", "--adapter", "sqlite", "--wal", "--mode", "deferred",
             "--sessions", "2", "--txns", "10", "--objects", "6", "--output", str(wal)]
        ) == 0
        assert main(["check", "--level", "ser", str(wal)]) == 0

    def test_collect_writes_segment(self, tmp_path, capsys):
        path = tmp_path / "collected.seg"
        code = main(
            ["collect", "--adapter", "simulated", "--isolation", "si", "--sessions", "2",
             "--txns", "10", "--objects", "6", "--output", str(path)]
        )
        assert code == 0
        assert main(["check", "--level", "ser", str(path)]) == 0
        capsys.readouterr()

    def test_collect_gt_workload(self, capsys):
        code = main(
            ["collect", "--adapter", "sqlite", "--workload", "gt", "--sessions", "2",
             "--txns", "10", "--objects", "8", "--check", "ser"]
        )
        assert code == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_collect_check_with_workers(self, capsys):
        code = main(
            ["collect", "--adapter", "sqlite", "--sessions", "4", "--txns", "20",
             "--objects", "10", "--check", "ser", "--workers", "2"]
        )
        assert code == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_collect_requires_check_or_output(self, capsys):
        assert main(["collect", "--adapter", "sqlite"]) == 2
        assert "nothing to do" in capsys.readouterr().out

    def test_collect_rejects_unknown_level(self, capsys):
        assert main(["collect", "--check", "strongest"]) == 2
        assert "unknown isolation level" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--txn-deadline", "0"], "error: --txn-deadline must be positive"),
        (["--txn-deadline", "nan"], "error: --txn-deadline must be positive"),
        (["--objects", "1"], "error: --objects must be at least 2"),
    ])
    def test_collect_names_the_flag_out_of_range(self, flags, message, capsys):
        argv = ["collect", "--adapter", "simulated", "--sessions", "2", "--txns", "2", *flags, "--check", "ser"]
        code, out = run(capsys, *argv)
        assert code == 2 and out.startswith(message)

    def test_collect_rejects_workers_without_check(self, tmp_path, capsys):
        out = tmp_path / "h.jsonl"
        assert main(["collect", "--workers", "4", "--output", str(out)]) == 2
        assert "--workers applies to verification" in capsys.readouterr().out


class TestFlagBounds:
    """A numeric flag out of range is refused naming the flag (never an
    internal parameter, never the input file) before anything runs."""

    @pytest.mark.parametrize("argv, message", [
        (["generate", "--sessions", "0", "--output", "{out}"], "--sessions must be positive, got 0"),
        (["generate", "--fault", "lostupdate", "--fault-rate", "2", "--output", "{out}"],
         "--fault-rate must be in [0, 1], got 2.0"),
        (["generate", "--epoch-txns", "0", "--output", "{out}"], "--epoch-txns must be positive, got 0"),
        (["convert", "--epoch-txns", "0", "{in}", "{out}"], "--epoch-txns must be positive, got 0"),
        (["collect", "--max-retries", "-1", "--output", "{out}"], "--max-retries must be at least 0, got -1"),
        (["collect", "--chaos", "lost-write", "--chaos-rate", "2", "--output", "{out}"],
         "--chaos-rate must be in [0, 1], got 2.0"),
        # Accepted before, each printing a verdict.
        (["collect", "--traffic", "bursty", "--think-time", "nan", "--output", "{out}"],
         "--think-time must be at least 0, got nan"),
        (["collect", "--traffic", "churn", "--think-time", "-5", "--output", "{out}"],
         "--think-time must be at least 0, got -5.0"),
        (["collect", "--adapter", "sqlite", "--busy-timeout-ms", "-1", "--output", "{out}"],
         "--busy-timeout-ms must be at least 0, got -1"),
    ])
    def test_refused_bound_names_its_flag(self, argv, message, histories, tmp_path, capsys):
        paths = {"{in}": histories / "healthy" / "h.jsonl", "{out}": tmp_path / "out.jsonl"}
        assert run(capsys, *(paths.get(arg, arg) for arg in argv)) == (2, f"error: {message}\n")
        assert not paths["{out}"].exists()


class TestAnomalyCommand:
    def test_list_all(self, capsys):
        assert main(["anomaly"]) == 0
        output = capsys.readouterr().out
        assert "LostUpdate" in output and "WriteSkew" in output

    def test_show_one(self, capsys):
        assert main(["anomaly", "LostUpdate"]) == 0
        output = capsys.readouterr().out
        assert "R(x,0)" in output

    def test_unknown_anomaly(self, capsys):
        assert main(["anomaly", "Bogus"]) == 2
        assert "unknown anomaly" in capsys.readouterr().out


class TestWatchDisappearingStream:
    def _generate(self, path, *extra):
        return main(
            ["generate", "--isolation", "si", "--sessions", "4", "--txns", "20",
             "--objects", "8", "--output", str(path), *extra]
        )

    def test_watch_exits_cleanly_when_stream_is_deleted(self, tmp_path, capsys):
        # The open fd keeps a deleted file readable on POSIX, so a follower
        # would otherwise poll a ghost forever; it must notice the deletion
        # and stop with a diagnostic instead of hanging or crashing.
        import threading

        path = tmp_path / "vanishing.jsonl"
        assert self._generate(path) == 0
        capsys.readouterr()
        killer = threading.Timer(0.3, path.unlink)
        killer.start()
        try:
            code = main(
                ["watch", "--level", "si", "--interval", "0.05",
                 "--max-seconds", "30", str(path)]
            )
        finally:
            killer.cancel()
        output = capsys.readouterr().out
        assert code == 2
        assert "deleted while being followed" in output

    def test_watch_exits_cleanly_when_epoch_log_is_deleted(self, tmp_path, capsys):
        import shutil
        import threading

        path = tmp_path / "vanishing.epochs"
        assert self._generate(path) == 0
        capsys.readouterr()
        def vanish():
            # One rename, then the slow part: a directory caught half-deleted
            # is a different (also fatal) diagnosis, "regressed".
            path.rename(tmp_path / "gone")
            shutil.rmtree(tmp_path / "gone")

        killer = threading.Timer(0.3, vanish)
        killer.start()
        try:
            code = main(
                ["watch", "--level", "si", "--interval", "0.05",
                 "--max-seconds", "30", str(path)]
            )
        finally:
            killer.cancel()
        output = capsys.readouterr().out
        assert code == 2
        assert "disappeared while following" in output


class TestEpochLogCommands:
    def _generate(self, path, *extra):
        return main(
            ["generate", "--isolation", "si", "--sessions", "4", "--txns", "20",
             "--objects", "8", "--epoch-txns", "16", "--output", str(path), *extra]
        )

    def test_watch_checkpoints_then_resumes(self, tmp_path, capsys):
        path = tmp_path / "history.epochs"
        assert self._generate(path) == 0
        assert main(
            ["watch", "--once", "--level", "si", "--checkpoint-every", "2", str(path)]
        ) == 0
        first = capsys.readouterr().out
        assert "resumed" not in first and "SATISFIED" in first
        assert sorted(path.glob("checkpoint-*.ckpt"))

        code = main(
            ["watch", "--once", "--level", "si", "--checkpoint-every", "2", str(path)]
        )
        second = capsys.readouterr().out
        assert code == 0
        assert "resumed from checkpoint" in second and "SATISFIED" in second

        # Different settings invalidate the snapshot: full replay, same verdict.
        code = main(["watch", "--once", "--level", "ser", str(path)])
        third = capsys.readouterr().out
        assert code == 0 and "resumed" not in third

    def test_resume_counts_what_the_verdict_counts(self, tmp_path, capsys):
        import re

        from repro.history.epochlog import EpochLog

        path = tmp_path / "h.epochs"
        argv = ["generate", "--sessions", "2", "--txns", "5", "--objects", "2",
                "--epoch-txns", "4", "--output", str(path)]
        assert main(argv) == 0
        assert "10 committed / 2 aborted" in capsys.readouterr().out
        watch = ["watch", "--once", "--checkpoint-every", "2", str(path)]
        assert main(watch) == 0 and main(watch) == 0
        out = capsys.readouterr().out
        (resumed,) = re.findall(r"resumed from checkpoint: 4 epochs \((\d+) transactions\)", out)
        verdicts = re.findall(r"SER: SATISFIED \((\d+) transactions\)", out)
        assert verdicts == ["10", "10"] and resumed == "10"
        # The checkpoint keeps the row count, aborted rows included: it
        # numbers the [txn #N] labels of the rows after it.
        assert EpochLog.open(path).latest_checkpoint().transactions == 12

    @staticmethod
    def _reframe_checkpoints(path, edit, *, newest_only=False):
        """Pass kept checkpoint states through ``edit``; re-save CRC-valid."""
        from repro.history.epochlog import EpochLog

        log = EpochLog.open(path)
        for ckpt in list(log.checkpoints())[: 1 if newest_only else None]:
            state = dict(ckpt.state)
            edit(state)
            log.save_checkpoint(state, epochs=ckpt.epochs, transactions=ckpt.transactions)

    def test_watch_treats_old_format_checkpoints_as_a_miss(self, tmp_path, capsys):
        path = tmp_path / "history.epochs"
        assert self._generate(path) == 0
        watch = ["watch", "--once", "--level", "si"]
        assert main([*watch, "--checkpoint-every", "2", str(path)]) == 0
        assert len(list(path.glob("checkpoint-*.ckpt"))) == 2
        assert main([*watch, "--no-resume", str(path)]) == 0
        verdict = capsys.readouterr().out.splitlines()[-1]
        assert "SATISFIED" in verdict

        def as_v2(state):
            state["format"] = "repro-checker-state-v2"

        # The newest kept checkpoint is from the previous build: skip it
        # with a note, resume from the older kept one, same verdict.
        self._reframe_checkpoints(path, as_v2, newest_only=True)
        assert main([*watch, str(path)]) == 0
        out = capsys.readouterr().out
        assert "note: skipping checkpoint at epoch" in out
        assert "found format 'repro-checker-state-v2'" in out
        assert "resumed from checkpoint" in out and "Traceback" not in out
        assert out.splitlines()[-1] == verdict

        # Both kept checkpoints unusable (old tag; right tag, truncated
        # state): replay from epoch 0 with a note, same verdict.
        self._reframe_checkpoints(path, lambda state: state.pop("slots", None))
        assert main([*watch, str(path)]) == 0
        out = capsys.readouterr().out
        assert "malformed checkpoint state" in out
        assert "note: no usable checkpoint; replaying from epoch 0" in out
        assert "resumed" not in out and "Traceback" not in out
        assert out.splitlines()[-1] == verdict

    @staticmethod
    def _as_v4_files(path):
        """Rewrite each kept checkpoint as the JSON/gzip file (file format
        ``-v1``, state ``-v4``) the previous build wrote, CRC-valid."""
        import zlib

        from repro.history.epochlog import CHECKPOINT_MAGIC, EpochLog

        for ckpt in EpochLog.open(path).checkpoints():
            state = {"format": "repro-checker-state-v4", "level": "strict-serializability", "keys": ["x"],
                     "topo": {"counter": 1, "node": [-1], "ord": [0], "src": [], "dst": [], "typ": [], "key": []}}
            body = {"epochs": ckpt.epochs, "transactions": ckpt.transactions, "state": state}
            payload = gzip.compress(json.dumps(body, separators=(",", ":")).encode(), compresslevel=4, mtime=0)
            header = {"format": "repro-epoch-checkpoint-v1", "epochs": ckpt.epochs,
                      "transactions": ckpt.transactions, "crc32": zlib.crc32(payload), "payload_bytes": len(payload)}
            ckpt.path.write_bytes(CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + payload)

    @pytest.mark.parametrize("old", ["v3-state", "v4-file", "v5-state"])
    def test_watch_replays_past_v3_sser_checkpoints(self, tmp_path, capsys, old):
        # v3 states kept SSER's real time as a finish-sorted interval list in
        # ``rt``; v4 states were JSON (``repro-epoch-checkpoint-v1`` files of
        # gzipped JSON); v5 wrote typed columns of one row per structure
        # (ragged ``readers_count`` / ``readers`` lists per version), v6 the
        # checker's own columns.  Both kept checkpoints are old: each is
        # refused by name, and the log replays to the same verdict.
        path = tmp_path / "history.epochs"
        assert self._generate(path) == 0
        watch = ["watch", "--once", "--level", "sser"]
        code = main([*watch, "--checkpoint-every", "2", str(path)])
        capsys.readouterr()
        assert main([*watch, "--no-resume", str(path)]) == code
        replayed = capsys.readouterr().out.splitlines()

        def as_v3(state):
            state.update(format="repro-checker-state-v3", rt={"finish": [], "start": [], "txn": []})

        def as_v5(state):
            slots = state["slots"]
            state.update(format="repro-checker-state-v5", slots={
                "version": slots.pop("key"), "readers_count": array("q", [0] * len(slots["status"])),
                "readers": array("q"), **slots,
            })
            del state["items"], state["labels"]

        if old in ("v3-state", "v5-state"):
            self._reframe_checkpoints(path, as_v3 if old == "v3-state" else as_v5)
            found = f"repro-checker-state-{old[:2]}"
        else:
            self._as_v4_files(path)
            found = "repro-epoch-checkpoint-v1"
        assert main([*watch, str(path)]) == code
        out = capsys.readouterr().out
        assert out.count(f"found format '{found}'") == 2
        assert "note: no usable checkpoint; replaying from epoch 0" in out
        assert "resumed" not in out and "Traceback" not in out
        assert [line for line in out.splitlines() if not line.startswith("note: ")] == replayed

    def test_watch_refuses_old_format_checkpoints_over_a_retired_log(self, tmp_path, capsys):
        path = tmp_path / "history.epochs"
        assert self._generate(path) == 0
        service = ["watch", "--once", "--level", "si", "--window", "24",
                   "--checkpoint-every", "1"]
        assert main([*service, "--retire", str(path)]) == 0
        assert (path / "RETIRED").exists()
        self._reframe_checkpoints(
            path, lambda state: state.update(format="repro-checker-state-v1")
        )
        capsys.readouterr()
        assert main([*service, str(path)]) == 2
        out = capsys.readouterr().out
        assert "no usable checkpoint covers them" in out
        assert "found format 'repro-checker-state-v1'" in out
        assert "Traceback" not in out

    def test_watch_retires_epochs_behind_window(self, tmp_path, capsys):
        path = tmp_path / "history.epochs"
        assert self._generate(path) == 0
        before = len(list(path.glob("epoch-*.seg")))
        code = main(
            ["watch", "--once", "--level", "si", "--window", "24",
             "--checkpoint-every", "1", "--retire", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "retired" in out and (path / "RETIRED").exists()
        assert len(list(path.glob("epoch-*.seg"))) < before

        # Batch check can no longer see the whole history: clean refusal...
        assert main(["check", "--level", "si", str(path)]) == 2
        assert "retired by window GC" in capsys.readouterr().out
        # ...but the service resumes from its checkpoint past the watermark.
        code = main(
            ["watch", "--once", "--level", "si", "--window", "24",
             "--checkpoint-every", "1", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "resumed from checkpoint" in out and "SATISFIED" in out

    def test_retire_requires_window_and_checkpoints(self, tmp_path, capsys):
        path = tmp_path / "history.epochs"
        assert self._generate(path) == 0
        assert main(["watch", "--once", "--retire", str(path)]) == 2
        assert "--retire" in capsys.readouterr().out

    def test_checkpoint_flags_rejected_on_jsonl(self, tmp_path, capsys):
        path = tmp_path / "stream.jsonl"
        assert main(
            ["generate", "--isolation", "si", "--sessions", "2", "--txns", "10",
             "--objects", "6", "--output", str(path)]
        ) == 0
        assert main(["watch", "--once", "--checkpoint-every", "2", str(path)]) == 2
        assert "epoch log directories" in capsys.readouterr().out

    def test_check_missing_epoch_log_fails_cleanly(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.epochs")]) == 2
        assert "not an epoch log directory" in capsys.readouterr().out

    def test_check_refuses_a_directory_that_is_not_a_log(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.mkdir()
        (plain / ".editor.tmp").write_text("unsaved")
        (plain / "notes.txt").write_text("not a history")
        for extra in ([], ["--workers", "2"]):
            assert main(["check", "--level", "ser", *extra, str(plain)]) == 2
            assert "not an epoch log" in capsys.readouterr().out
        assert sorted(f.name for f in plain.iterdir()) == [".editor.tmp", "notes.txt"]

    def test_watch_follows_a_directory_not_populated_yet(self, tmp_path, capsys):
        empty = tmp_path / "soon.epochs"
        empty.mkdir()
        (empty / ".editor.tmp").write_text("not the log's staging file")
        assert main(["watch", "--once", "--level", "ser", str(empty)]) == 0
        assert "SATISFIED (0 transactions)" in capsys.readouterr().out
        assert (empty / ".editor.tmp").exists()
