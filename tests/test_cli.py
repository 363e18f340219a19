"""Tests for the command-line interface."""

import json
import shutil

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_check_defaults(self):
        args = build_parser().parse_args(["check", "history.json"])
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


_GENERATE = ["generate", "--isolation", "si", "--sessions", "4", "--txns", "20", "--objects", "8"]
_LOST_UPDATE = ["--fault", "lostupdate", "--fault-rate", "0.6"]
#: One file name per container; the two streams default to the streaming route.
CONTAINERS = ["h.json", "h.jsonl", "h.jsonl.gz", "h.seg", "h.seg.gz", "h.epochs"]
STREAMS = ["h.jsonl", "h.jsonl.gz"]
FOLLOWABLE = [*STREAMS, "h.epochs"]


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
    """A healthy and a lost-update history, each in all six containers."""
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
    """One history, six containers, three routes: one answer per route."""

    def test_stdout_and_exit_code_do_not_depend_on_the_container(
        self, histories, kind, level, capsys
    ):
        d = histories / kind
        batch = {n: run(capsys, "check", "--level", level, d / n) for n in CONTAINERS}
        stream = {n: run(capsys, "check", "--stream", "--level", level, d / n) for n in CONTAINERS}
        watch = {n: run(capsys, "watch", "--once", "--level", level, d / n) for n in FOLLOWABLE}
        # Streamed, the verdict and every [txn #N] label are the same bytes
        # whatever holds the rows and whichever command streams them...
        assert len({*stream.values(), *watch.values()}) == 1
        # ...and so is the batch report; a .jsonl input defaults to streaming.
        assert len({batch[n] for n in CONTAINERS if n not in STREAMS}) == 1
        assert all(batch[n] == stream[n] for n in STREAMS)
        for code, out in (batch["h.seg"], stream["h.seg"]):
            if kind == "healthy":
                assert code == 0 and "SATISFIED" in out and "[txn #" not in out
            else:
                assert code == 1 and "VIOLATED" in out
        if kind == "lostupdate":
            assert "[txn #" in stream["h.seg"][1] and "[txn #" not in batch["h.seg"][1]

    def test_workers_equal_serial_where_accepted_and_are_refused_elsewhere(
        self, histories, kind, level, capsys
    ):
        d = histories / kind
        for name in CONTAINERS:
            sharded = run(capsys, "check", "--workers", "2", "--level", level, d / name)
            if name in STREAMS:
                assert sharded == (2, (
                    "error: --workers applies to batch checking; a .jsonl input is "
                    "checked as a stream; convert it to a history JSON document for "
                    "sharded batch checking\n"
                ))
            else:
                assert sharded == run(capsys, "check", "--level", level, d / name)
            assert run(
                capsys, "check", "--stream", "--workers", "2", "--level", level, d / name
            ) == (2, "error: --workers applies to batch checking; drop --stream to use it\n")


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

    def test_gzip_segment_cut_in_its_trailer_exits_2(self, histories, tmp_path, capsys):
        whole = (histories / "healthy" / "h.seg.gz").read_bytes()
        torn = tmp_path / "cut.seg.gz"
        for cut in range(1, 13):
            torn.write_bytes(whole[:-cut])
            code, out = run(capsys, "check", "--level", "ser", torn)
            assert code == 2 and out.startswith(f"error: {torn}: truncated segment"), cut

    def test_generate_reports_what_it_ran(self, tmp_path, capsys):
        code, out = run(capsys, *_GENERATE, "--output", tmp_path / "h.json")
        assert code == 0 and "committed" in out and "injected defects" not in out
        code, out = run(
            capsys, *_GENERATE, *_LOST_UPDATE, "--distribution", "zipf", "--output", tmp_path / "b.json"
        )
        assert code == 0 and "committed" in out and "injected defects" in out

    @pytest.mark.parametrize("rate", ["5", "-0.5"])
    def test_generate_refuses_a_fault_rate_outside_zero_one(self, rate, tmp_path, capsys):
        code, out = run(
            capsys, *_GENERATE, "--fault", "lostupdate", "--fault-rate", rate,
            "--output", tmp_path / "h.json",
        )
        assert code == 2
        assert out.startswith("error: lost_update_rate is a probability in [0, 1]")
        assert not (tmp_path / "h.json").exists()

    def test_generate_writes_each_container(self, tmp_path):
        for name in CONTAINERS:
            assert main([*_GENERATE, "--epoch-txns", "16", "--output", str(tmp_path / name)]) == 0
        assert json.loads((tmp_path / "h.json").read_text())["format"] == "repro-history-v1"
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
        assert json.loads((tmp_path / "there.json").read_text())["format"] == "repro-history-v1"

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
        for extra in ([], ["--stream"], ["--workers", "2"]):
            assert run(capsys, "check", "--level", "si", *extra, odd) == run(
                capsys, "check", "--level", "si", *extra, healthy / "h.epochs"
            )
        assert run(capsys, "watch", "--once", odd) == run(capsys, "watch", "--once", healthy / "h.epochs")
        assert run(capsys, "convert", odd, tmp_path / "back.jsonl")[0] == 0
        assert rows(tmp_path / "back.jsonl") == rows(healthy / "h.jsonl")

    @pytest.mark.parametrize(
        "name, what", [("h.json", "JSON documents"), ("h.seg", "columnar segments"), ("h.seg.gz", "columnar segments")]
    )
    def test_watch_refuses_what_is_written_whole(self, name, what, histories, capsys):
        code, out = run(capsys, "watch", "--once", histories / "healthy" / name)
        assert code == 2
        assert out.startswith(f"error: {what} are written atomically and cannot be followed")

    def test_verbose_streaming_note_is_printed_for_every_container(self, histories, capsys):
        for name in CONTAINERS:
            code, out = run(capsys, "check", "-v", "--stream", histories / "healthy" / name)
            assert code == 0
            assert out.startswith("note: -v telemetry applies to batch checks")
            assert "phases:" not in out

    @pytest.mark.parametrize("name", CONTAINERS)
    def test_stream_with_workers_is_refused_before_loading(self, name, tmp_path, capsys):
        unreadable = tmp_path / name
        unreadable.write_bytes(b"REPROSEG1\n{}")  # never parsed: flags fail first
        assert main(["check", "--stream", "--workers", "2", str(unreadable)]) == 2
        assert "--workers applies to batch" in capsys.readouterr().out

    def test_non_positive_workers_rejected_in_cli_wording(self, histories, capsys):
        code, out = run(capsys, "check", "--workers", "0", histories / "healthy" / "h.json")
        assert (code, out.strip()) == (2, "error: --workers must be >= 1")

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

    @pytest.mark.parametrize("source", ["typo.seg", "torn.seg", "bad.json", "bad.jsonl"])
    @pytest.mark.parametrize("destination", ["out.epochs", "out.jsonl", "out.seg"])
    def test_convert_from_a_bad_source_leaves_no_destination(
        self, source, destination, tmp_path, capsys
    ):
        if source != "typo.seg":  # that one does not exist at all
            (tmp_path / source).write_bytes(b"REPROSEG1\n{" if source == "torn.seg" else b"{")
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


def _document(*transactions):
    session = {"session_id": 0, "transactions": list(transactions)}
    return {"format": "repro-history-v1", "sessions": [session]}


_NO_TXN_ID = {"operations": []}
_NO_KEY = {"txn_id": 1, "operations": [{"op": "r", "value": 1}]}
#: shape -> (the .json document, the .jsonl line after a valid header)
_MALFORMED = {
    "top-level-array": ([1, 2], [1, 2]),
    "list-field-is-an-int": (
        {"format": "repro-history-v1", "sessions": 5},
        {"txn_id": 1, "operations": 5},
    ),
    "transaction-is-an-int": (_document(7), 7),
    "transaction-without-txn-id": (_document(_NO_TXN_ID), _NO_TXN_ID),
    "operation-without-key": (_document(_NO_KEY), _NO_KEY),
    "txn-id-is-a-list": (_document({"txn_id": [1]}), {"txn_id": [1]}),
}


class TestMalformedHistories:
    """Bad structure is a usage error (exit 2), never a traceback or exit 1."""

    @pytest.mark.parametrize("shape", sorted(_MALFORMED))
    @pytest.mark.parametrize("route", ["check", "check --stream", "watch --once"])
    def test_structural_damage_exits_2_on_every_route(
        self, shape, route, tmp_path, capsys
    ):
        document, line = _MALFORMED[shape]
        if route.startswith("watch"):
            path = tmp_path / "bad.jsonl"
            header = json.dumps({"format": "repro-history-stream-v1"})
            path.write_text(f"{header}\n{json.dumps(line)}\n")
        else:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(document))
        assert main([*route.split(), "--level", "ser", str(path)]) == 2
        assert "error: malformed history: " in capsys.readouterr().out


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

    def test_collect_writes_jsonl_and_json(self, tmp_path, capsys):
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

        doc = tmp_path / "e2e.json"
        assert main(
            ["collect", "--adapter", "sqlite", "--wal", "--mode", "deferred",
             "--sessions", "2", "--txns", "10", "--objects", "6", "--output", str(doc)]
        ) == 0
        assert json.loads(doc.read_text())["format"] == "repro-history-v1"

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

    def test_collect_rejects_workers_without_check(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        assert main(["collect", "--workers", "4", "--output", str(out)]) == 2
        assert "--workers applies to verification" in capsys.readouterr().out


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
        for supervise in ([], ["--supervise"]):
            assert main([*service, *supervise, str(path)]) == 2
            out = capsys.readouterr().out
            assert "no usable checkpoint covers them" in out
            assert "found format 'repro-checker-state-v1'" in out
            assert "Traceback" not in out and "watch fault" not in out

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
        for extra in ([], ["--stream"]):
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
