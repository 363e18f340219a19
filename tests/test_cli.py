"""Tests for the command-line interface."""

import json

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


class TestGenerateAndCheck:
    def test_generate_then_check_valid_history(self, tmp_path, capsys):
        path = tmp_path / "history.json"
        code = main(
            [
                "generate",
                "--isolation",
                "si",
                "--sessions",
                "4",
                "--txns",
                "20",
                "--objects",
                "10",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        assert path.exists()
        assert "committed" in capsys.readouterr().out

        code = main(["check", "--level", "si", str(path)])
        output = capsys.readouterr().out
        assert code == 0
        assert "SATISFIED" in output

    def test_generate_buggy_then_check_detects_violation(self, tmp_path, capsys):
        path = tmp_path / "buggy.json"
        code = main(
            [
                "generate",
                "--isolation",
                "si",
                "--fault",
                "lostupdate",
                "--fault-rate",
                "0.6",
                "--sessions",
                "6",
                "--txns",
                "40",
                "--objects",
                "6",
                "--distribution",
                "zipf",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        assert "injected defects" in capsys.readouterr().out

        code = main(["check", "--level", "si", str(path)])
        output = capsys.readouterr().out
        assert code == 1
        assert "VIOLATED" in output

    def test_generated_file_is_valid_json(self, tmp_path):
        path = tmp_path / "history.json"
        main(["generate", "--sessions", "2", "--txns", "5", "--objects", "5", "--output", str(path)])
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-history-v1"


class TestStreamingCommands:
    def _generate(self, path, *extra):
        return main(
            [
                "generate",
                "--isolation",
                "si",
                "--sessions",
                "4",
                "--txns",
                "20",
                "--objects",
                "8",
                "--output",
                str(path),
                *extra,
            ]
        )

    def test_generate_jsonl_then_stream_check(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        assert self._generate(path) == 0
        first_line = path.read_text().splitlines()[0]
        assert json.loads(first_line)["format"] == "repro-history-stream-v1"

        code = main(["check", "--level", "si", str(path)])  # --stream implied
        output = capsys.readouterr().out
        assert code == 0
        assert "SATISFIED" in output

    def test_stream_check_reports_offending_transaction(self, tmp_path, capsys):
        path = tmp_path / "buggy.jsonl"
        assert (
            self._generate(path, "--fault", "lostupdate", "--fault-rate", "0.6") == 0
        )
        code = main(["check", "--stream", "--level", "si", str(path)])
        output = capsys.readouterr().out
        assert code == 1
        assert "[txn #" in output and "VIOLATED" in output

    def test_stream_check_works_on_plain_json_too(self, tmp_path, capsys):
        path = tmp_path / "history.json"
        assert self._generate(path) == 0
        code = main(["check", "--stream", "--level", "si", str(path)])
        assert code == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_watch_once_verifies_existing_stream(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        assert self._generate(path) == 0
        code = main(["watch", "--level", "si", "--once", str(path)])
        assert code == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_watch_once_flags_faulty_stream(self, tmp_path, capsys):
        path = tmp_path / "buggy.jsonl"
        assert (
            self._generate(path, "--fault", "lostupdate", "--fault-rate", "0.6") == 0
        )
        code = main(["watch", "--level", "si", "--once", "--window", "60", str(path)])
        output = capsys.readouterr().out
        assert code == 1
        assert "[txn #" in output

    def test_watch_rejects_non_stream_file(self, tmp_path, capsys):
        path = tmp_path / "history.json"
        assert self._generate(path) == 0
        code = main(["watch", "--once", str(path)])
        assert code == 2
        assert "not a" in capsys.readouterr().out

    def test_watch_tolerates_partially_written_last_line(self, tmp_path, capsys):
        # A producer caught mid-append leaves a line without its newline; the
        # watch must skip it with a warning instead of dying on a parse error.
        path = tmp_path / "history.jsonl"
        assert self._generate(path) == 0
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_bytes(path.read_bytes()[:-20])
        code = main(["watch", "--level", "si", "--once", str(truncated)])
        output = capsys.readouterr().out
        assert code == 0
        assert "incomplete trailing line" in output and "SATISFIED" in output

    def test_check_and_watch_agree_on_transaction_numbering(self, tmp_path, capsys):
        path = tmp_path / "buggy.jsonl"
        assert (
            self._generate(path, "--fault", "lostupdate", "--fault-rate", "0.6") == 0
        )
        main(["check", "--stream", "--level", "si", str(path)])
        check_tags = [l.split("]")[0] for l in capsys.readouterr().out.splitlines() if l.startswith("[txn #")]
        main(["watch", "--once", "--level", "si", str(path)])
        watch_tags = [l.split("]")[0] for l in capsys.readouterr().out.splitlines() if l.startswith("[txn #")]
        assert check_tags and check_tags == watch_tags


class TestSegmentAndConvertCommands:
    def _generate(self, path, *extra):
        return main(
            ["generate", "--isolation", "si", "--sessions", "4", "--txns", "20",
             "--objects", "8", "--output", str(path), *extra]
        )

    def test_generate_segment_then_check_batch_and_stream(self, tmp_path, capsys):
        path = tmp_path / "history.seg"
        assert self._generate(path) == 0
        assert path.read_bytes().startswith(b"REPROSEG1")
        assert main(["check", "--level", "si", str(path)]) == 0
        assert "SATISFIED" in capsys.readouterr().out
        assert main(["check", "--level", "si", "--stream", str(path)]) == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_check_segment_with_workers(self, tmp_path, capsys):
        path = tmp_path / "history.seg.gz"
        assert self._generate(path) == 0
        assert main(["check", "--level", "ser", "--workers", "2", str(path)]) == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_faulty_segment_is_detected(self, tmp_path, capsys):
        path = tmp_path / "buggy.seg"
        assert self._generate(path, "--fault", "lostupdate", "--fault-rate", "0.6") == 0
        assert main(["check", "--level", "si", str(path)]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_segment_stream_tags_match_jsonl_stream_tags(self, tmp_path, capsys):
        jsonl = tmp_path / "buggy.jsonl"
        assert self._generate(jsonl, "--fault", "lostupdate", "--fault-rate", "0.6") == 0
        capsys.readouterr()
        assert main(["convert", str(jsonl), str(tmp_path / "buggy.seg")]) == 0
        capsys.readouterr()
        main(["check", "--stream", "--level", "si", str(jsonl)])
        jsonl_tags = [
            l.split("]")[0] for l in capsys.readouterr().out.splitlines()
            if l.startswith("[txn #")
        ]
        main(["check", "--stream", "--level", "si", str(tmp_path / "buggy.seg")])
        seg_tags = [
            l.split("]")[0] for l in capsys.readouterr().out.splitlines()
            if l.startswith("[txn #")
        ]
        assert jsonl_tags and jsonl_tags == seg_tags

    def test_segment_stream_rejects_workers_before_loading(self, tmp_path, capsys):
        missing = tmp_path / "never-created.seg"
        missing.write_bytes(b"REPROSEG1\n{}")  # never parsed: flags fail first
        assert main(["check", "--stream", "--workers", "2", str(missing)]) == 2
        assert "--workers applies to batch" in capsys.readouterr().out

    def test_non_positive_workers_rejected_in_cli_wording(self, tmp_path, capsys):
        path = tmp_path / "history.json"
        assert self._generate(path) == 0
        capsys.readouterr()
        assert main(["check", "--workers", "0", str(path)]) == 2
        assert capsys.readouterr().out.strip() == "error: --workers must be >= 1"

    def test_convert_round_trip_preserves_stream(self, tmp_path, capsys):
        jsonl = tmp_path / "h.jsonl"
        assert self._generate(jsonl) == 0
        assert main(["convert", str(jsonl), str(tmp_path / "h.seg")]) == 0
        assert main(["convert", str(tmp_path / "h.seg"), str(tmp_path / "back.jsonl.gz")]) == 0
        assert "converted" in capsys.readouterr().out

        from repro.history import iter_history_jsonl

        original = [(t.txn_id, t.status, str(t)) for t in iter_history_jsonl(jsonl)]
        restored = [
            (t.txn_id, t.status, str(t))
            for t in iter_history_jsonl(tmp_path / "back.jsonl.gz")
        ]
        assert original == restored

    def test_convert_to_json_document(self, tmp_path, capsys):
        seg = tmp_path / "h.seg"
        assert self._generate(seg) == 0
        doc = tmp_path / "h.json"
        assert main(["convert", str(seg), str(doc)]) == 0
        assert json.loads(doc.read_text())["format"] == "repro-history-v1"
        assert main(["check", "--level", "si", str(doc)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("name", ["h.jsonl", "h.seg", "h.epochs"])
    def test_convert_onto_itself_is_refused(self, name, tmp_path, capsys):
        path = tmp_path / name
        assert self._generate(path) == 0

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

    def test_gzip_jsonl_checks_and_watches(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl.gz"
        assert self._generate(path) == 0
        assert main(["check", "--level", "si", str(path)]) == 0
        assert main(["watch", "--level", "si", "--once", str(path)]) == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_watch_rejects_segments(self, tmp_path, capsys):
        path = tmp_path / "history.seg"
        assert self._generate(path) == 0
        assert main(["watch", "--once", str(path)]) == 2
        assert "cannot be followed" in capsys.readouterr().out

    def test_collect_writes_segment(self, tmp_path, capsys):
        path = tmp_path / "collected.seg"
        code = main(
            ["collect", "--adapter", "simulated", "--isolation", "si", "--sessions", "2",
             "--txns", "10", "--objects", "6", "--output", str(path)]
        )
        assert code == 0
        assert main(["check", "--level", "ser", str(path)]) == 0
        capsys.readouterr()


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
        killer = threading.Timer(0.3, lambda: shutil.rmtree(path))
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

    def test_generate_then_check_batch_stream_and_workers(self, tmp_path, capsys):
        path = tmp_path / "history.epochs"
        assert self._generate(path) == 0
        assert (path / "MANIFEST.json").exists()
        assert sorted(path.glob("epoch-*.seg"))
        for extra in ([], ["--stream"], ["--workers", "2"]):
            assert main(["check", "--level", "si", *extra, str(path)]) == 0
            assert "SATISFIED" in capsys.readouterr().out

    def test_faulty_epoch_log_is_detected(self, tmp_path, capsys):
        path = tmp_path / "buggy.epochs"
        assert self._generate(path, "--fault", "lostupdate", "--fault-rate", "0.6") == 0
        assert main(["check", "--level", "si", str(path)]) == 1
        assert "VIOLATED" in capsys.readouterr().out
        assert main(["watch", "--once", "--level", "si", str(path)]) == 1
        assert "[txn #" in capsys.readouterr().out

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

        def as_v1(state):
            state["format"] = "repro-checker-state-v1"

        # The newest kept checkpoint is from an older build: skip it with a
        # note, resume from the older kept one, same verdict.
        self._reframe_checkpoints(path, as_v1, newest_only=True)
        assert main([*watch, str(path)]) == 0
        out = capsys.readouterr().out
        assert "note: skipping checkpoint at epoch" in out
        assert "found format 'repro-checker-state-v1'" in out
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

    def test_convert_round_trips_through_epoch_log(self, tmp_path, capsys):
        jsonl = tmp_path / "h.jsonl"
        assert main(
            ["generate", "--isolation", "si", "--sessions", "4", "--txns", "20",
             "--objects", "8", "--output", str(jsonl)]
        ) == 0
        epochs = tmp_path / "h.epochs"
        assert main(["convert", str(jsonl), str(epochs), "--epoch-txns", "16"]) == 0
        back = tmp_path / "back.jsonl"
        assert main(["convert", str(epochs), str(back)]) == 0
        capsys.readouterr()

        from repro.history import iter_history_jsonl

        original = [(t.txn_id, t.status, str(t)) for t in iter_history_jsonl(jsonl)]
        restored = [(t.txn_id, t.status, str(t)) for t in iter_history_jsonl(back)]
        assert original == restored

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
