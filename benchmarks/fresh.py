#!/usr/bin/env python3
"""Fresh-process before/after tables: two revisions, one list of commands.

    python benchmarks/fresh.py NAME BASE CHANGE [--runs 5]
        [--input FILE="generate ARGS"]... [--stop-line TEXT] -- "COMMAND" ...

``BASE`` and ``CHANGE`` are git revisions (extracted with ``git archive``
into a temporary directory) or a directory that already holds a checkout
(``.`` is the working tree, uncommitted edits included).  Each ``--input``
is made once, before anything is timed, by ``python -m repro generate ARGS
--output FILE`` from ``BASE``; inputs live in the temporary directory and
are never committed.  Each ``COMMAND`` is a ``repro`` command line, run as
``python -m repro COMMAND`` in that directory with ``PYTHONPATH`` set to
the side's ``src/``.

Every cell runs ``--runs`` times per side, each in a fresh process, the
sides alternating and swapping which goes first on every run.  A run records
its wall time, its peak RSS (``ru_maxrss`` from ``os.wait4``), its exit code
and a sha256 of its stdout.  A cell whose stdout or exit code differs
between runs or sides fails the whole table (exit status 1): a speed-up
must print the same bytes.  Rows carry an environment stamp (CPU count,
Python version, platform, the side's commit) and are written to
``benchmarks/tables/NAME.json``; the table is printed in ARCHITECTURE's
markdown format, medians per cell, the stop line first.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
TABLES = ROOT / "benchmarks" / "tables"


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(revision: str, into: Path) -> Tuple[Path, str]:
    """The source tree of ``revision`` and its commit stamp."""
    if Path(revision).is_dir():
        tree = Path(revision).resolve()
        commit = git("rev-parse", "HEAD", cwd=tree)
        dirty = git("status", "--porcelain", cwd=tree)
        return tree, commit + ("+dirty" if dirty else "")
    commit = git("rev-parse", "--verify", f"{revision}^{{commit}}")
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    tree = into / commit[:12]
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree)
    return tree, commit


def run_once(tree: Path, argv: Sequence[str], cwd: Path) -> Dict[str, object]:
    """One fresh ``python -m repro`` process: wall, peak RSS, exit, stdout digest."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    with tempfile.TemporaryFile() as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], cwd=cwd, env=env,
            stdout=subprocess.PIPE, stderr=stderr,
        )
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {
        "wall_s": round(wall, 4),
        "peak_mib": round(usage.ru_maxrss / 1024, 1),
        "exit": proc.returncode,
        "stdout_sha256": hashlib.sha256(out).hexdigest(),
    }


def make_inputs(tree: Path, inputs: Sequence[str], workdir: Path) -> Dict[str, str]:
    """``FILE=generate ARGS`` entries, each generated once from ``tree``."""
    made = {}
    for entry in inputs:
        name, _, args = entry.partition("=")
        argv = [*shlex.split(args), "--output", name]
        if not name or not argv or argv[0] != "generate":
            raise SystemExit(f"error: --input {entry!r}: expected FILE=\"generate ARGS\"")
        result = run_once(tree, argv, workdir)
        if result["exit"] != 0:
            raise SystemExit(f"error: --input {entry!r} exited {result['exit']}")
        made[name] = args
    return made


def stamp(commit: str) -> Dict[str, object]:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def measure(sides: Dict[str, Tuple[Path, str]], commands: Sequence[str], runs: int, workdir: Path):
    """Every (run, command, side), sides alternating and swapping first place per run."""
    rows: List[Dict[str, object]] = []
    order = list(sides)
    for run in range(runs):
        for command in commands:
            for side in order if run % 2 == 0 else order[::-1]:
                tree, commit = sides[side]
                row = {"command": command, "side": side, "run": run}
                row.update(run_once(tree, shlex.split(command), workdir))
                row["env"] = stamp(commit)
                rows.append(row)
                print(f"  run {run} {side:6} {row['wall_s']:7.3f} s {row['peak_mib']:7.1f} MiB"
                      f"  exit {row['exit']}  {command}", file=sys.stderr)
    return rows


def table(rows: Sequence[Dict[str, object]], commands: Sequence[str], stop_line: str) -> Tuple[str, bool]:
    """The markdown table of medians, and whether every cell printed one output."""
    lines = []
    if stop_line:
        lines += [f"Stop line: {stop_line}", ""]
    lines += [
        "| command | base s | change s | ratio | base MiB | change MiB | exit | stdout |",
        "|---|---|---|---|---|---|---|---|",
    ]
    agreed = True
    for command in commands:
        cell = [row for row in rows if row["command"] == command]
        median = {
            (side, field): statistics.median(row[field] for row in cell if row["side"] == side)
            for side in ("base", "change") for field in ("wall_s", "peak_mib")
        }
        digests = {row["stdout_sha256"] for row in cell}
        exits = {row["exit"] for row in cell}
        same = len(digests) == 1 and len(exits) == 1
        agreed &= same
        ratio = median["change", "wall_s"] / median["base", "wall_s"]
        lines.append(
            f"| `{command}` | {median['base', 'wall_s']:.2f} | {median['change', 'wall_s']:.2f} "
            f"| {ratio:.2f} | {median['base', 'peak_mib']:.1f} | {median['change', 'peak_mib']:.1f} "
            f"| {'/'.join(map(str, sorted(exits)))} "
            f"| {'same ' + next(iter(digests))[:12] if same else 'DIFFERS'} |"
        )
    return "\n".join(lines), agreed


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("name", help="the table's name: benchmarks/tables/NAME.json")
    parser.add_argument("base", help="git revision or checkout directory (the parent)")
    parser.add_argument("change", help="git revision or checkout directory (the change)")
    parser.add_argument("commands", nargs="+", help="repro command lines, one per cell")
    parser.add_argument("--runs", type=int, default=5, help="runs per side and cell (default 5)")
    parser.add_argument("--input", action="append", default=[], metavar='FILE="generate ARGS"')
    parser.add_argument("--stop-line", default="", help="the stop line, printed above the table")
    args = parser.parse_args(argv or None)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    with tempfile.TemporaryDirectory(prefix="fresh-") as scratch:
        scratch = Path(scratch)
        sides = {"base": checkout(args.base, scratch), "change": checkout(args.change, scratch)}
        workdir = scratch / "work"
        workdir.mkdir()
        inputs = make_inputs(sides["base"][0], args.input, workdir)
        rows = measure(sides, args.commands, args.runs, workdir)
    text, agreed = table(rows, args.commands, args.stop_line)
    TABLES.mkdir(parents=True, exist_ok=True)
    document = {
        "name": args.name,
        "stop_line": args.stop_line,
        "runs": args.runs,
        "base": {"revision": args.base, **stamp(sides["base"][1])},
        "change": {"revision": args.change, **stamp(sides["change"][1])},
        "inputs": inputs,
        "rows": rows,
    }
    path = TABLES / f"{args.name}.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(text)
    print(f"\nrows: {path.relative_to(ROOT)}")
    if not agreed:
        print("error: a cell's stdout or exit code differs between runs or sides", file=sys.stderr)
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
