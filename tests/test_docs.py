"""Docs lint: documentation code blocks execute, internal links resolve, and
the ARCHITECTURE metric table is the metric catalog.

Every fenced ``python`` block in README.md and docs/*.md is executed (blocks
within one file share a namespace, so snippets may build on each other), and
every ``bash``/``sh``/``console`` block has its ``python -m repro …`` lines
replayed through :func:`repro.cli.main` in a scratch directory.  Relative
markdown links must point at files that exist in the repository.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import main as repro_main

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO_ROOT / "README.md"] + sorted((REPO_ROOT / "docs").glob("*.md"))

FENCE_RE = re.compile(r"^```(\w*)\s*$")
LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")


def fenced_blocks(path):
    """Yield ``(language, code)`` for each fenced block in a markdown file."""
    language, lines = None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        match = FENCE_RE.match(line.strip())
        if match and language is None:
            language, lines = match.group(1).lower(), []
        elif line.strip() == "```" and language is not None:
            yield language, "\n".join(lines)
            language, lines = None, []
        elif language is not None:
            lines.append(line)


def shell_commands(code):
    """The ``python -m repro …`` invocations of a shell block, as argv lists."""
    merged = []
    for raw in code.splitlines():
        line = raw.strip()
        if line.startswith("$ "):
            line = line[2:]
        if merged and merged[-1].endswith("\\"):
            merged[-1] = merged[-1][:-1].rstrip() + " " + line
        elif line:
            merged.append(line)
    for line in merged:
        if line.startswith("python -m repro"):
            yield shlex.split(line)[3:]


def test_documentation_exists():
    assert (REPO_ROOT / "README.md").exists()
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").exists()
    assert (REPO_ROOT / "docs" / "API.md").exists()


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_code_blocks_execute(doc, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    executed = 0
    for language, code in fenced_blocks(doc):
        if language == "python":
            exec(compile(code, f"{doc.name} snippet", "exec"), namespace)
            executed += 1
        elif language in ("bash", "sh", "console"):
            for argv in shell_commands(code):
                exit_code = repro_main(argv)
                assert exit_code in (0, 1), (argv, exit_code)
                executed += 1
    capsys.readouterr()
    if doc.name == "README.md":
        assert executed > 0, "README must contain runnable quickstart snippets"


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_internal_links_resolve(doc):
    for match in LINK_RE.finditer(doc.read_text(encoding="utf-8")):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        resolved = (doc.parent / relative).resolve()
        assert resolved.exists(), f"{doc.name}: broken link -> {target}"


def test_architecture_metric_table_is_the_catalog():
    """The ARCHITECTURE metric table lists exactly ``METRIC_CATALOG``'s
    families, one row each, in catalog order and with their kinds."""
    from repro.obs import METRIC_CATALOG

    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    lines = text[text.index("| Family | Kind | Meaning |"):].splitlines()[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        family, kind = (cell.strip() for cell in line.strip("|").split("|")[:2])
        rows.append((family.strip("`").split("{")[0], kind))
    assert rows == [(family, kind) for family, (kind, _) in METRIC_CATALOG.items()]
