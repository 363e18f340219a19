"""What a command imports, and the package surfaces that make it so.

Every package ``__init__`` is a PEP 562 surface (``repro._lazy.surface``):
one table, public name -> defining module, from which ``__all__`` is
derived and through which a name is imported on first access.  The tests
below pin four things:

* a command loads the modules it runs and no others (subprocesses, so the
  test run's own imports cannot hide a regression);
* every surface is complete and resolves each name to the object its
  defining module holds;
* the layering: the module-level import graph of ``src/repro`` is acyclic,
  and the checking layers never reach up into the simulator, the
  collectors, the workloads, the baselines or the paper harness;
* every function and class in ``src/`` has a caller outside the tests,
  or a stated reason to stay.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SEGMENT = ROOT / "tests" / "corpus" / "chaos-lost-write.seg"

#: ``benchmarks/pipeline/run.py::COLD_START``, copied: a tester's first verdict.
COLD_START = (
    "import repro\n"
    "from repro import MTChecker, IsolationLevel, anomaly_history\n"
    "r = MTChecker().verify(anomaly_history('WriteSkew'), IsolationLevel.SERIALIZABILITY)\n"
    "print(r.satisfied, r.violation.kind.value)\n"
)


def python(*args):
    """Run a fresh interpreter on ``src``; return ``(exit code, stdout, imported modules)``.

    The modules are read from ``-X importtime``, which names every module
    the process imports, in import order.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return done.returncode, done.stdout, modules


def loaded(modules, names):
    """The members of ``names`` that ``modules`` holds, submodules included."""
    return sorted(
        name for name in names
        if any(m == name or m.startswith(name + ".") for m in modules)
    )


class TestWhatACommandLoads:
    def test_the_cold_start_loads_only_the_batch_kernel(self):
        code, out, modules = python("-c", COLD_START)
        assert code == 0
        assert out.split() == ["False", "WriteSkew"]
        assert loaded(modules, [
            "repro.adapters", "repro.db", "repro.workloads", "repro.parallel",
            "repro.baselines", "repro.bench", "repro.core.incremental",
            "repro.history.epochlog", "asyncio", "sqlite3", "multiprocessing",
        ]) == []

    def test_check_on_a_segment_loads_no_simulator_or_collector(self):
        code, out, modules = python("-m", "repro", "check", str(SEGMENT))
        assert code == 1, out
        assert "VIOLATED" in out
        assert loaded(modules, [
            "repro.db", "repro.adapters", "repro.workloads", "repro.parallel",
            "asyncio", "sqlite3",
        ]) == []

    def test_version_loads_no_checker(self):
        code, out, modules = python("-m", "repro", "--version")
        assert code == 0
        assert out.startswith("repro ")
        assert "repro.cli" in modules
        assert loaded(modules, ["repro.core"]) == []


# ----------------------------------------------------------------------
# The lazy surfaces
# ----------------------------------------------------------------------
PACKAGES = sorted(
    ".".join(("repro",) + path.parent.relative_to(PACKAGE).parts)
    for path in PACKAGE.rglob("__init__.py")
)


def source_of(module):
    path = PACKAGE.joinpath(*module.split(".")[1:])
    return (path / "__init__.py") if path.is_dir() else path.with_suffix(".py")


def surface_table(package):
    """The ``{name: module}`` literal a package hands to ``surface``."""
    tree = ast.parse(source_of(package).read_text())
    tables = [
        node.args[1] for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "surface"
    ]
    assert len(tables) == 1, f"{package}: expected one surface(...) call"
    table = ast.literal_eval(tables[0])
    assert isinstance(table, dict)
    return table


def module_level_bindings(module):
    """Names ``module`` binds at module level other than by importing them."""
    names = set()
    for node in ast.walk(ast.parse(source_of(module).read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_every_package_is_a_surface():
    assert "repro" in PACKAGES and "repro.obs" in PACKAGES and len(PACKAGES) >= 12


@pytest.mark.parametrize("package", PACKAGES)
class TestSurfaces:
    def test_the_table_is_the_only_list(self, package):
        module = importlib.import_module(package)
        assert module.__all__ == list(surface_table(package))
        tree = ast.parse(source_of(package).read_text())
        hand_kept = [
            node for node in tree.body
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            )
        ]
        assert hand_kept == []

    def test_each_name_is_the_object_its_defining_module_holds(self, package):
        module = importlib.import_module(package)
        for name, where in surface_table(package).items():
            defining = module if where == "." else importlib.import_module(where, package)
            value = getattr(module, name)
            assert value is getattr(defining, name), f"{package}.{name}"
            # ... and the module named there defines it rather than re-exporting it.
            assert name in module_level_bindings(defining.__name__), (
                f"{package}.{name} maps to {defining.__name__}, which imports it"
            )

    def test_star_import_and_dir(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(namespace)
        assert set(module.__all__) <= set(dir(module))

    def test_an_unknown_name_names_the_module(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=re.escape(f"module {package!r} has no attribute")):
            getattr(module, "no_such_name")


def test_a_name_resolves_on_first_access_and_is_cached():
    code, out, _ = python("-c", (
        "import sys, repro\n"
        "print('repro.core.checker' in sys.modules, 'MTChecker' in vars(repro))\n"
        "from repro.core.checker import MTChecker\n"
        "print(repro.MTChecker is MTChecker, 'MTChecker' in vars(repro))\n"
    ))
    assert code == 0
    assert out.split() == ["False", "False", "True", "True"]


# ----------------------------------------------------------------------
# Layering
# ----------------------------------------------------------------------
def module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(path): path for path in PACKAGE.rglob("*.py")}


def is_type_checking(node):
    return isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)


def imported_modules(module, node):
    """The ``repro`` modules an import statement in ``module`` names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names if alias.name.split(".")[0] == "repro"]
    package = module if MODULES[module].name == "__init__.py" else module.rpartition(".")[0]
    if node.level:
        base = ".".join(package.split(".")[: len(package.split(".")) - node.level + 1])
        base = ".".join(filter(None, [base, node.module]))
    else:
        base = node.module or ""
    if base.split(".")[0] != "repro":
        return []
    # ``from pkg import sub`` imports the submodule; ``from mod import name`` the module.
    return [f"{base}.{a.name}" if f"{base}.{a.name}" in MODULES else base for a in node.names]


def imports(module, *, module_level):
    """``(imported module, enclosing function or None)`` for every import in ``module``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if module_level and is_type_checking(child):
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if module_level:
                    continue
                visit(child, f"{function}.{child.name}" if function else child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{function}.{child.name}" if function else child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                found.extend((name, function) for name in imported_modules(module, child))
            else:
                visit(child, function)

    visit(ast.parse(MODULES[module].read_text()), None)
    return found


def test_the_module_level_import_graph_is_acyclic():
    graph = {m: sorted({name for name, _ in imports(m, module_level=True)}) for m in MODULES}
    state = {}

    def visit(module, path):
        state[module] = "open"
        for target in graph.get(module, ()):
            if state.get(target) == "open":
                cycle = path[path.index(target):] + [target]
                pytest.fail("import cycle: " + " -> ".join(cycle))
            if target not in state:
                visit(target, path + [target])
        state[module] = "done"

    for module in sorted(graph):
        if module not in state:
            visit(module, [module])


LOWER_LAYERS = ("repro.core", "repro.history", "repro.obs", "repro.ondisk", "repro.resilience")
UPPER_LAYERS = ("repro.db", "repro.adapters", "repro.workloads", "repro.baselines", "repro.bench")


def within(name, prefixes):
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def test_the_checking_layers_never_import_upward():
    wrong = []
    for module in sorted(m for m in MODULES if within(m, LOWER_LAYERS)):
        for name, function in imports(module, module_level=False):
            if within(name, UPPER_LAYERS):
                wrong.append(f"{module} ({function or 'module level'}) imports {name}")
            elif within(name, ("repro.parallel",)) and (
                module, function) != ("repro.core.checker", "MTChecker._verify"):
                wrong.append(f"{module} ({function or 'module level'}) imports {name}")
    assert wrong == []


def test_the_layering_scan_sees_function_level_imports():
    # The one permitted upward import is found where it is, so the scan
    # above does look inside functions.
    assert ("repro.parallel", "MTChecker._verify") in imports(
        "repro.core.checker", module_level=False
    )


def references(tree):
    """``(name, line)`` of every ``Name``, ``Attribute`` and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno
                if alias.asname:
                    yield alias.asname, node.lineno


def names_in(module):
    """Every identifier ``module``'s code names: imports, names and attributes."""
    return {name for name, _ in references(ast.parse(MODULES[module].read_text()))}


@pytest.mark.parametrize("module", ["repro.core.checkers", "repro.parallel.executor"])
def test_the_batch_path_builds_its_graph_with_the_kernel(module):
    # ``build_dependency`` is the reference builder (its ``dense=`` arm only
    # forwards to ``CSRGraph.from_index``); the batch path calls the kernel.
    # The executor builds no graph of its own: shards and SSER go through
    # ``check_level``.
    names = names_in(module)
    assert ("from_index" if module == "repro.core.checkers" else "check_level") in names
    assert "build_dependency" not in names


# ----------------------------------------------------------------------
# Dead definitions
# ----------------------------------------------------------------------
#: Definitions kept although nothing outside the tests names them, each
#: with the reason it stays.
UNCALLED_BUT_KEPT = {
    "repro.baselines.dbcop::DbcopChecker": (
        "test oracle: tests/corpus/build.py and tests/test_baselines.py check "
        "MTC's SER verdicts against DBCop's exhaustive search"),
    "repro.core.mini::is_mini_transaction": (
        "the paper's Definition 8 as a predicate on one transaction, on the "
        "top-level surface beside validate_mt_history (Definition 9)"),
}


def definitions(tree):
    """``(qualified name, node)`` of every function and class defined at
    module level or in a class body (nested functions are their enclosing
    function's business)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((owner + child.name, child))
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{owner}{child.name}.")
            elif isinstance(child, (ast.If, ast.Try)):
                visit(child, owner)

    visit(tree, "")
    return found


def uncalled_definitions():
    """Every ``module::Qualified.name`` in ``src/`` that no code names
    outside its own body, in ``src/``, ``benchmarks/`` or ``examples/``, and
    that ``docs/API.md`` does not name (the surface tables and ``__all__``
    are strings, so they do not count; neither do the tests)."""
    trees = {module: ast.parse(path.read_text()) for module, path in MODULES.items()}
    elsewhere = set(re.findall(r"\w+", (ROOT / "docs" / "API.md").read_text()))
    for directory in ("benchmarks", "examples"):
        for path in (ROOT / directory).rglob("*.py"):
            elsewhere.update(name for name, _ in references(ast.parse(path.read_text())))
    lines = {}  # name -> module -> lines naming it
    for module, tree in trees.items():
        for name, line in references(tree):
            lines.setdefault(name, {}).setdefault(module, []).append(line)
    found = set()
    for module, tree in trees.items():
        for qualified, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in elsewhere:
                continue
            named = lines.get(name, {})
            if any(other != module for other in named) or any(
                not node.lineno <= line <= node.end_lineno for line in named.get(module, ())
            ):
                continue
            found.add(f"{module}::{qualified}")
    return found


def test_every_src_definition_has_a_caller():
    # A capability nothing calls is deleted, not kept for a test: a new one
    # fails here until something calls it or it is kept above with a reason.
    uncalled = uncalled_definitions()
    assert sorted(uncalled - set(UNCALLED_BUT_KEPT)) == []
    assert sorted(set(UNCALLED_BUT_KEPT) - uncalled) == [], "stale entries: called now, or gone"
    assert all(reason.strip() for reason in UNCALLED_BUT_KEPT.values())
