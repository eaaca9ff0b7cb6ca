"""Rules on the source tree that no verdict exercises: what ``src/lie2``
imports, and the methods the benchmark's tracer hooks by name."""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_import_only_numpy_and_the_standard_library():
    # CI installs numpy, pytest and hypothesis only, so an import of another
    # installed package would pass here and fail there
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    sources = sorted((ROOT / "src" / "lie2").glob("*.py"))
    assert sources
    stray = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert stray == []


def test_the_tracers_class_hooks_name_methods_of_their_classes():
    # perfbench/tracing.py patches each "Class.method" of CLASS_HOOKS from the
    # class's own namespace; it is read as text, not imported
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    [hooks] = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
               and node.target.id == "CLASS_HOOKS"]
    assert hooks
    for module, quals in hooks.items():
        namespace = importlib.import_module(f"lie2.{module}")
        for qual in quals:
            cls_name, method = qual.split(".")
            assert method in vars(getattr(namespace, cls_name)), f"lie2.{module}.{qual}"


def test_the_witness_format_has_one_owner():
    # lie2.replay writes witnesses and reads none back (replay runs the
    # suites again); the runner imports the writer only when a suite fails,
    # so ``import lie2`` loads no replay code and replay's import of
    # lie2.suites makes no cycle
    defined, top_level = {}, {}
    for path in sorted((ROOT / "src" / "lie2").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined[path.stem] = {node.name for node in ast.walk(tree)
                              if isinstance(node, ast.FunctionDef)}
        top_level[path.stem] = {node.module for node in tree.body
                                if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert [m for m, names in defined.items() if "serialize_element" in names] == ["replay"]
    assert [m for m, modules in top_level.items() if "replay" in modules] == ["cli"]


def test_input_errors_are_raised_only_where_data_enters():
    # exit 2 is bad input: flags, algebra files, reports and the carriers of
    # a library call.  The finite tables, the models, the sign rules and the
    # worst-case fold take no input, so a defect there is a law that fails
    entry = {"liealg", "paths", "su2grid", "suites", "replay", "cli"}
    raising = set()
    for path in sorted((ROOT / "src" / "lie2").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                call = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(call, ast.Name) and call.id == "InputError":
                    raising.add(path.stem)
    assert raising and raising <= entry
