"""The layer tracer of the benchmark (``perfbench/``) finds what it wraps:
public entry points are plain module functions, and one traced CLI pass
counts the KL recursion and times each ``verify_main`` call.  The layers
compute in integers: only ``_intlinalg`` and ``cli`` import ``fractions``."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("rootdata", "weyl", "alcoves", "hecke", "parabolic", "periodic",
          "characters", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_public_callables_are_plain_functions_of_their_layer(layer):
    # The tracer replaces the plain functions a module defines itself; an
    # alias of another module's function or a decorated entry point would
    # escape it.
    module = importlib.import_module("affkl." + layer)
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj) and not inspect.isclass(obj):
            assert inspect.isfunction(obj), "%s.%s" % (layer, name)
            assert obj.__module__ == module.__name__, "%s.%s" % (layer, name)


def test_names_the_tracer_counts_and_times_exist():
    # A renamed function would leave its counter reading 0, not fail.
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        run = importlib.import_module("run")
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    names = [name for _, name in run.COUNTED]
    for name in names + list(tracer.TIMED) + list(tracer.COUNTED_PRIVATE):
        layer, *path = name.split(".")
        obj = importlib.import_module("affkl." + layer)
        for attr in path:
            obj = getattr(obj, attr, None)
        assert callable(obj), name


def test_traced_cli_pass_counts_the_kl_recursion(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               AFFKL_CACHE_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), "cli",
         "verify", "main", "--type", "A1", "--max-len", "4"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout.splitlines()[-1])
    assert rec["exit"] == 0
    assert rec["statuses"] and set(rec["statuses"]) == {"pass"}
    trace = rec["trace"]
    assert trace["wall"] > 0
    assert trace["calls"].get("hecke._kl_w", 0) > 0
    # one timed verify_main call per check of the report
    assert len(trace["durations"]["parabolic.verify_main"]) \
        == len(rec["statuses"])


def test_only_intlinalg_and_cli_import_fractions():
    """The alcove geometry runs on integer points with a scale; Fractions
    stay in the exact inverse of _intlinalg and the CLI's drawing
    vertices."""
    src = os.path.join(ROOT, "src", "affkl")
    importers = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "fractions" in modules:
                importers.add(name)
    assert importers <= {"_intlinalg.py", "cli.py"}, importers


# The runtime is stdlib-only, and every import on the CLI path adds to the
# fixed cost of each process.  A new module here is a decision, not a drift.
STDLIB_IMPORTS = {"__future__", "argparse", "fractions", "hashlib",
                  "itertools", "json", "math", "operator", "os", "re",
                  "struct", "sys", "time", "zlib"}


def test_package_imports_only_itself_and_known_stdlib_modules():
    src = os.path.join(ROOT, "src", "affkl")
    outside = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            outside.update((name, m) for m in modules
                           if m.split(".")[0] not in STDLIB_IMPORTS)
    assert not outside, sorted(outside)


# Each module imports only the layers below it; modules of one rank do not
# import each other.
LAYER_RANK = {"_intlinalg": 0, "rootdata": 1, "weyl": 2, "alcoves": 3,
              "hecke": 3, "parabolic": 4, "periodic": 4, "characters": 5,
              "cli": 6}
# (module, enclosing function, imported layer): the built-in N- and M-kind
# tables read their columns through the module maps.
UPWARD_IMPORTS_ALLOWED = {("hecke", "PCanonicalTable.column", "parabolic")}


def _package_imports(tree):
    """(enclosing qualified name, imported affkl module) for every import
    of the package in a module's syntax tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.ImportFrom) and child.level:
                names = ([child.module.split(".")[0]] if child.module
                         else [alias.name for alias in child.names])
            elif isinstance(child, ast.ImportFrom) \
                    and (child.module or "").startswith("affkl."):
                names = [child.module.split(".")[1]]
            elif isinstance(child, ast.Import):
                names = [alias.name.split(".")[1] for alias in child.names
                         if alias.name.startswith("affkl.")]
            else:
                names = []
            found.extend((".".join(scope), name) for name in names
                         if not name.startswith("__"))  # e.g. __version__
            visit(child, scope)

    visit(tree, ())
    return found


def test_modules_import_only_lower_layers():
    src = os.path.join(ROOT, "src", "affkl")
    upward = set()
    for name in sorted(os.listdir(src)):
        layer = name[:-3]
        if not name.endswith(".py") or layer == "__init__":
            continue
        assert layer in LAYER_RANK, "module %s has no layer rank" % layer
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for scope, target in _package_imports(tree):
            assert target in LAYER_RANK, (layer, target)
            if LAYER_RANK[target] >= LAYER_RANK[layer]:
                upward.add((layer, scope, target))
    assert upward <= UPWARD_IMPORTS_ALLOWED, upward - UPWARD_IMPORTS_ALLOWED
