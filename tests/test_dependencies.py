import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import gtflow

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gtflow"}


def test_runtime_modules_import_only_the_standard_library_numpy_and_gtflow():
    # numpy stays the only runtime dependency: every top-level import of the
    # package is relative, from the standard library, numpy or gtflow
    sources = sorted(Path(gtflow.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    outside = []
    for path in sources:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert not outside


def test_every_exported_name_exists():
    # a name left in a module's __all__ after its definition is deleted
    # breaks ``from gtflow.<module> import *``
    stale = []
    exporting = 0
    for path in sorted(Path(gtflow.__file__).parent.glob("*.py")):
        module = importlib.import_module(
            "gtflow" if path.stem == "__init__" else f"gtflow.{path.stem}")
        names = getattr(module, "__all__", ())
        exporting += bool(names)
        stale += [(path.stem, name) for name in names if not hasattr(module, name)]
    assert exporting > 5
    assert not stale


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # perfbench/traced.py replaces gtflow functions and methods by name; a
    # renamed or deleted one fails its install with AttributeError or KeyError.
    # It patches modules in place, so it runs in a child process, and -B keeps
    # that process from writing bytecode next to the benchmark's files.
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(str(root / d) for d in ("src", "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import traced; traced.install(traced.Tracer())"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
