import ast
import importlib
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
