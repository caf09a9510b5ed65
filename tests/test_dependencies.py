"""numpy stays the only runtime dependency of fidreg, and no module or script
imports a name it does not use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Imports every fidreg module and prints the top-level packages that doing so
# loaded, one per line, after the module count.
PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import fidreg
names = [info.name for info in pkgutil.walk_packages(fidreg.__path__, "fidreg.")]
for name in names:
    importlib.import_module(name)
print(len(names))
print("\\n".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_importing_every_module_loads_only_numpy_and_the_standard_library():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    count, *loaded = done.stdout.split()
    modules = [path for path in (SRC / "fidreg").glob("*.py") if path.stem != "__init__"]
    assert int(count) == len(modules)  # every module was imported, not just the root
    assert {"fidreg", "numpy"} <= set(loaded)
    assert set(loaded) - sys.stdlib_module_names - {"fidreg", "numpy"} == set()


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read | exported]


def test_unused_imports_are_caught():
    assert unused_imports("import math\nimport os\nprint(os.sep)\n") == ["line 1: math"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []


def test_every_imported_name_is_used():
    paths = sorted((SRC / "fidreg").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    unused = {
        str(path.relative_to(ROOT)): found
        for path in paths
        if (found := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
