"""numpy stays the only runtime dependency of fidreg."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
