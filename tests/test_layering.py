"""Import layering: the base map depends on nothing else in the package."""

import ast
import sys
from pathlib import Path

import cylmaps.base


def test_the_base_map_imports_only_the_standard_library_numpy_and_errors():
    # so the angle state and its step can be swapped without an import cycle
    tree = ast.parse(Path(cylmaps.base.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported, "no import found"
    outside = {name for name in imported
               if name != ".errors" and name != "numpy"
               and name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside, f"cylmaps.base imports {sorted(outside)}"
