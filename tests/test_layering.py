"""Import layering: the base map depends on nothing else in the package,
the walks read its digit streams through its readers only, and the
classifier steps base orbits in one place."""

import ast
import sys
from pathlib import Path

import cylmaps.base
import cylmaps.cylinder
import cylmaps.walks


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


def test_the_walks_name_no_word_level_internals_of_the_base_map():
    # the k = 2 stream's word and byte layout lives in cylmaps.base alone:
    # the walks read its bytes through base._digit_bytes
    tree = ast.parse(Path(cylmaps.walks.__file__).read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    internals = {"_words", "_splitmix64", "_redraw", "_digit_layout"}
    assert not names & internals, f"cylmaps.walks names {sorted(names & internals)}"


def test_the_classifier_steps_and_displaces_base_orbits_in_its_store_alone():
    # every coefficient row classify_points reads comes from _BaseOrbits, so
    # a swap of the base orbit's arithmetic changes that class alone
    tree = ast.parse(Path(cylmaps.cylinder.__file__).read_text())
    store = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "_BaseOrbits")
    inside = {id(node) for node in ast.walk(store)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "advance_rows"
            or isinstance(node, ast.Attribute) and node.attr == "displacement"]
    assert uses, "no base-orbit step found"
    outside = [node.lineno for node in uses if id(node) not in inside]
    assert not outside, f"cylinder.py steps or displaces base orbits at lines {outside}"
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "_live_angles" not in defined
