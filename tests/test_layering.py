"""Import layering: the base map depends on nothing else in the package,
the walks read its digit streams through its readers only, the classifier
steps base orbits in one place, and per-kind fibre arithmetic lives in
cylmaps.fiber."""

import ast
import sys
from pathlib import Path

import cylmaps
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


def _kind_compares(tree):
    """(compare, allowed) for each comparison against a .kind attribute:
    allowed when it is the one != test of an if whose body is one raise."""
    refusals = {id(node.test) for node in ast.walk(tree)
                if isinstance(node, ast.If) and len(node.body) == 1
                and isinstance(node.body[0], ast.Raise)
                and isinstance(node.test, ast.Compare) and len(node.test.ops) == 1
                and isinstance(node.test.ops[0], ast.NotEq)}
    return [(node, id(node) in refusals) for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(isinstance(side, ast.Attribute) and side.attr == "kind"
                    for side in (node.left, *node.comparators))]


def test_only_the_fibre_module_branches_on_the_fibre_kind():
    # every per-kind piece of arithmetic is a _KERNELS entry or a branch of
    # cylmaps.fiber; elsewhere a kind is compared only to refuse a family
    package = Path(cylmaps.__file__).parent
    refusals, branches = [], []
    for path in sorted(package.glob("*.py")):
        if path.name in ("fiber.py", "cli.py"):
            continue
        for node, allowed in _kind_compares(ast.parse(path.read_text())):
            (refusals if allowed else branches).append(f"{path.name}:{node.lineno}")
    assert not branches, f"branches on a fibre kind outside cylmaps.fiber: {branches}"
    assert {name.split(":")[0] for name in refusals} >= {"cylinder.py", "measures.py", "walks.py"}
