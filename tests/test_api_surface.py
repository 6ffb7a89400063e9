"""Every public name of the package has a caller inside the package.

A public top-level ``def`` or ``class`` of ``src/finslercap`` counts as
called when some package module other than ``__init__`` references it, as
a name or as an attribute, outside its own definition.  A helper that
only the tests call belongs in the tests.
"""

import ast
import collections
import importlib
import pathlib

import finslercap

PACKAGE = pathlib.Path(finslercap.__file__).parent

# name -> why it stays without a package caller
KEPT_WITHOUT_CALLER = {
    "cap_compact": "the paper's capacity of a compact set",
    "gradient_norm_lift": "oracle of the discrete energy in the tests",
    "gradient_norm_general": "reference for the lift and for the node path",
}


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def _public_definitions(modules):
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield name, node


def _references(tree):
    """Identifiers that ``tree`` references as a name or an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)))


def _callers(modules):
    """Function telling whether a definition is referenced outside itself
    by a module other than __init__."""
    total = sum((_references(tree) for module, tree in modules.items()
                 if module != "__init__"), collections.Counter())
    return lambda node: total[node.name] > _references(node)[node.name]


def test_every_public_name_has_a_package_caller():
    modules = _modules()
    called = _callers(modules)
    uncalled = sorted(f"{module}.{node.name}"
                      for module, node in _public_definitions(modules)
                      if node.name not in KEPT_WITHOUT_CALLER
                      and not called(node))
    assert not uncalled, (f"public names without a package caller: "
                          f"{', '.join(uncalled)}")


def test_kept_names_exist_and_still_lack_a_caller():
    modules = _modules()
    called = _callers(modules)
    found = {node.name: node for _, node in _public_definitions(modules)}
    for name in KEPT_WITHOUT_CALLER:
        assert name in found, f"{name} is gone; drop it from the allowlist"
        assert not called(found[name]), \
            f"{name} has a package caller now; drop it from the allowlist"


def test_every_export_resolves():
    tree = _modules()["__init__"]
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"finslercap.{node.module}")
        for alias in node.names:
            assert hasattr(source, alias.name), f"{node.module}.{alias.name}"
            assert getattr(finslercap, alias.asname or alias.name) is \
                getattr(source, alias.name)
