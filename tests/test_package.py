"""The package namespace and the README's library examples."""

import ast
import doctest
import importlib
from pathlib import Path
from types import ModuleType

import bernkit

MODULES = ("errors", "sequences", "series", "gammaalg", "identities", "floatcheck")
README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports_the_union_of_its_modules():
    listed = []
    for name in MODULES:
        module = importlib.import_module(f"bernkit.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"bernkit.{name}.{attr}"
            assert getattr(bernkit, attr) is getattr(module, attr), attr
        listed += module.__all__
    # each public name comes from one module, so no export shadows another
    assert len(listed) == len(set(listed))
    public = {name for name, value in vars(bernkit).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(listed)


def test_readme_library_examples():
    results = doctest.testfile(str(README), module_relative=False)
    assert results.failed == 0
    assert results.attempted >= 6


def test_modules_use_every_name_they_import():
    # no linter runs on the package, so an import left behind by a change
    # is caught here; the package's own star imports re-export by design
    for path in sorted(Path(bernkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names if alias.name != "*"}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))
