"""The package namespace and the README's library examples."""

import ast
import doctest
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import ModuleType

import pytest

import bernkit

MODULES = ("errors", "sequences", "series", "gammaalg", "identities", "floatcheck", "quadrature")
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


def _fresh(script: str) -> str:
    """Standard output of ``script`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(bernkit.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _union() -> set[str]:
    return {name for module in MODULES
            for name in importlib.import_module(f"bernkit.{module}").__all__}


def test_star_import_gives_the_union_of_the_modules():
    out = _fresh("""
        import json
        before = set(globals())
        from bernkit import *
        print(json.dumps(sorted(set(globals()) - before - {"before"})))
    """)
    assert set(json.loads(out)) == _union()


def test_namespace_is_listed_before_any_module_loads():
    # import bernkit loads no module of the package; dir lists every export
    out = _fresh("""
        import json, sys
        import bernkit
        print(json.dumps([dir(bernkit), [m for m in sys.modules if m.startswith("bernkit.")]]))
    """)
    listed, loaded = json.loads(out)
    assert _union() <= set(listed) and loaded == []
    assert _union() <= set(dir(bernkit))


def test_names_resolve_from_their_module():
    assert bernkit.quad_rep is bernkit.quadrature.quad_rep
    with pytest.raises(AttributeError, match="no_such_name"):
        bernkit.no_such_name
