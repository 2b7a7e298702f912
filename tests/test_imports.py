"""No module imports a name it never uses, and tyang.cli starts light.

The repository has no linter, so this walks the module-level imports of
src/tyang/*.py, tests/*.py and conftest.py and fails on any bound name
that no other node of the module's syntax tree reads.  Every `tyang run`
is a fresh interpreter that imports tyang.cli first, so a fresh
interpreter's import of it must not load the introspection modules that
dataclasses pulls in.
"""

import ast
import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
FILES = sorted(
    glob.glob(os.path.join(ROOT, "src", "tyang", "*.py"))
    + glob.glob(os.path.join(ROOT, "tests", "*.py"))
    + [os.path.join(ROOT, "conftest.py")]
)


def unused_imports(source):
    """The names bound by the module-level imports of source that are never
    read elsewhere in it, in order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_scan_finds_an_unused_name():
    assert unused_imports("import os\nfrom math import gcd, lcm\nprint(gcd)\n") == ["os", "lcm"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", FILES, ids=[os.path.relpath(p, ROOT) for p in FILES])
def test_every_import_is_used(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


# Modules of the standard library that cost a cold start several
# milliseconds and that nothing in tyang needs.
INTROSPECTION = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_the_cli_import_loads_no_introspection_module():
    code = "import sys; before = set(sys.modules); import tyang.cli; print(*sorted(set(sys.modules) - before))"
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            check=True).stdout.split()
    assert "tyang.cli" in loaded
    assert [name for name in INTROSPECTION if name in loaded] == []
