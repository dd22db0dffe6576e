"""The public API against the code that uses it: every exported name has
a reader outside its own definition, no module imports a name it never
uses, and the README's library example runs as written."""

import ast
import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "partial_search"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# exported names that nothing in src/, the README or bench/ reads, kept
# because tests use them as references independent of the code they check
TEST_REFERENCES = {
    "grover_full_search_probability": "closed-form full search that the "
    "reduced dynamics and the parallel schemes are checked against",
    "grk_parallel_expected": "the per-(k1, k2) expectation whose minimum "
    "the grk scan must find",
    "outer_expected": "the per-k expectation whose minimum outer_min must "
    "find, checked against mpmath at large n",
    "apply_global_diffusion": "one-vector statevector step, the reference "
    "for verify's batched kernel",
    "apply_local_diffusion": "one-vector statevector step, the reference "
    "for verify's batched kernel",
}


def _public_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _imported_modules(tree):
    """Names that an import binds to a module: `import numpy as np`,
    `from . import bounds as bounds_mod`."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module is None)
        for alias in node.names
    }


def _src_references():
    """Every name read in a module, as a name or as an attribute of an
    imported module, outside the top-level definition of that name."""
    refs = set()
    for path in MODULES:
        tree = ast.parse(path.read_text())
        modules = _imported_modules(tree)
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                ):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    refs.add(name)
    return refs


def test_every_public_name_has_a_reader():
    refs = _src_references()
    docs = (ROOT / "README.md").read_text() + "".join(
        p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))
    )
    unread = [
        name
        for name in _public_names()
        if name not in refs
        and name not in TEST_REFERENCES
        and not re.search(rf"\b{name}\b", docs)
    ]
    assert unread == []


def test_test_references_are_public_and_used_by_tests():
    public = set(_public_names())
    here = Path(__file__)
    tests = "".join(p.read_text() for p in here.parent.glob("*.py") if p != here)
    for name in TEST_REFERENCES:
        assert name in public, name
        assert re.search(rf"\b{name}\b", tests), name


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library example") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    first, second = out.getvalue().splitlines()
    assert first.startswith("0.34269")
    assert second.startswith("0.46508")
    assert second.endswith("G_8G_3G_8^3")
