import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _loaded_modules(imports: str, names: str) -> str:
    """Run `import <imports>` in a fresh interpreter; print the sorted loaded modules matching `names`."""
    code = f"import sys, {imports}; print(sorted(m for m in sys.modules if {names}))"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return out.stdout.strip()


def test_import_pulls_in_no_scipy_integrate_or_optimize():
    # Those two cost most of a cold import (they drag in scipy.special); the
    # package needs neither.  Every module is imported, not only the package
    # root, which loads just fieldgrid and star.
    imports = (
        "starqm, starqm.dynamics, starqm.moments, starqm.operators, "
        "starqm.phasecalc, starqm.symbols"
    )
    assert _loaded_modules(imports, "m in ('scipy.integrate', 'scipy.optimize')") == "[]"


def test_package_root_loads_no_scipy():
    # The package root loads fieldgrid and star, which run on numpy alone;
    # the star engine must stay off scipy.fft.
    assert _loaded_modules("starqm", "m == 'scipy' or m.startswith('scipy.')") == "[]"


def _module_names(tree: ast.Module) -> tuple[set[str], set[str], set[str]]:
    """Top-level names of a module: imported, defined (def, class, assignment), exported."""
    imports, defined, exported = set(), set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imports.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imports.update(a.asname or a.name for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                exported.update(ast.literal_eval(node.value))
            defined.update(names)
    return imports, defined, exported


def _public_defs(tree: ast.Module) -> set[str]:
    """Public def and class names of a module, and the public methods of its classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                n.name for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return {name for name in names if not name.startswith("_")}


def test_no_unused_import_or_orphaned_private_name():
    # A half-done deletion leaves one of these behind: a module-level import
    # the module no longer uses, in any module under src/, tests/ or
    # perfbench/; or, in starqm, a module-level _private name, or a public
    # def, class or method that nothing under those folders refers to beyond
    # its definition.  A name counts as referenced wherever it is loaded,
    # read as an attribute or imported by name.
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in ("src", "tests", "perfbench")
        for path in sorted(pathlib.Path(ROOT, folder).rglob("*.py"))
    }
    references = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                references[node.id] += 1
            elif isinstance(node, ast.Attribute):
                references[node.attr] += 1
            elif isinstance(node, ast.ImportFrom):
                references.update(a.name for a in node.names)
    problems = []
    for path, tree in trees.items():
        imports, defined, exported = _module_names(tree)
        loads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        problems += [
            f"{path.relative_to(ROOT)}: unused import {name}" for name in imports - loads - exported
        ]
        if path.parent.name != "starqm":
            continue
        problems += [
            f"{path.name}: {name} is never referenced"
            for name in defined
            if name.startswith("_") and not name.startswith("__") and not references[name]
        ]
        problems += [
            f"{path.name}: public {name} is never referenced"
            for name in _public_defs(tree)
            if not references[name]
        ]
    assert problems == []
