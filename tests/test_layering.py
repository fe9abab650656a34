"""The import layering of the package, read off its source with `ast`.

The solver owns the point-act game, so `maxent` imports nothing from
`verify`, and `verify` imports at module top only.  Every LP is built in
`constraints.py`: no other module but the simplex itself names
`solve_lp` or `solve_lps`.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "maxentgames"
LP_HOMES = {"constraints.py", "_simplex.py"}


def tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(), filename=name)


def imported_modules(node: ast.AST) -> set:
    """The package-relative modules `node` imports from, `from . import x`
    counted as x."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom) and sub.level:
            if sub.module:
                found.add(sub.module)
            else:
                found.update(alias.name for alias in sub.names)
    return found


def test_maxent_imports_nothing_from_verify():
    assert "verify" not in imported_modules(tree("maxent.py"))


def test_verify_imports_at_module_top_only():
    late = [f"{fn.name}:{sub.lineno}"
            for fn in ast.walk(tree("verify.py"))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for sub in ast.walk(fn) if isinstance(sub, (ast.Import, ast.ImportFrom))]
    assert late == []


def test_only_constraints_builds_lps():
    names = {"solve_lp", "solve_lps"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in LP_HOMES:
            continue
        for sub in ast.walk(tree(path.name)):
            name = (sub.id if isinstance(sub, ast.Name)
                    else sub.attr if isinstance(sub, ast.Attribute) else None)
            if name in names:
                found.append(f"{path.name}:{sub.lineno}")
            if isinstance(sub, ast.ImportFrom):
                found += [f"{path.name}:{sub.lineno}" for a in sub.names if a.name in names]
    assert found == []
