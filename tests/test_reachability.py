"""Every module under ``src/repro`` is reachable from the CLI.

Walks the static import graph from :mod:`repro.cli`, counting imports
anywhere in a module (function bodies included, since the CLI and the
sweep worker import lazily), and fails on any module no run path can
import.  A module only its own tests import is dead code: delete it, or
wire it into a run path.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

SRC = Path(__file__).resolve().parents[1] / "src"
ROOT_MODULE = "repro.cli"


def _module_files() -> Dict[str, Path]:
    """Dotted module name -> source file, for every module under ``repro``."""
    modules: Dict[str, Path] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _imports(path: Path, modules: Dict[str, Path]) -> Set[str]:
    """Modules of ``repro`` that ``path`` imports, with their parent packages."""
    targets: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # The package imports absolutely; relative imports are not followed.
            module = node.module or ""
            targets.add(module)
            # ``from pkg import sub`` imports the submodule ``pkg.sub``.
            targets.update(f"{module}.{alias.name}" for alias in node.names)
    reached: Set[str] = set()
    for target in targets:
        parts = target.split(".")
        for end in range(1, len(parts) + 1):
            prefix = ".".join(parts[:end])
            if prefix in modules:
                reached.add(prefix)
    return reached


def reachable_modules() -> Set[str]:
    """Every module reachable from :data:`ROOT_MODULE` by static imports."""
    modules = _module_files()
    seen = {"repro", ROOT_MODULE}
    frontier = [ROOT_MODULE]
    while frontier:
        name = frontier.pop()
        for target in _imports(modules[name], modules):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def test_every_module_is_reachable_from_the_cli():
    unreached = sorted(set(_module_files()) - reachable_modules())
    assert not unreached, (
        "modules no run path imports (delete them or wire them in): "
        + ", ".join(unreached)
    )
