"""Import hygiene: no top-level import is left unused.

No linter runs on this project, so code deleted from a module can leave
its imports behind. This check parses each file with `ast` and flags a
top-level import whose name the file never references. An import kept on
purpose (a name re-exported or patched from outside) carries
`# noqa: F401` and a reason on its line.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = sorted(p for p in (ROOT / "src" / "oodkit").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))
KEPT = re.compile(r"#\s*noqa:\s*F401\b\s*\S")


def _dotted(node: ast.AST) -> str | None:
    """a.b.c for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each top-level import that source never references."""
    tree = ast.parse(source)
    used = set()
    for node in ast.walk(tree):
        name = _dotted(node)
        if name is not None:
            parts = name.split(".")
            used.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    lines = source.splitlines()
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            # `import a.b` binds a, but only a use of a.b uses it
            bound = alias.asname or alias.name
            if bound not in used and not KEPT.search(lines[alias.lineno - 1]):
                unused.append((alias.lineno, bound))
    return unused


def test_no_top_level_import_is_unused():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in CHECKED for line, name in unused_imports(path.read_text())]
    assert found == []


def test_the_check_flags_a_dead_import_and_honours_a_reasoned_noqa():
    source = (
        "import os\n"
        "import os.path\n"
        "import json as js\n"
        "from math import pi, tau\n"
        "from sys import argv  # noqa: F401\n"
        "from sys import path  # noqa: F401  (re-exported)\n"
        "def f():\n"
        "    return os.sep, tau\n"
    )
    assert unused_imports(source) == [
        (2, "os.path"), (3, "js"), (4, "pi"), (5, "argv"),
    ]
