"""Import hygiene: no top-level import is left unused, and no top-level
definition in the package is left unreferenced.

No linter runs on this project, so code deleted from a module can leave
its imports behind. This check parses each file with `ast` and flags a
top-level import whose name the file never references. An import kept on
purpose (a name re-exported or patched from outside) carries
`# noqa: F401` and a reason on its line.

Likewise a function or class whose last caller was deleted, or that only
tests call, stays behind unnoticed. The second check flags a top-level
`def` or `class` of `src/oodkit` that no code of the package references
outside the definition itself; an `__init__` re-export counts as a
reference, a docstring does not.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "oodkit").glob("*.py"))
CHECKED = ([p for p in PACKAGE if p.name != "__init__.py"]
           + sorted((ROOT / "tests").glob("*.py")))
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


def _referenced_names(node: ast.AST) -> Counter:
    """How often node's code names each identifier: as a name, as an
    attribute or as an imported name."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """module.name of each top-level def or class in sources (module name
    to source) that no code in sources references outside its own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and everywhere[node.name] == _referenced_names(node)[node.name]]


def test_every_package_definition_is_referenced():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unreferenced_definitions(sources) == []


def test_the_check_flags_a_dead_definition():
    sources = {
        "__init__": "from .a import exported\n",
        "a": (
            "def exported():\n"
            "    \"\"\"Calls dead() in a docstring only.\"\"\"\n"
            "def used():\n"
            "    pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def dead():\n"
            "    pass\n"
            "class Dead:\n"
            "    pass\n"
        ),
        "b": "import a\nVALUE = a.used()\n",
    }
    assert unreferenced_definitions(sources) == ["a.recursive", "a.dead", "a.Dead"]
