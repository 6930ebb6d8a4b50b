"""No module imports a name it never uses (the check of pyflakes' F401).

No linter ships with the project, so this reads each module with
:mod:`ast`.  ``__init__.py`` is skipped, because its imports are the
package's exports, and an import line marked ``# noqa: F401`` is kept.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for folder in ("src/cyclomag", "tests") for path in (ROOT / folder).glob("*.py") if path.name != "__init__.py"
)


def _annotation_parts(tree: ast.AST):
    """Annotations and subscripts, where a string can name a type."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.Subscript):
            yield node.slice


def unused_imports(source: str) -> list[str]:
    """``"<line>: <name>"`` for each imported name that ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[node.lineno - 1] + lines[alias.lineno - 1]:
                continue
            imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for part in _annotation_parts(tree):
        for n in ast.walk(part):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                try:
                    used |= {m.id for m in ast.walk(ast.parse(n.value, mode="eval")) if isinstance(m, ast.Name)}
                except SyntaxError:
                    pass
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda item: item[1]) if name not in used]


def test_checker_flags_only_unused_names():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "import sys  # noqa: F401\n"
        "from typing import TYPE_CHECKING, Iterable, List\n"
        "if TYPE_CHECKING:\n"
        "    from x import Graph\n"
        "Alias = Iterable['Graph']\n"
        "def f(n: 'List[int]') -> None:\n"
        "    return osp.join(n)\n"
    )
    assert unused_imports(source) == ["1: os"]


def test_no_module_imports_an_unused_name():
    found = [f"{path.relative_to(ROOT)}:{hit}" for path in MODULES for hit in unused_imports(path.read_text())]
    assert found == []
