"""No private helper of the package goes unread.

A function, class or name bound by assignment that starts with one
underscore and is defined at the top level of a module under
``src/cyclomag`` must be read somewhere in the package outside its own
definition: by name, as an attribute or in an import.  ``cli``
dispatches its ``_cmd_*`` handlers by name, so they are exempt.  A read
of the same name anywhere in the package counts, even when it means a
helper of another module.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src/cyclomag").glob("*.py"))
EXEMPT = "_cmd_"


def _reads(tree: ast.AST):
    """Every name that ``tree`` reads, by name, as an attribute or in an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _bound(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: its function or class
    name, or the plain names its assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def unused_helpers(sources: dict[str, str]) -> list[str]:
    """``"<module>: <name>"`` for each private top-level function, class
    or assigned name of ``sources`` (module name to text) that nothing
    reads outside its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _bound(node):
                if name.startswith("_") and not name.startswith(("__", EXEMPT)):
                    if reads[name] == sum(read == name for read in _reads(node)):
                        found.append(f"{module}: {name}")
    return found


def test_checker_flags_only_unread_helpers():
    sources = {
        "a": (
            "def _called():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Unread:\n"
            "    def make(self):\n"
            "        return _Unread()\n"
            "def _by_attribute():\n"
            "    pass\n"
            "def _imported():\n"
            "    pass\n"
            "def _cmd_run():\n"
            "    pass\n"
            "_READ, _UNREAD_CONSTANT = 1, 2\n"
            "_TYPED: int = _READ\n"
            "def public():\n"
            "    _ = 2\n"
            "    return _called() + _TYPED\n"
        ),
        "b": "import a\nfrom a import _imported\nx = a._by_attribute()\n",
    }
    assert unused_helpers(sources) == ["a: _recursive", "a: _Unread", "a: _UNREAD_CONSTANT"]


def test_no_private_helper_goes_unread():
    assert unused_helpers({path.stem: path.read_text() for path in PACKAGE}) == []
