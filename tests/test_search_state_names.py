"""No module but ``separation`` reads a state name of the shared search.

``separation._search`` encodes each state as a node id and an arrival
shape, and each criterion table reads those shapes and the standing of
a node towards the conditioning set.  Callers pass start nodes and a
table and get a walk back, so the layout stays inside ``separation``.
No linter ships with the project, so this reads each module with
:mod:`ast`, as ``test_unused_imports.py`` does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE_NAMES = {"_ARROW", "_S_TAIL_WITHIN", "_S_TAIL_CROSS", "_M_TAIL", "_M_UNDIR", "_OUTSIDE", "_IN_ANC", "_IN_Z"}


def state_names_read(source: str) -> list[str]:
    """``"<line>: <name>"`` for each state name that ``source`` imports or reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in STATE_NAMES]
        elif isinstance(node, ast.Name) and node.id in STATE_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in STATE_NAMES:
            found.append((node.lineno, node.attr))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_checker_flags_imports_names_and_attributes():
    source = (
        "from .separation import _ARROW, _search\n"
        "from . import separation\n"
        "x = separation._IN_Z\n"
        "y = _ARROW_MARKS\n"
    )
    assert state_names_read(source) == ["1: _ARROW", "3: _IN_Z"]


def test_only_separation_reads_the_search_state_layout():
    modules = sorted((ROOT / "src/cyclomag").glob("*.py"))
    assert ROOT / "src/cyclomag/separation.py" in modules
    found = [
        f"{path.name}:{hit}" for path in modules if path.name != "separation.py" for hit in state_names_read(path.read_text())
    ]
    assert found == []
