"""No module but ``separation`` reads a state name of the shared search.

``separation._search`` encodes each state as a node id and an arrival
shape, and reads each criterion table with the standing of a node
towards the conditioning set.  The shapes are numbered by
``_criterion`` and have no names; the standings do.  Callers pass start
nodes and a table and get a walk back, so the layout stays inside
``separation``.  Every listed name must be assigned there, so the list
cannot name what no longer exists.
No linter ships with the project, so this reads each module with
:mod:`ast`, as ``test_unused_imports.py`` does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE_NAMES = {"_OUTSIDE", "_IN_ANC", "_IN_Z"}


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
        "from .separation import _OUTSIDE, _search\n"
        "from . import separation\n"
        "x = separation._IN_Z\n"
        "y = _IN_ANCESTORS\n"
    )
    assert state_names_read(source) == ["1: _OUTSIDE", "3: _IN_Z"]


def test_every_state_name_is_assigned_in_separation():
    tree = ast.parse((ROOT / "src/cyclomag/separation.py").read_text())
    assigned = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for top in node.targets
        for target in ast.walk(top)
        if isinstance(target, ast.Name)
    }
    assert STATE_NAMES <= assigned


def test_only_separation_reads_the_search_state_layout():
    modules = sorted((ROOT / "src/cyclomag").glob("*.py"))
    assert ROOT / "src/cyclomag/separation.py" in modules
    found = [
        f"{path.name}:{hit}" for path in modules if path.name != "separation.py" for hit in state_names_read(path.read_text())
    ]
    assert found == []
