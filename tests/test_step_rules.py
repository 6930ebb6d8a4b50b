"""Each step rule in ``separation`` is the one rule of a search table.

A criterion is written once, as a top-level ``_*_step`` function, and
``_criterion`` derives the engine's search table from it, so the engine,
the oracle and the walk predicate all run that one rule.  A step rule
that no table is derived from would be a second copy of some criterion,
checked by nothing the engines run.  Independent checks of the rules
belong in ``tests/reference.py``.
No linter ships with the project, so this reads the module with
:mod:`ast`, as ``test_search_state_names.py`` does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def rules_without_a_table(source: str) -> list[str]:
    """``"<line>: <name>"`` for each top-level ``_*_step`` function that ``source`` never passes to ``_criterion``."""
    tree = ast.parse(source)
    tabled = {
        node.args[0].id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_criterion"
        and node.args
        and isinstance(node.args[0], ast.Name)
    }
    return [
        f"{node.lineno}: {node.name}"
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and node.name.endswith("_step")
        and node.name not in tabled
    ]


def test_checker_flags_a_rule_with_no_table():
    source = (
        "def _a_step(z, anc_z, prev, v, kind): return True\n"
        "def _b_step(z, anc_z, prev, v, kind): return False\n"
        "def _helper_step_count(): return 0\n"
        "_A = _criterion(_a_step)\n"
        "_B = other(_b_step)\n"
    )
    assert rules_without_a_table(source) == ["2: _b_step"]


def test_every_step_rule_in_separation_has_a_search_table():
    source = (ROOT / "src/cyclomag/separation.py").read_text()
    assert "_sigma_walk_step" in source and "_m_walk_step" in source
    assert rules_without_a_table(source) == []
