"""The document writers read each graph through its arcs.

``serialize_graph`` and ``export_dot`` write an edge line from each
``(a, b, kind)`` arc of ``graph._arcs()``, the listing the graph index is
built from, so ``io_text`` reads no edge field of either graph type and
no edge mark.  No linter ships with the project, so this reads the
module with :mod:`ast`, as ``test_search_state_names.py`` does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EDGE_FIELDS = {"directed", "bidirected", "edges", "mark_a", "mark_b"}


def edge_fields_read(source: str) -> list[str]:
    """``"<line>: <name>"`` for each edge field or mark that ``source`` reads as an attribute."""
    found = [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in EDGE_FIELDS
    ]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_checker_flags_attributes_only():
    source = (
        "edges = {}\n"
        "for e in graph.edges:\n"
        "    e.mark_a, e.b\n"
        "directed = [p for p in g.directed]\n"
    )
    assert edge_fields_read(source) == ["2: edges", "3: mark_a", "4: directed"]


def test_io_text_reads_no_edge_field():
    assert edge_fields_read((ROOT / "src/cyclomag/io_text.py").read_text()) == []
