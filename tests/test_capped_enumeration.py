"""Every function of the package that enumerates simple paths checks the cap.

Exhaustive enumeration belongs only in the capped oracles and listings,
so a function under ``src/cyclomag`` that calls
``enumerate_simple_paths`` (by name or as an attribute) must also call
``_check_cap`` itself.  Read with :mod:`ast`, as the unused-import check is.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src/cyclomag").glob("*.py"))


def _called(function: ast.AST) -> set[str]:
    """The names that calls inside ``function`` go to, by name or as an attribute."""
    calls = (node.func for node in ast.walk(function) if isinstance(node, ast.Call))
    return {f.id if isinstance(f, ast.Name) else f.attr for f in calls if isinstance(f, (ast.Name, ast.Attribute))}


def uncapped_enumerations(source: str) -> tuple[list[str], list[str]]:
    """``"<line>: <function>"`` for the functions of ``source`` that call
    ``enumerate_simple_paths``, and for those of them that do not call
    ``_check_cap``."""
    callers, uncapped = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = _called(node)
            if "enumerate_simple_paths" in called:
                callers.append(f"{node.lineno}: {node.name}")
                if "_check_cap" not in called:
                    uncapped.append(callers[-1])
    return callers, uncapped


def test_checker_flags_only_uncapped_callers():
    source = (
        "def capped(g):\n"
        "    _check_cap(len(g.nodes), 12, 'x')\n"
        "    return list(enumerate_simple_paths(g, 'a', 'b'))\n"
        "def uncapped(g):\n"
        "    return list(relations.enumerate_simple_paths(g, 'a', 'b'))\n"
        "def outer(g):\n"
        "    _check_cap(len(g.nodes), 12, 'x')\n"
        "    def inner():\n"
        "        return enumerate_simple_paths(g, 'a', 'b')\n"
        "    return inner()\n"
        "def neither(g):\n"
        "    return enumerate_simple_paths\n"
    )
    assert uncapped_enumerations(source) == (["1: capped", "4: uncapped", "6: outer", "8: inner"], ["4: uncapped", "8: inner"])


def test_every_enumerating_function_checks_the_cap():
    found = {path.name: uncapped_enumerations(path.read_text()) for path in PACKAGE}
    assert sum(len(callers) for callers, _ in found.values()) >= 3  # the path oracles and both listings
    assert {name: uncapped for name, (_, uncapped) in found.items() if uncapped} == {}
