"""Every subcommand on hostile input: a clean exit code, no traceback, no hang.

The calls run in process under a ``SIGALRM`` budget each, so a command
that hangs fails this test instead of stalling the suite.
"""

import contextlib
import io
import signal
import time

from cyclomag import GeneratorConfig, random_dmg, represent, serialize_graph
from cyclomag.cli import main

BUDGET_S = 2.0

HOSTILE = {
    "empty": b"",
    "bom": b"\xef\xbb\xbfa -> b\n",
    "latin-1": "a -> b\nc\xe9 -> d\n".encode("latin-1"),
    "nul": b"a -> b\x00\nb -> c\n",
    "crlf": b"a -> b\r\nb <-> c\r\n",
    "tabs": b"a\t->\tb\n\tb <-> c\n",
    "self-loop": b"a -> a\n",
    "duplicate": b"a -> b\nb <- a\n",
    "two-edges": b"a -> b\na <-> b\n",
    "bad-arrow": b"a -?- b\n",
    "long-name": b"a" * 100_000 + b" -> b\n",
    "node-arrow": b"node -> selection\n",
    "node-three": b"node a b\n",
    "undirected-in-dmg": b"a -- b\nb -> c\n",
}


def _commands(path: str, a: str, b: str) -> list[list[str]]:
    return [
        ["validate", path],
        ["abstract", path],
        ["marginalize", path, "--drop", a],
        ["msep", path, "--x", a, "--y", b],
        ["ssep", path, "--x", a, "--y", b, "--z", a],
        ["canonical", path],
        ["equiv", path, path],
        ["equiv", path, path, "--oracle"],
        ["paths", path, "--kind", "discriminating"],
        ["paths", path, "--kind", "inducing", "--a", a, "--b", b],
        ["paths", path, "--kind", "sigma-inducing", "--a", a, "--b", b],
        ["export-dot", path],
    ]


class _OverBudget(Exception):
    pass


def _raise_over_budget(signum, frame):
    raise _OverBudget


def _run(argv):
    """(exit code, stdout, stderr, seconds) of one in-process call under the budget."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_over_budget)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except _OverBudget:
        code = "over budget"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def test_every_subcommand_survives_hostile_input(tmp_path):
    calls = []
    for name, data in HOSTILE.items():
        path = tmp_path / f"{name}.txt"
        path.write_bytes(data)
        calls += _commands(str(path), "a", "b")
    # The n=30 system and its abstraction: the exhaustive listings refuse them.
    c = random_dmg(GeneratorConfig(30, 2 / 30, 1 / 30, n_selection=3, seed=1))
    for name, graph in (("n30.dmg", c), ("n30.mixed", represent(c))):
        path = tmp_path / name
        path.write_text(serialize_graph(graph), encoding="utf-8")
        calls += _commands(str(path), "v1", "v2")
    calls += [
        ["validate", str(tmp_path / "missing.txt")],
        ["validate", str(tmp_path)],
        ["equiv", str(tmp_path), str(tmp_path / "missing.txt")],
        ["export-dot", str(tmp_path)],
        ["random", "--nodes", "-1"],
        ["random", "--nodes", "x"],
        ["random", "--nodes", "5", "--p-dir", "1.5"],
        ["random", "--nodes", "4", "--p-bi", "nan"],
        ["random", "--nodes", "3", "--selection", "9"],
        ["random"],
        [],
    ]
    previous = signal.getsignal(signal.SIGALRM)
    failures = []
    for argv in calls:
        code, out, err, seconds = _run(argv)
        if code not in (0, 1, 2) or "Traceback" in out + err or seconds > BUDGET_S:
            failures.append((argv[:4], code, round(seconds, 2), err[-200:]))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert not failures
