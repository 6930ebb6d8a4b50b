"""Tests of the benchmark itself: checkers, budget, tracing and seeding.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import signal
from array import array
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import inputs  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from cyclomag import (  # noqa: E402
    ContextedDmg,
    MixedGraph,
    SeparationQuery,
    SeparationVerdict,
    condition1,
    m_separated,
    represent,
    sigma_separated,
    validate,
)
from cyclomag.equivalence import EquivalenceReport  # noqa: E402

# a -> b <- c with b -> d: a and c are separated by nothing, connected given d.
COLLIDER = MixedGraph.of("a -> b", "c -> b", "b -> d")
COLLIDER_DMG = ContextedDmg.of("a -> b", "c -> b", "b -> d")


def _views():
    mixed = checks.Mixed(COLLIDER.nodes, inputs.mixed_edges(COLLIDER))
    return {"sigma": checks.Dmg(COLLIDER_DMG.graph), "m": mixed}


@pytest.mark.parametrize("z", [(), ("d",)])
@pytest.mark.parametrize("flip", [None, "sigma", "m"])
def test_query_checks_reject_a_flipped_verdict(z, flip):
    assert represent(COLLIDER_DMG) == COLLIDER
    views, shared = _views(), {}
    query = SeparationQuery("a", "c", z)
    verdicts = {"sigma": sigma_separated(COLLIDER_DMG.graph, query), "m": m_separated(COLLIDER, query)}
    if flip:
        verdicts[flip] = SeparationVerdict(not verdicts[flip].separated)
    checkers = [workloads._check_query(shared, kind, views[kind], {"a"}, {"c"}, set(z)) for kind in ("sigma", "m")]
    if flip is None:
        for check, kind in zip(checkers, ("sigma", "m")):
            check(verdicts[kind])
    else:
        with pytest.raises(checks.CheckFailed):
            for check, kind in zip(checkers, ("sigma", "m")):
                check(verdicts[kind])


def test_query_check_rejects_a_blocked_witness():
    blocked = m_separated(COLLIDER, SeparationQuery("a", "c", {"d"})).witness  # a -> b <- c
    check = workloads._check_query({}, "m", _views()["m"], {"a"}, {"c"}, set())
    with pytest.raises(checks.CheckFailed, match="not an ancestor"):
        check(SeparationVerdict(False, blocked))


def test_pipeline_check_rejects_flipped_verdicts():
    c = ContextedDmg.of("a -> b", "b -> a", "b -> s", "c -> s", selection=("s",))
    h = represent(c)
    good = (h, validate(h), h, condition1(h, h))
    workloads._check_pipeline(good)
    with pytest.raises(checks.CheckFailed):
        workloads._check_pipeline((h, validate(h), h, EquivalenceReport(False)))
    with pytest.raises(checks.CheckFailed):
        workloads._check_pipeline((h, type(good[1])(False, ()), h, good[3]))


@pytest.fixture
def triage(tmp_path):
    w = workloads.Triage(7, tmp_path)
    w.setup_rounds = 0
    w.setup()
    return w


def _case(cases, kind):
    return next(c for c in cases if c.kind == kind)


def test_triage_checks_pass_on_real_output_and_reject_flips(triage):
    cases = triage.make_round(0)
    for kind in ("validate-mark-heavy", "equiv-self-0", "equiv-mutated-0", "equiv-chain-k5", "msep-big-connected"):
        case = _case(cases, kind)
        case.check(case.call())
    code, out, err = _case(cases, "equiv-chain-k5").call()
    with pytest.raises(checks.CheckFailed):
        _case(cases, "equiv-chain-k5").check((code, "equivalent: true\n", err))
    with pytest.raises(checks.CheckFailed):
        _case(cases, "equiv-self-0").check((0, "equivalent: false\n", ""))
    code, out, err = _case(cases, "msep-big-connected").call()
    with pytest.raises(checks.CheckFailed):
        _case(cases, "msep-big-connected").check((code, "separated: true\n", err))


def test_validate_check_rejects_false_witness_and_false_validity(triage):
    # INDUCING_CHAIN of the test fixtures: invalid because a <-> b <-> c <-> d
    # is an inducing path between the non-adjacent a and d.
    nodes = ["a", "b", "c", "d"]
    edges = [("a", "<->", "b"), ("b", "<->", "c"), ("c", "<->", "d"), ("b", "->", "d"), ("c", "->", "a")]
    case = triage._validate_case(0, "validate-inducing-chain", "inducing-chain", nodes, edges)
    case.check(case.call())
    with pytest.raises(checks.CheckFailed, match="round trip"):
        case.check((0, "valid: true\n", ""))
    with pytest.raises(checks.CheckFailed):
        case.check((0, "valid: false\nviolation: MaximalityViolation\nwitness: a <-> b\n", ""))
    with pytest.raises(checks.CheckFailed):
        case.check((0, "valid: false\nviolation: SigmaCompletenessViolation\nwitness: (a, b, c)\n", ""))


def test_dot_check_rejects_a_missing_edge():
    text = "digraph G {\n  \"a\";\n  \"b\";\n  \"a\" -> \"b\";\n}\n"
    checks.check_dot(text, ["a", "b"], [("a", "->", "b")])
    with pytest.raises(checks.CheckFailed):
        checks.check_dot(text, ["a", "b"], [("a", "<->", "b")])


BUDGET_S = 0.05


def test_forced_timeout_is_undecided_and_the_next_item_runs():
    def spin():
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass

    rounds = [[workloads.Case("slow", spin, lambda r: None), workloads.Case("fast", lambda: 1, lambda r: None)]] * 2
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        t0 = time.perf_counter()
        tally = run.run_items(rounds, BUDGET_S)
        assert time.perf_counter() - t0 < 2
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert tally.rounds == 2
    assert list(tally.outcomes) == [run.UNDECIDED, run.DECIDED] * 2
    assert tally.undecided == [(0, "slow"), (1, "slow")]
    assert tally.latencies[0] == BUDGET_S and not tally.failures


def test_scaling_follows_the_next_probe_and_keeps_the_budget(monkeypatch):
    monkeypatch.setattr(speed, "HALF_WINDOW", 0)
    ref = speed.REFERENCE_S
    probe = speed.SpeedProbe()
    probe.at, probe.took = array("q", [0, 1, 3]), array("d", [ref, 2 * ref, 4 * ref])
    scales = probe.scales(4)
    assert scales == [0.5, 0.25, 0.25, 0.25]
    tally = run.Tally()
    tally.latencies = array("d", [0.2, 0.4, BUDGET_S, 0.8])
    tally.outcomes = array("b", [run.DECIDED, run.RAISED, run.UNDECIDED, run.DECIDED])
    tally.round_ends = [4]
    assert list(run.scaled(tally, scales).latencies) == [0.1, 0.1, BUDGET_S, 0.2]

def test_traced_run_restores_every_patched_attribute():
    import cyclomag
    from cyclomag import abstraction, separation

    snapshot = layertrace.library_snapshot()
    original_iter, original_represent = separation._iter_inducing_paths, cyclomag.represent
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.start()
    try:
        # Wrapped in every namespace that holds a reference, including the
        # private import in abstraction and the package namespace.
        assert abstraction._iter_inducing_paths is separation._iter_inducing_paths is not original_iter
        assert cyclomag.represent is abstraction.represent is not original_represent
        assert not layertrace.snapshot_matches(snapshot)
        cyclomag.validate(cyclomag.represent(COLLIDER_DMG))
    finally:
        tracer.stop()
        tracer.uninstall()
    assert layertrace.snapshot_matches(snapshot)
    metrics = tracer.metrics()
    assert metrics["abstraction.represent.calls"] == 1
    assert metrics["abstraction.validate.calls"] == 1
    assert metrics["separation.sigma_separated.calls"] > 0
    assert 0 <= metrics["abstraction.represent.self_s"] <= metrics["abstraction.represent.total_s"]


def test_generators_are_counted_per_item():
    from cyclomag import inducing_paths

    h = MixedGraph.of("a <-> b", "b <-> c", "c <-> d", "b -> d", "c -> a")
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.start()
    try:
        found = inducing_paths(h, "a", "d")
    finally:
        tracer.stop()
        tracer.uninstall()
    metrics = tracer.metrics()
    assert len(found) >= 1
    assert metrics["separation._iter_inducing_paths.calls"] == 1
    assert metrics["separation._iter_inducing_paths.yielded"] == len(found)
    assert metrics["relations.enumerate_simple_paths.yielded"] >= len(found)


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    contents = []
    for name in ("one", "two"):
        w = workloads.Triage(11, tmp_path / name)
        w.setup_rounds = 1
        w.setup()
        contents.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
    assert contents[0] == contents[1] and len(contents[0]) > 20
    assert inputs.roundtrip_system(30, 5) == inputs.roundtrip_system(30, 5)
    assert inputs.planted_cyclic_system(150, 5, 5) == inputs.planted_cyclic_system(150, 5, 5)
    assert inputs.roundtrip_system(30, 5) != inputs.roundtrip_system(30, 6)
    queries = [workloads.Queries(3, tmp_path) for _ in range(2)]
    for q in queries:
        q.setup_rounds = 1
        q.setup()
    assert [c.kind for c in queries[0]._rounds[0]] == [c.kind for c in queries[1]._rounds[0]]
    assert [s[0] for s in queries[0].systems] == [s[0] for s in queries[1].systems]


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layertrace.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
