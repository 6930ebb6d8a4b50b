"""The three closed-loop workloads.

A workload builds its inputs from the seed in :meth:`setup`, then hands
out rounds of :class:`Case` objects.  Each case is one unit of user
work: ``call`` is the timed call into the library and ``check`` compares
its result with an answer known from construction, outside the timed
region.  Timed calls look the library function up in the ``cyclomag``
namespace when they run, so a tracer installed there sees them.
Rounds past the ones built in setup are generated on demand, so a
faster library never runs out of fresh inputs.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import inputs
from checks import (
    CheckFailed,
    Dmg,
    Mixed,
    check_dot,
    check_open_path,
    check_violation,
    collider_at,
    discriminates,
    require,
    stays_valid_without,
)
import cyclomag
from cyclomag import (
    ContextedDmg,
    CyclomagError,
    SeparationQuery,
    canonical_dmg,
    cli,
    m_separated,
    represent,
    sigma_separated,
)


@dataclass
class Case:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def reset_caches() -> None:
    """Empty the library's process-wide memo, when it has one."""
    from cyclomag import relations

    clear = getattr(relations.strongly_connected_components, "cache_clear", None)
    if clear is not None:
        clear()


class Workload:
    name = ""
    why = ""
    budget_s = 0.0
    setup_rounds = 0
    known_defects: dict[str, str] = {}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._rounds: list[list[Case]] = []

    def setup(self) -> None:
        """Build everything the timed phase needs, and the first rounds."""
        self._rounds = [self.make_round(r) for r in range(self.setup_rounds)]

    def rounds(self):
        """Every round in order: those built in setup, then fresh ones, without end.

        Setup rounds are let go as they are handed out, so the memory held
        for inputs peaks at the start whatever the number of rounds run.
        """
        r = 0
        while self._rounds:
            yield self._rounds.pop(0)
            r += 1
        while True:
            yield self.make_round(r)
            r += 1

    def make_round(self, r: int) -> list[Case]:
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed work a user would have done before the first item."""

    def report(self) -> dict:
        """Workload-specific figures for the metadata."""
        return {}


# ---------------------------------------------------------------------------


class Roundtrip(Workload):
    name = "roundtrip"
    why = (
        "the abstraction pipeline on fresh graphs: represent issues about n^2/2 sigma_separated "
        "calls, so separation and relations dominate and no per-graph memo is ever reused"
    )
    budget_s = 10.0
    # Thirty rounds take some 15 s, half a run; peak RSS is read after them.
    setup_rounds = 30
    # Equal counts per size put the median in the middle size and the
    # 90th percentile inside the largest one.  Sizes stop at 26: the time
    # of one graph varies by about 30% from graph to graph, so a run needs
    # some eighty graphs of each size for its median and tail to be
    # steady from seed to seed, and larger graphs take too long for that.
    sizes = (10, 14, 18, 22, 26)

    def make_round(self, r):
        cases = []
        for n in self.sizes:
            c, latent = inputs.roundtrip_system(n, inputs.sub_seed(self.seed, "roundtrip", r, n))
            cases.append(Case(f"pipeline-n{n}", _pipeline(c, latent), _check_pipeline))
        return cases


def _pipeline(c: ContextedDmg, latent):
    def call():
        lib = cyclomag
        g = lib.marginalize(c.graph, latent)
        h = lib.represent(ContextedDmg(g, c.selection))
        report = lib.validate(h)
        h_rt = lib.represent(lib.canonical_dmg(h))
        return h, report, h_rt, lib.condition1(h, h_rt)

    return call


def _check_pipeline(result) -> None:
    h, report, h_rt, equivalence = result
    require(report.valid, "validate rejected an abstraction")
    require(h_rt == h, "represent(canonical_dmg(h)) differs from h")
    require(equivalence.equivalent, "condition1 calls a graph and its round trip inequivalent")


# ---------------------------------------------------------------------------


class Queries(Workload):
    name = "queries"
    why = (
        "many separation queries on eighteen fixed graphs: the same engines as roundtrip, but "
        "per-graph derived data is reused thousands of times"
    )
    budget_s = 1.0
    setup_rounds = 10
    # Eighteen graphs, not two or three: the slowest queries depend on the
    # graph, and the tail of a run over few graphs moves with the seed.
    n_systems = 18
    n_nodes = 100
    n_selection = 5
    per_round = 60

    def setup(self):
        self.verdicts = {True: 0, False: 0}
        self.systems = []
        for k in range(self.n_systems):
            seed = inputs.sub_seed(self.seed, "queries", k)
            c = inputs.planted_cyclic_system(self.n_nodes, seed, self.n_selection)
            h = represent(c)
            dmg = Dmg(c.graph)
            self.systems.append((c, h, dmg, Mixed(h.nodes, inputs.mixed_edges(h)), dmg.components()))
        super().setup()

    def report(self):
        checked = sum(self.verdicts.values())
        return {"separated_frac": self.verdicts[True] / checked if checked else None}

    def warm(self):
        for c, h, *_ in self.systems:
            a, b = c.observed[:2]
            sigma_separated(c.graph, SeparationQuery(a, b, c.selection))
            m_separated(h, SeparationQuery(a, b))

    def make_round(self, r):
        # y is drawn from the connected part of the graph that holds x:
        # pairs in different parts are separated by any set and would
        # crowd out the connected verdicts.
        rng = random.Random(inputs.sub_seed(self.seed, "queries-round", r))
        cases = []
        for i in range(self.per_round):
            c, h, dmg, mixed, component = self.systems[i % len(self.systems)]
            observed = c.observed
            nx, ny = rng.choice((1, 1, 1, 2, 3)), rng.choice((1, 1, 1, 2, 3))
            x = set(rng.sample(observed, nx))
            near = [v for v in observed if component[v] == component[min(x)] and v not in x]
            y = set(rng.sample(near if len(near) >= ny else [v for v in observed if v not in x], ny))
            rest = [v for v in observed if v not in x | y]
            z = set(rng.sample(rest, rng.randint(0, len(observed) // 4)))
            s = set(c.selection)
            shared: dict = {}
            cases.append(
                Case(
                    f"sigma-x{nx}y{ny}",
                    _call("sigma_separated", c.graph, SeparationQuery(x, y, z | s)),
                    _check_query(shared, "sigma", dmg, x, y, z | s, self.verdicts),
                )
            )
            cases.append(
                Case(
                    f"m-x{nx}y{ny}",
                    _call("m_separated", h, SeparationQuery(x, y, z)),
                    _check_query(shared, "m", mixed, x, y, z),
                )
            )
        return cases


def _call(name: str, *args):
    return lambda: getattr(cyclomag, name)(*args)


def _check_query(shared: dict, kind: str, graph, x, y, z, tally: dict | None = None):
    """Witness openness for one verdict, and the sigma/m bridge once both are in."""

    def check(verdict):
        shared[kind] = verdict.separated
        if tally is not None:
            tally[verdict.separated] += 1
        if not verdict.separated:
            require(verdict.witness is not None, "connected verdict without a witness")
            check_open_path(graph, kind, verdict.witness.render(), x, y, z)
        if len(shared) == 2:
            require(shared["sigma"] == shared["m"], "sigma and m verdicts disagree (criterion 5 bridge)")

    return check


# ---------------------------------------------------------------------------

CAP_DEFECT = "condition1 stops discriminating paths at 10 interior nodes and answers equivalent"


class Triage(Workload):
    name = "triage"
    why = (
        "hostile and unknown documents through the CLI: parsing, validate's path enumeration and "
        "discriminating paths dominate, with one n=22 canary per round far past the budget"
    )
    budget_s = 1.0
    # Peak RSS is read after these rounds; a 30 s run does about ten.
    setup_rounds = 5
    known_defects = {f"equiv-chain-k{k}": CAP_DEFECT for k in range(11, 15)}
    # The n=22 validate canary: with this generator seed, validate
    # enumerates paths for minutes, far past the budget.
    canary_seed = 22

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        super().setup()

    def _doc(self, r: int, label: str, nodes, edges) -> str:
        path = self.workdir / f"r{r}-{label}.txt"
        inputs.write_doc(path, nodes, edges)
        return str(path)

    def make_round(self, r):
        seed = lambda *parts: inputs.sub_seed(self.seed, "triage", r, *parts)  # noqa: E731
        cases = []
        # 33 mark-heavy items put the median well inside their cluster, and
        # keep a round at most 59 items, so that the 90th percentile falls
        # among the six big-document items and not at their edge.
        for i in range(33):
            nodes, edges = inputs.mark_heavy_mixed(12, seed("mark-heavy", i))
            cases.append(self._validate_case(r, "validate-mark-heavy", f"mark-heavy-{i}", nodes, edges))
        for i in range(2):
            h = represent(inputs.planted_cyclic_system(24, seed("valid", i), 2))
            edges = inputs.mixed_edges(h)
            cases.append(self._validate_case(r, "validate-representation", f"valid-{i}", h.nodes, edges, True))
        for i in range(2):
            h = represent(inputs.planted_cyclic_system(60 + 10 * i, seed("self", i), 0))
            path = self._doc(r, f"self-{i}", h.nodes, inputs.mixed_edges(h))
            cases.append(Case(f"equiv-self-{i}", _cli("equiv", path, path), _expect_stdout("equivalent: true\n")))
        for i in range(2):
            cases.append(self._mutated_case(r, i, seed("mutated", i)))
        for k in range(2, 15):
            cases.append(self._chain_case(r, k, seed("chain", k)))
        for i in range(2):
            cases.extend(self._big_cases(r, i, seed("big", i)))
        nodes, edges = inputs.mark_heavy_mixed(22, self.canary_seed)
        nodes, edges = inputs.relabelled(nodes, edges, seed("canary"), "x")
        cases.append(self._validate_case(r, "validate-canary", "canary", nodes, edges))
        return cases

    def _validate_case(self, r, kind, label, nodes, edges, expect_valid=None):
        path = self._doc(r, label, nodes, edges)
        graph = Mixed(nodes, edges)

        def check(result):
            code, out, _ = result
            require(code == 0, f"validate exited {code}")
            lines = out.splitlines()
            require(lines[0] in ("valid: true", "valid: false"), f"unexpected output {out!r}")
            valid = lines[0] == "valid: true"
            if expect_valid is not None:
                require(valid == expect_valid, f"expected {'valid' if expect_valid else 'invalid'}")
            if valid:
                require(len(lines) == 1, "a valid verdict lists violations")
                h = inputs.mixed_graph(nodes, edges)
                try:
                    round_trip = represent(canonical_dmg(h))
                except CyclomagError as exc:
                    raise CheckFailed(f"valid verdict fails the round trip: {exc}") from exc
                require(round_trip == h, "valid verdict fails the round trip")
                return
            pairs = lines[1:]
            require(pairs and len(pairs) % 2 == 0, "an invalid verdict lists no violation")
            for head, witness in zip(pairs[0::2], pairs[1::2]):
                require(head.startswith("violation: ") and witness.startswith("witness: "), f"bad line {head!r}")
                check_violation(graph, head[len("violation: ") :], witness[len("witness: ") :])

        return Case(kind, _cli("validate", path), check)

    def _mutated_case(self, r, i, seed):
        h = represent(inputs.planted_cyclic_system(60 + 10 * i, seed, 0))
        edges = inputs.mixed_edges(h)
        order = list(range(len(edges)))
        random.Random(seed).shuffle(order)
        drop = next(j for j in order if stays_valid_without(h.nodes, edges, edges[j][0], edges[j][2]))
        a, b = sorted((edges[drop][0], edges[drop][2]))
        first = self._doc(r, f"mutated-{i}-a", h.nodes, edges)
        second = self._doc(r, f"mutated-{i}-b", h.nodes, edges[:drop] + edges[drop + 1 :])
        expected = f"equivalent: false\nclause: Adjacency\nwitness: ({a}, {b})\n"
        return Case(f"equiv-mutated-{i}", _cli("equiv", first, second), _expect_stdout(expected))

    def _chain_case(self, r, k, seed):
        nodes, collider, non_collider, dpath, (a, c, z) = inputs.chain_pair(k, seed)
        g1, g2 = Mixed(nodes, collider), Mixed(nodes, non_collider)
        # The statement that tells the two graphs apart, checked once here.
        h1, h2 = inputs.mixed_graph(nodes, collider), inputs.mixed_graph(nodes, non_collider)
        q = SeparationQuery(a, c, z)
        open_path = " ".join(f"{u} {op}" for u, op in zip(dpath, ("->",) + ("<->",) * k + ("->",))) + f" {c}"
        try:
            check_open_path(g2, "m", open_path, {a}, {c}, set(z))
            statement_holds = m_separated(h1, q).separated and not m_separated(h2, q).separated
        except CheckFailed:
            statement_holds = False
        first = self._doc(r, f"chain-{k}-a", nodes, collider)
        second = self._doc(r, f"chain-{k}-b", nodes, non_collider)

        def check(result):
            code, out, _ = result
            require(statement_holds, f"m-separation of {a}, {c} does not tell the chain graphs apart")
            require(code == 0, f"equiv exited {code}")
            lines = out.splitlines()
            require(lines[0] == "equivalent: false", f"{k}-node chain called equivalent")
            require(lines[1] == "clause: DiscriminatingPath", f"unexpected clause {lines[1]!r}")
            path, _, target = lines[2][len("witness: ") :].partition("; ")
            seq = path.split()
            require(all(discriminates(g, seq, target) for g in (g1, g2)), "witness does not discriminate")
            b_at = len(seq) - 2
            require(collider_at(g1, seq, b_at) != collider_at(g2, seq, b_at), "witness status agrees")

        return Case(f"equiv-chain-k{k}", _cli("equiv", first, second), check)

    def _big_cases(self, r, i, seed):
        nodes, edges, (left, right) = inputs.big_mixed(2000, seed)
        path = self._doc(r, f"big-{i}", nodes, edges)
        graph = Mixed(nodes, edges)
        children = {}
        for u, op, v in edges:
            if op == "->":
                children.setdefault(u, []).append(v)
        rng = random.Random(seed)
        x = rng.choice(sorted(children))
        walk = [x]
        while walk[-1] in children and len(walk) < 6:
            nxt = [v for v in children[walk[-1]] if v not in walk]
            if not nxt:
                break
            walk.append(rng.choice(sorted(nxt)))
        y = walk[-1]

        def connected(result):
            code, out, _ = result
            require(code == 0, f"msep exited {code}")
            lines = out.splitlines()
            require(lines[0] == "separated: false", f"directed path {x} to {y} reported separated")
            check_open_path(graph, "m", lines[1][len("witness: ") :], {x}, {y}, set())

        def dot(result):
            code, out, _ = result
            require(code == 0, f"export-dot exited {code}")
            check_dot(out, nodes, edges)

        far = (rng.choice(left), rng.choice(right))
        return [
            Case("export-dot-big", _cli("export-dot", path), dot),
            Case("msep-big-connected", _cli("msep", path, "--x", x, "--y", y), connected),
            Case(
                "msep-big-separated",
                _cli("msep", path, "--x", far[0], "--y", far[1]),
                _expect_stdout("separated: true\n"),
            ),
        ]


def _cli(*argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return call


def _expect_stdout(expected: str):
    def check(result):
        code, out, err = result
        require(code == 0, f"exited {code}: {err.strip()}")
        require(out == expected, f"expected {expected!r}, got {out!r}")

    return check


WORKLOADS = {w.name: w for w in (Roundtrip, Queries, Triage)}
