"""Command-line surface.

Exit codes: 0 when a verdict or document was computed (whatever the
verdict), 1 for usage or parse errors, 2 for precondition failures such
as feeding an invalid graph to ``canonical`` or exceeding an oracle cap.

The parser is built once, on the first call, and holds no command
functions: :func:`cli` looks ``_cmd_<command>`` up in this module by name
on every call, so a function replaced after import (by a tracer, say) is
the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .abstraction import canonical_dmg, marginalize, represent, validate
from .equivalence import (
    DiscriminatingPath,
    condition1,
    discriminating_paths,
    m_markov_equivalent_oracle,
    sigma_markov_equivalent_oracle,
)
from .errors import InputError, OracleCapError, ParseError, PreconditionError
from .generators import GeneratorConfig, random_dmg
from .graphs import ContextedDmg, MixedGraph
from .io_text import export_dot, parse_graph, serialize_graph
from .separation import (
    SeparationQuery,
    inducing_paths,
    m_separated,
    sigma_inducing_paths,
    sigma_separated,
)
from .walks import Walk


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage problems on exit code 1
        raise InputError(message)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load(path: str, kind: str):
    try:
        return parse_graph(_read(path), kind)
    except ParseError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_auto(path: str):
    """Mixed document first; anything mixed syntax rejects is read as dmg."""
    text = _read(path)
    try:
        return parse_graph(text, "mixed")
    except ParseError:
        try:
            return parse_graph(text, "dmg")
        except ParseError as exc:
            raise InputError(f"{path}: {exc}") from exc


def _nodes_arg(value: str | None) -> tuple[str, ...]:
    if not value:
        return ()
    return tuple(part for part in value.split(",") if part)


def _print_verdict(verdict) -> None:
    print(f"separated: {'true' if verdict.separated else 'false'}")
    if verdict.witness is not None:
        print(f"witness: {verdict.witness.render()}")


def _render_witness(witness: tuple) -> str:
    if all(isinstance(x, str) for x in witness):
        return "(" + ", ".join(witness) + ")"
    return "; ".join(x.render() if isinstance(x, (Walk, DiscriminatingPath)) else str(x) for x in witness)


def _dp_walk(h: MixedGraph, dp: DiscriminatingPath) -> Walk:
    edges = tuple(h.edge(u, v) for u, v in zip(dp.nodes, dp.nodes[1:]))
    return Walk(dp.nodes[0], edges)


def _cmd_validate(args) -> int:
    report = validate(_load(args.file, "mixed"))
    print(f"valid: {'true' if report.valid else 'false'}")
    for violation in report.violations:
        print(f"violation: {violation.kind.value}")
        print(f"witness: {_render_witness(violation.witness)}")
    return 0


def _cmd_abstract(args) -> int:
    h = represent(_load(args.file, "dmg"))
    sys.stdout.write(serialize_graph(h))
    return 0


def _cmd_marginalize(args) -> int:
    c = _load(args.file, "dmg")
    drop = _nodes_arg(args.drop)
    for v in drop:
        if v in c.selection:
            raise InputError(f"cannot marginalize out selection node {v!r}")
    g = marginalize(c.graph, drop)
    sys.stdout.write(serialize_graph(ContextedDmg(g, c.selection)))
    return 0


def _cmd_msep(args) -> int:
    h = _load(args.file, "mixed")
    q = SeparationQuery(_nodes_arg(args.x), _nodes_arg(args.y), _nodes_arg(args.z))
    _print_verdict(m_separated(h, q))
    return 0


def _cmd_ssep(args) -> int:
    c = _load(args.file, "dmg")
    z = set(_nodes_arg(args.z)) | set(c.selection)
    q = SeparationQuery(_nodes_arg(args.x), _nodes_arg(args.y), z)
    _print_verdict(sigma_separated(c.graph, q))
    return 0


def _cmd_canonical(args) -> int:
    c = canonical_dmg(_load(args.file, "mixed"))
    sys.stdout.write(serialize_graph(c))
    return 0


def _cmd_equiv(args) -> int:
    g1 = _load_auto(args.file1)
    g2 = _load_auto(args.file2)
    if type(g1) is not type(g2):
        raise InputError("cannot compare a mixed document with a dmg document")
    mixed = isinstance(g1, MixedGraph)
    if mixed:
        for path, h in ((args.file1, g1), (args.file2, g2)):
            if not validate(h).valid:
                raise PreconditionError(f"{path} is not a valid input graph")
    if args.oracle:
        oracle = m_markov_equivalent_oracle if mixed else sigma_markov_equivalent_oracle
        _print_equiv_oracle(*oracle(g1, g2))
        return 0
    report = condition1(g1, g2) if mixed else condition1(represent(g1), represent(g2))
    print(f"equivalent: {'true' if report.equivalent else 'false'}")
    if not report.equivalent:
        print(f"clause: {report.failed_clause.value}")
        print(f"witness: {_render_witness(report.witness)}")
    return 0


def _print_equiv_oracle(ok: bool, cex) -> None:
    print(f"equivalent: {'true' if ok else 'false'}")
    if cex is not None:
        a, b, z = cex
        print(f"witness: ({a}, {b}, {{{', '.join(sorted(z))}}})")


def _cmd_paths(args) -> int:
    if args.kind == "discriminating":
        h = _load(args.file, "mixed")
        for dp in discriminating_paths(h, for_node=args.b):
            print(f"{_dp_walk(h, dp).render()}  (for {dp.target})")
        return 0
    if args.a is None or args.b is None:
        raise InputError(f"--a and --b are required for {args.kind} paths")
    if args.kind == "inducing":
        h = _load(args.file, "mixed")
        for path in inducing_paths(h, args.a, args.b):
            print(path.render())
        return 0
    c = _load(args.file, "dmg")
    for path in sigma_inducing_paths(c.graph, c.selection, args.a, args.b):
        ends = (
            f"{'into' if path.is_into(args.a) else 'out of'} {args.a}, "
            f"{'into' if path.is_into(args.b) else 'out of'} {args.b}"
        )
        print(f"{path.render()}  ({ends})")
    return 0


def _cmd_random(args) -> int:
    cfg = GeneratorConfig(
        n_nodes=args.nodes,
        p_directed=args.p_dir,
        p_bidirected=args.p_bi,
        n_selection=args.selection,
        seed=args.seed,
    )
    c = random_dmg(cfg, allow_selection_children=args.allow_selection_children)
    sys.stdout.write(serialize_graph(c))
    return 0


def _cmd_export_dot(args) -> int:
    sys.stdout.write(export_dot(_load_auto(args.file)))
    return 0


@functools.cache
def _build_parser() -> _Parser:
    # The help text stops before the paragraph on how commands are found.
    parser = _Parser(prog="cyclomag", description=(__doc__ or "").rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a mixed graph for validity")
    p.add_argument("file")

    p = sub.add_parser("abstract", help="abstract a dmg document into a mixed graph")
    p.add_argument("file")

    p = sub.add_parser("marginalize", help="project latent nodes out of a dmg")
    p.add_argument("file")
    p.add_argument("--drop", required=True, help="comma-separated nodes to remove")

    p = sub.add_parser("msep", help="m-separation query on a mixed graph")
    p.add_argument("file")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", default="")

    p = sub.add_parser("ssep", help="sigma-separation query on a dmg")
    p.add_argument("file")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", default="", help="conditioning set; selection nodes are always added")

    p = sub.add_parser("canonical", help="reconstruct one dmg a valid mixed graph abstracts")
    p.add_argument("file")

    p = sub.add_parser("equiv", help="Markov-equivalence of two graph documents")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--oracle", action="store_true", help="use the exhaustive oracle")

    p = sub.add_parser("paths", help="enumerate special paths")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=["inducing", "sigma-inducing", "discriminating"])
    p.add_argument("--a")
    p.add_argument("--b")

    p = sub.add_parser("random", help="generate a seeded random dmg document")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--p-dir", type=float, default=0.3, dest="p_dir")
    p.add_argument("--p-bi", type=float, default=0.15, dest="p_bi")
    p.add_argument("--selection", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-selection-children", action="store_true")

    p = sub.add_parser("export-dot", help="emit Graphviz text for a graph document")
    p.add_argument("file")

    return parser


def cli(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except InputError as exc:  # usage and parse errors included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PreconditionError, OracleCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    try:
        return cli(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
