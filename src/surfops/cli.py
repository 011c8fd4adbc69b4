"""Command line front end.

Exit codes: 0 success (and "equivalent" verdicts), 1 usage or parse errors,
2 violated operation preconditions, 3 failed checks and "inequivalent"
verdicts.  Surface and diagram operands take the text grammars; a lone "-"
reads the operand from stdin, and surfaces are also accepted as JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from typing import Sequence

from .canonical import all_canonical_diagrams, canonical_diagram
from .census import _MAX_POOL, _MAX_POOL_LABELS, distribution_rows, genus_distribution, surface_pool
from .diagram import ChordDiagram, evaluate, render_dot
from .laws import (
    LawReport,
    SurfaceTarget,
    TerminalTarget,
    check_axioms,
    check_axioms_random,
    check_universal_property,
    surface_sampler,
    terminal_pool,
    terminal_sampler,
)
from .lexer import ParseError, nonnegative_int
from .rewrite import equivalent, find_certificate
from .surface import Surface, compose, self_glue
from .words import Renaming, check_label


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse failures to exit code 1 instead of its default 2
    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def _read_operand(text: str) -> str:
    return sys.stdin.read() if text == "-" else text


def _parse_surface(operand: str) -> Surface:
    text = _read_operand(operand)
    stripped = text.strip()
    if stripped.startswith("{") and stripped[1:].lstrip().startswith('"'):
        try:
            data = json.loads(stripped)
        except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
            raise ParseError(f"invalid JSON: {exc}") from exc
        return Surface.from_json(data)
    return Surface.parse(text)


def _parse_diagram(text: str) -> ChordDiagram:
    return ChordDiagram.parse(_read_operand(text))


def _parse_renaming(text: str) -> Renaming:
    names = list(re.finditer(r"[^\s,]+", text))
    if len(names) % 2 != 0:
        raise ParseError("renaming needs an even list: old new, old new, ...")
    if not names:
        raise ParseError("renaming must not be empty")
    for m in names:
        try:
            check_label(m.group())
        except ValueError as exc:
            raise ParseError(str(exc), text, m.start()) from None
    words = [m.group() for m in names]
    return Renaming(zip(words[0::2], words[1::2]))


def _nonnegative(text: str) -> int:
    """argparse type for counts, sizes and depths: a nonnegative integer in ASCII digits only."""
    value = nonnegative_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type for --seed: an integer in ASCII digits, with an optional leading '-'."""
    value = nonnegative_int(text.removeprefix("-"))
    if value is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return -value if text.startswith("-") else value


def _print_surface(q: Surface, as_json: bool) -> int:
    print(q.json() if as_json else str(q))
    return 0


def _print_report(report: LawReport, as_json: bool) -> int:
    print(json.dumps(report.to_json(), indent=2) if as_json else str(report))
    return 0 if report.passed else 3


def cmd_eval(args) -> int:
    return _print_surface(evaluate(_parse_diagram(args.diagram)), args.json)


def cmd_canon(args) -> int:
    q = _parse_surface(args.surface)
    exprs = all_canonical_diagrams(q) if args.all else [canonical_diagram(q)]
    if args.json:
        payload = [e.to_json() for e in exprs]
        print(json.dumps(payload[0] if not args.all else payload, indent=2))
    else:
        for expr in exprs:
            print(str(expr.diagram))
            if args.annotate:
                print(f"  {expr.annotation()}")
    return 0


def cmd_compose(args) -> int:
    return _print_surface(compose(_parse_surface(args.left), args.a, _parse_surface(args.right), args.b), args.json)


def cmd_glue(args) -> int:
    return _print_surface(self_glue(_parse_surface(args.surface), args.a, args.b), args.json)


def cmd_rename(args) -> int:
    return _print_surface(_parse_surface(args.surface).rename(_parse_renaming(args.map)), args.json)


def cmd_equal(args) -> int:
    d1 = _parse_diagram(args.left)
    d2 = _parse_diagram(args.right)
    same = equivalent(d1, d2)
    if args.certificate:
        cert = find_certificate(d1, d2, max_depth=args.depth)
        if cert is None:
            if same:
                print(f"equivalent (no certificate found within depth {args.depth})")
            else:
                print("inequivalent")
        elif not cert:
            print("equivalent (diagrams are identical)")
        else:
            print(f"equivalent via {len(cert)} move(s):")
            for move in cert:
                print(f"  {move}")
    else:
        print("equivalent" if same else "inequivalent")
    return 0 if same else 3


def cmd_check_axioms(args) -> int:
    if args.target == "qo":
        target, pool, sampler = SurfaceTarget(), surface_pool, surface_sampler(max_g=args.max_g)
    else:
        target, pool, sampler = TerminalTarget(), terminal_pool, terminal_sampler()
    report = check_axioms(target, pool(args.max_labels, args.max_g), budget=args.budget)
    if args.random:
        report.absorb(check_axioms_random(target, sampler, args.random, random.Random(args.seed)))
    return _print_report(report, args.json)


def cmd_check_envelope(args) -> int:
    return _print_report(check_universal_property(args.max_labels, args.max_g, budget=args.budget), args.json)


def cmd_hz_table(args) -> int:
    dist = genus_distribution(args.chords)
    if args.json:
        print(json.dumps({
            "chords": args.chords,
            "counts": {str(g): c for g, c in dist.items()},
            "total": sum(dist.values()),
        }, indent=2))
    else:
        print(distribution_rows(dist))
    return 0


def cmd_render(args) -> int:
    print(render_dot(_parse_diagram(args.diagram)))
    return 0


@functools.cache  # built on the first main call, then reused: building is most of an in-process call
def build_parser() -> _Parser:
    parser = _Parser(prog="surfops", description="Surface algebra toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("eval", help="evaluate a chord diagram to a surface")
    p.add_argument("diagram", help='diagram text, e.g. "[ a #1 b #2 ; (#1 #2) ]", or - for stdin')
    p.add_argument("--json", action="store_true", help="print the surface as JSON")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("canon", help="canonical diagram presenting a surface")
    p.add_argument("surface", help='surface text, e.g. "{ ( a b ) }^1", JSON, or - for stdin')
    p.add_argument("--all", action="store_true", help="list every canonical presentation")
    p.add_argument("--annotate", action="store_true", help="also print structure annotations")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_canon)

    p = sub.add_parser("compose", help="glue a marked point of one surface to one of another")
    p.add_argument("left")
    p.add_argument("a", help="marked point on the left surface")
    p.add_argument("right")
    p.add_argument("b", help="marked point on the right surface")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("glue", help="glue two marked points of the same surface")
    p.add_argument("surface")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_glue)

    p = sub.add_parser("rename", help="rename marked points")
    p.add_argument("surface")
    p.add_argument("map", help='pairs "old new, old new"; must cover every marked point')
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_rename)

    p = sub.add_parser("equal", help="decide whether two diagrams present the same surface")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--certificate", action="store_true", help="search for a connecting move sequence")
    p.add_argument("--depth", type=_nonnegative, default=4, help="certificate search depth (default 4)")
    p.set_defaults(handler=cmd_equal)

    # the pool options of check-axioms and check-envelope
    pool_help = f"the pool holds at most {_MAX_POOL} elements"
    labels_help = f"size of the label universe, at most {_MAX_POOL_LABELS}; {pool_help}"
    genus_help = f"largest genus in the element pool; {pool_help}"
    budget_help = "cap instances per family"

    p = sub.add_parser("check-axioms", help="run the operation-law suite against a target")
    p.add_argument("--target", choices=["qo", "terminal"], default="qo",
                   help="qo = surfaces acting on themselves; terminal = signature collapse")
    p.add_argument("--max-labels", type=_nonnegative, default=2, help=labels_help)
    p.add_argument("--max-g", type=_nonnegative, default=1, help=genus_help)
    p.add_argument("--budget", type=_nonnegative, default=None, help=budget_help)
    p.add_argument("--random", type=_nonnegative, default=0, metavar="N",
                   help="also run N randomized larger instances")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_check_axioms)

    p = sub.add_parser("check-envelope", help="verify induced maps: existence, agreement, laws")
    p.add_argument("--max-labels", type=_nonnegative, default=3, help=labels_help)
    p.add_argument("--max-g", type=_nonnegative, default=1, help=genus_help)
    p.add_argument("--budget", type=_nonnegative, default=None, help=budget_help)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_check_envelope)

    p = sub.add_parser("hz-table", help="genus counts over all matchings of 2n points")
    p.add_argument("--chords", type=_nonnegative, required=True, metavar="N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_hz_table)

    p = sub.add_parser("render", help="render a diagram for graphviz")
    p.add_argument("diagram")
    p.add_argument("--format", choices=["dot"], default="dot")
    p.set_defaults(handler=cmd_render)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()  # inside the try, so that a reader who closed the pipe is noticed here
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that flush cannot fail as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
