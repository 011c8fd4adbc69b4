"""Workload ``text``: a seeded stream of text and JSON operands through the three grammars and the CLI.

The lexer, the parsers and boundary validation do most of the work: the same
constructors that ``moves`` drives from the interior, so a change that moves
validation between the boundary and the interior shows as a gain on one of
the two workloads and a cost on the other.  Operands hold 0 to 50 items.
Each is parsed, printed and parsed back, and round-tripped through JSON;
surfaces also get their canonical diagrams, and diagrams of at most
EVAL_MAX_ARCS arcs are evaluated.  A MALFORMED_SHARE of requests carry a
malformed operand that must be rejected with ``ParseError`` (exit 1) or a
precondition error (exit 2).  Every expected value comes from ``oracle``.

No usage data records how often each grammar, form or command is used, so
the mix is an assumption with as few distinct shares as possible: every
choice below is uniform.  Each request is one of four kinds (a word, a
surface or a diagram through the library, or an in-process ``cli.main``
call with one of the six commands), text or JSON with equal odds, and holds
0 to MAX_ITEMS items.  Only MALFORMED_SHARE is not uniform.  The kinds and
the malformed requests are exact quotas, placed at random.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import string
from functools import partial

import oracle
from common import count_arcs, raises, require, surface_key

REQUESTS = 1500
MAX_ITEMS = 50
EVAL_MAX_ARCS = 8
ALL_CANONICAL_MAX = 24  # presentations; all_canonical_diagrams grows factorially in the cycle count
MALFORMED_SHARE = 0.05
KINDS = ("word", "surface", "diagram", "cli")
CLI_COMMANDS = ("eval", "canon", "compose", "glue", "rename", "equal")
SUFFIXES = ("", "_", "'", ".x", "-y", "!", "*", "+", "?", "~", "@", "$", "%", "&", "=", "<", ">", "|", ":", "/")


def _labels(rng, n):
    return [f"{rng.choice(string.ascii_letters)}{k}{rng.choice(SUFFIXES)}" for k in rng.sample(range(1000), n)]


def _tokens(n_arcs):
    return [f"#{k}" for k in range(1, 2 * n_arcs + 1)]


def _join(rng, items):
    return rng.choice((" ", "  ", "\n", "\t ")).join(items)


def _word_text(rng, items):
    return "( " + _join(rng, items) + " )" if items else "( )"


def _rotate(rng, items):
    k = rng.randrange(len(items)) if items else 0
    return list(items[k:]) + list(items[:k])


def _surface(rng, n):
    labels = _labels(rng, n)
    cycles = []
    while labels:
        size = rng.randint(1, len(labels))
        cycles.append(tuple(labels[:size]))
        labels = labels[size:]
    cycles += [()] * rng.randint(0, 2) if cycles else [()] * rng.randint(1, 3)
    rng.shuffle(cycles)
    return cycles, rng.randint(0, 3)


def _surface_text(rng, cycles, genus, form):
    if form == "json":
        return json.dumps({"cycles": [list(c) for c in cycles], "g": genus})
    return "{ " + _join(rng, [_word_text(rng, _rotate(rng, c)) for c in cycles]) + f" }}^{genus}"


def _diagram(rng, n, max_arcs=MAX_ITEMS):
    arcs_n = rng.randint(0, min(n // 2, max_arcs))
    tokens = _tokens(arcs_n)
    base = _labels(rng, n - 2 * arcs_n) + tokens
    rng.shuffle(base)
    rng.shuffle(tokens)
    arcs = [(tokens[i], tokens[i + 1]) for i in range(0, len(tokens), 2)]
    return base, arcs


def _diagram_text(rng, base, arcs, form):
    if form == "json":
        return json.dumps({"base": list(base), "arcs": [list(a) for a in arcs]})
    return "[ " + _join(rng, list(base) + [";"] + [f"({x} {y})" for x, y in arcs]) + " ]"


def _corrupt(rng, text, items, arcs=()):
    """A text form made malformed in one of the ways every grammar must reject."""
    labels = [x for x in items if not x.startswith("#")]
    ways = ["truncate", "glue0"]
    if labels:
        ways += ["duplicate", "reserved"]
    if arcs:
        ways.append("unmatched")
    way = rng.choice(ways)
    if way == "truncate":
        return text[:-1]
    if way == "glue0":
        cut = rng.randint(1, len(text) - 1)
        return text[:cut] + " #0 " + text[cut:]
    if way == "unmatched":
        x, y = rng.choice(arcs)
        return text.replace(f"({x} {y})", "", 1)
    label = rng.choice(labels)
    pos = re.search(r"(?<=\s)" + re.escape(label) + r"(?=\s)", text).start()
    if way == "duplicate":
        return text[:pos] + label + " " + text[pos:]
    return text[:pos] + label[:1] + "{" + text[pos + 1 :]


class Spec:
    """One request: what to do, with which operand texts, and what it should give."""

    def __init__(self, kind, **fields):
        self.kind = kind
        self.__dict__.update(fields)


def _form(rng):
    return rng.choice(("text", "json"))


def _library_spec(rng, what):
    n = rng.randint(0, MAX_ITEMS)
    form = _form(rng)
    if what == "word":
        labels = _labels(rng, n)
        text = json.dumps(labels) if form == "json" else _word_text(rng, labels)
        return Spec("word", form=form, text=text, labels=labels)
    if what == "surface":
        cycles, genus = _surface(rng, n)
        every = oracle.presentation_count(cycles) <= ALL_CANONICAL_MAX
        text = _surface_text(rng, cycles, genus, form)
        return Spec("surface", form=form, text=text, cycles=cycles, genus=genus, every=every)
    base, arcs = _diagram(rng, n)
    text = _diagram_text(rng, base, arcs, form)
    return Spec("diagram", form=form, text=text, base=base, arcs=arcs, evaluate=len(arcs) <= EVAL_MAX_ARCS)


def _malformed_library_spec(rng, what):
    n = rng.randint(0, MAX_ITEMS)
    if what == "word":
        labels = _labels(rng, n)
        return Spec("malformed", grammar="word", text=_corrupt(rng, _word_text(rng, labels), labels))
    if what == "surface":
        cycles, genus = _surface(rng, n)
        text = _surface_text(rng, cycles, genus, "text")
        return Spec("malformed", grammar="surface", text=_corrupt(rng, text, [x for c in cycles for x in c]))
    base, arcs = _diagram(rng, n)
    text = _corrupt(rng, _diagram_text(rng, base, arcs, "text"), base, arcs)
    return Spec("malformed", grammar="diagram", text=text)


def _cli_spec(rng, malformed):
    n = rng.randint(0, MAX_ITEMS)
    # A malformed eval or canon operand is a parse error; a malformed glue, compose or
    # rename request breaks an operation precondition.
    commands = ("eval", "canon", "compose", "glue", "rename") if malformed else CLI_COMMANDS
    command = rng.choice(commands)
    if malformed and command == "eval":
        base, arcs = _diagram(rng, n, EVAL_MAX_ARCS)
        text = _corrupt(rng, _diagram_text(rng, base, arcs, "text"), base, arcs)
        return Spec("cli", argv=["eval", text], code=1, expect=None)
    if malformed and command == "canon":
        cycles, genus = _surface(rng, n)
        text = _corrupt(rng, _surface_text(rng, cycles, genus, "text"), [x for c in cycles for x in c])
        return Spec("cli", argv=["canon", text], code=1, expect=None)
    form = _form(rng)
    if command in ("eval", "equal"):
        base, arcs = _diagram(rng, n, EVAL_MAX_ARCS)
        want = oracle.trace_faces(base, arcs)
        if command == "eval":
            if rng.random() < 0.5:
                return Spec("cli", argv=["eval", "--json", _diagram_text(rng, base, arcs, "text")], code=0,
                            expect=json.dumps({"cycles": [list(c) for c in want[0]], "g": want[1]}))
            return Spec("cli", argv=["eval", _diagram_text(rng, base, arcs, "text")], code=0,
                        expect=oracle.surface_text(want))
        other = _rotate(rng, base) if rng.random() < 0.5 else rng.sample(base, len(base))
        same = oracle.trace_faces(other, arcs) == want
        argv = ["equal", _diagram_text(rng, base, arcs, "text"), _diagram_text(rng, other, arcs, "text")]
        return Spec("cli", argv=argv, code=0 if same else 3, expect="equivalent" if same else "inequivalent")
    cycles, genus = _surface(rng, max(n, 2))
    labels = [x for c in cycles for x in c]
    surface = oracle.canonical(cycles, genus)
    text = _surface_text(rng, cycles, genus, form)
    if command == "canon":
        return Spec("cli", argv=["canon", text], code=0, expect=surface, canon=True)
    if command == "glue":
        a, b = rng.sample(labels, 2)
        if malformed:
            b = rng.choice((a, "missing"))
            return Spec("cli", argv=["glue", text, a, b], code=2, expect=None)
        expect = oracle.surface_text(oracle.self_glue(surface, a, b))
        return Spec("cli", argv=["glue", text, a, b], code=0, expect=expect)
    if command == "rename":
        fresh = _labels(rng, len(labels))
        if malformed:
            fresh = fresh[:-1]
        mapping = dict(zip(labels, fresh))
        argv = ["rename", text, ", ".join(f"{k} {v}" for k, v in mapping.items())]
        if malformed:
            return Spec("cli", argv=argv, code=2, expect=None)
        return Spec("cli", argv=argv, code=0, expect=oracle.surface_text(oracle.rename(surface, mapping)))
    r_cycles, r_genus = _surface(rng, rng.randint(1, MAX_ITEMS))
    taken = set(labels)
    r_cycles = [tuple(f"{x}r" if x in taken else x for x in c) for c in r_cycles]
    if malformed:  # share one label with the left operand
        first = next(x for c in r_cycles for x in c)
        r_cycles = [tuple(labels[0] if x == first else x for x in c) for c in r_cycles]
    r_labels = [x for c in r_cycles for x in c]
    a, b = rng.choice(labels), rng.choice(r_labels)
    argv = ["compose", text, a, _surface_text(rng, r_cycles, r_genus, form), b]
    if malformed:
        return Spec("cli", argv=argv, code=2, expect=None)
    expect = oracle.surface_text(oracle.compose(surface, a, oracle.canonical(r_cycles, r_genus), b))
    return Spec("cli", argv=argv, code=0, expect=expect)


def setup(sp, seed, tr):
    rng = random.Random(seed)
    # Exact quotas, shuffled: each kind a quarter of the requests and MALFORMED_SHARE of them
    # malformed, so that the mix, and with it a pass's cost, does not swing with the seed.
    kinds = [KINDS[i % len(KINDS)] for i in range(REQUESTS)]
    rng.shuffle(kinds)
    bad = set(rng.sample(range(REQUESTS), round(MALFORMED_SHARE * REQUESTS)))
    specs = []
    for i, kind in enumerate(kinds):
        malformed = i in bad
        if kind == "cli":
            specs.append(_cli_spec(rng, malformed))
        elif malformed:
            specs.append(_malformed_library_spec(rng, kind))
        else:
            specs.append(_library_spec(rng, kind))
    return specs


def requests(sp, specs, tr):
    lexer = sp.lexer
    tokenize = lexer.tokenize
    if tr.enabled:
        lexer.tokenize = tr.wrap("lexer.tokenize", tokenize, count=lambda toks, text: {"lexer.tokens": len(toks)})
    try:
        yield from _requests(sp, specs, tr)
    finally:
        lexer.tokenize = tokenize


def _requests(sp, specs, tr):
    make_word = tr.wrap("words.CyclicWord", sp.CyclicWord)
    parse_word = tr.wrap("words.CyclicWord.parse", sp.CyclicWord.parse)
    parse_surface = tr.wrap("surface.Surface.parse", sp.Surface.parse)
    from_json = tr.wrap("surface.Surface.from_json", sp.Surface.from_json)
    make_diagram = tr.wrap("diagram.ChordDiagram", sp.ChordDiagram)
    parse_diagram = tr.wrap("diagram.ChordDiagram.parse", sp.ChordDiagram.parse)
    evaluate = tr.wrap("diagram.evaluate", sp.evaluate, count=count_arcs)
    canonical_diagram = tr.wrap("canonical.canonical_diagram", sp.canonical_diagram)
    all_canonical = tr.wrap("canonical.all_canonical_diagrams", sp.all_canonical_diagrams)
    cli_main = tr.wrap("cli.main", sp.cli.main)
    parsers = {"word": parse_word, "surface": parse_surface, "diagram": parse_diagram}

    def word(spec):
        w = make_word(json.loads(spec.text)) if spec.form == "json" else parse_word(spec.text)
        printed = str(w)
        return w, printed, parse_word(printed), make_word(json.loads(json.dumps(list(w.items))))

    def word_ok(spec, out):
        w, printed, back, via_json = out
        items = oracle.min_rotation(spec.labels)
        require(w.items == items, f"{spec.text!r} parsed to {w}")
        require(printed == ("( " + " ".join(items) + " )" if items else "( )"), f"{w} printed as {printed!r}")
        require(back == w and via_json == w, f"{w} did not round-trip")
        return 1

    def surface(spec):
        q = from_json(json.loads(spec.text)) if spec.form == "json" else parse_surface(spec.text)
        printed = str(q)
        every = all_canonical(q) if spec.every else None
        return q, printed, parse_surface(printed), from_json(json.loads(q.json())), canonical_diagram(q), every

    def surface_ok(spec, out):
        q, printed, back, via_json, canon, every = out
        want = oracle.canonical(spec.cycles, spec.genus)
        require(surface_key(q) == want, f"{spec.text!r} parsed to {q}")
        require(printed == oracle.surface_text(want), f"{q} printed as {printed!r}")
        require(back == q and via_json == q, f"{q} did not round-trip")
        canon_value = oracle.trace_faces(canon.diagram.base, canon.diagram.arcs)
        require(canon_value == want, f"canonical diagram of {q} is wrong")
        if every is not None:
            require(len(every) == oracle.presentation_count(want[0]), f"{len(every)} presentations of {q}")
            for expr in every:
                value = oracle.trace_faces(expr.diagram.base, expr.diagram.arcs)
                require(value == want, f"{expr.diagram} does not present {q}")
        return 1

    def diagram(spec):
        if spec.form == "json":
            data = json.loads(spec.text)
            d = make_diagram(data["base"], data["arcs"])
        else:
            d = parse_diagram(spec.text)
        printed = str(d)
        data = d.to_json()
        value = evaluate(d) if spec.evaluate else None
        return d, printed, parse_diagram(printed), make_diagram(data["base"], data["arcs"]), value

    def diagram_ok(spec, out):
        d, printed, back, via_json, value = out
        require(printed == oracle.diagram_text(spec.base, spec.arcs), f"{spec.text!r} printed as {printed!r}")
        require(back == d and via_json == d, f"{d} did not round-trip")
        if value is not None:
            require(surface_key(value) == oracle.trace_faces(spec.base, spec.arcs), f"{d} evaluated to {value}")
        return 1

    def malformed_ok(spec, out):
        status, result = out
        rejected = status == "raised" and isinstance(result, sp.ParseError)
        require(rejected, f"malformed {spec.text!r} gave {status} {result!r}")
        return 1

    def cli(spec):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(spec.argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def cli_ok(spec, out):
        code, stdout, stderr = out
        require(code == spec.code, f"{spec.argv} exited {code}, not {spec.code}: {stderr.strip()}")
        if spec.code in (1, 2):
            prefix = "parse error" if spec.code == 1 else "error:"
            require(stdout == "" and stderr.startswith(prefix), f"{spec.argv} wrote {stdout!r} / {stderr!r}")
        elif getattr(spec, "canon", False):
            base, arcs = oracle.parse_diagram_text(stdout.strip())
            require(oracle.trace_faces(base, arcs) == spec.expect, f"canon printed {stdout!r}")
        else:
            require(stdout == spec.expect + "\n", f"{spec.argv} printed {stdout!r}, not {spec.expect!r}")
        return 1

    handlers = {
        "word": (word, word_ok),
        "surface": (surface, surface_ok),
        "diagram": (diagram, diagram_ok),
        "cli": (cli, cli_ok),
    }
    for spec in specs:
        if spec.kind == "malformed":
            yield "malformed", partial(raises, parsers[spec.grammar], spec.text), partial(malformed_ok, spec)
        else:
            run, ok = handlers[spec.kind]
            yield spec.kind, partial(run, spec), partial(ok, spec)
