"""The parser parses as the one it replaced did: same trees, same errors.

``repro.xquery.parser`` holds the current token and climbs one
precedence table; ``tests/reference_parser/`` keeps the lexer and parser
it replaced (a peek per test, a function per precedence level, symbols
tried one by one).  Over a corpus of every query the repository writes
down, both must return equal ASTs, or raise the same error type with the
same message at the same line and column:

* every string literal in ``src/``, ``tests/``, ``examples/``,
  ``scripts/`` and ``bench/`` (queries, and much text that is not one);
* every query and query service of the generated scenario families the
  workloads and sweeps draw from;
* the ``unparse`` text of every tree parsed, and a few edge cases built
  here (nesting at and past the limit, chains of one-operator levels).

Then over seeded one-character mutants of that corpus: a character
deleted, inserted, replaced or doubled, the inserted ones drawn from the
characters the lexer treats specially; and over seeded string-literal
mutants, which insert quotes, doubled quotes and references (good, bad
and unterminated) inside a literal.  Tier-1 runs one mutant of each kind
per source; ``-m generated`` runs 60 per source.
"""

from __future__ import annotations

import ast
import cProfile
import importlib.util
import random
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

import reference_parser
from repro.errors import XQuerySyntaxError
from repro.workloads import (
    CHAOS_SPEC, FRAGMENTED_SPEC, WRITE_MIX_SPEC, ScenarioGenerator, ScenarioSpec,
)
from repro.xquery.ast import unparse
from repro.xquery.parser import MAX_NESTING, parse_expression, parse_query

ROOT = Path(__file__).resolve().parent.parent
LITERAL_DIRS = ("src", "tests", "examples", "scripts", "bench")
#: Longer literals are prose (docstrings), not queries.
LONGEST_LITERAL = 2_000
#: Characters a mutant may insert or substitute: every symbol character,
#: quotes, references, comment and variable marks, white space, a letter,
#: a digit and an exponent mark.
MUTANT_CHARS = "()[]{}<>/=!:;,.$@&#*+-|?\"' \n\tax1e_"
TIER1_MUTANTS_PER_SOURCE = 1
GENERATED_MUTANTS_PER_SOURCE = 60
#: What a string-literal mutant inserts inside a literal: lone and doubled
#: quotes of both kinds, references good, bad and unterminated, a lone
#: ``&``, and character references outside XML's Char.
STRING_EDITS = (
    '"', "'", '""', "''", '"""', "&amp;", "&lt;&gt;", "&quot;&apos;", "&#65;",
    "&#x42;", "&#0;", "&#xD800;", "&bogus;", "&amp", "&", "&;", "&#;", "&#x;",
    "&amp;&#10;\"\"''", "a&amp;b",
)


def _nested(levels: int) -> str:
    return "(" * (levels - 1) + "1" + ")" * (levels - 1)


EDGE_CASES = (
    _nested(MAX_NESTING),
    _nested(MAX_NESTING + 1),
    "<a>{" * (MAX_NESTING // 2 - 1) + "<a/>" + "}</a>" * (MAX_NESTING // 2 - 1),
    "<a>{" * (MAX_NESTING // 2) + "<a/>" + "}</a>" * (MAX_NESTING // 2),
    "<a>" * MAX_NESTING + "</a>" * MAX_NESTING,
    "-" * (2 * MAX_NESTING) + "1",
    "a = b = c", "1 to 2 to 3", "a or b = c = d", "a = b and c = d = e",
    "1 to 2 = 3", "1 = 2 to 3", "a < b < c", "a is b is c", "a eq b ne c",
    "1 + 2 - 3 * 4 div 5 idiv 6 mod 7 | a union b intersect c except d",
    "- + - 1 * -2", "a or b and c or d", "(1 to 3) = (2 to 4) and 1 lt 2",
    "1 +", "1 to", "a =", "a or", "or", "to", "(1, 2", "$x[", "/", "//",
    "/.", "//1", "<a>{1}'</a>", "<a>{1 1}</a>", "<a b='{1'/>", "element a",
    "element {1} 2", "text {}", "declare variable $x := 1 '",
    "declare variable $x 'unterminated", "declare function f($a) { $a }; f('",
    "for $x in 1 return", "if (1) then 2", "child::", "@", "a/@'",
    "some $x in (1, 2) satisfies $x = 1 = 2",
    '"a""b"', "'it''s'", "''''", '""""', '"&amp;&#65;&#x42;&lt;"', "'\"&apos;\"'",
    '"a&amp;b""c&#x41;"', '"unterminated &amp;', '"a""', '"&bogus;"', '"&"',
    '"&#0;"', "concat('a''', \"b\"\"\", 'c&amp;')",
)


# -- the corpus ------------------------------------------------------------------


def _literals():
    for directory in LITERAL_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if len(node.value) <= LONGEST_LITERAL:
                        yield node.value


def _bench_serve_spec() -> ScenarioSpec:
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.SERVE_SPEC


def _generated(scenarios):
    families = (
        ScenarioSpec(), FRAGMENTED_SPEC, WRITE_MIX_SPEC, CHAOS_SPEC,
        replace(_bench_serve_spec(), items=20),
    )
    for spec in families:
        for content_seed in (7, 11):
            generator = ScenarioGenerator(content_seed, spec)
            for index in scenarios:
                scenario = generator.scenario(index)
                yield from (query.source for query in scenario.queries)
                yield from (service.source for service in scenario.services)


@lru_cache(maxsize=None)
def corpus(scenarios: int = 4) -> tuple:
    """Distinct sources, in a fixed order, with the unparse text of each tree."""
    sources = dict.fromkeys(EDGE_CASES)
    sources.update(dict.fromkeys(_literals()))
    sources.update(dict.fromkeys(_generated(range(scenarios))))
    for source in list(sources):
        try:
            sources.setdefault(unparse(parse_query(source).body))
        except XQuerySyntaxError:  # the differential below compares it
            pass
    return tuple(sources)


def mutants(source: str, count: int):
    """``count`` seeded one-character edits of ``source``."""
    rng = random.Random(source)
    for _ in range(count):
        at = rng.randrange(len(source) + 1)
        edit = rng.randrange(4)
        if edit == 0 or not source:
            yield source[:at] + rng.choice(MUTANT_CHARS) + source[at:]
        elif at == len(source):
            yield source[:-1]
        elif edit == 1:
            yield source[:at] + source[at + 1:]
        elif edit == 2:
            yield source[:at] + rng.choice(MUTANT_CHARS) + source[at + 1:]
        else:
            yield source[:at] + source[at] + source[at:]


def string_mutants(source: str, count: int):
    """``count`` seeded edits inside string literals of ``source``: one
    of ``STRING_EDITS`` inserted between a quote and the next quote like
    it.  None for a source without quotes."""
    quotes = [at for at, char in enumerate(source) if char in "\"'"]
    if not quotes:
        return
    rng = random.Random("string " + source)
    for _ in range(count):
        opening = rng.choice(quotes)
        closing = source.find(source[opening], opening + 1)
        at = rng.randint(opening + 1, len(source) if closing < 0 else closing)
        yield source[:at] + rng.choice(STRING_EDITS) + source[at:]


# -- the comparison ----------------------------------------------------------------


def outcome(parse, source):
    """The tree, or the error as (type, message and position)."""
    try:
        return parse(source)
    except Exception as error:
        return (
            type(error).__name__, str(error),
            getattr(error, "line", None), getattr(error, "column", None),
        )


def disagreements(sources, entry_points=("query",)):
    parsers = {
        "query": (parse_query, reference_parser.parse_query),
        "expression": (parse_expression, reference_parser.parse_expression),
    }
    found = []
    for source in sources:
        for name in entry_points:
            new, old = parsers[name]
            mine, theirs = outcome(new, source), outcome(old, source)
            if mine != theirs:
                found.append((name, source, mine, theirs))
    return found


def _report(found) -> str:
    return "\n".join(
        f"{name} {source!r}:\n  new {mine!r}\n  old {theirs!r}"
        for name, source, mine, theirs in found[:10]
    )


def test_the_corpus_is_the_whole_repository():
    sources = corpus()
    parsed = [s for s in sources if not isinstance(outcome(parse_query, s), tuple)]
    # the workload queries alone are hundreds; most literals are not queries
    assert len(sources) > 3_000 and len(parsed) > 1_000
    generated = set(_generated(range(4)))
    assert len(generated) > 100 and generated <= set(sources)


def test_every_source_parses_as_before():
    found = disagreements(corpus(), ("query", "expression"))
    assert not found, _report(found)


def test_seeded_mutants_parse_as_before():
    sample = (m for source in corpus() for m in mutants(source, TIER1_MUTANTS_PER_SOURCE))
    found = disagreements(sample)
    assert not found, _report(found)


def test_seeded_string_mutants_parse_as_before():
    sample = [
        m for source in corpus() for m in string_mutants(source, TIER1_MUTANTS_PER_SOURCE)
    ]
    assert len(sample) > 500  # one per source holding a quote
    found = disagreements(sample)
    assert not found, _report(found)


@pytest.mark.generated
def test_many_seeded_mutants_parse_as_before():
    sources = corpus(scenarios=8)
    sample = (m for source in sources for m in mutants(source, GENERATED_MUTANTS_PER_SOURCE))
    found = disagreements(sample)
    assert not found, _report(found)


@pytest.mark.generated
def test_many_seeded_string_mutants_parse_as_before():
    sources = corpus(scenarios=8)
    sample = (
        m for source in sources for m in string_mutants(source, GENERATED_MUTANTS_PER_SOURCE)
    )
    found = disagreements(sample)
    assert not found, _report(found)


# -- what the new parser costs ------------------------------------------------------


def _frames_at_the_limit(parse) -> int:
    """The deepest stack, in frames, a parse at the nesting limit reaches."""
    deepest = 0

    def tracer(frame, event, arg):
        nonlocal deepest
        if event == "call":
            depth = 0
            while frame is not None:
                depth += 1
                frame = frame.f_back
            deepest = max(deepest, depth)

    start = len(_stack())
    sys.setprofile(tracer)
    try:
        parse(_nested(MAX_NESTING))
    finally:
        sys.setprofile(None)
    return deepest - start


def _stack():
    frames, frame = [], sys._getframe(1)
    while frame is not None:
        frames.append(frame)
        frame = frame.f_back
    return frames


def test_a_parse_at_the_limit_needs_fewer_frames_than_before():
    new, old = _frames_at_the_limit(parse_query), _frames_at_the_limit(reference_parser.parse_query)
    assert new < old
    assert new <= 7 * MAX_NESTING


@pytest.mark.perf
def test_a_parse_makes_at_most_450_calls():
    """cProfile's calls per ``parse_query`` over the 15 queries of
    ``ScenarioSpec()`` scenarios 0-2 at content 7 (the old parser made
    818): counted, not timed."""
    generator = ScenarioGenerator(7, ScenarioSpec())
    sources = [q.source for index in range(3) for q in generator.scenario(index).queries]
    assert len(sources) == 15
    profiler = cProfile.Profile()
    profiler.enable()
    for source in sources:
        parse_query(source)
    profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    assert calls / len(sources) <= 450
