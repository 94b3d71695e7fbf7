"""XML's lexical rules, shared by the XML parser and the XQuery front end.

The name rule is checked on every code point against the predicates the
three readers used before they shared one (kept here verbatim as the
reference), and every reader is fed random hostile text: whatever it
makes of it, nothing but a :class:`ReproError` may escape.
"""

import random

from repro.errors import ReproError
from repro.xmlcore import parse
from repro.xmlcore.parser import name_end
from repro.xquery import Query, parse_query, unparse

# -- the reference: each reader's name predicates before they were shared ----
# repro.xmlcore.parser (XML's Name)
_NAME_START_EXTRA = frozenset("_:")
_NAME_EXTRA = frozenset("_:-.")


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


# repro.xquery.tokens (NCName, the parts of a QName)
def _is_ncname_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ncname_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_-."


# repro.xquery.parser's direct-constructor scanner, for every character of a name
def _is_direct_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_-.:"


def test_name_rule_matches_the_reference_on_every_code_point():
    chars = [chr(code) for code in range(0x110000)]
    after_a = ["a" + ch for ch in chars]
    at = [0] * len(chars)
    no_colons = [False] * len(chars)
    starts = list(map(_is_name_start, chars))
    assert list(map(name_end, chars, at)) == starts
    assert list(map(name_end, chars, at, no_colons)) == list(map(_is_ncname_start, chars))
    rest = [1 + is_char for is_char in map(_is_name_char, chars)]
    assert list(map(name_end, after_a, at)) == rest
    assert list(map(name_end, after_a, at, no_colons)) == [
        1 + is_char for is_char in map(_is_ncname_char, chars)
    ]
    # direct-constructor names now follow Name: the one difference is that
    # they can no longer start with a digit, "-" or "."
    direct = list(map(_is_direct_name_char, chars))
    assert [ch for ch, d, s in zip(chars, direct, starts) if d != s] == [
        ch for ch in chars if (ch.isalnum() and not ch.isalpha()) or ch in "-."
    ]
    assert [1 + d for d in direct] == rest


_PIECES = list("<>/\"'{}&;#x") + [
    "0", "1", "9", "a", "b", "e", "F", "1e", "&amp;", "&#x", "element ", "(:",
    " ", "+", "-", "$", "=",
]


def test_hostile_text_raises_only_typed_errors():
    rng = random.Random(0)
    failures = []

    def attempt(what, call, argument):
        try:
            return call(argument)
        except ReproError:
            return None
        except Exception as exc:  # the property under test
            failures.append((what, argument, repr(exc)))
            return None

    for _ in range(5000):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(1, 8)))
        module = attempt("parse_query", parse_query, text)
        if module is not None:
            # unparse writes what parse_query reads back to the same module
            if attempt("unparse", lambda m: parse_query(unparse(m)), module) != module:
                failures.append(("round trip", text, unparse(module)))
            attempt("Query.run", lambda source: Query(source).run(), text)
        for document in (f"<a>{text}</a>", f"<a b='{text}'/>"):
            attempt("xmlcore.parse", lambda d: parse(d).serialized_size(), document)
    assert failures == []
