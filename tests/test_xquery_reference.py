"""The evaluator's answers, pinned: a digest table of earlier evaluators'.

The compiled plan (:mod:`repro.xquery.evaluator`) replaced a tree walker
that evaluated the AST node by node.  Before the walker was deleted, both
ran every ``tests/test_xquery_*.py`` case, the whole tier-1 suite and the
generated sweeps, and agreed item for item, error for error and on the
order in which each run ranked its trees.  The rows up to
``constructed-sort`` are the walker's answers.  The ``flwor-*`` rows
were added later, before the FLWOR moved from one context per binding
tuple to columns of iterations: they are the answers of that
tuple-at-a-time closure plan, not the walker's.  Either way a bug the
optimized plan and the naive plan would share — the other differentials
compare the two — still shows here.

An outcome is described by :func:`describe` and reduced to a short
digest.  A node of an input tree is named by (tree, pre-order rank),
every other node by its serialization, and an atomic value by its type
and ``repr``.  A repeated node is named by its first occurrence, and an
error by its type and message.

``python tests/test_xquery_reference.py`` prints the table for the code
on the path.
"""

import hashlib
import json

import pytest

from repro.errors import DecompositionError, XQueryError
from repro.workloads import FRAGMENTED_SPEC, WRITE_MIX_SPEC, ScenarioGenerator, ScenarioSpec
from repro.xmlcore import Element, Text, parse, serialize
from repro.xquery import AttributeNode, Query, evaluate_query, push_selection

CATALOG = (
    '<catalog><item id="1" kind="a"><name>pen</name><price>5</price>'
    "<tag>x</tag><tag>y</tag></item>"
    '<item id="2" kind="b"><name>ink</name><price>20</price></item>'
    '<item id="3"><name>pad</name><price> 7 </price>'
    "<note>n<b>bold</b>t</note></item><item><name>pen</name></item></catalog>"
)
STOCK = (
    '<stock><row ref="2"><qty>4</qty><k>ink</k></row>'
    '<row ref="3"><qty>0</qty><k>pad</k></row>'
    '<row ref="9"><qty>1</qty><k>pen</k></row></stock>'
)

#: (case, query): ``$d`` is the catalog, ``$e`` the stock, the context
#: item the catalog's second ``item``, and ``doc("stock")`` the stock.
CASES = [
    ("arith", "(1 + 2 * 3, 7 div 2, 7 idiv 2, -7 mod 3, 2.5 * 2, 10 - 4.5)"),
    ("arith-node", "$d/item[1]/price + 1"),
    ("arith-empty", "() + 1"),
    ("arith-zero", "1 idiv 0"),
    ("arith-bool", "true() + 1"),
    ("arith-cast", '"a" + 1'),
    ("arith-many", "$d//price + 1"),
    ("unary", "(-(3), +4, -$d/item[2]/price)"),
    ("range", "(1 to 4, 3 to 1, count(1 to 0))"),
    ("sequence", "((1, 2), (), ('a', (3)))"),
    ("if", "if ($d//tag) then 'tags' else 'none'"),
    ("if-ebv-error", "if ((1, 2)) then 1 else 2"),
    ("some", "some $i in $d/item satisfies $i/price > 10"),
    ("every", "every $i in $d/item, $t in $i/tag satisfies $t = ('x', 'y')"),
    ("for-at", "for $i at $p in $d/item return ($p, string($i/name))"),
    ("let-where", "for $i in $d/item let $n := $i/name where $i/price >= 7 return $n"),
    ("order", "for $i in $d/item order by $i/name descending, $i/price return $i/@id"),
    ("order-empty", "for $i in $d/item order by $i/price return string($i/name)"),
    ("order-number", "for $i in $d/item order by number($i/price) descending return $i"),
    ("order-error", "for $i in $d/item order by $i/tag return $i"),
    ("nested-for", "for $i in $d/item, $t in $i/tag return concat($i/@id, $t)"),
    ("invariant", "for $a in (1, 2), $b in $e/row return ($a, $b/@ref)"),
    ("join", "for $i in $d/item, $r in $e/row where $i/@id = $r/@ref return ($i/name, $r/qty)"),
    ("join-flipped", "for $i in $d/item, $r in $e/row where $r/k = $i/name and $r/qty > 0 return $r"),
    ("join-numeric", "for $i in $d/item, $r in $e/row where number($i/@id) = $r/@ref return $r"),
    ("join-error", "for $i in $d/item, $r in $e/row where $i/tag = $r/k return $r"),
    ("join-many", "for $r in $e/row, $i in $d/item where $r/k = $i/name return ($r/@ref, $i/@id)"),
    ("join-order", "for $i in $d/item, $r in $e/row where $i/name = $r/k order by $r/qty return $i/@id"),
    ("child", "$d/item/name"),
    ("wildcard", "$d/item[1]/*"),
    ("descendant", "$d//b"),
    ("descendant-axis", "$d/descendant::tag"),
    ("descendant-or-self", "$d/item[3]/descendant-or-self::node()"),
    ("dslash-pred", "$d//name[. = 'pen']"),
    ("dslash-chain", "$d//item//text()"),
    ("self", "$d/item/self::item/@id"),
    ("parent", "$d//tag/.."),
    ("ancestors", "$d//b/ancestor::*"),
    ("ancestor-or-self", "$d//b/ancestor-or-self::node()"),
    ("attributes", "$d/item/@*"),
    ("attribute-parent", "$d/item/@kind/.."),
    ("attribute-ancestors", "$d/item[1]/@kind/ancestor-or-self::node()"),
    ("following", "$d/item[1]/following-sibling::item/@id"),
    ("preceding", "$d/item[3]/preceding-sibling::*"),
    ("kind-tests", "($d/item[3]/note/text(), $d/item[3]/note/node(), $d/item/element(name))"),
    ("element-any", "$d/item[2]/element()"),
    ("position", "$d/item[position() > 1][last()]"),
    ("number-pred", "($d/item[2], $d/item[2.5], $d/item[0], $d//tag[2])"),
    ("bool-pred", "$d/item[price][not(tag)]"),
    ("filter", "(5, 6, 7)[. > 5][1]"),
    ("filter-last", "$d/item[last()]/name"),
    ("expression-step", "$d/item/string(name)"),
    ("expression-nodes", "$d/item/(price | name)"),
    ("expression-mixed", "$d/item/(if (@id) then name else 1)"),
    ("expression-dedupe", "$d/item/(..)"),
    ("atomic-step", "(1, 2)/name"),
    ("rooted", "/catalog/item[1]/name"),
    ("rooted-all", "//price"),
    ("rooted-doc", "/"),
    ("rooted-self", "/self::node()"),
    ("relative", "name"),
    ("context", "(., ./@id, ../item[1] is ..)"),
    ("union", "($d//tag | $d//name) except $d/item[1]/*"),
    ("intersect", "$d//name intersect $d/item[2]/*"),
    ("union-atomic", "$d//tag | 1"),
    ("cross-tree", "($e/row | $d/item)[1]"),
    ("rank-by-step", "(count($d/item), $e | $d)"),
    ("rank-by-rooted-path", "(count(//zz), $e | $d)"),
    ("general", "($d//price > 6, $d//price = '20', $d//tag != 'x', 'a' < 'b')"),
    ("general-nan", "($d//name > -1, $d//name = 0, $d//name != 0)"),
    ("general-bool", "(true() = 1)"),
    ("general-string", "$d//price > 'a'"),
    ("value", "($d/item[1]/price eq '5', 1 lt 2, () eq 1)"),
    ("value-many", "$d//price eq 5"),
    ("node-order", "($d/item[1] << $d/item[2], $d/item[1] >> $d/item[2], $d/item[1] is $d/item[1])"),
    ("node-order-error", "$d/item << 1"),
    ("strings", "(concat('a', 1, ()), contains('abc', 'b'), starts-with('abc', 'a'), "
        "ends-with('abc', 'c'), substring('hello', 2, 3), substring-before('a-b', '-'), "
        "substring-after('a-b', '-'), string-length('four'), normalize-space('  a  b '), "
        "upper-case('a'), lower-case('B'), translate('abc', 'ab', 'x'))"),
    ("regex", "(matches('abc', '^a'), replace('a1b2', '[0-9]', '#'), tokenize('a,b,,c', ','))"),
    ("aggregates", "(count($d/item), sum($d//price), avg($d//price), min($d//price), max($d//name))"),
    ("sequences", "(distinct-values($d//name), reverse(1 to 3), subsequence(1 to 5, 2, 2), "
        "index-of(('a', 'b', 'a'), 'a'), insert-before((1, 2), 2, 9), remove((1, 2, 3), 2), "
        "head($d/item)/@id, tail(1 to 3))"),
    ("cardinality", "(exists($d/x), empty($d/x), zero-or-one($d/item[1]), one-or-more(1), exactly-one(2))"),
    ("cardinality-error", "exactly-one($d/item)"),
    ("booleans", "(not($d/x), boolean('a'), true(), false(), fn:true())"),
    ("numbers", "(number('12'), number('x'), abs(-2), floor(2.5), ceiling(2.1), round(2.5))"),
    ("names", "(name($d/item[1]), local-name($d), string($d/item[2]), data($d/item[1]/@id))"),
    ("root", "root($d//b) is $d"),
    ("string-join", "string-join($d//name, '/')"),
    ("doc", "doc('stock')/row[qty > 0]/@ref"),
    ("position-outside", "position()"),
    ("unknown-function", "nope(1, $d)"),
    ("unbound", "$nothing"),
    ("declared", "declare function local:total($i) { sum($i/price) };\n"
        "for $i in $d/item return local:total($i)"),
    ("declared-recursion", "declare function local:f($n) { if ($n = 0) then 0 else local:f($n - 1) };\n"
        "local:f(20)"),
    ("declared-source", "declare function local:t() { <t/> };\nfor $a in (1, 2), $b in local:t() return $b"),
    ("prolog-variable", "declare variable $k := 2;\n$d/item[$k]/name"),
    ("external-unbound", "declare variable $x external;\n$x"),
    ("direct", '<r n="{count($d/item)}" fixed="a{{b}}">text {$d/item[1]/name} {1, 2}<s/>{$d/item[1]/@id}</r>'),
    ("direct-nested", "<list>{for $i in $d/item return <entry id=\"{$i/@id}\">{string($i/name)}</entry>}</list>"),
    ("computed", "(element {concat('e', 1)} {$d/item[1]/name, 'x'}, "
        "attribute a {1, 2}, text {'t', 3}, element e {}, text {})"),
    ("computed-name-error", "element {()} {1}"),
    ("constructed-identity", "let $x := <a><b/></a> return ($x/b, $x/b is $x/b, $x | $x)"),
    ("constructed-sort", "let $x := <a/>, $y := <b/> return ($y | $x)"),
    ("flwor-where-missing", "for $i in $d/item where $i/qty > 0 return $i/name"),
    ("flwor-where-text", "for $i in $d/item where $i/name > 0 or $i/name = 'ink' return $i/@id"),
    ("flwor-let-empty", "for $i in $d/item let $z := $i/zz, $n := $i/name return ($z, $n, count($z))"),
    ("flwor-construct", "for $i in $d/item return <hit>{$i/name/text()}</hit>"),
    ("flwor-mixed-text", "for $i in $d/item return $i/note/text()"),
    ("flwor-atomic-source", "for $x in (1, 2) return $x/name"),
    ("flwor-two-trees", "for $x in ($e/row, $d/item) return ($x/k | $x/name)"),
    ("flwor-join-duplicates", "for $i in $d/item, $j in $d/item where $i/name = $j/name return ($i/@id, $j/price)"),
    ("flwor-where-order", "for $i in $d/item where $i/price > 4 order by $i/price descending return $i/name"),
    ("flwor-at", "for $t at $p in $d//tag, $r at $q in $e/row where $p = $q return ($p, $t, $r/k)"),
    ("flwor-order-errors", "for $x in ($d/item, 1) order by $x/tag return $x"),
    ("flwor-where-errors", "for $x in ($d/item, 1) where if ($x = 1) then $x/name else (1, 2) return $x"),
]


def describe(items, inputs):
    """``items`` as JSON-able values (see the module docstring)."""
    ranks = {}
    for tree, root in enumerate(inputs):
        stack = [root]
        rank = 0
        while stack:
            node = stack.pop()
            ranks[id(node)] = (tree, rank)
            rank += 1
            if isinstance(node, Element):
                stack.extend(reversed(node.children))
    seen = {}
    out = []
    for item in items:
        if not isinstance(item, (Element, Text, AttributeNode)):
            out.append([type(item).__name__, repr(item)])
            continue
        first = seen.setdefault(id(item), len(seen))
        if isinstance(item, AttributeNode):
            owner = ranks.get(id(item.owner)) if item.owner is not None else None
            out.append([first, "@" + item.name, item.value, owner])
        elif id(item) in ranks:
            out.append([first, ranks[id(item)]])
        else:
            text = item.value if isinstance(item, Text) else serialize(item)
            out.append([first, type(item).__name__, text])
    return out


def outcome(run, inputs):
    """What ``run()`` returns, described, or the error it raises."""
    try:
        return describe(run(), inputs)
    except XQueryError as error:
        return [type(error).__name__, str(error)]


def digest(value):
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()[:12]


def case_outcome(source):
    catalog, stock = parse(CATALOG), parse(STOCK)
    context = catalog.children[1]
    return outcome(
        lambda: evaluate_query(
            source, variables={"d": [catalog], "e": [stock]}, context_item=context,
            doc_resolver={"stock": stock}.__getitem__,
        ),
        [catalog, stock],
    )


def _document(scenario, target):
    """The tree a ``name@peer`` / ``generic@any`` / ``name@dist`` binding
    names: the home copy of the document."""
    name = target.split("@")[0]
    doc = next(d for d in scenario.documents if name in (d.name, d.generic))
    return scenario.system.peer(doc.peer).document(doc.name)


def scenario_outcomes(spec, seed, count=3):
    """Every query, rule (11) split and service body of the first
    ``count`` scenarios, run directly on the documents it reads."""
    outcomes = []
    for index in range(count):
        scenario = ScenarioGenerator(seed, spec).scenario(index)
        for generated in scenario.queries:
            params = tuple(name for name, _ in generated.bind)
            trees = [_document(scenario, target) for _, target in generated.bind]
            query = Query(generated.source, params=params, name=generated.name)
            outcomes.append(outcome(lambda: query.run(*trees), trees))
            try:
                split = push_selection(query)
            except DecompositionError as refusal:
                outcomes.append(str(refusal))
                continue
            envelope = split.inner.run(*trees)
            outcomes.append(describe(envelope, trees))
            outcomes.append(outcome(lambda: split.outer.run(*envelope, *trees[1:]), trees))
        for service in scenario.services:
            peer = scenario.system.peer(service.peer)
            query = Query(service.source, doc_resolver=peer.document)
            documents = [peer.document(name) for name in sorted(peer.documents)]
            outcomes.append(outcome(query.run, documents))
    return outcomes


FAMILIES = {
    "default": ScenarioSpec(),
    "fragmented": FRAGMENTED_SPEC,
    "write-mix": WRITE_MIX_SPEC,
}

#: The walker's answers (and, for ``flwor-*``, the tuple-at-a-time
#: closure plan's): case -> digest of its outcome.
EXPECTED = {
    'arith': 'ed5ed0095ecb',
    'arith-node': '65477d2f05cf',
    'arith-empty': '4f53cda18c2b',
    'arith-zero': '8db515ade9d1',
    'arith-bool': 'b4b085d1e5f3',
    'arith-cast': '04ed210bbff2',
    'arith-many': '3c8cb6f782aa',
    'unary': 'b80f5136ffcc',
    'range': 'dc010f1b1c52',
    'sequence': '2b6b411a5fa1',
    'if': 'a42d837e0e14',
    'if-ebv-error': 'ea5f63a46579',
    'some': 'a1f217971d89',
    'every': 'a1f217971d89',
    'for-at': '3b08008636fd',
    'let-where': '25a6b36a1fee',
    'order': '2149c6f0576c',
    'order-empty': 'f6b4558ea92a',
    'order-number': '3ccf216402a2',
    'order-error': '22b7dfb2382c',
    'nested-for': '81cd8728e833',
    'invariant': 'a66f612ad108',
    'join': '6088c07bd2c6',
    'join-flipped': 'c30db4fab41d',
    'join-numeric': '51412eb9c247',
    'join-error': '4f53cda18c2b',
    'join-many': '7f7ca5adf77c',
    'join-order': '6db30703f7ec',
    'child': '3dfcd3ec184a',
    'wildcard': 'c20713c2e62d',
    'descendant': 'f897beffda2d',
    'descendant-axis': '524fc51de791',
    'descendant-or-self': 'f517ca762a65',
    'dslash-pred': '5577df7b9d06',
    'dslash-chain': '369d3fa87d54',
    'self': 'c78695688385',
    'parent': 'e9dd6871fdeb',
    'ancestors': '5d8d1e7ff064',
    'ancestor-or-self': '87a21e735d84',
    'attributes': '891e2a075543',
    'attribute-parent': 'faf4dfbb1148',
    'attribute-ancestors': '5cfe14ae0a0f',
    'following': '885ef0c1564e',
    'preceding': 'faf4dfbb1148',
    'kind-tests': '5d2f89ade798',
    'element-any': 'c96e9fa0b244',
    'position': '890ae6d4c6f3',
    'number-pred': '4df9e6b1d070',
    'bool-pred': 'f84e78037e54',
    'filter': '65477d2f05cf',
    'filter-last': 'bee545711b7b',
    'expression-step': 'b38915ee0857',
    'expression-nodes': '9b0bdaa2f86b',
    'expression-mixed': '2ea38f1bee77',
    'expression-dedupe': '75587d218c8b',
    'atomic-step': 'ca352bd9d2cc',
    'rooted': 'b27bb5c746d3',
    'rooted-all': 'eda0aa9362d2',
    'rooted-doc': '75587d218c8b',
    'rooted-self': 'b253e73bde23',
    'relative': '584552797af3',
    'context': '759ce8257c83',
    'union': 'a482da8486c4',
    'intersect': '584552797af3',
    'union-atomic': '3227cde3f12e',
    'cross-tree': '7f99564ea9e5',
    'rank-by-step': '292f51cb0814',
    'rank-by-rooted-path': '94c906f2ff0e',
    'general': '6b6abaa672b1',
    'general-nan': '7cf2a5c9b15e',
    'general-bool': '376001e9ffba',
    'general-string': '99ed5e38bf00',
    'value': 'b23968097b9e',
    'value-many': '891231a36671',
    'node-order': 'be04e45bea70',
    'node-order-error': 'd719272c3f85',
    'strings': '52977fd4088d',
    'regex': '113b29e3e0c0',
    'aggregates': 'bf3630058e41',
    'sequences': 'da739d90576c',
    'cardinality': 'da219e05617a',
    'cardinality-error': '48af829b61b7',
    'booleans': '309399da7800',
    'numbers': '58f7b27fe53f',
    'names': '68c8a9799262',
    'root': 'a1f217971d89',
    'string-join': '559934637f43',
    'doc': 'da9d1857cf5c',
    'position-outside': '73ae4cd0d1a5',
    'unknown-function': '06929833d276',
    'unbound': 'd376a9a9388b',
    'declared': 'b3b38d3f2912',
    'declared-recursion': '80c6f55fdfe9',
    'declared-source': '70ac514ac61a',
    'prolog-variable': '584552797af3',
    'external-unbound': 'c77b15249180',
    'direct': '4703a7c6a5e3',
    'direct-nested': 'f6e6c0d31423',
    'computed': '04ddf6d0948b',
    'computed-name-error': '9fb38c951f07',
    'constructed-identity': 'ea3cf1ae0547',
    'constructed-sort': 'ea77d65c12d3',
    'flwor-where-missing': '4f53cda18c2b',
    'flwor-where-text': 'b85d7d0dc6de',
    'flwor-let-empty': '3ee1115e0031',
    'flwor-construct': 'b9990783c901',
    'flwor-mixed-text': '5e03fd1d609e',
    'flwor-atomic-source': 'ca352bd9d2cc',
    'flwor-two-trees': 'b4d94d50a495',
    'flwor-join-duplicates': 'fadda581440e',
    'flwor-where-order': 'b533f19d4042',
    'flwor-at': '986dbd5b156c',
    'flwor-order-errors': '22b7dfb2382c',
    'flwor-where-errors': 'ea5f63a46579',
}

#: The walker's answers on generated scenarios: family/seed -> digest.
EXPECTED_GENERATED = {
    'default/7': 'bdc3547154a5',
    'default/11': '950fe42fb031',
    'fragmented/7': '609adfb626c6',
    'fragmented/11': 'faa3f629d487',
    'write-mix/7': '17bfc07c155a',
    'write-mix/11': '6bfbc5db5c9a',
}


def test_every_case_is_pinned():
    assert [case for case, _ in CASES] == list(EXPECTED)
    assert len(set(EXPECTED)) == len(CASES)


@pytest.mark.parametrize("case,source", CASES, ids=[case for case, _ in CASES])
def test_case_matches_the_walker(case, source):
    assert digest(case_outcome(source)) == EXPECTED[case], case_outcome(source)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", (7, 11))
def test_generated_scenarios_match_the_walker(family, seed):
    found = digest(scenario_outcomes(FAMILIES[family], seed))
    assert found == EXPECTED_GENERATED[f"{family}/{seed}"]


if __name__ == "__main__":
    print("EXPECTED = {")
    for case, source in CASES:
        print(f"    {case!r}: {digest(case_outcome(source))!r},")
    print("}\n\nEXPECTED_GENERATED = {")
    for family, spec in FAMILIES.items():
        for seed in (7, 11):
            print(f"    '{family}/{seed}': {digest(scenario_outcomes(spec, seed))!r},")
    print("}")
