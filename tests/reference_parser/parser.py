"""Recursive-descent parser for the XQuery subset.

Handles an optional prolog
(``declare variable`` / ``declare function``), FLWOR expressions,
quantified and conditional expressions, full operator precedence, path
expressions with nine axes, postfix filters, function calls, and both
direct (``<a>{...}</a>``) and computed constructors.

XQuery keywords are not reserved, so the parser decides from *position*
whether a name is a keyword, an operator, or a name test — the lexer emits
plain NAME tokens throughout (see :mod:`repro.xquery.tokens`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.errors import XQuerySyntaxError
from repro.xmlcore.parser import name_end, read_reference
from repro.xquery.ast import (
    BinaryOp, ComparisonOp, ComputedAttribute, ComputedElement, ComputedText,
    ContextItem, DirectAttribute, DirectElement, EnclosedExpr, FilterExpr,
    FLWORExpr, ForClause, FunctionCall, FunctionDecl, IfExpr, KindTest,
    LetClause, Literal, Module, NameTest, OrderSpec, PathExpr, Predicate,
    QuantifiedExpr, RangeExpr, Sequence, Step, UnaryOp, VarDecl, VarRef,
    XQNode,
)
from .tokens import Lexer, Token, TokenType

__all__ = ["MAX_NESTING", "parse_query", "parse_expression"]

#: How deep expressions (and direct element constructors) may nest.  The
#: parser recurses about 16 frames per level, so a parse at this limit
#: needs about 520 frames: room under Python's default limit of 1 000 is
#: left for a caller already deep in a plan search or an evaluation.
MAX_NESTING = 32

_GENERAL_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}
_VALUE_COMPARISONS = {"eq", "ne", "lt", "le", "gt", "ge"}
_NODE_COMPARISONS = {"is", "<<", ">>"}

_AXES = {
    "child", "descendant", "self", "descendant-or-self", "parent",
    "ancestor", "ancestor-or-self", "attribute",
    "following-sibling", "preceding-sibling",
}

_KIND_TESTS = {"text", "node", "element"}

# Names that, followed by '(', are expression syntax rather than calls.
_RESERVED_FUNCTION_NAMES = {"if", "text", "node", "element"}


class _Parser:
    def __init__(self, source: str) -> None:
        self.lexer = Lexer(source)
        #: Open expressions and constructors (see :data:`MAX_NESTING`).
        self.depth = 0

    def _nest(self, pos: int) -> None:
        """Enter one more level of nesting, at source offset ``pos``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.lexer.error(
                f"query nests deeper than the limit of {MAX_NESTING} levels", pos
            )

    # -- token helpers -------------------------------------------------------
    def _peek(self, ahead: int = 0) -> Token:
        return self.lexer.peek(ahead)

    def _next(self) -> Token:
        return self.lexer.next()

    def _expect_symbol(self, symbol: str) -> Token:
        token = self._next()
        if not token.is_symbol(symbol):
            raise self._error(f"expected {symbol!r}, found {token.value!r}", token)
        return token

    def _expect_name(self, *names: str) -> Token:
        token = self._next()
        if token.type != TokenType.NAME or (names and token.value not in names):
            expected = " or ".join(repr(n) for n in names) or "a name"
            raise self._error(f"expected {expected}, found {token.value!r}", token)
        return token

    def _expect_variable(self) -> str:
        token = self._next()
        if token.type != TokenType.VARIABLE:
            raise self._error(f"expected a variable, found {token.value!r}", token)
        return token.value

    def _error(self, message: str, token: Optional[Token] = None) -> XQuerySyntaxError:
        if token is not None:
            return XQuerySyntaxError(message, token.line, token.column)
        return self.lexer.error(message)

    # -- module / prolog -------------------------------------------------------
    def parse_module(self) -> Module:
        variables: List[VarDecl] = []
        functions: List[FunctionDecl] = []
        while self._peek().is_name("declare"):
            self._next()
            kind = self._expect_name("variable", "function")
            if kind.value == "variable":
                variables.append(self._parse_var_decl())
            else:
                functions.append(self._parse_function_decl())
        body = self.parse_expr()
        token = self._peek()
        if token.type != TokenType.EOF:
            raise self._error(f"unexpected trailing input {token.value!r}", token)
        return Module(tuple(variables), tuple(functions), body)

    def _parse_var_decl(self) -> VarDecl:
        name = self._expect_variable()
        token = self._next()
        if token.is_name("external"):
            value: Optional[XQNode] = None
        elif token.is_symbol(":="):
            value = self.parse_expr_single()
        else:
            raise self._error("expected 'external' or ':=' in variable declaration", token)
        self._expect_symbol(";")
        return VarDecl(name, value)

    def _parse_function_decl(self) -> FunctionDecl:
        name_token = self._next()
        if name_token.type != TokenType.NAME:
            raise self._error("expected function name", name_token)
        self._expect_symbol("(")
        params: List[str] = []
        if not self._peek().is_symbol(")"):
            params.append(self._expect_variable())
            while self._peek().is_symbol(","):
                self._next()
                params.append(self._expect_variable())
        self._expect_symbol(")")
        self._expect_symbol("{")
        body = self.parse_expr()
        self._expect_symbol("}")
        self._expect_symbol(";")
        return FunctionDecl(name_token.value, tuple(params), body)

    # -- expressions -------------------------------------------------------------
    def parse_expr(self) -> XQNode:
        """Expr ::= ExprSingle ("," ExprSingle)*"""
        first = self.parse_expr_single()
        if not self._peek().is_symbol(","):
            return first
        items = [first]
        while self._peek().is_symbol(","):
            self._next()
            items.append(self.parse_expr_single())
        return Sequence(tuple(items))

    def parse_expr_single(self) -> XQNode:
        token = self._peek()
        self._nest(token.pos)
        if token.is_name("for", "let") and self._peek(1).type == TokenType.VARIABLE:
            expr: XQNode = self._parse_flwor()
        elif token.is_name("some", "every") and self._peek(1).type == TokenType.VARIABLE:
            expr = self._parse_quantified()
        elif token.is_name("if") and self._peek(1).is_symbol("("):
            expr = self._parse_if()
        else:
            expr = self._parse_or()
        self.depth -= 1
        return expr

    # -- FLWOR ---------------------------------------------------------------------
    def _parse_flwor(self) -> FLWORExpr:
        clauses: List[Union[ForClause, LetClause]] = []
        while True:
            token = self._peek()
            if token.is_name("for") and self._peek(1).type == TokenType.VARIABLE:
                self._next()
                clauses.extend(self._parse_for_bindings())
            elif token.is_name("let") and self._peek(1).type == TokenType.VARIABLE:
                self._next()
                clauses.extend(self._parse_let_bindings())
            else:
                break
        where = None
        if self._peek().is_name("where"):
            self._next()
            where = self.parse_expr_single()
        order_by: List[OrderSpec] = []
        if self._peek().is_name("order"):
            self._next()
            self._expect_name("by")
            order_by.append(self._parse_order_spec())
            while self._peek().is_symbol(","):
                self._next()
                order_by.append(self._parse_order_spec())
        self._expect_name("return")
        return_expr = self.parse_expr_single()
        return FLWORExpr(tuple(clauses), where, tuple(order_by), return_expr)

    def _parse_for_bindings(self) -> List[ForClause]:
        bindings = [self._parse_one_for()]
        while self._peek().is_symbol(","):
            self._next()
            bindings.append(self._parse_one_for())
        return bindings

    def _parse_one_for(self) -> ForClause:
        variable = self._expect_variable()
        position_variable = None
        if self._peek().is_name("at"):
            self._next()
            position_variable = self._expect_variable()
        self._expect_name("in")
        source = self.parse_expr_single()
        return ForClause(variable, source, position_variable)

    def _parse_let_bindings(self) -> List[LetClause]:
        bindings = [self._parse_one_let()]
        while self._peek().is_symbol(","):
            self._next()
            bindings.append(self._parse_one_let())
        return bindings

    def _parse_one_let(self) -> LetClause:
        variable = self._expect_variable()
        self._expect_symbol(":=")
        return LetClause(variable, self.parse_expr_single())

    def _parse_order_spec(self) -> OrderSpec:
        key = self.parse_expr_single()
        descending = False
        if self._peek().is_name("ascending", "descending"):
            descending = self._next().value == "descending"
        return OrderSpec(key, descending)

    def _parse_quantified(self) -> QuantifiedExpr:
        quantifier = self._next().value
        bindings: List[Tuple[str, XQNode]] = []
        while True:
            variable = self._expect_variable()
            self._expect_name("in")
            bindings.append((variable, self.parse_expr_single()))
            if self._peek().is_symbol(","):
                self._next()
                continue
            break
        self._expect_name("satisfies")
        condition = self.parse_expr_single()
        return QuantifiedExpr(quantifier, tuple(bindings), condition)

    def _parse_if(self) -> IfExpr:
        self._next()  # 'if'
        self._expect_symbol("(")
        condition = self.parse_expr()
        self._expect_symbol(")")
        self._expect_name("then")
        then_branch = self.parse_expr_single()
        self._expect_name("else")
        else_branch = self.parse_expr_single()
        return IfExpr(condition, then_branch, else_branch)

    # -- operator precedence ladder ------------------------------------------------
    def _parse_or(self) -> XQNode:
        left = self._parse_and()
        while self._peek().is_name("or"):
            self._next()
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> XQNode:
        left = self._parse_comparison()
        while self._peek().is_name("and"):
            self._next()
            left = BinaryOp("and", left, self._parse_comparison())
        return left

    def _parse_comparison(self) -> XQNode:
        left = self._parse_range()
        token = self._peek()
        op = None
        if token.type == TokenType.SYMBOL and token.value in (
            _GENERAL_COMPARISONS | _NODE_COMPARISONS
        ):
            op = token.value
        elif token.type == TokenType.NAME and token.value in (
            _VALUE_COMPARISONS | {"is"}
        ):
            op = token.value
        if op is None:
            return left
        self._next()
        return ComparisonOp(op, left, self._parse_range())

    def _parse_range(self) -> XQNode:
        left = self._parse_additive()
        if self._peek().is_name("to"):
            self._next()
            return RangeExpr(left, self._parse_additive())
        return left

    def _parse_additive(self) -> XQNode:
        left = self._parse_multiplicative()
        while self._peek().is_symbol("+", "-"):
            op = self._next().value
            left = BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> XQNode:
        left = self._parse_union()
        while True:
            token = self._peek()
            if token.is_symbol("*"):
                op = "*"
            elif token.is_name("div", "idiv", "mod"):
                op = token.value
            else:
                return left
            self._next()
            left = BinaryOp(op, left, self._parse_union())

    def _parse_union(self) -> XQNode:
        left = self._parse_intersect()
        while self._peek().is_symbol("|") or self._peek().is_name("union"):
            self._next()
            left = BinaryOp("union", left, self._parse_intersect())
        return left

    def _parse_intersect(self) -> XQNode:
        left = self._parse_unary()
        while self._peek().is_name("intersect", "except"):
            op = self._next().value
            left = BinaryOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> XQNode:
        signs: List[str] = []
        while self._peek().is_symbol("-", "+"):
            signs.append(self._next().value)
        node = self._parse_path()
        for sign in reversed(signs):
            node = UnaryOp(sign, node)
        return node

    # -- paths -------------------------------------------------------------------
    def _parse_path(self) -> XQNode:
        token = self._peek()
        if token.is_symbol("/"):
            self._next()
            if self._starts_step():
                steps = self._parse_relative_steps()
                return PathExpr(None, tuple(steps), from_root=True)
            return PathExpr(None, (), from_root=True)
        if token.is_symbol("//"):
            self._next()
            steps = [Step("descendant-or-self", KindTest("node"))]
            steps.extend(self._parse_relative_steps())
            return PathExpr(None, tuple(steps), from_root=True)
        return self._parse_relative_path()

    def _parse_relative_steps(self) -> List[Step]:
        """Steps of a rooted path ('/a/b'); every segment must be a step."""
        steps: List[Step] = []
        first = self._parse_step_expr()
        if not isinstance(first, Step):
            raise self._error("a rooted path must start with an axis step")
        steps.append(first)
        while self._peek().is_symbol("/", "//"):
            if self._next().value == "//":
                steps.append(Step("descendant-or-self", KindTest("node")))
            steps.append(self._parse_step_expr())
        return steps

    def _parse_relative_path(self) -> XQNode:
        first = self._parse_step_expr()
        if not self._peek().is_symbol("/", "//"):
            if isinstance(first, Step):
                return PathExpr(None, (first,), from_root=False)
            return first
        steps: List[XQNode] = []
        start: Optional[XQNode]
        if isinstance(first, Step):
            start = None
            steps.append(first)
        else:
            start = first
        while self._peek().is_symbol("/", "//"):
            if self._next().value == "//":
                steps.append(Step("descendant-or-self", KindTest("node")))
            steps.append(self._parse_step_expr())
        return PathExpr(start, tuple(steps), from_root=False)

    def _starts_step(self) -> bool:
        """Can the upcoming token begin a path step?"""
        token = self._peek()
        if token.type == TokenType.NAME:
            return True
        return token.is_symbol("@", "..", "*", ".")

    def _parse_step_expr(self) -> Union[Step, XQNode]:
        """Either an axis step (returned as Step) or a postfix expression."""
        token = self._peek()

        # attribute abbreviation
        if token.is_symbol("@"):
            self._next()
            test = self._parse_node_test()
            return Step("attribute", test, self._parse_predicates())
        # parent abbreviation
        if token.is_symbol(".."):
            self._next()
            return Step("parent", KindTest("node"), self._parse_predicates())
        # wildcard child step
        if token.is_symbol("*"):
            self._next()
            return Step("child", NameTest("*"), self._parse_predicates())

        if token.type == TokenType.NAME:
            # explicit axis
            if token.value in _AXES and self._peek(1).is_symbol("::"):
                self._next()
                self._next()
                test = self._parse_node_test()
                return Step(token.value, test, self._parse_predicates())
            # kind test in step position: text() / node() / element(...)
            if token.value in _KIND_TESTS and self._peek(1).is_symbol("("):
                test = self._parse_node_test()
                return Step("child", test, self._parse_predicates())
            # function call is a primary, not a step
            if self._peek(1).is_symbol("("):
                return self._parse_postfix()
            # computed constructors are primaries
            if token.value in ("element", "attribute") and (
                self._peek(1).type == TokenType.NAME
                or self._peek(1).is_symbol("{")
            ):
                return self._parse_postfix()
            if token.value == "text" and self._peek(1).is_symbol("{"):
                return self._parse_postfix()
            # plain name test (child axis)
            self._next()
            return Step("child", NameTest(token.value), self._parse_predicates())

        return self._parse_postfix()

    def _parse_node_test(self):
        token = self._next()
        if token.is_symbol("*"):
            return NameTest("*")
        if token.type != TokenType.NAME:
            raise self._error(f"expected a node test, found {token.value!r}", token)
        if token.value in _KIND_TESTS and self._peek().is_symbol("("):
            self._next()
            name = None
            if self._peek().type == TokenType.NAME:
                name = self._next().value
            elif self._peek().is_symbol("*"):
                self._next()
                name = None
            self._expect_symbol(")")
            return KindTest(token.value, name)
        return NameTest(token.value)

    def _parse_predicates(self) -> Tuple[Predicate, ...]:
        predicates: List[Predicate] = []
        while self._peek().is_symbol("["):
            self._next()
            predicates.append(Predicate(self.parse_expr()))
            self._expect_symbol("]")
        return tuple(predicates)

    # -- postfix / primary ----------------------------------------------------------
    def _parse_postfix(self) -> XQNode:
        primary = self._parse_primary()
        predicates = self._parse_predicates()
        if predicates:
            return FilterExpr(primary, predicates)
        return primary

    def _parse_primary(self) -> XQNode:
        token = self._peek()

        if token.type == TokenType.STRING:
            self._next()
            return Literal(token.value)
        if token.type == TokenType.INTEGER:
            self._next()
            return Literal(int(token.value))
        if token.type == TokenType.DECIMAL:
            self._next()
            return Literal(float(token.value))
        if token.type == TokenType.VARIABLE:
            self._next()
            return VarRef(token.value)
        if token.is_symbol("("):
            self._next()
            if self._peek().is_symbol(")"):
                self._next()
                return Sequence(())
            inner = self.parse_expr()
            self._expect_symbol(")")
            return inner
        if token.is_symbol("."):
            self._next()
            return ContextItem()
        if token.is_symbol("<"):
            return self._parse_direct_constructor(token)
        if token.type == TokenType.NAME:
            if token.value in ("element", "attribute", "text"):
                computed = self._try_parse_computed_constructor()
                if computed is not None:
                    return computed
            if self._peek(1).is_symbol("(") and token.value not in _RESERVED_FUNCTION_NAMES:
                return self._parse_function_call()
        raise self._error(f"unexpected token {token.value!r}", token)

    def _parse_function_call(self) -> FunctionCall:
        name = self._next().value
        self._expect_symbol("(")
        args: List[XQNode] = []
        if not self._peek().is_symbol(")"):
            args.append(self.parse_expr_single())
            while self._peek().is_symbol(","):
                self._next()
                args.append(self.parse_expr_single())
        self._expect_symbol(")")
        return FunctionCall(name, tuple(args))

    def _try_parse_computed_constructor(self) -> Optional[XQNode]:
        kind = self._peek().value
        follower = self._peek(1)
        if kind == "text":
            if not follower.is_symbol("{"):
                return None
            self._next()
            return ComputedText(self._parse_enclosed_or_empty())
        # element / attribute: followed by a name or '{nameExpr}'
        name: Union[str, XQNode]
        if follower.type == TokenType.NAME and self._peek(2).is_symbol("{"):
            self._next()
            name = self._next().value
        elif follower.is_symbol("{"):
            self._next()
            self._next()
            name = self.parse_expr()
            self._expect_symbol("}")
            if not self._peek().is_symbol("{"):
                raise self._error("computed constructor requires a content block")
        else:
            return None
        content = self._parse_enclosed_or_empty()
        if kind == "element":
            return ComputedElement(name, content)
        return ComputedAttribute(name, content)

    def _parse_enclosed_or_empty(self) -> Optional[XQNode]:
        self._expect_symbol("{")
        if self._peek().is_symbol("}"):
            self._next()
            return None
        expr = self.parse_expr()
        self._expect_symbol("}")
        return expr

    # -- direct element constructors -----------------------------------------------
    #
    # The interior of <a ...>...</a> follows XML lexical rules (names and
    # references as repro.xmlcore.parser reads them), so the parser scans
    # raw characters from the '<' token's offset and then re-synchronizes
    # the lexer.

    def _parse_direct_constructor(self, open_token: Token) -> DirectElement:
        source = self.lexer.source
        pos = open_token.pos
        element, pos = self._scan_direct_element(source, pos)
        self.lexer.sync_to(pos)
        return element

    def _scan_error(self, message: str, pos: int) -> XQuerySyntaxError:
        return self.lexer.error(message, pos)

    def _scan_direct_element(self, source: str, pos: int) -> Tuple[DirectElement, int]:
        if pos >= len(source) or source[pos] != "<":
            raise self._scan_error("expected '<'", pos)
        self._nest(pos)
        element, pos = self._scan_direct_body(source, pos + 1)
        self.depth -= 1
        return element, pos

    def _scan_direct_body(self, source: str, pos: int) -> Tuple[DirectElement, int]:
        tag, pos = self._name_at(source, pos)
        attributes: List[DirectAttribute] = []
        while True:
            pos = self._skip_ws(source, pos)
            if pos >= len(source):
                raise self._scan_error("unterminated start tag", pos)
            if source.startswith("/>", pos):
                return DirectElement(tag, tuple(attributes), ()), pos + 2
            if source[pos] == ">":
                pos += 1
                break
            attr, pos = self._scan_direct_attribute(source, pos)
            attributes.append(attr)
        content, pos = self._scan_direct_content(source, pos, tag)
        return DirectElement(tag, tuple(attributes), tuple(content)), pos

    def _name_at(self, source: str, pos: int) -> Tuple[str, int]:
        end = name_end(source, pos)
        if end == pos:
            raise self._scan_error("expected a name", pos)
        return source[pos:end], end

    @staticmethod
    def _skip_ws(source: str, pos: int) -> int:
        while pos < len(source) and source[pos].isspace():
            pos += 1
        return pos

    def _scan_direct_attribute(self, source: str, pos: int) -> Tuple[DirectAttribute, int]:
        name, pos = self._name_at(source, pos)
        pos = self._skip_ws(source, pos)
        if pos >= len(source) or source[pos] != "=":
            raise self._scan_error(f"attribute {name!r} missing '='", pos)
        pos = self._skip_ws(source, pos + 1)
        if pos >= len(source) or source[pos] not in "\"'":
            raise self._scan_error(f"attribute {name!r} must be quoted", pos)
        quote = source[pos]
        parts, pos = self._scan_template(source, pos + 1, quote, "attribute value")
        if pos >= len(source):
            raise self._scan_error(f"unterminated attribute {name!r}", pos)
        return DirectAttribute(name, tuple(parts)), pos + 1

    def _scan_direct_content(
        self, source: str, pos: int, tag: str
    ) -> Tuple[List[Union[str, XQNode]], int]:
        content: List[Union[str, XQNode]] = []
        while True:
            parts, pos = self._scan_template(source, pos, "<", "element content")
            content.extend(parts)
            if pos >= len(source):
                raise self._scan_error(f"unterminated element <{tag}>", pos)
            if source.startswith("</", pos):
                close, pos = self._name_at(source, pos + 2)
                if close != tag:
                    raise self._scan_error(
                        f"mismatched end tag </{close}>, expected </{tag}>", pos
                    )
                pos = self._skip_ws(source, pos)
                if pos >= len(source) or source[pos] != ">":
                    raise self._scan_error(f"malformed end tag </{close}>", pos)
                return content, pos + 1
            child, pos = self._scan_direct_element(source, pos)
            content.append(child)

    def _scan_template(
        self, source: str, pos: int, stop: str, where: str
    ) -> Tuple[List[Union[str, XQNode]], int]:
        """The parts before the next ``stop`` character, which is not consumed:
        runs of text (``{{`` / ``}}`` read as braces, references decoded, and
        a doubled quote read as one when ``stop`` is that quote — XQuery
        1.0 §3.7.1.1 EscapeQuot / EscapeApos) and enclosed expressions."""
        parts: List[Union[str, XQNode]] = []
        buffer: List[str] = []
        while pos < len(source):
            ch = source[pos]
            if ch == stop:
                if stop == "<" or not source.startswith(stop * 2, pos):
                    break
                buffer.append(stop)
                pos += 2
            elif ch == "{" and not source.startswith("{{", pos):
                if buffer:
                    parts.append("".join(buffer))
                    buffer = []
                expr, pos = self._scan_enclosed_expr(source, pos)
                parts.append(expr)
            elif ch == "{" or ch == "}":
                if not source.startswith(ch * 2, pos):
                    raise self._scan_error(f"unescaped '}}' in {where}", pos)
                buffer.append(ch)
                pos += 2
            elif ch == "&":
                value, pos = read_reference(source, pos, self._scan_error)
                buffer.append(value)
            else:
                buffer.append(ch)
                pos += 1
        if buffer:
            parts.append("".join(buffer))
        return parts, pos

    def _scan_enclosed_expr(self, source: str, pos: int) -> Tuple[XQNode, int]:
        """Parse '{ Expr }' starting at the '{'; returns (expr, pos after '}')."""
        assert source[pos] == "{"
        self.lexer.sync_to(pos + 1)
        expr = self.parse_expr()
        closing = self.lexer.next()
        if not closing.is_symbol("}"):
            raise self._scan_error("expected '}' to close enclosed expression", closing.pos)
        # Resume right after the '}' itself; the lexer's lookahead may have
        # scanned further, so lexer.pos is not a reliable resume point.
        return EnclosedExpr(expr), closing.pos + 1


def parse_query(source: str) -> Module:
    """Parse a complete query (prolog + body) into a :class:`Module`."""
    return _Parser(source).parse_module()


def parse_expression(source: str) -> XQNode:
    """Parse a bare expression (no prolog); trailing input is an error."""
    parser = _Parser(source)
    expr = parser.parse_expr()
    token = parser.lexer.peek()
    if token.type != TokenType.EOF:
        raise parser._error(f"unexpected trailing input {token.value!r}", token)
    return expr
