"""The XQuery lexer and parser as they were before the parser held a
current token and climbed one precedence table.

``tokens.py`` and ``parser.py`` are copied verbatim from
``repro/xquery/``, but for two edits: their imports of the rest of the
package are absolute, and the parser's docstring no longer cites a
design note that does not exist.  They build the same AST classes, so
the new parser's trees compare with ``==``.  Only
``tests/test_parser_reference.py`` uses them.
"""

from .parser import parse_expression, parse_query

__all__ = ["parse_expression", "parse_query"]
