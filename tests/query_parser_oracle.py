"""The former query parser, kept verbatim as the oracle for the one-pass parser.

Until the parser was rewritten as one regex pass and a flat descent, it was
the code below: a ``match``-per-token tokenizer and a ``_Parser`` object
whose grammar methods went through ``peek`` / ``next`` / ``accept_keyword``
/ ``expect``. ``tests/test_query_parser_oracle.py`` feeds both parsers the
same texts: each must return an equal :class:`~repro.query.ast.Query`, or
both must raise.

The grammar is the one :mod:`repro.query.parser` documents.
"""

from __future__ import annotations

import re

from repro.errors import QueryParseError
from repro.query.ast import And, Compare, Expr, InSet, Not, Or, Query, TrueExpr

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>'(?:[^'\\]|\\.)*')
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<op>>=|<=|!=|=|>|<)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<word>[A-Za-z_][A-Za-z0-9_.~-]*)
    )""",
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "where", "and", "or", "not", "in", "order", "by", "asc", "desc",
    "limit", "true", "false",
}


_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

# (kind, text): a kind is a _TOKEN_RE group name, or "keyword".
_Token = tuple[str, str]
_END: _Token = ("end", "")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise QueryParseError(f"cannot tokenize query at: {remainder[:20]!r}")
        pos = match.end()
        kind = match.lastgroup
        value = match[kind]
        if kind == "word" and value.lower() in _KEYWORDS:
            tokens.append(("keyword", value.lower()))
        else:
            tokens.append((kind, value))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else _END

    def next(self) -> _Token:
        token = self.peek()
        if token is _END:
            raise QueryParseError("unexpected end of query")
        self.pos += 1
        return token

    def accept_keyword(self, *words: str) -> str | None:
        kind, text = self.peek()
        if kind == "keyword" and text in words:
            self.pos += 1
            return text
        return None

    def expect(self, kind: str) -> str:
        """The text of the next token, which must be a ``kind``."""
        token_kind, text = self.next()
        if token_kind != kind:
            raise QueryParseError(f"expected {kind}, got {text!r}")
        return text

    # -- grammar ---------------------------------------------------------------

    def parse_query(self) -> Query:
        select: tuple[str, ...] | None = None
        if self.accept_keyword("select"):
            fields = [self.expect("word")]
            while self.peek()[0] == "comma":
                self.next()
                fields.append(self.expect("word"))
            select = tuple(fields)
        self.accept_keyword("where")
        where: Expr = TrueExpr()
        if self.peek() not in (_END, ("keyword", "order"), ("keyword", "limit")):
            where = self.parse_or()
        order_by = None
        descending = False
        if self.accept_keyword("order"):
            if not self.accept_keyword("by"):
                raise QueryParseError("ORDER must be followed by BY")
            order_by = self.expect("word")
            if self.accept_keyword("desc"):
                descending = True
            else:
                self.accept_keyword("asc")
        limit = None
        if self.accept_keyword("limit"):
            limit_text = self.expect("number")
            if "." in limit_text:
                raise QueryParseError("LIMIT must be an integer")
            limit = int(limit_text)
        if self.peek() is not _END:
            raise QueryParseError(f"trailing input at {self.peek()[1]!r}")
        return Query(
            where=where,
            order_by=order_by,
            descending=descending,
            limit=limit,
            select=select,
        )

    def parse_or(self) -> Expr:
        parts = [self.parse_and()]
        while self.accept_keyword("or"):
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Expr:
        parts = [self.parse_unary()]
        while self.accept_keyword("and"):
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> Expr:
        if self.accept_keyword("not"):
            return Not(self.parse_unary())
        if self.peek()[0] == "lparen":
            self.next()
            inner = self.parse_or()
            self.expect("rparen")
            return inner
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        field = self.expect("word")
        if self.accept_keyword("in"):
            self.expect("lparen")
            values = [self.parse_value()]
            while self.peek()[0] == "comma":
                self.next()
                values.append(self.parse_value())
            self.expect("rparen")
            return InSet(field=field, values=tuple(values))
        kind, op = self.next()
        if kind != "op":
            raise QueryParseError(f"expected comparison operator, got {op!r}")
        return Compare(field=field, op=op, value=self.parse_value())

    def parse_value(self):
        kind, text = self.next()
        if kind == "string":
            # One pass, so "\\" is one backslash and "\'" one quote.
            return _ESCAPE_RE.sub(r"\1", text[1:-1])
        if kind == "number":
            return float(text) if "." in text else int(text)
        if kind == "keyword" and text in ("true", "false"):
            return text == "true"
        raise QueryParseError(f"expected a value, got {text!r}")


def parse_query(text: str) -> Query:
    """Parse query text into a :class:`repro.query.ast.Query`."""
    tokens = _tokenize(text)
    if not tokens:
        return Query()
    return _Parser(tokens).parse_query()
