"""Parser for the framework's small query language.

Grammar (case-insensitive keywords)::

    query   := [ "SELECT" field { "," field } ]
               [ "WHERE" ] [ or_expr ]
               [ "ORDER" "BY" field [ "ASC" | "DESC" ] ]
               [ "LIMIT" int ]
    or_expr := and_expr { "OR" and_expr }
    and_expr:= unary { "AND" unary }
    unary   := "NOT" unary | "(" or_expr ")" | comparison
    comparison := field op value | field "IN" "(" value {"," value} ")"
    op      := "=" | "!=" | ">" | ">=" | "<" | "<="
    value   := 'string' | number | true | false
                 (in a string, a backslash escapes the next character)

Examples the examples/ scripts run::

    camera_id = 'cam-07' AND metadata.timestamp >= 1000
    vehicle_class IN ('truck', 'bus') ORDER BY metadata.timestamp DESC LIMIT 5

A text is tokenized in one pass, one ``findall`` over a single alternation
whose last branch catches any other non-blank character (which raises). A
token's kind is an operator's or a punctuation mark's own text, a keyword's
lower-cased word, or ``word`` / ``string`` / ``number``; the grammar is a
flat descent over the kinds, one function per precedence level.
"""

from __future__ import annotations

import re

from repro.errors import QueryParseError
from repro.query.ast import And, Compare, Expr, InSet, Not, Or, Query, TrueExpr

# The branches start on disjoint characters, so their order only decides
# speed (the commonest first); the last catches any other non-blank one.
_TOKEN_RE = re.compile(
    r"""
        (?P<word>[A-Za-z_][A-Za-z0-9_.~-]*)
      | (?P<sym>>=|<=|!=|[=><(),])
      | (?P<string>'[^'\\]*(?:\\.[^'\\]*)*')
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<stray>\S)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "where", "and", "or", "not", "in", "order", "by", "asc", "desc",
    "limit", "true", "false",
}

_OPS = {"=", "!=", ">", ">=", "<", "<="}

_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

_END = "end"  # the kind of the sentinel token after the last one


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """``(kinds, texts)`` of ``text``'s tokens, closed by an ``end`` token."""
    kinds: list[str] = []
    texts: list[str] = []
    for word, sym, string, number, stray in _TOKEN_RE.findall(text):
        if stray:
            raise _stray(text)
        if word:
            kind = word.lower()
            if kind not in _KEYWORDS:
                kind = "word"
        else:
            kind = sym or ("string" if string else "number")
        kinds.append(kind)
        texts.append(word or sym or string or number)
    kinds.append(_END)
    texts.append("")
    return kinds, texts


def _stray(text: str) -> QueryParseError:
    """The error for ``text``'s first character no token starts with."""
    at = next(m.start() for m in _TOKEN_RE.finditer(text) if m.lastgroup == "stray")
    return QueryParseError(f"cannot tokenize query at: {text[at:].strip()[:20]!r}")


def _expect(kinds: list[str], texts: list[str], i: int, wanted: str) -> str:
    """The text of token ``i``, which must be a ``wanted`` (a ``wanted`` that
    is no token kind always raises)."""
    if kinds[i] == wanted:
        return texts[i]
    if kinds[i] == _END:
        raise QueryParseError("unexpected end of query")
    raise QueryParseError(f"expected {wanted}, got {texts[i]!r}")


def _value(kinds: list[str], texts: list[str], i: int):
    """The literal at token ``i``."""
    kind, text = kinds[i], texts[i]
    if kind == "string":
        text = text[1:-1]
        # One pass, so "\\" is one backslash and "\'" one quote.
        return _ESCAPE_RE.sub(r"\1", text) if "\\" in text else text
    if kind == "number":
        return float(text) if "." in text else int(text)
    if kind == "true" or kind == "false":
        return kind == "true"
    return _expect(kinds, texts, i, "a value")


def _or(kinds: list[str], texts: list[str], i: int) -> tuple[Expr, int]:
    """The ``or_expr`` at token ``i``, and the position after it."""
    disjuncts = []
    while True:
        expr, i = _unary(kinds, texts, i)
        if kinds[i] == "and":
            conjuncts = [expr]
            while kinds[i] == "and":
                expr, i = _unary(kinds, texts, i + 1)
                conjuncts.append(expr)
            expr = And(tuple(conjuncts))
        if kinds[i] != "or":
            break
        disjuncts.append(expr)
        i += 1
    if disjuncts:
        disjuncts.append(expr)
        return Or(tuple(disjuncts)), i
    return expr, i


def _unary(kinds: list[str], texts: list[str], i: int) -> tuple[Expr, int]:
    kind = kinds[i]
    if kind == "not":
        inner, i = _unary(kinds, texts, i + 1)
        return Not(inner), i
    if kind == "(":
        inner, i = _or(kinds, texts, i + 1)
        _expect(kinds, texts, i, ")")
        return inner, i + 1
    field = texts[i] if kind == "word" else _expect(kinds, texts, i, "word")
    op = kinds[i + 1]
    if op in _OPS:
        return Compare(field, op, _value(kinds, texts, i + 2)), i + 3
    if op != "in":
        _expect(kinds, texts, i + 1, "comparison operator")
    _expect(kinds, texts, i + 2, "(")
    values = [_value(kinds, texts, i + 3)]
    i += 4
    while kinds[i] == ",":
        values.append(_value(kinds, texts, i + 1))
        i += 2
    _expect(kinds, texts, i, ")")
    return InSet(field, tuple(values)), i + 1


def parse_query(text: str) -> Query:
    """Parse query text into a :class:`repro.query.ast.Query`."""
    kinds, texts = _tokenize(text)
    i = 0
    select = None
    if kinds[0] == "select":
        fields = [_expect(kinds, texts, 1, "word")]
        i = 2
        while kinds[i] == ",":
            fields.append(_expect(kinds, texts, i + 1, "word"))
            i += 2
        select = tuple(fields)
    if kinds[i] == "where":
        i += 1
    kind = kinds[i]
    if kind == _END or kind == "order" or kind == "limit":
        where: Expr = TrueExpr()
    else:
        where, i = _or(kinds, texts, i)
    order_by = None
    descending = False
    if kinds[i] == "order":
        if kinds[i + 1] != "by":
            raise QueryParseError("ORDER must be followed by BY")
        order_by = _expect(kinds, texts, i + 2, "word")
        i += 3
        descending = kinds[i] == "desc"
        if descending or kinds[i] == "asc":
            i += 1
    limit = None
    if kinds[i] == "limit":
        limit_text = _expect(kinds, texts, i + 1, "number")
        if "." in limit_text:
            raise QueryParseError("LIMIT must be an integer")
        limit = int(limit_text)
        i += 2
    if kinds[i] != _END:
        raise QueryParseError(f"trailing input at {texts[i]!r}")
    return Query(
        where=where,
        order_by=order_by,
        descending=descending,
        limit=limit,
        select=select,
    )
