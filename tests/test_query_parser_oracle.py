"""The one-pass parser against the former one (:mod:`tests.query_parser_oracle`).

Texts are built from the grammar token by token — SELECT lists, NOT,
parentheses, IN lists, every operator, string literals with escaped quotes
and backslashes, negative and float numbers, ``true`` / ``false``, ORDER BY
with ASC / DESC, LIMIT — with keywords in any case and any blanks between
tokens. Each text is also fed with one token dropped, doubled or replaced by
a stray character, and with tokens that may run together. Both parsers must
return equal queries that print the same, or raise the same error class.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.query import parse_query
from tests import query_parser_oracle as oracle

FIELDS = (
    "camera_id", "metadata.camera_id", "metadata.timestamp", "vehicle_class",
    "source_id", "x", "a_b.c~d-e", "orders", "Index", "notable", "by_x", "_",
)
OPS = ("=", "!=", ">", ">=", "<", "<=")
STRAYS = ("~", "!", "@", ";", "*", "'", "\\", '"', "{", "é", "-", ".", "٣", "`")
BLANKS = (" ", " ", " ", "  ", "\t", "\n")


def keyword(word: str) -> st.SearchStrategy[str]:
    return st.sampled_from((word, word.upper(), word.capitalize()))


# A literal's body: plain characters, or a backslash and the one it escapes.
_piece = st.one_of(
    st.characters(blacklist_characters="'\\", blacklist_categories=("Cs",)),
    st.sampled_from(("\\'", "\\\\", "\\n", "\\a", "\\ ")),
)
strings = st.lists(_piece, max_size=6).map(lambda parts: "'" + "".join(parts) + "'")
numbers = st.one_of(
    st.integers(-10**12, 10**12).map(str),
    st.tuples(st.integers(-999, 999), st.integers(0, 999)).map(lambda p: f"{p[0]}.{p[1]}"),
    st.sampled_from(("-0", "0.0", "-0.5", "007")),
)
values = st.one_of(strings, numbers, keyword("true"), keyword("false"))
fields = st.sampled_from(FIELDS)


def comparison() -> st.SearchStrategy[list[str]]:
    compare = st.tuples(fields, st.sampled_from(OPS), values).map(list)
    in_set = st.builds(
        lambda field, kw, vals: [field, kw, "(", *sum(([v, ","] for v in vals), [])[:-1], ")"],
        fields, keyword("in"), st.lists(values, min_size=1, max_size=3),
    )
    return st.one_of(compare, in_set)


def _extend(inner: st.SearchStrategy[list[str]]) -> st.SearchStrategy[list[str]]:
    return st.one_of(
        st.tuples(keyword("not"), inner).map(lambda t: [t[0], *t[1]]),
        inner.map(lambda tokens: ["(", *tokens, ")"]),
        st.tuples(inner, st.sampled_from(("and", "AND", "or", "Or")), inner).map(
            lambda t: [*t[0], t[1], *t[2]]
        ),
    )


expressions = st.recursive(comparison(), _extend, max_leaves=6)


@st.composite
def queries(draw) -> list[str]:
    tokens: list[str] = []
    if draw(st.booleans()):
        names = draw(st.lists(fields, min_size=1, max_size=3))
        tokens += [draw(keyword("select")), *sum(([n, ","] for n in names), [])[:-1]]
    if draw(st.booleans()):
        tokens.append(draw(keyword("where")))
    if draw(st.integers(0, 4)):
        tokens += draw(expressions)
    if draw(st.booleans()):
        tokens += [draw(keyword("order")), draw(keyword("by")), draw(fields)]
        tokens += draw(st.sampled_from(([], ["asc"], ["DESC"], ["Asc"], ["desc"])))
    if draw(st.booleans()):
        tokens += [draw(keyword("limit")), draw(st.sampled_from(("0", "5", "50", "1.5", "-1")))]
    return tokens


@st.composite
def texts(draw, tokens: st.SearchStrategy[list[str]], blanks=BLANKS) -> str:
    """``tokens`` joined by blanks; with ``""`` among ``blanks`` two tokens
    may run together."""
    parts = draw(tokens)
    blanks = draw(st.lists(st.sampled_from(blanks), min_size=len(parts) + 1,
                           max_size=len(parts) + 1))
    return blanks[0] + "".join(p + b for p, b in zip(parts, blanks[1:]))


@st.composite
def mutated(draw) -> list[str]:
    tokens = draw(queries())
    if not tokens:
        return [draw(st.sampled_from(STRAYS))]
    i = draw(st.integers(0, len(tokens) - 1))
    how = draw(st.sampled_from(("drop", "double", "stray")))
    if how == "drop":
        return tokens[:i] + tokens[i + 1:]
    if how == "double":
        return tokens[:i + 1] + tokens[i:]
    return tokens[:i] + [draw(st.sampled_from(STRAYS))] + tokens[i + 1:]


def outcome(parse, text: str):
    try:
        query = parse(text)
    except QueryError as exc:
        return type(exc)
    return query, repr(query)


def assert_same(text: str) -> None:
    assert outcome(parse_query, text) == outcome(oracle.parse_query, text), text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(texts(queries()))
def test_grammar_texts_parse_as_before(text):
    assert_same(text)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(texts(mutated(), blanks=("", *BLANKS)))
def test_broken_texts_fail_or_parse_as_before(text):
    assert_same(text)


def test_fixed_texts_parse_as_before():
    for text in (
        "", "   ", "WHERE", "x = 1", "a = 1 OR b = 2 AND c = 3", "NOT NOT a = 1",
        "(a = 1 OR b = 2) AND c = 3", r"name = 'O\'Brien'", r"s = 'a\\b'",
        r"s = 'x\\'", "x IN ('a', 1, true)", "SELECT a, b.c WHERE x >= -1.5 LIMIT 0",
        "x = 1 ORDER BY y DESC LIMIT 5", "ORDER BY y", "LIMIT 3", "x=1", "x~1 = 2",
        "x ~ 1", "ORDER x", "x = 1 LIMIT 1.5", "x = 1 garbage = 2", "= 5", "x =",
        "x = 'open", "x IN ()", "x IN ('a',)", "x = 1 LIMIT -1", "SELECT", "x = ٣",
        "x = 1 ORDER BY y ASC DESC",
    ):
        assert_same(text)
