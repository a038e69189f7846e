import pytest

from conftest import analyze_seq, find_all, fixture_path, token_tuples

from cglint.errors import ParseError, UndeclaredObjectError
from cglint.seqdiag import _tokenize, parse_seq


def read_fixture(name):
    with open(fixture_path(name)) as f:
        return f.read()


@pytest.fixture
def library_chart():
    return parse_seq(read_fixture("librarytest.sd"), "librarytest.sd")


def test_library_chart_shape(library_chart):
    assert library_chart.kind == "SequenceDiagram"
    assert library_chart.attr("name") == "librarytest"
    objects = find_all(library_chart, "ObjectDecl")
    assert [o.attr("name") for o in objects] == [
        "test",
        "library",
        "librarian",
        "client",
        "request",
        "book",
    ]
    messages = find_all(library_chart, "Message")
    assert len(messages) == 9
    directions = [m.attr("direction") for m in messages]
    assert directions.count("CALL") == 6
    assert directions.count("RETURN") == 3


def test_library_chart_message_rows(library_chart):
    rows = [m.span.row for m in find_all(library_chart, "Message")]
    assert rows == [9, 10, 12, 14, 15, 16, 17, 19, 21]


def test_nested_block(library_chart):
    outer = find_all(library_chart, "InteractionBlock")[0]
    inner_blocks = [c for c in outer.children if c.kind == "InteractionBlock"]
    assert len(inner_blocks) == 1
    assert len(inner_blocks[0].children) == 4


def test_stereotype_parsed(library_chart):
    messages = find_all(library_chart, "Message")
    stereotypes = [m.attr("stereotype") for m in messages]
    assert stereotypes[1] == "trigger"
    assert stereotypes[0] == ""


def test_payloads(library_chart):
    messages = find_all(library_chart, "Message")
    assert messages[0].attr("payload") == "setup()"
    assert messages[3].attr("payload") == "requestBook(request)"
    assert messages[5].attr("payload") == "return book"


def test_direction_and_endpoints(library_chart):
    messages = find_all(library_chart, "Message")
    call = messages[2]
    assert (call.attr("source"), call.attr("target")) == ("librarian", "client")
    assert call.attr("direction") == "CALL"
    ret = messages[5]
    assert (ret.attr("source"), ret.attr("target")) == ("librarian", "library")
    assert ret.attr("direction") == "RETURN"


def test_undeclared_object_is_fatal():
    source = "sequencediagram d {\n  object a:A;\n  { a -> ghost : go(); }\n}\n"
    with pytest.raises(UndeclaredObjectError) as exc:
        parse_seq(source, "bad.sd")
    assert exc.value.span.row == 3


def test_parse_error_on_malformed_chart():
    with pytest.raises(ParseError):
        parse_seq("sequencediagram d {", "bad.sd")
    with pytest.raises(ParseError):
        parse_seq("diagram d { }", "bad.sd")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_seq("sequencediagram d { } extra", "bad.sd")


def test_comments_ignored():
    chart = parse_seq(
        "sequencediagram d { // header\n  object a:A; // obj\n  { a -> a : ping(); }\n}\n"
    )
    assert len(find_all(chart, "Message")) == 1


def test_symbols_for_chart():
    root = analyze_seq(read_fixture("librarytest.sd"))
    assert len(root.symbols.variables) == 6
    first = root.symbols.variables[0]
    assert first.node.attr("type") == "LibraryTest"
    assert root.symbols.binding_of(first.node) is first


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "sequencediagram d {\r\n  object a:A; // c\r\n\t{ a -> b : <<t>> m(x, y); }\r\n}",
            [
                ("ident", "sequencediagram", 1, 1), ("ident", "d", 1, 17), ("punct", "{", 1, 19),
                ("ident", "object", 2, 3), ("ident", "a", 2, 10), ("punct", ":", 2, 11),
                ("ident", "A", 2, 12), ("punct", ";", 2, 13),
                ("punct", "{", 3, 2), ("ident", "a", 3, 4), ("punct", "->", 3, 6), ("ident", "b", 3, 9),
                ("punct", ":", 3, 11), ("punct", "<<", 3, 13), ("ident", "t", 3, 15), ("punct", ">>", 3, 16),
                ("ident", "m", 3, 19), ("punct", "(", 3, 20), ("ident", "x", 3, 21), ("punct", ",", 3, 22),
                ("ident", "y", 3, 24), ("punct", ")", 3, 25), ("punct", ";", 3, 26), ("punct", "}", 3, 28),
                ("punct", "}", 4, 1),
            ],
        ),
        # any Unicode blank separates tokens, but only a line feed starts a row
        ("a\xa0b\u2028c\x0cd\n  e", [("ident", w, r, c) for w, r, c in
                                        [("a", 1, 1), ("b", 1, 3), ("c", 1, 5), ("d", 1, 7), ("e", 2, 3)]]),
        ("// x\nab//y\n->", [("ident", "ab", 2, 1), ("punct", "->", 3, 1)]),
        ("", []),
        ("a //c", [("ident", "a", 1, 1)]),
    ],
    ids=["crlf_tab_chart", "unicode_blanks", "comments", "empty", "end_comment"],
)
def test_token_spans(text, expected):
    assert token_tuples(_tokenize(text, "t.sd")) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("object é", ("unexpected character 'é'", (1, 8, 1, 8))),
        ("a\r\n\t#", ("unexpected character '#'", (2, 2, 2, 2))),
        ("a - b", ("unexpected character '-'", (1, 3, 1, 3))),
        ("// é\n½", ("unexpected character '½'", (2, 1, 2, 1))),
        # a quote inside a comment opens nothing
        ("// it's\n@", ("unexpected character '@'", (2, 1, 2, 1))),
    ],
    ids=["non_ascii_letter", "crlf_tab", "lone_minus", "after_comment", "quote_in_comment"],
)
def test_token_error_spans(text, expected):
    with pytest.raises(ParseError) as exc:
        _tokenize(text, "t.sd")
    assert type(exc.value) is ParseError
    span = exc.value.span
    assert (exc.value.message, (span.row, span.col, span.end_row, span.end_col)) == expected


_OBJ = "sequencediagram d { object a:A; "


@pytest.mark.parametrize(
    "text, expected",
    [
        ("", (ParseError, "unexpected end of input", (1, 1, 1, 1))),
        # at the end of input the span is the last token's
        ("sequencediagram", (ParseError, "unexpected end of input", (1, 1, 1, 15))),
        ("sequencediagram d {", (ParseError, "unexpected end of input", (1, 19, 1, 19))),
        (_OBJ + "{ a -> a : m(", (ParseError, "unexpected end of input", (1, 45, 1, 45))),
        ("sequencediagram { }", (ParseError, "expected identifier, found '{'", (1, 17, 1, 17))),
        (_OBJ + "{ a -> a : m(; } }", (ParseError, "expected identifier, found ';'", (1, 46, 1, 46))),
        # an argument list separates its names with commas, and ends in a name
        (_OBJ + "{ a -> a : m(x y); } }", (ParseError, "expected ')', found 'y'", (1, 48, 1, 48))),
        (_OBJ + "{ a -> a : m(x,); } }", (ParseError, "expected identifier, found ')'", (1, 48, 1, 48))),
        ("diagram d { }", (ParseError, "expected 'sequencediagram', found 'diagram'", (1, 1, 1, 7))),
        ("sequencediagram d { object a A; }", (ParseError, "expected ':', found 'A'", (1, 30, 1, 30))),
        (_OBJ + "{ a a : m(); } }", (ParseError, "expected '->' or '<-'", (1, 37, 1, 37))),
        # at the end of input, at the left name
        (_OBJ + "{ a", (ParseError, "expected '->' or '<-'", (1, 35, 1, 35))),
        (
            _OBJ + "\n" + "{" * 129 + "}" * 129 + "\n}",
            (ParseError, "nesting deeper than 128 levels", (2, 129, 2, 129)),
        ),
        ("sequencediagram d { } extra", (ParseError, "trailing input after chart", (1, 23, 1, 27))),
        (
            "sequencediagram d {\n  object a:A;\n  { a -> ghost : go(); }\n}\n",
            (UndeclaredObjectError, "message names undeclared object 'ghost'", (3, 10, 3, 14)),
        ),
        (
            _OBJ + "{ ghost <- b : return; } }",
            (UndeclaredObjectError, "message names undeclared object 'ghost'", (1, 35, 1, 39)),
        ),
    ],
    ids=[
        "end_empty", "end_after_long_token", "end_in_chart", "end_in_arguments",
        "identifier", "identifier_in_arguments", "arguments_without_comma",
        "arguments_trailing_comma", "keyword", "colon",
        "arrow", "arrow_at_end", "nesting", "trailing", "undeclared_target", "undeclared_source",
    ],
)
def test_parse_error_spans(text, expected):
    with pytest.raises(ParseError) as exc:
        parse_seq(text, "t.sd")
    span = exc.value.span
    found = (type(exc.value), exc.value.message, (span.row, span.col, span.end_row, span.end_col))
    assert found == expected
