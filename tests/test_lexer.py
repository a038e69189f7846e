import pytest

from cglint.errors import LexError
from conftest import token_tuples

from cglint.minicpp.lexer import FLOAT_LIT, IDENT, INT_LIT, KEYWORD, PUNCT, lex


def kinds_and_texts(tokens):
    return [(kind, text) for kind, text, _row, _col in tokens]


def test_class_tokens():
    tokens = token_tuples(lex("class A{};"))
    assert kinds_and_texts(tokens) == [
        (KEYWORD, "class"),
        (IDENT, "A"),
        (PUNCT, "{"),
        (PUNCT, "}"),
        (PUNCT, ";"),
    ]


def test_block_comment_skipped():
    tokens = token_tuples(lex("a /*x*/ b"))
    assert kinds_and_texts(tokens) == [(IDENT, "a"), (IDENT, "b")]


def test_line_comment_skipped():
    tokens = token_tuples(lex("a // rest of line\nb"))
    assert [text for _kind, text, _row, _col in tokens] == ["a", "b"]
    assert tokens[1][2] == 2


def test_lex_error_position():
    with pytest.raises(LexError) as exc:
        lex("ab\ncd\n    @")
    assert (exc.value.span.row, exc.value.span.col) == (3, 5)


def test_preprocessor_lines_preserve_rows():
    tokens = token_tuples(lex('# 1 "file.cpp"\nint x;\n#pragma nothing\nint y;\n'))
    assert [text for _kind, text, _row, _col in tokens] == ["int", "x", ";", "int", "y", ";"]
    assert tokens[0][2] == 2
    assert tokens[3][2] == 4


def test_spans_are_one_based_and_inclusive():
    tokens = token_tuples(lex("int value;"))
    assert spans(tokens) == [
        (KEYWORD, "int", (1, 1, 1, 3)),
        (IDENT, "value", (1, 5, 1, 9)),
        (PUNCT, ";", (1, 10, 1, 10)),
    ]


def test_multichar_punct_longest_match():
    tokens = token_tuples(lex("a::b->c<<=d"))
    puncts = [text for kind, text, _row, _col in tokens if kind == PUNCT]
    assert puncts == ["::", "->", "<<="]


def test_numeric_literals():
    tokens = token_tuples(lex("0 42 3.14 1e5"))
    assert [kind for kind, _text, _row, _col in tokens] == [INT_LIT, INT_LIT, "FLOAT_LIT", "FLOAT_LIT"]


def test_string_and_char_literals():
    tokens = token_tuples(lex(r'"he\"llo" ' + r"'x'"))
    assert [kind for kind, _text, _row, _col in tokens] == ["STRING_LIT", "CHAR_LIT"]


def test_identifier_with_digits_and_underscores():
    tokens = token_tuples(lex("array_Size x2"))
    assert kinds_and_texts(tokens) == [(IDENT, "array_Size"), (IDENT, "x2")]


def spans(tokens):
    """(kind, text, (row, col, end_row, end_col)); a token never spans lines."""
    return [(kind, text, (row, col, row, col + len(text) - 1)) for kind, text, row, col in tokens]


def lex_error(text):
    with pytest.raises(LexError) as exc:
        lex(text)
    span = exc.value.span
    return exc.value.message, (span.row, span.col, span.end_row, span.end_col)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("é ß _x1", [(IDENT, "é", (1, 1, 1, 1)), (IDENT, "ß", (1, 3, 1, 3)), (IDENT, "_x1", (1, 5, 1, 7))]),
        # superscript two is a digit but not a decimal: it starts a number
        ("²x", [(INT_LIT, "²x", (1, 1, 1, 2))]),
        (".²", [(FLOAT_LIT, ".²", (1, 1, 1, 2))]),
        (
            ".5 1.e3 0xE1 1e5",
            [
                (FLOAT_LIT, ".5", (1, 1, 1, 2)),
                (FLOAT_LIT, "1.e3", (1, 4, 1, 7)),
                (INT_LIT, "0xE1", (1, 9, 1, 12)),
                (FLOAT_LIT, "1e5", (1, 14, 1, 16)),
            ],
        ),
        ("a\r\n# 1 x\nb", [(IDENT, "a", (1, 1, 1, 1)), (IDENT, "b", (3, 1, 3, 1))]),
        ("/*\n\n*/ x", [(IDENT, "x", (3, 4, 3, 4))]),
        # nothing but blanks or a comment after the last token
        ("a // c", [(IDENT, "a", (1, 1, 1, 1))]),
        ("a /* b */", [(IDENT, "a", (1, 1, 1, 1))]),
        ("a \n\n ", [(IDENT, "a", (1, 1, 1, 1))]),
        # a token that starts beyond ASCII
        ("².5", [(FLOAT_LIT, "².5", (1, 1, 1, 3))]),
        (".é", [(PUNCT, ".", (1, 1, 1, 1)), (IDENT, "é", (1, 2, 1, 2))]),
        ("é.x", [(IDENT, "é", (1, 1, 1, 1)), (PUNCT, ".", (1, 2, 1, 2)), (IDENT, "x", (1, 3, 1, 3))]),
    ],
    ids=[
        "letters", "superscript", "dot_superscript", "numbers", "crlf_marker", "comment_rows",
        "end_line_comment", "end_block_comment", "end_blanks", "superscript_float", "dot_letter",
        "letter_dot_letter",
    ],
)
def test_token_spans(text, expected):
    assert spans(token_tuples(lex(text))) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("½", ("unexpected character '½'", (1, 1, 1, 1))),
        ("a Ⅻ", ("unexpected character 'Ⅻ'", (1, 3, 1, 3))),
        ("a # b", ("unexpected character '#'", (1, 3, 1, 3))),
        ('x "a\\\n"', ("unterminated literal", (1, 3, 1, 3))),
        ("a\n  /* b", ("unterminated comment", (2, 3, 2, 3))),
        # a quote inside a comment opens no literal
        ("// don't\n @", ("unexpected character '@'", (2, 2, 2, 2))),
        (".Ⅻ", ("unexpected character 'Ⅻ'", (1, 2, 1, 2))),
    ],
    ids=[
        "fraction", "roman_numeral", "marker_not_at_col_1", "escaped_newline", "open_comment",
        "quote_in_comment", "dot_roman_numeral",
    ],
)
def test_lex_error_spans(text, expected):
    assert lex_error(text) == expected


def test_each_distinct_text_is_one_object():
    """A token's text is the one object the lexer's word table keeps, in one
    text and across texts."""
    first = lex("count = count + 1; // count\nint count;", "a.cpp")
    second = lex("count + 1", "b.cpp")
    counts = [text for text in first.texts + second.texts if text == "count"]
    assert len(counts) == 4 and all(text is counts[0] for text in counts)
    assert first.texts[4] is second.texts[2]  # "1"
