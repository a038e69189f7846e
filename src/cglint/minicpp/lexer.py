"""Lexer for the preprocessed C++ subset.

One compiled pattern tokenizes the input; rows and columns advance by the
newlines each match holds. Input is assumed to be preprocessor output: a
line whose column 1 is ``#`` is a line marker, skipped but still counted, so
spans match the original file. A ``#`` anywhere else is an error. The three
errors are "unterminated comment", "unterminated literal" and "unexpected
character", each at the position where the offending text starts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import LexError
from ..model import SourceSpan

KEYWORDS = frozenset(
    """
    class enum typedef namespace using public private protected virtual
    static const void bool char int short long float double unsigned signed
    if else switch case default for while do return break continue goto
    new delete true false this
    """.split()
)

# Longest match first.
_PUNCT = [
    "<<=", ">>=", "->", "::", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ":", ",", ".", "?",
]

IDENT = "IDENT"
KEYWORD = "KEYWORD"
INT_LIT = "INT_LIT"
FLOAT_LIT = "FLOAT_LIT"
STRING_LIT = "STRING_LIT"
CHAR_LIT = "CHAR_LIT"
PUNCT = "PUNCT"

# Blanks before a token are part of its match, and a run of blanks, line
# breaks, comments and line markers is one ``skip`` match. A group named after
# a token kind yields that kind. ``wide`` takes what ``\w`` admits beyond
# ASCII letters and decimal digits, with a ``.`` before it: ``_wide`` decides
# from ``isalpha`` and ``isdigit`` whether it starts an identifier, a number
# or an error. Alternatives are tried in order.
_TOKEN = re.compile(
    r"""[ \t]*(?:
        (?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/|(?<![^\n])\#[^\n]*)+)
       |(?P<IDENT>[A-Za-z_]\w*)
       |(?P<number>\.?\d[\w.]*)
       |(?P<wide>\.?[^\W\d_A-Za-z]\w*)
       |(?P<STRING_LIT>"(?:[^"\\\n]|\\[^\n])*")
       |(?P<CHAR_LIT>'(?:[^'\\\n]|\\[^\n])*')
       |(?P<open_comment>/\*)
       |(?P<PUNCT>%s)
    )""" % "|".join(re.escape(p) for p in _PUNCT),
    re.VERBOSE | re.DOTALL,
)
_NUMBER = re.compile(r"\.?\w[\w.]*")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: SourceSpan

    def is_punct(self, text):
        return self.kind == PUNCT and self.text == text

    def is_keyword(self, text):
        return self.kind == KEYWORD and self.text == text


def lex(text, file="<input>"):
    """Tokenize ``text``; raises LexError on the first offending character."""
    tokens = []
    row = 1
    line_start = 0  # offset of the first character of ``row``
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:  # ``skip`` would have taken a blank, so text[pos] is the culprit
            message = "unterminated literal" if text[pos] in "\"'" else "unexpected character %r" % text[pos]
            raise LexError(SourceSpan.point(file, row, pos - line_start + 1), message)
        kind = m.lastgroup
        if kind == "skip":
            word = m.group()
            newlines = word.count("\n")
            if newlines:
                row += newlines
                line_start = pos + word.rfind("\n") + 1
            pos = m.end()
            continue
        start = m.start(kind)
        word = m.group(kind)
        col = start - line_start + 1
        if kind == IDENT and word in KEYWORDS:
            kind = KEYWORD
        elif kind == "wide":
            kind, word = _wide(text, start, word)
            if kind is None:
                raise LexError(SourceSpan.point(file, row, col), "unexpected character %r" % word)
        elif kind == "open_comment":
            raise LexError(SourceSpan.point(file, row, col), "unterminated comment")
        if kind == "number":
            is_float = "." in word or (("e" in word or "E" in word) and word[:2] not in ("0x", "0X"))
            kind = FLOAT_LIT if is_float else INT_LIT
        pos = start + len(word)
        tokens.append(Token(kind, word, SourceSpan(file, row, col, row, col + len(word) - 1)))
    return tokens


def _wide(text, pos, word):
    """(kind, text) of the token a ``wide`` match starts: a number if its
    first non-dot character is a digit, else a lone ``.``, else an
    identifier if that character is a letter; (None, character) if not."""
    lead = word[word[0] == "."]
    if lead.isdigit():
        return "number", _NUMBER.match(text, pos).group()
    if word[0] == ".":
        return PUNCT, "."
    if lead.isalpha():
        return IDENT, word
    return None, lead
